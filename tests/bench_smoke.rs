//! Smoke test over the whole criterion bench suite.
//!
//! Each bench file is compiled into this harness as a module and its
//! `criterion_group!`-generated entry point is called once with
//! `CCAI_BENCH_SMOKE` set, which makes the vendored criterion run every
//! bench body exactly once instead of timing it. This keeps all seven
//! bench targets compile- and run-checked by the ordinary `cargo test`
//! gate: a bench that panics or stops building fails the tier-1 suite
//! instead of rotting until someone runs `cargo bench`. The `datapath`
//! bench's compiled-vs-scan agreement check over its filter flood runs
//! here too.

#[path = "../crates/bench/benches/ablations.rs"]
mod ablations;
#[path = "../crates/bench/benches/datapath.rs"]
mod datapath;
#[path = "../crates/bench/benches/fig10_devices.rs"]
mod fig10_devices;
#[path = "../crates/bench/benches/fig11_optimizations.rs"]
mod fig11_optimizations;
#[path = "../crates/bench/benches/fig12_stress.rs"]
mod fig12_stress;
#[path = "../crates/bench/benches/fig8_llama_sweeps.rs"]
mod fig8_llama_sweeps;
#[path = "../crates/bench/benches/fig9_models.rs"]
mod fig9_models;

#[test]
fn every_bench_body_runs_once() {
    std::env::set_var("CCAI_BENCH_SMOKE", "1");
    ablations::benches();
    datapath::benches();
    fig10_devices::benches();
    fig11_optimizations::benches();
    fig12_stress::benches();
    fig8_llama_sweeps::benches();
    fig9_models::benches();
}
