//! Smoke test over the criterion bench suite.
//!
//! The bench file is compiled into this harness as a module and its
//! `criterion_group!`-generated entry point is called once with
//! `CCAI_BENCH_SMOKE` set, which makes the vendored criterion run every
//! bench body exactly once instead of timing it. This keeps the one bench
//! target, `datapath`, compile- and run-checked by the ordinary
//! `cargo test` gate: a bench that panics or stops building fails the
//! tier-1 suite instead of rotting until someone runs `cargo bench`. The
//! `datapath` bench's compiled-vs-scan agreement check over its filter
//! flood runs here too.

#[path = "../crates/bench/benches/datapath.rs"]
mod datapath;

#[test]
fn every_bench_body_runs_once() {
    std::env::set_var("CCAI_BENCH_SMOKE", "1");
    datapath::benches();
}
