//! Fleet-serving benchmark runner: drives a fixed-seed multi-tenant
//! serving run (continuous batching, per-tenant token-bucket rate
//! limiting, typed shedding) through the [`ccai_llm::serve`] layer and a
//! golden-image spin-up sweep through [`ccai_llm::ShardedFleet`], then writes
//! machine-readable results to `BENCH_fleet.json` so the serving-layer
//! performance trajectory is tracked from PR to PR.
//!
//! Run with `cargo run --release -p ccai-bench --bin bench_fleet`.
//! Pass an output path as the first argument to override the default.
//! Set `CCAI_BENCH_SMOKE=1` to shrink the run — the CI schema-drift
//! check uses this mode.
//!
//! The serving run is fully deterministic: the embedded fleet report
//! (per-tenant p50/p99 hop latency, shed counts, trace digest) is
//! bit-identical run-to-run for the same seed.

use ccai_core::system::SystemMode;
use ccai_llm::{ChaosEvent, ChaosPlan, FleetConfig, FleetServer, ShardedFleet};
use ccai_sim::SimTime;
use ccai_xpu::XpuSpec;
use std::fmt::Write as _;
use std::time::Instant;

/// Arrival seed for the headline run (fixed: the report is reproducible).
const SEED: u64 = 0xF1EE7;

fn smoke() -> bool {
    std::env::var_os("CCAI_BENCH_SMOKE").is_some()
}

/// The headline serving run: eight tenants across four shards, driven to
/// `requests` total arrivals and drained.
fn serving_run(requests: u64) -> (ccai_llm::FleetSnapshot, f64) {
    let config = FleetConfig::standard(SEED);
    let mut fleet = FleetServer::new(config);
    let t0 = Instant::now();
    fleet.generate(requests);
    fleet.drain();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (fleet.report(), wall_ms)
}

/// Failover run: the same fixed-seed serving shape with a scripted chaos
/// plan — crash one replica mid-run, hot-plug a replacement, migrate a
/// tenant onto it — so the recovery-path bookkeeping (events applied,
/// requests requeued, migrations completed) is tracked PR to PR along
/// with the wall-clock cost of absorbing the failover.
fn failover_run(requests: u64) -> (ccai_llm::FleetSnapshot, f64) {
    let at_ms = |ms: u64| SimTime::from_picos(ms * 1_000_000_000);
    let mut fleet = FleetServer::new(FleetConfig::standard(SEED));
    // Crash the replica that actually homes tenant 101, inside the very
    // first dispatch wave, so the requeue path is exercised — not just
    // the routing remap — before the tenant later migrates onto the
    // hot-plugged replacement.
    let victim = fleet.home_of(101);
    fleet.set_chaos_plan(ChaosPlan::new(vec![
        (at_ms(50), ChaosEvent::Crash { replica: victim }),
        (at_ms(900), ChaosEvent::HotPlug { replica: 4 }),
        (at_ms(1_200), ChaosEvent::Migrate { tenant: 101, to: 4 }),
    ]));
    let t0 = Instant::now();
    fleet.generate(requests);
    fleet.drain();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    (fleet.report(), wall_ms)
}

/// Golden-image spin-up sweep: deploy one warmed template, then
/// scale out to `replicas` systems, timing the stamp-out path. This is
/// the "thousands of systems from one snapshot" claim made measurable.
fn spin_up_sweep(replicas: usize) -> (usize, f64, f64) {
    const WEIGHTS: &[u8] = b"bench_fleet golden image weights";
    let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, WEIGHTS, 1)
        .expect("template fleet deploys");
    let extra = replicas.saturating_sub(1);
    let t0 = Instant::now();
    fleet.scale_out(extra).expect("scale-out resumes");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(fleet.len(), replicas);
    // Spot-check the cohort still serves.
    let out = fleet.serve(0, b"spin-up probe").expect("replica serves");
    assert!(!out.is_empty());
    let per_replica_us = if extra > 0 { wall_ms * 1e3 / extra as f64 } else { 0.0 };
    (replicas, wall_ms, per_replica_us)
}

fn to_json(
    report: &ccai_llm::FleetSnapshot,
    requests: u64,
    wall_ms: f64,
    spin_up: (usize, f64, f64),
    failover: (&ccai_llm::FleetSnapshot, f64),
) -> String {
    let served: u64 = report.tenants.iter().map(|t| t.served).sum();
    let shed: u64 = report
        .tenants
        .iter()
        .map(|t| t.shed_rate_limited + t.shed_queue_full + t.shed_quarantined)
        .sum();
    let mut out = String::from("{\n  \"benchmark\": \"fleet_serving\",\n");
    writeln!(out, "  \"seed\": {SEED},").expect("write");
    writeln!(out, "  \"requests\": {requests},").expect("write");
    writeln!(out, "  \"tenants\": {},", report.tenants.len()).expect("write");
    writeln!(out, "  \"shards\": {},", report.shards).expect("write");
    writeln!(out, "  \"served\": {served},").expect("write");
    writeln!(out, "  \"shed\": {shed},").expect("write");
    writeln!(out, "  \"rounds\": {},", report.rounds).expect("write");
    writeln!(out, "  \"trace_digest\": \"{}\",", report.telemetry.digest_hex())
        .expect("write");
    writeln!(out, "  \"wall_ms\": {wall_ms:.1},").expect("write");
    let (replicas, spin_ms, per_replica_us) = spin_up;
    writeln!(
        out,
        "  \"spin_up\": {{\"replicas\": {replicas}, \"wall_ms\": {spin_ms:.1}, \"per_replica_us\": {per_replica_us:.1}}},"
    )
    .expect("write");
    let (chaos, chaos_wall_ms) = failover;
    let chaos_served: u64 = chaos.tenants.iter().map(|t| t.served).sum();
    writeln!(
        out,
        "  \"failover\": {{\"chaos_events\": {}, \"requeued\": {}, \"migrations\": {}, \"served\": {chaos_served}, \"trace_digest\": \"{}\", \"wall_ms\": {chaos_wall_ms:.1}}},",
        chaos.chaos_events,
        chaos.requeued,
        chaos.migrations,
        chaos.telemetry.digest_hex()
    )
    .expect("write");
    out.push_str("  \"fleet\": ");
    let fleet_json = report.to_json();
    assert!(
        fleet_json.contains(ccai_core::telemetry::SNAPSHOT_SCHEMA),
        "embedded fleet report must carry the pinned telemetry schema"
    );
    // Re-indent the embedded document so the output stays readable.
    for (i, line) in fleet_json.trim_end().lines().enumerate() {
        if i > 0 {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str(line);
    }
    out.push('\n');
    out.push('}');
    out.push('\n');
    out
}

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "BENCH_fleet.json".to_string());
    let (requests, replicas) = if smoke() { (500, 16) } else { (100_000, 1000) };
    let (report, wall_ms) = serving_run(requests);
    println!(
        "served {} / shed {} of {requests} requests over {} tenants x {} shards in {wall_ms:.1} ms (digest {})",
        report.tenants.iter().map(|t| t.served).sum::<u64>(),
        report
            .tenants
            .iter()
            .map(|t| t.shed_rate_limited + t.shed_queue_full + t.shed_quarantined)
            .sum::<u64>(),
        report.tenants.len(),
        report.shards,
        report.telemetry.digest_hex()
    );
    for t in &report.tenants {
        let (p50, p99) = t
            .e2e_us
            .as_ref()
            .map_or((0.0, 0.0), |s| (s.p50(), s.p99()));
        println!(
            "  tenant {:>4}: served {:>7}  shed rl/qf/q {:>5}/{:>5}/{:>5}  e2e p50 {:>10.1} us  p99 {:>10.1} us",
            t.tenant, t.served, t.shed_rate_limited, t.shed_queue_full, t.shed_quarantined,
            p50, p99
        );
    }
    let (chaos, chaos_wall_ms) = failover_run(requests);
    println!(
        "failover: {} chaos events, {} requeued, {} migrations, served {} in {chaos_wall_ms:.1} ms (digest {})",
        chaos.chaos_events,
        chaos.requeued,
        chaos.migrations,
        chaos.tenants.iter().map(|t| t.served).sum::<u64>(),
        chaos.telemetry.digest_hex()
    );
    let spin_up = spin_up_sweep(replicas);
    println!(
        "spin-up: {} golden-image replicas in {:.1} ms ({:.1} us each)",
        spin_up.0, spin_up.1, spin_up.2
    );
    let json = to_json(&report, requests, wall_ms, spin_up, (&chaos, chaos_wall_ms));
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
