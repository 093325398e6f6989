//! Golden-trace tests for the telemetry subsystem.
//!
//! The event stream is stamped exclusively with the hub's sim clock and
//! every input to a workload run is deterministic, so the running trace
//! digest is a replayable fingerprint of *everything observable* on the
//! TLP path: the same seed must produce bit-identical traces, with and
//! without an armed fault plan.
//!
//! The golden test checks both scenarios against
//! `tests/golden/telemetry_trace.txt` (see `support/golden.rs`).

use ccai_core::{ConfidentialSystem, SystemMode, TelemetryEvent};
use ccai_pcie::{FaultPlan, InterposeOutcome, Interposer, PortId, Tlp};
use ccai_tvm::RetryPolicy;
use ccai_xpu::XpuSpec;

#[path = "support/golden.rs"]
mod golden;

const WEIGHTS_LEN: usize = 20_000;
const INPUT_LEN: usize = 6_000;

fn workload() -> (Vec<u8>, Vec<u8>) {
    let weights: Vec<u8> = (0..WEIGHTS_LEN).map(|i| (i * 131 % 251) as u8).collect();
    let input: Vec<u8> = (0..INPUT_LEN).map(|i| (i * 17 % 241) as u8).collect();
    (weights, input)
}

/// Forwards every packet to the wrapped PCIe-SC but leaves
/// `on_upstream_batch` at the trait default, so each pump burst reaches
/// the SC one `on_upstream` at a time: the per-TLP oracle for the SC's
/// batch hook.
#[derive(Debug)]
struct PerTlp(Box<dyn Interposer>);

impl Interposer for PerTlp {
    fn on_downstream(&mut self, tlp: Tlp) -> InterposeOutcome {
        self.0.on_downstream(tlp)
    }

    fn on_upstream(&mut self, tlp: Tlp) -> InterposeOutcome {
        self.0.on_upstream(tlp)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.0.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.0.as_any_mut()
    }
}

/// Runs one fixed-seed workload and returns (digest hex, event trace,
/// sim elapsed ps).
fn run_traced(plan: Option<FaultPlan>) -> (String, Vec<TelemetryEvent>, u64) {
    run_traced_with_pump(plan, true)
}

/// Like [`run_traced`], but with the SC either taking each pump burst
/// through its batch hook (as deployed) or wrapped in [`PerTlp`]; checks
/// the SC filter-batch count to prove which path actually ran.
fn run_traced_with_pump(
    plan: Option<FaultPlan>,
    batching: bool,
) -> (String, Vec<TelemetryEvent>, u64) {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    if !batching {
        let fabric = system.fabric_mut();
        let sc = fabric
            .remove_interposer(PortId(0))
            .expect("the SC sits on the xPU port");
        fabric.interpose(PortId(0), Box::new(PerTlp(sc)));
    }
    system
        .driver_mut()
        .set_retry_policy(RetryPolicy { max_attempts: 6, backoff_base: 2, ..Default::default() });
    if let Some(plan) = plan {
        system.inject_faults(plan);
    }
    let (weights, input) = workload();
    system.run_workload(&weights, &input).expect("fixed-seed workload succeeds");
    let telemetry = system.telemetry();
    let batches = telemetry.counter("sc.filter_batches");
    if batching {
        assert!(batches > 0, "batched pump must record SC filter batches");
        assert!(
            telemetry.histogram("sc.batch_size").is_some_and(|h| h.total() == batches),
            "every batch must land one sc.batch_size histogram sample"
        );
    } else {
        assert_eq!(batches, 0, "the per-TLP path must not record batches");
    }
    (telemetry.digest_hex(), telemetry.events(), telemetry.now().as_picos())
}

fn faulted_plan() -> FaultPlan {
    FaultPlan::corrupt_only(5, 96)
}

#[test]
fn same_seed_produces_identical_trace() {
    let (digest_a, events_a, elapsed_a) = run_traced(None);
    let (digest_b, events_b, _) = run_traced(None);
    assert_eq!(digest_a, digest_b, "fault-free trace must replay bit-identically");
    assert_eq!(events_a, events_b, "the full event sequence must replay");
    assert!(!events_a.is_empty(), "a workload run must leave a trace");

    let (faulted_a, f_events_a, f_elapsed_a) = run_traced(Some(faulted_plan()));
    let (faulted_b, f_events_b, _) = run_traced(Some(faulted_plan()));
    assert_eq!(faulted_a, faulted_b, "same fault seed, same trace digest");
    assert_eq!(f_events_a, f_events_b);
    assert_ne!(
        digest_a, faulted_a,
        "injected faults must be visible in the trace digest"
    );

    let dump = golden::line("fault_free", &digest_a, elapsed_a, None)
        + &golden::line("faulted", &faulted_a, f_elapsed_a, None);
    golden::check("telemetry_trace", "", &dump);
}

/// The §5 metadata batching must be invisible to the golden trace: batch
/// boundaries surface only as counters and histogram samples, which
/// never feed the digest or the sim clock, so the event stream with the
/// SC's batch hook is bit-identical to the SC fed one TLP at a time —
/// with and without injected faults.
#[test]
fn batched_pump_replays_the_per_tlp_trace_bit_identically() {
    for faulted in [false, true] {
        let plan = || faulted.then(faulted_plan);
        let (batched_digest, batched_events, _) = run_traced_with_pump(plan(), true);
        let (legacy_digest, legacy_events, _) = run_traced_with_pump(plan(), false);
        assert_eq!(
            batched_digest, legacy_digest,
            "batching changed the trace digest (faulted={faulted})"
        );
        assert_eq!(
            batched_events, legacy_events,
            "batching changed the event stream (faulted={faulted})"
        );
    }
}

#[test]
fn fault_events_appear_in_the_trace() {
    let (_, events, _) = run_traced(Some(faulted_plan()));
    assert!(
        events.iter().any(|e| e.kind.starts_with("fault.")),
        "armed injector must leave fault events in the trace"
    );
    assert!(
        events.iter().any(|e| e.kind == "adaptor.retry"),
        "corruption must surface as adaptor retries"
    );
    assert!(
        events.iter().any(|e| e.kind == "driver.backoff"),
        "retries must go through the sim-time backoff path"
    );
    assert!(
        events.iter().any(|e| e.kind == "sc.crypt_fail"),
        "the SC must record the corrupted chunks"
    );
}

#[test]
fn trace_is_ordered_and_stamped_monotonically() {
    let (_, events, _) = run_traced(Some(faulted_plan()));
    for pair in events.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "sequence numbers strictly increase");
        assert!(pair[0].at <= pair[1].at, "timestamps never go backwards");
    }
}

#[test]
fn snapshot_serializes_with_the_pinned_schema() {
    // The schema name is pinned here — everywhere else (the exporter,
    // this test's key check below) references the one constant, so a
    // rename shows up exactly once: in this assert.
    assert_eq!(ccai_core::telemetry::SNAPSHOT_SCHEMA, "ccai.telemetry.v2");
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let (weights, input) = workload();
    system.run_workload(&weights, &input).expect("workload");
    let json = system.telemetry_snapshot().to_json();
    let schema_key = format!("\"schema\": \"{}\"", ccai_core::telemetry::SNAPSHOT_SCHEMA);
    for key in [
        schema_key.as_str(),
        "\"now_picos\"",
        "\"trace_digest\"",
        "\"events_recorded\"",
        "\"events_dropped\"",
        "\"counters\"",
        "\"hops\"",
        "\"tenants\"",
        "\"span_total_picos\"",
        "\"idle_total_picos\"",
        "\"idle_by_tenant\"",
    ] {
        assert!(json.contains(key), "snapshot JSON missing {key}: {json}");
    }
    for hop in ["adaptor_stage", "adaptor_crypt", "sc_filter", "sc_crypt", "link", "dma"] {
        assert!(json.contains(&format!("\"hop\": \"{hop}\"")), "snapshot missing hop {hop}");
    }
}
