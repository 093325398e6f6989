//! Differential snapshot/resume suite: a resumed system must be
//! indistinguishable from one that never stopped.
//!
//! For fixed seeds and three fault regimes — fault-free, datapath faults
//! and control-path faults — a workload is snapshotted at three quiesce
//! points (before any traffic, between the model-load and inference pump
//! rounds, and after completion), resumed into a fresh
//! [`ConfidentialSystem`], and driven to the end. The resumed run must
//! reproduce the uninterrupted baseline *bit-exactly*: the same inference
//! result, telemetry trace digest, xPU register file, device-memory
//! digest, SC filter digest and counters, and the same fault trace —
//! including faults the injector schedules after the resume point.
//!
//! The dump test checks every (regime × snapshot point), the snapshot
//! images and the fleet regime against `tests/golden/snapshot_resume.txt`
//! (see `support/golden.rs`).

use ccai_core::sc::ScCounters;
use ccai_core::snapshot::snapshot_mid_task;
use ccai_core::{ConfidentialSystem, SystemMode};
use ccai_crypto::sha256;
use ccai_pcie::{FaultEvent, FaultPlan};
use ccai_tvm::RetryPolicy;
use ccai_xpu::{CommandProcessor, RegisterFile, XpuSpec};

#[path = "support/golden.rs"]
mod golden;

const WEIGHTS_LEN: usize = 20_000;
const INPUT_LEN: usize = 6_000;

fn workload() -> (Vec<u8>, Vec<u8>) {
    let weights: Vec<u8> = (0..WEIGHTS_LEN).map(|i| (i * 131 % 251) as u8).collect();
    let input: Vec<u8> = (0..INPUT_LEN).map(|i| (i * 17 % 241) as u8).collect();
    (weights, input)
}

/// The three fault regimes the suite crosses with every snapshot point.
fn regimes() -> [(&'static str, Option<FaultPlan>); 3] {
    [
        ("fault_free", None),
        ("data_fault", Some(FaultPlan::corrupt_only(13, 24))),
        ("control_fault", Some(FaultPlan::drop_only(0xC0A1, 48).with_control_path())),
    ]
}

/// Where in the workload the snapshot is taken.
#[derive(Clone, Copy, PartialEq)]
enum SnapPoint {
    /// After build + fault arming, before any traffic.
    PreTraffic,
    /// Between the model-load and inference halves (the pump-round
    /// boundary `snapshot_mid_task` quiesces at).
    MidTask,
    /// After the workload completed.
    PostTask,
}

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Outcome {
    result: Vec<u8>,
    telemetry_digest: String,
    elapsed_ps: u64,
    memory_digest: [u8; 32],
    registers: RegisterFile,
    filter_digest: String,
    filter_rules: (usize, usize),
    sc_counters: ScCounters,
    fault_trace: Vec<FaultEvent>,
}

fn observe(system: &ConfidentialSystem, result: Vec<u8>) -> Outcome {
    Outcome {
        result,
        telemetry_digest: system.telemetry().digest_hex(),
        elapsed_ps: system.telemetry().now().as_picos(),
        memory_digest: system.xpu_memory_digest(),
        registers: system.xpu_register_snapshot(),
        filter_digest: system.sc_filter_digest(),
        filter_rules: system.sc_filter_rule_counts(),
        sc_counters: system.sc_counters(),
        fault_trace: system.fault_trace(),
    }
}

fn build(plan: Option<&FaultPlan>) -> ConfidentialSystem {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system
        .driver_mut()
        .set_retry_policy(RetryPolicy { max_attempts: 8, backoff_base: 2, ..Default::default() });
    if let Some(plan) = plan {
        system.inject_faults(*plan);
    }
    system
}

/// The uninterrupted reference run.
fn baseline(plan: Option<&FaultPlan>) -> Outcome {
    let (weights, input) = workload();
    let mut system = build(plan);
    system.load_model(&weights).expect("baseline model load");
    let result = system.run_inference(&input).expect("baseline inference");
    observe(&system, result)
}

/// Runs to `point`, snapshots, resumes into a fresh system, finishes the
/// workload there, and observes the *resumed* system. Also returns the
/// SHA-256 of the snapshot image, after checking that the freshly resumed
/// system snapshots back to the very same bytes.
fn resumed_at(plan: Option<&FaultPlan>, point: SnapPoint) -> (Outcome, String) {
    let (weights, input) = workload();
    let mut system = build(plan);
    let snap = match point {
        SnapPoint::PreTraffic => system.snapshot(),
        SnapPoint::MidTask => snapshot_mid_task(&mut system, &weights).expect("mid-task snapshot"),
        SnapPoint::PostTask => {
            system.load_model(&weights).expect("model load");
            system.run_inference(&input).expect("inference");
            system.snapshot()
        }
    };
    drop(system); // the original is gone; only the snapshot survives
    let mut resumed = ConfidentialSystem::resume(&snap).expect("resume");
    assert!(resumed.snapshot() == snap, "resume -> re-snapshot must reproduce the image");
    let image = sha256(snap.as_bytes()).to_hex();
    let result = match point {
        SnapPoint::PreTraffic => {
            resumed.load_model(&weights).expect("resumed model load");
            resumed.run_inference(&input).expect("resumed inference")
        }
        SnapPoint::MidTask => resumed.run_inference(&input).expect("resumed inference"),
        SnapPoint::PostTask => {
            // Nothing left to run — the snapshot already holds the
            // completed state (output landing zone included, which the
            // memory digest below covers), so the observable result is
            // the workload's known answer.
            CommandProcessor::surrogate_inference(&weights, &input).to_vec()
        }
    };
    (observe(&resumed, result), image)
}

#[test]
fn resume_is_indistinguishable_from_an_uninterrupted_run() {
    for (name, plan) in regimes() {
        let reference = baseline(plan.as_ref());
        assert_eq!(
            reference.result,
            {
                let (weights, input) = workload();
                CommandProcessor::surrogate_inference(&weights, &input)
            },
            "{name}: baseline must be correct to begin with"
        );
        for (point_name, point) in [
            ("pre_traffic", SnapPoint::PreTraffic),
            ("mid_task", SnapPoint::MidTask),
            ("post_task", SnapPoint::PostTask),
        ] {
            let (resumed, _) = resumed_at(plan.as_ref(), point);
            assert_eq!(
                resumed, reference,
                "{name}/{point_name}: resumed run diverged from the uninterrupted baseline"
            );
        }
    }
}

#[test]
fn faulted_resume_still_exercises_the_injector() {
    // The guarantee is only interesting if faults actually fire on both
    // sides of the snapshot point.
    let plan = FaultPlan::corrupt_only(13, 24);
    let (outcome, _) = resumed_at(Some(&plan), SnapPoint::MidTask);
    assert!(
        !outcome.fault_trace.is_empty(),
        "data-fault regime must inject at least one fault"
    );
    let baseline = baseline(Some(&plan));
    assert_eq!(outcome.fault_trace, baseline.fault_trace);
}

#[test]
fn snapshot_itself_leaves_no_trace() {
    // Taking a snapshot must not perturb the system it observes: the
    // original finishes with the same digest whether or not it was
    // snapshotted along the way.
    let (weights, input) = workload();
    let reference = baseline(None);
    let mut system = build(None);
    system.load_model(&weights).expect("model load");
    let _snap = system.snapshot();
    let _snap_again = system.snapshot();
    let result = system.run_inference(&input).expect("inference");
    assert_eq!(observe(&system, result), reference);
}

#[test]
fn trace_digests_replay_across_suite_runs() {
    // One golden line per (regime × snapshot point), each carrying the
    // snapshot image's hash so a codec change that moves a byte shows
    // up, then the fleet regime's.
    let mut dump = String::new();
    for (name, plan) in regimes() {
        let reference = baseline(plan.as_ref());
        dump += &golden::line(
            &format!("{name}_baseline"),
            &reference.telemetry_digest,
            reference.elapsed_ps,
            None,
        );
        for (point_name, point) in [
            ("pre_traffic", SnapPoint::PreTraffic),
            ("mid_task", SnapPoint::MidTask),
            ("post_task", SnapPoint::PostTask),
        ] {
            let (resumed, image) = resumed_at(plan.as_ref(), point);
            assert_eq!(resumed.telemetry_digest, reference.telemetry_digest);
            dump += &golden::line(
                &format!("{name}_{point_name}"),
                &resumed.telemetry_digest,
                resumed.elapsed_ps,
                Some(&image),
            );
        }
    }
    dump += &fleet_regime();
    golden::check("snapshot_resume", "", &dump);
}

/// The fleet-serving regime: a whole multi-tenant fleet — arrival RNG,
/// token buckets, admission-pending queues, batch queues, shard clocks
/// and telemetry — snapshotted mid-flight with requests queued but not
/// yet admitted, resumed, and driven to the end. The resumed fleet must
/// reproduce the uninterrupted run's trace digest and report
/// bit-exactly. Returns the regime's golden line.
fn fleet_regime() -> String {
    use ccai_llm::serve::{FleetConfig, FleetServer};

    const TOTAL: u64 = 3_000;
    const SNAP_AT: u64 = 1_100;
    let config = FleetConfig::standard(0xF1E7);

    let mut straight = FleetServer::new(config.clone());
    straight.generate(TOTAL);
    straight.drain();

    let mut first = FleetServer::new(config.clone());
    first.generate(SNAP_AT);
    assert!(
        first.backlog() > 0,
        "snapshot point must have queued-but-unadmitted requests to be interesting"
    );
    let image = first.snapshot();
    drop(first);
    let mut resumed = FleetServer::resume(config, &image).expect("fleet resumes");
    assert!(resumed.snapshot() == image, "fleet resume -> re-snapshot must reproduce the image");
    resumed.generate(TOTAL);
    resumed.drain();

    assert_eq!(
        straight.telemetry().digest_hex(),
        resumed.telemetry().digest_hex(),
        "resumed fleet diverged from the uninterrupted run"
    );
    assert_eq!(straight.report().to_json(), resumed.report().to_json());
    golden::line(
        "fleet_serving",
        &resumed.telemetry().digest_hex(),
        resumed.telemetry().now().as_picos(),
        Some(&sha256(&image).to_hex()),
    )
}

#[test]
fn fleet_serving_resume_matches_the_uninterrupted_run() {
    fleet_regime();
}
