//! Differential fault-injection and recovery tests for the PCIe-SC
//! datapath.
//!
//! A seeded [`FaultPlan`] drives deterministic TLP corruption, drops,
//! duplication, reordering, link flaps and delayed completions on the
//! upstream link segment. The driver's retry machinery, the Adaptor's
//! rekey-on-failure hook and the SC's quarantine state machine must
//! together make every recoverable fault class invisible: the same seed
//! replays the identical fault trace, and the xPU's post-run memory is
//! byte-identical to a fault-free run.

use ccai_core::sc::ScAlert;
use ccai_core::system::layout;
use ccai_core::{ConfidentialSystem, SystemMode};
use ccai_pcie::{Bdf, CplStatus, FaultEvent, FaultPlan, Tlp, TlpType, WireAttack};
use ccai_tvm::RetryPolicy;
use ccai_xpu::{CommandProcessor, XpuSpec};

const WEIGHTS_LEN: usize = 20_000;
const INPUT_LEN: usize = 6_000;

fn workload() -> (Vec<u8>, Vec<u8>) {
    let weights: Vec<u8> = (0..WEIGHTS_LEN).map(|i| (i * 131 % 251) as u8).collect();
    let input: Vec<u8> = (0..INPUT_LEN).map(|i| (i * 17 % 241) as u8).collect();
    (weights, input)
}

struct RunOutcome {
    digest: [u8; 32],
    result: Vec<u8>,
    retries: u64,
    trace: Vec<FaultEvent>,
}

/// Builds a fresh system, arms `plan` (if any) and runs one workload.
fn run_with_plan(plan: Option<FaultPlan>) -> RunOutcome {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system
        .driver_mut()
        .set_retry_policy(RetryPolicy { max_attempts: 6, backoff_base: 2, ..Default::default() });
    if let Some(plan) = plan {
        system.inject_faults(plan);
    }
    let (weights, input) = workload();
    let result = system
        .run_workload(&weights, &input)
        .unwrap_or_else(|e| panic!("plan {plan:?}: workload failed: {e}"));
    RunOutcome {
        digest: system.xpu_memory_digest(),
        result,
        retries: system.driver().dma_retries(),
        trace: system.fault_trace(),
    }
}

#[test]
fn same_seed_replays_identical_trace_and_memory() {
    let plan = FaultPlan::heavy(0xCCA1_5EED);
    let a = run_with_plan(Some(plan));
    let b = run_with_plan(Some(plan));
    assert!(!a.trace.is_empty(), "heavy plan must inject something");
    assert_eq!(a.trace, b.trace, "same seed must replay the identical fault trace");
    assert_eq!(a.digest, b.digest, "same seed must leave identical xPU memory");
    assert_eq!(a.result, b.result);
    assert_eq!(a.retries, b.retries, "even the retry count must replay");
}

#[test]
fn recoverable_fault_classes_are_invisible_in_device_memory() {
    let baseline = run_with_plan(None);
    let (weights, input) = workload();
    assert_eq!(
        baseline.result,
        CommandProcessor::surrogate_inference(&weights, &input),
        "fault-free baseline must be correct to begin with"
    );
    assert_eq!(baseline.retries, 0, "fault-free run needs no retries");

    let plans = [
        ("light", FaultPlan::light(7)),
        ("drop", FaultPlan::drop_only(11, 16)),
        ("corrupt", FaultPlan::corrupt_only(13, 24)),
        ("dup+reorder", FaultPlan::duplicate_reorder(17, 64)),
        ("delay", FaultPlan::delay_only(19, 200)),
        ("flap", FaultPlan::flap_only(23, 8, 3)),
    ];
    for (name, plan) in plans {
        let faulted = run_with_plan(Some(plan));
        assert_eq!(
            faulted.result, baseline.result,
            "{name}: inference result must match fault-free run"
        );
        assert_eq!(
            faulted.digest, baseline.digest,
            "{name}: xPU memory must be byte-identical to fault-free run"
        );
        // 3 transfers per workload × (max_attempts - 1) retries each.
        assert!(
            faulted.retries <= 15,
            "{name}: retry count {} exceeds the policy bound",
            faulted.retries
        );
    }
}

#[test]
fn lossy_faults_exercise_the_retry_and_rekey_path() {
    // High-but-recoverable corruption: chosen so at least one transfer
    // fails and is retried under a rotated key.
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system
        .driver_mut()
        .set_retry_policy(RetryPolicy { max_attempts: 8, backoff_base: 2, ..Default::default() });
    system.inject_faults(FaultPlan::corrupt_only(5, 96));
    let (weights, input) = workload();
    let result = system.run_workload(&weights, &input).expect("recoverable plan");
    assert_eq!(result, CommandProcessor::surrogate_inference(&weights, &input));

    assert!(system.driver().dma_retries() > 0, "corruption must force retries");
    let counters = system.adaptor_counters();
    assert!(counters.transfer_retries > 0, "adaptor must see the failed transfers");
    assert!(
        counters.rekeys > 0,
        "every retried transfer must retire its stream key (no IV reuse)"
    );
    let sc = system.sc().expect("protected mode");
    assert!(
        sc.alerts()
            .iter()
            .any(|a| matches!(a, ScAlert::CryptFailure { .. })),
        "SC must have recorded the corrupted chunks"
    );
    assert!(
        !system.fault_trace().is_empty(),
        "the injector must have recorded its corruptions"
    );
}

#[test]
fn clearing_faults_restores_a_clean_channel() {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system
        .driver_mut()
        .set_retry_policy(RetryPolicy { max_attempts: 8, backoff_base: 2, ..Default::default() });
    system.inject_faults(FaultPlan::light(3));
    let (weights, input) = workload();
    system.run_workload(&weights, &input).expect("light plan is recoverable");

    let injector = system.clear_faults().expect("an injector was armed");
    assert_eq!(injector.plan().seed, 3);
    let trace_len = injector.trace().len();

    // Disarmed: the next run is fault-free and the trace stays frozen.
    let result = system.run_workload(&weights, &input).expect("clean channel");
    assert_eq!(result, CommandProcessor::surrogate_inference(&weights, &input));
    assert!(system.fault_trace().is_empty(), "no injector, no new trace");
    let _ = trace_len;
}

#[test]
fn unrelenting_corruption_quarantines_the_channel() {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    // Corrupt every data-bearing packet: the channel is unrecoverable and
    // must be demoted to A1-deny after the failure threshold.
    system.inject_faults(FaultPlan::corrupt_only(0xBAD, 1024));
    let (weights, input) = workload();
    let outcome = system.run_workload(&weights, &input);
    assert!(outcome.is_err(), "a fully corrupted channel cannot complete a workload");

    let xpu_bdf = Bdf::new(layout::XPU_BDF.0, layout::XPU_BDF.1, layout::XPU_BDF.2);
    let sc = system.sc().expect("protected mode");
    assert!(sc.is_quarantined(xpu_bdf), "threshold failures must quarantine");
    assert!(
        sc.alerts()
            .iter()
            .any(|a| matches!(a, ScAlert::ChannelQuarantined { .. })),
        "quarantine must be recorded as an alert"
    );

    // Remove the injector entirely: the denial below is the SC's doing,
    // not the fault plan's.
    system.clear_faults();
    let blocked_before = system.sc_counters().packets_blocked;
    let tvm_bdf = system.tvm_bdf();
    let probe = Tlp::memory_read(tvm_bdf, layout::XPU_BAR_BASE, 8, 0x7A);
    let replies = system.fabric_mut().host_request(probe);
    assert_eq!(
        replies.first().and_then(|r| r.header().cpl_status()),
        Some(CplStatus::UnsupportedRequest),
        "a quarantined channel answers reads with UR"
    );
    assert!(
        system.sc_counters().packets_blocked > blocked_before,
        "the probe must be counted as blocked"
    );
}

/// Deletes the first large ciphertext completion on its way back to the
/// device — a cleanly *lost* packet, not a corrupted one.
#[derive(Debug)]
struct OneShotCompletionDeleter {
    dropped: bool,
}
impl WireAttack for OneShotCompletionDeleter {
    fn mangle(&mut self, tlp: Tlp, downstream: bool) -> Option<Tlp> {
        if downstream
            && tlp.header().tlp_type() == TlpType::CompletionData
            && tlp.payload().len() >= 4096
            && !self.dropped
        {
            self.dropped = true;
            return None;
        }
        Some(tlp)
    }
}

#[test]
fn lost_completion_is_recovered_by_restaging() {
    // A single mid-transfer loss leaves the DMA engine stuck `Busy`; the
    // driver quiesces it and re-stages the whole transfer under a fresh
    // stream, which is the one recovery path for a lost H2D chunk.
    let (weights, input) = workload();
    let expected = CommandProcessor::surrogate_inference(&weights, &input);

    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system
        .fabric_mut()
        .set_wire_attack(Box::new(OneShotCompletionDeleter { dropped: false }));
    let result = system.run_workload(&weights, &input).expect("driver retry recovers the loss");
    assert_eq!(result, expected);
    assert!(system.driver().dma_retries() > 0, "recovery went through full re-staging");
}

#[test]
fn quarantine_spares_healthy_runs() {
    // The recoverable plans above never trip the quarantine threshold:
    // every successful chunk resets the consecutive-failure count.
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system
        .driver_mut()
        .set_retry_policy(RetryPolicy { max_attempts: 8, backoff_base: 2, ..Default::default() });
    system.inject_faults(FaultPlan::corrupt_only(5, 96));
    let (weights, input) = workload();
    system.run_workload(&weights, &input).expect("recoverable");
    let xpu_bdf = Bdf::new(layout::XPU_BDF.0, layout::XPU_BDF.1, layout::XPU_BDF.2);
    assert!(!system.sc().expect("protected").is_quarantined(xpu_bdf));
}
