//! §6 bring-up adversary battery: the attestation-gated bring-up state
//! machine is attacked from four directions and holds on every one.
//!
//! 1. **Ordering** — property tests drive random permutations and
//!    in-order prefixes of the five bring-up steps; exactly one order
//!    (secure-boot → attest → release-keys → arm-filters → serve)
//!    reaches `Serving`, and every out-of-order step is refused with a
//!    typed error while the machine stays put.
//! 2. **Reset replay** — an adversary records a healthy session's
//!    sequenced control-window and MMIO TLPs, power-cycles the SC, and
//!    replays the capture against the freshly brought-up instance. The
//!    persisted anti-replay floors refuse every stale sequence.
//! 3. **TOCTOU** — a measurement mutated between attestation and key
//!    release blocks the release, rolls the machine back, and leaves
//!    the drift attestable: re-attestation against the same golden
//!    values fails until a power cycle with clean measurements.
//! 4. **Bounce-buffer pacing** — a bus observer records only
//!    (size, sim-time) pairs for staged data chunks and proves the
//!    sequence is content-independent: two runs over different secrets
//!    of equal length produce bit-identical pacing traces.
//!
//! The determinism test checks the battery digest against
//! `tests/golden/bringup_order.txt` (see `support/golden.rs`); its
//! `CCAI_TRACE_DIGEST_OUT` dump goes to `<file>.bringup`.

use ccai_core::system::{layout, ConfidentialSystem, SystemMode};
use ccai_pcie::fabric::BusTap;
use ccai_pcie::{parse_ctrl_envelope, Bdf, BusAdversary, FaultPlan, Tlp, TlpType};
use ccai_sim::Telemetry;
use ccai_trust::{
    AttestationError, BringUpError, BringUpState, BringUpStep, PcrIndex, TrustFixture,
};
use ccai_xpu::{CommandProcessor, XpuSpec};
use proptest::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

#[path = "support/golden.rs"]
mod golden;

fn secrets() -> (Vec<u8>, Vec<u8>) {
    (
        b"WEIGHTS-SECRET-".repeat(700),
        b"PROMPT-SECRET--".repeat(40),
    )
}

/// Position of a state along the legal bring-up chain.
fn state_index(state: BringUpState) -> usize {
    match state {
        BringUpState::PowerOn => 0,
        BringUpState::SecureBooted => 1,
        BringUpState::Attested => 2,
        BringUpState::KeysReleased => 3,
        BringUpState::FiltersArmed => 4,
        BringUpState::Serving => 5,
    }
}

/// True if `needle` appears in `haystack` as an order-preserving
/// subsequence.
fn is_subsequence(needle: &[usize], haystack: &[usize]) -> bool {
    let mut want = needle.iter();
    let mut next = want.next();
    for &step in haystack {
        if Some(&step) == next {
            next = want.next();
        }
    }
    next.is_none()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Of all 120 permutations of the five steps, exactly the canonical
    /// one reaches `Serving`. The final state equals the greedy match of
    /// the canonical chain against the permutation, keys are released
    /// iff the first three steps appear in relative order, and every
    /// off-chain step is refused without moving the machine.
    #[test]
    fn only_the_canonical_permutation_reaches_serving(
        order in Just((0usize..5).collect::<Vec<_>>()).prop_shuffle(),
        seed in any::<u8>(),
    ) {
        let (mut bringup, mut env) = TrustFixture::deterministic(seed, Telemetry::default());
        let mut expect = 0usize;
        let mut refused = 0usize;
        for &step in &order {
            let before = bringup.state();
            let outcome = bringup.apply(BringUpStep::ALL[step], &mut env);
            if step == expect {
                prop_assert!(outcome.is_ok(), "on-chain step {step} refused: {outcome:?}");
                expect += 1;
            } else {
                prop_assert!(
                    matches!(outcome, Err(BringUpError::OutOfOrder { .. })),
                    "off-chain step {step} must be refused as out-of-order, got {outcome:?}"
                );
                prop_assert_eq!(bringup.state(), before, "a refused step must not move the machine");
                refused += 1;
            }
        }
        prop_assert_eq!(state_index(bringup.state()), expect);
        prop_assert_eq!(refused, 5 - expect);
        let canonical: Vec<usize> = (0..5).collect();
        prop_assert_eq!(bringup.is_serving(), order == canonical);
        prop_assert_eq!(
            bringup.master().is_some(),
            is_subsequence(&[0, 1, 2], &order),
            "keys release exactly when boot, attest, release appear in order"
        );
    }

    /// Arbitrary in-order subsets of the chain: the machine advances
    /// through the longest leading run and refuses everything past the
    /// first gap; only the complete chain serves.
    #[test]
    fn prefixes_with_gaps_stop_short_of_serving(
        steps in prop::sample::subsequence((0usize..5).collect::<Vec<_>>(), 1..6),
        seed in any::<u8>(),
    ) {
        let (mut bringup, mut env) = TrustFixture::deterministic(seed, Telemetry::default());
        let mut expect = 0usize;
        for &step in &steps {
            let outcome = bringup.apply(BringUpStep::ALL[step], &mut env);
            if step == expect {
                prop_assert!(outcome.is_ok(), "contiguous step {step} refused: {outcome:?}");
                expect += 1;
            } else {
                prop_assert!(matches!(outcome, Err(BringUpError::OutOfOrder { .. })));
            }
        }
        prop_assert_eq!(state_index(bringup.state()), expect);
        let full: Vec<usize> = (0..5).collect();
        prop_assert_eq!(bringup.is_serving(), steps == full);
    }
}

/// Everything the bus adversary captured from a healthy session, split
/// into the two replayable populations: sequenced control-window writes
/// and sequenced MMIO writes into the device BAR.
fn capture_session(snooper: &BusAdversary, tvm: Bdf) -> (Vec<Tlp>, Vec<Tlp>) {
    let log = snooper.log();
    let ctrl_window =
        layout::SC_REGION..layout::SC_REGION + ccai_core::sc::regs::WINDOW_LEN;
    let mut ctrl = Vec::new();
    let mut mmio = Vec::new();
    for tlp in log.of_type(TlpType::MemWrite) {
        let addr = tlp.header().address().unwrap_or(0);
        if ctrl_window.contains(&addr) && parse_ctrl_envelope(tlp.payload()).is_some() {
            ctrl.push(tlp.clone());
        } else if addr >= layout::XPU_BAR_BASE && tlp.header().requester() == tvm {
            mmio.push(tlp.clone());
        }
    }
    (ctrl, mmio)
}

#[test]
fn power_cycle_demands_fresh_bringup_and_refuses_replayed_tlps() {
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let snooper = BusAdversary::new();
    system.fabric_mut().add_tap(snooper.tap());
    system.run_workload(&weights, &prompt).unwrap();
    assert!(system.sc_is_serving(), "a built system has completed bring-up");

    let (ctrl, mmio) = capture_session(&snooper, system.tvm_bdf());
    assert!(!ctrl.is_empty(), "a protected run must emit sequenced control writes");
    assert!(!mmio.is_empty(), "a protected run must emit sequenced MMIO writes");

    // Power-cycle the SC: volatile state (key schedules, filter tables,
    // staged policy, counters) is gone; the anti-replay floors persist.
    system.reset().expect("power cycle");
    assert!(!system.sc_is_serving(), "a reset SC must not serve");

    // Before bring-up completes, the data path is hard-denied in both
    // directions — the probe dies at the SC, not at the device.
    let deny_before = system.telemetry().counter("sc.bringup_deny");
    let probe = Tlp::memory_read(system.tvm_bdf(), layout::XPU_BAR_BASE, 8, 0x7C);
    let replies = system.fabric_mut().host_request(probe);
    assert!(
        replies.iter().all(|r| r.payload().is_empty()),
        "no data may flow before bring-up reaches Serving"
    );
    assert!(
        system.telemetry().counter("sc.bringup_deny") > deny_before,
        "the pre-Serving denial must be visible in telemetry"
    );

    // A workload cannot run against a de-armed gate either.
    assert!(
        system.run_workload(&weights, &prompt).is_err(),
        "workloads must fail until bring-up re-arms the gate"
    );

    // Re-run the full attested bring-up chain; the gate re-arms.
    system.complete_bringup().expect("fresh bring-up");
    assert!(system.sc_is_serving());

    // The adversary replays the pre-reset capture against the reborn
    // SC. Every sequenced write carries a stale sequence number below
    // the persisted floor, so the exactly-once windows refuse them all:
    // the filter tables do not move and nothing is silently absorbed.
    let filter_before = system.sc_filter_digest();
    let before = system.sc_counters();
    for tlp in ctrl.iter().chain(mmio.iter()).cloned() {
        system.fabric_mut().host_request(tlp);
    }
    let after = system.sc_counters();
    assert_eq!(
        system.sc_filter_digest(),
        filter_before,
        "replayed pre-reset control writes must not move the filter tables"
    );
    assert!(
        after.control_dup_suppressed > before.control_dup_suppressed
            || after.packets_blocked > before.packets_blocked,
        "the replay must be visibly rejected, not silently absorbed"
    );

    // The power cycle was a denial event, not a correctness event: a
    // fresh workload on the brought-up system still computes the right
    // answer.
    let result = system.run_workload(&weights, &prompt).expect("post-reset workload");
    assert_eq!(result, CommandProcessor::surrogate_inference(&weights, &prompt));
}

#[test]
fn quarantine_survives_the_power_cycle() {
    // A power cycle must not launder containment: the quarantine flag
    // rides the persistent SC state across reset, and the quarantined
    // tenant stays A1-denied even after a clean re-attested bring-up.
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.run_workload(&weights, &prompt).unwrap();

    system.inject_faults(FaultPlan::corrupt_only(0xBAD, 1024));
    assert!(system.run_workload(&weights, &prompt).is_err(), "channel is unrecoverable");
    system.clear_faults();
    let xpu_bdf = Bdf::new(layout::XPU_BDF.0, layout::XPU_BDF.1, layout::XPU_BDF.2);
    assert!(system.sc().unwrap().is_quarantined(xpu_bdf));

    system.reset().expect("power cycle");
    assert!(
        system.sc().unwrap().is_quarantined(xpu_bdf),
        "reset must not lift a quarantine"
    );

    system.complete_bringup().expect("fresh bring-up");
    assert!(
        system.sc().unwrap().is_quarantined(xpu_bdf),
        "a clean re-attestation must not lift a quarantine either"
    );
    let probe = Tlp::memory_read(system.tvm_bdf(), layout::XPU_BAR_BASE, 8, 0x7B);
    let replies = system.fabric_mut().host_request(probe);
    assert!(
        replies.iter().all(|r| r.payload().is_empty()),
        "quarantined tenant must stay A1-denied after the power cycle"
    );
    assert!(
        system.run_workload(&weights, &prompt).is_err(),
        "quarantined tenant must not be served after the power cycle"
    );
}

#[test]
fn toctou_pcr_mutation_blocks_key_release_and_stays_attestable() {
    // The adversary lets attestation pass over clean measurements, then
    // patches the firmware measurement before key release (the classic
    // time-of-check/time-of-use window). Release recomputes the live
    // composite: the drift is caught, keys stay sealed, and the machine
    // rolls back to SecureBooted. Because PCRs are extend-only, the
    // tampering is *attestable* — re-attestation against the same golden
    // values fails — and only a power cycle with clean measurements
    // recovers the chain.
    let (mut bringup, mut env) = TrustFixture::deterministic(0x7A, Telemetry::default());
    bringup.apply(BringUpStep::SecureBoot, &mut env).unwrap();
    bringup.apply(BringUpStep::Attest, &mut env).unwrap();
    assert_eq!(bringup.state(), BringUpState::Attested);

    bringup.pcrs_mut().extend_assigned(PcrIndex::ScFirmware, b"evil patch");

    match bringup.apply(BringUpStep::ReleaseKeys, &mut env) {
        Err(BringUpError::MeasurementDrift { attested, live }) => {
            assert_ne!(attested, live, "the drift is evidence, not noise")
        }
        other => panic!("mutated PCR must block key release, got {other:?}"),
    }
    assert_eq!(bringup.state(), BringUpState::SecureBooted, "rollback on drift");
    assert!(bringup.master().is_none(), "no key material escapes a TOCTOU attempt");

    // The mutation burned the boot session: the verifier holds golden
    // values the live composite can no longer match.
    match bringup.apply(BringUpStep::Attest, &mut env) {
        Err(BringUpError::Attestation(AttestationError::PcrMismatch { .. })) => {}
        other => panic!("re-attestation over a mutated PCR must fail, got {other:?}"),
    }

    // Recovery demands a power cycle with clean measurements.
    bringup.reset(env.fresh_blade(0x7A));
    assert_eq!(bringup.state(), BringUpState::PowerOn);
    for step in BringUpStep::ALL {
        bringup.apply(step, &mut env).unwrap();
    }
    assert!(bringup.is_serving(), "a clean power cycle recovers the chain");
}

/// A strictly metadata-level observer: it records the size of each
/// staged data chunk and the virtual time it crossed the bus — exactly
/// what a bus adversary can always measure — and nothing else.
#[derive(Debug)]
struct PacingObserver {
    telemetry: Telemetry,
    trace: Rc<RefCell<Vec<(usize, bool, u64)>>>,
}

impl BusTap for PacingObserver {
    fn observe(&mut self, tlp: &Tlp, downstream: bool) {
        if tlp.payload().len() >= 64 {
            self.trace.borrow_mut().push((
                tlp.payload().len(),
                downstream,
                self.telemetry.now().as_picos(),
            ));
        }
    }
}

fn pacing_trace(weights: &[u8], prompt: &[u8]) -> Vec<(usize, bool, u64)> {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let trace = Rc::new(RefCell::new(Vec::new()));
    let observer = PacingObserver {
        telemetry: system.telemetry().clone(),
        trace: Rc::clone(&trace),
    };
    system.fabric_mut().add_tap(Box::new(observer));
    system.run_workload(weights, prompt).unwrap();
    let out = trace.borrow().clone();
    out
}

#[test]
fn staged_chunk_sizes_and_pacing_are_content_independent() {
    // The bounce-buffer side channel of §8.2: even though staging pages
    // are host-visible, what the host (or a bus snooper) can measure —
    // chunk sizes and timing — must depend only on the workload's
    // *shape*, never its content. Two runs over different secrets of
    // identical length must produce bit-identical (size, time) traces.
    let (weights_a, prompt_a) = secrets();
    let weights_b = b"weights-hidden!".repeat(700);
    let prompt_b = b"prompt-hidden!!".repeat(40);
    assert_eq!(weights_a.len(), weights_b.len());
    assert_eq!(prompt_a.len(), prompt_b.len());
    assert_ne!(weights_a, weights_b);

    let trace_a = pacing_trace(&weights_a, &prompt_a);
    let trace_b = pacing_trace(&weights_b, &prompt_b);
    assert!(
        trace_a.len() >= 5,
        "the observer must see real staged traffic, saw {} chunks",
        trace_a.len()
    );
    assert_eq!(
        trace_a, trace_b,
        "staged chunk sizes and pacing must not depend on secret content"
    );

    // A *different shape* does perturb the trace — the observer is not
    // blind, the channel is genuinely closed.
    let (short_w, short_p) = (b"W".repeat(1400), b"P".repeat(600));
    let trace_c = pacing_trace(&short_w, &short_p);
    assert_ne!(trace_a, trace_c, "shape changes must show up, proving the observer works");
}

#[test]
fn bringup_battery_is_deterministic_across_runs() {
    // The whole reset/replay scenario, run twice from scratch: the
    // trace digests must agree bit-for-bit. This is what lets CI diff
    // two runs of the battery against each other.
    let run = || {
        let (weights, prompt) = secrets();
        let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
        let snooper = BusAdversary::new();
        system.fabric_mut().add_tap(snooper.tap());
        system.run_workload(&weights, &prompt).unwrap();
        let (ctrl, _) = capture_session(&snooper, system.tvm_bdf());
        system.reset().expect("power cycle");
        system.complete_bringup().expect("fresh bring-up");
        for tlp in ctrl {
            system.fabric_mut().host_request(tlp);
        }
        system.run_workload(&weights, &prompt).unwrap();
        let t = system.telemetry();
        golden::line("bringup_battery", &t.digest_hex(), t.now().as_picos(), None)
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "the bring-up battery must be deterministic");

    // Sibling dump file: CI shares one CCAI_TRACE_DIGEST_OUT between this
    // suite and `security_analysis`.
    golden::check("bringup_order", ".bringup", &first);
}
