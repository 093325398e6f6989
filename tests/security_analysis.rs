//! §8.2 security analysis, executed: every adversary from the threat
//! model attacks the assembled system, and every attack is blocked or
//! detected while the vanilla baseline demonstrably falls.

use ccai_core::sc::ScAlert;
use ccai_core::system::{layout, ConfidentialSystem, SystemMode};
use ccai_pcie::{
    parse_ctrl_envelope, seal_ctrl_envelope, Bdf, BusAdversary, FaultPlan, TamperMode, Tlp,
    TlpType, WireAttack,
};
use ccai_tvm::hypervisor::AttackOutcome;
use ccai_tvm::HostAdversary;
use ccai_xpu::{CommandProcessor, XpuSpec};

fn secrets() -> (Vec<u8>, Vec<u8>) {
    (
        b"WEIGHTS-SECRET-".repeat(700),
        b"PROMPT-SECRET--".repeat(40),
    )
}

#[test]
fn vanilla_platform_leaks_everything_to_a_snooper() {
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::Vanilla);
    let snooper = BusAdversary::new();
    system.fabric_mut().add_tap(snooper.tap());
    system.run_workload(&weights, &prompt).unwrap();
    assert!(snooper.log().leaked(&weights[..15]));
    assert!(snooper.log().leaked(&prompt[..15]));
}

#[test]
fn ccai_defeats_pcie_snooping() {
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let snooper = BusAdversary::new();
    system.fabric_mut().add_tap(snooper.tap());
    let result = system.run_workload(&weights, &prompt).unwrap();
    assert_eq!(result, CommandProcessor::surrogate_inference(&weights, &prompt));
    // The snooper saw plenty of traffic but none of the plaintext.
    assert!(snooper.log().len() > 50);
    assert!(!snooper.log().leaked(&weights[..15]));
    assert!(!snooper.log().leaked(&prompt[..15]));
    // Even short fragments stay hidden.
    assert!(!snooper.log().leaked(b"WEIGHTS-SECRET"));
}

#[derive(Debug)]
struct DataTamper;
impl WireAttack for DataTamper {
    fn mangle(&mut self, tlp: Tlp, downstream: bool) -> Option<Tlp> {
        if downstream && tlp.header().tlp_type() == TlpType::CompletionData
            && tlp.payload().len() >= 64
        {
            Some(TamperMode::BitFlip { byte: 7, bit: 1 }.apply(tlp))
        } else {
            Some(tlp)
        }
    }
}

#[test]
fn ccai_detects_in_flight_tampering() {
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.fabric_mut().set_wire_attack(Box::new(DataTamper));
    let verdict = system.run_workload(&weights, &prompt);
    assert!(verdict.is_err(), "tampered data must not produce a result");
    let alerts = system.sc().unwrap().alerts();
    assert!(
        alerts.iter().any(|a| matches!(a, ScAlert::CryptFailure { .. })),
        "the SC records the authentication failure: {alerts:?}"
    );
}

/// Deletes ciphertext completions outright (the §8.2 packet-deletion
/// attack).
#[derive(Debug)]
struct PacketDeleter {
    dropped: u32,
}
impl WireAttack for PacketDeleter {
    fn mangle(&mut self, tlp: Tlp, downstream: bool) -> Option<Tlp> {
        if downstream
            && tlp.header().tlp_type() == TlpType::CompletionData
            && tlp.payload().len() >= 4096
            && self.dropped == 0
        {
            self.dropped += 1;
            return None;
        }
        Some(tlp)
    }
}

#[test]
fn ccai_surfaces_packet_deletion_as_failure() {
    // With retries disabled, a deleted ciphertext completion is a hard,
    // visible failure — never a silent wrong result.
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system
        .driver_mut()
        .set_retry_policy(ccai_tvm::RetryPolicy { max_attempts: 1, backoff_base: 2, ..Default::default() });
    system.fabric_mut().set_wire_attack(Box::new(PacketDeleter { dropped: 0 }));
    let verdict = system.run_workload(&weights, &prompt);
    assert!(verdict.is_err(), "missing data cannot silently succeed");

    // Under the default retry policy the same one-shot deletion is
    // transparently recovered — with a correct result, not a wrong one.
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.fabric_mut().set_wire_attack(Box::new(PacketDeleter { dropped: 0 }));
    let result = system.run_workload(&weights, &prompt).expect("one drop is retried");
    assert_eq!(result, CommandProcessor::surrogate_inference(&weights, &prompt));
    assert!(system.driver().dma_retries() > 0, "recovery went through the retry path");
}

#[test]
fn rogue_requester_blocked_by_l1_table() {
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.run_workload(&weights, &prompt).unwrap();

    let rogue = Bdf::new(9, 9, 0);
    // Try to read the model out of device memory (BAR1 aperture).
    let bar1 = layout::XPU_BAR_BASE + (1 << 28);
    let replies = system
        .fabric_mut()
        .host_request(BusAdversary::craft_forged_read(rogue, bar1 + layout::DEV_WEIGHTS, 64));
    assert!(replies.iter().all(|r| r.payload().is_empty()), "no data for the rogue");

    // Try to overwrite the weights.
    let before = system.sc_counters().packets_blocked;
    system
        .fabric_mut()
        .host_request(BusAdversary::craft_forged_write(rogue, bar1 + layout::DEV_WEIGHTS, vec![0; 64]));
    assert!(system.sc_counters().packets_blocked > before);

    // The workload still runs correctly afterwards: nothing was damaged.
    let result = system.run_workload(&weights, &prompt).unwrap();
    assert_eq!(result, CommandProcessor::surrogate_inference(&weights, &prompt));
}

#[test]
fn rogue_cannot_reconfigure_the_sc() {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.run_workload(b"w", b"i").unwrap();
    let rogue = Bdf::new(9, 9, 0);
    // Attempt to point the tag landing buffer at attacker memory.
    system.fabric_mut().host_request(Tlp::memory_write(
        rogue,
        layout::SC_REGION + ccai_core::sc::regs::TAG_LANDING_ADDR,
        0xDEAD_0000u64.to_le_bytes().to_vec(),
    ));
    let alerts = system.sc().unwrap().alerts();
    assert!(
        alerts
            .iter()
            .any(|a| matches!(a, ScAlert::ControlAccessDenied { .. })),
        "control-window access from a rogue must be denied: {alerts:?}"
    );
    // System still healthy.
    system.run_workload(b"w2", b"i2").unwrap();
}

#[test]
fn replayed_data_chunks_are_rejected() {
    // Replay is exercised at the SC level: seeing the same (stream, seq)
    // twice is refused even with a valid tag. The system-level proof is
    // that a full rerun of the same workload uses fresh streams and
    // succeeds, while the SC's replay counter stays zero in clean runs.
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.run_workload(&weights, &prompt).unwrap();
    system.run_workload(&weights, &prompt).unwrap();
    assert_eq!(system.sc().unwrap().replays_blocked(), 0);
}

#[test]
fn quarantine_survives_replayed_control_window_tlps() {
    // A bus adversary records the TVM's sequenced control-window writes
    // during a healthy run, waits for the tenant to be quarantined, then
    // replays the capture hoping to reprogram the SC or revive the
    // channel. Every replayed write carries a stale sequence number, so
    // the exactly-once window rejects it: the quarantine holds, the
    // filter tables do not move, and data accesses stay A1-denied.
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let snooper = BusAdversary::new();
    system.fabric_mut().add_tap(snooper.tap());
    system.run_workload(&weights, &prompt).unwrap();

    let log = snooper.log();
    let captured: Vec<Tlp> = log
        .of_type(TlpType::MemWrite)
        .into_iter()
        .filter(|t| {
            let addr = t.header().address().unwrap_or(0);
            (layout::SC_REGION..layout::SC_REGION + ccai_core::sc::regs::WINDOW_LEN)
                .contains(&addr)
                && parse_ctrl_envelope(t.payload()).is_some()
        })
        .cloned()
        .collect();
    assert!(!captured.is_empty(), "a protected run must emit sequenced control writes");

    // Unrelenting corruption trips the quarantine, then the injector is
    // removed so everything below is the adversary acting alone.
    system.inject_faults(FaultPlan::corrupt_only(0xBAD, 1024));
    assert!(system.run_workload(&weights, &prompt).is_err(), "channel is unrecoverable");
    system.clear_faults();
    let xpu_bdf = Bdf::new(layout::XPU_BDF.0, layout::XPU_BDF.1, layout::XPU_BDF.2);
    assert!(system.sc().unwrap().is_quarantined(xpu_bdf));

    let filter_before = system.sc_filter_digest();
    let before = system.sc_counters();
    for tlp in captured {
        system.fabric_mut().host_request(tlp);
    }
    let after = system.sc_counters();

    assert!(
        system.sc().unwrap().is_quarantined(xpu_bdf),
        "replayed control writes must not lift the quarantine"
    );
    assert_eq!(
        system.sc_filter_digest(),
        filter_before,
        "stale control sequences must not move the filter tables"
    );
    assert!(
        after.control_dup_suppressed > before.control_dup_suppressed
            || after.packets_blocked > before.packets_blocked,
        "the replay must be visibly rejected, not silently absorbed"
    );

    // Data-path access from the quarantined tenant is still A1-denied.
    let probe = Tlp::memory_read(system.tvm_bdf(), layout::XPU_BAR_BASE, 8, 0x7B);
    let replies = system.fabric_mut().host_request(probe);
    assert!(
        replies.iter().all(|r| r.payload().is_empty()),
        "quarantined tenant must stay A1-denied after the replay"
    );
}

#[test]
fn host_adversary_cannot_read_private_tvm_memory() {
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.run_workload(&weights, &prompt).unwrap();
    let mut host = HostAdversary::new();
    for addr in [0u64, 0x1000, 0x7F_0000] {
        assert_eq!(
            host.read_tvm_memory(system.memory(), addr, 64),
            AttackOutcome::Blocked,
            "private page at {addr:#x}"
        );
    }
}

#[test]
fn bounce_buffers_hold_only_ciphertext() {
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.run_workload(&weights, &prompt).unwrap();
    let mut host = HostAdversary::new();
    match host.read_tvm_memory(system.memory(), layout::STAGING_BASE, weights.len() as u64) {
        AttackOutcome::Leaked(bytes) => {
            assert_ne!(bytes, weights, "bounce buffer must not hold plaintext");
            // No 15-byte window of the secret shows through.
            assert!(
                !bytes.windows(15).any(|w| w == &weights[..15]),
                "plaintext fragment visible in the bounce buffer"
            );
        }
        other => panic!("shared pages are host-visible by design, got {other:?}"),
    }
}

#[test]
fn environment_guard_blocks_page_table_retargeting() {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.run_workload(b"w", b"i").unwrap();
    // Register a guarded page-table base, then attack it via the Adaptor
    // port with a sequenced write (so the MMIO integrity tag is valid —
    // the *value* is the attack).
    let guarded_addr = layout::XPU_BAR_BASE + 0x40;
    let tvm = system.tvm_bdf();
    let seq = system.sc().unwrap().replay_floors(tvm).unwrap().0 + 1;
    let (_, _, _, _, adaptor) = system.parts();
    let adaptor = adaptor.expect("ccai mode");
    {
        let fabric = system.fabric_mut();
        let mut port = adaptor.port(fabric);
        adaptor.guard_register(&mut port, guarded_addr, 0xAB00_0000);
        use ccai_tvm::TlpPort;
        port.request(Tlp::memory_write(
            tvm,
            guarded_addr,
            seal_ctrl_envelope(&0xBAD0_0000u64.to_le_bytes(), seq),
        ));
    }
    let alerts = system.sc().unwrap().alerts();
    assert!(
        matches!(
            alerts,
            [ScAlert::WriteProtectFailure { addr, reason }]
                if *addr == guarded_addr && reason.starts_with("guarded register")
        ),
        "the environment guard must catch page-table retargeting: {alerts:?}"
    );
}

#[test]
fn forged_env_policy_records_are_refused() {
    // The env policy is append-only inside the SC, so a record must carry
    // the env-key MAC nonced by its envelope sequence. An adversary that
    // can write the control window as the primary TVM's requester ID but
    // lacks the key forges the bare 17-byte record instead — raw, and
    // enveloped at the very sequence the SC expects next — here pinning a
    // register the workload never writes to a value it never writes.
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.run_workload(b"w", b"i").unwrap();
    let tvm = system.tvm_bdf();
    let victim = layout::XPU_BAR_BASE + 0x40;
    let mut record = vec![1u8]; // kind 1: expected-value guard
    record.extend_from_slice(&victim.to_be_bytes());
    record.extend_from_slice(&0xBAD0_0000u64.to_be_bytes());
    let env = layout::SC_REGION + ccai_core::sc::regs::ENV_POLICY;
    let ack = system.sc().unwrap().ctrl_ack(tvm).unwrap();
    system
        .fabric_mut()
        .host_request(Tlp::memory_write(tvm, env, record.clone()));
    system.fabric_mut().host_request(Tlp::memory_write(
        tvm,
        env,
        seal_ctrl_envelope(&record, ack + 1),
    ));

    let sc = system.sc().unwrap();
    let refusals = sc
        .alerts()
        .iter()
        .filter(|a| matches!(a, ScAlert::WriteProtectFailure { addr, .. } if *addr == ccai_core::sc::regs::ENV_POLICY))
        .count();
    assert_eq!(
        refusals,
        2,
        "both forgeries must raise an alert: {:?}",
        sc.alerts()
    );
    assert_eq!(system.telemetry().counter("sc.env_rejects"), 2);
    assert_eq!(
        system.sc().unwrap().ctrl_ack(tvm),
        Some(ack),
        "a refused record must not consume its sequence"
    );

    // No guard was installed: an authentic sequenced write of another
    // value to the victim register passes the environment guard.
    let seq = system.sc().unwrap().replay_floors(tvm).unwrap().0 + 1;
    let (_, _, _, _, adaptor) = system.parts();
    let adaptor = adaptor.expect("ccai mode");
    {
        use ccai_tvm::TlpPort;
        let fabric = system.fabric_mut();
        let mut port = adaptor.port(fabric);
        port.request(Tlp::memory_write(
            tvm,
            victim,
            seal_ctrl_envelope(&0x1234u64.to_le_bytes(), seq),
        ));
    }
    assert!(
        !system
            .sc()
            .unwrap()
            .alerts()
            .iter()
            .any(|a| matches!(a, ScAlert::WriteProtectFailure { addr, .. } if *addr == victim)),
        "a forged guard was applied: {:?}",
        system.sc().unwrap().alerts()
    );
    // And the platform still serves.
    system.run_workload(b"w2", b"i2").unwrap();
}

#[test]
fn every_device_survives_the_snooping_battery() {
    let (weights, prompt) = secrets();
    for spec in XpuSpec::evaluation_set() {
        let name = spec.name().to_string();
        let mut system = ConfidentialSystem::build(spec, SystemMode::CcAi);
        let snooper = BusAdversary::new();
        system.fabric_mut().add_tap(snooper.tap());
        system.run_workload(&weights, &prompt).unwrap();
        assert!(!snooper.log().leaked(&weights[..15]), "{name} leaked weights");
        assert!(!snooper.log().leaked(&prompt[..15]), "{name} leaked prompt");
    }
}

#[test]
fn quarantine_and_replay_protection_survive_snapshot_resume() {
    // Live migration must not be a security reset: an operator
    // snapshots a system whose tenant is quarantined, resumes it
    // elsewhere, and the adversary replays a captured control-window
    // session against the *resumed* instance. The quarantine must hold
    // across the snapshot boundary, and the resumed exactly-once window
    // must still refuse every stale sequence number.
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let snooper = BusAdversary::new();
    system.fabric_mut().add_tap(snooper.tap());
    system.run_workload(&weights, &prompt).unwrap();

    let captured: Vec<Tlp> = snooper
        .log()
        .of_type(TlpType::MemWrite)
        .into_iter()
        .filter(|t| {
            let addr = t.header().address().unwrap_or(0);
            (layout::SC_REGION..layout::SC_REGION + ccai_core::sc::regs::WINDOW_LEN)
                .contains(&addr)
                && parse_ctrl_envelope(t.payload()).is_some()
        })
        .cloned()
        .collect();
    assert!(!captured.is_empty(), "a protected run must emit sequenced control writes");

    // Trip the quarantine, then snapshot the poisoned system and resume
    // it into a fresh instance (topology rebuilt, keys re-derived).
    system.inject_faults(FaultPlan::corrupt_only(0xBAD, 1024));
    assert!(system.run_workload(&weights, &prompt).is_err(), "channel is unrecoverable");
    system.clear_faults();
    let xpu_bdf = Bdf::new(layout::XPU_BDF.0, layout::XPU_BDF.1, layout::XPU_BDF.2);
    assert!(system.sc().unwrap().is_quarantined(xpu_bdf));

    let snap = system.snapshot();
    drop(system);
    let mut resumed = ConfidentialSystem::resume(&snap).expect("resume");
    assert!(
        resumed.sc().unwrap().is_quarantined(xpu_bdf),
        "resume must not launder a quarantine"
    );

    let filter_before = resumed.sc_filter_digest();
    let before = resumed.sc_counters();
    for tlp in captured {
        resumed.fabric_mut().host_request(tlp);
    }
    let after = resumed.sc_counters();

    assert!(
        resumed.sc().unwrap().is_quarantined(xpu_bdf),
        "replayed control writes must not lift the quarantine after resume"
    );
    assert_eq!(
        resumed.sc_filter_digest(),
        filter_before,
        "stale control sequences must not move the resumed filter tables"
    );
    assert!(
        after.control_dup_suppressed > before.control_dup_suppressed
            || after.packets_blocked > before.packets_blocked,
        "the replay must be visibly rejected by the resumed SC"
    );

    // Data-path access from the quarantined tenant stays A1-denied on
    // the resumed instance too.
    let probe = Tlp::memory_read(resumed.tvm_bdf(), layout::XPU_BAR_BASE, 8, 0x7B);
    let replies = resumed.fabric_mut().host_request(probe);
    assert!(
        replies.iter().all(|r| r.payload().is_empty()),
        "quarantined tenant must stay A1-denied after snapshot/resume"
    );
}

#[test]
fn quarantine_and_replay_floors_survive_a_power_cycle() {
    // The reset-replay attack of the bring-up battery, driven end to
    // end at the security-analysis level: an SC power cycle clears all
    // volatile state, but the quarantine flag and the exactly-once
    // sequence floors ride the persistent state across the cycle. A
    // captured pre-reset control session replayed after a clean
    // re-attested bring-up is refused wholesale.
    let (weights, prompt) = secrets();
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let snooper = BusAdversary::new();
    system.fabric_mut().add_tap(snooper.tap());
    system.run_workload(&weights, &prompt).unwrap();

    let captured: Vec<Tlp> = snooper
        .log()
        .of_type(TlpType::MemWrite)
        .into_iter()
        .filter(|t| {
            let addr = t.header().address().unwrap_or(0);
            (layout::SC_REGION..layout::SC_REGION + ccai_core::sc::regs::WINDOW_LEN)
                .contains(&addr)
                && parse_ctrl_envelope(t.payload()).is_some()
        })
        .cloned()
        .collect();
    assert!(!captured.is_empty(), "a protected run must emit sequenced control writes");

    system.inject_faults(FaultPlan::corrupt_only(0xBAD, 1024));
    assert!(system.run_workload(&weights, &prompt).is_err(), "channel is unrecoverable");
    system.clear_faults();
    let xpu_bdf = Bdf::new(layout::XPU_BDF.0, layout::XPU_BDF.1, layout::XPU_BDF.2);
    assert!(system.sc().unwrap().is_quarantined(xpu_bdf));

    system.reset().expect("power cycle");
    assert!(!system.sc_is_serving(), "a reset SC must not serve");
    assert!(
        system.sc().unwrap().is_quarantined(xpu_bdf),
        "a power cycle must not launder a quarantine"
    );
    system.complete_bringup().expect("fresh attested bring-up");
    assert!(system.sc_is_serving());

    let filter_before = system.sc_filter_digest();
    let before = system.sc_counters();
    for tlp in captured {
        system.fabric_mut().host_request(tlp);
    }
    let after = system.sc_counters();

    assert!(
        system.sc().unwrap().is_quarantined(xpu_bdf),
        "replayed control writes must not lift the quarantine after a power cycle"
    );
    assert_eq!(
        system.sc_filter_digest(),
        filter_before,
        "stale pre-reset control sequences must not move the filter tables"
    );
    assert!(
        after.control_dup_suppressed > before.control_dup_suppressed
            || after.packets_blocked > before.packets_blocked,
        "the replay must be visibly rejected by the reborn SC"
    );

    let probe = Tlp::memory_read(system.tvm_bdf(), layout::XPU_BAR_BASE, 8, 0x7B);
    let replies = system.fabric_mut().host_request(probe);
    assert!(
        replies.iter().all(|r| r.payload().is_empty()),
        "quarantined tenant must stay A1-denied after the power cycle"
    );
}

#[test]
fn failed_slice_import_leaves_the_target_untouched() {
    // A migration slice crosses the host. One the target refuses must be
    // refused before it touches anything: a half-applied slice rolls the
    // target's replay floors back — envelopes it already accepted become
    // replayable — and leaves its SC and Adaptor disagreeing.
    let source = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let mut slice = source.export_tenant_slice().expect("a protected source exports");
    let mut target = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    target.run_workload(b"weights", b"prompt").unwrap();
    let tvm_bdf = target.tvm_bdf();
    let floors = target.sc().unwrap().replay_floors(tvm_bdf);
    let epoch = target.tenant_epoch();
    assert_ne!(floors, Some((0, 0)), "the target must have accepted sequenced traffic");

    slice.push(0);
    assert!(target.import_tenant_slice(&slice).is_err(), "a trailing byte is refused");
    assert_eq!(target.sc().unwrap().replay_floors(tvm_bdf), floors, "floors moved");
    assert_eq!(target.tenant_epoch(), epoch, "epoch moved");
    assert_eq!(
        target.run_workload(b"weights-2", b"prompt-2").unwrap(),
        CommandProcessor::surrogate_inference(b"weights-2", b"prompt-2"),
        "the target keeps serving after the refused import"
    );
}

#[test]
fn firmware_swap_carries_every_bound_tenant() {
    // §9 multi-user: the swapped-in controller must take over every
    // tenant the running one serves, and the port must never be left
    // without an SC.
    use ccai_core::sc::PcieSc;
    use ccai_core::snapshot::firmware_swap_sc;
    use ccai_pcie::PortId;

    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.run_workload(b"weights", b"prompt").unwrap();
    let tvm_bdf = system.tvm_bdf();
    let second_tvm = Bdf::new(0, 3, 0);
    system
        .fabric_mut()
        .interposer_mut(PortId(0))
        .and_then(|ip| ip.as_any_mut().downcast_mut::<PcieSc>())
        .expect("the SC sits on the xPU port")
        .add_tenant(second_tvm, Bdf::new(0x17, 0, 1), [0x77; 32]);
    let sc = system.sc().unwrap();
    let before = (sc.replay_floors(tvm_bdf), sc.replay_floors(second_tvm));
    assert_ne!(before.0, Some((0, 0)), "the data tenant must have accepted sequenced traffic");

    firmware_swap_sc(&mut system).expect("a two-tenant SC swaps");
    let sc = system.sc().expect("the port keeps an SC");
    assert_eq!(sc.tenant_count(), 2);
    assert_eq!((sc.replay_floors(tvm_bdf), sc.replay_floors(second_tvm)), before);
    assert_eq!(
        system.run_workload(b"weights-2", b"prompt-2").unwrap(),
        CommandProcessor::surrogate_inference(b"weights-2", b"prompt-2")
    );
}

#[test]
fn control_authority_is_scoped_to_the_sc_trust_domain() {
    // Keys released for one SC are worthless against another trust
    // domain: an Adaptor holding a different attested master cannot
    // install policy — every control write fails the MAC check and the
    // SC's installed tables do not move.
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.run_workload(b"w", b"i").unwrap();
    let filter_before = system.sc_filter_digest();

    // Any constant is foreign: the real master is DH-derived during
    // attestation and never equals a fixed pattern.
    let foreign_master = [0x5A; 32];
    let (_, _, _, _, adaptor) = system.parts();
    let adaptor = adaptor.expect("ccai mode");
    let installed = {
        let fabric = system.fabric_mut();
        let mut port = adaptor.port(fabric);
        adaptor.install_default_policy(&mut port, &foreign_master)
    };
    assert!(!installed, "a foreign-keyed Adaptor must not configure this SC");
    assert_eq!(
        system.sc_filter_digest(),
        filter_before,
        "rejected foreign control writes must not move the filter tables"
    );
    // The rightful tenant is unharmed.
    system.run_workload(b"w2", b"i2").unwrap();
}

#[test]
fn quarantine_is_contained_to_the_tripped_shard() {
    // Trust topology across a fleet: each shard has its own PCIe-SC,
    // and containment state is per-SC. Tripping the quarantine on one
    // shard must not bleed SC-level admission state onto the healthy
    // shards — they keep serving their own data paths untouched.
    use ccai_llm::fleet::ShardedFleet;

    let (weights, prompt) = secrets();
    let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, &weights, 4)
        .expect("sharded fleet deploys");
    let victim = 2u32;
    {
        let system = fleet.shard_system_mut(victim);
        system.inject_faults(FaultPlan::corrupt_only(0xBAD, 1024));
        assert!(system.run_workload(&weights, &prompt).is_err());
        system.clear_faults();
    }

    let xpu_bdf = Bdf::new(layout::XPU_BDF.0, layout::XPU_BDF.1, layout::XPU_BDF.2);
    for shard in 0..4 {
        assert_eq!(
            fleet.shard_system(shard).sc().unwrap().is_quarantined(xpu_bdf),
            shard == victim,
            "quarantine state must be exactly per-SC, shard {shard}"
        );
    }

    // A healthy shard's SC still admits its tenant's data path.
    let healthy = (victim + 1) % 4;
    assert!(
        fleet.shard_system_mut(healthy).run_workload(&weights, &prompt).is_ok(),
        "healthy shards keep serving"
    );
    // The victim's SC does not.
    assert!(
        fleet.shard_system_mut(victim).run_workload(&weights, &prompt).is_err(),
        "the tripped shard stays contained"
    );
}

#[test]
fn quarantine_is_honored_by_every_shard_and_shed_at_admission() {
    // Containment must be fleet-wide: when one shard's PCIe-SC
    // quarantines a tenant, the tenant cannot dodge it by landing on a
    // healthy shard, and the serving layer sheds its requests at
    // admission with a typed reason instead of silently dropping them.
    use ccai_llm::fleet::{ServeError, ShardedFleet};
    use ccai_llm::serve::{FleetConfig, FleetServer, TenantSpec};
    use ccai_sim::SimDuration;

    let (weights, prompt) = secrets();
    let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, &weights, 4)
        .expect("sharded fleet deploys");
    assert!(fleet.quarantined_tenants().is_empty(), "fleet starts healthy");

    // All shards are golden-image replicas of one template, so the bound
    // tenant tag is identical on each. Trip containment on a shard that
    // is NOT the tenant's home: unrelenting corruption until the crypt
    // failures quarantine the tenant on that shard alone.
    let victim_shard = {
        // Pick any shard other than an arbitrary tenant's home so the
        // cross-shard property below is non-trivial for that tenant.
        let some_home = fleet.shard_of(0x10);
        (some_home + 1) % 4
    };
    {
        let system = fleet.shard_system_mut(victim_shard);
        system.inject_faults(FaultPlan::corrupt_only(0xBAD, 1024));
        assert!(
            system.run_workload(&weights, &prompt).is_err(),
            "unrelenting corruption must be unrecoverable"
        );
        system.clear_faults();
    }
    let contained = fleet.quarantined_tenants();
    assert!(!contained.is_empty(), "corruption must trip a quarantine");
    let tag = contained[0];
    assert_ne!(
        fleet.shard_of(tag),
        victim_shard,
        "test setup: quarantine must have tripped away from the home shard"
    );

    // Every shard honors the quarantine — including the healthy home
    // shard the tenant actually routes to.
    match fleet.serve(tag, &prompt) {
        Err(ServeError::Quarantined(t)) => assert_eq!(t, tag),
        Err(other) => panic!("expected a quarantine refusal, got: {other}"),
        Ok(_) => panic!("quarantined tenant was served by a healthy shard"),
    }
    // A different, unquarantined tenant still gets service.
    let other = contained.iter().max().unwrap() + 1;
    assert!(fleet.serve(other, &prompt).is_ok(), "healthy tenants keep being served");

    // The serving layer mirrors the SC-observed quarantine into
    // admission control: the tenant's queued work and all future
    // arrivals shed with the typed Quarantined reason.
    let tenants = vec![
        TenantSpec::new(tag, SimDuration::from_millis(20), 16, 32),
        TenantSpec::new(other, SimDuration::from_millis(20), 16, 32),
    ];
    let config = FleetConfig {
        seed: 0x5EC,
        shards: 4,
        max_batch: 16,
        admission_backlog: 32,
        rate_limiting: true,
        model: ccai_llm::LlmSpec::opt_1_3b(),
        device: XpuSpec::a100(),
        tenants,
    };
    let mut server = FleetServer::new(config);
    server.generate(50);
    server.sync_quarantine(&fleet.quarantined_tenants());
    server.generate(400);
    server.drain();

    let report = server.report();
    let bad = report.tenants.iter().find(|t| t.tenant == tag).unwrap();
    let good = report.tenants.iter().find(|t| t.tenant == other).unwrap();
    assert!(
        bad.shed_quarantined > 0,
        "quarantined tenant's arrivals must shed with the typed reason"
    );
    assert_eq!(
        bad.generated,
        bad.served + bad.shed_rate_limited + bad.shed_queue_full + bad.shed_quarantined,
        "every quarantined-tenant request must be accounted, never silently dropped"
    );
    assert_eq!(good.shed_quarantined, 0, "healthy tenant untouched by the quarantine");
    assert!(good.served > 0);
    assert!(
        server.telemetry().counter("serve.shed.quarantined") >= bad.shed_quarantined,
        "typed shed counter must be visible in telemetry"
    );
}
