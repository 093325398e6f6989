//! The Fig. 5 Packet Filter workflow, driven through the real fabric:
//! encrypted policy installation via the configuration space, L1 masked
//! prefiltering, L2 action selection, and dynamic policy updates.

use ccai_core::filter::{L1Rule, L2Rule, PacketFilter, PolicyBlob, SecurityAction};
use ccai_core::sc::{regs, status_bits, PcieSc, ScConfig};
use ccai_core::system::{layout, ConfidentialSystem, SystemMode};
use ccai_crypto::{hkdf, Key};
use ccai_pcie::{Bdf, Interposer, Tlp, TlpType};

fn tvm() -> Bdf {
    Bdf::new(0, 2, 0)
}

fn xpu() -> Bdf {
    Bdf::new(0x17, 0, 0)
}

fn fresh_sc(master: [u8; 32]) -> PcieSc {
    PcieSc::new(
        ScConfig {
            sc_bdf: Bdf::new(0x16, 0, 0),
            region_base: 0x7F00_0000,
            tvm_bdf: tvm(),
            xpu_bdf: xpu(),
        },
        master,
        ccai_sim::Telemetry::default(),
    )
}

fn install_policy(sc: &mut PcieSc, master: &[u8; 32], l1: Vec<L1Rule>, l2: Vec<L2Rule>) {
    let key = Key::from_bytes(&hkdf(b"ccai-config-key", master, b"policy", 16)).unwrap();
    let blob = PolicyBlob::seal(&l1, &l2, &key, [7; 12]).to_bytes();
    let base = 0x7F00_0000u64;
    for (i, chunk) in blob.chunks(1024).enumerate() {
        sc.on_downstream(Tlp::memory_write(tvm(), base + (i * 1024) as u64, chunk.to_vec()));
    }
    sc.on_downstream(Tlp::memory_write(
        tvm(),
        base + regs::POLICY_LEN,
        (blob.len() as u64).to_le_bytes().to_vec(),
    ));
    sc.on_downstream(Tlp::memory_write(tvm(), base + regs::POLICY_APPLY, vec![1]));
}

fn read_status(sc: &mut PcieSc) -> u64 {
    let outcome =
        sc.on_downstream(Tlp::memory_read(tvm(), 0x7F00_0000 + regs::STATUS, 8, 0x77));
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(outcome.reply[0].payload());
    u64::from_le_bytes(bytes)
}

#[test]
fn fig5_workflow_over_the_control_path() {
    let master = [0x21u8; 32];
    let mut sc = fresh_sc(master);

    // Fig. 5 ①: L1 admits TVM memory requests; ②: L2 distinguishes the
    // ccAI-HW command window (A2 would be internal), the xPU control
    // window (A3) and the data bounce window.
    let l1 = vec![
        L1Rule::admit(TlpType::MemWrite, tvm()),
        L1Rule::admit(TlpType::MemRead, tvm()),
        L1Rule::default_deny(),
    ];
    let l2 = vec![
        L2Rule::for_range(TlpType::MemWrite, tvm(), 0x8000..0x9000, SecurityAction::WriteProtect),
        L2Rule::for_range(TlpType::MemRead, tvm(), 0x1000..0x5000, SecurityAction::PassThrough),
    ];
    install_policy(&mut sc, &master, l1, l2);
    assert_eq!(read_status(&mut sc) & status_bits::POLICY_OK, status_bits::POLICY_OK);

    // Authorized read in the pass-through window flows (it reaches no
    // device here, but it is not blocked).
    let before = sc.counters().packets_blocked;
    sc.on_downstream(Tlp::memory_read(tvm(), 0x1000, 64, 1));
    assert_eq!(sc.counters().packets_blocked, before);

    // Unauthorized requester dies at L1.
    sc.on_downstream(Tlp::memory_write(Bdf::new(5, 5, 0), 0x1000, vec![1]));
    assert_eq!(sc.counters().packets_blocked, before + 1);

    // An admitted-but-unclassified address dies at L2.
    sc.on_downstream(Tlp::memory_write(tvm(), 0xF000, vec![1]));
    assert_eq!(sc.counters().packets_blocked, before + 2);
    assert_eq!(sc.filter_stats().l1_blocked, 1);
    assert_eq!(sc.filter_stats().l2_blocked, 1);
}

#[test]
fn dynamic_policy_update_swaps_behavior() {
    let master = [0x22u8; 32];
    let mut sc = fresh_sc(master);
    install_policy(
        &mut sc,
        &master,
        vec![L1Rule::admit(TlpType::MemRead, tvm())],
        vec![L2Rule::for_range(TlpType::MemRead, tvm(), 0..0x1000, SecurityAction::PassThrough)],
    );
    let before = sc.counters().packets_blocked;
    sc.on_downstream(Tlp::memory_read(tvm(), 0x100, 4, 0));
    assert_eq!(sc.counters().packets_blocked, before, "allowed under policy v1");

    // Update: revoke the read window.
    install_policy(
        &mut sc,
        &master,
        vec![L1Rule::admit(TlpType::MemRead, tvm())],
        vec![],
    );
    sc.on_downstream(Tlp::memory_read(tvm(), 0x100, 4, 0));
    assert_eq!(sc.counters().packets_blocked, before + 1, "blocked under policy v2");
}

#[test]
fn malicious_policy_injection_is_rejected() {
    let master = [0x23u8; 32];
    let mut sc = fresh_sc(master);
    // The §4.1 attack: inject a configuration sealed under the WRONG key.
    let attacker_key = Key::Aes128([0xEE; 16]);
    let evil = PolicyBlob::seal(
        &[L1Rule::default_deny()],
        &[],
        &attacker_key,
        [9; 12],
    )
    .to_bytes();
    let base = 0x7F00_0000u64;
    sc.on_downstream(Tlp::memory_write(tvm(), base, evil.clone()));
    sc.on_downstream(Tlp::memory_write(
        tvm(),
        base + regs::POLICY_LEN,
        (evil.len() as u64).to_le_bytes().to_vec(),
    ));
    sc.on_downstream(Tlp::memory_write(tvm(), base + regs::POLICY_APPLY, vec![1]));
    assert_eq!(read_status(&mut sc) & status_bits::POLICY_ERR, status_bits::POLICY_ERR);
}

#[test]
fn filter_stats_in_the_full_system_account_for_all_traffic() {
    let mut system = ConfidentialSystem::build(ccai_xpu::XpuSpec::a100(), SystemMode::CcAi);
    system.run_workload(&vec![1u8; 50_000], &vec![2u8; 6_000]).unwrap();
    let sc = system.sc().unwrap();
    let stats = sc.filter_stats();
    assert_eq!(stats.blocked(), 0, "clean run blocks nothing");
    assert!(stats.write_protected > 10, "driver MMIO writes classified A3");
    assert!(stats.passed > 10, "reads/completions classified A4");
    // A2 work happened on the data path (counted by the engine, since
    // CplD decryption bypasses table classification by design).
    assert!(sc.counters().chunks_decrypted > 10);
    let _ = layout::SC_REGION; // layout is part of the public API surface
}

#[test]
fn classification_is_stable_over_many_packets() {
    // Soak: a mixed stream through a standalone filter keeps counting
    // consistently (no state corruption).
    let mut filter = PacketFilter::new();
    filter.push_l1(L1Rule::admit(TlpType::MemWrite, tvm()));
    filter.push_l2(L2Rule::for_range(
        TlpType::MemWrite,
        tvm(),
        0x1000..0x2000,
        SecurityAction::CryptProtect,
    ));
    let inside = Tlp::memory_write(tvm(), 0x1800, vec![0; 8]);
    let outside = Tlp::memory_write(tvm(), 0x3000, vec![0; 8]);
    let rogue = Tlp::memory_write(Bdf::new(1, 1, 1), 0x1800, vec![0; 8]);
    for _ in 0..1000 {
        assert_eq!(filter.classify(inside.header()), SecurityAction::CryptProtect);
        assert_eq!(filter.classify(outside.header()), SecurityAction::Disallow);
        assert_eq!(filter.classify(rogue.header()), SecurityAction::Disallow);
    }
    let stats = filter.stats();
    assert_eq!(stats.crypt_protected, 1000);
    assert_eq!(stats.l2_blocked, 1000);
    assert_eq!(stats.l1_blocked, 1000);
    assert_eq!(stats.total(), 3000);
}
