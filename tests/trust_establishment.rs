//! §6 trust establishment, integrated: secure boot → attestation →
//! workload keys → sealing, including the failure paths a deployment
//! depends on.

use ccai_crypto::{Key, SchnorrKeyPair};
use ccai_trust::attest::{run_protocol, AttestationError, Platform, Verifier};
use ccai_trust::hrot::KeyCertificate;
use ccai_trust::keymgmt::StreamId;
use ccai_trust::pcr::PcrIndex;
use ccai_trust::sealing::{ChassisSensors, SensorReading};
use ccai_trust::secure_boot::{FlashImage, SecureBoot};
use ccai_trust::{HrotBlade, WorkloadKeyManager};
use ccai_xpu::{Xpu, XpuSpec};
use ccai_pcie::Bdf;
use ccai_sim::Telemetry;
use std::collections::{BTreeMap, BTreeSet, HashMap};

struct Deployment {
    vendor_ca: SchnorrKeyPair,
    blade: HrotBlade,
    golden: HashMap<usize, ccai_crypto::Digest>,
}

fn deploy() -> Deployment {
    let vendor_ca = SchnorrKeyPair::generate(&[0xCA; 32]);
    let mut blade = HrotBlade::manufacture(&[0x01; 32]);
    blade.install_ek_certificate(KeyCertificate::issue(&vendor_ca, "EK", blade.ek_public()));

    // Secure boot from encrypted flash.
    let flash_key = Key::Aes128([0x5C; 16]);
    let bitstream = b"pf bitstream v1".to_vec();
    let firmware = b"sc firmware v1".to_vec();
    let boot = SecureBoot::for_pcie_sc(flash_key.clone(), &bitstream, &firmware);
    let flash = vec![
        FlashImage::provision("packet-filter-bitstream", &bitstream, &flash_key, [1; 12]),
        FlashImage::provision("sc-firmware", &firmware, &flash_key, [2; 12]),
    ];
    boot.boot(&mut blade, &flash).expect("clean boot");
    blade.boot_generate_ak(&[0x02; 32]);

    // Measure the attached xPU's firmware into its PCR (the "xPU with
    // HRoT / vendor signature" path of §6).
    let xpu = Xpu::new(XpuSpec::a100(), Bdf::new(0x17, 0, 0), 0x8000_0000, Telemetry::default());
    assert!(xpu.firmware().verify(), "vendor signature checks out");
    blade
        .pcrs_mut()
        .extend_assigned(PcrIndex::XpuFirmware, xpu.firmware().measurement().as_bytes());

    // Chassis sealed and polled.
    let mut sensors = ChassisSensors::default();
    for _ in 0..5 {
        sensors.poll(&mut blade);
    }

    let golden = [
        PcrIndex::ScBitstream,
        PcrIndex::ScFirmware,
        PcrIndex::XpuFirmware,
        PcrIndex::ChassisSeal,
    ]
    .into_iter()
    .map(|p| (p.index(), blade.pcrs().read_assigned(p)))
    .collect();

    Deployment { vendor_ca, blade, golden }
}

const SELECTION: [usize; 4] = [1, 2, 4, 5];

#[test]
fn full_chain_accepts_a_clean_platform() {
    let d = deploy();
    let mut platform = Platform::new(d.blade, &[0x03; 32]);
    let mut verifier = Verifier::new(d.vendor_ca.public().clone(), &[0x04; 32], d.golden);
    run_protocol(&mut verifier, &mut platform, &SELECTION, [0x11; 32]).unwrap();
}

#[test]
fn tampered_xpu_firmware_breaks_attestation() {
    let d = deploy();
    // A second deployment where the xPU firmware was tampered after
    // signing: the measurement extended into the PCR differs.
    let mut blade = HrotBlade::manufacture(&[0x01; 32]);
    blade.install_ek_certificate(KeyCertificate::issue(&d.vendor_ca, "EK", blade.ek_public()));
    let flash_key = Key::Aes128([0x5C; 16]);
    let boot = SecureBoot::for_pcie_sc(flash_key.clone(), b"pf bitstream v1", b"sc firmware v1");
    let flash = vec![
        FlashImage::provision("packet-filter-bitstream", b"pf bitstream v1", &flash_key, [1; 12]),
        FlashImage::provision("sc-firmware", b"sc firmware v1", &flash_key, [2; 12]),
    ];
    boot.boot(&mut blade, &flash).unwrap();
    blade.boot_generate_ak(&[0x02; 32]);

    let mut xpu =
        Xpu::new(XpuSpec::a100(), Bdf::new(0x17, 0, 0), 0x8000_0000, Telemetry::default());
    xpu.firmware_mut().tamper(3);
    assert!(!xpu.firmware().verify(), "tamper visible at signature check");
    // Suppose the operator extends the tampered measurement anyway:
    let tampered_measure = ccai_crypto::sha256(xpu.firmware().image());
    blade
        .pcrs_mut()
        .extend_assigned(PcrIndex::XpuFirmware, tampered_measure.as_bytes());
    let mut sensors = ChassisSensors::default();
    for _ in 0..5 {
        sensors.poll(&mut blade);
    }

    let mut platform = Platform::new(blade, &[0x03; 32]);
    let mut verifier = Verifier::new(d.vendor_ca.public().clone(), &[0x04; 32], d.golden);
    assert_eq!(
        run_protocol(&mut verifier, &mut platform, &SELECTION, [0x12; 32]),
        Err(AttestationError::PcrMismatch { index: PcrIndex::XpuFirmware.index() })
    );
}

#[test]
fn chassis_breach_breaks_subsequent_attestation() {
    let mut d = deploy();
    // Physical tamper after deployment.
    let mut sensors = ChassisSensors::default();
    sensors.inject_reading(SensorReading { lid_closed: false, ..SensorReading::nominal() });
    sensors.poll(&mut d.blade);

    let mut platform = Platform::new(d.blade, &[0x03; 32]);
    let mut verifier = Verifier::new(d.vendor_ca.public().clone(), &[0x04; 32], d.golden);
    assert_eq!(
        run_protocol(&mut verifier, &mut platform, &SELECTION, [0x13; 32]),
        Err(AttestationError::PcrMismatch { index: PcrIndex::ChassisSeal.index() })
    );
}

#[test]
fn counterfeit_blade_fails_the_certificate_chain() {
    let d = deploy();
    // A blade whose EK was certified by a different (attacker) CA.
    let attacker_ca = SchnorrKeyPair::generate(&[0xBB; 32]);
    let mut fake = HrotBlade::manufacture(&[0x0F; 32]);
    fake.install_ek_certificate(KeyCertificate::issue(&attacker_ca, "EK", fake.ek_public()));
    fake.boot_generate_ak(&[0x10; 32]);

    let mut platform = Platform::new(fake, &[0x03; 32]);
    let mut verifier = Verifier::new(d.vendor_ca.public().clone(), &[0x04; 32], d.golden);
    assert_eq!(
        run_protocol(&mut verifier, &mut platform, &SELECTION, [0x14; 32]),
        Err(AttestationError::UntrustedEk)
    );
}

#[test]
fn workload_keys_follow_attestation_and_die_with_the_task() {
    let d = deploy();
    let mut platform = Platform::new(d.blade, &[0x03; 32]);
    let mut verifier = Verifier::new(d.vendor_ca.public().clone(), &[0x04; 32], d.golden);
    run_protocol(&mut verifier, &mut platform, &SELECTION, [0x15; 32]).unwrap();

    // Post-attestation key negotiation (both sides derive from a shared
    // secret; here the DH agreement stands in).
    let master = [0x42u8; 32];
    let mut tvm = WorkloadKeyManager::new(master);
    let mut sc = WorkloadKeyManager::new(master);
    for side in [&mut tvm, &mut sc] {
        side.provision_stream(StreamId(1), 1000);
        side.provision_stream(StreamId(2), 1000);
    }
    assert_eq!(tvm.stream_key(StreamId(1)).unwrap(), sc.stream_key(StreamId(1)).unwrap());
    assert_ne!(
        tvm.stream_key(StreamId(1)).unwrap(),
        tvm.stream_key(StreamId(2)).unwrap()
    );

    // Termination destroys both copies (§6).
    tvm.destroy();
    sc.destroy();
    assert!(tvm.is_destroyed() && sc.is_destroyed());
    assert!(tvm.stream_key(StreamId(1)).is_err());
}

#[test]
fn attestation_is_bound_to_the_session_key() {
    // A MITM who relays messages cannot splice sessions: the report is
    // sealed under the DH session key, so a verifier with a different
    // session cannot open it.
    let d = deploy();
    let mut platform = Platform::new(d.blade, &[0x03; 32]);
    let mut verifier_a = Verifier::new(d.vendor_ca.public().clone(), &[0x04; 32], d.golden.clone());
    let mut verifier_b = Verifier::new(d.vendor_ca.public().clone(), &[0x05; 32], d.golden);

    // Platform pairs with A.
    let platform_pub = platform.key_exchange(&verifier_a.dh_public()).unwrap();
    verifier_a.complete_key_exchange(&platform_pub).unwrap();
    // B (different DH key) cannot read A's certificate message.
    verifier_b.complete_key_exchange(&platform_pub).unwrap();
    let certs = platform.certificates().unwrap();
    assert!(verifier_a.check_certificates(&certs).is_ok());
    assert_eq!(
        verifier_b.check_certificates(&certs),
        Err(AttestationError::BadSessionCiphertext)
    );
}

/// Every Fig. 6 message has one length whatever the key material: the
/// two DH publics and the sealed certificate, challenge and report
/// messages. A length that tracks leading zero bytes of a value derived
/// from a secret tells an eavesdropper about that secret (the Raccoon
/// attack on TLS-DH), so no encoding may strip them.
#[test]
fn every_fig6_message_has_one_length_for_any_entropy() {
    let mut lengths: BTreeMap<&str, BTreeSet<usize>> = BTreeMap::new();
    for seed in 0..64u8 {
        let vendor_ca = SchnorrKeyPair::generate(&[seed ^ 0xCA; 32]);
        let mut blade = HrotBlade::manufacture(&[seed; 32]);
        blade.install_ek_certificate(KeyCertificate::issue(&vendor_ca, "EK", blade.ek_public()));
        blade.boot_generate_ak(&[seed ^ 0x02; 32]);
        let mut platform = Platform::new(blade, &[seed ^ 0x03; 32]);
        let mut verifier =
            Verifier::new(vendor_ca.public().clone(), &[seed ^ 0x04; 32], HashMap::new());

        let verifier_pub = verifier.dh_public();
        let platform_pub = platform.key_exchange(&verifier_pub).unwrap();
        verifier.complete_key_exchange(&platform_pub).unwrap();
        let certs = platform.certificates().unwrap();
        verifier.check_certificates(&certs).unwrap();
        let challenge = verifier.challenge(&SELECTION, [seed; 32]).unwrap();
        let report = platform.answer_challenge(&challenge).unwrap();
        verifier.check_report(&report).unwrap();

        for (message, len) in [
            ("verifier DH public", verifier_pub.to_bytes().len()),
            ("platform DH public", platform_pub.to_bytes().len()),
            ("sealed certificates", certs.wire_len()),
            ("sealed challenge", challenge.wire_len()),
            ("sealed report", report.wire_len()),
        ] {
            lengths.entry(message).or_default().insert(len);
        }
    }
    for (message, seen) in lengths {
        assert_eq!(seen.len(), 1, "{message} length varies with the key material: {seen:?}");
    }
}
