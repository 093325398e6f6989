//! Trust establishment end to end (§6, Fig. 6).
//!
//! ```text
//! cargo run -p ccai-bench --example attestation
//! ```
//!
//! Walks the full chain: HRoT-Blade manufacture and EK certification by
//! the vendor CA, secure boot of the PCIe-SC bitstream + firmware from
//! encrypted flash, chassis-seal sensing, the four-step remote
//! attestation protocol, workload key derivation with IV-exhaustion
//! rotation — and shows that a tampered bitstream is caught both at boot
//! and by the remote verifier.

use ccai_crypto::SchnorrKeyPair;
use ccai_trust::attest::{run_protocol, Platform, Verifier};
use ccai_trust::hrot::KeyCertificate;
use ccai_trust::keymgmt::StreamId;
use ccai_trust::pcr::PcrIndex;
use ccai_trust::sealing::{ChassisSensors, SensorReading};
use ccai_trust::secure_boot::{FlashImage, SecureBoot};
use ccai_trust::{HrotBlade, WorkloadKeyManager};
use ccai_crypto::Key;
use std::collections::HashMap;

fn main() {

    // --- manufacture ---
    let vendor_ca = SchnorrKeyPair::generate(&[0xCA; 32]);
    let mut blade = HrotBlade::manufacture(&[0x01; 32]);
    blade.install_ek_certificate(KeyCertificate::issue(&vendor_ca, "EK", blade.ek_public()));
    println!("manufactured HRoT-Blade; EK certified by the vendor CA");

    // --- secure boot of the PCIe-SC ---
    let bitstream = b"packet-filter + packet-handler LUT configuration v1".to_vec();
    let firmware = b"sc management firmware v1".to_vec();
    let flash_key = Key::Aes128([0x5C; 16]);
    let boot = SecureBoot::for_pcie_sc(flash_key.clone(), &bitstream, &firmware);
    let flash = vec![
        FlashImage::provision("packet-filter-bitstream", &bitstream, &flash_key, [1; 12]),
        FlashImage::provision("sc-firmware", &firmware, &flash_key, [2; 12]),
    ];
    let loaded = boot.boot(&mut blade, &flash).expect("clean boot");
    println!("secure boot OK: {} components measured into PCRs", loaded.len());
    blade.boot_generate_ak(&[0x02; 32]);
    println!("boot-fresh AK generated and certified by the EK");

    // --- chassis seal ---
    let mut sensors = ChassisSensors::default();
    for _ in 0..10 {
        sensors.poll(&mut blade);
    }
    println!("chassis sensors nominal over 10 polls ({})", sensors);

    // --- remote attestation (the Fig. 6 protocol) ---
    let golden: HashMap<usize, _> = [
        (PcrIndex::ScBitstream.index(), blade.pcrs().read_assigned(PcrIndex::ScBitstream)),
        (PcrIndex::ScFirmware.index(), blade.pcrs().read_assigned(PcrIndex::ScFirmware)),
        (PcrIndex::ChassisSeal.index(), blade.pcrs().read_assigned(PcrIndex::ChassisSeal)),
    ]
    .into_iter()
    .collect();

    let mut platform = Platform::new(blade, &[0x03; 32]);
    let mut verifier = Verifier::new(vendor_ca.public().clone(), &[0x04; 32], golden.clone());
    run_protocol(&mut verifier, &mut platform, &[1, 2, 5], [0xAA; 32]).expect("attestation accepted");
    println!("remote attestation: ACCEPTED (EK chain, AK quote, golden PCRs, fresh nonce)");

    // --- workload keys (post-attestation) ---
    let master = [0x99u8; 32]; // in the system this comes from the DH session
    let mut tvm_keys = WorkloadKeyManager::new(master);
    let mut sc_keys = WorkloadKeyManager::new(master);
    for keys in [&mut tvm_keys, &mut sc_keys] {
        keys.provision_stream(StreamId(1), 4);
    }
    assert_eq!(tvm_keys.stream_key(StreamId(1)).unwrap(), sc_keys.stream_key(StreamId(1)).unwrap());
    // Exhaust the tiny IV budget to show the H100-style rotation.
    while tvm_keys.next_iv(StreamId(1)).is_ok() {
        sc_keys.next_iv(StreamId(1)).unwrap();
    }
    tvm_keys.rotate(StreamId(1)).unwrap();
    sc_keys.rotate(StreamId(1)).unwrap();
    assert_eq!(tvm_keys.stream_key(StreamId(1)).unwrap(), sc_keys.stream_key(StreamId(1)).unwrap());
    println!("workload keys: IV space exhausted -> both sides rotated to generation 1 in lockstep");

    // --- now the attacks ---
    println!();
    println!("--- attack: tampered bitstream in flash ---");
    let mut evil_blade = HrotBlade::manufacture(&[0x01; 32]);
    evil_blade.install_ek_certificate(KeyCertificate::issue(&vendor_ca, "EK", evil_blade.ek_public()));
    let evil_flash = vec![
        FlashImage::provision("packet-filter-bitstream", b"backdoored bitstream", &flash_key, [1; 12]),
        FlashImage::provision("sc-firmware", &firmware, &flash_key, [2; 12]),
    ];
    let boot_result = boot.boot(&mut evil_blade, &evil_flash);
    println!("secure boot verdict: {boot_result:?}");
    assert!(boot_result.is_err());

    // Even if the platform booted anyway, attestation fails on the PCR.
    evil_blade.boot_generate_ak(&[0x05; 32]);
    let mut evil_platform = Platform::new(evil_blade, &[0x06; 32]);
    let mut verifier2 = Verifier::new(vendor_ca.public().clone(), &[0x07; 32], golden);
    let verdict = run_protocol(&mut verifier2, &mut evil_platform, &[1, 2, 5], [0xBB; 32]);
    println!("remote verifier verdict: {verdict:?}");
    assert!(verdict.is_err());

    println!();
    println!("--- attack: physical chassis breach ---");
    let mut blade2 = HrotBlade::manufacture(&[0x08; 32]);
    let mut sensors2 = ChassisSensors::default();
    sensors2.inject_reading(SensorReading { lid_closed: false, ..SensorReading::nominal() });
    sensors2.poll(&mut blade2);
    println!(
        "chassis seal PCR after breach: {} (tamper events: {})",
        blade2.pcrs().read_assigned(PcrIndex::ChassisSeal),
        sensors2.tamper_events()
    );
    assert_eq!(sensors2.tamper_events(), 1);
}
