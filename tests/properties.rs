//! Property-based tests over the core data structures and invariants:
//! TLP codec round-trips, AEAD round-trips and tamper detection, policy
//! blob round-trips, filter monotonicity, device-memory consistency, and
//! Schnorr/DH agreement for any key material.

use ccai_core::filter::{L1Rule, L2Rule, PacketFilter, PolicyBlob, SecurityAction};
use ccai_crypto::{AesGcm, Key, OpenError};
use ccai_pcie::{Bdf, Tlp, TlpType};
use ccai_xpu::DeviceMemory;
use proptest::prelude::*;

fn arb_bdf() -> impl Strategy<Value = Bdf> {
    (any::<u8>(), 0u8..32, 0u8..8).prop_map(|(b, d, f)| Bdf::new(b, d, f))
}

/// Either AES key width, uniformly — exercises both round counts.
fn arb_key() -> impl Strategy<Value = Key> {
    prop_oneof![
        any::<[u8; 16]>().prop_map(Key::Aes128),
        any::<[u8; 32]>().prop_map(Key::Aes256),
    ]
}

/// A payload plus sorted, deduplicated cut points inside it: a random
/// chunk split of the kind the Adaptor's staging path produces.
fn arb_chunk_split() -> impl Strategy<Value = (Vec<u8>, Vec<usize>)> {
    proptest::collection::vec(any::<u8>(), 0..2048).prop_flat_map(|payload| {
        let len = payload.len();
        (
            Just(payload),
            proptest::collection::vec(0usize..len + 1, 0..6).prop_map(|mut cuts| {
                cuts.sort_unstable();
                cuts.dedup();
                cuts
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tlp_memory_write_round_trips(
        bdf in arb_bdf(),
        addr in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..2048),
    ) {
        let tlp = Tlp::memory_write(bdf, addr, payload);
        let decoded = Tlp::decode(&tlp.encode()).expect("decodes");
        prop_assert_eq!(decoded, tlp);
    }

    #[test]
    fn tlp_memory_read_round_trips(
        bdf in arb_bdf(),
        addr in any::<u64>(),
        len in 1u32..4096,
        tag in any::<u8>(),
    ) {
        let tlp = Tlp::memory_read(bdf, addr, len, tag);
        let decoded = Tlp::decode(&tlp.encode()).expect("decodes");
        prop_assert_eq!(decoded.header().payload_len(), len);
        prop_assert_eq!(decoded, tlp);
    }

    #[test]
    fn tlp_completion_round_trips(
        completer in arb_bdf(),
        requester in arb_bdf(),
        tag in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let tlp = Tlp::completion_with_data(completer, requester, tag, payload);
        prop_assert_eq!(Tlp::decode(&tlp.encode()).expect("decodes"), tlp);
    }

    #[test]
    fn tlp_decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Tlp::decode(&bytes); // must not panic
    }

    #[test]
    fn gcm_round_trips_any_payload(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        plaintext in proptest::collection::vec(any::<u8>(), 0..4096),
        aad in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let gcm = AesGcm::new(&Key::Aes128(key));
        let sealed = gcm.seal(&nonce, &plaintext, &aad);
        prop_assert_eq!(sealed.len(), plaintext.len() + 16);
        prop_assert_eq!(gcm.open(&nonce, &sealed, &aad).expect("authentic"), plaintext);
    }

    #[test]
    fn gcm_rejects_any_single_byte_corruption(
        key in any::<[u8; 16]>(),
        nonce in any::<[u8; 12]>(),
        plaintext in proptest::collection::vec(any::<u8>(), 1..512),
        corrupt_at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let gcm = AesGcm::new(&Key::Aes128(key));
        let mut sealed = gcm.seal(&nonce, &plaintext, b"");
        let idx = corrupt_at.index(sealed.len());
        sealed[idx] ^= xor;
        prop_assert!(gcm.open(&nonce, &sealed, b"").is_err());
    }

    #[test]
    fn policy_blob_round_trips(
        requesters in proptest::collection::vec(arb_bdf(), 1..8),
        starts in proptest::collection::vec(0u64..u64::MAX / 2, 1..8),
    ) {
        let l1: Vec<L1Rule> = requesters
            .iter()
            .map(|&r| L1Rule::admit(TlpType::MemWrite, r))
            .chain(std::iter::once(L1Rule::default_deny()))
            .collect();
        let l2: Vec<L2Rule> = requesters
            .iter()
            .zip(starts.iter())
            .map(|(&r, &s)| {
                L2Rule::for_range(TlpType::MemWrite, r, s..s + 0x1000, SecurityAction::CryptProtect)
            })
            .collect();
        let key = Key::Aes128([0x5C; 16]);
        let blob = PolicyBlob::seal(&l1, &l2, &key, [3; 12]);
        let (l1_back, l2_back) = blob.unseal(&key).expect("round trip");
        prop_assert_eq!(l1_back, l1);
        prop_assert_eq!(l2_back, l2);
    }

    #[test]
    fn filter_default_deny_is_total(
        bdf in arb_bdf(),
        addr in any::<u64>(),
        write in any::<bool>(),
    ) {
        // With no rules, EVERY packet is disallowed — the fail-closed
        // invariant.
        let mut filter = PacketFilter::new();
        let tlp = if write {
            Tlp::memory_write(bdf, addr, vec![0])
        } else {
            Tlp::memory_read(bdf, addr, 4, 0)
        };
        prop_assert_eq!(filter.classify(tlp.header()), SecurityAction::Disallow);
    }

    #[test]
    fn filter_admission_is_requester_exact(
        admitted in arb_bdf(),
        other in arb_bdf(),
        addr in 0u64..0x1_0000,
    ) {
        prop_assume!(admitted != other);
        let mut filter = PacketFilter::new();
        filter.push_l1(L1Rule::admit(TlpType::MemWrite, admitted));
        filter.push_l2(L2Rule::for_type(TlpType::MemWrite, admitted, SecurityAction::PassThrough));
        let good = Tlp::memory_write(admitted, addr, vec![0]);
        let bad = Tlp::memory_write(other, addr, vec![0]);
        prop_assert_eq!(filter.classify(good.header()), SecurityAction::PassThrough);
        prop_assert_eq!(filter.classify(bad.header()), SecurityAction::Disallow);
    }

    #[test]
    fn device_memory_write_read_consistency(
        writes in proptest::collection::vec(
            (0u64..60_000, proptest::collection::vec(any::<u8>(), 1..256)),
            1..16
        ),
    ) {
        // Model-based check: device memory behaves like a flat byte array.
        let mut mem = DeviceMemory::new(1 << 16);
        let mut model = vec![0u8; 1 << 16];
        for (addr, data) in &writes {
            if *addr as usize + data.len() <= model.len() {
                mem.write(*addr, data).expect("in bounds");
                model[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
            }
        }
        let snapshot = mem.read(0, 1 << 16).expect("full read");
        prop_assert_eq!(snapshot, model);
    }
}

// ---- protocol-level properties (fewer cases: scalar-multiplication-heavy) ----

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn control_writes_are_exactly_once_under_duplication_and_reorder(
        seed in any::<u64>(),
        writes in proptest::collection::vec((0usize..6, any::<u64>()), 1..12),
    ) {
        // Arbitrary interleavings of sequenced control writes with
        // injected duplicates and reorders must preserve exactly-once
        // register semantics: a read-back always sees the last value the
        // driver acknowledged, never a replayed older one.
        use ccai_core::{ConfidentialSystem, SystemMode};
        use ccai_pcie::FaultPlan;
        use ccai_tvm::RetryPolicy;
        use ccai_xpu::{Reg, XpuSpec};
        const SIDE_EFFECT_FREE: [Reg; 6] =
            [Reg::DmaSrc, Reg::DmaDst, Reg::DmaLen, Reg::CmdArg0, Reg::CmdArg1, Reg::CmdArg2];

        let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
        system.driver_mut().set_retry_policy(RetryPolicy {
            max_attempts: 8,
            backoff_base: 2,
            ..Default::default()
        });
        // Bring the confidential plumbing (session keys, tag landing,
        // filter rules) up fault-free before injecting; the property
        // under test is the write protocol, not session establishment.
        system.run_workload(b"warmup", b"warmup").expect("fault-free warmup");
        system.inject_faults(
            FaultPlan::duplicate_reorder(seed, 64).with_control_path(),
        );
        let mut model = std::collections::BTreeMap::new();
        let (driver, fabric, _memory, _stager, adaptor) = system.parts();
        let adaptor = adaptor.expect("ccai mode");
        let mut port = adaptor.port(fabric);
        for (reg_idx, value) in &writes {
            let reg = SIDE_EFFECT_FREE[*reg_idx];
            driver.write_register(&mut port, reg, *value).expect("dup/reorder is recoverable");
            model.insert(reg, *value);
        }
        for (reg, expected) in &model {
            let read = driver.read_register(&mut port, *reg).expect("readable");
            prop_assert_eq!(
                read, *expected,
                "register {:?} must hold the last acknowledged value", reg
            );
        }
    }

    #[test]
    fn schnorr_signatures_verify_and_bind_the_message(
        key_seed in any::<[u8; 32]>(),
        msg in proptest::collection::vec(any::<u8>(), 0..256),
        flip in any::<prop::sample::Index>(),
    ) {
        use ccai_crypto::SchnorrKeyPair;
        let kp = SchnorrKeyPair::generate(&key_seed);
        let sig = kp.sign(&msg);
        prop_assert!(kp.public().verify(&msg, &sig));
        // Any single-byte change to a non-empty message invalidates it.
        if !msg.is_empty() {
            let mut other = msg.clone();
            let idx = flip.index(other.len());
            other[idx] ^= 0x01;
            prop_assert!(!kp.public().verify(&other, &sig));
        }
    }

    #[test]
    fn dh_agreement_is_symmetric_for_any_entropy(
        a_seed in any::<[u8; 32]>(),
        b_seed in any::<[u8; 32]>(),
    ) {
        use ccai_crypto::DhKeyPair;
        let a = DhKeyPair::generate(&a_seed);
        let b = DhKeyPair::generate(&b_seed);
        prop_assert_eq!(a.agree(b.public()).unwrap(), b.agree(a.public()).unwrap());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hkdf_is_deterministic_and_input_sensitive(
        salt in proptest::collection::vec(any::<u8>(), 0..32),
        ikm in proptest::collection::vec(any::<u8>(), 1..64),
        info in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        use ccai_crypto::hkdf;
        let a = hkdf(&salt, &ikm, &info, 32);
        let b = hkdf(&salt, &ikm, &info, 32);
        prop_assert_eq!(&a, &b);
        let mut ikm2 = ikm.clone();
        ikm2[0] ^= 1;
        prop_assert_ne!(a, hkdf(&salt, &ikm2, &info, 32));
    }

    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..2048),
        split in any::<prop::sample::Index>(),
    ) {
        use ccai_crypto::{sha256, Sha256};
        let cut = split.index(data.len() + 1);
        let mut h = Sha256::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn link_dma_time_is_monotonic(
        bytes_small in 1u64..(1 << 24),
        extra in 1u64..(1 << 24),
    ) {
        use ccai_pcie::{LinkConfig, LinkSpeed};
        let link = LinkConfig::new(LinkSpeed::Gen4, 16);
        prop_assert!(link.dma_time(bytes_small + extra) > link.dma_time(bytes_small));
        // And faster links are never slower.
        let slow = LinkConfig::new(LinkSpeed::Gen3, 8);
        prop_assert!(slow.dma_time(bytes_small) >= link.dma_time(bytes_small));
    }

    #[test]
    fn iv_manager_never_repeats_within_a_generation(
        prefix in any::<u32>(),
        draws in 1usize..512,
    ) {
        use ccai_crypto::IvManager;
        let mut ivs = IvManager::new(prefix);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..draws {
            let (nonce, _) = ivs.next_iv().unwrap();
            prop_assert!(seen.insert(nonce), "nonce reuse");
        }
    }

    #[test]
    fn tag_records_round_trip_any_content(
        stream in any::<u32>(),
        seq in any::<u64>(),
        tag in any::<[u8; 16]>(),
    ) {
        use ccai_core::handler::TagRecord;
        use ccai_trust::keymgmt::StreamId;
        let record = TagRecord { stream: StreamId(stream), seq, tag };
        prop_assert_eq!(TagRecord::from_bytes(&record.to_bytes()), Some(record));
    }

    #[test]
    fn fast_datapath_matches_scalar_oracle_chunk_by_chunk(
        key in arb_key(),
        nonce_base in any::<[u8; 12]>(),
        split in arb_chunk_split(),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // The attached form under every chunk geometry, against the
        // portable backend: the constant-time reference that replaced the
        // byte-at-a-time scalar oracle this property is named after.
        let (payload, cuts) = split;
        let fast = AesGcm::new(&key);
        let oracle = AesGcm::portable(&key);
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(cuts.iter().copied())
            .chain(std::iter::once(payload.len()))
            .collect();
        for (i, pair) in bounds.windows(2).enumerate() {
            let chunk = &payload[pair[0]..pair[1]];
            // Per-chunk nonce, as on the staging datapath: base ‖ index.
            let mut nonce = nonce_base;
            nonce[8..].copy_from_slice(&(i as u32).to_be_bytes());
            let fast_sealed = fast.seal(&nonce, chunk, &aad);
            prop_assert_eq!(&fast_sealed, &oracle.seal(&nonce, chunk, &aad));
            // Cross-open both ways.
            prop_assert_eq!(oracle.open(&nonce, &fast_sealed, &aad).expect("authentic"), chunk.to_vec());
            prop_assert_eq!(fast.open(&nonce, &fast_sealed, &aad).expect("authentic"), chunk.to_vec());
        }
    }

    #[test]
    fn hw_datapath_matches_table_and_scalar_chunk_by_chunk(
        key in arb_key(),
        nonce_base in any::<[u8; 12]>(),
        split in arb_chunk_split(),
        aad in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // `AesGcm::new` runs on AES-NI + PCLMULQDQ wherever the CPU has
        // them; the portable backend, which took the place of the table
        // and scalar references, is the independent reference for it
        // under every chunk geometry. (On a CPU without the instructions
        // `new` *is* the portable path and this checks it against itself.)
        let (payload, cuts) = split;
        let chosen = AesGcm::new(&key);
        let portable = AesGcm::portable(&key);
        prop_assert_eq!(portable.backend(), "portable");
        let bounds: Vec<usize> = std::iter::once(0)
            .chain(cuts.iter().copied())
            .chain(std::iter::once(payload.len()))
            .collect();
        for (i, pair) in bounds.windows(2).enumerate() {
            let chunk = &payload[pair[0]..pair[1]];
            let mut nonce = nonce_base;
            nonce[8..].copy_from_slice(&(i as u32).to_be_bytes());
            // In place and detached, as the staging datapath seals.
            let mut sealed = chunk.to_vec();
            let tag = chosen.seal_in_place_detached(&nonce, &mut sealed, &aad);
            sealed.extend_from_slice(&tag);
            prop_assert_eq!(&sealed, &portable.seal(&nonce, chunk, &aad), "{} vs portable", chosen.backend());
            // Each opens what the other sealed.
            prop_assert_eq!(portable.open(&nonce, &sealed, &aad).expect("authentic"), chunk.to_vec());
            prop_assert_eq!(chosen.open(&nonce, &sealed, &aad).expect("authentic"), chunk.to_vec());
        }
    }

    #[test]
    fn fast_and_oracle_agree_on_injected_tag_faults(
        key in arb_key(),
        nonce in any::<[u8; 12]>(),
        plaintext in proptest::collection::vec(any::<u8>(), 1..768),
        fault_at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        // A single flipped bit anywhere in ciphertext or tag must be a
        // TagMismatch on the fast path and on the portable oracle.
        let fast = AesGcm::new(&key);
        let oracle = AesGcm::portable(&key);
        let mut sealed = fast.seal(&nonce, &plaintext, b"hdr");
        let idx = fault_at.index(sealed.len());
        sealed[idx] ^= xor;
        prop_assert_eq!(fast.open(&nonce, &sealed, b"hdr"), Err(OpenError::TagMismatch));
        prop_assert_eq!(oracle.open(&nonce, &sealed, b"hdr"), Err(OpenError::TagMismatch));
    }

    #[test]
    fn fast_and_oracle_agree_on_truncated_inputs(
        key in arb_key(),
        nonce in any::<[u8; 12]>(),
        keep in 0usize..16,
    ) {
        // Shorter than one tag: a distinct Truncated error, never a
        // plaintext, and the oracle rejects the same inputs.
        let fast = AesGcm::new(&key);
        let oracle = AesGcm::portable(&key);
        let sealed = fast.seal(&nonce, b"payload", b"");
        let truncated = &sealed[..keep];
        prop_assert_eq!(fast.open(&nonce, truncated, b""), Err(OpenError::Truncated));
        prop_assert_eq!(oracle.open(&nonce, truncated, b""), Err(OpenError::Truncated));
    }

    #[test]
    fn detached_seal_matches_oracle_and_survives_tag_faults(
        key in arb_key(),
        nonce in any::<[u8; 12]>(),
        plaintext in proptest::collection::vec(any::<u8>(), 0..1024),
        xor in 1u8..=255,
    ) {
        let fast = AesGcm::new(&key);
        let oracle = AesGcm::portable(&key);
        let mut buf = plaintext.clone();
        let tag = fast.seal_in_place_detached(&nonce, &mut buf, b"aad");
        // Detached form ≡ the oracle's attached form.
        let mut attached = buf.clone();
        attached.extend_from_slice(&tag);
        prop_assert_eq!(&attached, &oracle.seal(&nonce, &plaintext, b"aad"));
        // Injected tag fault: rejected without touching the buffer.
        let ciphertext = buf.clone();
        let mut bad = tag;
        bad[0] ^= xor;
        prop_assert_eq!(
            fast.open_in_place_detached(&nonce, &mut buf, &bad, b"aad"),
            Err(OpenError::TagMismatch)
        );
        prop_assert_eq!(&buf, &ciphertext);
        fast.open_in_place_detached(&nonce, &mut buf, &tag, b"aad").expect("authentic");
        prop_assert_eq!(buf, plaintext);
    }

    #[test]
    fn guest_memory_dma_respects_sharing_for_any_layout(
        share_start in 0u64..0x8000,
        share_len in 1u64..0x4000,
        probe in 0u64..0xFFFF,
    ) {
        use ccai_pcie::{Bdf, HostMemory};
        use ccai_tvm::GuestMemory;
        let mut mem = GuestMemory::new(0x1_0000);
        let share_end = (share_start + share_len).min(0x1_0000);
        mem.share_range(share_start..share_end);
        let dev = Bdf::new(1, 0, 0);
        let readable = mem.dma_read(dev, probe, 1).is_some();
        let expected = probe >= share_start && probe < share_end;
        prop_assert_eq!(readable, expected);
    }
}

/// The page-store properties run over four 64 KiB pages.
const STORE_SPAN: u64 = 4 * ccai_sim::pages::PAGE;

/// Writes of up to 2 KiB that start within 1 KiB of an inner page
/// boundary, so some straddle it and most of the space stays unwritten.
fn arb_store_writes() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    let page = ccai_sim::pages::PAGE;
    proptest::collection::vec(
        (
            (1u64..4, 0u64..2048).prop_map(move |(p, off)| p * page - 1024 + off),
            proptest::collection::vec(any::<u8>(), 1..2048),
        ),
        0..10,
    )
}

/// The bytes of a page walk, joined.
fn flat<'a>(slices: impl Iterator<Item = &'a [u8]>) -> Vec<u8> {
    slices.flatten().copied().collect()
}

/// Ranges anywhere in the span: up to three pages long, clipped at its end.
fn arb_store_ranges() -> impl Strategy<Value = Vec<(u64, u64)>> {
    let page = ccai_sim::pages::PAGE;
    proptest::collection::vec(
        (0u64..STORE_SPAN, 0u64..3 * page).prop_map(|(a, len)| (a, len.min(STORE_SPAN - a))),
        1..8,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every page-store accessor, and each owner's accessors over it,
    /// reads what a flat byte array reads: across pages, over unwritten
    /// pages, and at length 0.
    #[test]
    fn page_store_accessors_equal_a_flat_model(
        writes in arb_store_writes(),
        ranges in arb_store_ranges(),
    ) {
        use ccai_pcie::HostMemory;
        use ccai_sim::pages::{PageStore, PAGE};
        use ccai_tvm::GuestMemory;
        let mut store = PageStore::default();
        let mut guest = GuestMemory::new(STORE_SPAN);
        guest.share_range(0..STORE_SPAN);
        let mut device = DeviceMemory::new(STORE_SPAN);
        let mut model = vec![0u8; STORE_SPAN as usize];
        for (addr, data) in &writes {
            store.write(*addr, data);
            guest.write(*addr, data);
            device.write(*addr, data).expect("in bounds");
            model[*addr as usize..*addr as usize + data.len()].copy_from_slice(data);
        }
        let empty = ranges.iter().map(|&(a, _)| (a, 0));
        for (addr, len) in ranges.iter().copied().chain(empty) {
            let want = &model[addr as usize..(addr + len) as usize];
            let mut appended = vec![0xA5; 3];
            store.read_into(addr, len, &mut appended);
            prop_assert_eq!(&appended[..3], &[0xA5; 3][..]);
            prop_assert_eq!(&appended[3..], want);
            let mut filled = vec![0xA5; len as usize];
            store.read_exact(addr, &mut filled);
            prop_assert_eq!(&filled[..], want);
            prop_assert_eq!(&flat(store.slices(addr, len))[..], want);
            prop_assert_eq!(&guest.read(addr, len)[..], want);
            let mut stale = vec![0xA5; 7];
            prop_assert!(guest.dma_read_into(Bdf::new(1, 0, 0), addr, len as usize, &mut stale));
            prop_assert_eq!(&stale[..], want);
            prop_assert_eq!(&device.read(addr, len).expect("in bounds")[..], want);
            let walked = flat(device.slices(addr, len).expect("in bounds"));
            prop_assert_eq!(&walked[..], want);
            // A mutable borrow covers the range's part in its first page.
            let in_page = (PAGE - addr % PAGE).min(len) as usize;
            let mut lent = store.clone();
            prop_assert_eq!(&lent.range_mut(addr, in_page)[..], &want[..in_page]);
            lent.range_mut(addr, in_page).fill(0x5A);
            let mut expect = want.to_vec();
            expect[..in_page].fill(0x5A);
            prop_assert_eq!(flat(lent.slices(addr, len)), expect);
        }
    }

    /// Guest and device memory keep their pages in the one store: fed the
    /// same writes, they encode the same image bytes, which decode back.
    #[test]
    fn guest_and_device_stores_encode_the_same_image(writes in arb_store_writes()) {
        use ccai_sim::pages::PageStore;
        use ccai_sim::snapshot::{Decoder, Encoder};
        let mut guest = ccai_tvm::GuestMemory::new(STORE_SPAN);
        let mut device = DeviceMemory::new(STORE_SPAN);
        for (addr, data) in &writes {
            guest.write(*addr, data);
            device.write(*addr, data).expect("in bounds");
        }
        let (mut from_guest, mut from_device) = (Encoder::new(), Encoder::new());
        guest.pages().encode(&mut from_guest);
        device.pages().encode(&mut from_device);
        let image = from_guest.finish();
        prop_assert_eq!(&image, &from_device.finish());
        let mut dec = Decoder::new(&image);
        prop_assert_eq!(&PageStore::decode(&mut dec, STORE_SPAN).expect("decodes"), guest.pages());
        prop_assert!(dec.finish().is_ok());
    }
}

/// One warmed template snapshot, built once: corruption properties below
/// mutate copies of these bytes.
fn template_snapshot_bytes() -> &'static [u8] {
    use ccai_core::{ConfidentialSystem, SystemMode};
    use std::sync::OnceLock;
    static TEMPLATE: OnceLock<Vec<u8>> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let mut system = ConfidentialSystem::build(ccai_xpu::XpuSpec::a100(), SystemMode::CcAi);
        system.load_model(b"template weights for corruption properties").expect("load");
        system.snapshot().as_bytes().to_vec()
    })
}

fn arb_fault_plan() -> impl Strategy<Value = ccai_pcie::FaultPlan> {
    (
        (any::<u64>(), 0u16..1024, 0u16..1024, 0u16..1024),
        (0u16..1024, 0u16..1024, any::<u8>(), 0u16..1024),
        any::<bool>(),
    )
        .prop_map(
            |((seed, corrupt, drop, duplicate), (reorder, flap, flap_len, delay), control)| {
                ccai_pcie::FaultPlan {
                    seed,
                    corrupt_per_1024: corrupt,
                    drop_per_1024: drop,
                    duplicate_per_1024: duplicate,
                    reorder_per_1024: reorder,
                    flap_per_1024: flap,
                    flap_len,
                    delay_per_1024: delay,
                    fault_control_path: control,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn snapshot_primitives_round_trip(
        ints in (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>()),
        flag in any::<bool>(),
        float in any::<u32>().prop_map(|bits| f64::from(bits) * 0.5 - 1e9),
        blob in proptest::collection::vec(any::<u8>(), 0..512),
        text in proptest::collection::vec(32u8..127, 0..64)
            .prop_map(|chars| String::from_utf8(chars).expect("printable ASCII")),
    ) {
        use ccai_sim::snapshot::{Decoder, Encoder};
        let (a, b, c, d) = ints;
        let mut enc = Encoder::versioned();
        enc.u8(a);
        enc.u16(b);
        enc.u32(c);
        enc.u64(d);
        enc.bool(flag);
        enc.f64(float);
        enc.bytes(&blob);
        enc.str(&text);
        let bytes = enc.finish();
        let mut dec = Decoder::versioned(&bytes).expect("envelope");
        prop_assert_eq!(dec.u8().expect("u8"), a);
        prop_assert_eq!(dec.u16().expect("u16"), b);
        prop_assert_eq!(dec.u32().expect("u32"), c);
        prop_assert_eq!(dec.u64().expect("u64"), d);
        prop_assert_eq!(dec.bool().expect("bool"), flag);
        prop_assert_eq!(dec.f64().expect("f64"), float);
        prop_assert_eq!(dec.bytes().expect("bytes"), blob);
        prop_assert_eq!(dec.str().expect("str"), text);
        dec.finish().expect("fully consumed");
    }

    #[test]
    fn fault_plan_snapshot_round_trips(plan in arb_fault_plan()) {
        use ccai_sim::snapshot::{decode_versioned, encode_versioned};
        let bytes = encode_versioned(&plan);
        let decoded: ccai_pcie::FaultPlan = decode_versioned(&bytes).expect("round-trips");
        prop_assert_eq!(decoded, plan);
    }

    #[test]
    fn truncated_snapshots_are_typed_errors(
        plan in arb_fault_plan(),
        cut in any::<prop::sample::Index>(),
    ) {
        // Every strict prefix decodes to a typed error — never a panic,
        // never a silently-short value (full consumption is enforced).
        use ccai_sim::snapshot::{decode_versioned, encode_versioned};
        let bytes = encode_versioned(&plan);
        let prefix = &bytes[..cut.index(bytes.len())];
        prop_assert!(decode_versioned::<ccai_pcie::FaultPlan>(prefix).is_err());
        // And so does trailing garbage.
        let mut extended = bytes.clone();
        extended.push(0);
        prop_assert!(decode_versioned::<ccai_pcie::FaultPlan>(&extended).is_err());
    }

    #[test]
    fn corrupted_system_snapshots_never_panic(
        cut in any::<prop::sample::Index>(),
        flip_at in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        use ccai_core::snapshot::SystemSnapshot;
        use ccai_core::ConfidentialSystem;
        let template = template_snapshot_bytes();
        // Truncation at any point must be a typed error.
        let truncated = template[..cut.index(template.len())].to_vec();
        prop_assert!(ConfidentialSystem::resume(&SystemSnapshot::from_bytes(truncated)).is_err());
        // A byte flip anywhere must not panic; if the flip lands in a
        // don't-care byte resume may still succeed, but it must return.
        let mut flipped = template.to_vec();
        let idx = flip_at.index(flipped.len());
        flipped[idx] ^= xor;
        let _ = ConfidentialSystem::resume(&SystemSnapshot::from_bytes(flipped));
    }
}

// --- token-bucket rate limiting ------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Conservation: however the takes are spaced, the bucket never
    /// admits more than its burst plus what the refill rate accrued over
    /// the elapsed time — in exact pico-token arithmetic, no float slop.
    #[test]
    fn token_bucket_never_over_admits(
        burst in 1u64..64,
        rate in 1u64..1_000,
        gaps in proptest::collection::vec(0u64..2_000_000_000_000, 1..128),
    ) {
        use ccai_sim::rate::PICO_TOKENS_PER_TOKEN;
        use ccai_sim::{SimTime, TokenBucket};
        let mut bucket = TokenBucket::new(burst, rate);
        let mut now_picos = 0u64;
        let mut accepted = 0u128;
        for gap in gaps {
            now_picos += gap;
            if bucket.try_take(1, SimTime::from_picos(now_picos)) {
                accepted += 1;
            }
        }
        let ceiling = u128::from(burst) * PICO_TOKENS_PER_TOKEN
            + u128::from(rate) * u128::from(now_picos);
        prop_assert!(
            accepted * PICO_TOKENS_PER_TOKEN <= ceiling,
            "accepted {} tokens > burst {} + rate {} x {} ps",
            accepted, burst, rate, now_picos
        );
    }

    /// Monotone refills: with no successful takes draining it, the
    /// budget never decreases as time advances, and never exceeds the
    /// burst cap.
    #[test]
    fn token_bucket_refills_monotonically(
        burst in 1u64..64,
        rate in 1u64..1_000,
        drain in 0u64..64,
        gaps in proptest::collection::vec(0u64..500_000_000_000, 1..64),
    ) {
        use ccai_sim::rate::PICO_TOKENS_PER_TOKEN;
        use ccai_sim::{SimTime, TokenBucket};
        let mut bucket = TokenBucket::new(burst, rate);
        // Drain part of the initial burst so refill has headroom.
        let _ = bucket.try_take(drain.min(burst), SimTime::ZERO);
        let mut now_picos = 0u64;
        let mut last = bucket.budget_pico_tokens();
        for gap in gaps {
            now_picos += gap;
            // A zero-token take costs nothing but forces a refill.
            prop_assert!(bucket.try_take(0, SimTime::from_picos(now_picos)));
            let budget = bucket.budget_pico_tokens();
            prop_assert!(budget >= last, "budget moved backwards: {last} -> {budget}");
            prop_assert!(budget <= u128::from(burst) * PICO_TOKENS_PER_TOKEN);
            last = budget;
        }
    }

    /// Exactly-once admission at the refill boundary: after a refusal,
    /// `time_until` names the first instant a take succeeds — one
    /// picosecond earlier still refuses, and the admitted take spends
    /// the accrued token (an immediate retry at the same instant fails
    /// for an empty-at-boundary bucket).
    #[test]
    fn token_bucket_admits_exactly_at_the_refill_boundary(
        rate in 1u64..1_000,
        lead in 0u64..1_000_000_000,
    ) {
        use ccai_sim::{SimDuration, SimTime, TokenBucket};
        // burst 1: drain it, then the next admission is purely rate-driven.
        let mut bucket = TokenBucket::new(1, rate);
        let start = SimTime::from_picos(lead);
        prop_assert!(bucket.try_take(1, start));
        prop_assert!(!bucket.try_take(1, start));
        let wait = bucket.time_until(1, start);
        prop_assert!(!wait.is_zero());
        let ready = start + wait;
        let early = SimTime::from_picos(ready.as_picos() - 1);
        prop_assert!(!bucket.try_take(1, early), "admitted one picosecond early");
        prop_assert!(bucket.try_take(1, ready), "refused at the promised instant");
        prop_assert!(!bucket.try_take(1, ready), "admitted twice at the boundary");
        // The follow-up wait is a full token at the refill rate.
        let next = bucket.time_until(1, ready);
        prop_assert!(next >= wait.min(SimDuration::from_picos(1)));
    }
}

// --- snapshot codec laws -----------------------------------------------------

/// One value exercising every generic `SnapshotState` impl (and the
/// field-list macro that composes them).
#[derive(Debug, Clone, PartialEq)]
struct CodecSample {
    ints: (u8, u16, u32, u64),
    flag: bool,
    float: f64,
    text: String,
    cursor: usize,
    at: ccai_sim::SimTime,
    span: ccai_sim::SimDuration,
    window: std::ops::Range<u64>,
    tag: [u8; 16],
    maybe: Option<u64>,
    list: Vec<u32>,
    queue: std::collections::VecDeque<u16>,
    map: std::collections::BTreeMap<u32, String>,
    set: std::collections::BTreeSet<u64>,
    hash_map: ccai_sim::DetHashMap<u16, (u8, u64)>,
    hash_set: ccai_sim::DetHashSet<u32>,
}

ccai_sim::snapshot_state!(CodecSample {
    ints,
    flag,
    float,
    text,
    cursor,
    at,
    span,
    window,
    tag,
    maybe,
    list,
    queue,
    map,
    set,
    hash_map,
    hash_set,
});

fn arb_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(32u8..127, 0..12)
        .prop_map(|chars| String::from_utf8(chars).expect("printable ASCII"))
}

fn arb_codec_sample() -> impl Strategy<Value = CodecSample> {
    use proptest::collection::vec;
    (
        (
            (any::<u8>(), any::<u16>(), any::<u32>(), any::<u64>()),
            any::<bool>(),
            any::<u32>().prop_map(|bits| f64::from(bits) * 0.25 - 1e6),
            arb_text(),
            any::<usize>(),
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        ),
        (
            any::<[u8; 16]>(),
            (any::<bool>(), any::<u64>()),
            vec(any::<u32>(), 0..8),
            vec(any::<u16>(), 0..8),
            vec((any::<u32>(), arb_text()), 0..8),
            vec(any::<u64>(), 0..8),
        ),
        (vec((any::<u16>(), any::<u8>(), any::<u64>()), 0..8), vec(any::<u32>(), 0..8)),
    )
        .prop_map(|(scalars, containers, hashed)| {
            let (ints, flag, float, text, cursor, (at, span, start, end)) = scalars;
            let (tag, (some, value), list, queue, map, set) = containers;
            let (hash_map, hash_set) = hashed;
            CodecSample {
                ints,
                flag,
                float,
                text,
                cursor,
                at: ccai_sim::SimTime::from_picos(at),
                span: ccai_sim::SimDuration::from_picos(span),
                window: start..end,
                tag,
                maybe: some.then_some(value),
                list,
                queue: queue.into_iter().collect(),
                map: map.into_iter().collect(),
                set: set.into_iter().collect(),
                hash_map: hash_map.into_iter().map(|(k, a, b)| (k, (a, b))).collect(),
                hash_set: hash_set.into_iter().collect(),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decoding inverts encoding, and hash containers encode exactly like
    /// the sorted `BTree` container of the same entries.
    #[test]
    fn codec_round_trips_every_generic_impl(sample in arb_codec_sample()) {
        use ccai_sim::snapshot::{decode_versioned, encode_versioned};
        use std::collections::{BTreeMap, BTreeSet};
        let bytes = encode_versioned(&sample);
        let back: CodecSample = decode_versioned(&bytes).expect("round-trips");
        prop_assert_eq!(&back, &sample);
        prop_assert_eq!(encode_versioned(&back), bytes, "one value, one encoding");
        let sorted_map: BTreeMap<u16, (u8, u64)> = sample.hash_map.clone().into_iter().collect();
        prop_assert_eq!(encode_versioned(&sample.hash_map), encode_versioned(&sorted_map));
        let sorted_set: BTreeSet<u32> = sample.hash_set.iter().copied().collect();
        prop_assert_eq!(encode_versioned(&sample.hash_set), encode_versioned(&sorted_set));
    }

    /// Every strict prefix of an encoding is a typed error, never a panic
    /// and never a silently short value.
    #[test]
    fn codec_strict_prefixes_are_typed_errors(sample in arb_codec_sample()) {
        use ccai_sim::snapshot::{decode_versioned, encode_versioned};
        let bytes = encode_versioned(&sample);
        for cut in 0..bytes.len() {
            prop_assert!(decode_versioned::<CodecSample>(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn codec_refuses_a_trailing_byte(sample in arb_codec_sample(), extra in any::<u8>()) {
        use ccai_sim::snapshot::{decode_versioned, encode_versioned, SnapshotError};
        let mut bytes = encode_versioned(&sample);
        bytes.push(extra);
        prop_assert_eq!(
            decode_versioned::<CodecSample>(&bytes).err(),
            Some(SnapshotError::TrailingBytes(1))
        );
    }

    /// Map and set decoders accept exactly the strictly ascending key
    /// sequences: a repeated key or two keys out of order is refused, by
    /// the `BTree` and the hash containers alike.
    #[test]
    fn codec_refuses_duplicate_and_out_of_order_keys(
        keys in proptest::collection::vec(any::<u32>(), 2..12),
        at in any::<prop::sample::Index>(),
    ) {
        use ccai_sim::snapshot::{decode_versioned, encode_versioned, SnapshotError};
        use ccai_sim::{DetHashMap, DetHashSet};
        use std::collections::{BTreeMap, BTreeSet};
        let mut keys = keys;
        keys.sort_unstable();
        keys.dedup();
        prop_assume!(keys.len() >= 2);
        let i = at.index(keys.len() - 1);
        let mut duplicated = keys.clone();
        duplicated.insert(i + 1, keys[i]);
        let mut swapped = keys.clone();
        swapped.swap(i, i + 1);
        let refused = Some(SnapshotError::Invalid("keys not strictly ascending"));
        for (sequence, accepted) in [(&keys, true), (&duplicated, false), (&swapped, false)] {
            // A sequence of keys (or of rows) has the layout of a set (or map).
            let set_bytes = encode_versioned(sequence);
            let rows: Vec<(u32, u8)> = sequence.iter().map(|&k| (k, k as u8)).collect();
            let map_bytes = encode_versioned(&rows);
            let outcomes = [
                decode_versioned::<BTreeSet<u32>>(&set_bytes).err(),
                decode_versioned::<DetHashSet<u32>>(&set_bytes).err(),
                decode_versioned::<BTreeMap<u32, u8>>(&map_bytes).err(),
                decode_versioned::<DetHashMap<u32, u8>>(&map_bytes).err(),
            ];
            for outcome in outcomes {
                if accepted {
                    prop_assert_eq!(outcome, None);
                } else {
                    prop_assert_eq!(&outcome, &refused);
                }
            }
        }
    }
}
