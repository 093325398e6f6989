//! Differential property suite for the precompiled filter matcher.
//!
//! The Packet Filter classifies through a dispatch tree compiled from the
//! L1/L2 tables; the pre-refactor row-by-row scan survives as
//! `classify_scan` (the `scan-oracle` feature). These properties pit the
//! two paths against each other on randomized rule tables with
//! overlapping masks, dead rows, and catch-alls — first-hit
//! insertion-order semantics must be
//! preserved bit-for-bit, stats accounting included — and prove the
//! matcher is rebuilt on every install path (`push_l1` / `push_l2` /
//! `replace_tables`), never left stale. The fixed fleet-scale table and
//! flood that `bench_crypto` times are held to the same agreement.

use ccai_core::filter::{
    FieldMask, L1Decision, L1Rule, L2Rule, MatchFields, PacketFilter, SecurityAction,
};
use ccai_bench::filter_flood::{fleet_filter, flood};
use ccai_pcie::{Bdf, Tlp, TlpType};
use proptest::prelude::*;
use std::ops::Range;

/// BDFs from a deliberately tiny pool so rules and probes collide often.
fn arb_bdf() -> impl Strategy<Value = Bdf> {
    (0u8..3, 0u8..3, 0u8..2).prop_map(|(b, d, f)| Bdf::new(b, d, f))
}

/// Packet types a header constructor can actually produce.
fn arb_tlp_type() -> impl Strategy<Value = TlpType> {
    prop_oneof![
        Just(TlpType::MemRead),
        Just(TlpType::MemWrite),
        Just(TlpType::CfgRead),
        Just(TlpType::CfgWrite),
        Just(TlpType::CompletionData),
        Just(TlpType::Message),
    ]
}

/// Small, heavily-overlapping address ranges.
fn arb_range() -> impl Strategy<Value = Range<u64>> {
    (0u64..16, 1u64..16).prop_map(|(start, len)| (start * 0x400)..((start + len) * 0x400))
}

/// Every mask combination, including masks whose fields turn out to be
/// `None` (dead rules the compiler must drop, not mismatch).
fn arb_mask() -> impl Strategy<Value = FieldMask> {
    (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()).prop_map(
        |(pkt_type, requester, completer, address, msg_code)| FieldMask {
            pkt_type,
            requester,
            completer,
            address,
            msg_code,
        },
    )
}

fn arb_fields() -> impl Strategy<Value = MatchFields> {
    (
        prop_oneof![Just(None), arb_tlp_type().prop_map(Some)],
        prop_oneof![Just(None), arb_bdf().prop_map(Some)],
        prop_oneof![Just(None), arb_bdf().prop_map(Some)],
        prop_oneof![Just(None), arb_range().prop_map(Some)],
        prop_oneof![Just(None), (0u8..4).prop_map(|c| Some(0x20 + c))],
    )
        .prop_map(|(pkt_type, requester, completer, address, msg_code)| MatchFields {
            pkt_type,
            requester,
            completer,
            address,
            msg_code,
        })
}

fn arb_l1_rule() -> impl Strategy<Value = L1Rule> {
    (arb_mask(), arb_fields(), any::<bool>()).prop_map(|(mask, fields, admit)| L1Rule {
        mask,
        fields,
        decision: if admit { L1Decision::ToL2 } else { L1Decision::ExecuteA1 },
    })
}

fn arb_l2_rule() -> impl Strategy<Value = L2Rule> {
    (arb_mask(), arb_fields(), 0u8..3).prop_map(|(mask, fields, action)| L2Rule {
        mask,
        fields,
        action: match action {
            0 => SecurityAction::CryptProtect,
            1 => SecurityAction::WriteProtect,
            _ => SecurityAction::PassThrough,
        },
    })
}

/// Probe headers drawn from the same small BDF/address pools as the
/// rules, so most probes exercise real (partial) matches.
fn arb_probe() -> impl Strategy<Value = Tlp> {
    prop_oneof![
        (arb_bdf(), 0u64..0x8000).prop_map(|(bdf, addr)| Tlp::memory_write(bdf, addr, vec![1])),
        (arb_bdf(), 0u64..0x8000, any::<u8>())
            .prop_map(|(bdf, addr, tag)| Tlp::memory_read(bdf, addr, 4, tag)),
        (arb_bdf(), arb_bdf()).prop_map(|(req, cpl)| Tlp::config_read(req, cpl, 0, 0)),
        (arb_bdf(), 0u8..6).prop_map(|(bdf, c)| Tlp::message(bdf, 0x20 + c)),
        (arb_bdf(), arb_bdf(), any::<u8>())
            .prop_map(|(cpl, req, tag)| Tlp::completion_with_data(cpl, req, tag, vec![0; 4])),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline differential: for any table and any probe stream,
    /// the compiled tree and the linear scan agree on every action AND
    /// on the accumulated statistics.
    #[test]
    fn compiled_matcher_equals_linear_scan(
        l1 in proptest::collection::vec(arb_l1_rule(), 0..12),
        l2 in proptest::collection::vec(arb_l2_rule(), 0..16),
        probes in proptest::collection::vec(arb_probe(), 1..48),
    ) {
        let mut fast = PacketFilter::new();
        fast.replace_tables(l1, l2);
        let mut oracle = fast.clone();
        for tlp in &probes {
            prop_assert_eq!(
                fast.classify(tlp.header()),
                oracle.classify_scan(tlp.header()),
                "paths diverge on {}",
                tlp
            );
        }
        prop_assert_eq!(fast.stats(), oracle.stats(), "stats accounting diverges");
    }

    /// First-hit insertion order: prepending a catch-all must shadow
    /// every later rule on both paths identically.
    #[test]
    fn catch_all_shadows_later_rules_on_both_paths(
        l1 in proptest::collection::vec(arb_l1_rule(), 1..8),
        l2 in proptest::collection::vec(arb_l2_rule(), 1..8),
        probes in proptest::collection::vec(arb_probe(), 1..24),
    ) {
        let mut l1_shadowed = vec![L1Rule {
            mask: FieldMask::none(),
            fields: MatchFields::any(),
            decision: L1Decision::ToL2,
        }];
        l1_shadowed.extend(l1);
        let mut l2_shadowed = vec![L2Rule {
            mask: FieldMask::none(),
            fields: MatchFields::any(),
            action: SecurityAction::WriteProtect,
        }];
        l2_shadowed.extend(l2);
        let mut fast = PacketFilter::new();
        fast.replace_tables(l1_shadowed, l2_shadowed);
        let mut oracle = fast.clone();
        for tlp in &probes {
            // Index-0 wildcards win at both levels, so everything is
            // admitted and write-protected — on both paths.
            prop_assert_eq!(fast.classify(tlp.header()), SecurityAction::WriteProtect);
            prop_assert_eq!(oracle.classify_scan(tlp.header()), SecurityAction::WriteProtect);
        }
    }

    /// Rebuild-on-install invariant: after EVERY incremental `push_l1` /
    /// `push_l2`, the compiled tree already reflects the new row. A
    /// matcher compiled once and left stale fails this immediately.
    #[test]
    fn matcher_recompiles_on_every_install(
        l1 in proptest::collection::vec(arb_l1_rule(), 1..6),
        l2 in proptest::collection::vec(arb_l2_rule(), 1..6),
        probes in proptest::collection::vec(arb_probe(), 1..12),
    ) {
        let mut fast = PacketFilter::new();
        let mut oracle = PacketFilter::new();
        // Interleave L1 and L2 installs the way the MMIO config path
        // does, checking equivalence after each step.
        let steps = l1.len().max(l2.len());
        for i in 0..steps {
            if let Some(rule) = l1.get(i) {
                fast.push_l1(rule.clone());
                oracle.push_l1(rule.clone());
            }
            if let Some(rule) = l2.get(i) {
                fast.push_l2(rule.clone());
                oracle.push_l2(rule.clone());
            }
            for tlp in &probes {
                prop_assert_eq!(
                    fast.classify(tlp.header()),
                    oracle.classify_scan(tlp.header()),
                    "stale matcher after install step {}: {}",
                    i,
                    tlp
                );
            }
        }
        prop_assert_eq!(fast.stats(), oracle.stats());
    }

    /// `replace_tables` (the dynamic-configuration path) recompiles: a
    /// filter whose tables were swapped wholesale classifies exactly
    /// like one built by incremental installs of the same rows.
    #[test]
    fn replace_tables_equals_incremental_installs(
        old_l1 in proptest::collection::vec(arb_l1_rule(), 0..6),
        old_l2 in proptest::collection::vec(arb_l2_rule(), 0..6),
        new_l1 in proptest::collection::vec(arb_l1_rule(), 0..8),
        new_l2 in proptest::collection::vec(arb_l2_rule(), 0..8),
        probes in proptest::collection::vec(arb_probe(), 1..24),
    ) {
        let mut swapped = PacketFilter::new();
        swapped.replace_tables(old_l1, old_l2);
        swapped.replace_tables(new_l1.clone(), new_l2.clone());
        let mut incremental = PacketFilter::new();
        for rule in new_l1 {
            incremental.push_l1(rule);
        }
        for rule in new_l2 {
            incremental.push_l2(rule);
        }
        for tlp in &probes {
            prop_assert_eq!(
                swapped.classify(tlp.header()),
                incremental.classify(tlp.header()),
                "replace_tables left a stale tree: {}",
                tlp
            );
        }
    }

    /// Dead rows — masks selecting fields the rule never provides — are
    /// unmatchable on the scan, so the compiler drops them; interleaving
    /// them anywhere in the table must not perturb either path.
    #[test]
    fn dead_rules_never_change_classification(
        l1 in proptest::collection::vec(arb_l1_rule(), 1..6),
        l2 in proptest::collection::vec(arb_l2_rule(), 1..6),
        probes in proptest::collection::vec(arb_probe(), 1..24),
        dead_slot in any::<prop::sample::Index>(),
    ) {
        let dead_l1 = L1Rule {
            // Requester masked but no requester given: matches nothing.
            mask: FieldMask { requester: true, ..FieldMask::none() },
            fields: MatchFields::any(),
            decision: L1Decision::ExecuteA1,
        };
        let dead_l2 = L2Rule {
            mask: FieldMask { address: true, ..FieldMask::none() },
            fields: MatchFields::any(),
            action: SecurityAction::PassThrough,
        };
        let mut with_dead_l1 = l1.clone();
        with_dead_l1.insert(dead_slot.index(l1.len() + 1), dead_l1);
        let mut with_dead_l2 = l2.clone();
        with_dead_l2.insert(dead_slot.index(l2.len() + 1), dead_l2);

        let mut plain = PacketFilter::new();
        plain.replace_tables(l1, l2);
        let mut with_dead = PacketFilter::new();
        with_dead.replace_tables(with_dead_l1, with_dead_l2);
        let mut with_dead_oracle = with_dead.clone();
        for tlp in &probes {
            let expected = plain.classify(tlp.header());
            prop_assert_eq!(with_dead.classify(tlp.header()), expected, "{}", tlp);
            prop_assert_eq!(with_dead_oracle.classify_scan(tlp.header()), expected, "{}", tlp);
        }
    }
}

/// The fleet-scale table and mixed flood that `bench_crypto` times: both
/// paths classify every packet alike and keep identical stats, and the
/// flood reaches every stats class, so no path goes untested.
#[test]
fn fleet_flood_classifies_alike_on_both_paths() {
    let mut compiled = fleet_filter();
    let mut scan = fleet_filter();
    for tlp in &flood() {
        assert_eq!(
            compiled.classify(tlp.header()),
            scan.classify_scan(tlp.header()),
            "the flood must classify identically on both paths: {tlp}"
        );
    }
    let stats = compiled.stats();
    assert_eq!(stats, scan.stats());
    for (class, count) in [
        ("l1_blocked", stats.l1_blocked),
        ("l2_blocked", stats.l2_blocked),
        ("crypt_protected", stats.crypt_protected),
        ("write_protected", stats.write_protected),
        ("passed", stats.passed),
    ] {
        assert!(count > 0, "the flood never reaches {class}: {stats:?}");
    }
}
