//! Precompiled first-hit matcher over the L1/L2 tables.
//!
//! The reference semantics are a linear scan in insertion order
//! ([`super::rule::MatchFields::matches`] row by row, first hit wins).
//! That is O(rules) per packet — fine for Fig. 5-sized tables, a
//! throughput ceiling at fleet scale. This module compiles the installed
//! tables into a two-level dispatch tree keyed on the only fields a rule
//! can test with equality semantics cheaply — packet type and requester
//! BDF — so classification touches just the handful of rules that could
//! possibly match a given header, in their original insertion order.
//!
//! Compilation must be *bit-for-bit equivalent* to the scan, including
//! its quirks:
//!
//! * a rule whose mask selects a field the rule carries no value for
//!   (`mask.x && fields.x.is_none()`) can never match — it is dropped at
//!   compile time;
//! * a masked completer/address/msg-code test fails when the *header*
//!   lacks the field (a Message TLP has no address);
//! * unmasked fields are ignored entirely, so `FieldMask::none()` rows
//!   are catch-alls;
//! * among candidate buckets, the *lowest original rule index* that
//!   matches wins — exactly the scan's first-hit order.
//!
//! The scan itself stays available behind the `scan-oracle` feature (and
//! in unit tests) as a differential oracle.

use super::action::SecurityAction;
use super::rule::{FieldMask, L1Decision, L1Rule, MatchFields, L2Rule};
use ccai_pcie::{Bdf, TlpHeader, TlpType};
use ccai_sim::DetHashMap;
use std::ops::Range;

/// Dense index of a [`TlpType`] for bucket keys.
fn type_key(t: TlpType) -> u8 {
    match t {
        TlpType::MemRead => 0,
        TlpType::MemWrite => 1,
        TlpType::IoRead => 2,
        TlpType::IoWrite => 3,
        TlpType::CfgRead => 4,
        TlpType::CfgWrite => 5,
        TlpType::Completion => 6,
        TlpType::CompletionData => 7,
        TlpType::Message => 8,
    }
}

/// One rule with its indexed fields stripped: only the residual masked
/// tests (completer / address / msg-code) remain, `None` meaning "not
/// masked, don't test".
#[derive(Debug, Clone)]
struct CompiledRule<T> {
    /// Position in the source table — the first-hit tiebreaker.
    index: u32,
    completer: Option<Bdf>,
    address: Option<Range<u64>>,
    msg_code: Option<u8>,
    payload: T,
}

impl<T: Copy> CompiledRule<T> {
    fn residual_matches(&self, header: &TlpHeader) -> bool {
        if let Some(want) = self.completer {
            if header.completer() != Some(want) {
                return false;
            }
        }
        if let Some(range) = &self.address {
            match header.address() {
                Some(addr) if range.contains(&addr) => {}
                _ => return false,
            }
        }
        if let Some(code) = self.msg_code {
            if header.message_code() != Some(code) {
                return false;
            }
        }
        true
    }
}

/// The dispatch tree for one table (L1 or L2). Rules fall into four
/// buckets depending on which of the two indexed fields their mask
/// selects; a header probes at most four candidate lists.
#[derive(Debug, Clone)]
struct Dispatch<T> {
    /// `mask.pkt_type && mask.requester`.
    by_type_req: DetHashMap<(u8, u16), Vec<CompiledRule<T>>>,
    /// `mask.pkt_type` only.
    by_type: DetHashMap<u8, Vec<CompiledRule<T>>>,
    /// `mask.requester` only.
    by_req: DetHashMap<u16, Vec<CompiledRule<T>>>,
    /// Neither indexed field masked (catch-alls and residual-only rules).
    wildcard: Vec<CompiledRule<T>>,
}

impl<T> Default for Dispatch<T> {
    fn default() -> Self {
        Dispatch {
            by_type_req: DetHashMap::default(),
            by_type: DetHashMap::default(),
            by_req: DetHashMap::default(),
            wildcard: Vec::new(),
        }
    }
}

impl<T: Copy> Dispatch<T> {
    fn compile<'a>(
        rows: impl Iterator<Item = (&'a FieldMask, &'a MatchFields, T)>,
    ) -> Dispatch<T>
    where
        T: 'a,
    {
        let mut dispatch = Dispatch::default();
        for (index, (mask, fields, payload)) in rows.enumerate() {
            // A mask selecting a field the rule carries no value for can
            // never match any header; the scan agrees, so drop it here.
            if (mask.pkt_type && fields.pkt_type.is_none())
                || (mask.requester && fields.requester.is_none())
                || (mask.completer && fields.completer.is_none())
                || (mask.address && fields.address.is_none())
                || (mask.msg_code && fields.msg_code.is_none())
            {
                continue;
            }
            let rule = CompiledRule {
                index: index as u32,
                completer: mask.completer.then(|| fields.completer.expect("checked")),
                address: mask
                    .address
                    .then(|| fields.address.clone().expect("checked")),
                msg_code: mask.msg_code.then(|| fields.msg_code.expect("checked")),
                payload,
            };
            match (mask.pkt_type, mask.requester) {
                (true, true) => {
                    let key = (
                        type_key(fields.pkt_type.expect("checked")),
                        fields.requester.expect("checked").to_u16(),
                    );
                    dispatch.by_type_req.entry(key).or_default().push(rule);
                }
                (true, false) => {
                    let key = type_key(fields.pkt_type.expect("checked"));
                    dispatch.by_type.entry(key).or_default().push(rule);
                }
                (false, true) => {
                    let key = fields.requester.expect("checked").to_u16();
                    dispatch.by_req.entry(key).or_default().push(rule);
                }
                (false, false) => dispatch.wildcard.push(rule),
            }
        }
        dispatch
    }

    /// First matching rule's payload in original-table order, if any.
    fn first_hit(&self, header: &TlpHeader) -> Option<T> {
        let tk = type_key(header.tlp_type());
        let rk = header.requester().to_u16();
        let mut best: Option<(u32, T)> = None;
        let candidates = [
            self.by_type_req.get(&(tk, rk)),
            self.by_type.get(&tk),
            self.by_req.get(&rk),
            Some(&self.wildcard),
        ];
        for list in candidates.into_iter().flatten() {
            // Each bucket is in insertion order, so the first residual
            // match is the bucket's earliest hit; prune once past the
            // best index found so far.
            for rule in list {
                if best.is_some_and(|(bi, _)| rule.index >= bi) {
                    break;
                }
                if rule.residual_matches(header) {
                    best = Some((rule.index, rule.payload));
                    break;
                }
            }
        }
        best.map(|(_, payload)| payload)
    }
}

/// Both tables, compiled. Rebuilt by [`super::PacketFilter`] on every
/// rule install (`push_l1` / `push_l2` / `replace_tables`).
#[derive(Debug, Clone, Default)]
pub(super) struct CompiledFilter {
    l1: Dispatch<L1Decision>,
    l2: Dispatch<SecurityAction>,
}

impl CompiledFilter {
    /// Compiles the current tables.
    pub(super) fn compile(l1: &[L1Rule], l2: &[L2Rule]) -> CompiledFilter {
        CompiledFilter {
            l1: Dispatch::compile(l1.iter().map(|r| (&r.mask, &r.fields, r.decision))),
            l2: Dispatch::compile(l2.iter().map(|r| (&r.mask, &r.fields, r.action))),
        }
    }

    /// First-hit L1 decision, mirroring the linear scan.
    pub(super) fn l1_decision(&self, header: &TlpHeader) -> Option<L1Decision> {
        self.l1.first_hit(header)
    }

    /// First-hit L2 action, mirroring the linear scan.
    pub(super) fn l2_action(&self, header: &TlpHeader) -> Option<SecurityAction> {
        self.l2.first_hit(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_pcie::Tlp;

    fn tvm() -> Bdf {
        Bdf::new(0, 2, 0)
    }

    fn dead_rule() -> L1Rule {
        // Mask selects the requester but the rule carries no value: the
        // scan can never match it, so compilation must drop it.
        L1Rule {
            mask: FieldMask { requester: true, ..FieldMask::none() },
            fields: MatchFields::any(),
            decision: L1Decision::ToL2,
        }
    }

    #[test]
    fn dead_rules_are_dropped_not_matched() {
        let compiled = CompiledFilter::compile(&[dead_rule()], &[]);
        let tlp = Tlp::memory_write(tvm(), 0x1000, vec![1]);
        assert_eq!(compiled.l1_decision(tlp.header()), None);
    }

    #[test]
    fn catch_all_rule_lands_in_wildcard_bucket() {
        let compiled = CompiledFilter::compile(&[L1Rule::default_deny()], &[]);
        for tlp in [
            Tlp::memory_write(tvm(), 0, vec![1]),
            Tlp::message(tvm(), 0x20),
            Tlp::config_read(tvm(), Bdf::new(1, 0, 0), 0, 0),
        ] {
            assert_eq!(
                compiled.l1_decision(tlp.header()),
                Some(L1Decision::ExecuteA1)
            );
        }
    }

    #[test]
    fn earliest_index_wins_across_buckets() {
        // Rule 0 is a catch-all (wildcard bucket); rule 1 is an exact
        // (type, requester) admit. The scan hits rule 0 first; the
        // compiled matcher must agree even though rule 1 sits in the more
        // specific bucket.
        let l1 = vec![L1Rule::default_deny(), L1Rule::admit(TlpType::MemWrite, tvm())];
        let compiled = CompiledFilter::compile(&l1, &[]);
        let tlp = Tlp::memory_write(tvm(), 0x1000, vec![1]);
        assert_eq!(
            compiled.l1_decision(tlp.header()),
            Some(L1Decision::ExecuteA1)
        );
    }

    #[test]
    fn masked_address_fails_for_addressless_headers() {
        let l2 = vec![L2Rule::for_range(
            TlpType::Message,
            tvm(),
            0..u64::MAX,
            SecurityAction::PassThrough,
        )];
        let compiled = CompiledFilter::compile(&[], &l2);
        let msg = Tlp::message(tvm(), 0x20);
        assert_eq!(compiled.l2_action(msg.header()), None);
    }
}
