//! The assembled L1 → L2 classification pipeline.

use super::action::SecurityAction;
use super::compiled::CompiledFilter;
use super::rule::{L1Decision, L1Rule, L2Rule};
use ccai_pcie::TlpHeader;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Classification statistics for the security analysis and perf model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FilterStats {
    /// Packets dropped at L1.
    pub l1_blocked: u64,
    /// Packets dropped by an L2 miss.
    pub l2_blocked: u64,
    /// Packets classified A2.
    pub crypt_protected: u64,
    /// Packets classified A3.
    pub write_protected: u64,
    /// Packets classified A4.
    pub passed: u64,
}

impl FilterStats {
    /// Total packets blocked at either level.
    pub fn blocked(&self) -> u64 {
        self.l1_blocked + self.l2_blocked
    }

    /// Total packets classified.
    pub fn total(&self) -> u64 {
        self.blocked() + self.crypt_protected + self.write_protected + self.passed
    }
}

/// The two-level packet filter.
///
/// # Example
///
/// ```
/// use ccai_core::filter::{L1Rule, L2Rule, PacketFilter, SecurityAction};
/// use ccai_pcie::{Bdf, Tlp, TlpType};
///
/// let tvm = Bdf::new(0, 2, 0);
/// let mut filter = PacketFilter::new();
/// filter.push_l1(L1Rule::admit(TlpType::MemWrite, tvm));
/// filter.push_l2(L2Rule::for_range(
///     TlpType::MemWrite, tvm, 0x1000..0x5000, SecurityAction::CryptProtect,
/// ));
///
/// let sensitive = Tlp::memory_write(tvm, 0x1000, vec![0; 16]);
/// assert_eq!(filter.classify(sensitive.header()), SecurityAction::CryptProtect);
///
/// let rogue = Tlp::memory_write(Bdf::new(9, 9, 0), 0x1000, vec![0; 16]);
/// assert_eq!(filter.classify(rogue.header()), SecurityAction::Disallow);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PacketFilter {
    l1: Vec<L1Rule>,
    l2: Vec<L2Rule>,
    /// Dispatch tree compiled from `l1`/`l2`; rebuilt on every rule
    /// install so `classify` never consults the row-by-row tables.
    #[serde(skip)]
    compiled: CompiledFilter,
    #[serde(skip)]
    stats: FilterStats,
}

impl PacketFilter {
    /// An empty filter (deny-everything until rules are installed).
    pub fn new() -> Self {
        PacketFilter::default()
    }

    /// Appends an L1 rule (rules match in insertion order; first hit
    /// wins) and recompiles the matcher.
    pub fn push_l1(&mut self, rule: L1Rule) {
        self.l1.push(rule);
        self.recompile();
    }

    /// Appends an L2 rule (first hit wins) and recompiles the matcher.
    pub fn push_l2(&mut self, rule: L2Rule) {
        self.l2.push(rule);
        self.recompile();
    }

    fn recompile(&mut self) {
        self.compiled = CompiledFilter::compile(&self.l1, &self.l2);
    }

    /// Number of installed rules `(l1, l2)`.
    pub fn rule_counts(&self) -> (usize, usize) {
        (self.l1.len(), self.l2.len())
    }

    /// Replaces both tables atomically (the dynamic-configuration path).
    pub fn replace_tables(&mut self, l1: Vec<L1Rule>, l2: Vec<L2Rule>) {
        self.l1 = l1;
        self.l2 = l2;
        self.recompile();
    }

    /// Borrow the current tables (for serialization into a policy blob).
    pub fn tables(&self) -> (&[L1Rule], &[L2Rule]) {
        (&self.l1, &self.l2)
    }

    /// Classifies a packet header into its security action via the
    /// precompiled dispatch tree.
    ///
    /// Misses at either level yield [`SecurityAction::Disallow`]: an
    /// unknown packet is a prohibited packet.
    pub fn classify(&mut self, header: &TlpHeader) -> SecurityAction {
        // L1: masked prefilter.
        match self.compiled.l1_decision(header) {
            Some(L1Decision::ToL2) => {}
            Some(L1Decision::ExecuteA1) | None => {
                self.stats.l1_blocked += 1;
                return SecurityAction::Disallow;
            }
        }
        // L2: action selection.
        self.count_l2(self.compiled.l2_action(header))
    }

    /// Classifies via the pre-refactor row-by-row linear scan.
    ///
    /// This is the differential oracle for the compiled matcher:
    /// available to unit tests always and
    /// to external harnesses behind the `scan-oracle` feature, so the
    /// property suite and the datapath benchmark can compare both paths
    /// through identical stats accounting.
    #[cfg(any(test, feature = "scan-oracle"))]
    pub fn classify_scan(&mut self, header: &TlpHeader) -> SecurityAction {
        // L1: masked prefilter.
        let admitted = self.l1.iter().find_map(|rule| {
            rule.fields
                .matches(rule.mask, header)
                .then_some(rule.decision)
        });
        match admitted {
            Some(L1Decision::ToL2) => {}
            Some(L1Decision::ExecuteA1) | None => {
                self.stats.l1_blocked += 1;
                return SecurityAction::Disallow;
            }
        }
        // L2: action selection.
        let action = self
            .l2
            .iter()
            .find(|rule| rule.fields.matches(rule.mask, header))
            .map(|rule| rule.action);
        self.count_l2(action)
    }

    /// Shared L2 stats accounting for both classification paths.
    fn count_l2(&mut self, action: Option<SecurityAction>) -> SecurityAction {
        match action {
            Some(SecurityAction::CryptProtect) => {
                self.stats.crypt_protected += 1;
                SecurityAction::CryptProtect
            }
            Some(SecurityAction::WriteProtect) => {
                self.stats.write_protected += 1;
                SecurityAction::WriteProtect
            }
            Some(SecurityAction::PassThrough) => {
                self.stats.passed += 1;
                SecurityAction::PassThrough
            }
            Some(SecurityAction::Disallow) | None => {
                self.stats.l2_blocked += 1;
                SecurityAction::Disallow
            }
        }
    }

    /// Classification statistics.
    pub fn stats(&self) -> FilterStats {
        self.stats
    }

    /// Resets statistics (not rules).
    pub fn reset_stats(&mut self) {
        self.stats = FilterStats::default();
    }

    /// Serializes the rule tables and statistics.
    ///
    /// Unlike the 32-byte policy-blob wire format (which zeroes unmasked
    /// fields), this codec is full-fidelity: every `Option` field survives
    /// the round trip even when its mask bit is off, so a restored filter
    /// is structurally identical to the snapshotted one.
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        fn mask_bits(mask: super::rule::FieldMask) -> u8 {
            (mask.pkt_type as u8)
                | (mask.requester as u8) << 1
                | (mask.completer as u8) << 2
                | (mask.address as u8) << 3
                | (mask.msg_code as u8) << 4
        }
        fn fields(enc: &mut ccai_sim::snapshot::Encoder, f: &super::rule::MatchFields) {
            enc.u8(super::config::tlp_type_code(f.pkt_type));
            enc.bool(f.requester.is_some());
            enc.u16(f.requester.map_or(0, ccai_pcie::Bdf::to_u16));
            enc.bool(f.completer.is_some());
            enc.u16(f.completer.map_or(0, ccai_pcie::Bdf::to_u16));
            enc.bool(f.address.is_some());
            let range = f.address.clone().unwrap_or(0..0);
            enc.u64(range.start);
            enc.u64(range.end);
            enc.bool(f.msg_code.is_some());
            enc.u8(f.msg_code.unwrap_or(0));
        }
        enc.u64(self.l1.len() as u64);
        for rule in &self.l1 {
            enc.u8(mask_bits(rule.mask));
            fields(enc, &rule.fields);
            enc.u8(match rule.decision {
                L1Decision::ToL2 => 0,
                L1Decision::ExecuteA1 => 1,
            });
        }
        enc.u64(self.l2.len() as u64);
        for rule in &self.l2 {
            enc.u8(mask_bits(rule.mask));
            fields(enc, &rule.fields);
            enc.u8(rule.action.to_code());
        }
        enc.u64(self.stats.l1_blocked);
        enc.u64(self.stats.l2_blocked);
        enc.u64(self.stats.crypt_protected);
        enc.u64(self.stats.write_protected);
        enc.u64(self.stats.passed);
    }

    /// Restores the filter (rules, recompiled matcher, statistics) from a
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Any [`ccai_sim::SnapshotError`] for truncated input or an
    /// out-of-range type/action/decision code.
    pub fn restore_snapshot(
        &mut self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::SnapshotError> {
        use ccai_sim::SnapshotError;
        fn mask(bits: u8) -> Result<super::rule::FieldMask, SnapshotError> {
            if bits & !0x1F != 0 {
                return Err(SnapshotError::Invalid("field mask bits"));
            }
            Ok(super::rule::FieldMask {
                pkt_type: bits & 1 != 0,
                requester: bits & 2 != 0,
                completer: bits & 4 != 0,
                address: bits & 8 != 0,
                msg_code: bits & 16 != 0,
            })
        }
        fn fields(
            dec: &mut ccai_sim::snapshot::Decoder<'_>,
        ) -> Result<super::rule::MatchFields, SnapshotError> {
            let pkt_type = super::config::tlp_type_from_code(dec.u8()?)
                .map_err(|_| SnapshotError::Invalid("packet type code"))?;
            let has_requester = dec.bool()?;
            let requester = dec.u16()?;
            let has_completer = dec.bool()?;
            let completer = dec.u16()?;
            let has_address = dec.bool()?;
            let start = dec.u64()?;
            let end = dec.u64()?;
            let has_msg_code = dec.bool()?;
            let msg_code = dec.u8()?;
            Ok(super::rule::MatchFields {
                pkt_type,
                requester: has_requester.then(|| ccai_pcie::Bdf::from_u16(requester)),
                completer: has_completer.then(|| ccai_pcie::Bdf::from_u16(completer)),
                address: has_address.then_some(start..end),
                msg_code: has_msg_code.then_some(msg_code),
            })
        }
        let l1_len = dec.seq_len()?;
        let mut l1 = Vec::with_capacity(l1_len);
        for _ in 0..l1_len {
            let mask = mask(dec.u8()?)?;
            let fields = fields(dec)?;
            let decision = match dec.u8()? {
                0 => L1Decision::ToL2,
                1 => L1Decision::ExecuteA1,
                _ => return Err(SnapshotError::Invalid("L1 decision code")),
            };
            l1.push(L1Rule { mask, fields, decision });
        }
        let l2_len = dec.seq_len()?;
        let mut l2 = Vec::with_capacity(l2_len);
        for _ in 0..l2_len {
            let mask = mask(dec.u8()?)?;
            let fields = fields(dec)?;
            let action = SecurityAction::from_code(dec.u8()?)
                .ok_or(SnapshotError::Invalid("L2 action code"))?;
            l2.push(L2Rule { mask, fields, action });
        }
        let stats = FilterStats {
            l1_blocked: dec.u64()?,
            l2_blocked: dec.u64()?,
            crypt_protected: dec.u64()?,
            write_protected: dec.u64()?,
            passed: dec.u64()?,
        };
        self.replace_tables(l1, l2);
        self.stats = stats;
        Ok(())
    }
}

impl fmt::Display for PacketFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "PacketFilter(l1={}, l2={}, blocked={}, classified={})",
            self.l1.len(),
            self.l2.len(),
            self.stats.blocked(),
            self.stats.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_pcie::{Bdf, Tlp, TlpType};

    fn tvm() -> Bdf {
        Bdf::new(0, 2, 0)
    }

    fn xpu() -> Bdf {
        Bdf::new(0x17, 0, 0)
    }

    fn rogue() -> Bdf {
        Bdf::new(9, 9, 0)
    }

    /// The Fig. 5 scenario: admit TVM memory traffic, then classify by
    /// address sensitivity.
    fn fig5_filter() -> PacketFilter {
        let mut filter = PacketFilter::new();
        filter.push_l1(L1Rule::admit(TlpType::MemWrite, tvm()));
        filter.push_l1(L1Rule::admit(TlpType::MemRead, tvm()));
        filter.push_l1(L1Rule::admit(TlpType::MemRead, xpu()));
        // L2, mirroring Fig. 5 ②:
        filter.push_l2(L2Rule::for_range(
            TlpType::MemWrite,
            tvm(),
            0x6000..0x7000, // command region on ccAI HW
            SecurityAction::CryptProtect,
        ));
        filter.push_l2(L2Rule::for_range(
            TlpType::MemWrite,
            tvm(),
            0x8000..0x9000, // xPU control registers
            SecurityAction::WriteProtect,
        ));
        filter.push_l2(L2Rule::for_range(
            TlpType::MemWrite,
            tvm(),
            0x1000..0x5000, // data bounce buffer
            SecurityAction::CryptProtect,
        ));
        filter.push_l2(L2Rule::for_range(
            TlpType::MemRead,
            tvm(),
            0x1000..0x5000,
            SecurityAction::PassThrough,
        ));
        filter
    }

    #[test]
    fn fig5_classification() {
        let mut filter = fig5_filter();
        let cases = [
            (Tlp::memory_write(tvm(), 0x6800, vec![1]), SecurityAction::CryptProtect),
            (Tlp::memory_write(tvm(), 0x8800, vec![1]), SecurityAction::WriteProtect),
            (Tlp::memory_write(tvm(), 0x2000, vec![1]), SecurityAction::CryptProtect),
            (Tlp::memory_read(tvm(), 0x2000, 4, 0), SecurityAction::PassThrough),
        ];
        for (tlp, expected) in cases {
            assert_eq!(filter.classify(tlp.header()), expected, "{tlp}");
        }
    }

    #[test]
    fn unauthorized_requester_blocked_at_l1() {
        let mut filter = fig5_filter();
        let tlp = Tlp::memory_write(rogue(), 0x2000, vec![1]);
        assert_eq!(filter.classify(tlp.header()), SecurityAction::Disallow);
        assert_eq!(filter.stats().l1_blocked, 1);
        assert_eq!(filter.stats().l2_blocked, 0);
    }

    #[test]
    fn l2_miss_blocks_conservatively() {
        let mut filter = fig5_filter();
        // Admitted by L1 (MemWrite from TVM) but no L2 rule covers the
        // address.
        let tlp = Tlp::memory_write(tvm(), 0xF000, vec![1]);
        assert_eq!(filter.classify(tlp.header()), SecurityAction::Disallow);
        assert_eq!(filter.stats().l2_blocked, 1);
    }

    #[test]
    fn empty_filter_denies_everything() {
        let mut filter = PacketFilter::new();
        let tlp = Tlp::memory_write(tvm(), 0, vec![1]);
        assert_eq!(filter.classify(tlp.header()), SecurityAction::Disallow);
    }

    #[test]
    fn first_match_wins() {
        let mut filter = PacketFilter::new();
        filter.push_l1(L1Rule::admit(TlpType::MemWrite, tvm()));
        filter.push_l2(L2Rule::for_range(
            TlpType::MemWrite,
            tvm(),
            0x0000..0x9000,
            SecurityAction::PassThrough,
        ));
        filter.push_l2(L2Rule::for_range(
            TlpType::MemWrite,
            tvm(),
            0x1000..0x5000,
            SecurityAction::CryptProtect,
        ));
        // The broad pass rule shadows the narrower crypt rule.
        let tlp = Tlp::memory_write(tvm(), 0x2000, vec![1]);
        assert_eq!(filter.classify(tlp.header()), SecurityAction::PassThrough);
    }

    #[test]
    fn stats_accumulate() {
        let mut filter = fig5_filter();
        for _ in 0..3 {
            let tlp = Tlp::memory_write(tvm(), 0x2000, vec![1]);
            filter.classify(tlp.header());
        }
        let tlp = Tlp::memory_write(rogue(), 0x2000, vec![1]);
        filter.classify(tlp.header());
        let stats = filter.stats();
        assert_eq!(stats.crypt_protected, 3);
        assert_eq!(stats.l1_blocked, 1);
        assert_eq!(stats.total(), 4);
        filter.reset_stats();
        assert_eq!(filter.stats().total(), 0);
    }

    #[test]
    fn compiled_matcher_agrees_with_scan_on_fig5() {
        let mut fast = fig5_filter();
        let mut oracle = fig5_filter();
        let probes = [
            Tlp::memory_write(tvm(), 0x6800, vec![1]),
            Tlp::memory_write(tvm(), 0x8800, vec![1]),
            Tlp::memory_write(tvm(), 0x2000, vec![1]),
            Tlp::memory_read(tvm(), 0x2000, 4, 0),
            Tlp::memory_write(rogue(), 0x2000, vec![1]),
            Tlp::memory_write(tvm(), 0xF000, vec![1]),
            Tlp::message(xpu(), 0x20),
            Tlp::config_read(tvm(), xpu(), 0, 0),
        ];
        for tlp in probes {
            assert_eq!(
                fast.classify(tlp.header()),
                oracle.classify_scan(tlp.header()),
                "{tlp}"
            );
        }
        assert_eq!(fast.stats(), oracle.stats(), "both paths count identically");
    }

    #[test]
    fn replace_tables_swaps_policy() {
        let mut filter = fig5_filter();
        filter.replace_tables(
            vec![L1Rule::admit(TlpType::Message, xpu())],
            vec![L2Rule::for_type(TlpType::Message, xpu(), SecurityAction::PassThrough)],
        );
        let msg = Tlp::message(xpu(), 0x20);
        assert_eq!(filter.classify(msg.header()), SecurityAction::PassThrough);
        // The old admissions are gone.
        let tlp = Tlp::memory_write(tvm(), 0x2000, vec![1]);
        assert_eq!(filter.classify(tlp.header()), SecurityAction::Disallow);
    }
}
