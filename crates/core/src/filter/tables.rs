//! The assembled L1 → L2 classification pipeline.

use super::action::SecurityAction;
use super::compiled::CompiledFilter;
use super::rule::{FieldMask, L1Decision, L1Rule, L2Rule, MatchFields};
use ccai_pcie::TlpHeader;
use ccai_sim::snapshot::{Decoder, Encoder, SnapshotError, SnapshotState};
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
}

ccai_sim::snapshot_state!(FilterStats {
    l1_blocked,
    l2_blocked,
    crypt_protected,
    write_protected,
    passed,
});

ccai_sim::snapshot_state!(enum L1Decision: "L1 decision code" { ToL2 = 0, ExecuteA1 = 1 });

ccai_sim::snapshot_state!(L1Rule { mask, fields, decision });

ccai_sim::snapshot_state!(L2Rule { mask, fields, action });

/// One bit per masked field, `pkt_type` lowest.
impl SnapshotState for FieldMask {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.u8(
            u8::from(self.pkt_type)
                | u8::from(self.requester) << 1
                | u8::from(self.completer) << 2
                | u8::from(self.address) << 3
                | u8::from(self.msg_code) << 4,
        );
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let bits = dec.u8()?;
        if bits & !0x1F != 0 {
            return Err(SnapshotError::Invalid("field mask bits"));
        }
        Ok(FieldMask {
            pkt_type: bits & 1 != 0,
            requester: bits & 2 != 0,
            completer: bits & 4 != 0,
            address: bits & 8 != 0,
            msg_code: bits & 16 != 0,
        })
    }
}

// Full fidelity, unlike the 32-byte policy-blob rows (which zero unmasked
// fields): every field survives even when its mask bit is off, so a
// restored filter is structurally identical to the snapshotted one.
ccai_sim::snapshot_state!(MatchFields { pkt_type, requester, completer, address, msg_code });

/// The policy blob's action code.
impl SnapshotState for SecurityAction {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.u8(self.to_code());
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        SecurityAction::from_code(dec.u8()?).ok_or(SnapshotError::Invalid("L2 action code"))
    }
}

/// The rule tables and statistics; the dispatch tree is recompiled on
/// restore.
impl SnapshotState for PacketFilter {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.put(&self.l1);
        enc.put(&self.l2);
        enc.put(&self.stats);
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let (l1, l2, stats) = dec.get()?;
        let mut filter = PacketFilter::new();
        filter.replace_tables(l1, l2);
        filter.stats = stats;
        Ok(filter)
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
