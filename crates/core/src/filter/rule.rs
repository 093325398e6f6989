//! L1/L2 filter rules with masked attribute matching.
//!
//! The paper adds a **Mask** attribute "to avoid over-engineering (e.g.,
//! preparing all rules for each xPU/TVM) and defend against malicious
//! changes to every packet attribute" — a rule compares only the fields
//! its mask selects.

use super::action::SecurityAction;
use ccai_pcie::{Bdf, TlpHeader, TlpType};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Which header fields a rule compares (the Fig. 5 "Mask" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct FieldMask {
    /// Compare the packet type.
    pub pkt_type: bool,
    /// Compare the requester BDF.
    pub requester: bool,
    /// Compare the completer BDF.
    pub completer: bool,
    /// Compare the address against the rule's range.
    pub address: bool,
    /// Compare the message code (§9 "Customized packets": vendors add
    /// rules for their proprietary message TLPs).
    pub msg_code: bool,
}

impl FieldMask {
    /// Match on packet type + requester (the common L1 mask,
    /// `16'b110...` in Fig. 5).
    pub fn type_and_requester() -> FieldMask {
        FieldMask { pkt_type: true, requester: true, ..FieldMask::default() }
    }

    /// Match nothing — a catch-all rule (`16'b000...`, the L1 default-deny
    /// row).
    pub fn none() -> FieldMask {
        FieldMask::default()
    }
}

/// The attribute values a rule matches against (fields are only consulted
/// when the mask selects them).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchFields {
    /// Expected packet type.
    pub pkt_type: Option<TlpType>,
    /// Expected requester.
    pub requester: Option<Bdf>,
    /// Expected completer.
    pub completer: Option<Bdf>,
    /// Address range the packet must hit.
    pub address: Option<Range<u64>>,
    /// Expected message code (vendor-defined message TLPs).
    pub msg_code: Option<u8>,
}

impl MatchFields {
    /// An empty field set (combine with [`FieldMask::none`]).
    pub fn any() -> MatchFields {
        MatchFields {
            pkt_type: None,
            requester: None,
            completer: None,
            address: None,
            msg_code: None,
        }
    }

    /// True if the header satisfies every masked field.
    pub fn matches(&self, mask: FieldMask, header: &TlpHeader) -> bool {
        if mask.pkt_type && self.pkt_type != Some(header.tlp_type()) {
            return false;
        }
        if mask.requester && self.requester != Some(header.requester()) {
            return false;
        }
        if mask.completer {
            match (&self.completer, header.completer()) {
                (Some(want), Some(have)) if *want == have => {}
                _ => return false,
            }
        }
        if mask.address {
            match (&self.address, header.address()) {
                (Some(range), Some(addr)) if range.contains(&addr) => {}
                _ => return false,
            }
        }
        if mask.msg_code {
            match (self.msg_code, header.message_code()) {
                (Some(want), Some(have)) if want == have => {}
                _ => return false,
            }
        }
        true
    }
}

/// What an L1 rule does on a match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum L1Decision {
    /// Forward the packet to the L2 table for action selection.
    ToL2,
    /// Execute A1: drop the packet.
    ExecuteA1,
}

/// A row of the L1 table: masked match → forward-to-L2 or disallow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L1Rule {
    /// Which fields to compare.
    pub mask: FieldMask,
    /// The expected values.
    pub fields: MatchFields,
    /// Decision on match.
    pub decision: L1Decision,
}

impl L1Rule {
    /// A rule admitting `pkt_type` from `requester` to L2 — the pattern
    /// of Fig. 5 rows 1–2.
    pub fn admit(pkt_type: TlpType, requester: Bdf) -> L1Rule {
        L1Rule {
            mask: FieldMask::type_and_requester(),
            fields: MatchFields {
                pkt_type: Some(pkt_type),
                requester: Some(requester),
                completer: None,
                address: None,
                msg_code: None,
            },
            decision: L1Decision::ToL2,
        }
    }

    /// The catch-all deny rule (Fig. 5 row *n*).
    pub fn default_deny() -> L1Rule {
        L1Rule {
            mask: FieldMask::none(),
            fields: MatchFields::any(),
            decision: L1Decision::ExecuteA1,
        }
    }
}

/// A row of the L2 table: full-attribute match → security action.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L2Rule {
    /// Which fields to compare.
    pub mask: FieldMask,
    /// The expected values.
    pub fields: MatchFields,
    /// The action to execute (never A1; L1 owns disallowing, and an L2
    /// miss disallows conservatively).
    pub action: SecurityAction,
}

impl L2Rule {
    /// Builds an L2 rule comparing type + requester + address range.
    pub fn for_range(
        pkt_type: TlpType,
        requester: Bdf,
        address: Range<u64>,
        action: SecurityAction,
    ) -> L2Rule {
        L2Rule {
            mask: FieldMask {
                pkt_type: true,
                requester: true,
                completer: false,
                address: true,
                msg_code: false,
            },
            fields: MatchFields {
                pkt_type: Some(pkt_type),
                requester: Some(requester),
                completer: None,
                address: Some(address),
                msg_code: None,
            },
            action,
        }
    }

    /// Builds an L2 rule comparing type + requester only.
    pub fn for_type(pkt_type: TlpType, requester: Bdf, action: SecurityAction) -> L2Rule {
        L2Rule {
            mask: FieldMask::type_and_requester(),
            fields: MatchFields {
                pkt_type: Some(pkt_type),
                requester: Some(requester),
                completer: None,
                address: None,
                msg_code: None,
            },
            action,
        }
    }

    /// Builds an L2 rule for a vendor message code (§9 "Customized
    /// packets"): vendors whose proprietary message TLPs need specific
    /// handling add these through the Packet Filter's MMIO registers.
    pub fn for_message_code(requester: Bdf, code: u8, action: SecurityAction) -> L2Rule {
        L2Rule {
            mask: FieldMask {
                pkt_type: true,
                requester: true,
                completer: false,
                address: false,
                msg_code: true,
            },
            fields: MatchFields {
                pkt_type: Some(TlpType::Message),
                requester: Some(requester),
                completer: None,
                address: None,
                msg_code: Some(code),
            },
            action,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_pcie::Tlp;

    fn tvm() -> Bdf {
        Bdf::new(0, 2, 0)
    }

    fn rogue() -> Bdf {
        Bdf::new(9, 9, 0)
    }

    #[test]
    fn masked_fields_are_selective() {
        let rule = L1Rule::admit(TlpType::MemWrite, tvm());
        let good = Tlp::memory_write(tvm(), 0x1000, vec![1]);
        let bad_type = Tlp::memory_read(tvm(), 0x1000, 4, 0);
        let bad_requester = Tlp::memory_write(rogue(), 0x1000, vec![1]);
        assert!(rule.fields.matches(rule.mask, good.header()));
        assert!(!rule.fields.matches(rule.mask, bad_type.header()));
        assert!(!rule.fields.matches(rule.mask, bad_requester.header()));
    }

    #[test]
    fn unmasked_fields_are_ignored() {
        // Same rule, totally different addresses — mask excludes address.
        let rule = L1Rule::admit(TlpType::MemWrite, tvm());
        for addr in [0u64, 0xFFFF_FFFF, 0xDEAD_BEEF_0000] {
            let tlp = Tlp::memory_write(tvm(), addr, vec![1]);
            assert!(rule.fields.matches(rule.mask, tlp.header()), "addr {addr:#x}");
        }
    }

    #[test]
    fn default_deny_matches_everything() {
        let rule = L1Rule::default_deny();
        assert_eq!(rule.decision, L1Decision::ExecuteA1);
        for tlp in [
            Tlp::memory_write(rogue(), 0, vec![1]),
            Tlp::memory_read(tvm(), 0, 4, 0),
            Tlp::message(rogue(), 0x20),
        ] {
            assert!(rule.fields.matches(rule.mask, tlp.header()));
        }
    }

    #[test]
    fn address_range_matching() {
        let rule = L2Rule::for_range(
            TlpType::MemWrite,
            tvm(),
            0x1000..0x5000,
            SecurityAction::CryptProtect,
        );
        let inside = Tlp::memory_write(tvm(), 0x1000, vec![1]);
        let edge = Tlp::memory_write(tvm(), 0x4FFF, vec![1]);
        let outside = Tlp::memory_write(tvm(), 0x5000, vec![1]);
        assert!(rule.fields.matches(rule.mask, inside.header()));
        assert!(rule.fields.matches(rule.mask, edge.header()));
        assert!(!rule.fields.matches(rule.mask, outside.header()));
    }

    #[test]
    fn address_mask_fails_for_addressless_packets() {
        let rule = L2Rule::for_range(
            TlpType::Message,
            tvm(),
            0..u64::MAX,
            SecurityAction::PassThrough,
        );
        let msg = Tlp::message(tvm(), 0x20);
        assert!(
            !rule.fields.matches(rule.mask, msg.header()),
            "messages have no address; an address-masked rule must not match"
        );
    }

    #[test]
    fn message_code_rules_distinguish_vendor_packets() {
        let dev = Bdf::new(0x17, 0, 0);
        let rule = L2Rule::for_message_code(dev, 0x7E, SecurityAction::WriteProtect);
        let pm_msg = Tlp::message(dev, 0x7E);
        let other_msg = Tlp::message(dev, 0x20);
        let non_msg = Tlp::memory_write(dev, 0, vec![1]);
        assert!(rule.fields.matches(rule.mask, pm_msg.header()));
        assert!(!rule.fields.matches(rule.mask, other_msg.header()));
        assert!(!rule.fields.matches(rule.mask, non_msg.header()));
    }

    #[test]
    fn completer_mask() {
        let dev = Bdf::new(0x17, 0, 0);
        let rule = L2Rule {
            mask: FieldMask {
                pkt_type: true,
                requester: false,
                completer: true,
                address: false,
                msg_code: false,
            },
            fields: MatchFields {
                pkt_type: Some(TlpType::CfgRead),
                requester: None,
                completer: Some(dev),
                address: None,
                msg_code: None,
            },
            action: SecurityAction::PassThrough,
        };
        let good = Tlp::config_read(tvm(), dev, 0, 0);
        let bad = Tlp::config_read(tvm(), Bdf::new(1, 0, 0), 0, 0);
        assert!(rule.fields.matches(rule.mask, good.header()));
        assert!(!rule.fields.matches(rule.mask, bad.header()));
    }
}
