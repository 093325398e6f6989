//! The PCIe bus adversary of §2.2 / §8.2.
//!
//! The paper's threat model grants the attacker full access to the exposed
//! PCIe fabric: it can snoop on transmitted packets, tamper with payloads,
//! replay or reorder packets, drop them, and inject forged requests from a
//! rogue requester ID. [`BusAdversary`] implements all of these as a
//! [`crate::fabric::BusTap`] (for passive snooping) plus helper
//! constructors for active attacks that the security tests drive through
//! the fabric.

use crate::fabric::BusTap;
use crate::tlp::{Tlp, TlpType};
use crate::Bdf;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// How the adversary mutates packets it intercepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TamperMode {
    /// Flip one bit in the payload.
    BitFlip {
        /// Byte index (modulo payload length).
        byte: usize,
        /// Bit index 0–7.
        bit: u8,
    },
    /// Overwrite the payload with a constant byte.
    Overwrite(u8),
    /// Truncate the payload to half its length.
    Truncate,
}

impl TamperMode {
    /// Applies the mutation to a data-bearing TLP. Non-data TLPs are
    /// returned unchanged.
    pub fn apply(self, tlp: Tlp) -> Tlp {
        if tlp.payload().is_empty() {
            return tlp;
        }
        let mut payload = tlp.payload().to_vec();
        match self {
            TamperMode::BitFlip { byte, bit } => {
                let idx = byte % payload.len();
                payload[idx] ^= 1 << (bit & 7);
            }
            TamperMode::Overwrite(value) => {
                payload.fill(value);
            }
            TamperMode::Truncate => {
                let keep = (payload.len() / 2).max(1);
                payload.truncate(keep);
            }
        }
        tlp.with_payload(payload)
    }
}

/// Everything the adversary captured from the bus.
#[derive(Debug, Clone, Default)]
pub struct AttackLog {
    /// All observed TLPs with their direction (true = downstream).
    pub observed: Vec<(Tlp, bool)>,
}

impl AttackLog {
    /// Payload bytes of every observed data-bearing TLP, concatenated in
    /// observation order — what a snooper "learned" from the bus.
    pub fn harvested_bytes(&self) -> Vec<u8> {
        self.observed
            .iter()
            .flat_map(|(tlp, _)| tlp.payload().iter().copied())
            .collect()
    }

    /// True if `needle` appears anywhere in the harvested byte stream —
    /// i.e. the secret leaked in plaintext.
    ///
    /// # Panics
    ///
    /// Panics if `needle` is empty.
    pub fn leaked(&self, needle: &[u8]) -> bool {
        assert!(!needle.is_empty(), "empty needle");
        let hay = self.harvested_bytes();
        hay.windows(needle.len()).any(|w| w == needle)
    }

    /// Observed TLPs of a given type.
    pub fn of_type(&self, tlp_type: TlpType) -> Vec<&Tlp> {
        self.observed
            .iter()
            .filter(|(tlp, _)| tlp.header().tlp_type() == tlp_type)
            .map(|(tlp, _)| tlp)
            .collect()
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.observed.len()
    }

    /// True if nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.observed.is_empty()
    }
}

/// A snooping tap on the exposed PCIe segment, with helpers to craft
/// active attacks from what it saw.
///
/// # Example
///
/// ```
/// use ccai_pcie::{BusAdversary, Bdf, Tlp};
///
/// let adversary = BusAdversary::new();
/// let mut fabric = ccai_pcie::Fabric::new(ccai_sim::Telemetry::default());
/// fabric.add_tap(adversary.tap());
/// // ... run traffic ...
/// assert!(adversary.log().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct BusAdversary {
    log: Rc<RefCell<AttackLog>>,
}

#[derive(Debug)]
struct SnoopTap {
    log: Rc<RefCell<AttackLog>>,
}

impl BusTap for SnoopTap {
    fn observe(&mut self, tlp: &Tlp, downstream: bool) {
        self.log.borrow_mut().observed.push((tlp.clone(), downstream));
    }
}

impl BusAdversary {
    /// Creates an adversary with an empty capture log.
    pub fn new() -> Self {
        BusAdversary::default()
    }

    /// Produces the passive tap to install on a fabric. Multiple taps
    /// share this adversary's log.
    pub fn tap(&self) -> Box<dyn BusTap> {
        Box::new(SnoopTap { log: Rc::clone(&self.log) })
    }

    /// A snapshot of everything captured so far.
    pub fn log(&self) -> AttackLog {
        self.log.borrow().clone()
    }

    /// Clears the capture log.
    pub fn clear(&self) {
        self.log.borrow_mut().observed.clear();
    }

    /// Crafts a replay of the `index`-th captured downstream data packet.
    pub fn craft_replay(&self, index: usize) -> Option<Tlp> {
        self.log
            .borrow()
            .observed
            .iter()
            .filter(|(tlp, down)| *down && !tlp.payload().is_empty())
            .nth(index)
            .map(|(tlp, _)| tlp.clone())
    }

    /// Crafts a forged memory read pretending to come from `fake_requester`.
    pub fn craft_forged_read(fake_requester: Bdf, address: u64, len: u32) -> Tlp {
        Tlp::memory_read(fake_requester, address, len, 0xEE)
    }

    /// Crafts a forged memory write from `fake_requester`.
    pub fn craft_forged_write(fake_requester: Bdf, address: u64, payload: Vec<u8>) -> Tlp {
        Tlp::memory_write(fake_requester, address, payload)
    }
}

impl fmt::Display for BusAdversary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BusAdversary(captured={})", self.log.borrow().len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::ScratchEndpoint;
    use crate::fabric::{Fabric, PortId};

    fn host() -> Bdf {
        Bdf::new(0, 0, 0)
    }

    fn snooped_fabric(adversary: &BusAdversary) -> Fabric {
        let mut fabric = Fabric::new(ccai_sim::Telemetry::default());
        fabric.attach(
            PortId(0),
            Box::new(ScratchEndpoint::new(Bdf::new(1, 0, 0), 0x10_0000, 0x1000)),
        );
        fabric.map_range(0x10_0000..0x10_1000, PortId(0));
        fabric.add_tap(adversary.tap());
        fabric
    }

    #[test]
    fn snooper_harvests_plaintext() {
        let adversary = BusAdversary::new();
        let mut fabric = snooped_fabric(&adversary);
        let secret = b"model weights v1".to_vec();
        fabric.host_request(Tlp::memory_write(host(), 0x10_0000, secret.clone()));
        assert!(adversary.log().leaked(&secret), "plaintext bus leaks to snooper");
    }

    #[test]
    fn snooper_sees_completions_too() {
        let adversary = BusAdversary::new();
        let mut fabric = snooped_fabric(&adversary);
        fabric.host_request(Tlp::memory_write(host(), 0x10_0000, vec![0xAB; 8]));
        adversary.clear();
        fabric.host_request(Tlp::memory_read(host(), 0x10_0000, 8, 0));
        let log = adversary.log();
        assert_eq!(log.of_type(TlpType::MemRead).len(), 1);
        assert_eq!(log.of_type(TlpType::CompletionData).len(), 1);
        assert!(log.leaked(&[0xAB; 8]));
    }

    #[test]
    fn replay_crafting() {
        let adversary = BusAdversary::new();
        let mut fabric = snooped_fabric(&adversary);
        fabric.host_request(Tlp::memory_write(host(), 0x10_0000, vec![1, 2, 3]));
        let replay = adversary.craft_replay(0).expect("captured one write");
        assert_eq!(replay.payload(), &[1, 2, 3]);
        assert!(adversary.craft_replay(1).is_none());
    }

    #[test]
    fn tamper_modes() {
        let tlp = Tlp::memory_write(host(), 0, vec![0b0000_0000; 4]);
        let flipped = TamperMode::BitFlip { byte: 1, bit: 3 }.apply(tlp.clone());
        assert_eq!(flipped.payload(), &[0, 0b0000_1000, 0, 0]);
        let overwritten = TamperMode::Overwrite(0xFF).apply(tlp.clone());
        assert_eq!(overwritten.payload(), &[0xFF; 4]);
        let truncated = TamperMode::Truncate.apply(tlp);
        assert_eq!(truncated.payload().len(), 2);
    }

    #[test]
    fn tamper_ignores_dataless_tlps() {
        let read = Tlp::memory_read(host(), 0, 4, 0);
        let same = TamperMode::Overwrite(0xFF).apply(read.clone());
        assert_eq!(same, read);
    }

    #[test]
    fn forged_requests_carry_fake_requester() {
        let rogue = Bdf::new(9, 9, 1);
        let forged = BusAdversary::craft_forged_read(rogue, 0x10_0000, 64);
        assert_eq!(forged.header().requester(), rogue);
    }

    #[test]
    #[should_panic(expected = "empty needle")]
    fn leaked_rejects_empty_needle() {
        AttackLog::default().leaked(&[]);
    }
}
