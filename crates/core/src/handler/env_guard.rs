//! The xPU environment guard (§4.2).
//!
//! Two duties:
//!
//! 1. **MMIO/runtime checks** as part of action A3 — e.g. "checking the
//!    correctness of the xPU page table register". Policy is pushed by
//!    the Adaptor (which knows the vendor register layout); the guard
//!    itself stays device-agnostic, enforcing expected-value and
//!    allowed-window rules over raw addresses.
//! 2. **Environment cleaning** — "checks and cleans the xPU computing
//!    environment when terminating an xPU task": every device model gets
//!    the cold-boot reset, which wipes its memory and registers;
//!    `XpuSpec::supports_soft_reset` is not read yet (ROADMAP item 23).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::Range;

/// One MMIO policy entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MmioPolicy {
    /// Writes to `addr` must carry exactly `expected` (e.g. the page-table
    /// base register).
    ExpectedValue {
        /// The guarded register address (bus address).
        addr: u64,
        /// The only value an authorized write may carry.
        expected: u64,
    },
    /// Writes within `range` are permitted (an allow-window for ordinary
    /// control registers).
    AllowedWindow {
        /// The permitted address range.
        range: Range<u64>,
    },
}

/// A recorded policy violation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvViolation {
    /// The offending address.
    pub addr: u64,
    /// Human-readable description.
    pub reason: String,
}

impl fmt::Display for EnvViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "environment violation at {:#x}: {}", self.addr, self.reason)
    }
}

/// The environment guard.
#[derive(Debug, Default)]
pub struct EnvGuard {
    policies: Vec<MmioPolicy>,
    violations: Vec<EnvViolation>,
    resets_requested: u64,
}

impl EnvGuard {
    /// Creates a guard with no policy (everything in covered ranges must
    /// be configured by the Adaptor before enforcement means anything).
    pub fn new() -> Self {
        EnvGuard::default()
    }

    /// Installs a policy entry.
    pub fn push_policy(&mut self, policy: MmioPolicy) {
        self.policies.push(policy);
    }

    /// Verifies an A3 MMIO write of `value` to `addr`.
    ///
    /// Rules: if any `ExpectedValue` entry guards this address, the value
    /// must match it; otherwise the address must fall in some
    /// `AllowedWindow`. Violations are recorded.
    pub fn verify_write(&mut self, addr: u64, value: u64) -> Result<(), EnvViolation> {
        for policy in &self.policies {
            if let MmioPolicy::ExpectedValue { addr: guarded, expected } = policy {
                if *guarded == addr {
                    if value == *expected {
                        return Ok(());
                    }
                    let violation = EnvViolation {
                        addr,
                        reason: format!(
                            "guarded register write {value:#x} != expected {expected:#x}"
                        ),
                    };
                    self.violations.push(violation.clone());
                    return Err(violation);
                }
            }
        }
        let allowed = self.policies.iter().any(|p| match p {
            MmioPolicy::AllowedWindow { range } => range.contains(&addr),
            MmioPolicy::ExpectedValue { .. } => false,
        });
        if allowed {
            Ok(())
        } else {
            let violation = EnvViolation {
                addr,
                reason: "write outside every allowed window".to_string(),
            };
            self.violations.push(violation.clone());
            Err(violation)
        }
    }

    /// Records that the guard demanded an environment reset (the actual
    /// reset is delivered by the system layer: a cold boot, or a software
    /// reset packet sent by the Adaptor for devices that support it).
    pub fn request_reset(&mut self) {
        self.resets_requested += 1;
    }
}

impl ccai_sim::SnapshotState for MmioPolicy {
    fn encode_state(&self, enc: &mut ccai_sim::Encoder) {
        match self {
            MmioPolicy::ExpectedValue { addr, expected } => {
                enc.u8(0);
                enc.put(&(*addr, *expected));
            }
            MmioPolicy::AllowedWindow { range } => {
                enc.u8(1);
                enc.put(range);
            }
        }
    }

    fn decode_state(dec: &mut ccai_sim::Decoder<'_>) -> Result<Self, ccai_sim::SnapshotError> {
        match dec.u8()? {
            0 => {
                let (addr, expected) = dec.get()?;
                Ok(MmioPolicy::ExpectedValue { addr, expected })
            }
            1 => Ok(MmioPolicy::AllowedWindow { range: dec.get()? }),
            _ => Err(ccai_sim::SnapshotError::Invalid("MMIO policy kind")),
        }
    }
}

ccai_sim::snapshot_state!(EnvViolation { addr, reason });

ccai_sim::snapshot_state!(EnvGuard { policies, violations, resets_requested });

#[cfg(test)]
mod tests {
    use super::*;

    impl EnvGuard {
        /// Resets requested so far.
        fn resets_requested(&self) -> u64 {
            self.resets_requested
        }

        /// Recorded violations.
        fn violations(&self) -> &[EnvViolation] {
            &self.violations
        }
    }

    fn guard() -> EnvGuard {
        let mut g = EnvGuard::new();
        g.push_policy(MmioPolicy::AllowedWindow { range: 0x8000_0000..0x8000_1000 });
        g.push_policy(MmioPolicy::ExpectedValue { addr: 0x8000_0040, expected: 0xAB00_0000 });
        g
    }

    #[test]
    fn window_writes_allowed() {
        let mut g = guard();
        assert!(g.verify_write(0x8000_0000, 1).is_ok());
        assert!(g.verify_write(0x8000_0FFF, 2).is_ok());
    }

    #[test]
    fn out_of_window_writes_blocked() {
        let mut g = guard();
        assert!(g.verify_write(0x8000_1000, 1).is_err());
        assert!(g.verify_write(0x0, 1).is_err());
        assert_eq!(g.violations().len(), 2);
    }

    #[test]
    fn guarded_register_enforces_value() {
        let mut g = guard();
        // The page-table-base attack: reprogramming the register to point
        // at an attacker-controlled table.
        assert!(g.verify_write(0x8000_0040, 0xAB00_0000).is_ok());
        let err = g.verify_write(0x8000_0040, 0xBAD0_0000).unwrap_err();
        assert!(err.reason.contains("guarded register"));
    }

    #[test]
    fn guarded_register_overrides_window() {
        // Guarded address also inside the allow window — the expected
        // value rule still wins.
        let mut g = guard();
        assert!(g.verify_write(0x8000_0040, 0xDEAD).is_err());
    }

    #[test]
    fn empty_policy_blocks_everything() {
        let mut g = EnvGuard::new();
        assert!(g.verify_write(0, 0).is_err());
    }

    #[test]
    fn reset_accounting() {
        let mut g = guard();
        g.request_reset();
        g.request_reset();
        assert_eq!(g.resets_requested(), 2);
    }
}
