//! Initialization-vector management for the workload keys (§6).
//!
//! ccAI follows the NVIDIA H100 approach to IV exhaustion: the IV is a
//! 96-bit value split into a fixed per-channel prefix and a monotonically
//! increasing counter. When the counter nears exhaustion the channel must
//! rotate to a freshly negotiated key — reusing an IV under AES-GCM is
//! catastrophic ([Joux 2006], [Gueron & Krasnov 2014] as cited by the
//! paper).

use serde::{Deserialize, Serialize};

use crate::gcm::NONCE_LEN;

/// Outcome of reserving the next IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IvStatus {
    /// IV is fresh; plenty of headroom remains.
    Fresh,
    /// IV is fresh but the channel is within the rekey threshold — callers
    /// should schedule a key rotation (generate and exchange a new key, as
    /// the H100 does).
    RekeySoon,
}

/// Error returned when a channel's IV space is exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvExhausted;

impl std::fmt::Display for IvExhausted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IV space exhausted; key rotation required")
    }
}

impl std::error::Error for IvExhausted {}

/// Allocates unique 96-bit nonces for one encryption channel.
///
/// The layout is `prefix (4 bytes) ‖ counter (8 bytes, big-endian)`. Each
/// direction of each channel uses a distinct prefix, so TVM→xPU and
/// xPU→TVM traffic can never collide even under one key.
///
/// # Example
///
/// ```
/// use ccai_crypto::IvManager;
///
/// let mut ivs = IvManager::new(0xA5A5_0001);
/// let (n1, _) = ivs.next_iv().unwrap();
/// let (n2, _) = ivs.next_iv().unwrap();
/// assert_ne!(n1, n2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct IvManager {
    prefix: u32,
    counter: u64,
    limit: u64,
    rekey_threshold: u64,
}

impl IvManager {
    /// Default maximum number of IVs per key. Kept well under the GCM
    /// safety bound; the real system would rotate far earlier.
    pub const DEFAULT_LIMIT: u64 = u64::MAX - 1;

    /// Creates a manager with the default limit and a 90 % rekey threshold.
    pub fn new(prefix: u32) -> Self {
        Self::with_limit(prefix, Self::DEFAULT_LIMIT)
    }

    /// Creates a manager that exhausts after `limit` IVs.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero.
    pub fn with_limit(prefix: u32, limit: u64) -> Self {
        assert!(limit > 0, "IV limit must be positive");
        IvManager {
            prefix,
            counter: 0,
            limit,
            rekey_threshold: limit - limit / 10,
        }
    }

    /// Number of IVs issued so far.
    pub fn issued(&self) -> u64 {
        self.counter
    }

    /// Reserves the next unique nonce.
    ///
    /// # Errors
    ///
    /// Returns [`IvExhausted`] once `limit` IVs have been issued; the
    /// caller must rotate keys and construct a fresh manager.
    pub fn next_iv(&mut self) -> Result<([u8; NONCE_LEN], IvStatus), IvExhausted> {
        if self.counter >= self.limit {
            return Err(IvExhausted);
        }
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..4].copy_from_slice(&self.prefix.to_be_bytes());
        nonce[4..].copy_from_slice(&self.counter.to_be_bytes());
        self.counter += 1;
        let status = if self.counter >= self.rekey_threshold {
            IvStatus::RekeySoon
        } else {
            IvStatus::Fresh
        };
        Ok((nonce, status))
    }

    /// Resets the counter after a key rotation (the new key makes old IVs
    /// safe to reuse).
    pub fn rotate(&mut self) {
        self.counter = 0;
    }

    /// The configured IV budget (for snapshot/restore).
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Fast-forwards the counter to a previously captured
    /// [`IvManager::issued`] position, so a restored channel continues
    /// the nonce sequence exactly where the snapshot left off.
    ///
    /// # Panics
    ///
    /// Panics if `issued` exceeds the budget (callers validate snapshot
    /// input before restoring).
    pub fn advance_to(&mut self, issued: u64) {
        assert!(issued <= self.limit, "issued count exceeds IV budget");
        self.counter = issued;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    impl IvManager {
        /// Remaining IVs before exhaustion.
        fn remaining(&self) -> u64 {
            self.limit - self.counter
        }
    }

    #[test]
    fn nonces_are_unique() {
        let mut m = IvManager::new(1);
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            let (n, _) = m.next_iv().unwrap();
            assert!(seen.insert(n), "duplicate nonce issued");
        }
    }

    #[test]
    fn prefixes_partition_the_space() {
        let mut a = IvManager::new(1);
        let mut b = IvManager::new(2);
        let (na, _) = a.next_iv().unwrap();
        let (nb, _) = b.next_iv().unwrap();
        assert_ne!(na, nb);
        assert_eq!(na[4..], nb[4..]); // same counter, different prefix
    }

    #[test]
    fn exhaustion_and_rekey_warning() {
        let mut m = IvManager::with_limit(0, 10);
        for i in 0..9 {
            let (_, status) = m.next_iv().unwrap();
            if i < 8 {
                assert_eq!(status, IvStatus::Fresh, "iv {i}");
            } else {
                assert_eq!(status, IvStatus::RekeySoon, "iv {i}");
            }
        }
        let (_, status) = m.next_iv().unwrap();
        assert_eq!(status, IvStatus::RekeySoon);
        assert_eq!(m.next_iv(), Err(IvExhausted));
        assert_eq!(m.remaining(), 0);
    }

    #[test]
    fn rotate_resets_counter() {
        let mut m = IvManager::with_limit(0, 2);
        m.next_iv().unwrap();
        m.next_iv().unwrap();
        assert!(m.next_iv().is_err());
        m.rotate();
        assert!(m.next_iv().is_ok());
        assert_eq!(m.issued(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_limit_rejected() {
        let _ = IvManager::with_limit(0, 0);
    }
}
