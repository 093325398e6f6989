//! Diffie-Hellman key exchange on edwards25519 (§6, Fig. 6 step ①).
//!
//! The verifier and the ccAI platform derive a shared `SessionKey` before
//! any attestation material flows. Each side's private key is a scalar x
//! mod ℓ and its public value the 32-byte encoding of `[x]B`. [`agree`]
//! decodes the peer's value, refuses anything but a point of the
//! prime-order subgroup other than the identity, and hashes the encoding
//! of `[x]·peer` through HKDF into the session key.
//!
//! This is ECDH on the same group and with the same scalar
//! multiplication as [`crate::schnorr`], not X25519: X25519's x-only
//! ladder beside it would be a second scalar multiplication for one
//! curve. The curve is standard; the construction is this crate's own.
//!
//! [`agree`]: DhKeyPair::agree

use crate::edwards25519::{Point, Scalar, ORDER};
use crate::hmac::hkdf;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A public DH value: the 32-byte encoding of a point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DhPublic([u8; 32]);

impl DhPublic {
    /// The point encoding (RFC 8032 §5.1.2).
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0
    }

    /// Builds a public value from its encoding (no validation —
    /// [`DhKeyPair::agree`] validates).
    pub fn from_bytes(bytes: [u8; 32]) -> DhPublic {
        DhPublic(bytes)
    }
}

/// A DH key pair.
#[derive(Clone)]
pub struct DhKeyPair {
    x: Scalar,
    public: DhPublic,
}

impl fmt::Debug for DhKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DhKeyPair")
            .field("public", &self.public)
            .field("private", &"<redacted>")
            .finish()
    }
}

impl DhKeyPair {
    /// Generates a key pair from caller-supplied entropy (≥ 32 bytes).
    ///
    /// # Panics
    ///
    /// Panics if `entropy` is shorter than 32 bytes.
    pub fn generate(entropy: &[u8]) -> DhKeyPair {
        let x = Scalar::from_entropy(b"ccai-dh-scalar", entropy);
        let public = DhPublic(Point::mul_base(&x.to_bytes()).compress());
        DhKeyPair { x, public }
    }

    /// The public half.
    pub fn public(&self) -> &DhPublic {
        &self.public
    }

    /// Computes the shared point with a validated peer value and derives
    /// a 32-byte session key from its encoding via HKDF.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the peer value is not a canonical encoding of a
    /// curve point, is the identity, or lies outside the prime-order
    /// subgroup (`[ℓ]P ≠ O`).
    pub fn agree(&self, peer: &DhPublic) -> Result<[u8; 32], DhError> {
        let point = Point::decompress(&peer.0)
            .filter(|p| !p.is_identity() && p.mul(&ORDER).is_identity())
            .ok_or(DhError::InvalidPeerValue)?;
        let shared = point.mul(&self.x.to_bytes()).compress();
        let mut key = [0u8; 32];
        key.copy_from_slice(&hkdf(b"ccai-session-key", &shared, b"edwards25519", 32));
        Ok(key)
    }
}

/// Errors from the DH exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DhError {
    /// The peer's public value is not a valid element of the prime-order
    /// subgroup.
    InvalidPeerValue,
}

impl fmt::Display for DhError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DhError::InvalidPeerValue => write!(f, "invalid peer public value"),
        }
    }
}

impl std::error::Error for DhError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The order-2 point (0, −1).
    fn order_two() -> [u8; 32] {
        let mut bytes = [0xff; 32];
        bytes[0] = 0xec;
        bytes[31] = 0x7f;
        bytes
    }

    #[test]
    fn exchange_produces_matching_keys() {
        let alice = DhKeyPair::generate(&[1u8; 32]);
        let bob = DhKeyPair::generate(&[2u8; 32]);
        let ka = alice.agree(bob.public()).unwrap();
        let kb = bob.agree(alice.public()).unwrap();
        assert_eq!(ka, kb);
        assert_ne!(ka, [0u8; 32]);
    }

    #[test]
    fn different_entropy_different_keys() {
        let a = DhKeyPair::generate(&[1u8; 32]);
        let b = DhKeyPair::generate(&[9u8; 32]);
        assert_ne!(a.public(), b.public());
    }

    #[test]
    fn rejects_degenerate_peer_values() {
        let kp = DhKeyPair::generate(&[1u8; 32]);
        let mut identity = [0u8; 32];
        identity[0] = 1;
        // y = p: a non-canonical encoding of y = 0.
        let mut non_canonical = [0xff; 32];
        non_canonical[0] = 0xed;
        non_canonical[31] = 0x7f;
        // y = 2 solves the curve equation for no x.
        let mut off_curve = [0u8; 32];
        off_curve[0] = 2;
        for bad in [identity, non_canonical, off_curve, order_two()] {
            let peer = DhPublic(bad);
            assert_eq!(kp.agree(&peer), Err(DhError::InvalidPeerValue));
        }
    }

    #[test]
    fn rejects_non_subgroup_element() {
        // B + (0, −1) is on the curve but has order 2ℓ.
        let kp = DhKeyPair::generate(&[1u8; 32]);
        let torsion = Point::decompress(&order_two()).expect("(0, -1) is on the curve");
        let mixed = DhPublic(Point::base().add(&torsion).compress());
        assert!(Point::decompress(&mixed.0).is_some());
        assert_eq!(kp.agree(&mixed), Err(DhError::InvalidPeerValue));
    }

    #[test]
    fn public_value_bytes_round_trip() {
        let kp = DhKeyPair::generate(&[7u8; 32]);
        let back = DhPublic::from_bytes(kp.public().to_bytes());
        assert_eq!(&back, kp.public());
        let peer = DhKeyPair::generate(&[8u8; 32]);
        assert_eq!(peer.agree(&back), kp.agree(peer.public()));
    }

    #[test]
    #[should_panic(expected = "entropy")]
    fn short_entropy_rejected() {
        let _ = DhKeyPair::generate(&[0u8; 16]);
    }
}
