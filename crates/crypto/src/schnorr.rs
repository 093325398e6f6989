//! Schnorr signatures in the prime-order subgroup of a safe-prime group.
//!
//! The HRoT-Blade signs PCR quotes with its Attestation Key (AK) and the
//! Endorsement Key (EK) certifies the AK (§6, Fig. 6). Classic Schnorr
//! over the DH group keeps the whole trust chain on one set of primitives:
//!
//! * key: `x ∈ [1, q)`, `y = g^x mod p`;
//! * sign: `r = g^k`, `e = H(r ‖ m) mod q`, `s = k + x·e mod q`;
//! * verify: `g^s == r · y^e (mod p)`.
//!
//! The per-signature nonce `k` is derived deterministically from the key
//! and message (RFC 6979 flavour), so no signing-time randomness is needed
//! and nonce reuse across distinct messages is impossible.

use crate::bignum::BigUint;
use crate::dh::DhGroup;
use crate::hmac::hmac_sha256;
use crate::sha256::Sha256;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A Schnorr signature `(r, s)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    r: BigUint,
    s: BigUint,
}

impl Signature {
    /// Serializes as `len(r) ‖ r ‖ s` (big-endian components).
    pub fn to_bytes(&self) -> Vec<u8> {
        let r = self.r.to_bytes_be();
        let s = self.s.to_bytes_be();
        let mut out = Vec::with_capacity(4 + r.len() + s.len());
        out.extend_from_slice(&(r.len() as u32).to_be_bytes());
        out.extend_from_slice(&r);
        out.extend_from_slice(&s);
        out
    }

    /// Parses the encoding produced by [`Signature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        if bytes.len() < 4 {
            return None;
        }
        let r_len = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]) as usize;
        if bytes.len() < 4 + r_len {
            return None;
        }
        Some(Signature {
            r: BigUint::from_bytes_be(&bytes[4..4 + r_len]),
            s: BigUint::from_bytes_be(&bytes[4 + r_len..]),
        })
    }
}

/// A Schnorr public key bound to its group.
#[derive(Clone, PartialEq, Eq)]
pub struct SchnorrPublic {
    group: DhGroup,
    y: BigUint,
}

impl fmt::Debug for SchnorrPublic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchnorrPublic")
            .field("group", &self.group)
            .field("y_bits", &self.y.bit_len())
            .finish()
    }
}

impl SchnorrPublic {
    /// Big-endian encoding of the public element.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.y.to_bytes_be()
    }

    /// Reconstructs a public key from bytes within `group`.
    pub fn from_bytes(group: &DhGroup, bytes: &[u8]) -> SchnorrPublic {
        SchnorrPublic { group: group.clone(), y: BigUint::from_bytes_be(bytes) }
    }

    /// Verifies `sig` over `message`.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        if sig.r.is_zero() || sig.r >= *self.group.prime() {
            return false;
        }
        if sig.s >= *self.group.order() {
            return false;
        }
        let e = challenge(&self.group, &sig.r, message);
        // g^s == r * y^e mod p
        let lhs = self.group.pow_g(&sig.s);
        let y_e = self.group.pow(&self.y, &e);
        let rhs = self.group.mont_p().mul_mod(&sig.r, &y_e);
        lhs == rhs
    }
}

/// A Schnorr signing key.
#[derive(Clone)]
pub struct SchnorrKeyPair {
    group: DhGroup,
    x: BigUint,
    public: SchnorrPublic,
}

impl fmt::Debug for SchnorrKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchnorrKeyPair")
            .field("group", &self.group)
            .field("private", &"<redacted>")
            .finish()
    }
}

impl SchnorrKeyPair {
    /// Derives a key pair from caller-supplied entropy (≥ 32 bytes).
    ///
    /// # Panics
    ///
    /// Panics if `entropy` is shorter than 32 bytes.
    pub fn generate(group: &DhGroup, entropy: &[u8]) -> SchnorrKeyPair {
        let x = group.scalar_from_entropy(entropy);
        let y = group.pow_g(&x);
        SchnorrKeyPair {
            group: group.clone(),
            x,
            public: SchnorrPublic { group: group.clone(), y },
        }
    }

    /// The public verification key.
    pub fn public(&self) -> &SchnorrPublic {
        &self.public
    }

    /// Signs `message` with a deterministic nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        // k = HMAC(x, message) expanded and reduced mod q-1, plus 1.
        let x_bytes = self.x.to_bytes_be();
        let mut seed = hmac_sha256(&x_bytes, message).as_bytes().to_vec();
        seed.extend_from_slice(hmac_sha256(&x_bytes, &seed).as_bytes());
        let k = {
            let q_minus_1 = self.group.order().sub(&BigUint::one());
            BigUint::from_bytes_be(&seed).rem(&q_minus_1).add(&BigUint::one())
        };
        let r = self.group.pow_g(&k);
        let e = challenge(&self.group, &r, message);
        // s = k + x*e mod q
        let xe = self.group.mont_q().mul_mod(&self.x, &e);
        let s = self.group.mont_q().add_mod(&k, &xe);
        Signature { r, s }
    }
}

/// `e = SHA-256(r ‖ m) mod q`.
fn challenge(group: &DhGroup, r: &BigUint, message: &[u8]) -> BigUint {
    let mut h = Sha256::new();
    h.update(&r.to_bytes_be());
    h.update(message);
    BigUint::from_bytes_be(h.finalize().as_bytes()).rem(group.order())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group() -> DhGroup {
        DhGroup::sim512()
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = SchnorrKeyPair::generate(&group(), &[3u8; 32]);
        let sig = kp.sign(b"pcr quote");
        assert!(kp.public().verify(b"pcr quote", &sig));
    }

    #[test]
    fn verification_fails_for_wrong_message() {
        let kp = SchnorrKeyPair::generate(&group(), &[3u8; 32]);
        let sig = kp.sign(b"pcr quote");
        assert!(!kp.public().verify(b"pcr quot3", &sig));
        assert!(!kp.public().verify(b"", &sig));
    }

    #[test]
    fn verification_fails_for_wrong_key() {
        let kp1 = SchnorrKeyPair::generate(&group(), &[3u8; 32]);
        let kp2 = SchnorrKeyPair::generate(&group(), &[4u8; 32]);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public().verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = SchnorrKeyPair::generate(&group(), &[5u8; 32]);
        let sig = kp.sign(b"msg");
        let tampered = Signature { r: sig.r.clone(), s: sig.s.add(&BigUint::one()) };
        assert!(!kp.public().verify(b"msg", &tampered));
        let tampered = Signature { r: sig.r.add(&BigUint::one()), s: sig.s.clone() };
        assert!(!kp.public().verify(b"msg", &tampered));
    }

    #[test]
    fn deterministic_signatures() {
        let kp = SchnorrKeyPair::generate(&group(), &[6u8; 32]);
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
        assert_ne!(kp.sign(b"m"), kp.sign(b"n"));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let kp = SchnorrKeyPair::generate(&group(), &[7u8; 32]);
        let sig = kp.sign(b"serialize me");
        let bytes = sig.to_bytes();
        let back = Signature::from_bytes(&bytes).unwrap();
        assert_eq!(back, sig);
        assert!(kp.public().verify(b"serialize me", &back));
    }

    #[test]
    fn malformed_signature_bytes_rejected() {
        assert!(Signature::from_bytes(&[]).is_none());
        assert!(Signature::from_bytes(&[0, 0]).is_none());
        assert!(Signature::from_bytes(&[0, 0, 1, 0]).is_none()); // r_len too big
    }

    #[test]
    fn public_key_bytes_round_trip() {
        let g = group();
        let kp = SchnorrKeyPair::generate(&g, &[8u8; 32]);
        let pk = SchnorrPublic::from_bytes(&g, &kp.public().to_bytes());
        let sig = kp.sign(b"hello");
        assert!(pk.verify(b"hello", &sig));
    }

    #[test]
    fn degenerate_r_rejected() {
        let g = group();
        let kp = SchnorrKeyPair::generate(&g, &[9u8; 32]);
        let sig = Signature { r: BigUint::zero(), s: BigUint::one() };
        assert!(!kp.public().verify(b"m", &sig));
        let sig = Signature { r: g.prime().clone(), s: BigUint::one() };
        assert!(!kp.public().verify(b"m", &sig));
    }
}
