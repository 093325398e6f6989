//! Schnorr signatures on edwards25519.
//!
//! The HRoT-Blade signs PCR quotes with its Attestation Key (AK) and the
//! Endorsement Key (EK) certifies the AK (§6, Fig. 6). Schnorr over the
//! group of [`crate::dh`] keeps the whole trust chain on one set of
//! primitives:
//!
//! * key: `x` mod ℓ, `A = [x]B`;
//! * sign: `R = [k]B`, `e = SHA-256(R ‖ A ‖ m) mod ℓ`, `s = k + e·x mod ℓ`;
//! * verify: `[s]B − [e]A == R`.
//!
//! Keys are 32 bytes and signatures `R ‖ s`, 64 bytes. The per-signature
//! nonce `k` is derived deterministically from the key and message (RFC
//! 6979 flavour: 64 bytes of HMAC output reduced mod ℓ), so no
//! signing-time randomness is needed and nonce reuse across distinct
//! messages is impossible. This is not Ed25519 (RFC 8032 hashes with
//! SHA-512): the curve is standard, the construction is this crate's own.

use crate::edwards25519::{Point, Scalar};
use crate::hmac::hmac_sha256;
use crate::sha256::Sha256;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A Schnorr signature `(R, s)`: a point encoding and a scalar,
/// little-endian.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    r: [u8; 32],
    s: [u8; 32],
}

impl Signature {
    /// Serializes as `R ‖ s`.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&self.r);
        out[32..].copy_from_slice(&self.s);
        out
    }

    /// Parses the encoding produced by [`Signature::to_bytes`]; `None`
    /// unless `bytes` is 64 bytes long ([`SchnorrPublic::verify`] checks
    /// the halves).
    pub fn from_bytes(bytes: &[u8]) -> Option<Signature> {
        let (r, s) = bytes.split_first_chunk::<32>()?;
        Some(Signature { r: *r, s: s.try_into().ok()? })
    }
}

/// A Schnorr public key: the 32-byte encoding of `A`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchnorrPublic([u8; 32]);

impl SchnorrPublic {
    /// The point encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        self.0
    }

    /// A public key from its encoding; `None` unless `bytes` is 32 bytes
    /// long ([`SchnorrPublic::verify`] decodes the point).
    pub fn from_bytes(bytes: &[u8]) -> Option<SchnorrPublic> {
        Some(SchnorrPublic(bytes.try_into().ok()?))
    }

    /// Verifies `sig` over `message`. Fails if `s ≥ ℓ`, if the key does
    /// not decode to a curve point, or if `R` is not the encoding of
    /// `[s]B − [e]A`; an `R` that does not decode is never such an
    /// encoding.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        let (Some(s), Some(a)) = (Scalar::from_canonical(&sig.s), Point::decompress(&self.0))
        else {
            return false;
        };
        let e = challenge(&sig.r, &self.0, message);
        let r = Point::mul_base(&s.to_bytes()).add(&a.neg().mul(&e.to_bytes()));
        r.compress() == sig.r
    }
}

/// A Schnorr signing key.
#[derive(Clone)]
pub struct SchnorrKeyPair {
    x: Scalar,
    public: SchnorrPublic,
}

impl fmt::Debug for SchnorrKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SchnorrKeyPair")
            .field("public", &self.public)
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
    pub fn generate(entropy: &[u8]) -> SchnorrKeyPair {
        let x = Scalar::from_entropy(b"ccai-schnorr-scalar", entropy);
        let public = SchnorrPublic(Point::mul_base(&x.to_bytes()).compress());
        SchnorrKeyPair { x, public }
    }

    /// The public verification key.
    pub fn public(&self) -> &SchnorrPublic {
        &self.public
    }

    /// Signs `message` with a deterministic nonce.
    pub fn sign(&self, message: &[u8]) -> Signature {
        // k = HMAC(x, message) ‖ HMAC(x, that), reduced mod ℓ.
        let x_bytes = self.x.to_bytes();
        let mut seed = hmac_sha256(&x_bytes, message).as_bytes().to_vec();
        seed.extend_from_slice(hmac_sha256(&x_bytes, &seed).as_bytes());
        let k = Scalar::reduce(&seed);
        let r = Point::mul_base(&k.to_bytes()).compress();
        let e = challenge(&r, &self.public.0, message);
        let s = Scalar::mul_add(&e, &self.x, &k);
        Signature { r, s: s.to_bytes() }
    }
}

/// `e = SHA-256(R ‖ A ‖ m) mod ℓ`.
fn challenge(r: &[u8; 32], a: &[u8; 32], message: &[u8]) -> Scalar {
    let mut h = Sha256::new();
    h.update(r);
    h.update(a);
    h.update(message);
    Scalar::reduce(h.finalize().as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = SchnorrKeyPair::generate(&[3u8; 32]);
        let sig = kp.sign(b"pcr quote");
        assert!(kp.public().verify(b"pcr quote", &sig));
    }

    #[test]
    fn verification_fails_for_wrong_message() {
        let kp = SchnorrKeyPair::generate(&[3u8; 32]);
        let sig = kp.sign(b"pcr quote");
        assert!(!kp.public().verify(b"pcr quot3", &sig));
        assert!(!kp.public().verify(b"", &sig));
    }

    #[test]
    fn verification_fails_for_wrong_key() {
        let kp1 = SchnorrKeyPair::generate(&[3u8; 32]);
        let kp2 = SchnorrKeyPair::generate(&[4u8; 32]);
        let sig = kp1.sign(b"msg");
        assert!(!kp2.public().verify(b"msg", &sig));
        // y = 2 is on no point: a key that does not decode verifies nothing.
        let mut off_curve = [0u8; 32];
        off_curve[0] = 2;
        assert!(!SchnorrPublic(off_curve).verify(b"msg", &sig));
    }

    #[test]
    fn tampered_signature_rejected() {
        let kp = SchnorrKeyPair::generate(&[5u8; 32]);
        let sig = kp.sign(b"msg");
        let mut tampered = sig.clone();
        tampered.s[0] ^= 1;
        assert!(!kp.public().verify(b"msg", &tampered));
        let mut tampered = sig.clone();
        tampered.r[0] ^= 1;
        assert!(!kp.public().verify(b"msg", &tampered));
        // s + ℓ is the same residue but not the canonical encoding.
        let mut tampered = sig;
        let mut carry = 0u16;
        for (s, l) in tampered.s.iter_mut().zip(crate::edwards25519::ORDER) {
            let sum = *s as u16 + l as u16 + carry;
            *s = sum as u8;
            carry = sum >> 8;
        }
        assert!(!kp.public().verify(b"msg", &tampered));
    }

    #[test]
    fn one_entropy_gives_unrelated_dh_and_signing_keys() {
        for i in 0..16u8 {
            let entropy: Vec<u8> = (0..32).map(|j| i.wrapping_mul(37) ^ j).collect();
            let dh = crate::dh::DhKeyPair::generate(&entropy);
            let signing = SchnorrKeyPair::generate(&entropy);
            assert_ne!(dh.public().to_bytes(), signing.public().to_bytes(), "entropy {i}");
        }
    }

    #[test]
    fn deterministic_signatures() {
        let kp = SchnorrKeyPair::generate(&[6u8; 32]);
        assert_eq!(kp.sign(b"m"), kp.sign(b"m"));
        assert_ne!(kp.sign(b"m"), kp.sign(b"n"));
    }

    #[test]
    fn signature_bytes_round_trip() {
        let kp = SchnorrKeyPair::generate(&[7u8; 32]);
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
        assert!(Signature::from_bytes(&[0; 63]).is_none());
        assert!(Signature::from_bytes(&[0; 65]).is_none());
    }

    #[test]
    fn public_key_bytes_round_trip() {
        let kp = SchnorrKeyPair::generate(&[8u8; 32]);
        let pk = SchnorrPublic::from_bytes(&kp.public().to_bytes()).unwrap();
        let sig = kp.sign(b"hello");
        assert!(pk.verify(b"hello", &sig));
        assert!(SchnorrPublic::from_bytes(&[0; 31]).is_none());
    }

    #[test]
    fn degenerate_r_rejected() {
        let kp = SchnorrKeyPair::generate(&[9u8; 32]);
        let s = kp.sign(b"m").s;
        // y = p (a non-canonical zero) and y = 2 (on no point).
        let mut non_canonical = [0xff; 32];
        non_canonical[0] = 0xed;
        non_canonical[31] = 0x7f;
        let mut off_curve = [0u8; 32];
        off_curve[0] = 2;
        for r in [non_canonical, off_curve] {
            assert!(!kp.public().verify(b"m", &Signature { r, s }));
        }
    }
}
