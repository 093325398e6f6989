//! Finite-field Diffie-Hellman key exchange (§6, Fig. 6 step ①).
//!
//! The verifier and the ccAI platform derive a shared `SessionKey` before
//! any attestation material flows. Two groups are provided:
//!
//! * [`DhGroup::modp2048`] — RFC 3526 group 14, the production choice;
//! * [`DhGroup::sim512`] — a deterministic 513-bit safe-prime group for
//!   fast unit tests (generated once from a fixed seed and verified prime
//!   by the test suite; **not** for real deployments).
//!
//! Both are safe-prime groups with generator 2 of prime order
//! `q = (p-1)/2`, so Schnorr signatures (see [`crate::schnorr`]) reuse the
//! same group.
//!
//! Each group is built once per process: the constructors return a clone
//! of one shared set of constants (`p`, `q`, their Montgomery contexts).
//! On its first [`DhGroup::pow_g`] the group tabulates the powers of its
//! generator (`bignum::BaseTable`), after which `g^x` costs one product per
//! 4-bit window of `x`. Only functions of the group constants are kept;
//! every key pair, shared secret and signature is computed afresh.

use crate::bignum::{BaseTable, BigUint, Montgomery};
use crate::hmac::hkdf;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// RFC 3526 MODP group 14 prime (2048-bit).
const MODP_2048_P: &str = "\
FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF";

/// Deterministic 513-bit safe prime for fast simulation tests.
/// Derived from SHA-256("ccAI simulation group v1") by incremental search;
/// `sim_group_is_a_safe_prime_group` in the test suite re-verifies it.
const SIM_512_P: &str = "\
1cceb1928fa11ac8b85c9e574bc66afbc7f8a39e0bffd76a9b9bc32c358d155d\
3dff0b081662a851a0376df0848c307fcb3bc4f0bb2ca806da1021913da347517";

/// A safe-prime Diffie-Hellman group `p = 2q + 1` with generator 2 of
/// order `q`. Clones share one set of constants.
#[derive(Clone)]
pub struct DhGroup(Arc<Group>);

/// The constants of one group, built once per process.
struct Group {
    name: &'static str,
    p: BigUint,
    q: BigUint,
    g: BigUint,
    mont_p: Arc<Montgomery>,
    mont_q: Montgomery,
    /// Powers of `g`, tabulated on the first [`DhGroup::pow_g`].
    g_table: OnceLock<BaseTable>,
}

impl fmt::Debug for DhGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DhGroup")
            .field("name", &self.0.name)
            .field("bits", &self.0.p.bit_len())
            .finish()
    }
}

impl PartialEq for DhGroup {
    fn eq(&self, other: &Self) -> bool {
        self.0.p == other.0.p && self.0.g == other.0.g
    }
}
impl Eq for DhGroup {}

impl DhGroup {
    fn from_prime_hex(name: &'static str, p_hex: &str) -> DhGroup {
        let p = BigUint::from_hex(p_hex);
        let q = p.sub(&BigUint::one()).shr1();
        let mont_p = Arc::new(Montgomery::new(p.clone()));
        let mont_q = Montgomery::new(q.clone());
        let g = BigUint::from(2u64);
        DhGroup(Arc::new(Group { name, p, q, g, mont_p, mont_q, g_table: OnceLock::new() }))
    }

    /// RFC 3526 group 14 (2048-bit MODP). The production group.
    pub fn modp2048() -> DhGroup {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        GROUP.get_or_init(|| Self::from_prime_hex("modp2048", MODP_2048_P)).clone()
    }

    /// Deterministic 513-bit simulation group — fast for tests, not for
    /// real deployments.
    pub fn sim512() -> DhGroup {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        GROUP.get_or_init(|| Self::from_prime_hex("sim512", SIM_512_P)).clone()
    }

    /// Group name ("modp2048" / "sim512").
    pub fn name(&self) -> &'static str {
        self.0.name
    }

    /// The group prime `p`.
    pub fn prime(&self) -> &BigUint {
        &self.0.p
    }

    /// The subgroup order `q = (p-1)/2`.
    pub fn order(&self) -> &BigUint {
        &self.0.q
    }

    /// The generator (2).
    pub fn generator(&self) -> &BigUint {
        &self.0.g
    }

    /// `g^exp mod p`, from the group's generator table (built on the first
    /// call): one table product per 4-bit window, no squarings.
    pub fn pow_g(&self, exp: &BigUint) -> BigUint {
        let group = &*self.0;
        group.g_table.get_or_init(|| BaseTable::new(group.mont_p.clone(), &group.g)).pow(exp)
    }

    /// `base^exp mod p`.
    pub fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.0.mont_p.pow(base, exp)
    }

    /// Montgomery context for arithmetic mod `p` (used by Schnorr).
    pub(crate) fn mont_p(&self) -> &Montgomery {
        &self.0.mont_p
    }

    /// Montgomery context for arithmetic mod `q` (used by Schnorr).
    pub(crate) fn mont_q(&self) -> &Montgomery {
        &self.0.mont_q
    }

    /// Derives a private scalar in `[1, q)` from caller-supplied entropy.
    ///
    /// The scalar is taken modulo `q - 1` plus one, so any 32+ byte entropy
    /// input yields a valid exponent.
    ///
    /// # Panics
    ///
    /// Panics if `entropy` is shorter than 32 bytes.
    pub fn scalar_from_entropy(&self, entropy: &[u8]) -> BigUint {
        assert!(entropy.len() >= 32, "need at least 256 bits of entropy");
        // Expand entropy to the group width to avoid bias, then reduce.
        let want = self.0.q.bit_len() / 8 + 16;
        let expanded = hkdf(b"ccai-dh-scalar", entropy, self.0.name.as_bytes(), want);
        let x = BigUint::from_bytes_be(&expanded);
        let q_minus_1 = self.0.q.sub(&BigUint::one());
        x.rem(&q_minus_1).add(&BigUint::one())
    }

    /// Validates a peer public value: `1 < y < p-1` and `y^q == 1`
    /// (subgroup membership).
    pub fn validate_public(&self, y: &BigUint) -> bool {
        let p_minus_1 = self.0.p.sub(&BigUint::one());
        if y <= &BigUint::one() || y >= &p_minus_1 {
            return false;
        }
        self.pow(y, &self.0.q) == BigUint::one()
    }
}

/// A public DH value.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DhPublic {
    y: BigUint,
}

impl DhPublic {
    /// The raw group element.
    pub fn value(&self) -> &BigUint {
        &self.y
    }

    /// Big-endian byte encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.y.to_bytes_be()
    }

    /// Builds a public value from bytes (no validation — call
    /// [`DhGroup::validate_public`] before use).
    pub fn from_bytes(bytes: &[u8]) -> DhPublic {
        DhPublic { y: BigUint::from_bytes_be(bytes) }
    }
}

/// A DH key pair bound to its group.
#[derive(Clone)]
pub struct DhKeyPair {
    group: DhGroup,
    x: BigUint,
    public: DhPublic,
}

impl fmt::Debug for DhKeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DhKeyPair")
            .field("group", &self.group)
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
    pub fn generate(group: &DhGroup, entropy: &[u8]) -> DhKeyPair {
        let x = group.scalar_from_entropy(entropy);
        let y = group.pow_g(&x);
        DhKeyPair { group: group.clone(), x, public: DhPublic { y } }
    }

    /// The public half.
    pub fn public(&self) -> &DhPublic {
        &self.public
    }

    /// Computes the shared secret with a validated peer value and derives
    /// a 32-byte session key via HKDF.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the peer value fails group validation (identity,
    /// out of range, or outside the prime-order subgroup).
    pub fn agree(&self, peer: &DhPublic) -> Result<[u8; 32], DhError> {
        if !self.group.validate_public(&peer.y) {
            return Err(DhError::InvalidPeerValue);
        }
        let shared = self.group.pow(&peer.y, &self.x);
        let mut key = [0u8; 32];
        let okm = hkdf(
            b"ccai-session-key",
            &shared.to_bytes_be(),
            self.group.name().as_bytes(),
            32,
        );
        key.copy_from_slice(&okm);
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

    #[test]
    fn sim_group_is_a_safe_prime_group() {
        let g = DhGroup::sim512();
        assert!(g.prime().is_probable_prime(), "p must be prime");
        assert!(g.order().is_probable_prime(), "q must be prime");
        // p = 2q + 1
        assert_eq!(g.order().shl1().add(&BigUint::one()), *g.prime());
        // generator has order q: g^q == 1
        assert_eq!(g.pow_g(g.order()), BigUint::one());
    }

    #[test]
    fn exchange_produces_matching_keys() {
        let group = DhGroup::sim512();
        let alice = DhKeyPair::generate(&group, &[1u8; 32]);
        let bob = DhKeyPair::generate(&group, &[2u8; 32]);
        let ka = alice.agree(bob.public()).unwrap();
        let kb = bob.agree(alice.public()).unwrap();
        assert_eq!(ka, kb);
        assert_ne!(ka, [0u8; 32]);
    }

    #[test]
    fn different_entropy_different_keys() {
        let group = DhGroup::sim512();
        let a = DhKeyPair::generate(&group, &[1u8; 32]);
        let b = DhKeyPair::generate(&group, &[9u8; 32]);
        assert_ne!(a.public(), b.public());
    }

    #[test]
    fn rejects_degenerate_peer_values() {
        let group = DhGroup::sim512();
        let kp = DhKeyPair::generate(&group, &[1u8; 32]);
        // y = 0, 1, p-1, p are all invalid.
        for bad in [
            BigUint::zero(),
            BigUint::one(),
            group.prime().sub(&BigUint::one()),
            group.prime().clone(),
        ] {
            let peer = DhPublic { y: bad };
            assert_eq!(kp.agree(&peer), Err(DhError::InvalidPeerValue));
        }
    }

    #[test]
    fn rejects_non_subgroup_element() {
        let group = DhGroup::sim512();
        // 2 generates the subgroup; a quadratic non-residue like p-2 (since
        // -1 is a non-residue for p ≡ 3 mod 4 and 2 is a residue) is outside.
        let non_member = group.prime().sub(&BigUint::from(2u64));
        assert!(!group.validate_public(&non_member));
    }

    #[test]
    fn public_value_bytes_round_trip() {
        let group = DhGroup::sim512();
        let kp = DhKeyPair::generate(&group, &[7u8; 32]);
        let bytes = kp.public().to_bytes();
        let back = DhPublic::from_bytes(&bytes);
        assert_eq!(&back, kp.public());
        assert!(group.validate_public(back.value()));
    }

    #[test]
    #[should_panic(expected = "entropy")]
    fn short_entropy_rejected() {
        let group = DhGroup::sim512();
        let _ = DhKeyPair::generate(&group, &[0u8; 16]);
    }

    // The 2048-bit production group is exercised once; primality of the
    // RFC 3526 constant is asserted so a transcription error cannot hide.
    #[test]
    fn modp2048_constant_is_correct() {
        let g = DhGroup::modp2048();
        assert_eq!(g.prime().bit_len(), 2048);
        assert!(g.prime().is_probable_prime());
        assert!(g.order().is_probable_prime());
    }
}
