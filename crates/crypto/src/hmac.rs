//! RFC 2104 HMAC-SHA256 and RFC 5869 HKDF.
//!
//! Used by trust establishment: key confirmation on the DH exchange and
//! derivation of the workload symmetric keys from the shared secret.
//! [`HmacSha256`] is the one implementation: it absorbs a key's two pads
//! once, so a key that MACs many short messages — HKDF's PRK, a stream
//! key schedule's — pays two compressions per short message, not four.

use crate::sha256::{sha256, Digest, Sha256};
use std::fmt;

const BLOCK_LEN: usize = 64;

/// HMAC-SHA256 under one key, with `key ⊕ ipad` and `key ⊕ opad`
/// absorbed once: each [`HmacSha256::mac`] clones the two states and
/// pays only the compressions of its own data and the outer finish.
///
/// # Example
///
/// ```
/// use ccai_crypto::{hmac_sha256, HmacSha256};
///
/// let keyed = HmacSha256::new(b"key");
/// assert_eq!(keyed.mac(b"message"), hmac_sha256(b"key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The absorbed pads are key material: name the type and nothing else.
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Absorbs `key`'s two pads; a key longer than a block is hashed first.
    pub fn new(key: &[u8]) -> HmacSha256 {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..32].copy_from_slice(sha256(key).as_bytes());
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut inner = Sha256::new();
        inner.update(&key_block.map(|b| b ^ 0x36));
        let mut outer = Sha256::new();
        outer.update(&key_block.map(|b| b ^ 0x5c));
        HmacSha256 { inner, outer }
    }

    /// HMAC-SHA256 of `data` under this key.
    pub fn mac(&self, data: &[u8]) -> Digest {
        self.mac_parts(&[data])
    }

    /// HMAC-SHA256 of the concatenation of `parts`, without building it.
    fn mac_parts(&self, parts: &[&[u8]]) -> Digest {
        let mut inner = self.inner.clone();
        parts.iter().for_each(|part| inner.update(part));
        let mut outer = self.outer.clone();
        outer.update(inner.finalize().as_bytes());
        outer.finalize()
    }
}

/// HMAC-SHA256 of `data` under `key`.
///
/// # Example
///
/// ```
/// let mac = ccai_crypto::hmac_sha256(b"key", b"message");
/// assert_eq!(mac.as_bytes().len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Digest {
    HmacSha256::new(key).mac(data)
}

/// RFC 5869 HKDF-SHA256: extract-then-expand key derivation.
///
/// Returns `out_len` bytes of output keying material.
///
/// # Panics
///
/// Panics if `out_len > 255 * 32` (the HKDF limit).
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], out_len: usize) -> Vec<u8> {
    assert!(out_len <= 255 * 32, "HKDF output too long");
    let prk = HmacSha256::new(hmac_sha256(salt, ikm).as_bytes());
    // T(i) = HMAC(PRK, T(i−1) ‖ info ‖ i), T(0) empty.
    let mut okm = Vec::with_capacity(out_len);
    let mut t = Digest::default();
    for counter in 1..=out_len.div_ceil(32) {
        let previous: &[u8] = if counter == 1 { &[] } else { t.as_bytes() };
        t = prk.mac_parts(&[previous, info, &[counter as u8]]);
        let take = (out_len - okm.len()).min(32);
        okm.extend_from_slice(&t.as_bytes()[..take]);
    }
    okm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// RFC 4231 test case 1.
    #[test]
    fn rfc4231_tc1() {
        let mac = hmac_sha256(&[0x0b; 20], b"Hi There");
        assert_eq!(
            mac.to_hex(),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    /// RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_tc2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            mac.to_hex(),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    /// RFC 4231 test case 3: 20x 0xaa key, 50x 0xdd data.
    #[test]
    fn rfc4231_tc3() {
        let mac = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
        assert_eq!(
            mac.to_hex(),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    /// Long key forces the key-hash path.
    #[test]
    fn rfc4231_tc6_long_key() {
        let key = [0xaa; 131];
        let mac = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(
            mac.to_hex(),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    /// RFC 5869 test case 1.
    #[test]
    fn rfc5869_tc1() {
        let okm = hkdf(
            &hex("000102030405060708090a0b0c"),
            &[0x0b; 22],
            &hex("f0f1f2f3f4f5f6f7f8f9"),
            42,
        );
        assert_eq!(
            okm,
            hex(
                "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
                 34007208d5b887185865"
            )
        );
    }

    /// RFC 5869 test case 3: zero-length salt and info.
    #[test]
    fn rfc5869_tc3() {
        let okm = hkdf(&[], &[0x0b; 22], &[], 42);
        assert_eq!(
            okm,
            hex(
                "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
                 9d201395faa4b61a96c8"
            )
        );
    }

    /// RFC 2104 from scratch on the portable compress: the reference the
    /// keyed-once [`HmacSha256`] (on whatever compress this CPU selects)
    /// and [`hmac_sha256`] are held against.
    fn reference_hmac(key: &[u8], data: &[u8]) -> Digest {
        let portable = |parts: &[&[u8]]| {
            let mut h = Sha256::portable();
            parts.iter().for_each(|part| h.update(part));
            h.finalize()
        };
        let mut block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block[..32].copy_from_slice(portable(&[key]).as_bytes());
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let inner = portable(&[&block.map(|b| b ^ 0x36), data]);
        portable(&[&block.map(|b| b ^ 0x5c), inner.as_bytes()])
    }

    /// Random keys of 0–130 bytes (past 64 the key is hashed first) and
    /// data of 0–200 bytes, every length at the 55/56/64-byte padding
    /// edges of the inner hash included; one keyed object serves many
    /// messages, so no `mac` may disturb the absorbed pads.
    #[test]
    fn backend_keyed_hmac_matches_the_portable_reference() {
        eprintln!("keyed hmac on {}, reference on portable", Sha256::new().backend());
        let mut x: u64 = 0x6A09_E667_F3BC_C908;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let edges = [0usize, 1, 31, 32, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 200];
        for key_len in 0..=130 {
            let key: Vec<u8> = (0..key_len).map(|_| next() as u8).collect();
            let keyed = HmacSha256::new(&key);
            let random: Vec<usize> = (0..4).map(|_| (next() % 201) as usize).collect();
            for data_len in edges.into_iter().chain(random) {
                let data: Vec<u8> = (0..data_len).map(|_| next() as u8).collect();
                let want = reference_hmac(&key, &data);
                assert_eq!(keyed.mac(&data), want, "key {key_len} data {data_len}");
                assert_eq!(hmac_sha256(&key, &data), want, "key {key_len} data {data_len}");
            }
        }
    }

    #[test]
    fn hkdf_output_lengths() {
        for len in [0usize, 1, 31, 32, 33, 64, 100] {
            assert_eq!(hkdf(b"salt", b"ikm", b"info", len).len(), len);
        }
    }

    #[test]
    fn hkdf_is_deterministic_and_domain_separated() {
        let a = hkdf(b"s", b"ikm", b"context-a", 32);
        let b = hkdf(b"s", b"ikm", b"context-a", 32);
        let c = hkdf(b"s", b"ikm", b"context-b", 32);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
