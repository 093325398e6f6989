//! RFC 2104 HMAC-SHA256 and RFC 5869 HKDF.
//!
//! Used by trust establishment: key confirmation on the DH exchange and
//! derivation of the workload symmetric keys from the shared secret.

use crate::sha256::{Digest, Sha256};

const BLOCK_LEN: usize = 64;

/// HMAC-SHA256 of `data` under `key`.
///
/// # Example
///
/// ```
/// let mac = ccai_crypto::hmac_sha256(b"key", b"message");
/// assert_eq!(mac.as_bytes().len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> Digest {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        let hashed = crate::sha256::sha256(key);
        key_block[..32].copy_from_slice(hashed.as_bytes());
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut inner = Sha256::new();
    inner.update(&key_block.map(|b| b ^ 0x36));
    inner.update(data);
    let inner_hash = inner.finalize();

    let mut outer = Sha256::new();
    outer.update(&key_block.map(|b| b ^ 0x5c));
    outer.update(inner_hash.as_bytes());
    outer.finalize()
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
    // Extract
    let prk = hmac_sha256(salt, ikm);
    // Expand
    let mut okm = Vec::with_capacity(out_len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while okm.len() < out_len {
        let mut msg = t.clone();
        msg.extend_from_slice(info);
        msg.push(counter);
        let block = hmac_sha256(prk.as_bytes(), &msg);
        t = block.as_bytes().to_vec();
        okm.extend_from_slice(&t);
        counter = counter.checked_add(1).expect("HKDF counter overflow");
    }
    okm.truncate(out_len);
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
