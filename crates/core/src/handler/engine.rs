//! The AES-GCM-SHA engine (§7.2).
//!
//! The FPGA prototype implements this as "an AES-GCM-SHA hardware engine
//! for de/encryption and integrity checks"; here it is the functional
//! core around `ccai-crypto`, instrumented with the byte/op counters the
//! performance model prices.
//!
//! The engine owns no key material: every call borrows the stream's
//! expanded [`AesGcm`] from the `WorkloadKeyManager` that owns it.
//!
//! Ciphertext is emitted *detached*: the ciphertext has the plaintext's
//! length (CTR keystream) and the 16-byte tag is returned separately for
//! the Authentication Tag Manager to ship out-of-band.

use ccai_crypto::AesGcm;
use serde::{Deserialize, Serialize};

/// Engine activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Plaintext bytes encrypted.
    pub bytes_encrypted: u64,
    /// Ciphertext bytes decrypted (successfully).
    pub bytes_decrypted: u64,
    /// Encryption operations.
    pub seal_ops: u64,
    /// Decryption operations attempted.
    pub open_ops: u64,
    /// Decryptions that failed authentication.
    pub auth_failures: u64,
}

/// The crypto engine: activity counters over borrowed ciphers.
#[derive(Debug, Default)]
pub struct CryptoEngine {
    stats: EngineStats,
}

impl CryptoEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Encrypts a chunk in place, returning the detached tag; the
    /// ciphertext keeps the plaintext's length.
    pub fn seal_in_place_detached(
        &mut self,
        cipher: &AesGcm,
        nonce: &[u8; 12],
        buf: &mut [u8],
        aad: &[u8],
    ) -> [u8; 16] {
        self.stats.seal_ops += 1;
        self.stats.bytes_encrypted += buf.len() as u64;
        cipher.seal_in_place_detached(nonce, buf, aad)
    }

    /// Verifies and decrypts a chunk in place against its detached tag.
    /// On failure the buffer is left as ciphertext.
    ///
    /// # Errors
    ///
    /// `Err(())` if the tag fails to verify (tampered data, wrong key,
    /// wrong nonce or wrong AAD); no plaintext is produced.
    #[allow(clippy::result_unit_err)]
    pub fn open_in_place_detached(
        &mut self,
        cipher: &AesGcm,
        nonce: &[u8; 12],
        buf: &mut [u8],
        tag: &[u8; 16],
        aad: &[u8],
    ) -> Result<(), ()> {
        self.stats.open_ops += 1;
        match cipher.open_in_place_detached(nonce, buf, tag, aad) {
            Ok(()) => {
                self.stats.bytes_decrypted += buf.len() as u64;
                Ok(())
            }
            Err(_) => {
                self.stats.auth_failures += 1;
                Err(())
            }
        }
    }

    /// Computes a standalone integrity tag over plaintext data (the A3
    /// "integrity check (plain)" primitive).
    pub fn plain_tag(&self, cipher: &AesGcm, nonce: &[u8; 12], data: &[u8]) -> [u8; 16] {
        cipher.tag_only(nonce, data)
    }

    /// Verifies a standalone integrity tag.
    pub fn verify_plain_tag(
        &mut self,
        cipher: &AesGcm,
        nonce: &[u8; 12],
        data: &[u8],
        tag: &[u8; 16],
    ) -> bool {
        let ok = cipher.verify_tag_only(nonce, data, tag);
        if !ok {
            self.stats.auth_failures += 1;
        }
        ok
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}

ccai_sim::snapshot_state!(EngineStats {
    bytes_encrypted,
    bytes_decrypted,
    seal_ops,
    open_ops,
    auth_failures,
});

ccai_sim::snapshot_state!(CryptoEngine { stats });

/// Runs `f` over what an MMIO write's tag covers: its address (big-endian),
/// then its enveloped payload. Only a payload past the stack buffer allocates.
pub fn with_mmio_signed<R>(addr: u64, payload: &[u8], f: impl FnOnce(&[u8]) -> R) -> R {
    let mut inline = [0u8; 64];
    let len = 8 + payload.len();
    if len > inline.len() {
        return f(&[&addr.to_be_bytes()[..], payload].concat());
    }
    inline[..8].copy_from_slice(&addr.to_be_bytes());
    inline[8..len].copy_from_slice(payload);
    f(&inline[..len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_crypto::Key;

    fn key() -> AesGcm {
        AesGcm::new(&Key::Aes128([0x21; 16]))
    }

    #[test]
    fn detached_round_trip_preserves_length() {
        let mut engine = CryptoEngine::new();
        let plaintext = vec![0x44u8; 4096];
        let mut buf = plaintext.clone();
        let tag = engine.seal_in_place_detached(&key(), &[1; 12], &mut buf, b"aad");
        assert_eq!(buf.len(), plaintext.len(), "CTR ciphertext is size-preserving");
        assert_ne!(buf, plaintext);
        engine.open_in_place_detached(&key(), &[1; 12], &mut buf, &tag, b"aad").unwrap();
        assert_eq!(buf, plaintext);
    }

    #[test]
    fn tamper_and_wrong_context_fail() {
        let mut engine = CryptoEngine::new();
        let mut ct = b"data".to_vec();
        let tag = engine.seal_in_place_detached(&key(), &[1; 12], &mut ct, b"aad");
        let mut bad_ct = ct.clone();
        bad_ct[0] ^= 1;
        assert!(engine.open_in_place_detached(&key(), &[1; 12], &mut bad_ct, &tag, b"aad").is_err());
        // A failed open leaves `ct` as it was, so each try sees the same bytes.
        assert!(engine.open_in_place_detached(&key(), &[2; 12], &mut ct, &tag, b"aad").is_err());
        assert!(engine.open_in_place_detached(&key(), &[1; 12], &mut ct, &tag, b"dad").is_err());
        let mut bad_tag = tag;
        bad_tag[15] ^= 1;
        assert!(engine.open_in_place_detached(&key(), &[1; 12], &mut ct, &bad_tag, b"aad").is_err());
        assert_eq!(engine.stats().auth_failures, 4);
    }

    #[test]
    fn counters_track_bytes() {
        let mut engine = CryptoEngine::new();
        let mut buf = [0; 1000];
        let tag = engine.seal_in_place_detached(&key(), &[1; 12], &mut buf, b"");
        engine.open_in_place_detached(&key(), &[1; 12], &mut buf, &tag, b"").unwrap();
        let stats = engine.stats();
        assert_eq!(stats.bytes_encrypted, 1000);
        assert_eq!(stats.bytes_decrypted, 1000);
        assert_eq!(stats.seal_ops, 1);
        assert_eq!(stats.open_ops, 1);
    }

    #[test]
    fn mmio_signed_bytes_are_address_then_payload() {
        for len in [0usize, 24, 56, 57, 300] {
            let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let signed = with_mmio_signed(0x10_0040, &payload, <[u8]>::to_vec);
            assert_eq!(signed, [&0x10_0040u64.to_be_bytes()[..], &payload].concat(), "{len} B");
        }
    }

    #[test]
    fn plain_tags() {
        let mut engine = CryptoEngine::new();
        let tag = engine.plain_tag(&key(), &[3; 12], b"mmio write");
        assert!(engine.verify_plain_tag(&key(), &[3; 12], b"mmio write", &tag));
        assert!(!engine.verify_plain_tag(&key(), &[3; 12], b"mmio writf", &tag));
    }

    #[test]
    fn in_place_variants_count_stats_and_round_trip() {
        let mut engine = CryptoEngine::new();
        let mut buf = vec![0x5Au8; 4096];
        let original = buf.clone();
        let tag = engine.seal_in_place_detached(&key(), &[7; 12], &mut buf, b"aad");
        assert_ne!(buf, original);
        engine
            .open_in_place_detached(&key(), &[7; 12], &mut buf, &tag, b"aad")
            .unwrap();
        assert_eq!(buf, original);
        // A failed in-place open must count an auth failure and not a
        // decrypted byte.
        let mut bad_tag = tag;
        bad_tag[3] ^= 1;
        let mut sealed_again = buf.clone();
        let tag2 = engine.seal_in_place_detached(&key(), &[8; 12], &mut sealed_again, b"");
        assert_ne!(tag2, bad_tag);
        assert!(engine
            .open_in_place_detached(&key(), &[8; 12], &mut sealed_again, &bad_tag, b"")
            .is_err());
        let stats = engine.stats();
        assert_eq!(stats.seal_ops, 2);
        assert_eq!(stats.open_ops, 2);
        assert_eq!(stats.bytes_encrypted, 8192);
        assert_eq!(stats.bytes_decrypted, 4096);
        assert_eq!(stats.auth_failures, 1);
    }

    #[test]
    fn fingerprint_distinguishes_key_widths() {
        // A 16-byte zero key and a 32-byte zero key share their first 16
        // bytes; one engine serving both must keep their traffic apart.
        let mut engine = CryptoEngine::new();
        let k128 = AesGcm::new(&Key::Aes128([0; 16]));
        let k256 = AesGcm::new(&Key::Aes256([0; 32]));
        let (mut ct1, mut ct2) = (b"same input".to_vec(), b"same input".to_vec());
        let tag1 = engine.seal_in_place_detached(&k128, &[0; 12], &mut ct1, b"");
        engine.seal_in_place_detached(&k256, &[0; 12], &mut ct2, b"");
        assert_ne!(ct1, ct2);
        // The failing open first: a successful one decrypts `ct1` in place.
        assert!(engine.open_in_place_detached(&k256, &[0; 12], &mut ct1, &tag1, b"").is_err());
        assert!(engine.open_in_place_detached(&k128, &[0; 12], &mut ct1, &tag1, b"").is_ok());
    }

    #[test]
    fn key_cache_is_transparent() {
        let mut engine = CryptoEngine::new();
        let k1 = AesGcm::new(&Key::Aes128([1; 16]));
        let k2 = AesGcm::new(&Key::Aes128([2; 16]));
        let (mut ct1, mut ct2) = (b"x".to_vec(), b"x".to_vec());
        let tag1 = engine.seal_in_place_detached(&k1, &[0; 12], &mut ct1, b"");
        engine.seal_in_place_detached(&k2, &[0; 12], &mut ct2, b"");
        assert_ne!(ct1, ct2);
        assert!(engine.open_in_place_detached(&k2, &[0; 12], &mut ct1, &tag1, b"").is_err());
        assert!(engine.open_in_place_detached(&k1, &[0; 12], &mut ct1, &tag1, b"").is_ok());
    }
}
