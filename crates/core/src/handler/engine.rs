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

    /// Encrypts a chunk; returns `(ciphertext, tag)` with
    /// `ciphertext.len() == plaintext.len()`. Rides the cipher's detached
    /// API directly: one allocation for the ciphertext, no concatenation
    /// or truncation.
    pub fn seal_detached(
        &mut self,
        cipher: &AesGcm,
        nonce: &[u8; 12],
        plaintext: &[u8],
        aad: &[u8],
    ) -> (Vec<u8>, [u8; 16]) {
        self.stats.seal_ops += 1;
        self.stats.bytes_encrypted += plaintext.len() as u64;
        cipher.seal_detached(nonce, plaintext, aad)
    }

    /// Encrypts a chunk in place, returning the detached tag. The
    /// zero-copy variant of [`CryptoEngine::seal_detached`] for callers
    /// that already own a mutable staging buffer.
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

    /// Decrypts a chunk against its detached tag.
    ///
    /// # Errors
    ///
    /// `Err(())` if the tag fails to verify (tampered data, wrong key,
    /// wrong nonce or wrong AAD). No plaintext is released.
    #[allow(clippy::result_unit_err)]
    pub fn open_detached(
        &mut self,
        cipher: &AesGcm,
        nonce: &[u8; 12],
        ciphertext: &[u8],
        tag: &[u8; 16],
        aad: &[u8],
    ) -> Result<Vec<u8>, ()> {
        self.stats.open_ops += 1;
        match cipher.open_detached(nonce, ciphertext, tag, aad) {
            Ok(plain) => {
                self.stats.bytes_decrypted += plain.len() as u64;
                Ok(plain)
            }
            Err(_) => {
                self.stats.auth_failures += 1;
                Err(())
            }
        }
    }

    /// Verifies and decrypts a chunk in place against its detached tag.
    /// On failure the buffer is left as ciphertext.
    ///
    /// # Errors
    ///
    /// `Err(())` if the tag fails to verify; no plaintext is produced.
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
        let (ct, tag) = engine.seal_detached(&key(), &[1; 12], &plaintext, b"aad");
        assert_eq!(ct.len(), plaintext.len(), "CTR ciphertext is size-preserving");
        assert_ne!(ct, plaintext);
        let back = engine.open_detached(&key(), &[1; 12], &ct, &tag, b"aad").unwrap();
        assert_eq!(back, plaintext);
    }

    #[test]
    fn tamper_and_wrong_context_fail() {
        let mut engine = CryptoEngine::new();
        let (ct, tag) = engine.seal_detached(&key(), &[1; 12], b"data", b"aad");
        let mut bad_ct = ct.clone();
        bad_ct[0] ^= 1;
        assert!(engine.open_detached(&key(), &[1; 12], &bad_ct, &tag, b"aad").is_err());
        assert!(engine.open_detached(&key(), &[2; 12], &ct, &tag, b"aad").is_err());
        assert!(engine.open_detached(&key(), &[1; 12], &ct, &tag, b"dad").is_err());
        let mut bad_tag = tag;
        bad_tag[15] ^= 1;
        assert!(engine.open_detached(&key(), &[1; 12], &ct, &bad_tag, b"aad").is_err());
        assert_eq!(engine.stats().auth_failures, 4);
    }

    #[test]
    fn counters_track_bytes() {
        let mut engine = CryptoEngine::new();
        let (ct, tag) = engine.seal_detached(&key(), &[1; 12], &[0; 1000], b"");
        engine.open_detached(&key(), &[1; 12], &ct, &tag, b"").unwrap();
        let stats = engine.stats();
        assert_eq!(stats.bytes_encrypted, 1000);
        assert_eq!(stats.bytes_decrypted, 1000);
        assert_eq!(stats.seal_ops, 1);
        assert_eq!(stats.open_ops, 1);
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
        let (ct1, tag1) = engine.seal_detached(&k128, &[0; 12], b"same input", b"");
        let (ct2, _) = engine.seal_detached(&k256, &[0; 12], b"same input", b"");
        assert_ne!(ct1, ct2);
        assert!(engine.open_detached(&k128, &[0; 12], &ct1, &tag1, b"").is_ok());
        assert!(engine.open_detached(&k256, &[0; 12], &ct1, &tag1, b"").is_err());
    }

    #[test]
    fn key_cache_is_transparent() {
        let mut engine = CryptoEngine::new();
        let k1 = AesGcm::new(&Key::Aes128([1; 16]));
        let k2 = AesGcm::new(&Key::Aes128([2; 16]));
        let (ct1, tag1) = engine.seal_detached(&k1, &[0; 12], b"x", b"");
        let (ct2, _) = engine.seal_detached(&k2, &[0; 12], b"x", b"");
        assert_ne!(ct1, ct2);
        assert!(engine.open_detached(&k1, &[0; 12], &ct1, &tag1, b"").is_ok());
        assert!(engine.open_detached(&k2, &[0; 12], &ct1, &tag1, b"").is_err());
    }
}
