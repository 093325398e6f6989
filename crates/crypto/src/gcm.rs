//! NIST SP 800-38D Galois/Counter Mode over AES.
//!
//! GCM provides the A2 security action of the Packet Handler (Table 1):
//! confidentiality *and* integrity for sensitive PCIe packet payloads. The
//! prototype parameters (§7.2) are mirrored here: 96-bit nonce concatenated
//! with a 32-bit counter, and a 128-bit authentication tag.
//!
//! This is the throughput-critical primitive of the whole reproduction —
//! every byte crossing the simulated PCIe-SC is sealed and opened in
//! 4 KiB chunks — and it has two backends computing the same bits,
//! chosen once per key by [`AesGcm::new`] from the CPU alone:
//!
//! * hardware (`crate::hw`, x86-64 with AES-NI + PCLMULQDQ): the
//!   instructions the paper's Adaptor uses — an `aeskeygenassist` key
//!   schedule, eight counter blocks interleaved through `aesenc`, GHASH
//!   by carry-less multiply against `H¹..H⁸` with one reduction per
//!   eight blocks, and one in all for a tag whose AAD, ciphertext and
//!   lengths block fit in eight (`aesni-pclmul`). Where the CPU also reports AVX-512F,
//!   AVX-512BW, VAES and VPCLMULQDQ, whole 256-byte slabs run first,
//!   sixteen blocks in four 512-bit registers through `vaesenc` and
//!   GHASH against `H¹⁶..H¹` with one reduction per slab, and the rest
//!   takes the eight-lane path (`vaes-vpclmul`). Same key, same bits; the
//!   CPU alone decides;
//! * `portable` (every other CPU, and the differential reference on this
//!   one, [`AesGcm::portable`]): bitsliced AES over four blocks per pass
//!   ([`crate::aes`]) and GHASH by integer multiplies with holes
//!   (`crate::ghash`).
//!
//! Both are constant-time — no table indexed by data, no branch on it —
//! and keep no per-key tables beyond round keys and hash-key powers.
//! Both seal in two passes — CTR, then GHASH over the ciphertext; on the
//! hardware each pass runs at its unit's throughput, a fused single loop
//! measured slower on the eight-lane path, and the wide path keeps the
//! same two passes — and open in two passes —
//! GHASH-verify, then CTR — so a failed open leaves the buffer untouched,
//! and the detached in-place APIs ([`AesGcm::seal_in_place_detached`],
//! [`AesGcm::open_in_place_detached`]) let the Packet Handler engine and
//! the Adaptor staging path crypt whole buffers with zero concatenation
//! or re-copying.

use crate::aes::{Aes, Key};
use crate::ct::ct_eq;
use crate::ghash::ghash;
#[cfg(target_arch = "x86_64")]
use crate::hw::AesNiGcm;
use std::fmt;

/// Authentication tag length in bytes (128-bit tags, as in the prototype).
pub const TAG_LEN: usize = 16;

/// Nonce length in bytes (96-bit nonces; the remaining 32 bits of the IV
/// are the GCM block counter).
pub const NONCE_LEN: usize = 12;

/// Error returned when authenticated decryption fails.
///
/// The two variants are distinguishable so callers (the SC's Packet
/// Handler, the differential fault-injection suite) can tell a framing
/// problem from a cryptographic one, but neither releases any plaintext
/// and neither leaks *where* verification diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenError {
    /// The authentication tag did not verify: wrong key, wrong nonce,
    /// wrong AAD, or a tampered ciphertext.
    TagMismatch,
    /// The sealed input is shorter than an authentication tag, so there
    /// is no tag to verify against.
    Truncated,
}

impl fmt::Display for OpenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OpenError::TagMismatch => write!(f, "authentication tag mismatch"),
            OpenError::Truncated => write!(f, "sealed input shorter than an authentication tag"),
        }
    }
}

impl std::error::Error for OpenError {}

/// The portable backend: bitsliced AES and the hash key `H = E_K(0¹²⁸)`.
#[derive(Clone)]
struct PortableGcm {
    aes: Aes,
    h: u128,
}

impl PortableGcm {
    fn new(key: &Key) -> PortableGcm {
        let aes = Aes::new(key);
        let mut h = [0u8; 16];
        aes.encrypt_block(&mut h);
        PortableGcm {
            aes,
            h: u128::from_be_bytes(h),
        }
    }

    /// XORs the CTR keystream for counters `counter..` (wrapping as
    /// `inc32`) over `data` in place, four blocks per pass.
    fn ctr_xor(&self, nonce: &[u8; NONCE_LEN], mut counter: u32, data: &mut [u8]) {
        for chunk in data.chunks_mut(64) {
            let keystream = self.aes.ctr_keystream(nonce, counter);
            for (d, k) in chunk.iter_mut().zip(keystream.as_flattened()) {
                *d ^= k;
            }
            counter = counter.wrapping_add(4);
        }
    }

    /// The tag over `aad ‖ ciphertext`, masked with `E(K, nonce ‖ 1)`.
    fn tag(&self, nonce: &[u8; NONCE_LEN], ciphertext: &[u8], aad: &[u8]) -> [u8; TAG_LEN] {
        let [mask, ..] = self.aes.ctr_keystream(nonce, 1);
        (ghash(self.h, aad, ciphertext) ^ u128::from_be_bytes(mask)).to_be_bytes()
    }
}

/// Which implementation a key's schedule was expanded for. Both compute
/// the same function; the CPU decides, nothing else can.
// The hardware variant is the one in use wherever it exists; boxing it
// would put a heap allocation into every key set-up.
#[allow(clippy::large_enum_variant)]
#[derive(Clone)]
enum Backend {
    #[cfg(target_arch = "x86_64")]
    AesNi(AesNiGcm),
    Portable(PortableGcm),
}

/// AES-GCM authenticated encryption.
///
/// # Example
///
/// ```
/// use ccai_crypto::{AesGcm, Key};
///
/// let gcm = AesGcm::new(&Key::Aes128([1; 16]));
/// let ct = gcm.seal(&[2; 12], b"secret", b"aad");
/// assert_eq!(gcm.open(&[2; 12], &ct, b"aad").unwrap(), b"secret");
/// assert!(gcm.open(&[2; 12], &ct, b"bad aad").is_err());
/// ```
#[derive(Clone)]
pub struct AesGcm {
    backend: Backend,
}

impl fmt::Debug for AesGcm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The backend's name and nothing else: never key material.
        f.debug_struct("AesGcm")
            .field("backend", &self.backend())
            .finish()
    }
}

impl AesGcm {
    /// Creates a GCM instance from an AES key.
    ///
    /// Key setup expands the AES round keys and derives the hash key
    /// `H = E_K(0¹²⁸)` — where the CPU reports AES-NI, PCLMULQDQ, SSSE3
    /// and SSE4.1 entirely on those instructions, plus `H`'s eight
    /// `pclmulqdq` powers (sixteen where the wide slab path runs);
    /// whoever owns the key pays this once and keeps the instance.
    pub fn new(key: &Key) -> AesGcm {
        #[cfg(target_arch = "x86_64")]
        if let Some(hw) = AesNiGcm::detect(key) {
            return AesGcm {
                backend: Backend::AesNi(hw),
            };
        }
        AesGcm::portable(key)
    }

    /// The portable backend whatever the CPU offers: the differential
    /// reference [`AesGcm::new`] is tested against.
    pub fn portable(key: &Key) -> AesGcm {
        AesGcm {
            backend: Backend::Portable(PortableGcm::new(key)),
        }
    }

    /// The hardware backend with its wide slab path switched off: on a
    /// VAES CPU, the eight-lane path [`AesGcm::new`] no longer picks.
    #[cfg(test)]
    fn narrow(key: &Key) -> Option<AesGcm> {
        #[cfg(target_arch = "x86_64")]
        return AesNiGcm::detect(key).map(|hw| AesGcm {
            backend: Backend::AesNi(hw.narrow()),
        });
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = key;
            None
        }
    }

    /// Name of the path this instance runs: `"vaes-vpclmul"` (hardware,
    /// whole 256-byte slabs on 512-bit registers), `"aesni-pclmul"`
    /// (hardware, 128-bit registers) or `"portable"`.
    pub fn backend(&self) -> &'static str {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.name(),
            Backend::Portable(_) => "portable",
        }
    }

    /// XORs the CTR keystream (counters 2..; 1 masks the tag) over
    /// `data` in place.
    fn ctr_xor(&self, nonce: &[u8; NONCE_LEN], data: &mut [u8]) {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.ctr_xor(nonce, 2, data),
            Backend::Portable(portable) => portable.ctr_xor(nonce, 2, data),
        }
    }

    fn tag(&self, nonce: &[u8; NONCE_LEN], ciphertext: &[u8], aad: &[u8]) -> [u8; TAG_LEN] {
        match &self.backend {
            #[cfg(target_arch = "x86_64")]
            Backend::AesNi(hw) => hw.tag(nonce, ciphertext, aad),
            Backend::Portable(portable) => portable.tag(nonce, ciphertext, aad),
        }
    }

    /// Encrypts `buf` in place and returns the detached authentication
    /// tag. The ciphertext keeps the plaintext's length; nothing is
    /// allocated or copied.
    pub fn seal_in_place_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        buf: &mut [u8],
        aad: &[u8],
    ) -> [u8; TAG_LEN] {
        self.ctr_xor(nonce, buf);
        self.tag(nonce, buf, aad)
    }

    /// Verifies `tag` over the ciphertext in `buf` and, on success,
    /// decrypts `buf` in place.
    ///
    /// # Errors
    ///
    /// Returns [`OpenError::TagMismatch`] on a tag mismatch; `buf` is
    /// left as ciphertext and no plaintext is produced.
    pub fn open_in_place_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        buf: &mut [u8],
        tag: &[u8; TAG_LEN],
        aad: &[u8],
    ) -> Result<(), OpenError> {
        if !ct_eq(&self.tag(nonce, buf, aad), tag) {
            return Err(OpenError::TagMismatch);
        }
        self.ctr_xor(nonce, buf);
        Ok(())
    }

    /// Allocating convenience over [`AesGcm::seal_in_place_detached`]:
    /// returns `(ciphertext, tag)` with `ciphertext.len() ==
    /// plaintext.len()`.
    #[doc(hidden)]
    pub fn seal_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        plaintext: &[u8],
        aad: &[u8],
    ) -> (Vec<u8>, [u8; TAG_LEN]) {
        let mut out = plaintext.to_vec();
        let tag = self.seal_in_place_detached(nonce, &mut out, aad);
        (out, tag)
    }

    /// Allocating convenience over [`AesGcm::open_in_place_detached`].
    ///
    /// # Errors
    ///
    /// Returns [`OpenError::TagMismatch`] on a tag mismatch; no
    /// plaintext is released.
    pub fn open_detached(
        &self,
        nonce: &[u8; NONCE_LEN],
        ciphertext: &[u8],
        tag: &[u8; TAG_LEN],
        aad: &[u8],
    ) -> Result<Vec<u8>, OpenError> {
        if !ct_eq(&self.tag(nonce, ciphertext, aad), tag) {
            return Err(OpenError::TagMismatch);
        }
        let mut out = ciphertext.to_vec();
        self.ctr_xor(nonce, &mut out);
        Ok(out)
    }

    /// Encrypts `plaintext`, binding `aad`; returns `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], plaintext: &[u8], aad: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place_detached(nonce, &mut out, aad);
        out.extend_from_slice(&tag);
        out
    }

    /// Decrypts `ciphertext || tag` produced by [`AesGcm::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`OpenError::Truncated`] if the input is shorter than a
    /// tag, and [`OpenError::TagMismatch`] if the authentication tag does
    /// not verify (wrong key, nonce, AAD, or a tampered ciphertext). No
    /// plaintext is released on failure.
    pub fn open(
        &self,
        nonce: &[u8; NONCE_LEN],
        sealed: &[u8],
        aad: &[u8],
    ) -> Result<Vec<u8>, OpenError> {
        if sealed.len() < TAG_LEN {
            return Err(OpenError::Truncated);
        }
        let (ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let mut tag_arr = [0u8; TAG_LEN];
        tag_arr.copy_from_slice(tag);
        self.open_detached(nonce, ciphertext, &tag_arr, aad)
    }

    /// Computes only the authentication tag over `data` (used for the A3
    /// "integrity check (plain)" action where the payload stays cleartext).
    pub fn tag_only(&self, nonce: &[u8; NONCE_LEN], data: &[u8]) -> [u8; TAG_LEN] {
        self.tag(nonce, &[], data)
    }

    /// Verifies a tag produced by [`AesGcm::tag_only`].
    pub fn verify_tag_only(
        &self,
        nonce: &[u8; NONCE_LEN],
        data: &[u8],
        tag: &[u8; TAG_LEN],
    ) -> bool {
        ct_eq(&self.tag_only(nonce, data), tag)
    }
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

    fn nonce(bytes: &[u8]) -> [u8; 12] {
        let mut n = [0u8; 12];
        n.copy_from_slice(bytes);
        n
    }

    /// Whatever [`AesGcm::new`] selects on this CPU, the eight-lane
    /// hardware path where `new` runs wide slabs, and the portable
    /// reference last; logs the set so a run shows what was compared.
    fn backends(key: &Key) -> Vec<AesGcm> {
        let chosen = AesGcm::new(key);
        let narrow = AesGcm::narrow(key).filter(|n| n.backend() != chosen.backend());
        let mut all = vec![chosen];
        all.extend(narrow);
        all.push(AesGcm::portable(key));
        let names: Vec<&str> = all.iter().map(AesGcm::backend).collect();
        eprintln!("gcm backends under test: {}", names.join(", "));
        all
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// McGrew–Viega GCM spec test case 1: empty plaintext, zero key.
    #[test]
    fn gcm_test_case_1() {
        for gcm in backends(&Key::Aes128([0; 16])) {
            let sealed = gcm.seal(&[0u8; 12], b"", b"");
            assert_eq!(
                sealed,
                hex("58e2fccefa7e3061367f1d57a4e7455a"),
                "{}",
                gcm.backend()
            );
        }
    }

    /// GCM spec test case 2: single zero block.
    #[test]
    fn gcm_test_case_2() {
        for gcm in backends(&Key::Aes128([0; 16])) {
            let sealed = gcm.seal(&[0u8; 12], &[0u8; 16], b"");
            assert_eq!(
                sealed,
                hex("0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf"),
                "{}",
                gcm.backend()
            );
        }
    }

    /// Cross-implementation vector: the McGrew–Viega TC4 key/IV/AAD with a
    /// 56-byte plaintext (partial final block), independently computed with
    /// the `cryptography` (OpenSSL-backed) reference implementation.
    #[test]
    fn gcm_cross_impl_partial_block_with_aad() {
        let key = Key::from_bytes(&hex("feffe9928665731c6d6a8f9467308308")).unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aee8b16d4fa4c",
        );
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let n = nonce(&hex("cafebabefacedbaddecaf888"));
        for gcm in backends(&key) {
            let sealed = gcm.seal(&n, &pt, &aad);
            let (ct, tag) = sealed.split_at(sealed.len() - 16);
            assert_eq!(
                ct.to_vec(),
                hex(
                    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                     21d514b25466931c7d8f6a5aac84aa051ba30847d6d3b08c"
                ),
                "{}",
                gcm.backend()
            );
            assert_eq!(
                tag.to_vec(),
                hex("a446f3f1b5da810b5ae7653a4520861d"),
                "{}",
                gcm.backend()
            );
            assert_eq!(gcm.open(&n, &sealed, &aad).unwrap(), pt);
        }
    }

    /// Cross-implementation AES-256-GCM vector (OpenSSL-backed reference).
    #[test]
    fn gcm_cross_impl_aes256() {
        let mut key_bytes = [0u8; 32];
        for (i, b) in key_bytes.iter_mut().enumerate() {
            *b = i as u8;
        }
        for gcm in backends(&Key::Aes256(key_bytes)) {
            let sealed = gcm.seal(
                &nonce(&hex("101112131415161718191a1b")),
                b"ccAI cross-implementation vector",
                b"hdr",
            );
            assert_eq!(
                sealed,
                hex(
                    "1e9dd95f69aa48dcb906257462090536ba35207a7ab63ede89d994023d203ba9\
                     6bc2bb79522c0ae2f9fb22031c300a90"
                ),
                "{}",
                gcm.backend()
            );
        }
    }

    #[test]
    fn round_trip_various_sizes() {
        let gcm = AesGcm::new(&Key::Aes256([0x33; 32]));
        let n = [9u8; 12];
        // Sizes straddle both backends' multi-block passes (64 and 128
        // bytes) both ways.
        for len in [0usize, 1, 15, 16, 17, 100, 127, 128, 129, 255, 256, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let sealed = gcm.seal(&n, &pt, b"hdr");
            assert_eq!(sealed.len(), len + TAG_LEN);
            assert_eq!(gcm.open(&n, &sealed, b"hdr").unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn detached_in_place_round_trip() {
        let gcm = AesGcm::new(&Key::Aes128([0x21; 16]));
        let n = [4u8; 12];
        for len in [0usize, 5, 16, 127, 128, 4096] {
            let pt: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut buf = pt.clone();
            let tag = gcm.seal_in_place_detached(&n, &mut buf, b"aad");
            assert_eq!(buf.len(), pt.len());
            if len > 0 {
                assert_ne!(buf, pt);
            }
            // Same bytes as the attached form.
            let sealed = gcm.seal(&n, &pt, b"aad");
            assert_eq!(&sealed[..len], &buf[..]);
            assert_eq!(&sealed[len..], &tag);
            gcm.open_in_place_detached(&n, &mut buf, &tag, b"aad").unwrap();
            assert_eq!(buf, pt, "len {len}");
        }
    }

    #[test]
    fn open_in_place_rejects_without_decrypting() {
        let gcm = AesGcm::new(&Key::Aes128([0x21; 16]));
        let n = [4u8; 12];
        let mut buf = b"chunk of workload data".to_vec();
        let tag = gcm.seal_in_place_detached(&n, &mut buf, b"");
        let ciphertext = buf.clone();
        let mut bad_tag = tag;
        bad_tag[0] ^= 1;
        assert_eq!(
            gcm.open_in_place_detached(&n, &mut buf, &bad_tag, b""),
            Err(OpenError::TagMismatch)
        );
        // Failed open must leave the buffer untouched (still ciphertext).
        assert_eq!(buf, ciphertext);
    }

    #[test]
    fn tamper_detection_every_byte() {
        for gcm in backends(&Key::Aes128([0x11; 16])) {
            let n = [3u8; 12];
            // Long enough to tamper inside a full 8-block slab, several
            // 4-block passes and a partial tail.
            let pt: Vec<u8> = (0..150).map(|i| (i * 29) as u8).collect();
            let sealed = gcm.seal(&n, &pt, b"");
            for i in 0..sealed.len() {
                let mut bad = sealed.clone();
                bad[i] ^= 0x80;
                assert_eq!(
                    gcm.open(&n, &bad, b""),
                    Err(OpenError::TagMismatch),
                    "{}: tamper at byte {i} undetected",
                    gcm.backend()
                );
            }
        }
    }

    #[test]
    fn wrong_nonce_or_key_fails() {
        let gcm = AesGcm::new(&Key::Aes128([0x11; 16]));
        let sealed = gcm.seal(&[1u8; 12], b"payload", b"");
        assert!(gcm.open(&[2u8; 12], &sealed, b"").is_err());
        let other = AesGcm::new(&Key::Aes128([0x12; 16]));
        assert!(other.open(&[1u8; 12], &sealed, b"").is_err());
    }

    #[test]
    fn truncated_input_rejected() {
        let gcm = AesGcm::new(&Key::Aes128([0; 16]));
        // Too short to even hold a tag: a distinct error from mismatch.
        for len in 0..TAG_LEN {
            let sealed = vec![0u8; len];
            assert_eq!(gcm.open(&[0u8; 12], &sealed, b""), Err(OpenError::Truncated));
        }
        // Exactly TAG_LEN junk bytes is long enough to *be* a tag — it
        // must fail as a mismatch instead.
        assert_eq!(gcm.open(&[0u8; 12], &[0u8; TAG_LEN], b""), Err(OpenError::TagMismatch));
    }

    /// A failed in-place open must leave the caller's buffer untouched for
    /// every buffer shape, including the multi-slab bulk path, on both
    /// backends.
    #[test]
    fn failed_open_never_touches_the_buffer() {
        for gcm in backends(&Key::Aes256([0x5A; 32])) {
            let which = gcm.backend();
            let n = [8u8; 12];
            for len in [1usize, 16, 127, 128, 129, 4096] {
                let pt: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
                let mut buf = pt.clone();
                let tag = gcm.seal_in_place_detached(&n, &mut buf, b"aad");
                let ciphertext = buf.clone();

                let mut bad_tag = tag;
                bad_tag[TAG_LEN - 1] ^= 0x40;
                assert_eq!(
                    gcm.open_in_place_detached(&n, &mut buf, &bad_tag, b"aad"),
                    Err(OpenError::TagMismatch),
                    "{which} len {len}"
                );
                assert_eq!(
                    buf, ciphertext,
                    "{which} len {len}: buffer modified on bad tag"
                );

                // Wrong AAD is also a mismatch and also leaves the bytes alone.
                assert_eq!(
                    gcm.open_in_place_detached(&n, &mut buf, &tag, b"other"),
                    Err(OpenError::TagMismatch),
                    "{which} len {len}"
                );
                assert_eq!(
                    buf, ciphertext,
                    "{which} len {len}: buffer modified on bad AAD"
                );

                // And the correct tag still opens the untouched ciphertext.
                gcm.open_in_place_detached(&n, &mut buf, &tag, b"aad")
                    .unwrap();
                assert_eq!(buf, pt, "{which} len {len}");
            }
        }
    }

    #[test]
    fn open_error_variants_display_distinctly() {
        let mismatch = format!("{}", OpenError::TagMismatch);
        let truncated = format!("{}", OpenError::Truncated);
        assert_ne!(mismatch, truncated);
        assert!(mismatch.contains("mismatch"));
        assert!(truncated.contains("shorter"));
    }

    #[test]
    fn tag_only_integrity() {
        let gcm = AesGcm::new(&Key::Aes128([0x77; 16]));
        let n = [5u8; 12];
        let tag = gcm.tag_only(&n, b"mmio command");
        assert!(gcm.verify_tag_only(&n, b"mmio command", &tag));
        assert!(!gcm.verify_tag_only(&n, b"mmio commane", &tag));
        assert!(!gcm.verify_tag_only(&[6u8; 12], b"mmio command", &tag));
    }

    /// Random keys of both widths, random nonce, AAD and plaintext
    /// shapes: [`AesGcm::new`] and the portable reference seal the same
    /// bytes and each opens what the other sealed.
    #[test]
    fn differential_on_random_keys() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        for trial in 0..24 {
            let key = if trial % 2 == 0 {
                let mut k = [0u8; 16];
                k.iter_mut().for_each(|b| *b = next() as u8);
                Key::Aes128(k)
            } else {
                let mut k = [0u8; 32];
                k.iter_mut().for_each(|b| *b = next() as u8);
                Key::Aes256(k)
            };
            let gcms = backends(&key);
            let (portable, hardware) = gcms.split_last().expect("portable is last");
            let mut n = [0u8; 12];
            n.iter_mut().for_each(|b| *b = next() as u8);
            let pt_len = (next() % 700) as usize;
            let aad_len = (next() % 48) as usize;
            let pt: Vec<u8> = (0..pt_len).map(|_| next() as u8).collect();
            let aad: Vec<u8> = (0..aad_len).map(|_| next() as u8).collect();

            let sealed = portable.seal(&n, &pt, &aad);
            for chosen in hardware {
                let which = chosen.backend();
                assert_eq!(chosen.seal(&n, &pt, &aad), sealed, "{which} trial {trial}");
                // Cross-open both ways.
                assert_eq!(chosen.open(&n, &sealed, &aad).unwrap(), pt, "{which}");
            }
            assert_eq!(portable.open(&n, &sealed, &aad).unwrap(), pt);
        }
    }

    /// More of the McGrew–Viega / SP 800-38D vectors through both
    /// backends: test cases 3 and 4 (AES-128, four whole blocks; AAD
    /// and a partial final block) and 13 and 14 (AES-256, empty and one
    /// zero block).
    #[test]
    fn known_vectors_through_both_paths() {
        let key = Key::from_bytes(&hex("feffe9928665731c6d6a8f9467308308")).unwrap();
        let n = nonce(&hex("cafebabefacedbaddecaf888"));
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let ct = hex(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        );
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let zero256 = Key::Aes256([0; 32]);
        for gcm in backends(&key) {
            let which = gcm.backend();
            let tc3 = [&ct[..], &hex("4d5c2af327cd64a62cf35abd2ba6fab4")].concat();
            assert_eq!(gcm.seal(&n, &pt, b""), tc3, "{which} TC3");
            let tc4 = [&ct[..60], &hex("5bc94fbc3221a5db94fae95ae7121a47")].concat();
            assert_eq!(gcm.seal(&n, &pt[..60], &aad), tc4, "{which} TC4");
        }
        for gcm in backends(&zero256) {
            let which = gcm.backend();
            assert_eq!(
                gcm.seal(&[0; 12], b"", b""),
                hex("530f8afbc74536b9a963b4f1c4cb738b"),
                "{which} TC13"
            );
            assert_eq!(
                gcm.seal(&[0; 12], &[0; 16], b""),
                hex("cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919"),
                "{which} TC14"
            );
        }
    }

    /// The backend is a function of the CPU alone: hardware exactly where
    /// the features `hw` compiles with are all reported — its wide slab
    /// path exactly where the 512-bit ones are too — the portable path
    /// otherwise, so on such a CPU none of the differential tests
    /// compares the portable path with itself.
    #[test]
    fn backend_follows_the_cpu_and_debug_names_only_it() {
        #[cfg(target_arch = "x86_64")]
        let (hw, wide) = (
            is_x86_feature_detected!("aes")
                && is_x86_feature_detected!("pclmulqdq")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1"),
            is_x86_feature_detected!("avx512f")
                && is_x86_feature_detected!("avx512bw")
                && is_x86_feature_detected!("vaes")
                && is_x86_feature_detected!("vpclmulqdq"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (hw, wide) = (false, false);
        let gcms = backends(&Key::Aes128([0xEE; 16]));
        let expected = match (hw, wide) {
            (true, true) => "vaes-vpclmul",
            (true, false) => "aesni-pclmul",
            (false, _) => "portable",
        };
        assert_eq!(gcms[0].backend(), expected);
        assert_eq!(gcms.last().unwrap().backend(), "portable");
        if hw && wide {
            assert_eq!(gcms[1].backend(), "aesni-pclmul", "the narrowed path names itself");
        }
        for gcm in gcms {
            let dbg = format!("{gcm:?}");
            assert_eq!(dbg, format!("AesGcm {{ backend: {:?} }}", gcm.backend()));
            assert!(
                !dbg.to_lowercase().contains("ee") && !dbg.contains("238"),
                "{dbg}"
            );
        }
    }

    /// One (key, nonce, aad, plaintext) through every entry point of
    /// every backend in `gcms` (portable last): identical bytes, and each
    /// opens what the others sealed.
    fn assert_backends_agree(gcms: &[AesGcm], n: &[u8; 12], pt: &[u8], aad: &[u8]) {
        let ctx = format!("pt {} aad {}", pt.len(), aad.len());
        let (portable, hardware) = gcms.split_last().expect("portable is last");
        let sealed = portable.seal(n, pt, aad);
        let (ct, tag) = sealed.split_at(pt.len());
        let tag: [u8; TAG_LEN] = tag.try_into().unwrap();
        for gcm in gcms {
            let which = gcm.backend();
            assert_eq!(gcm.seal(n, pt, aad), sealed, "{which} seal, {ctx}");
            assert_eq!(
                gcm.seal_detached(n, pt, aad),
                (ct.to_vec(), tag),
                "{which} detached, {ctx}"
            );
            let mut buf = pt.to_vec();
            assert_eq!(
                gcm.seal_in_place_detached(n, &mut buf, aad),
                tag,
                "{which} in place, {ctx}"
            );
            assert_eq!(buf, ct, "{which} in place, {ctx}");
            // Opens what either backend sealed, through every open form.
            assert_eq!(
                gcm.open(n, &sealed, aad).as_deref(),
                Ok(pt),
                "{which} open, {ctx}"
            );
            assert_eq!(
                gcm.open_detached(n, ct, &tag, aad).as_deref(),
                Ok(pt),
                "{which}, {ctx}"
            );
            gcm.open_in_place_detached(n, &mut buf, &tag, aad).unwrap();
            assert_eq!(buf, pt, "{which} open in place, {ctx}");
        }
        for gcm in hardware {
            let which = gcm.backend();
            assert_eq!(
                gcm.tag_only(n, pt),
                portable.tag_only(n, pt),
                "{which} tag_only, {ctx}"
            );
            assert!(
                portable.verify_tag_only(n, aad, &gcm.tag_only(n, aad)),
                "{which} tag_only, {ctx}"
            );
        }
    }

    /// Every `(aad, ciphertext)` shape of 0–9 blocks in all, each side
    /// whole or ending in a partial block: with the lengths block that
    /// is 1–10 GHASH blocks, both sides of the hardware paths' one-run
    /// edge (a tag whose blocks fit in one eight-block run takes one
    /// reduction), on every path against the portable reference.
    #[test]
    fn backends_agree_on_short_tags_at_every_block_count() {
        let mut next = xorshift(0x510E_527F_ADE6_82D1);
        let data: Vec<u8> = (0..16 * 9).map(|_| next() as u8).collect();
        let lengths: Vec<usize> =
            std::iter::once(0).chain((1..=9).flat_map(|k| [16 * k - 9, 16 * k])).collect();
        for key in [Key::Aes128([0x4E; 16]), Key::Aes256([0xE4; 32])] {
            let gcms = backends(&key);
            for &aad_len in &lengths {
                for &ct_len in &lengths {
                    if aad_len.div_ceil(16) + ct_len.div_ceil(16) > 9 {
                        continue;
                    }
                    let n = [(aad_len * 16 + ct_len) as u8; 12];
                    let (aad, pt) = (&data[..aad_len], &data[data.len() - ct_len..]);
                    assert_backends_agree(&gcms, &n, pt, aad);
                }
            }
        }
    }

    /// Lengths around the wide path's 256-byte slab, its eight-lane
    /// remainder and the 4 KiB chunk.
    const SLAB_EDGES: [usize; 11] = [255, 256, 257, 383, 384, 385, 511, 513, 4095, 4096, 4097];

    /// Every plaintext length 0..=300 and every AAD length 0..=300 — all
    /// residues mod 16 (partial blocks), mod 64 (the portable four-block
    /// pass) and mod 128 (the hardware eight-block slab and its tail) —
    /// plus the lengths either side of the wide path's 256-byte slabs,
    /// under AES-128 and AES-256.
    #[test]
    fn backends_agree_bit_for_bit_at_every_length() {
        let mut next = xorshift(0xA076_1D64_78BD_642F);
        let data: Vec<u8> = (0..4097).map(|_| next() as u8).collect();
        for key in [Key::Aes128([0x3C; 16]), Key::Aes256([0xC3; 32])] {
            let gcms = backends(&key);
            let mut n = [0u8; 12];
            for len in (0..=300).chain(SLAB_EDGES) {
                n.iter_mut().for_each(|b| *b = next() as u8);
                assert_backends_agree(&gcms, &n, &data[..len], &data[..len % 23]);
                assert_backends_agree(&gcms, &n, &data[..77], &data[..len]);
            }
        }
    }

    /// The datapath's sizes: one chunk, one descriptor, one bulk
    /// transfer; then the slab edges as plaintext and as AAD.
    #[test]
    fn backends_agree_on_bulk_sizes() {
        let mut next = xorshift(0xE703_7ED1_A0B4_28DB);
        let data: Vec<u8> = (0..(1 << 20) + 5).map(|_| next() as u8).collect();
        for key in [Key::Aes128([0x6D; 16]), Key::Aes256([0xD6; 32])] {
            let gcms = backends(&key);
            for len in [4096, 4096 + 1, 65536, 65536 - 1, 1 << 20, (1 << 20) + 5] {
                assert_backends_agree(&gcms, &[len as u8; 12], &data[..len], b"chunk header");
            }
            for len in SLAB_EDGES {
                let n = [len as u8; 12];
                assert_backends_agree(&gcms, &n, &data[..len], &data[len..len + 300]);
                assert_backends_agree(&gcms, &n, &data[..4096], &data[len..2 * len]);
            }
        }
    }
}
