//! Cryptographic substrate for the ccAI reproduction.
//!
//! The ccAI prototype relies on three cryptographic facilities:
//!
//! 1. **AES-GCM** for workload confidentiality and integrity over the PCIe
//!    bus — the Adaptor encrypts in the TVM (with AES-NI on the real system)
//!    and the PCIe-SC's AES-GCM-SHA hardware engine decrypts/verifies
//!    (§4.2, §7.2). The paper's parameters are 12-byte nonce + 4-byte
//!    counter IVs and 16-byte authentication tags.
//! 2. **Hashing/signing** for trust establishment — PCR measurement chains,
//!    attestation-key signatures over PCR quotes (§6).
//! 3. **Diffie-Hellman** session-key exchange between the verifier and the
//!    ccAI platform (§6, Fig. 6).
//!
//! No crypto crates exist in the sanctioned offline dependency set, so every
//! primitive is implemented here from the public definitions:
//!
//! * [`aes`] — AES-128/256 keys, and the FIPS-197 block cipher behind the
//!   portable backend (bitsliced, constant-time);
//! * [`gcm`] — NIST SP 800-38D Galois/Counter Mode ([`AesGcm`]);
//! * [`sha256`](mod@sha256) — FIPS-180-4 SHA-256;
//! * [`hmac`] — RFC 2104 HMAC-SHA256 and RFC 5869 HKDF;
//! * `edwards25519` (private) — the curve group behind [`dh`] and
//!   [`schnorr`]: field arithmetic mod 2²⁵⁵ − 19, points, and one
//!   scalar multiplication whose work does not depend on the scalar;
//! * [`dh`] — Diffie-Hellman on edwards25519, 32-byte publics;
//! * [`schnorr`] — Schnorr signatures on edwards25519, 64 bytes each;
//! * [`iv`] — the IV manager with the H100-style exhaustion policy (§6);
//! * [`ct`] — constant-time comparison and table-lookup helpers.
//!
//! The functional datapath seals and opens every byte that crosses the
//! simulated PCIe-SC, so the bulk AEAD path and SHA-256 run on the
//! instructions the paper names wherever the CPU reports them (AES-NI,
//! PCLMULQDQ, SHA-NI, and VAES + VPCLMULQDQ on 512-bit registers for
//! whole 256-byte slabs — the private `hw` module, the only code in the
//! workspace allowed an `unsafe` block) and on one portable backend
//! everywhere else: bitsliced AES ([`aes`]) and GHASH by integer
//! multiplies ([`gcm`]), constant-time by construction because that
//! fallback is what the trusted Adaptor would run on a core whose caches
//! the untrusted host shares. The choice is a function of the CPU alone;
//! [`AesGcm::portable`] / [`Sha256::portable`] pin the portable path as the
//! differential reference for the hardware one. The asymmetric
//! primitives run once per boot, not per byte; they are portable Rust,
//! and their scalar multiplication does the same work for every scalar.
//!
//! # Example
//!
//! ```
//! use ccai_crypto::{AesGcm, Key};
//!
//! let key = Key::Aes128([0x42; 16]);
//! let cipher = AesGcm::new(&key);
//! let nonce = [7u8; 12];
//! let sealed = cipher.seal(&nonce, b"model weights", b"header");
//! let opened = cipher.open(&nonce, &sealed, b"header").expect("tag verifies");
//! assert_eq!(opened, b"model weights");
//! ```

// `deny`, not `forbid`: `hw` alone lifts the lint, for the calls into
// its `#[target_feature]` entry points.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod aes;
pub mod ct;
pub mod dh;
mod edwards25519;
pub mod gcm;
mod ghash;
pub mod hmac;
#[cfg(target_arch = "x86_64")]
mod hw;
pub mod iv;
pub mod schnorr;
pub mod sha256;

pub use aes::Key;
pub use dh::{DhKeyPair, DhPublic};
pub use gcm::{AesGcm, OpenError, NONCE_LEN, TAG_LEN};
pub use hmac::{hkdf, hmac_sha256, HmacSha256};
pub use iv::{IvManager, IvStatus};
pub use schnorr::{SchnorrKeyPair, SchnorrPublic, Signature};
pub use sha256::{sha256, Digest, Sha256};
