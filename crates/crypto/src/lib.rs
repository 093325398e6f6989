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
//! * [`aes`] — FIPS-197 AES-128/256 block cipher;
//! * [`gcm`] — NIST SP 800-38D Galois/Counter Mode ([`AesGcm`]);
//! * [`sha256`](mod@sha256) — FIPS-180-4 SHA-256;
//! * [`hmac`] — RFC 2104 HMAC-SHA256 and RFC 5869 HKDF;
//! * [`bignum`] — odd-modulus Montgomery arithmetic for [`dh`]/[`schnorr`];
//! * [`dh`] — finite-field Diffie-Hellman over RFC 3526 MODP groups;
//! * [`schnorr`] — Schnorr signatures in the prime-order subgroup;
//! * [`iv`] — the IV manager with the H100-style exhaustion policy (§6);
//! * [`ct`] — constant-time comparison helpers.
//!
//! The functional datapath seals and opens every byte that crosses the
//! simulated PCIe-SC, so the bulk AEAD path and SHA-256 run on the
//! instructions the paper names wherever the CPU reports them (AES-NI,
//! PCLMULQDQ, SHA-NI — the private `hw` module, the only code in the
//! workspace allowed an `unsafe` block) and on a portable table path
//! everywhere else (compile-time AES T-tables, per-key GHASH tables for
//! `H..H⁴`; see [`gcm`]). The choice is a function of the CPU alone. The
//! seed's byte-at-a-time implementations are retained in [`scalar`]
//! (tests + the `scalar-oracle` feature) as differential oracles and as
//! the baseline the crypto benchmarks compare against. The asymmetric
//! primitives still favour clarity over speed.
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
pub mod bignum;
pub mod ct;
pub mod dh;
pub mod gcm;
mod ghash;
pub mod hmac;
#[cfg(target_arch = "x86_64")]
mod hw;
pub mod iv;
#[cfg(any(test, feature = "scalar-oracle"))]
pub mod scalar;
pub mod schnorr;
pub mod sha256;

pub use aes::{Aes, Key};
pub use dh::{DhGroup, DhKeyPair, DhPublic};
pub use gcm::{AesGcm, OpenError, NONCE_LEN, TAG_LEN};
pub use hmac::{hkdf, hmac_sha256};
pub use iv::{IvManager, IvStatus};
pub use schnorr::{SchnorrKeyPair, SchnorrPublic, Signature};
pub use sha256::{sha256, Digest, Sha256};
