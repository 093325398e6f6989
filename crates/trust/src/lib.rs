//! Trust establishment for the ccAI reproduction (§6).
//!
//! ccAI must convince a remote user that the TVM, the PCIe-SC and the xPU
//! are the components they claim to be before any workload key is
//! released. This crate implements that machinery:
//!
//! * [`pcr`] — TPM-style Platform Configuration Registers with
//!   hash-chained extension;
//! * [`hrot`] — the HRoT-Blade: Endorsement Key installed at manufacture,
//!   Attestation Key generated at boot, PCR quoting;
//! * [`secure_boot`] — decrypt-then-measure boot of the PCIe-SC's
//!   bitstream and firmware from external flash, verified against golden
//!   measurements;
//! * [`attest`] — the Fig. 6 remote-attestation protocol (DH session key,
//!   EK→AK certification against a vendor CA, nonce challenge, signed PCR
//!   quote);
//! * [`keymgmt`] — workload key negotiation, per-stream IV discipline and
//!   H100-style rotation on IV exhaustion, destruction at task end;
//! * [`sealing`] — the sealed-chassis sensors sampled over I²C whose
//!   readings extend a PCR, making physical tampering attestable;
//! * [`bringup`] — the attestation-gated bring-up state machine
//!   (`PowerOn → SecureBooted → Attested → KeysReleased → FiltersArmed →
//!   Serving`) that sequences all of the above and refuses every
//!   out-of-order or stale-evidence transition.
//!
//! # Example
//!
//! ```
//! use ccai_trust::{pcr::PcrBank, hrot::HrotBlade};
//!
//! let blade = HrotBlade::manufacture(b"vendor-entropy-0123456789abcdef!");
//! assert!(blade.pcrs().read(0).as_bytes().iter().all(|&b| b == 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attest;
pub mod bringup;
pub mod hrot;
pub mod keymgmt;
pub mod pcr;
pub mod sealing;
pub mod secure_boot;

pub use attest::{AttestationError, Platform, Verifier};
pub use bringup::{BringUp, BringUpError, BringUpState, BringUpStep, TrustFixture};
pub use hrot::HrotBlade;
pub use keymgmt::{KeyManagerError, WorkloadKeyManager};
pub use pcr::{PcrBank, PcrIndex};
pub use sealing::{ChassisSensors, SensorReading};
pub use secure_boot::{BootError, FlashImage, SecureBoot};
