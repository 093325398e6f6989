//! PCIe fabric substrate for the ccAI reproduction.
//!
//! ccAI's whole mechanism is defined at the PCIe *packet* level: the
//! PCIe-SC intercepts every Transaction Layer Packet (TLP) between the TVM
//! and the xPU, filters it against L1/L2 tables keyed on header attributes
//! (format, type, requester/completer IDs, address space), and applies one
//! of four security actions. The original prototype interposes an FPGA on a
//! physical PCIe slot; this crate replaces that fabric with a TLP-accurate
//! software model:
//!
//! * [`bdf`] — Bus/Device/Function identifiers;
//! * [`tlp`] — TLP headers and packets with a binary wire codec
//!   ([`Tlp`], [`TlpHeader`], [`TlpType`]);
//! * [`link`] — link speed/width and serialization-time models
//!   ([`LinkConfig`]) including encoding and per-packet framing overhead;
//! * [`config_space`] — 4 KiB per-function configuration space;
//! * [`device`] — the [`PcieDevice`] endpoint trait and [`HostMemory`];
//! * [`fabric`] — a store-and-forward root complex + switch with
//!   **interposer** slots (where the PCIe-SC plugs in) and passive bus
//!   taps (where the snooping adversary plugs in);
//! * [`adversary`] — the §2.2 bus attacker: snooping, tampering, replay,
//!   reordering, dropping and rogue injection;
//! * [`fault`] — seeded, deterministic fault injection on the upstream
//!   link segment and (opt-in) the host control path ([`FaultPlan`],
//!   [`FaultInjector`]), for recovery tests;
//! * [`ctrlseq`] — the sequence-number envelope control writes carry so
//!   the control-plane retry protocol can suppress duplicates and
//!   re-send drops.
//!
//! # Example
//!
//! ```
//! use ccai_pcie::{Bdf, Tlp, TlpType};
//!
//! let tvm = Bdf::new(0, 0, 0);
//! let write = Tlp::memory_write(tvm, 0x1000, vec![1, 2, 3, 4]);
//! assert_eq!(write.header().tlp_type(), TlpType::MemWrite);
//! let wire = write.encode();
//! assert_eq!(Tlp::decode(&wire).unwrap(), write);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod bdf;
pub mod config_space;
pub mod ctrlseq;
pub mod device;
pub mod fabric;
pub mod fault;
pub mod link;
pub mod list;
pub mod tlp;

pub use adversary::{AttackLog, BusAdversary, TamperMode};
pub use bdf::Bdf;
pub use config_space::ConfigSpace;
pub use ctrlseq::{
    parse_ctrl_envelope, seal_ctrl_envelope, CTRL_ENVELOPE_LEN, CTRL_ENVELOPE_MAGIC,
};
pub use device::{HostMemory, PcieDevice, VecHostMemory};
pub use fabric::{Fabric, Interposer, InterposeOutcome, PortId, UnplugReport, WireAttack};
pub use fault::{CompletionVerdict, FaultEvent, FaultInjector, FaultKind, FaultPlan};
pub use link::{LinkConfig, LinkSpeed};
pub use list::TlpList;
pub use tlp::{CplStatus, DecodeError, Tlp, TlpHeader, TlpPool, TlpPoolStats, TlpType};
