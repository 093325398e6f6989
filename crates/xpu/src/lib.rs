//! xPU device substrate for the ccAI reproduction.
//!
//! The prototype validates ccAI against five physical accelerators — three
//! NVIDIA GPUs (A100, RTX4090Ti, T4), a Tenstorrent N150d NPU, and an
//! Enflame S60 GPU (§7). None is available here, so this crate models each
//! as a PCIe endpoint with the behaviours ccAI actually depends on:
//!
//! * DMA and MMIO over TLPs (the *only* interface ccAI protects);
//! * hardware heterogeneity the paper calls out (§2.1): GPUs carry an
//!   on-board MMU, the NPU does not; each vendor's driver programs a
//!   different register layout;
//! * published device parameters (memory size, PCIe link, compute and
//!   memory throughput) for the performance model;
//! * firmware with a vendor signature (used by trust establishment) and a
//!   cold-boot reset path (used by the xPU environment guard).
//!
//! Modules:
//!
//! * [`spec`] — the device catalog ([`XpuSpec`], [`XpuKind`]);
//! * [`memory`] — on-device memory with region allocation and wiping;
//! * [`mmu`] — the optional on-board MMU (page tables, base register);
//! * [`registers`] — the MMIO register file;
//! * [`dma`] — the descriptor-driven DMA engine;
//! * [`command`] — the command processor running verifiable "kernels";
//! * [`firmware`] — firmware images, versions and vendor signatures;
//! * [`device`] — [`Xpu`], the assembled PCIe endpoint, and the
//!   per-function engine it shares with [`partition`];
//! * [`partition`] — [`PartitionedXpu`], MIG-style virtual functions.
//!
//! # Example
//!
//! ```
//! use ccai_xpu::{Xpu, XpuSpec};
//! use ccai_pcie::Bdf;
//! use ccai_sim::Telemetry;
//!
//! let gpu = Xpu::new(XpuSpec::a100(), Bdf::new(0x17, 0, 0), 0x8000_0000, Telemetry::default());
//! assert_eq!(gpu.spec().name(), "NVIDIA A100");
//! assert!(gpu.spec().has_mmu());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod command;
pub mod device;
pub mod dma;
pub mod firmware;
pub mod memory;
pub mod mmu;
pub mod partition;
pub mod registers;
pub mod spec;

pub use command::{CmdStatus, Command, CommandProcessor, Opcode};
pub use device::Xpu;
pub use dma::{DmaControl, DmaDirection, DmaEngine, DmaRequest, DmaStatus};
pub use firmware::Firmware;
pub use memory::DeviceMemory;
pub use mmu::Mmu;
pub use partition::PartitionedXpu;
pub use registers::{RegisterFile, Reg};
pub use spec::{XpuKind, XpuSpec};
