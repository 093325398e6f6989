//! Trusted-VM substrate for the ccAI reproduction.
//!
//! ccAI deploys on a general-purpose TVM (e.g. an Intel TDX guest): the
//! TVM's hardware protection shields the xPU application, the unmodified
//! vendor driver stack, and the Adaptor from the privileged-software
//! adversary (§2.2, §3). This crate models that CPU side:
//!
//! * [`guest_memory`] — TVM guest memory with private vs. shared (bounce)
//!   pages and hardware-enforced DMA rules ([`GuestMemory`]);
//! * [`stager`] — the kernel DMA-staging service ([`DmaStager`]): vanilla
//!   kernels copy through ordinary bounce buffers; ccAI's Adaptor (in
//!   `ccai-core`) swaps in an encrypting implementation *without touching
//!   the driver* — this seam is exactly how ccAI achieves transparency;
//! * [`driver`] — unmodified vendor-style driver models that program
//!   register files and DMA engines over the PCIe fabric;
//! * [`hypervisor`] — the privileged-software adversary (host OS /
//!   hypervisor) trying to read TVM memory and reach the xPU.
//!
//! # Example
//!
//! ```
//! use ccai_tvm::GuestMemory;
//!
//! let mut memory = GuestMemory::new(1 << 20);
//! memory.share_range(0x8000..0x10000); // bounce-buffer window
//! assert!(memory.is_range_shared(0x8000, 16));
//! assert!(!memory.is_range_shared(0x0, 16));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod guest_memory;
pub mod hypervisor;
pub mod port;
pub mod stacks;
pub mod stager;

pub use driver::{DriverError, RetryPolicy, XpuDriver};
pub use guest_memory::GuestMemory;
pub use hypervisor::HostAdversary;
pub use port::TlpPort;
pub use stacks::{stack_for_vendor, UserStack};
pub use stager::{DmaStager, IdentityStager, StagedBuffer};
