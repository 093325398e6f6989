//! Endpoint and host-memory abstractions.
//!
//! Every PCIe-attached component — the five xPU models, the PCIe-SC's own
//! MMIO surface, test endpoints — implements [`PcieDevice`]. The host side
//! of DMA is abstracted as [`HostMemory`], which in the full system is the
//! TVM's guest memory (with bounce buffers); [`VecHostMemory`] is a simple
//! flat implementation for tests.

use crate::config_space::ConfigSpace;
use crate::list::TlpList;
use crate::tlp::{CplStatus, Tlp, TlpType};
use crate::Bdf;
use std::fmt;

/// A PCIe endpoint attached to the fabric.
///
/// The contract is synchronous store-and-forward: [`PcieDevice::handle`]
/// receives one request TLP and returns any immediate responses
/// (completions). Device-*initiated* traffic — DMA reads/writes toward
/// host memory, interrupts — is drained separately via
/// [`PcieDevice::poll_outbound`] when the fabric pumps.
pub trait PcieDevice: fmt::Debug {
    /// The device's BDF.
    fn bdf(&self) -> Bdf;

    /// The device's configuration space.
    fn config_space(&self) -> &ConfigSpace;

    /// Mutable configuration space (for enumeration writes).
    fn config_space_mut(&mut self) -> &mut ConfigSpace;

    /// Handles one inbound TLP, returning immediate responses (none for
    /// a posted write, one completion for a read, held inline).
    fn handle(&mut self, tlp: Tlp) -> TlpList;

    /// Drains device-initiated TLPs (DMA requests, interrupt messages).
    fn poll_outbound(&mut self) -> Vec<Tlp> {
        Vec::new()
    }

    /// Delivers a completion for a DMA read this device issued earlier.
    /// The device copies what it keeps; the fabric recycles the payload
    /// buffer afterwards.
    fn deliver_completion(&mut self, _tlp: &Tlp) {}

    /// Downcasting support so owners can inspect concrete device state
    /// (e.g. memory digests) while it lives in the fabric. Devices that
    /// opt in return `Some(self)`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Mutable downcasting support (e.g. arming device-side recovery
    /// knobs from a test harness). Devices that opt in return
    /// `Some(self)`.
    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        None
    }
}

/// Default handling for configuration TLPs: devices can call this from
/// their [`PcieDevice::handle`] for CfgRd0/CfgWr0.
pub fn handle_config_access(device: &mut dyn PcieDevice, tlp: &Tlp) -> Option<Tlp> {
    let header = *tlp.header();
    match header.tlp_type() {
        TlpType::CfgRead => {
            let reg = header.config_register().expect("config TLP has register");
            let value = device.config_space().read_u32(reg);
            Some(Tlp::completion_with_data(
                device.bdf(),
                header.requester(),
                header.tag(),
                value.to_le_bytes().to_vec(),
            ))
        }
        TlpType::CfgWrite => {
            let reg = header.config_register().expect("config TLP has register");
            let mut bytes = [0u8; 4];
            bytes.copy_from_slice(tlp.payload());
            device
                .config_space_mut()
                .write_u32(reg, u32::from_le_bytes(bytes));
            Some(Tlp::completion(
                device.bdf(),
                header.requester(),
                header.tag(),
                CplStatus::Success,
            ))
        }
        _ => None,
    }
}

/// The host side of DMA: device-initiated reads and writes land here.
///
/// The requester's BDF is part of the interface so implementations can
/// enforce DMA policy (which device may touch which host range).
pub trait HostMemory {
    /// Reads `len` bytes at physical address `addr` on behalf of
    /// `requester`.
    ///
    /// Returns `None` if the range is unmapped or the TVM hardware blocks
    /// the access.
    fn dma_read(&mut self, requester: Bdf, addr: u64, len: usize) -> Option<Vec<u8>>;

    /// Writes bytes at physical address `addr` on behalf of `requester`.
    /// Returns `false` if blocked/unmapped.
    fn dma_write(&mut self, requester: Bdf, addr: u64, data: &[u8]) -> bool;

    /// Reads `len` bytes at `addr` into a caller-supplied buffer
    /// (cleared first), returning `false` if the access is blocked.
    ///
    /// The default delegates to [`HostMemory::dma_read`]; implementations
    /// backed by contiguous storage should override it to copy straight
    /// into `out`, which lets the fabric serve bulk DMA from a recycled
    /// [`crate::TlpPool`] buffer instead of allocating per completion.
    fn dma_read_into(&mut self, requester: Bdf, addr: u64, len: usize, out: &mut Vec<u8>) -> bool {
        match self.dma_read(requester, addr, len) {
            Some(data) => {
                out.clear();
                out.extend_from_slice(&data);
                true
            }
            None => false,
        }
    }
}

/// A flat, fully-mapped host memory for tests.
#[derive(Debug, Clone)]
pub struct VecHostMemory {
    bytes: Vec<u8>,
}

impl VecHostMemory {
    /// Allocates `len` zeroed bytes.
    pub fn new(len: usize) -> Self {
        VecHostMemory { bytes: vec![0; len] }
    }

    /// Direct (non-DMA) access for test setup.
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    /// Direct mutable access for test setup.
    #[doc(hidden)]
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.bytes
    }
}

impl HostMemory for VecHostMemory {
    fn dma_read(&mut self, _requester: Bdf, addr: u64, len: usize) -> Option<Vec<u8>> {
        let start = addr as usize;
        let end = start.checked_add(len)?;
        self.bytes.get(start..end).map(<[u8]>::to_vec)
    }

    fn dma_write(&mut self, _requester: Bdf, addr: u64, data: &[u8]) -> bool {
        let start = addr as usize;
        let Some(end) = start.checked_add(data.len()) else {
            return false;
        };
        if end > self.bytes.len() {
            return false;
        }
        self.bytes[start..end].copy_from_slice(data);
        true
    }

    fn dma_read_into(&mut self, _requester: Bdf, addr: u64, len: usize, out: &mut Vec<u8>) -> bool {
        let start = addr as usize;
        let Some(end) = start.checked_add(len) else {
            return false;
        };
        match self.bytes.get(start..end) {
            Some(slice) => {
                out.clear();
                out.extend_from_slice(slice);
                true
            }
            None => false,
        }
    }
}

/// A minimal endpoint for fabric tests: a BAR-mapped scratch RAM.
#[cfg(test)]
#[derive(Debug)]
pub struct ScratchEndpoint {
    bdf: Bdf,
    config: ConfigSpace,
    bar_base: u64,
    ram: Vec<u8>,
    outbound: Vec<Tlp>,
}

#[cfg(test)]
impl ScratchEndpoint {
    /// Creates a scratch endpoint with `size` bytes of BAR0 RAM at
    /// `bar_base`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two or the base is misaligned.
    pub fn new(bdf: Bdf, bar_base: u64, size: u64) -> Self {
        let mut config = ConfigSpace::new(0x1234, 0x5678);
        config.set_bar(0, bar_base, size);
        ScratchEndpoint { bdf, config, bar_base, ram: vec![0; size as usize], outbound: Vec::new() }
    }

    /// Direct RAM access for assertions.
    pub fn ram(&self) -> &[u8] {
        &self.ram
    }

    /// Queues a device-initiated TLP (to be drained by the fabric pump).
    pub fn queue_outbound(&mut self, tlp: Tlp) {
        self.outbound.push(tlp);
    }
}

#[cfg(test)]
impl PcieDevice for ScratchEndpoint {
    fn bdf(&self) -> Bdf {
        self.bdf
    }

    fn config_space(&self) -> &ConfigSpace {
        &self.config
    }

    fn config_space_mut(&mut self) -> &mut ConfigSpace {
        &mut self.config
    }

    fn handle(&mut self, tlp: Tlp) -> TlpList {
        if let Some(cpl) = handle_config_access(self, &tlp) {
            return TlpList::one(cpl);
        }
        let header = *tlp.header();
        match header.tlp_type() {
            TlpType::MemWrite => {
                let offset = (header.address().expect("memory TLP") - self.bar_base) as usize;
                let payload = tlp.into_payload();
                if offset + payload.len() <= self.ram.len() {
                    self.ram[offset..offset + payload.len()].copy_from_slice(&payload);
                }
                TlpList::new() // posted
            }
            TlpType::MemRead => {
                let offset = (header.address().expect("memory TLP") - self.bar_base) as usize;
                let len = header.payload_len() as usize;
                if offset + len <= self.ram.len() {
                    TlpList::one(Tlp::completion_with_data(
                        self.bdf,
                        header.requester(),
                        header.tag(),
                        self.ram[offset..offset + len].to_vec(),
                    ))
                } else {
                    TlpList::one(Tlp::completion(
                        self.bdf,
                        header.requester(),
                        header.tag(),
                        CplStatus::UnsupportedRequest,
                    ))
                }
            }
            _ => TlpList::one(Tlp::completion(
                self.bdf,
                header.requester(),
                header.tag(),
                CplStatus::UnsupportedRequest,
            )),
        }
    }

    fn poll_outbound(&mut self) -> Vec<Tlp> {
        std::mem::take(&mut self.outbound)
    }

    /// A DMA read completion lands at the start of the scratch RAM.
    fn deliver_completion(&mut self, tlp: &Tlp) {
        let n = tlp.payload().len().min(self.ram.len());
        self.ram[..n].copy_from_slice(&tlp.payload()[..n]);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host() -> Bdf {
        Bdf::new(0, 0, 0)
    }

    #[test]
    fn scratch_endpoint_mmio_write_read() {
        let mut dev = ScratchEndpoint::new(Bdf::new(1, 0, 0), 0x1000, 0x1000);
        let responses = dev.handle(Tlp::memory_write(host(), 0x1010, vec![1, 2, 3]));
        assert!(responses.is_empty(), "posted writes get no completion");
        assert_eq!(&dev.ram()[0x10..0x13], &[1, 2, 3]);

        let responses = dev.handle(Tlp::memory_read(host(), 0x1010, 3, 5));
        assert_eq!(responses.len(), 1);
        assert_eq!(responses[0].payload(), &[1, 2, 3]);
        assert_eq!(responses[0].header().tag(), 5);
    }

    #[test]
    fn out_of_range_read_gets_ur() {
        let mut dev = ScratchEndpoint::new(Bdf::new(1, 0, 0), 0x1000, 0x100);
        let responses = dev.handle(Tlp::memory_read(host(), 0x10F0, 64, 0));
        assert_eq!(responses[0].header().cpl_status(), Some(CplStatus::UnsupportedRequest));
    }

    #[test]
    fn config_access_round_trip() {
        let mut dev = ScratchEndpoint::new(Bdf::new(1, 0, 0), 0x1000, 0x100);
        let responses = dev.handle(Tlp::config_read(host(), dev.bdf(), 0x00, 1));
        assert_eq!(responses[0].payload(), &0x5678_1234u32.to_le_bytes());

        dev.handle(Tlp::config_write(host(), dev.bdf(), 0x40, vec![0xde, 0xad, 0xbe, 0xef]));
        assert_eq!(dev.config_space().read_u32(0x40), 0xefbe_adde);
    }

    #[test]
    fn vec_host_memory_bounds() {
        let dev = Bdf::new(1, 0, 0);
        let mut mem = VecHostMemory::new(16);
        assert!(mem.dma_write(dev, 8, &[1, 2, 3]));
        assert_eq!(mem.dma_read(dev, 8, 3), Some(vec![1, 2, 3]));
        assert!(!mem.dma_write(dev, 15, &[1, 2]));
        assert_eq!(mem.dma_read(dev, 15, 2), None);
        assert_eq!(mem.dma_read(dev, u64::MAX, 2), None);
    }

    #[test]
    fn outbound_queue_drains() {
        let mut dev = ScratchEndpoint::new(Bdf::new(1, 0, 0), 0x1000, 0x100);
        dev.queue_outbound(Tlp::message(dev.bdf(), 0x20));
        assert_eq!(dev.poll_outbound().len(), 1);
        assert!(dev.poll_outbound().is_empty());
    }
}
