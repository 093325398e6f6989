//! The platform IOMMU.
//!
//! Privileged software programs the IOMMU to confine each device's DMA to
//! its assigned windows; ccAI "follows existing IOMMU settings in TVM or
//! privileged software, without additional changes" (§8.1). The model
//! wraps a [`GuestMemory`] and enforces a per-BDF allow-list, which the
//! §8.2 malicious-device analysis exercises.

use crate::guest_memory::GuestMemory;
use ccai_pcie::{Bdf, HostMemory};
use ccai_sim::DetHashMap;
use std::fmt;
use std::ops::Range;

/// A per-device DMA allow-list layered over guest memory.
pub struct Iommu {
    memory: GuestMemory,
    allowed: DetHashMap<Bdf, Vec<Range<u64>>>,
    faults: u64,
}

impl fmt::Debug for Iommu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Iommu")
            .field("devices", &self.allowed.len())
            .field("faults", &self.faults)
            .finish()
    }
}

impl Iommu {
    /// Wraps guest memory with an empty (deny-all) policy.
    pub fn new(memory: GuestMemory) -> Self {
        Iommu { memory, allowed: DetHashMap::default(), faults: 0 }
    }

    /// Grants `device` DMA access to `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn grant(&mut self, device: Bdf, range: Range<u64>) {
        assert!(range.start < range.end, "empty IOMMU window");
        self.allowed.entry(device).or_default().push(range);
    }

    /// Revokes all of `device`'s windows.
    pub fn revoke_all(&mut self, device: Bdf) {
        self.allowed.remove(&device);
    }

    /// IOMMU faults recorded (blocked accesses).
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// The wrapped guest memory.
    pub fn memory(&self) -> &GuestMemory {
        &self.memory
    }

    /// Mutable access to the wrapped guest memory (trusted path).
    pub fn memory_mut(&mut self) -> &mut GuestMemory {
        &mut self.memory
    }

    fn permitted(&self, device: Bdf, addr: u64, len: u64) -> bool {
        self.allowed
            .get(&device)
            .is_some_and(|ranges| ranges.iter().any(|r| r.start <= addr && addr + len <= r.end))
    }
}

impl HostMemory for Iommu {
    fn dma_read(&mut self, requester: Bdf, addr: u64, len: usize) -> Option<Vec<u8>> {
        if !self.permitted(requester, addr, len as u64) {
            self.faults += 1;
            return None;
        }
        self.memory.dma_read(requester, addr, len)
    }

    fn dma_write(&mut self, requester: Bdf, addr: u64, data: &[u8]) -> bool {
        if !self.permitted(requester, addr, data.len() as u64) {
            self.faults += 1;
            return false;
        }
        self.memory.dma_write(requester, addr, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xpu() -> Bdf {
        Bdf::new(0x17, 0, 0)
    }

    fn rogue() -> Bdf {
        Bdf::new(9, 9, 0)
    }

    fn setup() -> Iommu {
        let mut mem = GuestMemory::new(1 << 20);
        mem.share_range(0x8000..0x10000);
        let mut iommu = Iommu::new(mem);
        iommu.grant(xpu(), 0x8000..0x10000);
        iommu
    }

    #[test]
    fn granted_device_reaches_its_window() {
        let mut iommu = setup();
        assert!(iommu.dma_write(xpu(), 0x8000, b"ok"));
        assert_eq!(iommu.dma_read(xpu(), 0x8000, 2), Some(b"ok".to_vec()));
        assert_eq!(iommu.faults(), 0);
    }

    #[test]
    fn rogue_device_blocked_everywhere() {
        let mut iommu = setup();
        assert!(!iommu.dma_write(rogue(), 0x8000, b"evil"));
        assert_eq!(iommu.dma_read(rogue(), 0x8000, 4), None);
        assert_eq!(iommu.faults(), 2);
    }

    #[test]
    fn granted_device_blocked_outside_window() {
        let mut iommu = setup();
        assert_eq!(iommu.dma_read(xpu(), 0x0, 4), None, "private memory");
        assert_eq!(iommu.dma_read(xpu(), 0x10000, 4), None, "past the window");
        assert_eq!(iommu.faults(), 2);
    }

    #[test]
    fn iommu_composes_with_tvm_protection() {
        // Even a *granted* window cannot expose private pages: grant the
        // device a window over private memory and watch the TVM layer
        // still refuse.
        let mem = GuestMemory::new(1 << 20); // nothing shared
        let mut iommu = Iommu::new(mem);
        iommu.grant(xpu(), 0x0..0x1000);
        assert_eq!(iommu.dma_read(xpu(), 0x0, 4), None);
        assert_eq!(iommu.faults(), 0, "IOMMU allowed it");
        assert_eq!(iommu.memory().dma_denials(), 1, "TVM hardware blocked it");
    }

    #[test]
    fn revoke_cuts_access() {
        let mut iommu = setup();
        assert!(iommu.dma_write(xpu(), 0x8000, b"ok"));
        iommu.revoke_all(xpu());
        assert!(!iommu.dma_write(xpu(), 0x8000, b"late"));
    }

    #[test]
    fn straddling_windows_not_merged() {
        let mut iommu = setup();
        iommu.grant(xpu(), 0x10000..0x11000);
        // 0x8000..0x10000 and 0x10000..0x11000 are separate windows; a
        // single access spanning both is rejected (real IOMMUs work per
        // page, our windows per grant).
        assert_eq!(iommu.dma_read(xpu(), 0xFFF0, 0x20), None);
    }
}
