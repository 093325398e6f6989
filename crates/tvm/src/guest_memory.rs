//! TVM guest memory with private/shared page semantics.
//!
//! TVM hardware (Intel TDX and friends) encrypts private guest pages and
//! rejects device DMA into them; drivers must route DMA through pages the
//! guest explicitly *shares* (Linux calls this the swiotlb/bounce path).
//! ccAI builds on exactly this split: the Adaptor stages encrypted
//! workloads in shared bounce buffers while plaintext stays in private
//! memory that neither the host nor any device can touch.

use ccai_pcie::{Bdf, HostMemory};
use ccai_sim::PageStore;
use std::fmt;
use std::ops::Range;

/// TVM guest memory backed by a sparse [`PageStore`], with a shared-page
/// map and a DMA-visibility boundary.
///
/// Three access paths exist, mirroring the real trust boundaries:
///
/// * [`GuestMemory::read`]/[`write`](GuestMemory::write) — in-guest
///   (trusted) access, reaches everything;
/// * [`HostMemory`] (`dma_read`/`dma_write`) — device access, **shared
///   pages only**;
/// * [`GuestMemory::hypervisor_read`] — the privileged-software
///   adversary, shared pages only (private pages return `None`, modelling
///   the hardware returning ciphertext/poison).
#[derive(Clone)]
pub struct GuestMemory {
    capacity: u64,
    pages: PageStore,
    shared: Vec<Range<u64>>,
    dma_denials: u64,
}

impl fmt::Debug for GuestMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GuestMemory")
            .field("capacity", &self.capacity)
            .field("shared_ranges", &self.shared.len())
            .field("dma_denials", &self.dma_denials)
            .finish()
    }
}

impl GuestMemory {
    /// Creates `capacity` bytes of all-private guest memory.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "guest memory capacity must be positive");
        GuestMemory { capacity, pages: PageStore::default(), shared: Vec::new(), dma_denials: 0 }
    }

    /// Marks a range as shared (DMA- and host-visible).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or out of bounds.
    pub fn share_range(&mut self, range: Range<u64>) {
        assert!(range.start < range.end, "empty shared range");
        assert!(range.end <= self.capacity, "shared range out of bounds");
        self.shared.push(range);
    }

    /// True if the whole `[addr, addr+len)` range is shared.
    pub fn is_range_shared(&self, addr: u64, len: u64) -> bool {
        if len == 0 {
            return true;
        }
        // All our shared ranges are contiguous entries; a range is shared
        // if one entry covers it completely (bounce windows are single
        // allocations, so this is exact).
        self.shared
            .iter()
            .any(|r| r.start <= addr && addr + len <= r.end)
    }

    fn check(&self, addr: u64, len: u64) -> bool {
        addr.checked_add(len).is_some_and(|end| end <= self.capacity)
    }

    /// Trusted in-guest write.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        assert!(self.check(addr, data.len() as u64), "guest write out of bounds");
        self.pages.write(addr, data);
    }

    /// Trusted in-guest read (unwritten memory reads as zero).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&self, addr: u64, len: u64) -> Vec<u8> {
        let mut out = Vec::new();
        self.read_into(addr, len, &mut out);
        out
    }

    /// Trusted in-guest read appended to `out`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_into(&self, addr: u64, len: u64, out: &mut Vec<u8>) {
        assert!(self.check(addr, len), "guest read out of bounds");
        self.pages.read_into(addr, len, out);
    }

    /// Trusted in-guest read filling `out`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read_exact(&self, addr: u64, out: &mut [u8]) {
        assert!(self.check(addr, out.len() as u64), "guest read out of bounds");
        self.pages.read_exact(addr, out);
    }

    /// Trusted in-guest borrow of `len` bytes at `addr` for in-place work.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or crosses a 64 KiB page.
    pub fn range_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        assert!(self.check(addr, len as u64), "guest write out of bounds");
        self.pages.range_mut(addr, len)
    }

    /// The backing page store.
    pub fn pages(&self) -> &PageStore {
        &self.pages
    }

    /// The privileged-software adversary's view: `None` for any range
    /// touching private memory (hardware memory encryption), data for
    /// shared ranges.
    pub fn hypervisor_read(&self, addr: u64, len: u64) -> Option<Vec<u8>> {
        if !self.check(addr, len) || !self.is_range_shared(addr, len) {
            return None;
        }
        Some(self.read(addr, len))
    }
}

impl HostMemory for GuestMemory {
    fn dma_read(&mut self, _requester: Bdf, addr: u64, len: usize) -> Option<Vec<u8>> {
        if !self.check(addr, len as u64) || !self.is_range_shared(addr, len as u64) {
            self.dma_denials += 1;
            return None;
        }
        Some(self.read(addr, len as u64))
    }

    fn dma_write(&mut self, _requester: Bdf, addr: u64, data: &[u8]) -> bool {
        if !self.check(addr, data.len() as u64)
            || !self.is_range_shared(addr, data.len() as u64)
        {
            self.dma_denials += 1;
            return false;
        }
        self.write(addr, data);
        true
    }

    fn dma_read_into(&mut self, _requester: Bdf, addr: u64, len: usize, out: &mut Vec<u8>) -> bool {
        if !self.check(addr, len as u64) || !self.is_range_shared(addr, len as u64) {
            self.dma_denials += 1;
            return false;
        }
        out.clear();
        self.pages.read_into(addr, len as u64, out);
        true
    }
}

impl GuestMemory {
    /// Serializes the guest memory image: capacity (identity check),
    /// chunks in address order, shared ranges in declaration order and
    /// the DMA-denial counter.
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        enc.put(&self.capacity);
        self.pages.encode(enc);
        enc.put(&self.shared);
        enc.put(&self.dma_denials);
    }

    /// Restores an image captured by [`GuestMemory::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Any [`ccai_sim::snapshot::SnapshotError`] on malformed input or a
    /// capacity mismatch; the memory is left untouched on failure.
    pub fn restore_snapshot(
        &mut self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::snapshot::SnapshotError> {
        use ccai_sim::snapshot::SnapshotError;
        let capacity: u64 = dec.get()?;
        if capacity != self.capacity {
            return Err(SnapshotError::Invalid("guest memory capacity mismatch"));
        }
        let pages = PageStore::decode(dec, capacity)?;
        let shared: Vec<Range<u64>> = dec.get()?;
        if shared.iter().any(|r| r.start >= r.end || r.end > capacity) {
            return Err(SnapshotError::Invalid("malformed shared range"));
        }
        let dma_denials = dec.get()?;
        self.pages = pages;
        self.shared = shared;
        self.dma_denials = dma_denials;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl GuestMemory {
        /// Count of DMA accesses rejected at the private-memory boundary.
        fn dma_denials(&self) -> u64 {
            self.dma_denials
        }
    }

    fn dev() -> Bdf {
        Bdf::new(1, 0, 0)
    }

    #[test]
    fn trusted_rw_round_trip() {
        let mut mem = GuestMemory::new(1 << 20);
        mem.write(0x1234, b"private data");
        assert_eq!(mem.read(0x1234, 12), b"private data");
    }

    #[test]
    fn dma_blocked_on_private_pages() {
        let mut mem = GuestMemory::new(1 << 20);
        mem.write(0x1000, b"secret");
        assert_eq!(mem.dma_read(dev(), 0x1000, 6), None);
        assert!(!mem.dma_write(dev(), 0x1000, b"evil"));
        assert_eq!(mem.dma_denials(), 2);
        assert_eq!(mem.read(0x1000, 6), b"secret", "write did not land");
    }

    #[test]
    fn dma_allowed_on_shared_pages() {
        let mut mem = GuestMemory::new(1 << 20);
        mem.share_range(0x8000..0xA000);
        assert!(mem.dma_write(dev(), 0x8000, b"bounce"));
        assert_eq!(mem.dma_read(dev(), 0x8000, 6), Some(b"bounce".to_vec()));
        assert_eq!(mem.dma_denials(), 0);
    }

    #[test]
    fn dma_read_into_matches_dma_read_and_scrubs_stale_bytes() {
        let mut mem = GuestMemory::new(1 << 20);
        mem.share_range(0x8000..0xA000);
        mem.write(0x8000, b"bounce");
        // A recycled buffer with stale content and surplus length: the
        // in-place read must match the allocating read exactly,
        // including zeros for unwritten shared memory past the chunk.
        let mut buf = vec![0xAA; 64];
        let len = 0x1000;
        assert!(mem.dma_read_into(dev(), 0x8000, len, &mut buf));
        assert_eq!(Some(buf.clone()), mem.dma_read(dev(), 0x8000, len));
        // Denials behave identically on both paths and count once each.
        assert!(!mem.dma_read_into(dev(), 0x1000, 4, &mut buf));
        assert_eq!(mem.dma_read(dev(), 0x1000, 4), None);
        assert_eq!(mem.dma_denials(), 2);
    }

    #[test]
    fn dma_straddling_the_boundary_is_blocked() {
        let mut mem = GuestMemory::new(1 << 20);
        mem.share_range(0x8000..0x9000);
        // Range starts shared but runs past the end of the window.
        assert_eq!(mem.dma_read(dev(), 0x8FF0, 0x20), None);
        assert!(!mem.dma_write(dev(), 0x8FF0, &[0u8; 0x20]));
    }

    #[test]
    fn hypervisor_sees_only_shared() {
        let mut mem = GuestMemory::new(1 << 20);
        mem.share_range(0x8000..0x9000);
        mem.write(0x1000, b"tvm secret");
        mem.write(0x8000, b"bounce data");
        assert_eq!(mem.hypervisor_read(0x1000, 10), None);
        assert_eq!(mem.hypervisor_read(0x8000, 11), Some(b"bounce data".to_vec()));
    }

    #[test]
    fn out_of_bounds_dma_denied() {
        let mut mem = GuestMemory::new(0x1000);
        assert_eq!(mem.dma_read(dev(), 0xFFF, 2), None);
        assert_eq!(mem.dma_read(dev(), u64::MAX, 1), None);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn trusted_oob_write_panics() {
        let mut mem = GuestMemory::new(16);
        mem.write(10, &[0; 10]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn share_range_oob_panics() {
        let mut mem = GuestMemory::new(16);
        mem.share_range(0..32);
    }

    #[test]
    fn chunk_boundary_round_trip() {
        let mut mem = GuestMemory::new(1 << 20);
        let addr = ccai_sim::pages::PAGE - 3;
        mem.write(addr, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(mem.read(addr, 6), vec![1, 2, 3, 4, 5, 6]);
    }
}
