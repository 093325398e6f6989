//! On-device memory.
//!
//! A flat byte store with a simple region allocator (weights, activations,
//! KV cache, command buffers) and a [`DeviceMemory::wipe`] path used by
//! the xPU environment guard's cold-boot reset (§4.2): "cleaning its
//! memory, caches, registers, and TLB status".

use ccai_crypto::{Digest, Sha256};
use ccai_sim::PageStore;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A named allocation inside device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Region {
    /// Start offset in device memory.
    pub base: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Region {
    /// Exclusive end offset.
    pub fn end(&self) -> u64 {
        self.base + self.len
    }
}

/// Errors from device-memory operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// Not enough free space for the requested allocation.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Bytes still free.
        free: u64,
    },
    /// An access fell outside the device memory.
    OutOfBounds {
        /// Offending address.
        addr: u64,
        /// Access length.
        len: u64,
    },
    /// Allocation name already in use.
    NameTaken(String),
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfMemory { requested, free } => {
                write!(f, "out of device memory: requested {requested}, free {free}")
            }
            MemoryError::OutOfBounds { addr, len } => {
                write!(f, "device memory access out of bounds: {addr:#x}+{len}")
            }
            MemoryError::NameTaken(name) => write!(f, "region name already used: {name}"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// Device memory with named-region bump allocation.
///
/// Backing storage is a sparse [`PageStore`], materialised lazily in
/// 64 KiB pages so an "80 GiB" A100 model does not actually reserve
/// 80 GiB of host RAM.
///
/// # Example
///
/// ```
/// use ccai_xpu::DeviceMemory;
///
/// let mut mem = DeviceMemory::new(1 << 20);
/// let weights = mem.alloc("weights", 4096)?;
/// mem.write(weights.base, &[7; 16])?;
/// assert_eq!(mem.read(weights.base, 16)?, vec![7; 16]);
/// # Ok::<(), ccai_xpu::memory::MemoryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DeviceMemory {
    capacity: u64,
    next_free: u64,
    regions: BTreeMap<String, Region>,
    pages: PageStore,
    /// `(addr, len, digest)` of the range [`DeviceMemory::weights_digest`]
    /// last hashed, valid while no write has touched it. Never encoded.
    weights_memo: Option<(u64, u64, Digest)>,
}

impl DeviceMemory {
    /// Creates device memory of `capacity` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: u64) -> Self {
        assert!(capacity > 0, "device memory capacity must be positive");
        DeviceMemory {
            capacity,
            next_free: 0,
            regions: BTreeMap::new(),
            pages: PageStore::default(),
            weights_memo: None,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated to regions.
    pub fn allocated(&self) -> u64 {
        self.next_free
    }

    /// Bytes still available.
    pub fn free(&self) -> u64 {
        self.capacity - self.next_free
    }

    /// Fraction of capacity allocated (0.0–1.0).
    pub fn utilization(&self) -> f64 {
        self.next_free as f64 / self.capacity as f64
    }

    /// Allocates a named region of `len` bytes (64-byte aligned).
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfMemory`] if insufficient space remains,
    /// [`MemoryError::NameTaken`] if the name is already allocated.
    pub fn alloc(&mut self, name: &str, len: u64) -> Result<Region, MemoryError> {
        if self.regions.contains_key(name) {
            return Err(MemoryError::NameTaken(name.to_string()));
        }
        let base = (self.next_free + 63) & !63;
        if base + len > self.capacity {
            return Err(MemoryError::OutOfMemory { requested: len, free: self.free() });
        }
        let region = Region { base, len };
        self.next_free = base + len;
        self.regions.insert(name.to_string(), region);
        Ok(region)
    }

    /// Looks up a named region.
    pub fn region(&self, name: &str) -> Option<Region> {
        self.regions.get(name).copied()
    }

    /// Frees *all* regions and zeroes the backing store — the cold-boot
    /// reset the xPU environment guard triggers when a task terminates.
    pub fn wipe(&mut self) {
        self.regions.clear();
        self.pages.clear();
        self.next_free = 0;
        self.weights_memo = None;
    }

    /// SHA-256 digest of the memory *content*: every non-zero 64 KiB
    /// page hashed in address order as `base_be || bytes`. All-zero
    /// pages are skipped, so a wiped memory digests identically to one
    /// that was never written — the differential check the
    /// fault-injection suite uses to prove recovery is lossless.
    pub fn content_digest(&self) -> [u8; 32] {
        let mut hasher = ccai_crypto::Sha256::new();
        for (base, page) in self.pages.pages() {
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            hasher.update(&base.to_be_bytes());
            hasher.update(page);
        }
        let mut out = [0u8; 32];
        out.copy_from_slice(hasher.finalize().as_bytes());
        out
    }

    /// Checks that `[addr, addr + len)` lies inside the memory.
    pub(crate) fn check(&self, addr: u64, len: u64) -> Result<(), MemoryError> {
        if addr.checked_add(len).is_none_or(|end| end > self.capacity) {
            return Err(MemoryError::OutOfBounds { addr, len });
        }
        Ok(())
    }

    /// Writes bytes at `addr`.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the range exceeds capacity.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemoryError> {
        self.check(addr, data.len() as u64)?;
        if let Some((base, len, _)) = self.weights_memo {
            if addr < base + len && base < addr + data.len() as u64 {
                self.weights_memo = None;
            }
        }
        self.pages.write(addr, data);
        Ok(())
    }

    /// SHA-256 of the `len` bytes at `addr`, the model weights the kernel
    /// mixes into every inference. The digest is kept and handed back
    /// for the same range until a [`DeviceMemory::write`] overlapping it,
    /// a [`DeviceMemory::wipe`] or a restore drops it: the rule is "no
    /// write since", never a comparison of content.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the range exceeds capacity.
    pub(crate) fn weights_digest(&mut self, addr: u64, len: u64) -> Result<Digest, MemoryError> {
        if let Some((base, memo_len, digest)) = self.weights_memo {
            if (base, memo_len) == (addr, len) {
                return Ok(digest);
            }
        }
        let digest = self.digest(addr, len)?;
        self.weights_memo = Some((addr, len, digest));
        Ok(digest)
    }

    /// SHA-256 of the `len` bytes at `addr`, hashed slice by slice where
    /// they lie instead of copied out first.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the range exceeds capacity.
    pub(crate) fn digest(&self, addr: u64, len: u64) -> Result<Digest, MemoryError> {
        let mut hasher = Sha256::new();
        self.slices(addr, len)?.for_each(|s| hasher.update(s));
        Ok(hasher.finalize())
    }

    /// Reads `len` bytes at `addr` (unwritten memory reads as zero).
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the range exceeds capacity.
    pub fn read(&self, addr: u64, len: u64) -> Result<Vec<u8>, MemoryError> {
        self.check(addr, len)?;
        let mut out = Vec::new();
        self.pages.read_into(addr, len, &mut out);
        Ok(out)
    }

    /// Walks the `len` bytes at `addr` as borrowed slices in address
    /// order, without copying them (unwritten memory reads as zero).
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the range exceeds capacity.
    pub fn slices(
        &self,
        addr: u64,
        len: u64,
    ) -> Result<impl Iterator<Item = &[u8]> + '_, MemoryError> {
        self.check(addr, len)?;
        Ok(self.pages.slices(addr, len))
    }

    /// The backing page store.
    pub fn pages(&self) -> &PageStore {
        &self.pages
    }

    /// True if every byte of backing storage is zero — used by tests to
    /// prove the environment guard left no residue.
    pub fn is_zeroed(&self) -> bool {
        self.pages.pages().all(|(_, page)| page.iter().all(|&b| b == 0))
    }
}

ccai_sim::snapshot_state!(Region { base, len });

impl DeviceMemory {
    /// Serializes the memory image: allocator cursor, named regions and
    /// every lazily-materialised page (in address order). The capacity is
    /// included so a snapshot can only be restored onto a like-sized part.
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        enc.put(&self.capacity);
        enc.put(&self.next_free);
        enc.put(&self.regions);
        self.pages.encode(enc);
    }

    /// Restores a memory image captured by [`DeviceMemory::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Any [`ccai_sim::snapshot::SnapshotError`] on malformed input, a
    /// capacity mismatch, or pages that do not fit the address space; the
    /// memory is left untouched on failure.
    pub fn restore_snapshot(
        &mut self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::snapshot::SnapshotError> {
        use ccai_sim::snapshot::SnapshotError;
        let (capacity, next_free): (u64, u64) = dec.get()?;
        if capacity != self.capacity {
            return Err(SnapshotError::Invalid("device memory capacity mismatch"));
        }
        if next_free > capacity {
            return Err(SnapshotError::Invalid("allocator cursor past capacity"));
        }
        let regions: BTreeMap<String, Region> = dec.get()?;
        if regions
            .values()
            .any(|r| r.base.checked_add(r.len).is_none_or(|end| end > capacity))
        {
            return Err(SnapshotError::Invalid("region out of bounds"));
        }
        let pages = PageStore::decode(dec, capacity)?;
        self.next_free = next_free;
        self.regions = regions;
        self.pages = pages;
        self.weights_memo = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_rw_round_trip() {
        let mut mem = DeviceMemory::new(1 << 20);
        let r = mem.alloc("weights", 1000).unwrap();
        mem.write(r.base, b"hello xpu").unwrap();
        assert_eq!(mem.read(r.base, 9).unwrap(), b"hello xpu");
    }

    #[test]
    fn allocations_do_not_overlap_and_are_aligned() {
        let mut mem = DeviceMemory::new(1 << 20);
        let a = mem.alloc("a", 100).unwrap();
        let b = mem.alloc("b", 100).unwrap();
        assert!(a.end() <= b.base);
        assert_eq!(b.base % 64, 0);
    }

    #[test]
    fn oom_reports_free_space() {
        let mut mem = DeviceMemory::new(1024);
        mem.alloc("a", 1000).unwrap();
        match mem.alloc("b", 100) {
            Err(MemoryError::OutOfMemory { requested: 100, free }) => {
                assert!(free < 100);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut mem = DeviceMemory::new(1024);
        mem.alloc("x", 10).unwrap();
        assert!(matches!(mem.alloc("x", 10), Err(MemoryError::NameTaken(_))));
    }

    #[test]
    fn out_of_bounds_rw_rejected() {
        let mut mem = DeviceMemory::new(100);
        assert!(matches!(mem.write(90, &[0; 20]), Err(MemoryError::OutOfBounds { .. })));
        assert!(matches!(mem.read(u64::MAX, 2), Err(MemoryError::OutOfBounds { .. })));
    }

    #[test]
    fn sparse_chunks_span_boundaries() {
        let mut mem = DeviceMemory::new(1 << 20);
        let addr = ccai_sim::pages::PAGE - 5; // straddles two pages
        mem.write(addr, &[9; 10]).unwrap();
        assert_eq!(mem.read(addr, 10).unwrap(), vec![9; 10]);
        assert_eq!(mem.read(addr - 1, 1).unwrap(), vec![0]);
    }

    #[test]
    fn huge_capacity_is_lazy() {
        // "80 GiB" without 80 GiB of RAM.
        let mut mem = DeviceMemory::new(80 << 30);
        mem.write(79 << 30, &[1]).unwrap();
        assert_eq!(mem.read(79 << 30, 1).unwrap(), vec![1]);
        assert!(mem.pages.pages().count() < 4);
    }

    #[test]
    fn wipe_clears_everything() {
        let mut mem = DeviceMemory::new(1 << 20);
        let r = mem.alloc("secret", 64).unwrap();
        mem.write(r.base, &[0xAA; 64]).unwrap();
        assert!(!mem.is_zeroed());
        mem.wipe();
        assert!(mem.is_zeroed());
        assert_eq!(mem.allocated(), 0);
        assert!(mem.region("secret").is_none());
        assert_eq!(mem.read(r.base, 64).unwrap(), vec![0; 64]);
    }

    const W: u64 = 0x1000;
    const WLEN: u64 = 256;

    /// Memory holding patterned weights at `[W, W + WLEN)` whose digest
    /// the kernel has taken, so the memo is warm.
    fn warm() -> DeviceMemory {
        let mut mem = DeviceMemory::new(1 << 20);
        let weights: Vec<u8> = (0..WLEN).map(|i| i as u8).collect();
        mem.write(W, &weights).unwrap();
        mem.weights_digest(W, WLEN).unwrap();
        assert!(mem.weights_memo.is_some());
        mem
    }

    /// The digest the memo must agree with: the region hashed afresh.
    fn fresh(mem: &DeviceMemory) -> Digest {
        ccai_crypto::sha256(&mem.read(W, WLEN).unwrap())
    }

    #[test]
    fn a_write_over_the_first_or_last_weight_byte_drops_the_memo() {
        for (addr, len) in [(W, 1), (W - 3, 4), (W + WLEN - 1, 1), (W + WLEN - 1, 9), (0, 1 << 19)] {
            let mut mem = warm();
            mem.write(addr, &vec![0xEE; len as usize]).unwrap();
            assert!(mem.weights_memo.is_none(), "write {addr:#x}+{len}");
            assert_eq!(mem.weights_digest(W, WLEN).unwrap(), fresh(&mem));
        }
    }

    #[test]
    fn an_adjacent_write_keeps_the_memo() {
        for (addr, len) in [(W - 8, 8), (W + WLEN, 8), (W - 1, 1)] {
            let mut mem = warm();
            let memo = mem.weights_memo;
            mem.write(addr, &vec![0xEE; len as usize]).unwrap();
            assert_eq!(mem.weights_memo, memo, "write {addr:#x}+{len}");
            assert_eq!(mem.weights_digest(W, WLEN).unwrap(), fresh(&mem));
        }
    }

    #[test]
    fn another_range_rehashes() {
        let mut mem = warm();
        let shorter = mem.weights_digest(W, WLEN - 1).unwrap();
        assert_eq!(shorter, ccai_crypto::sha256(&mem.read(W, WLEN - 1).unwrap()));
        assert_eq!(mem.weights_memo.map(|(a, l, _)| (a, l)), Some((W, WLEN - 1)));
        assert!(mem.weights_digest(mem.capacity(), 1).is_err());
    }

    #[test]
    fn wipe_drops_the_memo() {
        let mut mem = warm();
        mem.wipe();
        assert!(mem.weights_memo.is_none());
        assert_eq!(mem.weights_digest(W, WLEN).unwrap(), ccai_crypto::sha256(&[0; WLEN as usize]));
    }

    #[test]
    fn a_clone_carries_the_memo_consistently() {
        let mem = warm();
        let mut copy = mem.clone();
        assert_eq!(copy.weights_memo, mem.weights_memo);
        assert_eq!(copy.weights_digest(W, WLEN).unwrap(), fresh(&mem));
        copy.write(W + 7, &[0xEE]).unwrap();
        assert!(copy.weights_memo.is_none());
        assert!(mem.weights_memo.is_some());
        assert_eq!(copy.weights_digest(W, WLEN).unwrap(), fresh(&copy));
        assert_ne!(fresh(&copy), fresh(&mem));
    }

    #[test]
    fn restore_drops_the_memo_and_the_image_carries_none_of_it() {
        let encode = |mem: &DeviceMemory| {
            let mut enc = ccai_sim::snapshot::Encoder::new();
            mem.encode_snapshot(&mut enc);
            enc.finish()
        };
        let mut mem = warm();
        let mut cold = mem.clone();
        cold.weights_memo = None;
        assert_eq!(encode(&mem), encode(&cold));
        cold.write(W, &[0xEE; 8]).unwrap();
        let image = encode(&cold);
        mem.restore_snapshot(&mut ccai_sim::snapshot::Decoder::new(&image)).unwrap();
        assert!(mem.weights_memo.is_none());
        assert_eq!(mem.weights_digest(W, WLEN).unwrap(), fresh(&cold));
    }

    #[test]
    fn utilization_tracks_allocation() {
        let mut mem = DeviceMemory::new(1000);
        assert_eq!(mem.utilization(), 0.0);
        mem.alloc("half", 500).unwrap();
        assert!((mem.utilization() - 0.5).abs() < 0.01);
    }
}
