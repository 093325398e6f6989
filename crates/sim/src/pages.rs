//! The sparse page store behind every simulated memory.
//!
//! TVM guest memory and xPU device memory are both large, mostly
//! untouched address spaces ("80 GiB" of A100 memory must not reserve
//! 80 GiB of host RAM). [`PageStore`] backs both: storage materialises
//! in [`PAGE`]-sized pages on first write, and unwritten memory reads as
//! zero. Each owner keeps its own access rules (shared ranges, bounds,
//! typed errors) and leaves the bytes to this one store.
//!
//! Every access splits its range at page boundaries in one place, and
//! every read writes each destination byte exactly once: reads append to
//! or fill the caller's buffer, a hole is copied from a zero page rather
//! than zero-filled first and overwritten. [`PageStore::range_mut`] lends
//! a range inside one page for in-place work (sealing a staged chunk
//! where it lies), and [`PageStore::slices`] walks a range page by page
//! without copying it (hashing a resident buffer).

use crate::snapshot::{Decoder, Encoder, SnapshotError};
use std::collections::BTreeMap;
use std::ops::Range;

/// Page size: storage materialises in 64 KiB pages.
pub const PAGE: u64 = 64 * 1024;

/// What a hole reads as.
static ZERO_PAGE: [u8; PAGE as usize] = [0; PAGE as usize];

/// Sparse byte store over a `u64` address space.
///
/// Bounds belong to the owner: the store itself accepts any range that
/// does not overflow `u64`.
///
/// # Example
///
/// ```
/// use ccai_sim::pages::{PageStore, PAGE};
///
/// let mut store = PageStore::default();
/// store.write(PAGE - 2, &[1, 2, 3, 4]); // straddles two pages
/// let mut out = vec![9];
/// store.read_into(PAGE - 3, 6, &mut out); // appends
/// assert_eq!(out, [9, 0, 1, 2, 3, 4, 0]);
/// store.range_mut(PAGE, 2).copy_from_slice(&[7, 7]);
/// let walked: Vec<u8> = store.slices(PAGE - 2, 4).flatten().copied().collect();
/// assert_eq!(walked, [1, 2, 7, 7]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageStore {
    pages: BTreeMap<u64, Vec<u8>>,
}

/// `[addr, addr + len)` split at page boundaries, as `(page base, range
/// within the page)` in address order.
fn spans(addr: u64, len: u64) -> impl Iterator<Item = (u64, Range<usize>)> {
    let end = addr + len;
    let mut pos = addr;
    std::iter::from_fn(move || {
        (pos < end).then(|| {
            let base = pos - pos % PAGE;
            let within = (pos - base) as usize;
            let take = (PAGE - within as u64).min(end - pos) as usize;
            pos += take as u64;
            (base, within..within + take)
        })
    })
}

impl PageStore {
    /// Writes `data` at `addr`, materialising pages as needed.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        let mut rest = data;
        for (base, within) in spans(addr, data.len() as u64) {
            let (head, tail) = rest.split_at(within.len());
            self.page_mut(base)[within].copy_from_slice(head);
            rest = tail;
        }
    }

    /// The bytes of `[addr, addr + len)` as borrowed slices, page by page
    /// in address order; holes yield zeros.
    pub fn slices(&self, addr: u64, len: u64) -> impl Iterator<Item = &[u8]> + '_ {
        spans(addr, len).map(|(base, within)| match self.pages.get(&base) {
            Some(page) => &page[within],
            None => &ZERO_PAGE[..within.len()],
        })
    }

    /// Appends the `len` bytes at `addr` to `out`.
    pub fn read_into(&self, addr: u64, len: u64, out: &mut Vec<u8>) {
        out.reserve(len as usize);
        for slice in self.slices(addr, len) {
            out.extend_from_slice(slice);
        }
    }

    /// Fills `out` with the bytes at `addr`.
    pub fn read_exact(&self, addr: u64, out: &mut [u8]) {
        let mut at = 0;
        for slice in self.slices(addr, out.len() as u64) {
            out[at..at + slice.len()].copy_from_slice(slice);
            at += slice.len();
        }
    }

    /// Lends `[addr, addr + len)` for in-place work, materialising its
    /// page.
    ///
    /// # Panics
    ///
    /// Panics if the range crosses a page boundary.
    pub fn range_mut(&mut self, addr: u64, len: usize) -> &mut [u8] {
        let base = addr - addr % PAGE;
        let within = (addr - base) as usize;
        assert!(within + len <= PAGE as usize, "range crosses a page boundary");
        &mut self.page_mut(base)[within..within + len]
    }

    fn page_mut(&mut self, base: u64) -> &mut [u8] {
        self.pages.entry(base).or_insert_with(|| vec![0; PAGE as usize])
    }

    /// Materialised pages as `(base, bytes)` in address order.
    pub fn pages(&self) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        self.pages.iter().map(|(&base, page)| (base, page.as_slice()))
    }

    /// Drops every page: the whole store reads as zero again.
    pub fn clear(&mut self) {
        self.pages.clear();
    }

    /// Appends the image: materialised pages in address order on the
    /// codec's sparse-memory path ([`Encoder::chunks`]).
    pub fn encode(&self, enc: &mut Encoder) {
        enc.chunks(&self.pages);
    }

    /// Reads an image written by [`PageStore::encode`] for an address
    /// space of `capacity` bytes.
    ///
    /// # Errors
    ///
    /// Whatever [`Decoder::chunks`] refuses.
    pub fn decode(dec: &mut Decoder<'_>, capacity: u64) -> Result<PageStore, SnapshotError> {
        Ok(PageStore { pages: dec.chunks(PAGE, capacity)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_split_at_page_boundaries() {
        let got: Vec<_> = spans(PAGE - 1, PAGE + 2).collect();
        assert_eq!(
            got,
            [
                (0, PAGE as usize - 1..PAGE as usize),
                (PAGE, 0..PAGE as usize),
                (2 * PAGE, 0..1)
            ]
        );
        assert_eq!(spans(5, 0).count(), 0);
    }

    #[test]
    #[should_panic(expected = "crosses a page boundary")]
    fn range_mut_refuses_to_cross_a_page() {
        PageStore::default().range_mut(PAGE - 1, 2);
    }

    #[test]
    fn reads_materialise_nothing() {
        let store = PageStore::default();
        let mut out = [1u8; 5];
        store.read_exact(3 * PAGE - 2, &mut out);
        assert_eq!(out, [0; 5]);
        assert_eq!(store.pages().count(), 0);
    }
}
