//! The optional on-board MMU.
//!
//! Commercial GPUs carry an on-board MMU while TPU-style parts lack one
//! (§2.1) — one of the hardware-heterogeneity facts that defeats
//! device-specific protection schemes. ccAI never programs the MMU itself
//! (it stays device-agnostic); it only *verifies* the page-table base
//! register as part of the A3 "security verify" action, which is what
//! this model supports.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Page size used by the simulated MMUs.
pub const PAGE_SIZE: u64 = 64 * 1024;

/// Errors from MMU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MmuError {
    /// Translation requested for an unmapped virtual page.
    PageFault {
        /// The faulting virtual address.
        va: u64,
    },
    /// Mapping would overwrite an existing entry.
    AlreadyMapped {
        /// The conflicting virtual page base.
        va_page: u64,
    },
    /// Address is not page-aligned.
    Misaligned {
        /// The offending address.
        addr: u64,
    },
}

impl fmt::Display for MmuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MmuError::PageFault { va } => write!(f, "page fault at {va:#x}"),
            MmuError::AlreadyMapped { va_page } => write!(f, "page {va_page:#x} already mapped"),
            MmuError::Misaligned { addr } => write!(f, "misaligned address {addr:#x}"),
        }
    }
}

impl std::error::Error for MmuError {}

/// A single-level page table plus base register and TLB model.
///
/// # Example
///
/// ```
/// use ccai_xpu::Mmu;
///
/// let mut mmu = Mmu::new(0x4000_0000);
/// mmu.map(0x0, 0x10_0000)?;
/// assert_eq!(mmu.translate(0x42)?, 0x10_0042);
/// # Ok::<(), ccai_xpu::mmu::MmuError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mmu {
    table_base: u64,
    entries: BTreeMap<u64, u64>, // va page -> pa page
    tlb_fills: u64,
}

impl Mmu {
    /// Creates an MMU whose page table lives at `table_base` in device
    /// memory.
    pub fn new(table_base: u64) -> Self {
        Mmu { table_base, entries: BTreeMap::new(), tlb_fills: 0 }
    }

    /// The page-table base register value — what the A3 environment check
    /// validates.
    pub fn table_base(&self) -> u64 {
        self.table_base
    }

    /// Reprograms the page-table base (a driver action; a *mismatching*
    /// value is what the PCIe-SC's environment check catches).
    pub fn set_table_base(&mut self, base: u64) {
        self.table_base = base;
    }

    /// Maps one page `va → pa`.
    ///
    /// # Errors
    ///
    /// [`MmuError::Misaligned`] for unaligned addresses;
    /// [`MmuError::AlreadyMapped`] if the VA page is occupied.
    pub fn map(&mut self, va: u64, pa: u64) -> Result<(), MmuError> {
        if !va.is_multiple_of(PAGE_SIZE) {
            return Err(MmuError::Misaligned { addr: va });
        }
        if !pa.is_multiple_of(PAGE_SIZE) {
            return Err(MmuError::Misaligned { addr: pa });
        }
        if self.entries.contains_key(&va) {
            return Err(MmuError::AlreadyMapped { va_page: va });
        }
        self.entries.insert(va, pa);
        Ok(())
    }

    /// Translates a virtual to a physical device address.
    ///
    /// # Errors
    ///
    /// [`MmuError::PageFault`] for unmapped pages.
    pub fn translate(&mut self, va: u64) -> Result<u64, MmuError> {
        let page = va / PAGE_SIZE * PAGE_SIZE;
        let pa_page = self.entries.get(&page).ok_or(MmuError::PageFault { va })?;
        self.tlb_fills += 1;
        Ok(pa_page + (va - page))
    }

    /// Translation count (a proxy for TLB activity, wiped on reset).
    pub fn tlb_fills(&self) -> u64 {
        self.tlb_fills
    }

    /// Clears all mappings and TLB state — the environment-guard reset.
    pub fn wipe(&mut self) {
        self.entries.clear();
        self.tlb_fills = 0;
    }
}

/// The page table, base register and TLB counter; a restored table must
/// be page-aligned.
impl ccai_sim::SnapshotState for Mmu {
    fn encode_state(&self, enc: &mut ccai_sim::Encoder) {
        enc.put(&self.table_base);
        enc.put(&self.entries);
        enc.put(&self.tlb_fills);
    }

    fn decode_state(dec: &mut ccai_sim::Decoder<'_>) -> Result<Self, ccai_sim::SnapshotError> {
        let (table_base, entries, tlb_fills): (u64, BTreeMap<u64, u64>, u64) = dec.get()?;
        if entries
            .iter()
            .any(|(va, pa)| !va.is_multiple_of(PAGE_SIZE) || !pa.is_multiple_of(PAGE_SIZE))
        {
            return Err(ccai_sim::SnapshotError::Invalid("misaligned page-table entry"));
        }
        Ok(Mmu { table_base, entries, tlb_fills })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_round_trip() {
        let mut mmu = Mmu::new(0);
        mmu.map(0, PAGE_SIZE * 4).unwrap();
        mmu.map(PAGE_SIZE, PAGE_SIZE * 9).unwrap();
        assert_eq!(mmu.translate(100).unwrap(), PAGE_SIZE * 4 + 100);
        assert_eq!(mmu.translate(PAGE_SIZE + 1).unwrap(), PAGE_SIZE * 9 + 1);
    }

    #[test]
    fn unmapped_page_faults() {
        let mut mmu = Mmu::new(0);
        assert_eq!(mmu.translate(0x5000_0000), Err(MmuError::PageFault { va: 0x5000_0000 }));
    }

    #[test]
    fn double_map_rejected() {
        let mut mmu = Mmu::new(0);
        mmu.map(0, 0).unwrap();
        assert_eq!(mmu.map(0, PAGE_SIZE), Err(MmuError::AlreadyMapped { va_page: 0 }));
    }

    #[test]
    fn misaligned_rejected() {
        let mut mmu = Mmu::new(0);
        assert!(matches!(mmu.map(5, 0), Err(MmuError::Misaligned { .. })));
        assert!(matches!(mmu.map(0, 5), Err(MmuError::Misaligned { .. })));
    }

    #[test]
    fn wipe_clears_state() {
        let mut mmu = Mmu::new(0x1000);
        mmu.map(0, 0).unwrap();
        mmu.translate(1).unwrap();
        assert_eq!(mmu.tlb_fills(), 1);
        mmu.wipe();
        assert_eq!(mmu.tlb_fills(), 0);
        assert_eq!(
            mmu.translate(1),
            Err(MmuError::PageFault { va: 1 }),
            "mappings are gone"
        );
        assert_eq!(mmu.table_base(), 0x1000, "base register survives wipe");
    }

    #[test]
    fn base_register_reprogramming() {
        let mut mmu = Mmu::new(0x1000);
        mmu.set_table_base(0xBAD0_0000);
        assert_eq!(mmu.table_base(), 0xBAD0_0000);
    }
}
