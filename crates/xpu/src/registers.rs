//! The MMIO register file.
//!
//! Drivers program xPUs through BAR-mapped registers. ccAI's L2 table
//! treats MMIO writes of "control/register values" as Write-Protected
//! packets (A3) and performs "additional security verification (e.g.
//! checking the correctness of the xPU page table register)" (§4).
//!
//! The register map is deliberately vendor-flavoured: each [`XpuSpec`]
//! family lays the same logical registers out at different offsets, so
//! the TVM driver stacks really are device-specific while the PCIe-SC
//! remains device-agnostic (it matches address *ranges*, not registers).
//!
//! [`XpuSpec`]: crate::XpuSpec

use ccai_sim::snapshot::{Decoder, Encoder, SnapshotError};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Logical register names shared by all devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Reg {
    /// DMA source address (host physical for H2D, device for D2H).
    DmaSrc,
    /// DMA destination address.
    DmaDst,
    /// DMA transfer length in bytes.
    DmaLen,
    /// DMA control/doorbell: writing a direction code starts a transfer.
    DmaCtrl,
    /// DMA status: 0 idle, 1 busy, 2 done, 3 error.
    DmaStatus,
    /// Interrupt status bits.
    IntStatus,
    /// Page table base (MMU-equipped devices).
    PageTableBase,
    /// Command doorbell: writing a command code dispatches it.
    CmdDoorbell,
    /// Command argument 0.
    CmdArg0,
    /// Command argument 1.
    CmdArg1,
    /// Command argument 2.
    CmdArg2,
    /// Command status.
    CmdStatus,
    /// Reset control: writing the magic value wipes the device.
    ResetCtrl,
    /// Firmware version (read-only).
    FirmwareVersion,
}

impl Reg {
    /// All registers, for layout generation.
    pub const ALL: [Reg; 14] = [
        Reg::DmaSrc,
        Reg::DmaDst,
        Reg::DmaLen,
        Reg::DmaCtrl,
        Reg::DmaStatus,
        Reg::IntStatus,
        Reg::PageTableBase,
        Reg::CmdDoorbell,
        Reg::CmdArg0,
        Reg::CmdArg1,
        Reg::CmdArg2,
        Reg::CmdStatus,
        Reg::ResetCtrl,
        Reg::FirmwareVersion,
    ];
}

ccai_sim::snapshot_state!(enum Reg: "unknown register index" {
    DmaSrc = 0,
    DmaDst = 1,
    DmaLen = 2,
    DmaCtrl = 3,
    DmaStatus = 4,
    IntStatus = 5,
    PageTableBase = 6,
    CmdDoorbell = 7,
    CmdArg0 = 8,
    CmdArg1 = 9,
    CmdArg2 = 10,
    CmdStatus = 11,
    ResetCtrl = 12,
    FirmwareVersion = 13,
});

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The magic value that [`Reg::ResetCtrl`] requires for a reset.
pub const RESET_MAGIC: u64 = 0xC01D_B007; // "cold boot"

/// A vendor-flavoured register file: logical registers at vendor-specific
/// byte offsets, each 8 bytes wide.
///
/// The layout is arithmetic — [`Reg::ALL`] rotated by a vendor-dependent
/// amount and spaced at a vendor-dependent stride — so an offset decodes
/// to its register with a division, and values are kept by register
/// index.
///
/// # Example
///
/// ```
/// use ccai_xpu::{RegisterFile, Reg};
///
/// let mut regs = RegisterFile::with_layout("NVIDIA", 0x0);
/// regs.write(Reg::DmaLen, 4096);
/// assert_eq!(regs.read(Reg::DmaLen), 4096);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegisterFile {
    base: u64,
    stride: u64,
    /// Slot `i` of the window holds `Reg::ALL[(i + rotation) % 14]`.
    rotation: usize,
    /// The only mutable state, by [`Reg::ALL`] index; `None` for a
    /// register not written since the last wipe. The owning device
    /// snapshots it, since the layout is a pure function of the vendor.
    values: [Option<u64>; Reg::ALL.len()],
}

impl RegisterFile {
    /// Builds a register file whose offsets depend on the vendor string —
    /// modelling the real-world divergence of register maps — starting at
    /// `base` within the BAR.
    pub fn with_layout(vendor: &str, base: u64) -> RegisterFile {
        // Deterministic vendor-specific stride and ordering.
        let seed: u64 = vendor.bytes().map(u64::from).sum();
        RegisterFile {
            base,
            stride: 8 + (seed % 3) * 8, // 8, 16, or 24 byte spacing
            // Rotate the layout by a vendor-dependent amount.
            rotation: (seed as usize) % Reg::ALL.len(),
            values: [None; Reg::ALL.len()],
        }
    }

    /// Byte offset of a register within the BAR.
    pub fn offset(&self, reg: Reg) -> u64 {
        let slot = (reg as usize + Reg::ALL.len() - self.rotation) % Reg::ALL.len();
        self.base + slot as u64 * self.stride
    }

    /// Reverse lookup: which register (if any) lives at `offset`.
    pub fn reg_at(&self, offset: u64) -> Option<Reg> {
        let delta = offset.checked_sub(self.base)?;
        if delta % self.stride != 0 {
            return None;
        }
        let slot = usize::try_from(delta / self.stride).ok().filter(|&s| s < Reg::ALL.len())?;
        Some(Reg::ALL[(slot + self.rotation) % Reg::ALL.len()])
    }

    /// Reads a register (unwritten registers read as zero).
    pub fn read(&self, reg: Reg) -> u64 {
        self.values[reg as usize].unwrap_or(0)
    }

    /// Writes a register.
    pub fn write(&mut self, reg: Reg, value: u64) {
        self.values[reg as usize] = Some(value);
    }

    /// Zeroes every register — part of the cold-boot reset.
    pub fn wipe(&mut self) {
        self.values = [None; Reg::ALL.len()];
    }

    /// Writes the written registers exactly like a `BTreeMap<Reg, u64>`
    /// of them.
    pub(crate) fn encode_values(&self, enc: &mut Encoder) {
        enc.u64(self.values.iter().flatten().count() as u64);
        for (reg, value) in Reg::ALL.iter().zip(&self.values) {
            if let Some(value) = value {
                enc.put(reg);
                enc.put(value);
            }
        }
    }

    /// Reads what [`RegisterFile::encode_values`] wrote.
    pub(crate) fn decode_values(
        dec: &mut Decoder<'_>,
    ) -> Result<[Option<u64>; Reg::ALL.len()], SnapshotError> {
        let mut values = [None; Reg::ALL.len()];
        for (reg, value) in dec.get::<BTreeMap<Reg, u64>>()? {
            values[reg as usize] = Some(value);
        }
        Ok(values)
    }

    /// Replaces every value with what [`RegisterFile::decode_values`] read.
    pub(crate) fn restore_values(&mut self, values: [Option<u64>; Reg::ALL.len()]) {
        self.values = values;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RegisterFile {
        /// Total span of the register window in bytes.
        fn span(&self) -> u64 {
            Reg::ALL.iter().map(|&r| self.offset(r) - self.base).max().unwrap_or(0) + 8
        }
    }

    #[test]
    fn layouts_differ_by_vendor() {
        let nv = RegisterFile::with_layout("NVIDIA", 0);
        let tt = RegisterFile::with_layout("Tenstorrent", 0);
        let differing = Reg::ALL
            .iter()
            .filter(|&&r| nv.offset(r) != tt.offset(r))
            .count();
        assert!(differing > Reg::ALL.len() / 2, "layouts too similar");
    }

    #[test]
    fn layout_is_deterministic() {
        let a = RegisterFile::with_layout("Enflame", 0x100);
        let b = RegisterFile::with_layout("Enflame", 0x100);
        assert_eq!(a, b);
    }

    #[test]
    fn offsets_unique_and_in_window() {
        let regs = RegisterFile::with_layout("NVIDIA", 0x40);
        let mut seen = std::collections::HashSet::new();
        for r in Reg::ALL {
            let o = regs.offset(r);
            assert!(seen.insert(o), "offset collision at {o:#x}");
            assert!(o >= 0x40 && o + 8 <= 0x40 + regs.span());
        }
    }

    #[test]
    fn reverse_lookup() {
        let regs = RegisterFile::with_layout("NVIDIA", 0);
        let o = regs.offset(Reg::DmaCtrl);
        assert_eq!(regs.reg_at(o), Some(Reg::DmaCtrl));
        assert_eq!(regs.reg_at(o + 1), None);
    }

    #[test]
    fn offsets_decode_to_their_registers_and_nothing_else_does() {
        for (i, &reg) in Reg::ALL.iter().enumerate() {
            assert_eq!(reg as usize, i, "Reg::ALL is in declaration order");
        }
        for vendor in ["NVIDIA", "Tenstorrent", "Enflame", "x"] {
            let regs = RegisterFile::with_layout(vendor, 0x40);
            for offset in 0..0x40 + regs.span() + 64 {
                let scanned = Reg::ALL.iter().copied().find(|&r| regs.offset(r) == offset);
                assert_eq!(regs.reg_at(offset), scanned, "{vendor} offset {offset:#x}");
            }
        }
    }

    #[test]
    fn values_encode_like_a_map_of_the_written_registers() {
        let mut regs = RegisterFile::with_layout("NVIDIA", 0);
        regs.write(Reg::CmdStatus, 0);
        regs.write(Reg::DmaSrc, 0x1000);
        regs.write(Reg::FirmwareVersion, 7);
        let map: BTreeMap<Reg, u64> =
            [(Reg::CmdStatus, 0), (Reg::DmaSrc, 0x1000), (Reg::FirmwareVersion, 7)].into();
        let mut by_index = Encoder::new();
        regs.encode_values(&mut by_index);
        let mut by_map = Encoder::new();
        by_map.put(&map);
        let bytes = by_index.finish();
        assert_eq!(bytes, by_map.finish());

        let mut restored = RegisterFile::with_layout("NVIDIA", 0);
        restored.restore_values(RegisterFile::decode_values(&mut Decoder::new(&bytes)).unwrap());
        assert_eq!(restored, regs);
    }

    #[test]
    fn rw_and_wipe() {
        let mut regs = RegisterFile::with_layout("NVIDIA", 0);
        assert_eq!(regs.read(Reg::DmaStatus), 0);
        regs.write(Reg::DmaStatus, 2);
        regs.write(Reg::PageTableBase, 0xdead_b000);
        assert_eq!(regs.read(Reg::DmaStatus), 2);
        regs.wipe();
        assert_eq!(regs.read(Reg::PageTableBase), 0);
    }
}
