//! Per-function PCIe configuration space.
//!
//! Each endpoint exposes the standard 4 KiB configuration space: the type-0
//! header (vendor/device ID, six BARs) plus device-specific extended space.
//! [`crate::device::handle_config_access`] answers configuration TLPs from
//! it, and the driver's enumeration reads the IDs and BARs back.

use serde::{Deserialize, Serialize};

/// Size of the full configuration space.
pub const CONFIG_SPACE_LEN: usize = 4096;

/// Byte offset of the vendor ID register.
pub const REG_VENDOR_ID: u16 = 0x00;
/// Byte offset of the device ID register.
pub const REG_DEVICE_ID: u16 = 0x02;
/// Byte offset of the first Base Address Register.
pub const REG_BAR0: u16 = 0x10;

/// A 4 KiB type-0 configuration space.
///
/// # Example
///
/// ```
/// use ccai_pcie::ConfigSpace;
///
/// let mut cfg = ConfigSpace::new(0x10DE, 0x20B0); // NVIDIA A100
/// cfg.set_bar(0, 0xF000_0000, 16 << 20);
/// assert_eq!(cfg.vendor_id(), 0x10DE);
/// assert_eq!(cfg.bar(0), Some((0xF000_0000, 16 << 20)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfigSpace {
    bytes: Vec<u8>,
    bar_sizes: [u64; 6],
}

impl ConfigSpace {
    /// Creates a config space with the given vendor/device IDs and all
    /// BARs unprogrammed.
    pub fn new(vendor_id: u16, device_id: u16) -> Self {
        let mut cfg = ConfigSpace { bytes: vec![0; CONFIG_SPACE_LEN], bar_sizes: [0; 6] };
        cfg.write_u16(REG_VENDOR_ID, vendor_id);
        cfg.write_u16(REG_DEVICE_ID, device_id);
        cfg
    }

    /// Vendor ID.
    pub fn vendor_id(&self) -> u16 {
        self.read_u16(REG_VENDOR_ID)
    }

    /// Device ID.
    pub fn device_id(&self) -> u16 {
        self.read_u16(REG_DEVICE_ID)
    }

    /// Reads a 16-bit register (little-endian, as on the wire).
    ///
    /// # Panics
    ///
    /// Panics if the offset is out of bounds.
    pub fn read_u16(&self, offset: u16) -> u16 {
        let o = offset as usize;
        u16::from_le_bytes([self.bytes[o], self.bytes[o + 1]])
    }

    /// Writes a 16-bit register.
    ///
    /// # Panics
    ///
    /// Panics if the offset is out of bounds.
    pub fn write_u16(&mut self, offset: u16, value: u16) {
        let o = offset as usize;
        self.bytes[o..o + 2].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a 32-bit register.
    ///
    /// # Panics
    ///
    /// Panics if the offset is out of bounds.
    pub fn read_u32(&self, offset: u16) -> u32 {
        let o = offset as usize;
        u32::from_le_bytes([
            self.bytes[o],
            self.bytes[o + 1],
            self.bytes[o + 2],
            self.bytes[o + 3],
        ])
    }

    /// Writes a 32-bit register.
    ///
    /// # Panics
    ///
    /// Panics if the offset is out of bounds.
    pub fn write_u32(&mut self, offset: u16, value: u32) {
        let o = offset as usize;
        self.bytes[o..o + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Programs BAR `index` (0–5) with a 64-bit base address and size.
    ///
    /// # Panics
    ///
    /// Panics if `index > 5`, the size is not a power of two, or the base
    /// is not size-aligned.
    pub fn set_bar(&mut self, index: usize, base: u64, size: u64) {
        assert!(index < 6, "BAR index out of range");
        assert!(size.is_power_of_two(), "BAR size must be a power of two");
        assert_eq!(base % size, 0, "BAR base must be size-aligned");
        let offset = REG_BAR0 + 4 * index as u16;
        // 64-bit memory BAR encoding: bit 2 set in the low dword.
        self.write_u32(offset, (base as u32 & !0xF) | 0b100);
        if index < 5 {
            self.write_u32(offset + 4, (base >> 32) as u32);
        }
        self.bar_sizes[index] = size;
    }

    /// Returns BAR `index`'s `(base, size)` if programmed.
    ///
    /// # Panics
    ///
    /// Panics if `index > 5`.
    pub fn bar(&self, index: usize) -> Option<(u64, u64)> {
        assert!(index < 6, "BAR index out of range");
        let size = self.bar_sizes[index];
        if size == 0 {
            return None;
        }
        let offset = REG_BAR0 + 4 * index as u16;
        let low = (self.read_u32(offset) & !0xF) as u64;
        let high = if index < 5 { self.read_u32(offset + 4) as u64 } else { 0 };
        Some(((high << 32) | low, size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_land_in_the_right_registers() {
        let cfg = ConfigSpace::new(0x10DE, 0x20B0);
        assert_eq!(cfg.vendor_id(), 0x10DE);
        assert_eq!(cfg.device_id(), 0x20B0);
        assert_eq!(cfg.read_u32(0), 0x20B0_10DE); // little-endian layout
    }

    #[test]
    fn bar_round_trip_64bit() {
        let mut cfg = ConfigSpace::new(1, 2);
        cfg.set_bar(0, 0x20_0000_0000, 1 << 30);
        assert_eq!(cfg.bar(0), Some((0x20_0000_0000, 1 << 30)));
        assert_eq!(cfg.bar(2), None);
    }

    #[test]
    fn bar_alignment_enforced() {
        let mut cfg = ConfigSpace::new(1, 2);
        cfg.set_bar(1, 0x4000, 0x4000);
        assert_eq!(cfg.bar(1), Some((0x4000, 0x4000)));
    }

    #[test]
    #[should_panic(expected = "size-aligned")]
    fn misaligned_bar_rejected() {
        let mut cfg = ConfigSpace::new(1, 2);
        cfg.set_bar(0, 0x1000, 0x4000);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_bar_rejected() {
        let mut cfg = ConfigSpace::new(1, 2);
        cfg.set_bar(0, 0, 0x3000);
    }

    #[test]
    fn extended_space_round_trip() {
        let mut cfg = ConfigSpace::new(1, 2);
        cfg.write_u32(0x100, 0x0504_0302);
        assert_eq!(cfg.read_u32(0x100), 0x0504_0302);
        assert_eq!(cfg.read_u16(0x102), 0x0504);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let cfg = ConfigSpace::new(1, 2);
        let _ = cfg.read_u32(0xFFE);
    }
}
