//! Bus/Device/Function identifiers.
//!
//! Every PCIe requester and completer is named by a 16-bit BDF triple.
//! The Packet Filter's L1/L2 tables match on these IDs to distinguish the
//! authorized TVM from rogue software and peripherals (§4.1), and the
//! multi-xPU extension (§9) routes per-xPU policy by BDF.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A PCIe Bus/Device/Function identifier.
///
/// # Example
///
/// ```
/// use ccai_pcie::Bdf;
///
/// let gpu = Bdf::new(0x17, 0x00, 0);
/// assert_eq!(gpu.to_string(), "17:00.0");
/// assert_eq!(Bdf::from_u16(gpu.to_u16()), gpu);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Bdf {
    bus: u8,
    device: u8,
    function: u8,
}

impl Bdf {
    /// Creates a BDF.
    ///
    /// # Panics
    ///
    /// Panics if `device > 31` or `function > 7` (field widths are 5 and 3
    /// bits).
    pub fn new(bus: u8, device: u8, function: u8) -> Self {
        assert!(device < 32, "device number must fit in 5 bits");
        assert!(function < 8, "function number must fit in 3 bits");
        Bdf { bus, device, function }
    }

    /// Bus number.
    pub fn bus(self) -> u8 {
        self.bus
    }

    /// Device number (0–31).
    pub fn device(self) -> u8 {
        self.device
    }

    /// Function number (0–7).
    pub fn function(self) -> u8 {
        self.function
    }

    /// Packs into the 16-bit wire representation
    /// (`bus[15:8] | device[7:3] | function[2:0]`).
    pub fn to_u16(self) -> u16 {
        ((self.bus as u16) << 8) | ((self.device as u16) << 3) | self.function as u16
    }

    /// Unpacks from the 16-bit wire representation.
    pub fn from_u16(raw: u16) -> Self {
        Bdf {
            bus: (raw >> 8) as u8,
            device: ((raw >> 3) & 0x1f) as u8,
            function: (raw & 0x7) as u8,
        }
    }
}

/// Snapshots carry the 16-bit wire form.
impl ccai_sim::SnapshotState for Bdf {
    fn encode_state(&self, enc: &mut ccai_sim::Encoder) {
        enc.u16(self.to_u16());
    }

    fn decode_state(dec: &mut ccai_sim::Decoder<'_>) -> Result<Self, ccai_sim::SnapshotError> {
        Ok(Bdf::from_u16(dec.u16()?))
    }
}

impl fmt::Display for Bdf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:02x}:{:02x}.{}", self.bus, self.device, self.function)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u16_round_trip_all_fields() {
        for bus in [0u8, 1, 0x7f, 0xff] {
            for device in [0u8, 1, 31] {
                for function in [0u8, 3, 7] {
                    let bdf = Bdf::new(bus, device, function);
                    assert_eq!(Bdf::from_u16(bdf.to_u16()), bdf);
                }
            }
        }
    }

    #[test]
    fn wire_layout_matches_spec() {
        let bdf = Bdf::new(0xAB, 0x1F, 0x7);
        assert_eq!(bdf.to_u16(), 0xABFF);
        let bdf = Bdf::new(0x01, 0x02, 0x03);
        assert_eq!(bdf.to_u16(), 0x0113);
    }

    #[test]
    fn display_format() {
        assert_eq!(Bdf::new(0, 0, 0).to_string(), "00:00.0");
        assert_eq!(Bdf::new(0x3a, 0x10, 5).to_string(), "3a:10.5");
    }

    #[test]
    #[should_panic(expected = "5 bits")]
    fn oversized_device_rejected() {
        let _ = Bdf::new(0, 32, 0);
    }

    #[test]
    #[should_panic(expected = "3 bits")]
    fn oversized_function_rejected() {
        let _ = Bdf::new(0, 0, 8);
    }

    #[test]
    fn ordering_is_by_bus_then_device_then_function() {
        let a = Bdf::new(0, 1, 0);
        let b = Bdf::new(0, 1, 1);
        let c = Bdf::new(1, 0, 0);
        assert!(a < b && b < c);
    }
}
