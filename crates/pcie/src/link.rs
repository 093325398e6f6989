//! PCIe link speed/width and serialization-time models.
//!
//! The Fig. 12a stress test varies the link between 16 GT/s × 16 lanes,
//! 8 GT/s × 16 lanes and 8 GT/s × 8 lanes; this module turns a link
//! configuration into an effective data rate and packetized transfer times.
//!
//! Effective throughput accounts for:
//!
//! * the line-encoding overhead — 8b/10b below Gen3, 128b/130b from Gen3;
//! * per-TLP framing (start/end symbols, sequence number, LCRC) and the
//!   TLP header itself, amortized over the configured max payload;
//! * a fixed per-packet pipeline latency for the first packet.

use ccai_sim::{Bandwidth, SimDuration};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Physical-layer framing overhead per TLP in bytes (STP/END framing,
/// sequence number, LCRC).
pub const FRAMING_OVERHEAD_BYTES: usize = 8;

/// Propagation + logic latency charged once per transfer.
pub const LINK_LATENCY: SimDuration = SimDuration::from_nanos(150);

/// PCIe generation (signalling rate per lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LinkSpeed {
    /// 2.5 GT/s, 8b/10b.
    Gen1,
    /// 5 GT/s, 8b/10b.
    Gen2,
    /// 8 GT/s, 128b/130b.
    Gen3,
    /// 16 GT/s, 128b/130b.
    Gen4,
    /// 32 GT/s, 128b/130b.
    Gen5,
}

impl LinkSpeed {
    /// Transfer rate in GT/s per lane.
    pub fn gigatransfers_per_sec(self) -> f64 {
        match self {
            LinkSpeed::Gen1 => 2.5,
            LinkSpeed::Gen2 => 5.0,
            LinkSpeed::Gen3 => 8.0,
            LinkSpeed::Gen4 => 16.0,
            LinkSpeed::Gen5 => 32.0,
        }
    }

    /// Line-encoding efficiency (payload bits per transferred bit).
    pub fn encoding_efficiency(self) -> f64 {
        match self {
            LinkSpeed::Gen1 | LinkSpeed::Gen2 => 8.0 / 10.0,
            _ => 128.0 / 130.0,
        }
    }

    /// Raw data rate per lane in bytes/second after encoding.
    pub fn lane_bytes_per_sec(self) -> f64 {
        self.gigatransfers_per_sec() * 1e9 * self.encoding_efficiency() / 8.0
    }
}

impl fmt::Display for LinkSpeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}GT/s", self.gigatransfers_per_sec())
    }
}

/// A configured PCIe link: generation × lane count × max payload size.
///
/// # Example
///
/// ```
/// use ccai_pcie::{LinkConfig, LinkSpeed};
///
/// // An A100's Gen4 x16 link moves ~31.5 GB/s raw.
/// let link = LinkConfig::new(LinkSpeed::Gen4, 16);
/// assert!(link.raw_bandwidth().gbytes_per_sec() > 31.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    speed: LinkSpeed,
    lanes: u8,
    max_payload: u16,
}

impl LinkConfig {
    /// Creates a link with a 256-byte max payload (the common default).
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not one of 1, 2, 4, 8, 16.
    pub fn new(speed: LinkSpeed, lanes: u8) -> Self {
        Self::with_max_payload(speed, lanes, 256)
    }

    /// Creates a link with an explicit max payload size.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is not a power of two up to 16, or `max_payload`
    /// is not a power of two in 128–4096.
    pub fn with_max_payload(speed: LinkSpeed, lanes: u8, max_payload: u16) -> Self {
        assert!(
            matches!(lanes, 1 | 2 | 4 | 8 | 16),
            "lane count must be 1, 2, 4, 8 or 16"
        );
        assert!(
            max_payload.is_power_of_two() && (128..=4096).contains(&max_payload),
            "max payload must be a power of two in 128..=4096"
        );
        LinkConfig { speed, lanes, max_payload }
    }

    /// Raw post-encoding bandwidth (no TLP overhead).
    pub fn raw_bandwidth(self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.speed.lane_bytes_per_sec() * self.lanes as f64)
    }

    /// Number of TLPs needed to move `bytes` of data.
    pub fn packet_count(self, bytes: u64) -> u64 {
        bytes.div_ceil(self.max_payload as u64)
    }

    /// Time to move `bytes` of DMA data across the link, including
    /// packetization overhead and one pipeline latency.
    pub fn dma_time(self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let packets = self.packet_count(bytes);
        let wire_bytes = bytes + packets * (12 + FRAMING_OVERHEAD_BYTES as u64);
        LINK_LATENCY + self.raw_bandwidth().transfer_time(wire_bytes)
    }
}

impl fmt::Display for LinkConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} x{}", self.speed, self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_rates_are_canonical() {
        assert_eq!(LinkSpeed::Gen3.gigatransfers_per_sec(), 8.0);
        assert_eq!(LinkSpeed::Gen4.gigatransfers_per_sec(), 16.0);
        // Gen1/2 pay 20% encoding, Gen3+ ~1.5%.
        assert!(LinkSpeed::Gen2.encoding_efficiency() < 0.81);
        assert!(LinkSpeed::Gen3.encoding_efficiency() > 0.98);
    }

    #[test]
    fn gen4_x16_is_about_32_gb() {
        let link = LinkConfig::new(LinkSpeed::Gen4, 16);
        let gb = link.raw_bandwidth().gbytes_per_sec();
        assert!((31.0..32.0).contains(&gb), "got {gb}");
    }

    #[test]
    fn gen3_x16_is_about_half_of_gen4_x16() {
        let g4 = LinkConfig::new(LinkSpeed::Gen4, 16).raw_bandwidth();
        let g3 = LinkConfig::new(LinkSpeed::Gen3, 16).raw_bandwidth();
        let ratio = g4.bytes_per_sec() / g3.bytes_per_sec();
        assert!((ratio - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lanes_scale_linearly() {
        let x16 = LinkConfig::new(LinkSpeed::Gen3, 16).raw_bandwidth();
        let x8 = LinkConfig::new(LinkSpeed::Gen3, 8).raw_bandwidth();
        assert!((x16.bytes_per_sec() / x8.bytes_per_sec() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn packet_count_rounds_up() {
        let link = LinkConfig::new(LinkSpeed::Gen4, 16);
        assert_eq!(link.packet_count(0), 0);
        assert_eq!(link.packet_count(1), 1);
        assert_eq!(link.packet_count(256), 1);
        assert_eq!(link.packet_count(257), 2);
        assert_eq!(link.packet_count(1 << 20), 4096);
    }

    #[test]
    fn dma_time_monotonic_in_bytes_and_speed() {
        let g4 = LinkConfig::new(LinkSpeed::Gen4, 16);
        let g3 = LinkConfig::new(LinkSpeed::Gen3, 16);
        assert_eq!(g4.dma_time(0), SimDuration::ZERO);
        assert!(g4.dma_time(1 << 20) < g4.dma_time(1 << 22));
        assert!(g4.dma_time(1 << 22) < g3.dma_time(1 << 22));
    }

    #[test]
    #[should_panic(expected = "lane count")]
    fn bad_lane_count_rejected() {
        let _ = LinkConfig::new(LinkSpeed::Gen3, 3);
    }

    #[test]
    #[should_panic(expected = "max payload")]
    fn bad_max_payload_rejected() {
        let _ = LinkConfig::with_max_payload(LinkSpeed::Gen3, 16, 100);
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(LinkConfig::new(LinkSpeed::Gen4, 16).to_string(), "16GT/s x16");
        assert_eq!(LinkConfig::new(LinkSpeed::Gen3, 8).to_string(), "8GT/s x8");
    }
}
