//! The xPU device catalog.
//!
//! One spec per accelerator the paper evaluates (§7, Fig. 10), carrying
//! the published parameters the performance model needs. Figures are
//! approximate public datasheet values — the simulation only needs their
//! relative magnitudes to reproduce the evaluation's shape.

use ccai_pcie::{LinkConfig, LinkSpeed};
use ccai_sim::Bandwidth;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Accelerator family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum XpuKind {
    /// Graphics processing unit.
    Gpu,
    /// Neural processing unit.
    Npu,
    /// FPGA-based accelerator.
    FpgaAccelerator,
}

impl fmt::Display for XpuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XpuKind::Gpu => write!(f, "GPU"),
            XpuKind::Npu => write!(f, "NPU"),
            XpuKind::FpgaAccelerator => write!(f, "FPGA-Acc"),
        }
    }
}

const A100: &str = "NVIDIA A100";
const RTX4090TI: &str = "NVIDIA RTX4090Ti";
const T4: &str = "NVIDIA T4";
const N150D: &str = "Tenstorrent N150d";
const S60: &str = "Enflame S60";

type Build = fn() -> XpuSpec;

/// The evaluation devices by name, in the paper's Fig. 10 order.
const EVALUATION: [(&str, Build); 5] = [
    (A100, XpuSpec::a100),
    (T4, XpuSpec::t4),
    (RTX4090TI, XpuSpec::rtx4090ti),
    (S60, XpuSpec::enflame_s60),
    (N150D, XpuSpec::tenstorrent_n150d),
];

/// Static description of one xPU model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XpuSpec {
    name: String,
    vendor: String,
    kind: XpuKind,
    memory_bytes: u64,
    link: LinkConfig,
    /// Sustained dense FP16 throughput in TFLOP/s.
    compute_tflops: f64,
    /// Device memory bandwidth in GB/s.
    memory_bandwidth_gbps: f64,
    /// GPUs carry an on-board MMU; TPU-style parts do not (§2.1).
    has_mmu: bool,
    /// Whether a software-triggered environment reset is supported (§4.2).
    supports_soft_reset: bool,
    firmware_version: String,
}

impl XpuSpec {
    /// Builds a custom spec.
    ///
    /// # Panics
    ///
    /// Panics if memory, compute, or bandwidth is zero/non-positive.
    #[allow(clippy::too_many_arguments)]
    pub fn custom(
        name: &str,
        vendor: &str,
        kind: XpuKind,
        memory_bytes: u64,
        link: LinkConfig,
        compute_tflops: f64,
        memory_bandwidth_gbps: f64,
        has_mmu: bool,
        supports_soft_reset: bool,
        firmware_version: &str,
    ) -> XpuSpec {
        assert!(memory_bytes > 0, "device memory must be positive");
        assert!(compute_tflops > 0.0, "compute throughput must be positive");
        assert!(memory_bandwidth_gbps > 0.0, "memory bandwidth must be positive");
        XpuSpec {
            name: name.to_string(),
            vendor: vendor.to_string(),
            kind,
            memory_bytes,
            link,
            compute_tflops,
            memory_bandwidth_gbps,
            has_mmu,
            supports_soft_reset,
            firmware_version: firmware_version.to_string(),
        }
    }

    /// NVIDIA A100 80GB PCIe (Gen4 ×16).
    pub fn a100() -> XpuSpec {
        Self::custom(
            A100,
            "NVIDIA",
            XpuKind::Gpu,
            80 << 30,
            LinkConfig::new(LinkSpeed::Gen4, 16),
            312.0,
            1935.0,
            true,
            true,
            "92.00.45.00.06",
        )
    }

    /// NVIDIA RTX 4090 Ti-class consumer GPU (Gen4 ×16).
    pub fn rtx4090ti() -> XpuSpec {
        Self::custom(
            RTX4090TI,
            "NVIDIA",
            XpuKind::Gpu,
            24 << 30,
            LinkConfig::new(LinkSpeed::Gen4, 16),
            330.0,
            1008.0,
            true,
            true,
            "95.02.18.80.01",
        )
    }

    /// NVIDIA T4 inference GPU (Gen3 ×16).
    pub fn t4() -> XpuSpec {
        Self::custom(
            T4,
            "NVIDIA",
            XpuKind::Gpu,
            16 << 30,
            LinkConfig::new(LinkSpeed::Gen3, 16),
            65.0,
            320.0,
            true,
            true,
            "90.04.38.00.03",
        )
    }

    /// Tenstorrent Wormhole N150d NPU (Gen4 ×16). No on-board MMU — the
    /// heterogeneity case of §2.1.
    pub fn tenstorrent_n150d() -> XpuSpec {
        Self::custom(
            N150D,
            "Tenstorrent",
            XpuKind::Npu,
            12 << 30,
            LinkConfig::new(LinkSpeed::Gen4, 16),
            74.0,
            288.0,
            false,
            true,
            "ttkmd-1.29",
        )
    }

    /// Enflame S60 inference GPU (Gen4 ×16).
    pub fn enflame_s60() -> XpuSpec {
        Self::custom(
            S60,
            "Enflame",
            XpuKind::Gpu,
            48 << 30,
            LinkConfig::new(LinkSpeed::Gen4, 16),
            140.0,
            696.0,
            true,
            false,
            "1.4.0.3",
        )
    }

    /// All five evaluation devices, in the paper's Fig. 10 order.
    pub fn evaluation_set() -> Vec<XpuSpec> {
        EVALUATION.iter().map(|(_, build)| build()).collect()
    }

    /// The evaluation device called `name`, if any. Only that spec is
    /// built: a snapshot names its device, and resuming one should not
    /// pay for the other four.
    pub fn evaluation_by_name(name: &str) -> Option<XpuSpec> {
        EVALUATION.iter().find(|(n, _)| *n == name).map(|(_, build)| build())
    }

    /// Marketing name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Vendor name.
    pub fn vendor(&self) -> &str {
        &self.vendor
    }

    /// On-device memory capacity in bytes.
    pub fn memory_bytes(&self) -> u64 {
        self.memory_bytes
    }

    /// The device's PCIe link.
    pub fn link(&self) -> LinkConfig {
        self.link
    }

    /// Returns a copy of this spec running on a different link — used by
    /// the Fig. 12a limited-bandwidth stress test.
    pub fn with_link(&self, link: LinkConfig) -> XpuSpec {
        XpuSpec { link, ..self.clone() }
    }

    /// Sustained FP16 throughput in TFLOP/s.
    pub fn compute_tflops(&self) -> f64 {
        self.compute_tflops
    }

    /// Compute throughput as a [`Bandwidth`] in FLOP/s.
    pub fn compute_rate(&self) -> Bandwidth {
        Bandwidth::from_bytes_per_sec(self.compute_tflops * 1e12)
    }

    /// Device memory bandwidth.
    pub fn memory_bandwidth(&self) -> Bandwidth {
        Bandwidth::from_gbytes_per_sec(self.memory_bandwidth_gbps)
    }

    /// Whether the device has an on-board MMU.
    pub fn has_mmu(&self) -> bool {
        self.has_mmu
    }

    /// Whether a software-triggered environment reset is supported.
    pub fn supports_soft_reset(&self) -> bool {
        self.supports_soft_reset
    }

    /// Firmware version string.
    pub fn firmware_version(&self) -> &str {
        &self.firmware_version
    }
}

impl fmt::Display for XpuSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {} GiB, {}, {} TFLOPS)",
            self.name,
            self.kind,
            self.memory_bytes >> 30,
            self.link,
            self.compute_tflops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluation_set_has_five_distinct_devices() {
        let set = XpuSpec::evaluation_set();
        assert_eq!(set.len(), 5);
        for (i, a) in set.iter().enumerate() {
            for b in &set[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
    }

    #[test]
    fn each_evaluation_device_is_found_by_its_own_name() {
        for spec in XpuSpec::evaluation_set() {
            assert_eq!(XpuSpec::evaluation_by_name(spec.name()), Some(spec));
        }
        assert_eq!(XpuSpec::evaluation_by_name("NVIDIA H100"), None);
    }

    #[test]
    fn heterogeneity_is_modelled() {
        // All three NVIDIA GPUs + Enflame have MMUs; the NPU does not.
        assert!(XpuSpec::a100().has_mmu());
        assert!(XpuSpec::enflame_s60().has_mmu());
        assert!(!XpuSpec::tenstorrent_n150d().has_mmu());
        // The Enflame part lacks soft reset, forcing the cold-boot path.
        assert!(!XpuSpec::enflame_s60().supports_soft_reset());
    }

    #[test]
    fn relative_performance_ordering() {
        // A100 out-computes T4 by roughly 5x; T4 rides a slower link.
        let a100 = XpuSpec::a100();
        let t4 = XpuSpec::t4();
        assert!(a100.compute_tflops() > 4.0 * t4.compute_tflops());
        assert!(
            a100.link().raw_bandwidth().bytes_per_sec()
                > 1.9 * t4.link().raw_bandwidth().bytes_per_sec()
        );
    }

    #[test]
    fn with_link_only_changes_link() {
        let base = XpuSpec::a100();
        let slow = base.with_link(LinkConfig::new(LinkSpeed::Gen3, 8));
        assert_eq!(slow.name(), base.name());
        assert_eq!(slow.memory_bytes(), base.memory_bytes());
        assert_ne!(
            slow.link().raw_bandwidth().bytes_per_sec(),
            base.link().raw_bandwidth().bytes_per_sec()
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_memory_rejected() {
        let _ = XpuSpec::custom(
            "x",
            "v",
            XpuKind::Gpu,
            0,
            LinkConfig::new(LinkSpeed::Gen3, 16),
            1.0,
            1.0,
            true,
            true,
            "1",
        );
    }

    #[test]
    fn display_mentions_key_facts() {
        let s = XpuSpec::a100().to_string();
        assert!(s.contains("A100") && s.contains("80 GiB") && s.contains("16GT/s"));
    }
}
