//! MIG-style device partitioning (§9 "PCIe-SC for multiple xPUs and
//! users").
//!
//! "The PCIe-SC distinguishes each xPU, or virtual functions on a xPU,
//! by unique PCIe identifiers (e.g., Bus/Device/Function ID)." This
//! module models a multi-instance accelerator: one physical endpoint
//! exposing N virtual functions, each with its own function number and
//! hard memory quota — so a multi-tenant security controller can key
//! policy and crypto per VF.
//!
//! A VF is an xPU engine behind a BAR stride: each runs the very engine
//! a whole [`crate::Xpu`] runs (register dispatch, DMA with its busy
//! guard, abort and stall recovery, command processor, interrupts, DMA
//! telemetry), built like the xPU's but with the VF's memory quota. The
//! device only routes: BAR0 and BAR1 accesses by stride, DMA completions
//! by requester id. Drivers bind to a VF exactly as to a whole device:
//! same register layout, same programming model, a per-VF BAR window
//! slice.

use crate::device::{bar_config, decode_bar, unclaimed, Bar, Engine, BAR1_SIZE};
use crate::registers::RegisterFile;
use crate::spec::XpuSpec;
use ccai_pcie::{device::handle_config_access, Bdf, ConfigSpace, PcieDevice, Tlp, TlpList};
use ccai_sim::Telemetry;
use std::fmt;

/// Per-VF register window stride within BAR0.
pub const VF_BAR0_STRIDE: u64 = 0x1_0000;

/// Per-VF aperture size within BAR1.
pub const VF_BAR1_STRIDE: u64 = 1 << 24; // 16 MiB per instance

/// A multi-instance xPU: one endpoint, N virtual functions.
pub struct PartitionedXpu {
    spec: XpuSpec,
    pf_bdf: Bdf,
    config: ConfigSpace,
    bar0_base: u64,
    vfs: Vec<Engine>,
}

impl fmt::Debug for PartitionedXpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PartitionedXpu")
            .field("spec", &self.spec.name())
            .field("vfs", &self.vfs.len())
            .finish()
    }
}

impl PartitionedXpu {
    /// Creates a device at `pf_bdf` (function 0) with `vf_count` virtual
    /// functions (functions 1..=vf_count), each with an equal memory
    /// quota and each reporting DMA spans to `telemetry` under its own
    /// BDF.
    ///
    /// # Panics
    ///
    /// Panics if `vf_count` is 0 or greater than 7 (the function-number
    /// width), or if `bar_base` is not 256 MiB-aligned.
    pub fn new(
        spec: XpuSpec,
        pf_bdf: Bdf,
        bar_base: u64,
        vf_count: u8,
        telemetry: Telemetry,
    ) -> PartitionedXpu {
        assert!((1..=7).contains(&vf_count), "1-7 virtual functions");
        assert_eq!(pf_bdf.function(), 0, "PF must be function 0");
        let config = bar_config(0x10DE, 0x20B7, bar_base);
        let quota = spec.memory_bytes() / vf_count as u64;
        let vfs = (1..=vf_count)
            .map(|i| {
                let bdf = Bdf::new(pf_bdf.bus(), pf_bdf.device(), i);
                Engine::new(&spec, bdf, quota, telemetry.clone())
            })
            .collect();
        PartitionedXpu { spec, pf_bdf, config, bar0_base: bar_base, vfs }
    }

    /// Number of virtual functions.
    pub fn vf_count(&self) -> usize {
        self.vfs.len()
    }

    /// The BDF of VF `index` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn vf_bdf(&self, index: usize) -> Bdf {
        self.vfs[index].bdf()
    }

    /// Base of VF `index`'s register window within BAR0.
    pub fn vf_bar0(&self, index: usize) -> u64 {
        self.bar0_base + index as u64 * VF_BAR0_STRIDE
    }

    /// Base of VF `index`'s aperture window within BAR1.
    pub fn vf_bar1(&self, index: usize) -> u64 {
        self.bar0_base + BAR1_SIZE + index as u64 * VF_BAR1_STRIDE
    }

    /// The VF's register layout (all VFs share the vendor layout).
    pub fn vf_registers(&self, index: usize) -> &RegisterFile {
        self.vfs[index].registers()
    }

    /// The full host-address window the device decodes.
    pub fn address_window(&self) -> std::ops::Range<u64> {
        self.bar0_base..self.bar0_base + 2 * BAR1_SIZE
    }
}

impl PcieDevice for PartitionedXpu {
    fn bdf(&self) -> Bdf {
        self.pf_bdf
    }

    fn config_space(&self) -> &ConfigSpace {
        &self.config
    }

    fn config_space_mut(&mut self) -> &mut ConfigSpace {
        &mut self.config
    }

    fn handle(&mut self, tlp: Tlp) -> TlpList {
        if let Some(cpl) = handle_config_access(self, &tlp) {
            return TlpList::one(cpl);
        }
        let decoded = tlp.header().address().and_then(|addr| decode_bar(self.bar0_base, addr));
        let Some((bar, offset)) = decoded else {
            return unclaimed(self.pf_bdf, &tlp);
        };
        let stride = match bar {
            Bar::Registers => VF_BAR0_STRIDE,
            Bar::Aperture => VF_BAR1_STRIDE,
        };
        match self.vfs.get_mut((offset / stride) as usize) {
            Some(vf) => vf.access(bar, offset % stride, &tlp),
            None => unclaimed(self.pf_bdf, &tlp),
        }
    }

    fn poll_outbound(&mut self) -> Vec<Tlp> {
        self.vfs.iter_mut().flat_map(Engine::poll_outbound).collect()
    }

    fn deliver_completion(&mut self, tlp: &Tlp) {
        // Route by the original requester: each VF's DMA engine issued
        // reads under its own BDF.
        let requester = tlp.header().requester();
        if let Some(vf) = self.vfs.iter_mut().find(|vf| vf.bdf() == requester) {
            vf.deliver_completion(tlp);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registers::{Reg, RESET_MAGIC};
    use crate::CommandProcessor;
    use ccai_pcie::{Fabric, PortId, TlpType, VecHostMemory};

    fn host() -> Bdf {
        Bdf::new(0, 2, 0)
    }

    fn setup() -> (Fabric, VecHostMemory, PartitionedXpu) {
        let hub = Telemetry::default();
        let xpu =
            PartitionedXpu::new(XpuSpec::a100(), Bdf::new(0x17, 0, 0), 0x8000_0000, 2, hub.clone());
        (Fabric::new(hub), VecHostMemory::new(1 << 20), xpu)
    }

    fn attach(fabric: &mut Fabric, xpu: PartitionedXpu) {
        let window = xpu.address_window();
        for i in 0..xpu.vf_count() {
            fabric.map_bdf(xpu.vf_bdf(i), PortId(0));
        }
        fabric.attach(PortId(0), Box::new(xpu));
        fabric.map_range(window, PortId(0));
    }

    #[test]
    fn vf_bdfs_are_distinct_functions() {
        let (_, _, xpu) = setup();
        assert_eq!(xpu.vf_bdf(0), Bdf::new(0x17, 0, 1));
        assert_eq!(xpu.vf_bdf(1), Bdf::new(0x17, 0, 2));
        assert_eq!(xpu.vf_count(), 2);
    }

    #[test]
    fn vfs_have_isolated_memory_windows() {
        let (mut fabric, _mem, xpu) = setup();
        let vf0_win = xpu.vf_bar1(0);
        let vf1_win = xpu.vf_bar1(1);
        attach(&mut fabric, xpu);
        fabric.host_request(Tlp::memory_write(host(), vf0_win, vec![0xAA; 16]));
        fabric.host_request(Tlp::memory_write(host(), vf1_win, vec![0xBB; 16]));
        let r0 = fabric.host_request(Tlp::memory_read(host(), vf0_win, 16, 0));
        let r1 = fabric.host_request(Tlp::memory_read(host(), vf1_win, 16, 1));
        assert_eq!(r0[0].payload(), &[0xAA; 16]);
        assert_eq!(r1[0].payload(), &[0xBB; 16]);
        // Completions carry the owning VF's BDF — what a multi-tenant SC
        // keys on.
        assert_eq!(r0[0].header().completer(), Some(Bdf::new(0x17, 0, 1)));
        assert_eq!(r1[0].header().completer(), Some(Bdf::new(0x17, 0, 2)));
    }

    #[test]
    fn per_vf_dma_uses_the_vf_requester_id() {
        let (mut fabric, mut mem, xpu) = setup();
        let vf1_regs_base = xpu.vf_bar0(1);
        let regs = xpu.vf_registers(1).clone();
        let vf1 = xpu.vf_bdf(1);
        attach(&mut fabric, xpu);

        mem.as_mut_slice()[0x100..0x110].fill(0x5C);
        let write_reg = |fabric: &mut Fabric, reg: Reg, value: u64| {
            fabric.host_request(Tlp::memory_write(
                host(),
                vf1_regs_base + regs.offset(reg),
                value.to_le_bytes().to_vec(),
            ));
        };
        write_reg(&mut fabric, Reg::DmaSrc, 0x100);
        write_reg(&mut fabric, Reg::DmaDst, 0);
        write_reg(&mut fabric, Reg::DmaLen, 16);

        // Snoop the requester of the DMA read.
        let adversary = ccai_pcie::BusAdversary::new();
        fabric.add_tap(adversary.tap());
        write_reg(&mut fabric, Reg::DmaCtrl, 1);
        while fabric.pump(&mut mem) > 0 {}
        let reads = adversary.log().of_type(TlpType::MemRead).len();
        assert!(reads >= 1);
        assert!(adversary
            .log()
            .observed
            .iter()
            .any(|(t, _)| t.header().tlp_type() == TlpType::MemRead
                && t.header().requester() == vf1));
    }

    #[test]
    fn vf_reset_wipes_only_that_instance() {
        let (mut fabric, _mem, xpu) = setup();
        let vf0_win = xpu.vf_bar1(0);
        let vf1_win = xpu.vf_bar1(1);
        let vf0_regs = xpu.vf_bar0(0);
        let regs = xpu.vf_registers(0).clone();
        attach(&mut fabric, xpu);

        fabric.host_request(Tlp::memory_write(host(), vf0_win, vec![0xAA; 8]));
        fabric.host_request(Tlp::memory_write(host(), vf1_win, vec![0xBB; 8]));
        fabric.host_request(Tlp::memory_write(
            host(),
            vf0_regs + regs.offset(Reg::ResetCtrl),
            RESET_MAGIC.to_le_bytes().to_vec(),
        ));
        let r0 = fabric.host_request(Tlp::memory_read(host(), vf0_win, 8, 0));
        let r1 = fabric.host_request(Tlp::memory_read(host(), vf1_win, 8, 1));
        assert_eq!(r0[0].payload(), &[0u8; 8], "VF0 wiped");
        assert_eq!(r1[0].payload(), &[0xBB; 8], "VF1 untouched");
    }

    #[test]
    fn vf_inference_is_independent() {
        let (mut fabric, mut mem, xpu) = setup();
        let wins: Vec<u64> = (0..2).map(|i| xpu.vf_bar1(i)).collect();
        let reg_bases: Vec<u64> = (0..2).map(|i| xpu.vf_bar0(i)).collect();
        let regs = xpu.vf_registers(0).clone();
        attach(&mut fabric, xpu);

        for (i, (win, reg_base)) in wins.iter().zip(reg_bases.iter()).enumerate() {
            let weights = format!("weights-{i}").into_bytes();
            let input = format!("input-{i}").into_bytes();
            fabric.host_request(Tlp::memory_write(host(), win + 0x1000, weights.clone()));
            fabric.host_request(Tlp::memory_write(host(), win + 0x2000, input.clone()));
            let wr = |fabric: &mut Fabric, reg: Reg, value: u64| {
                fabric.host_request(Tlp::memory_write(
                    host(),
                    reg_base + regs.offset(reg),
                    value.to_le_bytes().to_vec(),
                ));
            };
            wr(&mut fabric, Reg::CmdArg0, 0x1000);
            wr(&mut fabric, Reg::CmdArg1, weights.len() as u64);
            wr(&mut fabric, Reg::CmdDoorbell, 1);
            wr(&mut fabric, Reg::CmdArg0, 0x2000);
            wr(&mut fabric, Reg::CmdArg1, input.len() as u64);
            wr(&mut fabric, Reg::CmdArg2, 0x3000);
            wr(&mut fabric, Reg::CmdDoorbell, 2);
            let result = fabric.host_request(Tlp::memory_read(host(), win + 0x3000, 32, 7));
            assert_eq!(
                result[0].payload(),
                CommandProcessor::surrogate_inference(&weights, &input),
                "VF {i}"
            );
        }
        while fabric.pump(&mut mem) > 0 {}
        assert!(fabric.drain_host_inbox().len() >= 2, "per-VF interrupts");
    }

    #[test]
    fn duplicated_vf_doorbell_keeps_the_transfer_running() {
        let (mut fabric, mut mem, xpu) = setup();
        let (regs_base, window) = (xpu.vf_bar0(0), xpu.vf_bar1(0));
        let regs = xpu.vf_registers(0).clone();
        attach(&mut fabric, xpu);
        let write_reg = |fabric: &mut Fabric, reg: Reg, value: u64| {
            fabric.host_request(Tlp::memory_write(
                host(),
                regs_base + regs.offset(reg),
                value.to_le_bytes().to_vec(),
            ));
        };
        let read_reg = |fabric: &mut Fabric, reg: Reg| {
            let replies =
                fabric.host_request(Tlp::memory_read(host(), regs_base + regs.offset(reg), 8, 3));
            u64::from_le_bytes(replies[0].payload().try_into().expect("8-byte register"))
        };
        let program_h2d = |fabric: &mut Fabric, device_addr: u64| {
            write_reg(fabric, Reg::DmaSrc, 0x100);
            write_reg(fabric, Reg::DmaDst, device_addr);
            write_reg(fabric, Reg::DmaLen, 16);
        };
        mem.as_mut_slice()[0x100..0x110].fill(0x5C);

        // A duplicated doorbell delivery reaches the VF before any pump.
        program_h2d(&mut fabric, 0);
        write_reg(&mut fabric, Reg::DmaCtrl, 1);
        write_reg(&mut fabric, Reg::DmaCtrl, 1);
        while fabric.pump(&mut mem) > 0 {}
        assert_eq!(read_reg(&mut fabric, Reg::DmaStatus), 2, "transfer done");
        let landed = fabric.host_request(Tlp::memory_read(host(), window, 16, 4));
        assert_eq!(landed[0].payload(), &[0x5C; 16], "VF 0 memory holds the bytes");

        // `DmaCtrl = 0` mid-transfer aborts the VF's engine, as on `Xpu`.
        program_h2d(&mut fabric, 0x1000);
        write_reg(&mut fabric, Reg::DmaCtrl, 1);
        assert_eq!(read_reg(&mut fabric, Reg::DmaStatus), 1, "busy");
        write_reg(&mut fabric, Reg::DmaCtrl, 0);
        assert_eq!(read_reg(&mut fabric, Reg::DmaStatus), 0, "aborted to idle");
        while fabric.pump(&mut mem) > 0 {}
        let untouched = fabric.host_request(Tlp::memory_read(host(), window + 0x1000, 16, 5));
        assert_eq!(untouched[0].payload(), &[0; 16], "an aborted transfer lands nothing");
    }

    #[test]
    #[should_panic(expected = "1-7 virtual functions")]
    fn zero_vfs_rejected() {
        let hub = Telemetry::default();
        let _ = PartitionedXpu::new(XpuSpec::a100(), Bdf::new(0x17, 0, 0), 0x8000_0000, 0, hub);
    }
}
