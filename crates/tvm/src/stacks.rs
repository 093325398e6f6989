//! Vendor user-layer library models.
//!
//! The prototype runs three very different software stacks unmodified:
//! CUDA 12.1 + the NVIDIA 550 driver, tt-buda + ttkmd for the
//! Tenstorrent NPU, and EFSMI + the Enflame driver (§7). What makes them
//! "different" from ccAI's viewpoint is their call discipline — how they
//! probe the device, how eagerly they poll, how they stage work — while
//! all of them bottom out in the same DMA/MMIO primitives.
//!
//! Each stack model here wraps the kernel-level [`XpuDriver`] with a
//! vendor-flavoured ritual. None of them knows ccAI exists; the
//! transparency tests run all three against vanilla and protected
//! platforms and require identical results.

use crate::driver::{DriverError, XpuDriver};
use crate::guest_memory::GuestMemory;
use crate::port::TlpPort;
use crate::stager::DmaStager;
use ccai_xpu::{CmdStatus, Opcode, Reg};
use std::fmt;

/// A loaded model handle, as user-layer APIs hand out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelHandle {
    device_addr: u64,
    len: u64,
}

/// The vendor-neutral face of a user-layer stack: load a model, run an
/// inference. Mirrors the level at which applications program real
/// accelerators (`cudaMemcpy`+launch, tt-buda run, EFSMI submit).
pub trait UserStack: fmt::Debug {
    /// The stack's marketing name.
    fn name(&self) -> &'static str;

    /// Initializes the stack against the device.
    ///
    /// # Errors
    ///
    /// Propagates driver probe failures.
    fn initialize(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
    ) -> Result<(), DriverError>;

    /// Uploads and registers a model.
    ///
    /// # Errors
    ///
    /// Propagates DMA/command failures.
    fn load_model(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        weights: &[u8],
    ) -> Result<ModelHandle, DriverError>;

    /// Runs one inference over `input`.
    ///
    /// # Errors
    ///
    /// Propagates DMA/command failures.
    fn infer(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        model: ModelHandle,
        input: &[u8],
    ) -> Result<Vec<u8>, DriverError>;
}

const DEV_WEIGHTS: u64 = 0x10_0000;
const DEV_INPUT: u64 = 0x400_0000;
const DEV_OUTPUT: u64 = 0x500_0000;

/// CUDA-like stack: context-heavy. Probes aggressively at init (several
/// register reads), keeps a "context" of the last-seen device state, and
/// double-checks DMA completion with an extra status poll.
#[derive(Debug)]
pub struct CudaLikeStack {
    driver: XpuDriver,
    context_cookie: u64,
}

impl CudaLikeStack {
    /// Wraps a bound driver.
    pub fn new(driver: XpuDriver) -> Self {
        CudaLikeStack { driver, context_cookie: 0 }
    }
}

impl UserStack for CudaLikeStack {
    fn name(&self) -> &'static str {
        "CUDA-like"
    }

    fn initialize(
        &mut self,
        port: &mut dyn TlpPort,
        _memory: &mut GuestMemory,
        _stager: &mut dyn DmaStager,
    ) -> Result<(), DriverError> {
        self.driver.init(port)?;
        // Context creation: probe a handful of status registers.
        let mut cookie = 0u64;
        for reg in [Reg::FirmwareVersion, Reg::DmaStatus, Reg::CmdStatus, Reg::IntStatus] {
            cookie = cookie.wrapping_mul(31).wrapping_add(self.driver.read_register(port, reg)?);
        }
        self.context_cookie = cookie;
        Ok(())
    }

    fn load_model(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        weights: &[u8],
    ) -> Result<ModelHandle, DriverError> {
        self.driver.load_model(port, memory, stager, weights, DEV_WEIGHTS)?;
        // Paranoid double-check, as CUDA's synchronous APIs do.
        if self.driver.read_register(port, Reg::CmdStatus)? != CmdStatus::Done.to_code() {
            return Err(DriverError::CommandFailed);
        }
        Ok(ModelHandle { device_addr: DEV_WEIGHTS, len: weights.len() as u64 })
    }

    fn infer(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        _model: ModelHandle,
        input: &[u8],
    ) -> Result<Vec<u8>, DriverError> {
        self.driver
            .run_inference(port, memory, stager, input, DEV_INPUT, DEV_OUTPUT)
    }
}

/// tt-buda-like stack: compile-then-run. "Compiles" the model (an extra
/// metadata blob uploaded next to the weights) and runs with minimal
/// polling.
#[derive(Debug)]
pub struct TtBudaLikeStack {
    driver: XpuDriver,
    compiled: bool,
}

impl TtBudaLikeStack {
    /// Wraps a bound driver.
    pub fn new(driver: XpuDriver) -> Self {
        TtBudaLikeStack { driver, compiled: false }
    }
}

impl UserStack for TtBudaLikeStack {
    fn name(&self) -> &'static str {
        "tt-buda-like"
    }

    fn initialize(
        &mut self,
        port: &mut dyn TlpPort,
        _memory: &mut GuestMemory,
        _stager: &mut dyn DmaStager,
    ) -> Result<(), DriverError> {
        self.driver.init(port)
    }

    fn load_model(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        weights: &[u8],
    ) -> Result<ModelHandle, DriverError> {
        // "Compilation": ship a routing/netlist blob ahead of the weights
        // (extra DMA traffic the PCIe-SC must also handle transparently).
        let netlist = vec![0x7Eu8; 2048];
        self.driver
            .dma_to_device(port, memory, stager, &netlist, DEV_WEIGHTS + 0x80_0000)?;
        self.compiled = true;
        self.driver.load_model(port, memory, stager, weights, DEV_WEIGHTS)?;
        Ok(ModelHandle { device_addr: DEV_WEIGHTS, len: weights.len() as u64 })
    }

    fn infer(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        _model: ModelHandle,
        input: &[u8],
    ) -> Result<Vec<u8>, DriverError> {
        if !self.compiled {
            return Err(DriverError::CommandFailed);
        }
        self.driver
            .run_inference(port, memory, stager, input, DEV_INPUT, DEV_OUTPUT)
    }
}

/// EFSMI-like stack: management-tool flavour. Queries device health
/// before every operation (the `efsmi` utility habit) and uploads inputs
/// in two halves.
#[derive(Debug)]
pub struct EfsmiLikeStack {
    driver: XpuDriver,
    health_checks: u64,
}

impl EfsmiLikeStack {
    /// Wraps a bound driver.
    pub fn new(driver: XpuDriver) -> Self {
        EfsmiLikeStack { driver, health_checks: 0 }
    }

    fn health_check(&mut self, port: &mut dyn TlpPort) -> Result<(), DriverError> {
        self.health_checks += 1;
        let _ = self.driver.read_register(port, Reg::IntStatus)?;
        let _ = self.driver.read_register(port, Reg::DmaStatus)?;
        Ok(())
    }
}

impl UserStack for EfsmiLikeStack {
    fn name(&self) -> &'static str {
        "EFSMI-like"
    }

    fn initialize(
        &mut self,
        port: &mut dyn TlpPort,
        _memory: &mut GuestMemory,
        _stager: &mut dyn DmaStager,
    ) -> Result<(), DriverError> {
        self.driver.init(port)?;
        self.health_check(port)
    }

    fn load_model(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        weights: &[u8],
    ) -> Result<ModelHandle, DriverError> {
        self.health_check(port)?;
        self.driver.load_model(port, memory, stager, weights, DEV_WEIGHTS)?;
        Ok(ModelHandle { device_addr: DEV_WEIGHTS, len: weights.len() as u64 })
    }

    fn infer(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        _model: ModelHandle,
        input: &[u8],
    ) -> Result<Vec<u8>, DriverError> {
        self.health_check(port)?;
        // Two-stage input upload: halves land adjacently, then one run.
        let mid = input.len() / 2;
        if mid > 0 && input.len() - mid > 0 {
            self.driver.dma_to_device(port, memory, stager, &input[..mid], DEV_INPUT)?;
            self.driver
                .dma_to_device(port, memory, stager, &input[mid..], DEV_INPUT + mid as u64)?;
            // Command registers point at the already-uploaded input.
            self.driver.write_register(port, Reg::CmdArg0, DEV_INPUT)?;
            self.driver.write_register(port, Reg::CmdArg1, input.len() as u64)?;
            self.driver.write_register(port, Reg::CmdArg2, DEV_OUTPUT)?;
            self.driver.ring(port, Opcode::RunInference)?;
            self.driver.dma_from_device(port, memory, stager, DEV_OUTPUT, 32)
        } else {
            self.driver
                .run_inference(port, memory, stager, input, DEV_INPUT, DEV_OUTPUT)
        }
    }
}

/// Builds the stack a vendor's devices ship with.
pub fn stack_for_vendor(vendor: &str, driver: XpuDriver) -> Box<dyn UserStack> {
    match vendor {
        "NVIDIA" => Box::new(CudaLikeStack::new(driver)),
        "Tenstorrent" => Box::new(TtBudaLikeStack::new(driver)),
        _ => Box::new(EfsmiLikeStack::new(driver)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stager::IdentityStager;
    use ccai_pcie::{Bdf, Fabric, PortId};
    use ccai_xpu::{CommandProcessor, Xpu, XpuSpec};

    fn rig(spec: XpuSpec) -> (Fabric, GuestMemory, IdentityStager, XpuDriver) {
        let hub = ccai_sim::Telemetry::default();
        let xpu = Xpu::new(spec, Bdf::new(0x17, 0, 0), 0x8000_0000, hub.clone());
        let driver = XpuDriver::for_xpu(Bdf::new(0, 2, 0), &xpu, hub.clone());
        let window = xpu.address_window();
        let mut fabric = Fabric::new(hub);
        fabric.attach(PortId(0), Box::new(xpu));
        fabric.map_range(window, PortId(0));
        let mut memory = GuestMemory::new(1 << 24);
        memory.share_range(0x10_0000..0x80_0000);
        (fabric, memory, IdentityStager::new(0x10_0000, 0x70_0000), driver)
    }

    fn exercise(stack: &mut dyn UserStack, spec: XpuSpec) {
        let (mut fabric, mut memory, mut stager, _driver) = rig(spec);
        stack
            .initialize(&mut fabric, &mut memory, &mut stager)
            .unwrap_or_else(|e| panic!("{}: init {e}", stack.name()));
        let model = stack
            .load_model(&mut fabric, &mut memory, &mut stager, b"vendor weights")
            .unwrap();
        let result = stack
            .infer(&mut fabric, &mut memory, &mut stager, model, b"vendor input")
            .unwrap();
        assert_eq!(
            result,
            CommandProcessor::surrogate_inference(b"vendor weights", b"vendor input"),
            "{}",
            stack.name()
        );
    }

    #[test]
    fn cuda_like_stack_runs() {
        let (_, _, _, driver) = rig(XpuSpec::a100());
        let mut stack = CudaLikeStack::new(driver);
        exercise(&mut stack, XpuSpec::a100());
    }

    #[test]
    fn tt_buda_like_stack_runs() {
        let (_, _, _, driver) = rig(XpuSpec::tenstorrent_n150d());
        let mut stack = TtBudaLikeStack::new(driver);
        exercise(&mut stack, XpuSpec::tenstorrent_n150d());
    }

    #[test]
    fn efsmi_like_stack_runs() {
        let (_, _, _, driver) = rig(XpuSpec::enflame_s60());
        let mut stack = EfsmiLikeStack::new(driver);
        exercise(&mut stack, XpuSpec::enflame_s60());
    }

    #[test]
    fn uninitialized_tt_buda_refuses_to_run() {
        let (mut fabric, mut memory, mut stager, driver) = rig(XpuSpec::tenstorrent_n150d());
        let mut stack = TtBudaLikeStack::new(driver);
        stack.initialize(&mut fabric, &mut memory, &mut stager).unwrap();
        let bogus = ModelHandle { device_addr: 0, len: 0 };
        assert_eq!(
            stack
                .infer(&mut fabric, &mut memory, &mut stager, bogus, b"x")
                .unwrap_err(),
            DriverError::CommandFailed,
            "running without compilation must fail"
        );
    }

    #[test]
    fn stack_for_vendor_picks_the_right_flavor() {
        let (_, _, _, d1) = rig(XpuSpec::a100());
        let (_, _, _, d2) = rig(XpuSpec::tenstorrent_n150d());
        let (_, _, _, d3) = rig(XpuSpec::enflame_s60());
        assert_eq!(stack_for_vendor("NVIDIA", d1).name(), "CUDA-like");
        assert_eq!(stack_for_vendor("Tenstorrent", d2).name(), "tt-buda-like");
        assert_eq!(stack_for_vendor("Enflame", d3).name(), "EFSMI-like");
    }
}
