//! The assembled xPU: a PCIe endpoint wiring spec, memory, registers,
//! MMU, DMA engine, command processor and firmware together.
//!
//! The device exposes two BARs:
//!
//! * **BAR0** — the MMIO register window ([`crate::RegisterFile`], with a
//!   vendor-specific layout);
//! * **BAR1** — a direct aperture into device memory (drivers use it for
//!   small pokes; bulk data rides DMA).
//!
//! [`Xpu`] is a device shell — config space, firmware, BAR bases — around
//! one engine: the per-function state a register or aperture access
//! reaches (registers, memory, MMU, DMA, command processor, interrupts,
//! telemetry hub). A MIG-style [`crate::PartitionedXpu`] runs one such
//! engine per virtual function behind its own shell, so both kinds of
//! device execute the same register dispatch, DMA and BAR access code.
//!
//! Crucially for ccAI's transparency claim, the device (and the driver
//! models in `ccai-tvm`) behave *identically* whether or not a PCIe-SC is
//! interposed in front of them.

use crate::command::{Command, CommandProcessor, Opcode};
use crate::dma::{DmaControl, DmaDirection, DmaEngine, DmaRequest, DmaStatus};
use crate::firmware::Firmware;
use crate::memory::DeviceMemory;
use crate::mmu::Mmu;
use crate::registers::{Reg, RegisterFile, RESET_MAGIC};
use crate::spec::XpuSpec;
use ccai_crypto::SchnorrKeyPair;
use ccai_pcie::{
    device::handle_config_access, Bdf, ConfigSpace, CplStatus, PcieDevice, Tlp, TlpList, TlpType,
};
use ccai_sim::{Bandwidth, Hop, Severity, Telemetry};
use std::cell::OnceCell;
use std::fmt;

/// BAR0 (register window) size.
pub const BAR0_SIZE: u64 = 1 << 20;
/// BAR1 (device-memory aperture) size.
pub const BAR1_SIZE: u64 = 1 << 28; // 256 MiB aperture

/// The BAR a memory request decodes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bar {
    /// BAR0, the register window.
    Registers,
    /// BAR1, the device-memory aperture.
    Aperture,
}

/// Config space with BAR0 at `bar_base` and BAR1 in the size-aligned slot
/// right after it.
///
/// # Panics
///
/// Panics if `bar_base` is not 256 MiB-aligned.
pub(crate) fn bar_config(vendor_id: u16, device_id: u16, bar_base: u64) -> ConfigSpace {
    assert_eq!(bar_base % BAR1_SIZE, 0, "BAR base must be 256 MiB-aligned");
    let mut config = ConfigSpace::new(vendor_id, device_id);
    config.set_bar(0, bar_base, BAR0_SIZE);
    config.set_bar(2, bar_base + BAR1_SIZE, BAR1_SIZE);
    config
}

/// The BAR and offset `addr` decodes to on a device whose BAR0 sits at
/// `bar0_base` (BAR1 follows it, as [`bar_config`] lays them out).
pub(crate) fn decode_bar(bar0_base: u64, addr: u64) -> Option<(Bar, u64)> {
    let bar1_base = bar0_base + BAR1_SIZE;
    if (bar0_base..bar0_base + BAR0_SIZE).contains(&addr) {
        Some((Bar::Registers, addr - bar0_base))
    } else if (bar1_base..bar1_base + BAR1_SIZE).contains(&addr) {
        Some((Bar::Aperture, addr - bar1_base))
    } else {
        None
    }
}

/// A request no function claims: reads complete as Unsupported Request,
/// everything else (posted writes, messages) is absorbed.
pub(crate) fn unclaimed(completer: Bdf, tlp: &Tlp) -> TlpList {
    let header = tlp.header();
    let status = CplStatus::UnsupportedRequest;
    let read = header.tlp_type().is_read();
    read.then(|| Tlp::completion(completer, header.requester(), header.tag(), status)).into()
}

/// One PCIe function's execution engine: the register file, device
/// memory, MMU, DMA engine, command processor and interrupt state that
/// BAR accesses and DMA completions drive, reporting DMA spans to the
/// telemetry hub under the function's BDF.
pub(crate) struct Engine {
    bdf: Bdf,
    memory_bandwidth: Bandwidth,
    registers: RegisterFile,
    memory: DeviceMemory,
    mmu: Option<Mmu>,
    dma: DmaEngine,
    commands: CommandProcessor,
    interrupts_sent: u64,
    cold_boots: u64,
    telemetry: Telemetry,
}

impl Engine {
    /// An engine for function `bdf` of a `spec` device, owning
    /// `memory_bytes` of device memory.
    pub(crate) fn new(spec: &XpuSpec, bdf: Bdf, memory_bytes: u64, telemetry: Telemetry) -> Engine {
        Engine {
            bdf,
            memory_bandwidth: spec.memory_bandwidth(),
            registers: RegisterFile::with_layout(spec.vendor(), 0),
            memory: DeviceMemory::new(memory_bytes),
            mmu: spec.has_mmu().then(|| Mmu::new(0x1000)),
            dma: DmaEngine::new(bdf),
            commands: CommandProcessor::new(),
            interrupts_sent: 0,
            cold_boots: 0,
            telemetry,
        }
    }

    /// The function's requester id.
    pub(crate) fn bdf(&self) -> Bdf {
        self.bdf
    }

    /// The register layout.
    pub(crate) fn registers(&self) -> &RegisterFile {
        &self.registers
    }

    /// Performs a cold-boot reset: memory, registers, MMU, TLB, DMA and
    /// command state are all wiped (the xPU environment guard's A-action).
    fn cold_boot_reset(&mut self) {
        self.memory.wipe();
        self.registers.wipe();
        if let Some(mmu) = &mut self.mmu {
            mmu.wipe();
        }
        self.dma.wipe();
        self.commands.wipe();
        self.cold_boots += 1;
    }

    fn register_write(&mut self, reg: Reg, value: u64) {
        self.registers.write(reg, value);
        match reg {
            Reg::DmaCtrl => {
                let direction = match DmaControl::from_code(value) {
                    Some(DmaControl::Abort) => {
                        // Recover an engine stuck mid-transfer after
                        // packet loss, without a full cold boot.
                        self.dma.abort();
                        self.sync_dma_status();
                        return;
                    }
                    Some(DmaControl::HostToDevice) => DmaDirection::HostToDevice,
                    Some(DmaControl::DeviceToHost) => DmaDirection::DeviceToHost,
                    None => return,
                };
                // A duplicated doorbell delivery must not restart (or
                // panic) an engine already working on this transfer; the
                // register itself was updated above, so driver read-back
                // verification still sees the value it wrote.
                if self.dma.status() == DmaStatus::Busy {
                    return;
                }
                let request = DmaRequest {
                    direction,
                    host_addr: match direction {
                        DmaDirection::HostToDevice => self.registers.read(Reg::DmaSrc),
                        DmaDirection::DeviceToHost => self.registers.read(Reg::DmaDst),
                    },
                    device_addr: match direction {
                        DmaDirection::HostToDevice => self.registers.read(Reg::DmaDst),
                        DmaDirection::DeviceToHost => self.registers.read(Reg::DmaSrc),
                    },
                    len: self.registers.read(Reg::DmaLen),
                };
                if request.len == 0 {
                    return;
                }
                self.dma.start(request, &mut self.memory);
                self.sync_dma_status();
            }
            Reg::CmdDoorbell => {
                let command = match Opcode::from_code(value) {
                    Some(Opcode::LoadModel) => Command::LoadModel {
                        addr: self.registers.read(Reg::CmdArg0),
                        len: self.registers.read(Reg::CmdArg1),
                    },
                    Some(Opcode::RunInference) => Command::RunInference {
                        input: self.registers.read(Reg::CmdArg0),
                        len: self.registers.read(Reg::CmdArg1),
                        output: self.registers.read(Reg::CmdArg2),
                    },
                    Some(Opcode::Clear) | None => return,
                };
                let status = self.commands.execute(command, &mut self.memory);
                self.registers.write(Reg::CmdStatus, status.to_code());
                self.raise_interrupt();
            }
            Reg::ResetCtrl
                if value == RESET_MAGIC => {
                    self.cold_boot_reset();
                }
            Reg::PageTableBase => {
                if let Some(mmu) = &mut self.mmu {
                    mmu.set_table_base(value);
                }
            }
            _ => {}
        }
    }

    fn sync_dma_status(&mut self) {
        let prev_code = self.registers.read(Reg::DmaStatus);
        let status = self.dma.status();
        self.registers.write(Reg::DmaStatus, status.to_code());
        if matches!(status, DmaStatus::Done | DmaStatus::Error) {
            self.raise_interrupt();
            // Telemetry only on the edge, not on every re-poll of a
            // finished engine.
            if prev_code != status.to_code() {
                let bytes = self.dma.bytes_moved();
                let tenant = Some(u32::from(self.bdf.to_u16()));
                self.telemetry.advance_span(
                    Hop::Dma,
                    tenant,
                    self.memory_bandwidth.transfer_time(bytes),
                );
                match status {
                    DmaStatus::Done => {
                        self.telemetry.record(
                            Severity::Info,
                            "xpu.dma.complete",
                            tenant,
                            None,
                            format!("bytes={bytes}"),
                        );
                        self.telemetry.counter_add("xpu.dma.completions", 1);
                    }
                    _ => {
                        self.telemetry.record(
                            Severity::Warn,
                            "xpu.dma.error",
                            tenant,
                            None,
                            format!("bytes={bytes}"),
                        );
                        self.telemetry.counter_add("xpu.dma.errors", 1);
                    }
                }
            }
        }
    }

    fn raise_interrupt(&mut self) {
        self.interrupts_sent += 1;
        self.registers
            .write(Reg::IntStatus, self.registers.read(Reg::IntStatus) | 1);
    }

    /// Serves a memory request that decoded to `offset` within this
    /// function's window of `bar`.
    pub(crate) fn access(&mut self, bar: Bar, offset: u64, tlp: &Tlp) -> TlpList {
        let header = tlp.header();
        let reply = |data| {
            TlpList::one(Tlp::completion_with_data(self.bdf, header.requester(), header.tag(), data))
        };
        let unsupported = || {
            TlpList::one(Tlp::completion(
                self.bdf,
                header.requester(),
                header.tag(),
                CplStatus::UnsupportedRequest,
            ))
        };
        match (bar, header.tlp_type()) {
            (Bar::Registers, TlpType::MemWrite) => {
                if let Some(reg) = self.registers.reg_at(offset) {
                    let mut bytes = [0u8; 8];
                    let payload = tlp.payload();
                    let n = payload.len().min(8);
                    bytes[..n].copy_from_slice(&payload[..n]);
                    self.register_write(reg, u64::from_le_bytes(bytes));
                }
                TlpList::new()
            }
            (Bar::Registers, TlpType::MemRead) => {
                let value = self
                    .registers
                    .reg_at(offset)
                    .map(|reg| self.registers.read(reg))
                    .unwrap_or(0);
                let len = (header.payload_len() as usize).min(8);
                reply(value.to_le_bytes()[..len].to_vec())
            }
            (Bar::Registers, _) => unsupported(),
            (Bar::Aperture, TlpType::MemWrite) => {
                let _ = self.memory.write(offset, tlp.payload());
                TlpList::new()
            }
            (Bar::Aperture, TlpType::MemRead) => {
                match self.memory.read(offset, header.payload_len() as u64) {
                    Ok(data) => reply(data),
                    Err(_) => unsupported(),
                }
            }
            (Bar::Aperture, _) => TlpList::new(),
        }
    }

    /// Drains the TLPs the function puts on the bus: DMA traffic, then a
    /// fresh interrupt as a message TLP.
    pub(crate) fn poll_outbound(&mut self) -> Vec<Tlp> {
        let mut out = self.dma.poll_outbound();
        if self.registers.read(Reg::IntStatus) & 1 != 0 {
            self.registers.write(Reg::IntStatus, 0);
            out.push(Tlp::message(self.bdf, 0x20));
        }
        out
    }

    /// Delivers a read completion to the DMA engine.
    pub(crate) fn deliver_completion(&mut self, tlp: &Tlp) {
        self.dma.deliver_completion(tlp, &mut self.memory);
        self.sync_dma_status();
    }

    fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        self.registers.encode_values(enc);
        self.memory.encode_snapshot(enc);
        enc.put(&self.mmu);
        self.dma.encode_snapshot(enc);
        enc.put(&self.commands);
        enc.put(&self.interrupts_sent);
        enc.put(&self.cold_boots);
    }

    fn restore_snapshot(
        &mut self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::snapshot::SnapshotError> {
        let registers = RegisterFile::decode_values(dec)?;
        let mut memory = DeviceMemory::new(self.memory.capacity());
        memory.restore_snapshot(dec)?;
        let mmu: Option<Mmu> = dec.get()?;
        if mmu.is_some() != self.mmu.is_some() {
            return Err(ccai_sim::snapshot::SnapshotError::Invalid("MMU presence mismatch"));
        }
        let mut dma = DmaEngine::new(self.bdf);
        dma.restore_snapshot(dec)?;
        let commands = dec.get()?;
        let (interrupts_sent, cold_boots) = dec.get()?;
        self.registers.restore_values(registers);
        self.memory = memory;
        self.mmu = mmu;
        self.dma = dma;
        self.commands = commands;
        self.interrupts_sent = interrupts_sent;
        self.cold_boots = cold_boots;
        Ok(())
    }
}

/// A simulated xPU endpoint.
pub struct Xpu {
    spec: XpuSpec,
    config: ConfigSpace,
    bar0_base: u64,
    /// Signed on first use: nothing on the datapath reads it.
    firmware: OnceCell<Firmware>,
    engine: Engine,
}

impl fmt::Debug for Xpu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Xpu")
            .field("spec", &self.spec.name())
            .field("bdf", &self.engine.bdf)
            .field("dma", &self.engine.dma)
            .finish()
    }
}

impl Xpu {
    /// Creates a device of the given spec at `bdf`, with BAR0 at
    /// `bar_base` and BAR1 right after it, reporting DMA completions (and
    /// errors) to `telemetry` with device-memory transfer time charged as
    /// a [`Hop::Dma`] span.
    ///
    /// The vendor-signed firmware image is not made here but on the
    /// first call to [`Xpu::firmware`].
    pub fn new(spec: XpuSpec, bdf: Bdf, bar_base: u64, telemetry: Telemetry) -> Xpu {
        let config =
            bar_config(vendor_id_of(spec.vendor()), device_id_of(spec.name()), bar_base);
        let engine = Engine::new(&spec, bdf, spec.memory_bytes(), telemetry);
        Xpu { spec, config, bar0_base: bar_base, firmware: OnceCell::new(), engine }
    }

    /// The device spec.
    pub fn spec(&self) -> &XpuSpec {
        &self.spec
    }

    /// BAR0 base address (registers).
    pub fn bar0_base(&self) -> u64 {
        self.bar0_base
    }

    /// BAR1 base address (device-memory aperture).
    pub fn bar1_base(&self) -> u64 {
        self.bar0_base + BAR1_SIZE
    }

    /// The full host-address window the device decodes (both BARs) —
    /// the range the fabric should route to its port.
    pub fn address_window(&self) -> std::ops::Range<u64> {
        self.bar0_base..self.bar1_base() + BAR1_SIZE
    }

    /// The register layout (drivers need it; the PCIe-SC does not).
    pub fn registers(&self) -> &RegisterFile {
        &self.engine.registers
    }

    /// Device memory, for test assertions.
    pub fn memory(&self) -> &DeviceMemory {
        &self.engine.memory
    }

    /// The firmware image, signed by the spec's vendor the first time
    /// this device is asked for it. Each device holds its own copy, so
    /// tampering with one leaves every other device's image intact.
    pub fn firmware(&self) -> &Firmware {
        self.firmware.get_or_init(|| {
            let vendor_entropy = {
                let mut e = [0u8; 32];
                let name = self.spec.vendor().as_bytes();
                e[..name.len().min(32)].copy_from_slice(&name[..name.len().min(32)]);
                e
            };
            Firmware::build_signed(
                self.spec.firmware_version(),
                format!("{}-firmware-image", self.spec.name()).into_bytes(),
                &SchnorrKeyPair::generate(&vendor_entropy),
            )
        })
    }

    /// Mutable firmware (for tamper tests).
    #[doc(hidden)]
    pub fn firmware_mut(&mut self) -> &mut Firmware {
        self.firmware();
        self.firmware.get_mut().expect("signed by `firmware`")
    }

    /// Total bytes the DMA engine has requested via read TLPs.
    pub fn dma_read_bytes_requested(&self) -> u64 {
        self.engine.dma.read_bytes_requested()
    }
}

fn vendor_id_of(vendor: &str) -> u16 {
    match vendor {
        "NVIDIA" => 0x10DE,
        "Tenstorrent" => 0x1E52,
        "Enflame" => 0x1EA0,
        other => 0x1000 + other.len() as u16,
    }
}

fn device_id_of(name: &str) -> u16 {
    name.bytes().fold(0u16, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u16))
}

impl PcieDevice for Xpu {
    fn bdf(&self) -> Bdf {
        self.engine.bdf
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
        match tlp.header().address().and_then(|addr| decode_bar(self.bar0_base, addr)) {
            Some((bar, offset)) => self.engine.access(bar, offset, &tlp),
            None => unclaimed(self.engine.bdf, &tlp),
        }
    }

    fn poll_outbound(&mut self) -> Vec<Tlp> {
        self.engine.poll_outbound()
    }

    fn deliver_completion(&mut self, tlp: &Tlp) {
        self.engine.deliver_completion(tlp);
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

impl Xpu {
    /// Serializes all mutable device state. Identity (spec, BDF, BAR
    /// bases, config space, firmware, register layout) is a pure function
    /// of the construction parameters and is rebuilt, not captured; the
    /// spec name is included only to refuse restoring onto the wrong part.
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        enc.str(self.spec.name());
        self.engine.encode_snapshot(enc);
    }

    /// Restores device state captured by [`Xpu::encode_snapshot`] onto a
    /// freshly built device of the *same* spec.
    ///
    /// # Errors
    ///
    /// Any [`ccai_sim::snapshot::SnapshotError`] on malformed input or a
    /// spec/MMU mismatch; the device is left untouched on failure.
    pub fn restore_snapshot(
        &mut self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::snapshot::SnapshotError> {
        if dec.str()? != self.spec.name() {
            return Err(ccai_sim::snapshot::SnapshotError::Invalid("xPU spec mismatch"));
        }
        self.engine.restore_snapshot(dec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_pcie::{Fabric, PortId, VecHostMemory};

    impl Xpu {
        /// The on-board MMU, if the device has one.
        fn mmu(&self) -> Option<&Mmu> {
            self.engine.mmu.as_ref()
        }
    }

    fn host() -> Bdf {
        Bdf::new(0, 0, 0)
    }

    fn setup() -> (Fabric, VecHostMemory, RegisterFile, u64, u64) {
        let hub = Telemetry::default();
        let xpu = Xpu::new(XpuSpec::a100(), Bdf::new(0x17, 0, 0), 0x8000_0000, hub.clone());
        let regs = xpu.registers().clone();
        let bar0 = xpu.bar0_base();
        let bar1 = xpu.bar1_base();
        let window = xpu.address_window();
        let mut fabric = Fabric::new(hub);
        fabric.attach(PortId(0), Box::new(xpu));
        fabric.map_range(window, PortId(0));
        (fabric, VecHostMemory::new(1 << 20), regs, bar0, bar1)
    }

    fn write_reg(fabric: &mut Fabric, regs: &RegisterFile, bar0: u64, reg: Reg, value: u64) {
        fabric.host_request(Tlp::memory_write(
            host(),
            bar0 + regs.offset(reg),
            value.to_le_bytes().to_vec(),
        ));
    }

    fn read_reg(fabric: &mut Fabric, regs: &RegisterFile, bar0: u64, reg: Reg) -> u64 {
        let replies =
            fabric.host_request(Tlp::memory_read(host(), bar0 + regs.offset(reg), 8, 0));
        let mut bytes = [0u8; 8];
        bytes.copy_from_slice(replies[0].payload());
        u64::from_le_bytes(bytes)
    }

    #[test]
    fn mmio_register_access_through_fabric() {
        let (mut fabric, _mem, regs, bar0, _) = setup();
        write_reg(&mut fabric, &regs, bar0, Reg::DmaLen, 12345);
        assert_eq!(read_reg(&mut fabric, &regs, bar0, Reg::DmaLen), 12345);
    }

    #[test]
    fn bar1_aperture_reaches_device_memory() {
        let (mut fabric, _mem, _regs, _bar0, bar1) = setup();
        fabric.host_request(Tlp::memory_write(host(), bar1 + 0x100, vec![1, 2, 3]));
        let replies = fabric.host_request(Tlp::memory_read(host(), bar1 + 0x100, 3, 0));
        assert_eq!(replies[0].payload(), &[1, 2, 3]);
    }

    #[test]
    fn h2d_dma_through_fabric() {
        let (mut fabric, mut mem, regs, bar0, bar1) = setup();
        // Host buffer at 0x4000.
        mem.as_mut_slice()[0x4000..0x4000 + 8192].fill(0x5A);

        write_reg(&mut fabric, &regs, bar0, Reg::DmaSrc, 0x4000);
        write_reg(&mut fabric, &regs, bar0, Reg::DmaDst, 0x0); // device addr
        write_reg(&mut fabric, &regs, bar0, Reg::DmaLen, 8192);
        write_reg(&mut fabric, &regs, bar0, Reg::DmaCtrl, 1); // H2D

        // Pump until quiescent.
        while fabric.pump(&mut mem) > 0 {}

        assert_eq!(read_reg(&mut fabric, &regs, bar0, Reg::DmaStatus), 2, "done");
        let replies = fabric.host_request(Tlp::memory_read(host(), bar1, 16, 0));
        assert_eq!(replies[0].payload(), &[0x5A; 16]);
    }

    #[test]
    fn d2h_dma_through_fabric() {
        let (mut fabric, mut mem, regs, bar0, bar1) = setup();
        fabric.host_request(Tlp::memory_write(host(), bar1, vec![0xA7; 4096]));
        fabric.host_request(Tlp::memory_write(host(), bar1 + 4096, vec![0xA7; 5000 - 4096]));

        write_reg(&mut fabric, &regs, bar0, Reg::DmaSrc, 0x0); // device addr
        write_reg(&mut fabric, &regs, bar0, Reg::DmaDst, 0x2000); // host addr
        write_reg(&mut fabric, &regs, bar0, Reg::DmaLen, 5000);
        write_reg(&mut fabric, &regs, bar0, Reg::DmaCtrl, 2); // D2H
        while fabric.pump(&mut mem) > 0 {}

        assert_eq!(&mem.as_slice()[0x2000..0x2000 + 5000], vec![0xA7; 5000].as_slice());
    }

    #[test]
    fn command_processor_via_doorbell() {
        let (mut fabric, mut mem, regs, bar0, bar1) = setup();
        fabric.host_request(Tlp::memory_write(host(), bar1 + 0x1000, b"weights!".to_vec()));
        fabric.host_request(Tlp::memory_write(host(), bar1 + 0x2000, b"input".to_vec()));

        write_reg(&mut fabric, &regs, bar0, Reg::CmdArg0, 0x1000);
        write_reg(&mut fabric, &regs, bar0, Reg::CmdArg1, 8);
        write_reg(&mut fabric, &regs, bar0, Reg::CmdDoorbell, 1); // LoadModel
        assert_eq!(read_reg(&mut fabric, &regs, bar0, Reg::CmdStatus), 1);

        write_reg(&mut fabric, &regs, bar0, Reg::CmdArg0, 0x2000);
        write_reg(&mut fabric, &regs, bar0, Reg::CmdArg1, 5);
        write_reg(&mut fabric, &regs, bar0, Reg::CmdArg2, 0x3000);
        write_reg(&mut fabric, &regs, bar0, Reg::CmdDoorbell, 2); // RunInference
        assert_eq!(read_reg(&mut fabric, &regs, bar0, Reg::CmdStatus), 1);

        let replies = fabric.host_request(Tlp::memory_read(host(), bar1 + 0x3000, 32, 0));
        let expected = CommandProcessor::surrogate_inference(b"weights!", b"input");
        assert_eq!(replies[0].payload(), expected);

        // Interrupts surfaced as messages.
        while fabric.pump(&mut mem) > 0 {}
        assert!(!fabric.drain_host_inbox().is_empty());
    }

    #[test]
    fn cold_boot_reset_via_register() {
        let (mut fabric, _mem, regs, bar0, bar1) = setup();
        fabric.host_request(Tlp::memory_write(host(), bar1, vec![0xEE; 64]));
        write_reg(&mut fabric, &regs, bar0, Reg::ResetCtrl, RESET_MAGIC);
        let replies = fabric.host_request(Tlp::memory_read(host(), bar1, 64, 0));
        assert_eq!(replies[0].payload(), &[0u8; 64], "memory wiped");
    }

    #[test]
    fn wrong_reset_magic_ignored() {
        let (mut fabric, _mem, regs, bar0, bar1) = setup();
        fabric.host_request(Tlp::memory_write(host(), bar1, vec![0xEE; 4]));
        write_reg(&mut fabric, &regs, bar0, Reg::ResetCtrl, 0x1234);
        let replies = fabric.host_request(Tlp::memory_read(host(), bar1, 4, 0));
        assert_eq!(replies[0].payload(), &[0xEE; 4]);
    }

    fn device(spec: XpuSpec) -> Xpu {
        Xpu::new(spec, Bdf::new(1, 0, 0), 0x8000_0000, Telemetry::default())
    }

    #[test]
    fn firmware_ships_verified() {
        assert_eq!(device(XpuSpec::t4()).firmware().version(), "90.04.38.00.03");
        // a100's name under another vendor and firmware version.
        let rebadged = XpuSpec::custom(
            XpuSpec::a100().name(),
            "Acme",
            crate::XpuKind::Gpu,
            80 << 30,
            ccai_pcie::LinkConfig::new(ccai_pcie::LinkSpeed::Gen4, 16),
            312.0,
            1935.0,
            true,
            true,
            "1.2.3",
        );
        let mut specs = XpuSpec::evaluation_set();
        specs.push(rebadged);
        for spec in specs {
            let xpu = device(spec.clone());
            assert!(xpu.firmware().verify(), "{spec}");
            assert_eq!(xpu.firmware().version(), spec.firmware_version(), "{spec}");
        }
    }

    #[test]
    fn tampering_one_device_leaves_another_of_its_spec_verified() {
        let mut tampered = device(XpuSpec::a100());
        let intact = device(XpuSpec::a100());
        assert_eq!(tampered.firmware().measurement(), intact.firmware().measurement());
        tampered.firmware_mut().tamper(3);
        assert!(!tampered.firmware().verify());
        assert!(intact.firmware().verify());
        assert!(device(XpuSpec::a100()).firmware().verify(), "a device built after the tamper");
    }

    #[test]
    fn mmu_presence_follows_spec() {
        let hub = Telemetry::default();
        let gpu = Xpu::new(XpuSpec::a100(), Bdf::new(1, 0, 0), 0x8000_0000, hub.clone());
        let npu = Xpu::new(XpuSpec::tenstorrent_n150d(), Bdf::new(2, 0, 0), 0x9000_0000, hub);
        assert!(gpu.mmu().is_some());
        assert!(npu.mmu().is_none());
    }

    #[test]
    fn page_table_base_register_reaches_mmu() {
        let (mut fabric, _mem, regs, bar0, _) = setup();
        write_reg(&mut fabric, &regs, bar0, Reg::PageTableBase, 0xAB00_0000);
        // Reach into the device to confirm.
        let dev = fabric.device(PortId(0)).unwrap();
        let _ = dev; // device trait has no downcast; assert via register readback
        assert_eq!(read_reg(&mut fabric, &regs, bar0, Reg::PageTableBase), 0xAB00_0000);
    }
}
