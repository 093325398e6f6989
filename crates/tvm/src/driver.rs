//! Unmodified vendor-style xPU driver models.
//!
//! Each real xPU ships its own software stack (CUDA + nvidia.ko, tt-buda +
//! ttkmd, EFSMI + the Enflame driver, §7). What they share is the shape of
//! their work: enumerate the device, enable bus mastering, move buffers by
//! DMA, poke vendor-specific registers, ring doorbells. [`XpuDriver`]
//! models that shape against the vendor-specific register layout of its
//! device.
//!
//! **Transparency invariant:** this code contains zero ccAI knowledge. It
//! calls the kernel's [`DmaStager`] seam for buffer staging — exactly the
//! code path it uses on a vanilla TVM — and behaves byte-identically
//! whether the stager is the vanilla [`IdentityStager`] or ccAI's
//! encrypting Adaptor, and whether or not a PCIe-SC sits in front of the
//! device.
//!
//! [`IdentityStager`]: crate::stager::IdentityStager

use crate::guest_memory::GuestMemory;
use crate::port::TlpPort;
use crate::stager::{DmaStager, StagedBuffer};
use ccai_pcie::{seal_ctrl_envelope, Bdf, PcieDevice, Tlp, TlpType};
use ccai_sim::{Severity, SimDuration, Telemetry};
use ccai_xpu::{CmdStatus, DmaControl, DmaStatus, Opcode, Reg, RegisterFile};
use std::cell::Cell;
use std::fmt;

/// MMIO read tags rotate through `1..=MAX_READ_TAG` so a stale delayed
/// completion (control-path fault) can never satisfy a newer read. The
/// range is disjoint from the tag spaces other host-side requesters use.
const MAX_READ_TAG: u8 = 0x3F;

/// Errors surfaced by driver operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// The device did not answer an MMIO/config read.
    NoResponse,
    /// A DMA transfer ended in the error state.
    DmaFailed,
    /// A command reported failure via `CmdStatus`.
    CommandFailed,
    /// Device enumeration found the wrong device.
    WrongDevice {
        /// Vendor ID read from config space.
        vendor_id: u16,
    },
    /// Data recovered from the device failed integrity verification.
    IntegrityFailed,
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::NoResponse => write!(f, "device did not respond"),
            DriverError::DmaFailed => write!(f, "DMA transfer failed"),
            DriverError::CommandFailed => write!(f, "device command failed"),
            DriverError::WrongDevice { vendor_id } => {
                write!(f, "unexpected device (vendor {vendor_id:#06x})")
            }
            DriverError::IntegrityFailed => write!(f, "device output failed integrity check"),
        }
    }
}

impl std::error::Error for DriverError {}

/// How the driver retries failed DMA transfers.
///
/// Real driver stacks survive transient link errors (receiver errors, bad
/// LCRC, completion timeouts) by retrying the transfer after the engine is
/// quiesced. The policy bounds both the number of attempts and the idle
/// backoff between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per transfer (first try included). Must be ≥ 1.
    pub max_attempts: u32,
    /// Base of the exponential backoff: attempt `n` waits for
    /// `backoff_unit × min(backoff_base^n, 64)` before re-staging.
    pub backoff_base: u32,
    /// Sim-time length of one backoff round. The wait is a sim-time
    /// deadline on the driver's telemetry hub, charged as idle time
    /// against the driver's tenant.
    pub backoff_unit: SimDuration,
}

impl RetryPolicy {
    /// Default sim-time length of one backoff round.
    pub const DEFAULT_BACKOFF_UNIT: SimDuration = SimDuration::from_micros(50);

    /// Hard cap on `backoff_base^attempt`, bounding the longest wait.
    pub const MAX_BACKOFF_ROUNDS: u32 = 64;

    /// Backoff rounds for the given attempt: `min(base^attempt, 64)`.
    pub fn rounds_for_attempt(&self, attempt: u32) -> u32 {
        self.backoff_base
            .saturating_pow(attempt)
            .min(Self::MAX_BACKOFF_ROUNDS)
    }
}

/// A restored policy must allow at least one attempt.
impl ccai_sim::SnapshotState for RetryPolicy {
    fn encode_state(&self, enc: &mut ccai_sim::Encoder) {
        enc.put(&self.max_attempts);
        enc.put(&self.backoff_base);
        enc.put(&self.backoff_unit);
    }

    fn decode_state(dec: &mut ccai_sim::Decoder<'_>) -> Result<Self, ccai_sim::SnapshotError> {
        let (max_attempts, backoff_base, backoff_unit) = dec.get()?;
        if max_attempts == 0 {
            return Err(ccai_sim::SnapshotError::Invalid("retry policy needs an attempt"));
        }
        Ok(RetryPolicy { max_attempts, backoff_base, backoff_unit })
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base: 2,
            backoff_unit: Self::DEFAULT_BACKOFF_UNIT,
        }
    }
}

/// A vendor driver bound to one xPU instance.
///
/// Construction captures what a real driver learns at probe time: the
/// device's BDF, BAR addresses and its register layout.
pub struct XpuDriver {
    tvm_bdf: Bdf,
    device_bdf: Bdf,
    expected_vendor_id: u16,
    registers: RegisterFile,
    bar0: u64,
    /// BAR1 base, captured at probe time (bulk aperture; reserved for
    /// aperture-based access paths).
    pub bar1: u64,
    retry: RetryPolicy,
    retries: Cell<u64>,
    /// Sequence number stamped onto every logical control write (the
    /// [`ccai_pcie::ctrlseq`] envelope); re-sends of the same logical
    /// write reuse the same number so receivers converge to exactly-once.
    ctrl_seq: Cell<u64>,
    control_retries: Cell<u64>,
    read_tag: Cell<u8>,
    telemetry: Telemetry,
}

impl fmt::Debug for XpuDriver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("XpuDriver")
            .field("device", &self.device_bdf)
            .field("bar0", &format_args!("{:#x}", self.bar0))
            .finish()
    }
}

impl XpuDriver {
    /// Binds a driver to a device. Retries become trace events on
    /// `telemetry`, and backoff becomes a sim-time deadline on it charged
    /// as idle time against this driver's TVM (so per-tenant starvation
    /// under sustained faults is a measured quantity).
    pub fn bind(
        tvm_bdf: Bdf,
        device_bdf: Bdf,
        expected_vendor_id: u16,
        registers: RegisterFile,
        bar0: u64,
        bar1: u64,
        telemetry: Telemetry,
    ) -> XpuDriver {
        XpuDriver {
            tvm_bdf,
            device_bdf,
            expected_vendor_id,
            registers,
            bar0,
            bar1,
            retry: RetryPolicy::default(),
            retries: Cell::new(0),
            ctrl_seq: Cell::new(0),
            control_retries: Cell::new(0),
            read_tag: Cell::new(0),
            telemetry,
        }
    }

    /// Replaces the DMA retry policy.
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_attempts` is zero.
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        assert!(policy.max_attempts >= 1, "retry policy needs at least one attempt");
        self.retry = policy;
    }

    /// Total DMA retries performed over the driver's lifetime (transfers
    /// that needed more than one attempt contribute one count per extra
    /// attempt).
    pub fn dma_retries(&self) -> u64 {
        self.retries.get()
    }

    /// Total control-plane retries (re-sent register writes and re-issued
    /// MMIO/config reads) over the driver's lifetime. Zero on a reliable
    /// control path.
    pub fn control_retries(&self) -> u64 {
        self.control_retries.get()
    }

    /// Convenience: binds to an [`ccai_xpu::Xpu`] before it is boxed into
    /// the fabric.
    pub fn for_xpu(tvm_bdf: Bdf, xpu: &ccai_xpu::Xpu, telemetry: Telemetry) -> XpuDriver {
        XpuDriver::bind(
            tvm_bdf,
            xpu.bdf(),
            xpu.config_space().vendor_id(),
            xpu.registers().clone(),
            xpu.bar0_base(),
            xpu.bar1_base(),
            telemetry,
        )
    }

    /// The device this driver controls.
    pub fn device_bdf(&self) -> Bdf {
        self.device_bdf
    }

    /// Probes config space and enables memory decoding + bus mastering.
    ///
    /// # Errors
    ///
    /// [`DriverError::WrongDevice`] if the vendor ID mismatches;
    /// [`DriverError::NoResponse`] if config reads go unanswered.
    pub fn init(&self, port: &mut dyn TlpPort) -> Result<(), DriverError> {
        let vendor_id = self.with_control_retries("config_read", || {
            let tag = self.next_read_tag();
            let replies =
                port.request(Tlp::config_read(self.tvm_bdf, self.device_bdf, 0, tag));
            replies
                .iter()
                .find(|r| {
                    r.header().tlp_type() == TlpType::CompletionData
                        && r.header().tag() == tag
                        && r.payload().len() >= 4
                })
                .map(|reply| u16::from_le_bytes([reply.payload()[0], reply.payload()[1]]))
                .ok_or(DriverError::NoResponse)
        })?;
        if vendor_id != self.expected_vendor_id {
            return Err(DriverError::WrongDevice { vendor_id });
        }
        // Enable memory space + bus master in the command register.
        // Config writes are posted, so re-send until the command register
        // reads back with both bits set.
        self.with_control_retries("config_write", || {
            port.request(Tlp::config_write(
                self.tvm_bdf,
                self.device_bdf,
                0x04,
                vec![0x06, 0x00, 0x00, 0x00],
            ));
            let tag = self.next_read_tag();
            let replies =
                port.request(Tlp::config_read(self.tvm_bdf, self.device_bdf, 0x04, tag));
            let enabled = replies.iter().any(|r| {
                r.header().tlp_type() == TlpType::CompletionData
                    && r.header().tag() == tag
                    && r.payload().first().is_some_and(|b| b & 0x06 == 0x06)
            });
            if enabled {
                Ok(())
            } else {
                Err(DriverError::NoResponse)
            }
        })
    }

    /// Writes a device register over MMIO with exactly-once semantics.
    ///
    /// Every logical write carries a fresh [`ccai_pcie::ctrlseq`] sequence
    /// number and is verified by read-back; a dropped or corrupted write
    /// is re-sent (same sequence number, so envelope-aware receivers
    /// suppress duplicates) up to [`RetryPolicy::max_attempts`] times.
    /// `ResetCtrl` is exempt — a reset wipes the register file, so there
    /// is nothing to read back.
    ///
    /// # Errors
    ///
    /// [`DriverError::NoResponse`] if the register never reads back the
    /// written value.
    pub fn write_register(
        &self,
        port: &mut dyn TlpPort,
        reg: Reg,
        value: u64,
    ) -> Result<(), DriverError> {
        let addr = self.bar0 + self.registers.offset(reg);
        let seq = self.ctrl_seq.get() + 1;
        self.ctrl_seq.set(seq);
        let write = || {
            Tlp::memory_write(self.tvm_bdf, addr, seal_ctrl_envelope(&value.to_le_bytes(), seq))
        };
        if matches!(reg, Reg::ResetCtrl) {
            port.request(write());
            return Ok(());
        }
        self.with_control_retries("write_verify", || {
            port.request(write());
            match self.read_register(port, reg) {
                Ok(read) if read == value => Ok(()),
                _ => Err(DriverError::NoResponse),
            }
        })
    }

    /// Reads a device register over MMIO.
    ///
    /// Each attempt uses a fresh tag and only accepts a data completion
    /// carrying exactly that tag and an 8-byte payload, so stale delayed
    /// completions from earlier reads are rejected; unanswered reads are
    /// re-issued up to [`RetryPolicy::max_attempts`] times.
    ///
    /// # Errors
    ///
    /// [`DriverError::NoResponse`] if no matching completion arrives.
    pub fn read_register(&self, port: &mut dyn TlpPort, reg: Reg) -> Result<u64, DriverError> {
        let addr = self.bar0 + self.registers.offset(reg);
        self.with_control_retries("read", || {
            let tag = self.next_read_tag();
            let replies = port.request(Tlp::memory_read(self.tvm_bdf, addr, 8, tag));
            replies
                .iter()
                .find(|r| {
                    r.header().tlp_type() == TlpType::CompletionData
                        && r.header().tag() == tag
                        && r.payload().len() == 8
                })
                .map(|reply| {
                    let mut bytes = [0u8; 8];
                    bytes.copy_from_slice(reply.payload());
                    u64::from_le_bytes(bytes)
                })
                .ok_or(DriverError::NoResponse)
        })
    }

    /// Reads `reg` until it holds `expect` (a corrupted completion can
    /// misreport a value; re-reading separates transient lies from real
    /// state), returning the last observed value either way so callers
    /// can act on a genuine mismatch.
    ///
    /// # Errors
    ///
    /// Propagates [`DriverError::NoResponse`] from the underlying reads.
    pub fn read_register_expect(
        &self,
        port: &mut dyn TlpPort,
        reg: Reg,
        expect: u64,
    ) -> Result<u64, DriverError> {
        // A mismatch is the retried failure, carrying the value it read;
        // a read error ends the loop at once.
        self.with_control_retries("read_expect", || match self.read_register(port, reg) {
            Ok(value) if value != expect => Err(value),
            done => Ok(done),
        })
        .unwrap_or_else(Ok)
    }

    fn next_read_tag(&self) -> u8 {
        let tag = self.read_tag.get() % MAX_READ_TAG + 1;
        self.read_tag.set(tag);
        tag
    }

    /// Runs `attempt_once` until it returns `Ok`, at most
    /// `retry.max_attempts` times, noting a control retry against `what`
    /// before every re-attempt. On exhaustion returns the last `Err`.
    fn with_control_retries<T, E>(
        &self,
        what: &str,
        mut attempt_once: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let mut attempt = 0u32;
        loop {
            let failure = match attempt_once() {
                Ok(value) => return Ok(value),
                Err(failure) => failure,
            };
            attempt += 1;
            if attempt >= self.retry.max_attempts {
                return Err(failure);
            }
            self.control_retries.set(self.control_retries.get() + 1);
            self.telemetry.record(
                Severity::Warn,
                "driver.control_retry",
                Some(u32::from(self.tvm_bdf.to_u16())),
                None,
                format!("target={what} attempt={attempt}"),
            );
            self.telemetry.counter_add("driver.control_retries", 1);
        }
    }

    /// Copies `data` into device memory at `device_addr` via DMA
    /// (stage → program engine → pump → check status), retrying per the
    /// driver's [`RetryPolicy`] if the engine stalls or errors.
    ///
    /// # Errors
    ///
    /// [`DriverError::DmaFailed`] if every attempt fails.
    pub fn dma_to_device(
        &self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        data: &[u8],
        device_addr: u64,
    ) -> Result<(), DriverError> {
        let mut attempt = 0u32;
        loop {
            let staged = stager.stage_to_device(port, memory, data);
            // Pre-clear the doorbell: `DmaCtrl` must verifiably read 0
            // before the trigger write, otherwise a stale 1 from the
            // previous transfer could make a *dropped* trigger write
            // pass read-back and a stale Done status fake completion.
            let programmed = self
                .write_register(port, Reg::DmaCtrl, DmaControl::Abort.to_code())
                .and_then(|()| self.write_register(port, Reg::DmaSrc, staged.device_addr))
                .and_then(|()| self.write_register(port, Reg::DmaDst, device_addr))
                .and_then(|()| self.write_register(port, Reg::DmaLen, staged.len))
                .and_then(|()| {
                    self.write_register(port, Reg::DmaCtrl, DmaControl::HostToDevice.to_code())
                });
            if programmed.is_ok() {
                while port.pump(memory) > 0 {}
                if self.read_register(port, Reg::DmaStatus) == Ok(DmaStatus::Done.to_code()) {
                    return Ok(());
                }
            }
            attempt += 1;
            if attempt >= self.retry.max_attempts {
                return Err(DriverError::DmaFailed);
            }
            self.quiesce_and_back_off(port, memory, stager, &staged, attempt);
        }
    }

    /// Copies `len` bytes from device memory at `device_addr` back to the
    /// host via DMA, returning the data. Engine errors *and* integrity
    /// failures on the recovered data are retried per the driver's
    /// [`RetryPolicy`]; each retry uses a fresh landing buffer.
    ///
    /// # Errors
    ///
    /// [`DriverError::DmaFailed`] if the engine keeps failing,
    /// [`DriverError::IntegrityFailed`] if recovery keeps failing
    /// verification.
    pub fn dma_from_device(
        &self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        device_addr: u64,
        len: u64,
    ) -> Result<Vec<u8>, DriverError> {
        let mut attempt = 0u32;
        loop {
            let landing = stager.alloc_from_device(port, memory, len);
            // Pre-clear first (see dma_to_device).
            let programmed = self
                .write_register(port, Reg::DmaCtrl, DmaControl::Abort.to_code())
                .and_then(|()| self.write_register(port, Reg::DmaSrc, device_addr))
                .and_then(|()| self.write_register(port, Reg::DmaDst, landing.device_addr))
                .and_then(|()| self.write_register(port, Reg::DmaLen, len))
                .and_then(|()| {
                    self.write_register(port, Reg::DmaCtrl, DmaControl::DeviceToHost.to_code())
                });
            let failure = if programmed.is_ok() {
                while port.pump(memory) > 0 {}
                if self.read_register(port, Reg::DmaStatus) == Ok(DmaStatus::Done.to_code()) {
                    match stager.recover_from_device(port, memory, landing) {
                        Ok(data) => return Ok(data),
                        Err(_) => DriverError::IntegrityFailed,
                    }
                } else {
                    DriverError::DmaFailed
                }
            } else {
                DriverError::DmaFailed
            };
            attempt += 1;
            if attempt >= self.retry.max_attempts {
                return Err(failure);
            }
            self.quiesce_and_back_off(port, memory, stager, &landing, attempt);
        }
    }

    /// Post-failure cleanup between DMA attempts: abort the engine, drain
    /// in-flight traffic, let the staging layer invalidate the dead buffer
    /// (rekeying on the confidential path), then back off exponentially.
    ///
    /// Backoff is a **sim-time deadline**: the driver idles until
    /// `now + backoff_unit × min(base^attempt, 64)` and the wait is
    /// charged as idle time against its tenant, making starvation under
    /// sustained faults measurable.
    fn quiesce_and_back_off(
        &self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        staged: &StagedBuffer,
        attempt: u32,
    ) {
        self.retries.set(self.retries.get() + 1);
        let tenant = Some(u32::from(self.tvm_bdf.to_u16()));
        self.telemetry.record(
            Severity::Warn,
            "driver.retry",
            tenant,
            None,
            format!("attempt={attempt} device={}", self.device_bdf),
        );
        self.telemetry.counter_add("driver.retries", 1);
        // Abort the engine; verification failure here just means the next
        // attempt's pre-clear will finish the job.
        let _ = self.write_register(port, Reg::DmaCtrl, DmaControl::Abort.to_code());
        while port.pump(memory) > 0 {}
        stager.transfer_failed(port, memory, staged);
        let rounds = self.retry.rounds_for_attempt(attempt);
        let deadline = self.telemetry.now() + self.retry.backoff_unit * u64::from(rounds);
        let waited = self.telemetry.idle_until(deadline, tenant);
        self.telemetry.record(
            Severity::Info,
            "driver.backoff",
            tenant,
            None,
            format!("attempt={attempt} waited_picos={}", waited.as_picos()),
        );
    }

    /// Loads a model: DMA the weights to the device, then issue
    /// `LoadModel`.
    ///
    /// # Errors
    ///
    /// Propagates DMA failures; [`DriverError::CommandFailed`] if the
    /// device rejects the command.
    pub fn load_model(
        &self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        weights: &[u8],
        device_addr: u64,
    ) -> Result<(), DriverError> {
        self.dma_to_device(port, memory, stager, weights, device_addr)?;
        self.write_register(port, Reg::CmdArg0, device_addr)?;
        self.write_register(port, Reg::CmdArg1, weights.len() as u64)?;
        self.ring(port, Opcode::LoadModel)
    }

    /// Runs inference: DMA the input up, ring `RunInference`, DMA the
    /// 32-byte result back.
    ///
    /// # Errors
    ///
    /// Propagates DMA and command failures.
    pub fn run_inference(
        &self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        stager: &mut dyn DmaStager,
        input: &[u8],
        input_device_addr: u64,
        output_device_addr: u64,
    ) -> Result<Vec<u8>, DriverError> {
        self.dma_to_device(port, memory, stager, input, input_device_addr)?;
        self.write_register(port, Reg::CmdArg0, input_device_addr)?;
        self.write_register(port, Reg::CmdArg1, input.len() as u64)?;
        self.write_register(port, Reg::CmdArg2, output_device_addr)?;
        self.ring(port, Opcode::RunInference)?;
        self.dma_from_device(port, memory, stager, output_device_addr, 32)
    }

    /// Rings `opcode` on the command doorbell and checks that the command
    /// reports `Done`. The doorbell is cleared first, so the read-back of
    /// the clear→opcode transition proves the trigger write (and
    /// therefore the command) executed.
    ///
    /// # Errors
    ///
    /// Register-access failures, and [`DriverError::CommandFailed`] when
    /// the command does not report `Done`.
    pub(crate) fn ring(&self, port: &mut dyn TlpPort, opcode: Opcode) -> Result<(), DriverError> {
        self.write_register(port, Reg::CmdDoorbell, Opcode::Clear.to_code())?;
        self.write_register(port, Reg::CmdDoorbell, opcode.to_code())?;
        let done = CmdStatus::Done.to_code();
        if self.read_register_expect(port, Reg::CmdStatus, done)? != done {
            return Err(DriverError::CommandFailed);
        }
        Ok(())
    }
}

impl XpuDriver {
    /// Serializes the driver's mutable state: retry policy and the
    /// counters/cursors that sequence its control traffic. Probe-time
    /// identity (BDFs, BARs, register layout) is rebuilt, not captured.
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        enc.put(&self.retry);
        enc.put(&self.retries.get());
        enc.put(&self.ctrl_seq.get());
        enc.put(&self.control_retries.get());
        enc.put(&self.read_tag.get());
    }

    /// Restores state captured by [`XpuDriver::encode_snapshot`].
    ///
    /// # Errors
    ///
    /// Any [`ccai_sim::snapshot::SnapshotError`] on malformed input.
    pub fn restore_snapshot(
        &mut self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::snapshot::SnapshotError> {
        let retry = dec.get()?;
        let (retries, ctrl_seq, control_retries, read_tag) = dec.get()?;
        if read_tag > MAX_READ_TAG {
            return Err(ccai_sim::snapshot::SnapshotError::Invalid("read tag out of range"));
        }
        self.retry = retry;
        self.retries.set(retries);
        self.ctrl_seq.set(ctrl_seq);
        self.control_retries.set(control_retries);
        self.read_tag.set(read_tag);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stager::IdentityStager;
    use ccai_pcie::{Fabric, PortId};
    use ccai_xpu::{CommandProcessor, Xpu, XpuSpec};

    fn tvm() -> Bdf {
        Bdf::new(0, 2, 0)
    }

    fn setup() -> (Fabric, GuestMemory, IdentityStager, XpuDriver) {
        let hub = Telemetry::default();
        let xpu = Xpu::new(XpuSpec::a100(), Bdf::new(0x17, 0, 0), 0x8000_0000, hub.clone());
        let driver = XpuDriver::for_xpu(tvm(), &xpu, hub.clone());
        let window = xpu.address_window();
        let mut fabric = Fabric::new(hub);
        fabric.attach(PortId(0), Box::new(xpu));
        fabric.map_range(window, PortId(0));

        let mut memory = GuestMemory::new(1 << 22);
        memory.share_range(0x10_0000..0x20_0000);
        let stager = IdentityStager::new(0x10_0000, 0x10_0000);
        (fabric, memory, stager, driver)
    }

    #[test]
    fn init_validates_vendor() {
        let (mut fabric, _m, _s, driver) = setup();
        assert!(driver.init(&mut fabric).is_ok());
    }

    #[test]
    fn init_rejects_wrong_vendor() {
        let hub = Telemetry::default();
        let xpu = Xpu::new(XpuSpec::a100(), Bdf::new(0x17, 0, 0), 0x8000_0000, hub.clone());
        let mut driver = XpuDriver::for_xpu(tvm(), &xpu, hub.clone());
        driver.expected_vendor_id = 0xDEAD;
        let window = xpu.address_window();
        let mut fabric = Fabric::new(hub);
        fabric.attach(PortId(0), Box::new(xpu));
        fabric.map_range(window, PortId(0));
        assert_eq!(
            driver.init(&mut fabric),
            Err(DriverError::WrongDevice { vendor_id: 0x10DE })
        );
    }

    #[test]
    fn dma_round_trip_via_stager() {
        let (mut fabric, mut memory, mut stager, driver) = setup();
        driver.init(&mut fabric).unwrap();
        let data = vec![0x3C; 20000];
        driver
            .dma_to_device(&mut fabric, &mut memory, &mut stager, &data, 0x4000)
            .unwrap();
        let back = driver
            .dma_from_device(&mut fabric, &mut memory, &mut stager, 0x4000, 20000)
            .unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn full_inference_flow_matches_host_prediction() {
        let (mut fabric, mut memory, mut stager, driver) = setup();
        driver.init(&mut fabric).unwrap();
        let weights = b"llama-weights-v2".to_vec();
        let input = b"what is a gpu?".to_vec();
        driver
            .load_model(&mut fabric, &mut memory, &mut stager, &weights, 0x1_0000)
            .unwrap();
        let result = driver
            .run_inference(
                &mut fabric,
                &mut memory,
                &mut stager,
                &input,
                0x2_0000,
                0x3_0000,
            )
            .unwrap();
        assert_eq!(result, CommandProcessor::surrogate_inference(&weights, &input));
    }

    #[test]
    fn register_round_trip() {
        let (mut fabric, _m, _s, driver) = setup();
        driver.write_register(&mut fabric, Reg::CmdArg0, 0xABCD).unwrap();
        assert_eq!(driver.read_register(&mut fabric, Reg::CmdArg0).unwrap(), 0xABCD);
        assert_eq!(driver.control_retries(), 0, "clean path needs no retries");
    }

    #[test]
    fn inference_without_model_fails_cleanly() {
        let (mut fabric, mut memory, mut stager, driver) = setup();
        driver.init(&mut fabric).unwrap();
        let err = driver
            .run_inference(&mut fabric, &mut memory, &mut stager, b"in", 0x2000, 0x3000)
            .unwrap_err();
        assert_eq!(err, DriverError::CommandFailed);
    }
}
