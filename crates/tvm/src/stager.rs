//! The kernel DMA-staging service — ccAI's transparency seam.
//!
//! Real drivers never hand device-visible addresses to hardware directly;
//! they call the kernel's DMA-mapping API, which on TVMs bounces data
//! through shared pages. ccAI's Adaptor is "a new kernel module"
//! (§7.1) that replaces this service with an encrypting one — the driver
//! and application are untouched, which is the paper's headline
//! transparency claim.
//!
//! This module defines the seam ([`DmaStager`]) and the vanilla
//! implementation ([`IdentityStager`]); the Adaptor's confidential
//! implementation lives in `ccai-core`.

use crate::guest_memory::GuestMemory;
use crate::port::TlpPort;
use std::fmt;

/// Error returned when recovering device output fails integrity checks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityError {
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "integrity failure: {}", self.reason)
    }
}

impl std::error::Error for IntegrityError {}

/// A buffer staged for device DMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagedBuffer {
    /// The device-visible host address the driver should program.
    pub device_addr: u64,
    /// Length in bytes as seen by the device.
    pub len: u64,
}

/// The kernel DMA-mapping service drivers call.
///
/// Implementations own a window of shared guest memory and hand out
/// device-visible staging buffers. The vanilla kernel copies plaintext;
/// the ccAI Adaptor encrypts/decrypts and coordinates with the PCIe-SC.
pub trait DmaStager: fmt::Debug {
    /// Stages `data` for an upcoming host→device transfer, returning the
    /// address the driver should program as the DMA source. Confidential
    /// implementations may also emit control traffic through `port`.
    fn stage_to_device(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        data: &[u8],
    ) -> StagedBuffer;

    /// Allocates a landing buffer for an upcoming device→host transfer of
    /// `len` bytes.
    fn alloc_from_device(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        len: u64,
    ) -> StagedBuffer;

    /// Recovers the data a device wrote into `buffer` (after the transfer
    /// completed).
    ///
    /// # Errors
    ///
    /// [`IntegrityError`] if authenticity verification fails (confidential
    /// implementations only).
    fn recover_from_device(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        buffer: StagedBuffer,
    ) -> Result<Vec<u8>, IntegrityError>;

    /// Notifies the stager that the transfer using `buffer` failed and is
    /// about to be retried with a freshly staged buffer.
    ///
    /// Confidential implementations use this hook to rotate the stream key
    /// (so the retransmit never reuses an IV) and to tell the PCIe-SC to do
    /// the same; the vanilla kernel has nothing to clean up, so the default
    /// is a no-op.
    fn transfer_failed(
        &mut self,
        _port: &mut dyn TlpPort,
        _memory: &mut GuestMemory,
        _buffer: &StagedBuffer,
    ) {
    }

    /// Releases all staging allocations (end of task).
    fn release_all(&mut self);
}

/// The vanilla (non-confidential) bounce-buffer implementation: plaintext
/// copies through a shared window. This is the baseline every overhead
/// figure compares against.
#[derive(Debug)]
pub struct IdentityStager {
    window_base: u64,
    window_len: u64,
    next: u64,
}

impl IdentityStager {
    /// Creates a stager owning the shared window `[base, base+len)`.
    /// The caller must have shared that range in guest memory.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn new(window_base: u64, window_len: u64) -> Self {
        assert!(window_len > 0, "empty staging window");
        IdentityStager { window_base, window_len, next: 0 }
    }

    fn bump(&mut self, len: u64) -> u64 {
        let aligned = (self.next + 63) & !63;
        assert!(
            aligned + len <= self.window_len,
            "staging window exhausted: need {len}, used {aligned} of {}",
            self.window_len
        );
        self.next = aligned + len;
        self.window_base + aligned
    }
}

impl DmaStager for IdentityStager {
    fn stage_to_device(
        &mut self,
        _port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        data: &[u8],
    ) -> StagedBuffer {
        let device_addr = self.bump(data.len() as u64);
        memory.write(device_addr, data);
        StagedBuffer { device_addr, len: data.len() as u64 }
    }

    fn alloc_from_device(
        &mut self,
        _port: &mut dyn TlpPort,
        _memory: &mut GuestMemory,
        len: u64,
    ) -> StagedBuffer {
        let device_addr = self.bump(len);
        StagedBuffer { device_addr, len }
    }

    fn recover_from_device(
        &mut self,
        _port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        buffer: StagedBuffer,
    ) -> Result<Vec<u8>, IntegrityError> {
        Ok(memory.read(buffer.device_addr, buffer.len))
    }

    fn release_all(&mut self) {
        self.next = 0;
    }
}

impl IdentityStager {
    /// The staging-window allocation cursor, for snapshot capture.
    pub fn cursor(&self) -> u64 {
        self.next
    }

    /// Restores the allocation cursor from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `next` exceeds the window length.
    pub fn set_cursor(&mut self, next: u64) {
        assert!(next <= self.window_len, "cursor past staging window");
        self.next = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccai_pcie::{Bdf, Fabric, HostMemory};

    fn setup() -> (Fabric, GuestMemory, IdentityStager) {
        let mut mem = GuestMemory::new(1 << 20);
        mem.share_range(0x8000..0x18000);
        let fabric = Fabric::new(ccai_sim::Telemetry::default());
        (fabric, mem, IdentityStager::new(0x8000, 0x10000))
    }

    #[test]
    fn staged_data_is_device_visible() {
        let (mut port, mut mem, mut stager) = setup();
        let buf = stager.stage_to_device(&mut port, &mut mem, b"payload");
        let via_dma = mem.dma_read(Bdf::new(1, 0, 0), buf.device_addr, 7);
        assert_eq!(via_dma, Some(b"payload".to_vec()));
    }

    #[test]
    fn recover_reads_device_writes() {
        let (mut port, mut mem, mut stager) = setup();
        let buf = stager.alloc_from_device(&mut port, &mut mem, 16);
        assert!(mem.dma_write(Bdf::new(1, 0, 0), buf.device_addr, &[9u8; 16]));
        assert_eq!(
            stager.recover_from_device(&mut port, &mut mem, buf).unwrap(),
            vec![9u8; 16]
        );
    }

    #[test]
    fn allocations_do_not_overlap() {
        let (mut port, mut mem, mut stager) = setup();
        let a = stager.stage_to_device(&mut port, &mut mem, &[1u8; 100]);
        let b = stager.stage_to_device(&mut port, &mut mem, &[2u8; 100]);
        assert!(a.device_addr + a.len <= b.device_addr);
        // First buffer intact after second staged.
        assert_eq!(mem.read(a.device_addr, 100), vec![1u8; 100]);
    }

    #[test]
    fn release_recycles_the_window() {
        let (mut port, mut mem, mut stager) = setup();
        for round in 0..10 {
            let _ = stager.stage_to_device(&mut port, &mut mem, &vec![round as u8; 0x8000]);
            stager.release_all();
        }
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn window_exhaustion_panics() {
        let (mut port, mut mem, mut stager) = setup();
        let _ = stager.stage_to_device(&mut port, &mut mem, &vec![0u8; 0x8000]);
        let _ = stager.stage_to_device(&mut port, &mut mem, &vec![0u8; 0x9000]);
    }
}
