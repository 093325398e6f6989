//! The descriptor-driven DMA engine.
//!
//! Drivers program `DmaSrc`/`DmaDst`/`DmaLen` and ring `DmaCtrl`; the
//! engine then issues memory-read TLPs toward host memory (H2D) or posted
//! memory writes (D2H), in max-TLP-sized chunks, exactly the traffic the
//! PCIe-SC's Packet Filter classifies and its handlers decrypt/encrypt.

use crate::memory::DeviceMemory;
use ccai_pcie::{Bdf, Tlp};
use ccai_sim::DetHashMap;
use serde::{Deserialize, Serialize};
use std::fmt;

/// DMA chunk size: one max-sized TLP per chunk.
pub const DMA_CHUNK: u64 = 4096;

/// Maximum read requests in flight (8-bit tag space).
const MAX_INFLIGHT: usize = 128;

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DmaDirection {
    /// Host memory → device memory (the device issues MemRead TLPs).
    HostToDevice,
    /// Device memory → host memory (the device issues posted MemWrite
    /// TLPs).
    DeviceToHost,
}

/// The values of the `DmaCtrl` register: the driver writes them, the
/// device decodes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaControl {
    /// Aborts the transfer in progress and returns the engine to idle.
    /// The driver also writes it before each transfer, so that reading
    /// the trigger back proves the trigger write landed.
    Abort = 0,
    /// Starts a [`DmaDirection::HostToDevice`] transfer.
    HostToDevice = 1,
    /// Starts a [`DmaDirection::DeviceToHost`] transfer.
    DeviceToHost = 2,
}

impl DmaControl {
    /// Register encoding.
    pub fn to_code(self) -> u64 {
        self as u64
    }

    /// The control value a register value encodes, if any.
    pub fn from_code(code: u64) -> Option<DmaControl> {
        [DmaControl::Abort, DmaControl::HostToDevice, DmaControl::DeviceToHost]
            .into_iter()
            .find(|c| c.to_code() == code)
    }
}

/// One programmed DMA transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaRequest {
    /// Direction of travel.
    pub direction: DmaDirection,
    /// Host physical address.
    pub host_addr: u64,
    /// Device memory address.
    pub device_addr: u64,
    /// Length in bytes.
    pub len: u64,
}

/// Engine status, mirrored in the `DmaStatus` register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum DmaStatus {
    /// No transfer programmed.
    #[default]
    Idle,
    /// Transfer in progress.
    Busy,
    /// Transfer complete.
    Done,
    /// Transfer aborted (bad completion, out-of-bounds, …).
    Error,
}

impl DmaStatus {
    /// Register encoding.
    pub fn to_code(self) -> u64 {
        match self {
            DmaStatus::Idle => 0,
            DmaStatus::Busy => 1,
            DmaStatus::Done => 2,
            DmaStatus::Error => 3,
        }
    }
}

struct Inflight {
    device_addr: u64,
    len: u64,
}

/// The DMA engine of one xPU.
pub struct DmaEngine {
    bdf: Bdf,
    status: DmaStatus,
    outbound: Vec<Tlp>,
    inflight: DetHashMap<u8, Inflight>,
    next_tag: u8,
    /// Remaining H2D chunks not yet issued: (host_addr, device_addr, len).
    pending_reads: Vec<(u64, u64, u64)>,
    bytes_moved: u64,
    read_bytes_requested: u64,
}

impl fmt::Debug for DmaEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DmaEngine")
            .field("bdf", &self.bdf)
            .field("status", &self.status)
            .field("inflight", &self.inflight.len())
            .field("bytes_moved", &self.bytes_moved)
            .finish()
    }
}

impl DmaEngine {
    /// Creates an engine issuing requests as `bdf`.
    pub fn new(bdf: Bdf) -> Self {
        DmaEngine {
            bdf,
            status: DmaStatus::Idle,
            outbound: Vec::new(),
            inflight: DetHashMap::default(),
            next_tag: 0,
            pending_reads: Vec::new(),
            bytes_moved: 0,
            read_bytes_requested: 0,
        }
    }

    /// Current status.
    pub fn status(&self) -> DmaStatus {
        self.status
    }

    /// Payload bytes the current (or most recent) transfer has moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Total bytes requested via H2D read TLPs since creation.
    pub fn read_bytes_requested(&self) -> u64 {
        self.read_bytes_requested
    }

    /// Starts a transfer. For D2H the payload is read from `memory`
    /// immediately and queued as posted writes; for H2D read requests are
    /// issued in windows of up to 128 outstanding tags.
    ///
    /// # Panics
    ///
    /// Panics if a transfer is already in progress or `len` is zero.
    pub fn start(&mut self, request: DmaRequest, memory: &mut DeviceMemory) {
        assert_ne!(self.status, DmaStatus::Busy, "DMA engine is busy");
        assert!(request.len > 0, "zero-length DMA");
        self.status = DmaStatus::Busy;
        self.bytes_moved = 0;
        match request.direction {
            DmaDirection::DeviceToHost => {
                let earlier = self.outbound.len();
                let mut offset = 0;
                while offset < request.len {
                    let chunk = DMA_CHUNK.min(request.len - offset);
                    match memory.read(request.device_addr + offset, chunk) {
                        Ok(data) => {
                            self.outbound.push(Tlp::memory_write(
                                self.bdf,
                                request.host_addr + offset,
                                data,
                            ));
                        }
                        Err(_) => {
                            // None of this transfer's writes may leave.
                            self.outbound.truncate(earlier);
                            self.status = DmaStatus::Error;
                            return;
                        }
                    }
                    offset += chunk;
                }
                self.bytes_moved += request.len;
                // Posted writes complete immediately from the device's view.
                self.status = DmaStatus::Done;
            }
            DmaDirection::HostToDevice => {
                let mut offset = 0;
                while offset < request.len {
                    let chunk = DMA_CHUNK.min(request.len - offset);
                    self.pending_reads.push((
                        request.host_addr + offset,
                        request.device_addr + offset,
                        chunk,
                    ));
                    offset += chunk;
                }
                self.issue_reads();
            }
        }
    }

    fn issue_reads(&mut self) {
        while self.inflight.len() < MAX_INFLIGHT {
            let Some((host_addr, device_addr, len)) = self.pending_reads.pop() else {
                break;
            };
            let tag = self.alloc_tag();
            self.read_bytes_requested += len;
            self.inflight.insert(tag, Inflight { device_addr, len });
            self.outbound
                .push(Tlp::memory_read(self.bdf, host_addr, len as u32, tag));
        }
    }

    fn alloc_tag(&mut self) -> u8 {
        loop {
            let tag = self.next_tag;
            self.next_tag = self.next_tag.wrapping_add(1);
            if !self.inflight.contains_key(&tag) {
                return tag;
            }
        }
    }

    /// Drains TLPs the engine wants to put on the bus.
    pub fn poll_outbound(&mut self) -> Vec<Tlp> {
        std::mem::take(&mut self.outbound)
    }

    /// Delivers a read completion; data lands in device memory.
    pub fn deliver_completion(&mut self, tlp: &Tlp, memory: &mut DeviceMemory) {
        let tag = tlp.header().tag();
        let Some(inflight) = self.inflight.remove(&tag) else {
            return; // stray completion
        };
        // A bad completion fails the whole transfer: the driver sees
        // `Error` and re-stages it under a fresh stream.
        if tlp.header().cpl_status() != Some(ccai_pcie::CplStatus::Success)
            || tlp.payload().len() as u64 != inflight.len
            || memory.write(inflight.device_addr, tlp.payload()).is_err()
        {
            self.fail();
            return;
        }
        self.bytes_moved += inflight.len;
        self.issue_reads();
        if self.inflight.is_empty() && self.pending_reads.is_empty() {
            self.status = DmaStatus::Done;
        }
    }

    /// Ends the current H2D transfer in `Error`, dropping its in-flight
    /// and pending chunks so no late completion can flip it to `Done`.
    fn fail(&mut self) {
        self.status = DmaStatus::Error;
        self.inflight.clear();
        self.pending_reads.clear();
    }

    /// Acknowledges a finished transfer, returning the engine to idle.
    pub fn ack(&mut self) {
        if matches!(self.status, DmaStatus::Done | DmaStatus::Error) {
            self.status = DmaStatus::Idle;
        }
    }

    /// Aborts the current transfer unconditionally: discards all pending
    /// and in-flight work and returns to idle. Drivers use this to
    /// recover an engine stuck `Busy` after a request or completion was
    /// lost on the link. Completions for abandoned tags that arrive later
    /// are ignored as stray (the tag is no longer in flight).
    pub fn abort(&mut self) {
        self.status = DmaStatus::Idle;
        self.outbound.clear();
        self.inflight.clear();
        self.pending_reads.clear();
    }

    /// Hard reset (cold boot): drops all state.
    pub fn wipe(&mut self) {
        self.status = DmaStatus::Idle;
        self.outbound.clear();
        self.inflight.clear();
        self.pending_reads.clear();
    }
}

ccai_sim::snapshot_state!(enum DmaStatus: "DMA status code" {
    Idle = 0,
    Busy = 1,
    Done = 2,
    Error = 3,
});

ccai_sim::snapshot_state!(Inflight { device_addr, len });

impl DmaEngine {
    /// Serializes the engine mid-transfer: status, queued outbound TLPs,
    /// in-flight read tags, pending chunks and every counter. The
    /// requester BDF is identity, rebuilt by the caller.
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        enc.put(&self.status);
        enc.put(&self.outbound);
        enc.put(&self.inflight);
        enc.put(&self.next_tag);
        enc.put(&self.pending_reads);
        enc.put(&self.bytes_moved);
        enc.put(&self.read_bytes_requested);
    }

    /// Restores state captured by [`DmaEngine::encode_snapshot`] onto an
    /// engine built for the same requester.
    ///
    /// # Errors
    ///
    /// Any [`ccai_sim::snapshot::SnapshotError`] on malformed input; the
    /// engine is left untouched on failure.
    pub fn restore_snapshot(
        &mut self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::snapshot::SnapshotError> {
        *self = DmaEngine {
            bdf: self.bdf,
            status: dec.get()?,
            outbound: dec.get()?,
            inflight: dec.get()?,
            next_tag: dec.get()?,
            pending_reads: dec.get()?,
            bytes_moved: dec.get()?,
            read_bytes_requested: dec.get()?,
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bdf() -> Bdf {
        Bdf::new(1, 0, 0)
    }

    #[test]
    fn d2h_queues_posted_writes() {
        let mut mem = DeviceMemory::new(1 << 20);
        mem.write(0x100, &[7; 10000]).unwrap();
        let mut dma = DmaEngine::new(bdf());
        dma.start(
            DmaRequest {
                direction: DmaDirection::DeviceToHost,
                host_addr: 0x5000,
                device_addr: 0x100,
                len: 10000,
            },
            &mut mem,
        );
        assert_eq!(dma.status(), DmaStatus::Done);
        let out = dma.poll_outbound();
        assert_eq!(out.len(), 3); // 4096 + 4096 + 1808
        assert_eq!(out[0].header().address(), Some(0x5000));
        assert_eq!(out[2].payload().len(), 10000 - 2 * 4096);
        assert_eq!(dma.bytes_moved(), 10000);
    }

    #[test]
    fn h2d_issues_reads_and_accepts_completions() {
        let mut mem = DeviceMemory::new(1 << 20);
        let mut dma = DmaEngine::new(bdf());
        dma.start(
            DmaRequest {
                direction: DmaDirection::HostToDevice,
                host_addr: 0x9000,
                device_addr: 0x200,
                len: 6000,
            },
            &mut mem,
        );
        assert_eq!(dma.status(), DmaStatus::Busy);
        let reads = dma.poll_outbound();
        assert_eq!(reads.len(), 2);
        for read in reads {
            let len = read.header().payload_len() as usize;
            let data = vec![0xCD; len];
            let cpl = Tlp::completion_with_data(
                Bdf::new(0, 0, 0),
                read.header().requester(),
                read.header().tag(),
                data,
            );
            dma.deliver_completion(&cpl, &mut mem);
        }
        assert_eq!(dma.status(), DmaStatus::Done);
        assert_eq!(mem.read(0x200, 6000).unwrap(), vec![0xCD; 6000]);
    }

    #[test]
    fn h2d_windowing_respects_tag_budget() {
        let mut mem = DeviceMemory::new(4 << 20);
        let mut dma = DmaEngine::new(bdf());
        let len = 4096 * 200; // 200 chunks > 128 tags
        dma.start(
            DmaRequest {
                direction: DmaDirection::HostToDevice,
                host_addr: 0,
                device_addr: 0,
                len,
            },
            &mut mem,
        );
        let first_wave = dma.poll_outbound();
        assert_eq!(first_wave.len(), 128);
        // Completing the wave releases the rest.
        for read in first_wave {
            let cpl = Tlp::completion_with_data(
                Bdf::new(0, 0, 0),
                read.header().requester(),
                read.header().tag(),
                vec![1; read.header().payload_len() as usize],
            );
            dma.deliver_completion(&cpl, &mut mem);
        }
        let second_wave = dma.poll_outbound();
        assert_eq!(second_wave.len(), 72);
        for read in second_wave {
            let cpl = Tlp::completion_with_data(
                Bdf::new(0, 0, 0),
                read.header().requester(),
                read.header().tag(),
                vec![1; read.header().payload_len() as usize],
            );
            dma.deliver_completion(&cpl, &mut mem);
        }
        assert_eq!(dma.status(), DmaStatus::Done);
        assert_eq!(dma.bytes_moved(), len);
    }

    /// A transfer that runs past the end of device memory is an error,
    /// however its remaining completions arrive.
    #[test]
    fn h2d_past_device_memory_ends_in_error() {
        let mut mem = DeviceMemory::new(1 << 20);
        let mut dma = DmaEngine::new(bdf());
        dma.start(
            DmaRequest {
                direction: DmaDirection::HostToDevice,
                host_addr: 0x9000,
                device_addr: (1 << 20) - 4096,
                len: 8192,
            },
            &mut mem,
        );
        let reads = dma.poll_outbound();
        assert_eq!(reads.len(), 2);
        for read in reads {
            let cpl = Tlp::completion_with_data(
                Bdf::new(0, 0, 0),
                read.header().requester(),
                read.header().tag(),
                vec![0xAB; read.header().payload_len() as usize],
            );
            dma.deliver_completion(&cpl, &mut mem);
        }
        assert_eq!(dma.status(), DmaStatus::Error);
        assert!(dma.poll_outbound().is_empty());
    }

    /// A D2H source that runs past device memory sends none of the
    /// chunks it had already read.
    #[test]
    fn d2h_past_device_memory_sends_nothing() {
        let mut mem = DeviceMemory::new(1 << 20);
        let mut dma = DmaEngine::new(bdf());
        dma.start(
            DmaRequest {
                direction: DmaDirection::DeviceToHost,
                host_addr: 0x5000,
                device_addr: (1 << 20) - 4096,
                len: 8192,
            },
            &mut mem,
        );
        assert_eq!(dma.status(), DmaStatus::Error);
        assert!(dma.poll_outbound().is_empty());
    }

    #[test]
    fn failed_completion_aborts_transfer() {
        let mut mem = DeviceMemory::new(1 << 20);
        let mut dma = DmaEngine::new(bdf());
        dma.start(
            DmaRequest {
                direction: DmaDirection::HostToDevice,
                host_addr: 0,
                device_addr: 0,
                len: 4096,
            },
            &mut mem,
        );
        let read = dma.poll_outbound().remove(0);
        let cpl = Tlp::completion(
            Bdf::new(0, 0, 0),
            read.header().requester(),
            read.header().tag(),
            ccai_pcie::CplStatus::UnsupportedRequest,
        );
        dma.deliver_completion(&cpl, &mut mem);
        assert_eq!(dma.status(), DmaStatus::Error);
        dma.ack();
        assert_eq!(dma.status(), DmaStatus::Idle);
    }

    #[test]
    fn d2h_out_of_bounds_errors() {
        let mut mem = DeviceMemory::new(1024);
        let mut dma = DmaEngine::new(bdf());
        dma.start(
            DmaRequest {
                direction: DmaDirection::DeviceToHost,
                host_addr: 0,
                device_addr: 512,
                len: 1024,
            },
            &mut mem,
        );
        assert_eq!(dma.status(), DmaStatus::Error);
    }

    #[test]
    fn stray_completion_ignored() {
        let mut mem = DeviceMemory::new(1024);
        let mut dma = DmaEngine::new(bdf());
        let cpl = Tlp::completion_with_data(Bdf::new(0, 0, 0), bdf(), 99, vec![1]);
        dma.deliver_completion(&cpl, &mut mem);
        assert_eq!(dma.status(), DmaStatus::Idle);
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn concurrent_start_rejected() {
        let mut mem = DeviceMemory::new(1 << 20);
        let mut dma = DmaEngine::new(bdf());
        let req = DmaRequest {
            direction: DmaDirection::HostToDevice,
            host_addr: 0,
            device_addr: 0,
            len: 4096,
        };
        dma.start(req, &mut mem);
        dma.start(req, &mut mem);
    }
}
