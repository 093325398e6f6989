//! The TVM-side Adaptor (§3, §7.1).
//!
//! A kernel module (`ccAI_adaptor` in the prototype) with two jobs:
//! providing confidential xPU support underneath the unmodified driver
//! stack, and interacting with the PCIe-SC over its MMIO control window.
//!
//! Transparency is structural: the Adaptor slots into the two seams the
//! kernel already owns —
//!
//! * it implements [`DmaStager`], the DMA-mapping service every driver
//!   uses, encrypting into bounce buffers on the way out and decrypting
//!   landing buffers on the way back (`de/encrypt_data` in the paper);
//! * [`AdaptorPort`] wraps the kernel's TLP submission path, mirroring
//!   write-protected MMIO traffic with integrity tags.
//!
//! The §5 optimizations are switchable ([`OptimizationConfig`]): metadata
//! batching (I/O-read), batched tags + single doorbell (I/O-write), and
//! the crypto acceleration flags, so Fig. 11's "No Opt" baseline runs the
//! very same code with the switches off.

use crate::filter::{L1Rule, L2Rule, PolicyBlob, SecurityAction};
use crate::handler::{
    landing_record_addr, with_mmio_signed, ChunkRef, CryptoEngine, StreamDirection, TagRecord,
    CHUNK_SIZE, TAG_LANDING_RECORDS, TAG_RECORD_LEN,
};
use crate::perf::OptimizationConfig;
use crate::sc::{
    regs, status_bits, ENV_POLICY_RECORD_LEN, ENV_STREAM, MMIO_STREAM, STREAM_MAP_RECORD_LEN,
};
use ccai_pcie::{parse_ctrl_envelope, seal_ctrl_envelope, Bdf, Fabric, HostMemory, Tlp, TlpType};
use ccai_crypto::{hkdf, AesGcm, Key};
use ccai_sim::{Hop, Severity, Telemetry};
use ccai_trust::keymgmt::StreamId;
use ccai_trust::WorkloadKeyManager;
use ccai_tvm::stager::IntegrityError;
use ccai_tvm::{DmaStager, GuestMemory, RetryPolicy, StagedBuffer, TlpPort};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Adaptor operation counters (priced by the perf model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdaptorCounters {
    /// MMIO reads issued to the PCIe-SC (metadata queries, status).
    pub sc_mmio_reads: u64,
    /// MMIO writes issued to the PCIe-SC (control, tags, doorbells).
    pub sc_mmio_writes: u64,
    /// Tag TLPs sent.
    pub tag_packets: u64,
    /// Doorbell notifications sent.
    pub doorbells: u64,
    /// Plaintext bytes encrypted.
    pub bytes_encrypted: u64,
    /// Ciphertext bytes decrypted.
    pub bytes_decrypted: u64,
    /// Chunks staged H2D.
    pub chunks_staged: u64,
    /// Chunks recovered D2H.
    pub chunks_recovered: u64,
    /// Driver MMIO writes observed through the port.
    pub driver_mmio_writes: u64,
    /// Driver MMIO reads observed through the port.
    pub driver_mmio_reads: u64,
    /// MMIO integrity tags mirrored.
    pub mmio_tags: u64,
    /// Failed transfers reported by the driver's retry machinery.
    pub transfer_retries: u64,
    /// Stream rekeys requested (one per failed transfer whose stream was
    /// still known).
    pub rekeys: u64,
    /// Control-plane retries: go-back-N re-send rounds plus control-read
    /// re-issues after missing or mangled completions.
    pub control_retries: u64,
}

ccai_sim::snapshot_state!(AdaptorCounters {
    sc_mmio_reads,
    sc_mmio_writes,
    tag_packets,
    doorbells,
    bytes_encrypted,
    bytes_decrypted,
    chunks_staged,
    chunks_recovered,
    driver_mmio_writes,
    driver_mmio_reads,
    mmio_tags,
    transfer_retries,
    rekeys,
    control_retries,
});

/// Static configuration captured when the Adaptor loads.
#[derive(Debug, Clone)]
pub struct AdaptorConfig {
    /// The TVM's requester id.
    pub tvm_bdf: Bdf,
    /// The protected xPU's requester id.
    pub xpu_bdf: Bdf,
    /// The SC control-window base.
    pub sc_region_base: u64,
    /// The xPU's BAR0 (register) window.
    pub xpu_bar0: std::ops::Range<u64>,
    /// The xPU's BAR1 (aperture) window.
    pub xpu_bar1: std::ops::Range<u64>,
    /// The shared staging window in guest memory the Adaptor owns.
    pub staging_base: u64,
    /// Length of the staging window.
    pub staging_len: u64,
    /// Guest address of the tag landing buffer (inside a shared range).
    pub tag_landing: u64,
    /// Guest address of the metadata batch buffer (registered with the SC
    /// only when `opts.metadata_batching` is on).
    pub metadata_buf: u64,
    /// The §5 optimization switches. Sequenced driver register writes are
    /// always mirrored with integrity tags; that is not a switch.
    pub opts: OptimizationConfig,
}

struct AdaptorState {
    config: AdaptorConfig,
    master: [u8; 32],
    epoch: u32,
    keys: WorkloadKeyManager,
    engine: CryptoEngine,
    counters: AdaptorCounters,
    next_stream: u32,
    staging_cursor: u64,
    /// Landing buffers awaiting recovery: device_addr → (stream, chunks).
    pending_d2h: Vec<(u64, StreamId, u64)>,
    /// Every staging in this task: device_addr → stream, so a failed
    /// transfer can still be mapped to its stream for rekeying (entries in
    /// `pending_d2h` are consumed by recovery even when it fails).
    stream_of: Vec<(u64, StreamId)>,
    tag_cursor: u64,
    /// Control-envelope sequence counter: monotonic for the lifetime of
    /// the binding (never reset at task end, so the SC's strict in-order
    /// window survives epochs).
    ctrl_seq: u64,
    /// Sequenced control writes sent but not yet covered by a
    /// CTRL_SEQ_ACK read; the go-back-N re-send window.
    unacked: Vec<(u64, Tlp)>,
    /// Rotating tag for the Adaptor's own control reads. Kept in
    /// 0x60..=0x7F, disjoint from the driver's 0x01..=0x3F read tags and
    /// the fixed metadata/status tags, so a delayed stray completion can
    /// never be mistaken for a fresh acknowledgment.
    ctrl_read_tag: u8,
    retry: RetryPolicy,
    env_key: AesGcm,
    telemetry: Telemetry,
}

/// The stream's expanded key, provisioned on first use. Takes the key
/// manager rather than the whole state so callers can run the borrowed
/// cipher through the state's engine.
fn stream_cipher(keys: &mut WorkloadKeyManager, id: StreamId) -> &AesGcm {
    if keys.stream_cipher(id).is_err() {
        keys.provision_stream(id, u64::MAX - 1);
    }
    keys.stream_cipher(id).expect("just provisioned")
}

impl AdaptorState {
    fn tenant(&self) -> Option<u32> {
        Some(u32::from(self.config.tvm_bdf.to_u16()))
    }

    fn alloc_staging(&mut self, len: u64) -> u64 {
        let aligned = (self.staging_cursor + CHUNK_SIZE - 1) & !(CHUNK_SIZE - 1);
        assert!(
            aligned + len <= self.config.staging_len,
            "adaptor staging window exhausted"
        );
        self.staging_cursor = aligned + len;
        self.config.staging_base + aligned
    }

    /// Builds a raw (un-sequenced) control-window write. Only the MMIO
    /// tag mirror uses this: a mirror rides the driver's own verified
    /// write — if either is lost the driver re-sends and re-mirrors — so
    /// enveloping it would only let a dropped mirror wedge the strict
    /// in-order control window.
    fn raw_control_write(&mut self, offset: u64, payload: Vec<u8>) -> Tlp {
        self.counters.sc_mmio_writes += 1;
        Tlp::memory_write(self.config.tvm_bdf, self.config.sc_region_base + offset, payload)
    }

    /// Counts a driver register access and, for a sequenced BAR0 write,
    /// builds its integrity-tag mirror so bus tampering of control traffic
    /// is detectable (A3). The tag is keyed by the envelope sequence, so a
    /// retransmit regenerates the very same record and the SC's monotone
    /// acceptance dedups it. The SC refuses an un-enveloped register
    /// write, so such a write gets no tag.
    fn mirror_driver_write(&mut self, tlp: &Tlp) -> Option<Tlp> {
        let header = tlp.header();
        let addr = header.address().filter(|a| self.config.xpu_bar0.contains(a))?;
        match header.tlp_type() {
            TlpType::MemWrite => self.counters.driver_mmio_writes += 1,
            TlpType::MemRead => self.counters.driver_mmio_reads += 1,
            _ => {}
        }
        if header.tlp_type() != TlpType::MemWrite {
            return None;
        }
        let (_, seq) = parse_ctrl_envelope(tlp.payload())?;
        let cipher = stream_cipher(&mut self.keys, MMIO_STREAM);
        let nonce = ChunkRef { stream: MMIO_STREAM, seq }.nonce();
        let tag = with_mmio_signed(addr, tlp.payload(), |s| self.engine.plain_tag(cipher, &nonce, s));
        let record = TagRecord { stream: MMIO_STREAM, seq, tag };
        self.counters.mmio_tags += 1;
        Some(self.raw_control_write(regs::TAG_QUEUE, record.to_bytes().to_vec()))
    }

    /// Queues a sequenced control-window write into the go-back-N window.
    /// It reaches the SC on the next [`Adaptor::flush_control`].
    fn queue_control_write(&mut self, offset: u64, payload: &[u8]) {
        self.counters.sc_mmio_writes += 1;
        self.ctrl_seq += 1;
        let sealed = seal_ctrl_envelope(payload, self.ctrl_seq);
        self.unacked.push((
            self.ctrl_seq,
            Tlp::memory_write(self.config.tvm_bdf, self.config.sc_region_base + offset, sealed),
        ));
    }

    /// Queues an environment-policy record, MACed under the env key and
    /// nonced by its envelope sequence: env policy is append-only inside
    /// the SC, so a record corrupted in flight must be rejected there
    /// (and the rejection holds the ack back until this exact record is
    /// re-sent and verifies).
    fn queue_env_record(&mut self, kind: u8, addr: u64, value_or_end: u64) {
        let mut record = Vec::with_capacity(ENV_POLICY_RECORD_LEN + 16);
        record.push(kind);
        record.extend_from_slice(&addr.to_be_bytes());
        record.extend_from_slice(&value_or_end.to_be_bytes());
        let seq = self.ctrl_seq + 1;
        let nonce = ChunkRef { stream: ENV_STREAM, seq }.nonce();
        let tag = self.engine.plain_tag(&self.env_key, &nonce, &record);
        record.extend_from_slice(&tag);
        self.queue_control_write(regs::ENV_POLICY, &record);
    }

    /// Next rotating tag for an Adaptor-issued control read.
    fn next_ctrl_read_tag(&mut self) -> u8 {
        self.ctrl_read_tag = if (0x60..0x7F).contains(&self.ctrl_read_tag) {
            self.ctrl_read_tag + 1
        } else {
            0x60
        };
        self.ctrl_read_tag
    }

    fn stream_map_record(
        &mut self,
        id: StreamId,
        direction: StreamDirection,
        base: u64,
        len: u64,
        base_seq: u64,
    ) {
        let mut record = [0; STREAM_MAP_RECORD_LEN];
        record[..4].copy_from_slice(&id.0.to_be_bytes());
        record[4] = match direction {
            StreamDirection::HostToDevice => 0,
            StreamDirection::DeviceToHost => 1,
        };
        record[5..13].copy_from_slice(&base.to_be_bytes());
        record[13..21].copy_from_slice(&len.to_be_bytes());
        record[21..].copy_from_slice(&base_seq.to_be_bytes());
        self.queue_control_write(regs::STREAM_MAP, &record);
    }
}

impl fmt::Debug for AdaptorState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AdaptorState")
            .field("counters", &self.counters)
            .finish()
    }
}

/// The Adaptor kernel module.
#[derive(Clone)]
pub struct Adaptor {
    state: Rc<RefCell<AdaptorState>>,
}

impl fmt::Debug for Adaptor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Adaptor({:?})", self.state.borrow().counters)
    }
}

impl Adaptor {
    /// Loads the Adaptor with the post-attestation master secret (the
    /// same one the PCIe-SC holds). Staging and crypto work become
    /// per-hop spans on `telemetry`, retries and rekeys trace events.
    /// Panics unless the staging window is chunk-aligned (a chunk stays in
    /// one guest page) and one transfer cannot lap the tag landing ring.
    pub fn new(config: AdaptorConfig, master: [u8; 32], telemetry: Telemetry) -> Adaptor {
        assert!(config.staging_base.is_multiple_of(CHUNK_SIZE), "staging window not chunk-aligned");
        assert!(config.staging_len / CHUNK_SIZE <= TAG_LANDING_RECORDS, "staging outruns tag ring");
        let mut state = AdaptorState {
            config,
            master,
            epoch: 0,
            keys: WorkloadKeyManager::new(crate::sc::epoch_master(&master, 0)),
            engine: CryptoEngine::new(),
            counters: AdaptorCounters::default(),
            next_stream: 0x100,
            staging_cursor: 0,
            pending_d2h: Vec::new(),
            stream_of: Vec::new(),
            tag_cursor: 0,
            ctrl_seq: 0,
            unacked: Vec::new(),
            ctrl_read_tag: 0,
            retry: RetryPolicy { max_attempts: 6, ..RetryPolicy::default() },
            env_key: AesGcm::new(
                &Key::from_bytes(&hkdf(b"ccai-env-key", &master, b"env", 16)).expect("16B key"),
            ),
            telemetry,
        };
        state.keys.provision_stream(MMIO_STREAM, u64::MAX - 1);
        Adaptor { state: Rc::new(RefCell::new(state)) }
    }

    /// Derives the SC-compatible config key from the same master secret.
    pub fn config_key(master: &[u8; 32]) -> Key {
        Key::from_bytes(&hkdf(b"ccai-config-key", master, b"policy", 16)).expect("16B key")
    }

    /// Counter snapshot.
    pub fn counters(&self) -> AdaptorCounters {
        self.state.borrow().counters
    }

    /// Wraps a fabric into the Adaptor-mediated TLP port the driver uses.
    pub fn port<'f>(&self, fabric: &'f mut Fabric) -> AdaptorPort<'f> {
        AdaptorPort { state: Rc::clone(&self.state), fabric }
    }

    /// Counts a control-plane retry and backs off in sim time so retry
    /// storms cost measured idle time rather than looping for free.
    fn note_control_retry(&self, what: &str, attempt: u32) {
        let mut state = self.state.borrow_mut();
        state.counters.control_retries += 1;
        let tenant = state.tenant();
        state.telemetry.record(
            Severity::Warn,
            "adaptor.control_retry",
            tenant,
            None,
            format!("target={what} attempt={attempt}"),
        );
        state.telemetry.counter_add("adaptor.control_retries", 1);
        let rounds = state.retry.rounds_for_attempt(attempt);
        let deadline = state.telemetry.now() + state.retry.backoff_unit * u64::from(rounds);
        let _ = state.telemetry.idle_until(deadline, tenant);
    }

    /// Runs `attempt_once` until it returns `Some`, at most
    /// `retry.max_attempts` times, noting a control retry against `what`
    /// before every re-attempt.
    fn with_control_retries<T>(
        &self,
        what: &str,
        mut attempt_once: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        let max_attempts = self.state.borrow().retry.max_attempts;
        let mut attempt = 0u32;
        loop {
            if let Some(value) = attempt_once() {
                return Some(value);
            }
            attempt += 1;
            if attempt >= max_attempts {
                return None;
            }
            self.note_control_retry(what, attempt);
        }
    }

    /// Reads a control-window register with a rotating tag, re-issuing a
    /// bounded number of times when the completion goes missing or comes
    /// back mangled.
    fn control_read_u64(&self, port: &mut dyn TlpPort, offset: u64) -> Option<u64> {
        self.with_control_retries("read", || {
            let (read, tag) = {
                let mut state = self.state.borrow_mut();
                state.counters.sc_mmio_reads += 1;
                let tag = state.next_ctrl_read_tag();
                let addr = state.config.sc_region_base + offset;
                (Tlp::memory_read(state.config.tvm_bdf, addr, 8, tag), tag)
            };
            port.request(read).iter().find_map(|r| {
                (r.header().tlp_type() == TlpType::CompletionData
                    && r.header().tag() == tag
                    && r.payload().len() >= 8)
                    .then(|| u64::from_le_bytes(r.payload()[..8].try_into().expect("8B")))
            })
        })
    }

    /// Drives the go-back-N window: sends every unacknowledged sequenced
    /// control write, reads CTRL_SEQ_ACK, and re-sends the suffix past
    /// the ack point until the SC has accepted the full batch in order.
    ///
    /// The ack is only trusted when two consecutive reads agree and the
    /// value is plausible (at most the highest sequence ever sent): a
    /// single corrupted completion must never fake progress, because
    /// dropping a write the SC did not accept would wedge the strict
    /// in-order window for good.
    ///
    /// On retry-budget exhaustion the unacknowledged suffix stays queued
    /// and rides the next flush.
    fn flush_control(&self, port: &mut dyn TlpPort) -> bool {
        self.with_control_retries("flush", || {
            if self.state.borrow().unacked.is_empty() {
                return Some(());
            }
            // One clone at a time: the state is not borrowed while it is sent.
            for next in 0.. {
                let Some(tlp) = self.state.borrow().unacked.get(next).map(|(_, t)| t.clone()) else {
                    break;
                };
                port.request(tlp);
            }
            let first = self.control_read_u64(port, regs::CTRL_SEQ_ACK);
            let second = self.control_read_u64(port, regs::CTRL_SEQ_ACK);
            let ack = match (first, second) {
                (Some(a), Some(b)) if a == b => a,
                _ => return None,
            };
            let mut state = self.state.borrow_mut();
            if ack <= state.ctrl_seq {
                state.unacked.retain(|(seq, _)| *seq > ack);
            }
            state.unacked.is_empty().then_some(())
        })
        .is_some()
    }

    /// Writes a control register through the sequenced path and verifies
    /// its content by read-back, re-writing (with a fresh sequence) until
    /// the SC holds the intended value. Cures both dropped writes and
    /// payloads corrupted in flight.
    fn write_control_verified(&self, port: &mut dyn TlpPort, offset: u64, value: u64) {
        self.with_control_retries("write_verify", || {
            self.state
                .borrow_mut()
                .queue_control_write(offset, &value.to_le_bytes());
            self.flush_control(port);
            (self.control_read_u64(port, offset) == Some(value)).then_some(())
        });
    }

    /// `hw_init` (§7.1): registers the tag landing buffer with the SC, and
    /// the metadata buffer when §5 metadata batching is on, verifying each
    /// address survived the wire intact. An SC with no metadata buffer
    /// registered answers per-chunk [`regs::METADATA_QUERY`] reads instead.
    pub fn hw_init(&self, port: &mut dyn TlpPort) {
        let (landing, metadata) = {
            let mut state = self.state.borrow_mut();
            // Registering the landing buffer resets the SC's record
            // cursor; mirror that locally so both sides stay in step.
            state.tag_cursor = 0;
            let c = &state.config;
            (c.tag_landing, c.opts.metadata_batching.then_some(c.metadata_buf))
        };
        self.write_control_verified(port, regs::TAG_LANDING_ADDR, landing);
        if let Some(metadata) = metadata {
            self.write_control_verified(port, regs::METADATA_BUF_ADDR, metadata);
        }
    }

    /// `pkt_filter_manage` (§7.1): builds the default policy for this
    /// platform, seals it under the config key, stages it into the SC's
    /// configuration space and applies it. Returns `true` if the SC
    /// reports successful application. POLICY_ERR (corrupted staging
    /// bytes or length) or a lost status re-stages the whole blob under
    /// fresh sequence numbers and applies it again.
    pub fn install_default_policy(&self, port: &mut dyn TlpPort, master: &[u8; 32]) -> bool {
        self.with_control_retries("policy", || {
            self.queue_default_policy(master);
            self.flush_control(port);
            let status = self.control_read_u64(port, regs::STATUS)?;
            (status & status_bits::POLICY_OK != 0).then_some(())
        })
        .is_some()
    }

    /// Queues the full default-policy installation sequence: staged blob
    /// chunks, length, apply doorbell, and the register-window env record.
    fn queue_default_policy(&self, master: &[u8; 32]) {
        {
            let mut state = self.state.borrow_mut();
            let c = state.config.clone();
            let l1 = vec![
                L1Rule::admit(TlpType::MemWrite, c.tvm_bdf),
                L1Rule::admit(TlpType::MemRead, c.tvm_bdf),
                L1Rule::admit(TlpType::CfgRead, c.tvm_bdf),
                L1Rule::admit(TlpType::CfgWrite, c.tvm_bdf),
                L1Rule::admit(TlpType::MemRead, c.xpu_bdf),
                L1Rule::admit(TlpType::MemWrite, c.xpu_bdf),
                L1Rule::admit(TlpType::Message, c.xpu_bdf),
                // Completions carry the ORIGINAL requester's id: upstream
                // completions answering TVM reads say "TVM", downstream
                // completions answering device DMA reads say "xPU".
                L1Rule::admit(TlpType::Completion, c.tvm_bdf),
                L1Rule::admit(TlpType::CompletionData, c.tvm_bdf),
                L1Rule::admit(TlpType::Completion, c.xpu_bdf),
                L1Rule::admit(TlpType::CompletionData, c.xpu_bdf),
                L1Rule::default_deny(),
            ];
            let l2 = vec![
                // MMIO control writes to the xPU registers: A3.
                L2Rule::for_range(
                    TlpType::MemWrite,
                    c.tvm_bdf,
                    c.xpu_bar0.clone(),
                    SecurityAction::WriteProtect,
                ),
                // Register reads: A4.
                L2Rule::for_range(
                    TlpType::MemRead,
                    c.tvm_bdf,
                    c.xpu_bar0.clone(),
                    SecurityAction::PassThrough,
                ),
                // Aperture traffic: A4 (bulk data must ride the DMA path;
                // sensitive regions are covered by streams).
                L2Rule::for_range(
                    TlpType::MemWrite,
                    c.tvm_bdf,
                    c.xpu_bar1.clone(),
                    SecurityAction::PassThrough,
                ),
                L2Rule::for_range(
                    TlpType::MemRead,
                    c.tvm_bdf,
                    c.xpu_bar1.clone(),
                    SecurityAction::PassThrough,
                ),
                // Config cycles: A4.
                L2Rule::for_type(TlpType::CfgRead, c.tvm_bdf, SecurityAction::PassThrough),
                L2Rule::for_type(TlpType::CfgWrite, c.tvm_bdf, SecurityAction::PassThrough),
                // Device DMA reads toward the staging window: A4 (their
                // completions carry the ciphertext and are matched by the
                // SC's outstanding-read tracker).
                L2Rule::for_range(
                    TlpType::MemRead,
                    c.xpu_bdf,
                    c.staging_base..c.staging_base + c.staging_len,
                    SecurityAction::PassThrough,
                ),
                // Device DMA writes toward the staging window: A2
                // (encrypt results in flight).
                L2Rule::for_range(
                    TlpType::MemWrite,
                    c.xpu_bdf,
                    c.staging_base..c.staging_base + c.staging_len,
                    SecurityAction::CryptProtect,
                ),
                // Interrupts and completions: A4.
                L2Rule::for_type(TlpType::Message, c.xpu_bdf, SecurityAction::PassThrough),
                L2Rule::for_type(TlpType::Completion, c.xpu_bdf, SecurityAction::PassThrough),
                L2Rule::for_type(
                    TlpType::CompletionData,
                    c.xpu_bdf,
                    SecurityAction::PassThrough,
                ),
                L2Rule::for_type(TlpType::Completion, c.tvm_bdf, SecurityAction::PassThrough),
                L2Rule::for_type(
                    TlpType::CompletionData,
                    c.tvm_bdf,
                    SecurityAction::PassThrough,
                ),
            ];
            let blob =
                PolicyBlob::seal(&l1, &l2, &Self::config_key(master), [0x0D; 12]).to_bytes();

            for (i, chunk) in blob.chunks(1024).enumerate() {
                state.queue_control_write(regs::POLICY_STAGING + (i * 1024) as u64, chunk);
            }
            state.queue_control_write(regs::POLICY_LEN, &(blob.len() as u64).to_le_bytes());
            state.queue_control_write(regs::POLICY_APPLY, &[1, 0, 0, 0, 0, 0, 0, 0]);

            // Environment policy: allow the whole register window.
            state.queue_env_record(0, c.xpu_bar0.start, c.xpu_bar0.end);
        }
    }

    /// Allows A3 register writes anywhere in `range` (e.g. a partitioned
    /// device's register windows) in the SC's environment guard.
    pub fn allow_window(&self, port: &mut dyn TlpPort, range: std::ops::Range<u64>) {
        self.state
            .borrow_mut()
            .queue_env_record(0, range.start, range.end);
        self.flush_control(port);
    }

    /// Registers an expected-value guard (e.g. the page-table base
    /// register) with the SC's environment guard.
    pub fn guard_register(&self, port: &mut dyn TlpPort, addr: u64, expected: u64) {
        self.state.borrow_mut().queue_env_record(1, addr, expected);
        self.flush_control(port);
    }

    /// Registers the device's reset register so the SC can observe the
    /// environment-cleaning write.
    pub fn register_reset_address(&self, port: &mut dyn TlpPort, addr: u64) {
        self.state.borrow_mut().queue_env_record(2, addr, 0);
        self.flush_control(port);
    }

    /// Ends the confidential task: destroys this task's keys on both
    /// sides and advances to the next epoch's schedule in lockstep with
    /// the SC.
    pub fn end_task(&self, port: &mut dyn TlpPort) {
        {
            let mut state = self.state.borrow_mut();
            state.keys.destroy();
            state.epoch += 1;
            let epoch = state.epoch;
            let master = state.master;
            state.keys = WorkloadKeyManager::new(crate::sc::epoch_master(&master, epoch));
            state.keys.provision_stream(MMIO_STREAM, u64::MAX - 1);
            // The doorbell names the target epoch, so a retransmitted
            // task-end is idempotent on the SC side.
            state.queue_control_write(regs::TASK_END, &u64::from(epoch).to_le_bytes());
        }
        self.flush_control(port);
    }

    /// Fast-forwards the Adaptor's key schedule to `epoch` without the
    /// task-end doorbell. Used by live migration: the SC side has already
    /// been rotated out-of-band (restore of the migrated tenant slice
    /// followed by an epoch rotation), so the Adaptor must jump to the
    /// same epoch to stay in lockstep. The old schedule is destroyed
    /// first — the pre-migration keys cease to exist on this side too.
    ///
    /// The control sequence counter *adopts* the imported floor
    /// (`ctrl_floor`, the SC's CTRL_SEQ_ACK) exactly: the SC now enforces
    /// the *source's* high-water mark, and its control window is strict
    /// in-order — the only acceptable next sequence is `floor + 1`.
    /// Jumping merely *past* the floor is not enough: a replacement
    /// blade's own post-reset bring-up writes leave its counter above
    /// the floor the source exported, and every later write would then
    /// be dropped as a gap. Rewinding is safe because the epoch rotation
    /// puts every future seal under a schedule neither side has used.
    /// Unacknowledged pre-migration control writes are dropped — they
    /// were sealed under the retired epoch and would only ever be
    /// suppressed.
    pub(crate) fn sync_epoch(&self, epoch: u32, ctrl_floor: u64) {
        let mut state = self.state.borrow_mut();
        state.keys.destroy();
        state.epoch = epoch;
        let master = state.master;
        state.keys = WorkloadKeyManager::new(crate::sc::epoch_master(&master, epoch));
        state.keys.provision_stream(MMIO_STREAM, u64::MAX - 1);
        state.ctrl_seq = ctrl_floor;
        state.unacked.clear();
    }
}

impl DmaStager for Adaptor {
    fn stage_to_device(
        &mut self,
        port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        data: &[u8],
    ) -> StagedBuffer {
        // Phase 1 (state borrow): allocate, register, encrypt. Control
        // writes queue into the go-back-N window and hit the wire in
        // phase 2.
        let (metadata_reads, base, len) = {
            let mut state = self.state.borrow_mut();
            let state = &mut *state;
            let queued_before = state.unacked.len();
            let base = state.alloc_staging(data.len() as u64);
            let stream = StreamId(state.next_stream);
            state.next_stream += 1;
            state.stream_of.push((base, stream));

            state.stream_map_record(
                stream,
                StreamDirection::HostToDevice,
                base,
                data.len() as u64,
                0,
            );

            // Copy each plaintext chunk straight into its staging page and
            // seal it there; collect the tag records.
            let chunk_count = data.len().div_ceil(CHUNK_SIZE as usize) as u64;
            let mut records = Vec::with_capacity(chunk_count as usize * TAG_RECORD_LEN);
            let cipher = stream_cipher(&mut state.keys, stream);
            for (i, chunk) in data.chunks(CHUNK_SIZE as usize).enumerate() {
                let chunk_ref = ChunkRef { stream, seq: i as u64 };
                let staged = memory.range_mut(base + i as u64 * CHUNK_SIZE, chunk.len());
                staged.copy_from_slice(chunk);
                let (nonce, aad) = (chunk_ref.nonce(), chunk_ref.aad());
                let tag = state.engine.seal_in_place_detached(cipher, &nonce, staged, &aad);
                records.extend_from_slice(&TagRecord { stream, seq: i as u64, tag }.to_bytes());
            }
            state.counters.bytes_encrypted += data.len() as u64;
            state.counters.chunks_staged += chunk_count;

            // Tag packets: batched or per chunk (§5 I/O-write opt).
            let per_tlp = if state.config.opts.batched_notify {
                crate::perf::TAGS_PER_TLP as usize
            } else {
                1
            };
            for group in records.chunks(per_tlp * TAG_RECORD_LEN) {
                state.counters.tag_packets += 1;
                state.queue_control_write(regs::TAG_QUEUE, group);
            }

            // Doorbells.
            let doorbells = if state.config.opts.batched_notify { 1 } else { chunk_count };
            for _ in 0..doorbells {
                state.counters.doorbells += 1;
                state.queue_control_write(regs::NOTIFY, &chunk_count.to_le_bytes());
            }

            // Metadata queries (§5 I/O-read opt off → one read per chunk).
            let mut metadata_reads = Vec::new();
            if !state.config.opts.metadata_batching {
                for _ in 0..chunk_count {
                    state.counters.sc_mmio_reads += 1;
                    metadata_reads.push(Tlp::memory_read(
                        state.config.tvm_bdf,
                        state.config.sc_region_base + regs::METADATA_QUERY,
                        8,
                        0x52,
                    ));
                }
            }
            let tenant = state.tenant();
            let stream_tag = Some(u64::from(stream.0));
            let control_count = (state.unacked.len() - queued_before) as u64;
            state.telemetry.advance_span(
                Hop::AdaptorCrypt,
                tenant,
                state.config.opts.crypto_bandwidth().transfer_time(data.len() as u64),
            );
            state.telemetry.advance_span(
                Hop::AdaptorStage,
                tenant,
                crate::perf::MMIO_POSTED_WRITE * control_count
                    + crate::perf::MMIO_ROUND_TRIP * metadata_reads.len() as u64,
            );
            state.telemetry.record(
                Severity::Info,
                "adaptor.stage",
                tenant,
                stream_tag,
                format!("bytes={} chunks={chunk_count}", data.len()),
            );
            (metadata_reads, base, data.len() as u64)
        };

        // Phase 2 (no state borrow): emit traffic, then drive the
        // sequenced batch to acknowledgment.
        for tlp in metadata_reads {
            port.request(tlp);
        }
        self.flush_control(port);
        StagedBuffer { device_addr: base, len }
    }

    fn alloc_from_device(
        &mut self,
        port: &mut dyn TlpPort,
        _memory: &mut GuestMemory,
        len: u64,
    ) -> StagedBuffer {
        let base = {
            let mut state = self.state.borrow_mut();
            let base = state.alloc_staging(len);
            let stream = StreamId(state.next_stream);
            state.next_stream += 1;
            state.stream_of.push((base, stream));
            state.keys.provision_stream(stream, u64::MAX - 1);
            let chunks = len.div_ceil(CHUNK_SIZE);
            state.pending_d2h.push((base, stream, chunks));
            state.stream_map_record(stream, StreamDirection::DeviceToHost, base, len, 0);
            state.telemetry.advance_span(
                Hop::AdaptorStage,
                state.tenant(),
                crate::perf::MMIO_POSTED_WRITE,
            );
            base
        };
        self.flush_control(port);
        StagedBuffer { device_addr: base, len }
    }

    fn recover_from_device(
        &mut self,
        _port: &mut dyn TlpPort,
        memory: &mut GuestMemory,
        buffer: StagedBuffer,
    ) -> Result<Vec<u8>, IntegrityError> {
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        let idx = state
            .pending_d2h
            .iter()
            .position(|(base, _, _)| *base == buffer.device_addr)
            .ok_or_else(|| IntegrityError { reason: "unknown landing buffer".to_string() })?;
        let (base, stream, chunks) = state.pending_d2h.remove(idx);

        // The SC-deposited tag records, from the landing ring, by chunk.
        let landing = state.config.tag_landing;
        let cursor = state.tag_cursor;
        state.tag_cursor += chunks;
        let mut tags = vec![None; chunks as usize];
        for n in cursor..cursor + chunks {
            let mut bytes = [0u8; TAG_RECORD_LEN];
            memory.read_exact(landing_record_addr(landing, n), &mut bytes);
            let record = TagRecord::from_bytes(&bytes).ok_or_else(|| IntegrityError {
                reason: "malformed tag record in landing buffer".to_string(),
            })?;
            if record.stream == stream && record.seq < chunks {
                tags[record.seq as usize] = Some(record.tag);
            }
        }

        // Copy each landing chunk into the output and verify + decrypt it
        // there while it is still in cache.
        let mut plaintext = Vec::with_capacity(buffer.len as usize);
        let cipher = stream_cipher(&mut state.keys, stream);
        for (i, tag) in tags.into_iter().enumerate() {
            let i = i as u64;
            let chunk_ref = ChunkRef { stream, seq: i };
            let tag = tag.ok_or_else(|| IntegrityError {
                reason: format!("missing tag for chunk {i}"),
            })?;
            let at = i * CHUNK_SIZE;
            memory.read_into(base + at, CHUNK_SIZE.min(buffer.len - at), &mut plaintext);
            let chunk = &mut plaintext[at as usize..];
            let (nonce, aad) = (chunk_ref.nonce(), chunk_ref.aad());
            if state.engine.open_in_place_detached(cipher, &nonce, chunk, &tag, &aad).is_err() {
                state.telemetry.record(
                    Severity::Warn,
                    "adaptor.integrity_fail",
                    state.tenant(),
                    Some(u64::from(stream.0)),
                    format!("chunk={i}"),
                );
                state.telemetry.counter_add("adaptor.integrity_failures", 1);
                return Err(IntegrityError {
                    reason: format!("authentication failed for chunk {i}"),
                });
            }
            state.counters.chunks_recovered += 1;
        }
        state.counters.bytes_decrypted += plaintext.len() as u64;
        let tenant = state.tenant();
        let stream_tag = Some(u64::from(stream.0));
        state.telemetry.advance_span(
            Hop::AdaptorCrypt,
            tenant,
            state.config.opts.crypto_bandwidth().transfer_time(buffer.len),
        );
        state.telemetry.record(
            Severity::Info,
            "adaptor.recover",
            tenant,
            stream_tag,
            format!("bytes={}", plaintext.len()),
        );
        Ok(plaintext)
    }

    fn transfer_failed(
        &mut self,
        port: &mut dyn TlpPort,
        _memory: &mut GuestMemory,
        buffer: &StagedBuffer,
    ) {
        // Map the dead buffer back to its stream (most recent staging for
        // the address wins: the cursor can revisit addresses across tasks)
        // and retire the stream's key generation on both sides. The retry
        // will stage under a fresh stream, so no IV consumed by the failed
        // attempt can ever be reused, and a replay of the old ciphertext
        // can no longer authenticate.
        {
            let mut state = self.state.borrow_mut();
            state.counters.transfer_retries += 1;
            let stream = state
                .stream_of
                .iter()
                .rev()
                .find(|(base, _)| *base == buffer.device_addr)
                .map(|&(_, stream)| stream);
            state.telemetry.record(
                Severity::Warn,
                "adaptor.retry",
                state.tenant(),
                stream.map(|s| u64::from(s.0)),
                format!("buffer={:#x}", buffer.device_addr),
            );
            state.telemetry.counter_add("adaptor.transfer_retries", 1);
            if let Some(stream) = stream {
                let _ = state.keys.rotate(stream);
                state.counters.rekeys += 1;
                state.telemetry.record(
                    Severity::Warn,
                    "adaptor.rekey",
                    state.tenant(),
                    Some(u64::from(stream.0)),
                    String::new(),
                );
                state.telemetry.counter_add("adaptor.rekeys", 1);
                state.queue_control_write(regs::REKEY, &u64::from(stream.0).to_le_bytes());
            }
        }
        self.flush_control(port);
    }

    fn release_all(&mut self) {
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        state.staging_cursor = 0;
        state.pending_d2h.clear();
        // Streams end with their staging — nothing can name them again —
        // and their keys end with them.
        for (_, stream) in state.stream_of.drain(..) {
            state.keys.retire_stream(stream);
        }
    }
}

impl Adaptor {
    /// Serializes the Adaptor's mutable state. Excluded by design: the
    /// config (rebuilt at load), the master secret and env key (key
    /// material re-derives from the master the restoring Adaptor was
    /// loaded with), and the telemetry hub (the restoring Adaptor was
    /// loaded with its own).
    pub fn encode_snapshot(&self, enc: &mut ccai_sim::snapshot::Encoder) {
        let state = self.state.borrow();
        enc.put(&state.epoch);
        state.keys.encode_snapshot(enc);
        enc.put(&state.engine);
        enc.put(&state.counters);
        enc.put(&state.next_stream);
        enc.put(&state.staging_cursor);
        enc.put(&state.pending_d2h);
        enc.put(&state.stream_of);
        enc.put(&state.tag_cursor);
        enc.put(&state.ctrl_seq);
        enc.put(&state.unacked);
        enc.put(&state.ctrl_read_tag);
        enc.put(&state.retry);
    }

    /// Restores a freshly loaded Adaptor to a snapshotted state. The
    /// receiver must have been loaded with the same config and master
    /// secret as the snapshotted Adaptor; the key schedule is rebuilt at
    /// the snapshotted epoch and its positions restored.
    ///
    /// # Errors
    ///
    /// Any [`ccai_sim::SnapshotError`] for truncated or inconsistent
    /// input; the Adaptor is left untouched on failure.
    pub fn restore_snapshot(
        &self,
        dec: &mut ccai_sim::snapshot::Decoder<'_>,
    ) -> Result<(), ccai_sim::SnapshotError> {
        let mut state = self.state.borrow_mut();
        let epoch = dec.get()?;
        let mut keys = WorkloadKeyManager::new(crate::sc::epoch_master(&state.master, epoch));
        keys.restore_snapshot(dec)?;
        let engine = dec.get()?;
        let counters = dec.get()?;
        let next_stream = dec.get()?;
        let staging_cursor = dec.get()?;
        let pending_d2h = dec.get()?;
        let stream_of = dec.get()?;
        let tag_cursor = dec.get()?;
        let ctrl_seq = dec.get()?;
        let unacked = dec.get()?;
        let ctrl_read_tag = dec.get()?;
        let retry = dec.get()?;
        state.epoch = epoch;
        state.keys = keys;
        state.engine = engine;
        state.counters = counters;
        state.next_stream = next_stream;
        state.staging_cursor = staging_cursor;
        state.pending_d2h = pending_d2h;
        state.stream_of = stream_of;
        state.tag_cursor = tag_cursor;
        state.ctrl_seq = ctrl_seq;
        state.unacked = unacked;
        state.ctrl_read_tag = ctrl_read_tag;
        state.retry = retry;
        Ok(())
    }
}

/// The Adaptor-mediated TLP port the driver stack uses.
pub struct AdaptorPort<'f> {
    state: Rc<RefCell<AdaptorState>>,
    fabric: &'f mut Fabric,
}

impl fmt::Debug for AdaptorPort<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AdaptorPort")
    }
}

impl TlpPort for AdaptorPort<'_> {
    fn request(&mut self, tlp: Tlp) -> Vec<Tlp> {
        let mirror = self.state.borrow_mut().mirror_driver_write(&tlp);
        if let Some(mirror) = mirror {
            self.fabric.host_request(mirror);
        }
        self.fabric.host_request(tlp)
    }

    fn pump(&mut self, memory: &mut dyn HostMemory) -> usize {
        self.fabric.pump(memory)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::{ConfidentialSystem, SystemMode};
    use ccai_xpu::XpuSpec;

    /// Every staged chunk goes through the engine, whatever the transfer
    /// size: the engine's stats and the Adaptor's own counters agree.
    #[test]
    fn engine_stats_cover_large_transfers() {
        let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
        let mut adaptor = system.adaptor_handle().expect("protected mode has adaptor");
        let data: Vec<u8> = (0..512 * 1024).map(|i| (i * 31 % 251) as u8).collect();
        system.with_port(|port, memory| adaptor.stage_to_device(port, memory, &data));
        let stats = adaptor.state.borrow().engine.stats();
        let counters = adaptor.counters();
        assert_eq!(counters.bytes_encrypted, data.len() as u64);
        assert_eq!(stats.bytes_encrypted, counters.bytes_encrypted);
        assert_eq!(stats.seal_ops, counters.chunks_staged);
    }

    /// Records the body of every sequenced tag-queue write on its way to
    /// the SC, by envelope sequence.
    #[derive(Debug)]
    struct TagQueueTap<'p> {
        inner: &'p mut dyn TlpPort,
        queue_addr: u64,
        bodies: std::collections::BTreeMap<u64, Vec<u8>>,
    }

    impl TlpPort for TagQueueTap<'_> {
        fn request(&mut self, tlp: Tlp) -> Vec<Tlp> {
            if tlp.header().address() == Some(self.queue_addr) {
                if let Some((body, seq)) = parse_ctrl_envelope(tlp.payload()) {
                    self.bodies.insert(seq, body.to_vec());
                }
            }
            self.inner.request(tlp)
        }

        fn pump(&mut self, memory: &mut dyn HostMemory) -> usize {
            self.inner.pump(memory)
        }
    }

    /// Staging seals each chunk where it lies and recovery opens each one
    /// where it lands, chunk for chunk what `AesGcm::seal_detached` does
    /// under the chunk's nonce and AAD, at every length around a chunk
    /// and past a 64 KiB guest page. A flipped ciphertext byte fails its
    /// own chunk.
    #[test]
    fn chunks_stage_and_recover_where_they_lie() {
        for len in [1usize, 4095, 4096, 4097, 64 * 1024 + 5] {
            let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
            let mut adaptor = system.adaptor_handle().expect("protected mode has adaptor");
            let payload: Vec<u8> = (0..len).map(|i| (i * 7 % 253) as u8).collect();
            let (master, queue_addr, landing) = {
                let state = adaptor.state.borrow();
                let c = &state.config;
                (state.master, c.sc_region_base + regs::TAG_QUEUE, c.tag_landing)
            };
            // An independent key schedule: what the SC derives.
            let mut keys = WorkloadKeyManager::new(crate::sc::epoch_master(&master, 0));
            let sealed = |keys: &mut WorkloadKeyManager, stream, data: &[u8]| {
                let cipher = stream_cipher(keys, stream);
                let chunks = data.chunks(CHUNK_SIZE as usize).enumerate().map(|(i, chunk)| {
                    let chunk_ref = ChunkRef { stream, seq: i as u64 };
                    cipher.seal_detached(&chunk_ref.nonce(), chunk, &chunk_ref.aad())
                });
                chunks.collect::<Vec<_>>()
            };

            let (staged, bodies) = system.with_port(|port, memory| {
                let mut tap = TagQueueTap { inner: port, queue_addr, bodies: Default::default() };
                let staged = adaptor.stage_to_device(&mut tap, memory, &payload);
                (memory.read(staged.device_addr, staged.len), tap.bodies)
            });
            let stream = adaptor.state.borrow().stream_of.last().expect("staged").1;
            let expected = sealed(&mut keys, stream, &payload);
            let records: Vec<u8> = bodies.into_values().flatten().collect();
            let records: Vec<_> = TagRecord::parse_batch(&records).expect("whole").collect();
            assert_eq!(records.len(), expected.len(), "len {len}: one record per chunk");
            for (i, ((ct, tag), record)) in expected.iter().zip(&records).enumerate() {
                let at = i * CHUNK_SIZE as usize;
                assert_eq!(&staged[at..at + ct.len()], &ct[..], "len {len}: chunk {i} staged");
                assert_eq!(*record, TagRecord { stream, seq: i as u64, tag: *tag }, "len {len}");
            }

            // Recovery: deposit what the SC would (sealed chunks in the
            // landing buffer, records in the tag ring), then flip chunk k.
            let last = expected.len() - 1;
            for flip in [None, Some(0), Some(last)] {
                let result = system.with_port(|port, memory| {
                    let buffer = adaptor.alloc_from_device(port, memory, len as u64);
                    let (stream, cursor) = {
                        let state = adaptor.state.borrow();
                        (state.stream_of.last().expect("allocated").1, state.tag_cursor)
                    };
                    for (i, (ct, tag)) in sealed(&mut keys, stream, &payload).iter().enumerate() {
                        let at = buffer.device_addr + i as u64 * CHUNK_SIZE;
                        memory.write(at, ct);
                        if flip == Some(i) {
                            let b = ct.len() / 2;
                            memory.write(at + b as u64, &[ct[b] ^ 0x40]);
                        }
                        let record = TagRecord { stream, seq: i as u64, tag: *tag };
                        let slot = landing_record_addr(landing, cursor + i as u64);
                        memory.write(slot, &record.to_bytes());
                    }
                    adaptor.recover_from_device(port, memory, buffer)
                });
                match flip {
                    None => assert_eq!(result.expect("recovers"), payload, "len {len}"),
                    Some(k) => assert_eq!(
                        result.expect_err("tampered").reason,
                        format!("authentication failed for chunk {k}"),
                        "len {len}"
                    ),
                }
                adaptor.release_all();
            }
        }
    }

    /// A stream's key lives from staging to `release_all`: serving any
    /// number of requests leaves only the MMIO stream provisioned.
    #[test]
    fn released_streams_leave_no_keys_behind() {
        let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
        let mut adaptor = system.adaptor_handle().expect("protected mode has adaptor");
        for round in 0..16u8 {
            system.with_port(|port, memory| {
                adaptor.stage_to_device(port, memory, &[round; 100]);
                adaptor.alloc_from_device(port, memory, 32);
            });
            assert_eq!(adaptor.state.borrow().keys.live_streams(), 3);
            adaptor.release_all();
            assert_eq!(adaptor.state.borrow().keys.live_streams(), 1);
        }
        assert!(adaptor.state.borrow().keys.stream_cipher(MMIO_STREAM).is_ok());
    }
}
