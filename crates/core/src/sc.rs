//! The PCIe Security Controller (PCIe-SC).
//!
//! The PCIe-SC "sits between the xPU and the PCIe bus … monitors and
//! secures all PCIe packet exchanges between the TVM and the xPU,
//! providing consistent protection independent of the xPU type" (§1).
//! It is implemented as a fabric [`Interposer`]: every TLP crossing the
//! xPU's port traverses [`PcieSc::on_downstream`] /
//! [`PcieSc::on_upstream`], where the Packet Filter classifies it and the
//! Packet Handlers execute its action.
//!
//! The SC also exposes its own MMIO control window (the "Upstream Bar
//! space" of §7.2) through which the Adaptor installs encrypted policy,
//! registers protected streams, queues authentication tags, and
//! configures the metadata/tag landing buffers.

use crate::filter::{PacketFilter, PolicyBlob, SecurityAction};
use crate::handler::{
    with_mmio_signed, ChunkRef, CryptoEngine, EnvGuard, MmioPolicy, ParamsManager,
    StreamDirection, TagManager, TagRecord,
};
use crate::perf::{AES_NI_RATE, SC_PIPELINE_LATENCY};
use ccai_pcie::{parse_ctrl_envelope, Bdf, CplStatus, Interposer, InterposeOutcome, Tlp, TlpType};
use ccai_crypto::{hkdf, AesGcm, Key};
use ccai_sim::snapshot::{Decoder, Encoder, SnapshotError, SnapshotState};
use ccai_sim::{Bandwidth, DetHashMap, Hop, Severity, SimDuration, Telemetry};
use ccai_trust::keymgmt::StreamId;
use ccai_trust::WorkloadKeyManager;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The reserved stream id carrying A3 MMIO integrity tags.
pub const MMIO_STREAM: StreamId = StreamId(0xFFFF_0001);

/// The reserved stream id authenticating environment-policy records.
/// Env policy is append-only inside the SC, so a record corrupted in
/// flight would poison the guard forever; records therefore carry a MAC
/// keyed by this stream and nonced by their control-envelope sequence
/// number, and a bad MAC rejects the record *without* advancing the
/// control sequence so the Adaptor's go-back-N re-send cures it.
pub const ENV_STREAM: StreamId = StreamId(0xFFFF_0002);

/// Control-window register offsets (relative to the SC region base).
pub mod regs {
    /// Policy staging area (encrypted blob bytes).
    pub const POLICY_STAGING: u64 = 0x0000;
    /// Size of the staging area.
    pub const POLICY_STAGING_LEN: u64 = 0x1000;
    /// Staged blob length (u64 write).
    pub const POLICY_LEN: u64 = 0x1000;
    /// Policy-apply doorbell (write 1).
    pub const POLICY_APPLY: u64 = 0x1008;
    /// Status register (read): see [`super::status_bits`].
    pub const STATUS: u64 = 0x1010;
    /// Blocked-packet counter (read).
    pub const BLOCKED_COUNT: u64 = 0x1018;
    /// Host address of the tag landing buffer (u64 write).
    pub const TAG_LANDING_ADDR: u64 = 0x1020;
    /// Host address of the metadata batch buffer (u64 write).
    pub const METADATA_BUF_ADDR: u64 = 0x1028;
    /// Per-chunk metadata query register (read; the non-optimized path).
    pub const METADATA_QUERY: u64 = 0x1030;
    /// Last accepted control-envelope sequence number (read). The
    /// Adaptor polls this after a batch of sequenced control writes and
    /// re-sends everything past the acknowledged point (go-back-N).
    pub const CTRL_SEQ_ACK: u64 = 0x1038;
    /// Stream-map record write target.
    pub const STREAM_MAP: u64 = 0x1040;
    /// Environment-policy record write target.
    pub const ENV_POLICY: u64 = 0x1080;
    /// Tag-queue write target (batched [`super::TagRecord`]s).
    pub const TAG_QUEUE: u64 = 0x1100;
    /// Transfer-notify doorbell (write: number of chunks announced).
    pub const NOTIFY: u64 = 0x1140;
    /// Task-end doorbell (write 1): destroy keys, demand env cleanup.
    pub const TASK_END: u64 = 0x1148;
    /// Stream-rekey doorbell (write: stream id as u64 LE). The Adaptor
    /// rings this after a failed transfer so both sides rotate the
    /// stream's key generation in lockstep and the retransmit can never
    /// reuse an IV consumed by the dead attempt.
    pub const REKEY: u64 = 0x1150;
    /// Total control-window span.
    pub const WINDOW_LEN: u64 = 0x2000;
}

/// STATUS register bits.
pub mod status_bits {
    /// Last policy application succeeded.
    pub const POLICY_OK: u64 = 1 << 0;
    /// Last policy application failed authentication/decoding.
    pub const POLICY_ERR: u64 = 1 << 1;
    /// Environment cleanup is pending (task ended, reset not yet seen).
    pub const ENV_CLEAN_PENDING: u64 = 1 << 2;
}

/// Stream-map record: stream(4) ‖ dir(1) ‖ base(8) ‖ len(8) ‖ base_seq(8).
pub const STREAM_MAP_RECORD_LEN: usize = 29;

/// Env-policy record: kind(1) ‖ addr(8) ‖ value_or_end(8).
pub const ENV_POLICY_RECORD_LEN: usize = 17;

/// Authenticated env-policy record: record(17) ‖ tag(16).
pub const ENV_POLICY_MAC_RECORD_LEN: usize = ENV_POLICY_RECORD_LEN + 16;

/// Security incidents the SC records (the observable side of A1 drops and
/// failed A2/A3 verification).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScAlert {
    /// A packet was disallowed by the filter.
    PacketBlocked {
        /// Printable packet summary.
        summary: String,
    },
    /// A2 decryption failed (missing tag, bad tag, or replay).
    CryptFailure {
        /// The affected stream.
        stream: u32,
        /// The affected sequence number.
        seq: u64,
        /// What went wrong.
        reason: String,
    },
    /// An A3 write failed integrity or environment verification.
    WriteProtectFailure {
        /// Target address.
        addr: u64,
        /// What went wrong.
        reason: String,
    },
    /// A control access came from an unauthorized requester.
    ControlAccessDenied {
        /// The offending requester.
        requester: String,
    },
    /// A tenant's channel was demoted to A1-deny after too many
    /// consecutive integrity failures (graceful degradation: a link or
    /// peer this broken is treated as hostile).
    ChannelQuarantined {
        /// The quarantined xPU.
        xpu: String,
        /// Consecutive failures observed when the threshold tripped.
        failures: u32,
    },
}

/// Consecutive A2/A3 integrity failures a tenant may accumulate before
/// its channel is quarantined to A1-deny. A successful crypto operation
/// resets the count.
pub const DEFAULT_QUARANTINE_THRESHOLD: u32 = 8;

/// Operation counters priced by the performance model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScCounters {
    /// TLPs processed in either direction.
    pub packets_seen: u64,
    /// TLPs blocked (A1 or failed verification).
    pub packets_blocked: u64,
    /// A2 chunks decrypted (H2D).
    pub chunks_decrypted: u64,
    /// A2 chunks encrypted (D2H).
    pub chunks_encrypted: u64,
    /// Control-window accesses handled.
    pub control_accesses: u64,
    /// Tag records received.
    pub tags_received: u64,
    /// Metadata batches pushed to the TVM buffer.
    pub metadata_batches: u64,
    /// Per-chunk metadata queries answered (non-optimized path).
    pub metadata_queries: u64,
    /// Duplicate sequenced control/MMIO writes suppressed (exactly-once
    /// convergence of the control-plane retry protocol).
    pub control_dup_suppressed: u64,
    /// Sequenced control writes dropped because they arrived ahead of a
    /// missing predecessor (go-back-N re-send fills the hole).
    pub control_gaps: u64,
}

ccai_sim::snapshot_state!(ScCounters {
    packets_seen,
    packets_blocked,
    chunks_decrypted,
    chunks_encrypted,
    control_accesses,
    tags_received,
    metadata_batches,
    metadata_queries,
    control_dup_suppressed,
    control_gaps,
});

impl SnapshotState for ScAlert {
    fn encode_state(&self, enc: &mut Encoder) {
        match self {
            ScAlert::PacketBlocked { summary } => {
                enc.u8(0);
                enc.put(summary);
            }
            ScAlert::CryptFailure { stream, seq, reason } => {
                enc.u8(1);
                enc.put(&(*stream, *seq));
                enc.put(reason);
            }
            ScAlert::WriteProtectFailure { addr, reason } => {
                enc.u8(2);
                enc.put(addr);
                enc.put(reason);
            }
            ScAlert::ControlAccessDenied { requester } => {
                enc.u8(3);
                enc.put(requester);
            }
            ScAlert::ChannelQuarantined { xpu, failures } => {
                enc.u8(4);
                enc.put(xpu);
                enc.put(failures);
            }
        }
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        Ok(match dec.u8()? {
            0 => ScAlert::PacketBlocked { summary: dec.get()? },
            1 => ScAlert::CryptFailure { stream: dec.get()?, seq: dec.get()?, reason: dec.get()? },
            2 => ScAlert::WriteProtectFailure { addr: dec.get()?, reason: dec.get()? },
            3 => ScAlert::ControlAccessDenied { requester: dec.get()? },
            4 => ScAlert::ChannelQuarantined { xpu: dec.get()?, failures: dec.get()? },
            _ => return Err(SnapshotError::Invalid("alert kind")),
        })
    }
}

/// Configuration fixed at SC construction: who the SC is and whom it
/// serves. Behaviour is not configured here. A3 always verifies a
/// sequenced write's mirrored integrity tag, and a tenant gets §5
/// metadata batches exactly when its Adaptor registered a buffer at
/// [`regs::METADATA_BUF_ADDR`].
#[derive(Debug, Clone)]
pub struct ScConfig {
    /// The SC's own BDF (it authors tag-landing/metadata DMA writes).
    pub sc_bdf: Bdf,
    /// Base address of the SC control window on the bus.
    pub region_base: u64,
    /// The authorized TVM requester.
    pub tvm_bdf: Bdf,
    /// The protected xPU's requester id.
    pub xpu_bdf: Bdf,
}

/// The tenants a packet's requester is bound as: by TVM identifier and
/// by xPU identifier (indices into `PcieSc::tenants`).
#[derive(Clone, Copy, Default)]
struct Requester {
    tvm: Option<usize>,
    xpu: Option<usize>,
}

/// Per-tenant security context: one per (TVM, xPU-or-VF) binding, keyed
/// by PCIe identifiers (§9 "PCIe-SC for multiple xPUs and users").
struct TenantCtx {
    tvm_bdf: Bdf,
    xpu_bdf: Bdf,
    master: [u8; 32],
    epoch: u32,
    params: ParamsManager,
    tags: TagManager,
    tag_landing: Option<u64>,
    tag_landing_cursor: u64,
    metadata_buf: Option<u64>,
    /// Highest envelope sequence accepted on the A3 MMIO path (monotone
    /// acceptance; duplicates at or below are suppressed).
    mmio_last_seq: u64,
    /// Last control-window envelope sequence accepted in order (strict
    /// `last + 1` acceptance; survives epoch rekeys because the
    /// Adaptor's sequence counter is monotonic across tasks).
    ctrl_last_seq: u64,
    consecutive_crypt_failures: u32,
    quarantined: bool,
}

/// A tenant's key schedule at `epoch`, with the MMIO integrity stream
/// every schedule starts with.
fn epoch_params(master: &[u8; 32], epoch: u32) -> ParamsManager {
    let mut params = ParamsManager::new(WorkloadKeyManager::new(epoch_master(master, epoch)));
    params.register_stream(MMIO_STREAM, StreamDirection::HostToDevice, 0..0, 0);
    params
}

impl TenantCtx {
    fn new(tvm_bdf: Bdf, xpu_bdf: Bdf, master: [u8; 32]) -> TenantCtx {
        TenantCtx {
            tvm_bdf,
            xpu_bdf,
            master,
            epoch: 0,
            params: epoch_params(&master, 0),
            tags: TagManager::new(),
            tag_landing: None,
            tag_landing_cursor: 0,
            metadata_buf: None,
            mmio_last_seq: 0,
            ctrl_last_seq: 0,
            consecutive_crypt_failures: 0,
            quarantined: false,
        }
    }

    /// Destroys this task's keys and advances to the next epoch's
    /// schedule (per-task keys, §6).
    fn rekey_epoch(&mut self) {
        self.params.destroy();
        self.epoch += 1;
        self.params = epoch_params(&self.master, self.epoch);
        self.tags.clear();
    }

    /// Serializes everything but the master secret (the restoring SC must
    /// already hold the tenant's attested master; keys re-derive from it).
    fn encode_snapshot(&self, enc: &mut Encoder) {
        enc.put(&(self.tvm_bdf, self.xpu_bdf));
        enc.put(&self.epoch);
        self.params.encode_snapshot(enc);
        enc.put(&self.tags);
        enc.put(&self.tag_landing);
        enc.put(&self.tag_landing_cursor);
        enc.put(&self.metadata_buf);
        enc.put(&self.mmio_last_seq);
        enc.put(&self.ctrl_last_seq);
        enc.put(&self.consecutive_crypt_failures);
        enc.put(&self.quarantined);
    }

    /// Rebuilds the tenant bound as `(tvm_bdf, xpu_bdf)` with `master` from
    /// the state after its identifiers (which the caller read and matched).
    /// The key schedule is rebuilt at the snapshotted epoch before its
    /// positions are restored.
    fn from_snapshot(
        (tvm_bdf, xpu_bdf): (Bdf, Bdf),
        master: [u8; 32],
        dec: &mut Decoder<'_>,
    ) -> Result<TenantCtx, SnapshotError> {
        let epoch = dec.get()?;
        let keys = WorkloadKeyManager::new(epoch_master(&master, epoch));
        Ok(TenantCtx {
            tvm_bdf,
            xpu_bdf,
            master,
            epoch,
            params: ParamsManager::from_snapshot(keys, dec)?,
            tags: dec.get()?,
            tag_landing: dec.get()?,
            tag_landing_cursor: dec.get()?,
            metadata_buf: dec.get()?,
            mmio_last_seq: dec.get()?,
            ctrl_last_seq: dec.get()?,
            consecutive_crypt_failures: dec.get()?,
            quarantined: dec.get()?,
        })
    }
}

/// One tenant's power-cycle-persistent state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PersistentTenant {
    tvm_bdf: Bdf,
    xpu_bdf: Bdf,
    epoch: u32,
    mmio_last_seq: u64,
    ctrl_last_seq: u64,
    consecutive_crypt_failures: u32,
    quarantined: bool,
}

ccai_sim::snapshot_state!(PersistentTenant {
    tvm_bdf,
    xpu_bdf,
    epoch,
    mmio_last_seq,
    ctrl_last_seq,
    consecutive_crypt_failures,
    quarantined,
});

/// The security state that must survive a device *power cycle* (as
/// opposed to a live snapshot), and the tenant slice live migration
/// moves: per-tenant anti-replay floors — `ctrl_last_seq`,
/// `mmio_last_seq`, the task epoch — and quarantine standing, plus the
/// quarantine threshold. Nothing keyed is ever part of it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistentState {
    tenants: Vec<PersistentTenant>,
    quarantine_threshold: u32,
}

/// A restored threshold must be positive.
impl SnapshotState for PersistentState {
    fn encode_state(&self, enc: &mut Encoder) {
        enc.put(&self.tenants);
        enc.put(&self.quarantine_threshold);
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let (tenants, quarantine_threshold) = dec.get()?;
        if quarantine_threshold == 0 {
            return Err(SnapshotError::Invalid("quarantine threshold is zero"));
        }
        Ok(PersistentState { tenants, quarantine_threshold })
    }
}

/// The PCIe Security Controller.
pub struct PcieSc {
    config: ScConfig,
    filter: PacketFilter,
    tenants: Vec<TenantCtx>,
    engine: CryptoEngine,
    env_guard: EnvGuard,
    config_key: Key,
    env_key: AesGcm,
    status: u64,
    policy_staging: Vec<u8>,
    policy_len: u64,
    /// Outstanding device-issued reads: (requester, tag) → (addr, len).
    outstanding_reads: DetHashMap<(u16, u8), (u64, u32)>,
    /// [`PcieSc::crypt_time`] memoised per payload length.
    crypt_times: DetHashMap<u64, SimDuration>,
    counters: ScCounters,
    reset_observed: bool,
    alerts: Vec<ScAlert>,
    /// Queued DMA writes the SC itself wants to issue upstream (tag
    /// records, metadata batches); drained into upstream outcomes.
    pending_host_writes: Vec<Tlp>,
    expected_reset_addr: Option<u64>,
    quarantine_threshold: u32,
    /// The bring-up traffic gate: until the attestation-gated bring-up
    /// reaches `Serving`, only the SC's own control window is reachable
    /// and every data TLP is A1-denied.
    serving: bool,
    telemetry: Telemetry,
}

impl fmt::Debug for PcieSc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PcieSc")
            .field("region_base", &format_args!("{:#x}", self.config.region_base))
            .field("counters", &self.counters)
            .field("alerts", &self.alerts.len())
            .finish()
    }
}

impl PcieSc {
    /// Builds an SC from the post-attestation master secret. The config
    /// key (for encrypted policy blobs) and all stream keys derive from
    /// `master`, so an Adaptor seeded with the same secret agrees on
    /// every parameter. Filter decisions, crypt operations and quarantine
    /// trips become spans, events and counters on `telemetry`.
    pub fn new(config: ScConfig, master: [u8; 32], telemetry: Telemetry) -> PcieSc {
        let config_key =
            Key::from_bytes(&hkdf(b"ccai-config-key", &master, b"policy", 16)).expect("16B key");
        let env_key = AesGcm::new(
            &Key::from_bytes(&hkdf(b"ccai-env-key", &master, b"env", 16)).expect("16B key"),
        );
        let primary = TenantCtx::new(config.tvm_bdf, config.xpu_bdf, master);
        PcieSc {
            config,
            filter: PacketFilter::new(),
            tenants: vec![primary],
            engine: CryptoEngine::new(),
            env_guard: EnvGuard::new(),
            config_key,
            env_key,
            status: 0,
            policy_staging: vec![0; regs::POLICY_STAGING_LEN as usize],
            policy_len: 0,
            outstanding_reads: DetHashMap::default(),
            crypt_times: DetHashMap::default(),
            counters: ScCounters::default(),
            reset_observed: false,
            alerts: Vec::new(),
            pending_host_writes: Vec::new(),
            expected_reset_addr: None,
            quarantine_threshold: DEFAULT_QUARANTINE_THRESHOLD,
            // Construction requires the post-attestation master, i.e. the
            // trust chain already ran — a freshly built SC serves. An
            // explicit power cycle (`ConfidentialSystem::reset`) de-arms
            // the gate until bring-up completes again.
            serving: true,
            telemetry,
        }
    }

    /// Whether the bring-up gate admits data traffic.
    pub fn is_serving(&self) -> bool {
        self.serving
    }

    /// Arms (`true`) or de-arms (`false`) the bring-up traffic gate.
    /// While de-armed, only the control window is reachable; all data
    /// TLPs in either direction are A1-denied.
    pub fn set_serving(&mut self, serving: bool) {
        self.serving = serving;
        self.telemetry.record(
            Severity::Info,
            "trust.bringup.sc_gate",
            None,
            None,
            format!("serving={serving}"),
        );
    }

    /// Telemetry tenant tag for a bound tenant (its TVM requester id).
    fn tenant_tag(&self, tenant: usize) -> Option<u32> {
        Some(u32::from(self.tenants[tenant].tvm_bdf.to_u16()))
    }

    /// Prices one Packet Filter classification and counts the decision
    /// under its security action (A1–A4).
    fn note_filter_decision(&self, action: SecurityAction, tenant: Option<u32>) {
        self.telemetry.advance_span(Hop::ScFilter, tenant, SC_PIPELINE_LATENCY);
        let counter = match action {
            SecurityAction::Disallow => "sc.a1_disallow",
            SecurityAction::CryptProtect => "sc.a2_crypt",
            SecurityAction::WriteProtect => "sc.a3_writeprot",
            SecurityAction::PassThrough => "sc.a4_pass",
        };
        self.telemetry.counter_add(counter, 1);
        // Throughput numerator for the sc_filter hop: TLPs/sec falls
        // out as this counter over the hop's total span time.
        self.telemetry.counter_add("sc.filter_tlps", 1);
    }

    /// Telemetry tag for whichever tenant the requester resolves to,
    /// TVM side first.
    fn requester_tag(&self, found: Requester) -> Option<u32> {
        found.tvm.or(found.xpu).and_then(|t| self.tenant_tag(t))
    }

    /// True if the tenant bound to `xpu_bdf` has been quarantined to
    /// A1-deny.
    #[doc(hidden)]
    pub fn is_quarantined(&self, xpu_bdf: Bdf) -> bool {
        self.requester(xpu_bdf).xpu.is_some_and(|t| self.tenants[t].quarantined)
    }

    /// Telemetry tags (TVM requester ids) of every quarantined tenant, in
    /// bind order. Fleet layers union this across shards so a quarantine
    /// tripped by one SC is honored at every admission point.
    pub fn quarantined_tenants(&self) -> Vec<u32> {
        self.tenants
            .iter()
            .filter(|t| t.quarantined)
            .map(|t| u32::from(t.tvm_bdf.to_u16()))
            .collect()
    }

    /// Binds an additional tenant — a (TVM, xPU-or-virtual-function) pair
    /// with its own attested master secret (§9 multi-user support). The
    /// SC keys every security parameter on these PCIe identifiers.
    ///
    /// # Panics
    ///
    /// Panics if the TVM or xPU identifier is already bound.
    pub fn add_tenant(&mut self, tvm_bdf: Bdf, xpu_bdf: Bdf, master: [u8; 32]) {
        assert!(
            !self.tenants.iter().any(|t| t.tvm_bdf == tvm_bdf || t.xpu_bdf == xpu_bdf),
            "tenant identifiers already bound"
        );
        self.tenants.push(TenantCtx::new(tvm_bdf, xpu_bdf, master));
    }

    /// Number of bound tenants.
    #[doc(hidden)]
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Current key-schedule epoch of the tenant bound to `tvm_bdf`.
    ///
    /// Exposed so migration machinery (and its tests) can prove that a
    /// migrated tenant's streams were *rotated*, never copied: the target
    /// must report the source's epoch plus one.
    pub fn tenant_epoch(&self, tvm_bdf: Bdf) -> Option<u32> {
        self.requester(tvm_bdf).tvm.map(|t| self.tenants[t].epoch)
    }

    /// The anti-replay floors `(mmio_last_seq, ctrl_last_seq)` of the
    /// tenant bound to `tvm_bdf`. After a migration import these carry
    /// the *source's* high-water marks. The target's Adaptor adopts the
    /// control floor ([`PcieSc::ctrl_ack`]); a driver envelope at or below
    /// the MMIO floor still verifies, because a fresh mirror tag sits at
    /// its sequence.
    #[doc(hidden)]
    pub fn replay_floors(&self, tvm_bdf: Bdf) -> Option<(u64, u64)> {
        let t = self.requester(tvm_bdf).tvm?;
        Some((self.tenants[t].mmio_last_seq, self.tenants[t].ctrl_last_seq))
    }

    /// Rotates every bound tenant to its next key-schedule epoch: each
    /// tenant's current workload keys are destroyed and a fresh schedule
    /// is derived from `epoch_master(master, epoch + 1)`.
    ///
    /// This is the migration-side rekey ("rekey in flight"): after a
    /// tenant slice is restored on a migration target, the target rotates
    /// so that ciphertext captured against the source's schedule can never
    /// open here. Replay floors (`mmio_last_seq` / `ctrl_last_seq`) are
    /// deliberately *not* reset — they survive the rotation exactly as
    /// they survive a task-end rekey.
    pub fn rekey_all_epochs(&mut self) {
        for tenant in &mut self.tenants {
            tenant.rekey_epoch();
        }
        self.telemetry.record(
            Severity::Warn,
            "sc.rekey.migrate",
            None,
            None,
            format!("tenants={}", self.tenants.len()),
        );
        self.telemetry.counter_add("sc.rekey.migrations", 1);
    }

    /// The tenants `bdf` is bound as, TVM side and xPU side, in one scan:
    /// a packet resolves its requester once.
    fn requester(&self, bdf: Bdf) -> Requester {
        let mut found = Requester::default();
        for (i, t) in self.tenants.iter().enumerate() {
            found.tvm = found.tvm.or((t.tvm_bdf == bdf).then_some(i));
            found.xpu = found.xpu.or((t.xpu_bdf == bdf).then_some(i));
        }
        found
    }

    /// The SC's configuration.
    pub fn config(&self) -> &ScConfig {
        &self.config
    }

    /// Operation counters.
    pub fn counters(&self) -> ScCounters {
        self.counters
    }

    /// Filter statistics.
    #[doc(hidden)]
    pub fn filter_stats(&self) -> crate::filter::FilterStats {
        self.filter.stats()
    }

    /// Installed L1/L2 rule counts.
    pub fn filter_rule_counts(&self) -> (usize, usize) {
        self.filter.rule_counts()
    }

    /// A stable digest of the installed filter tables, for differential
    /// comparison of SC state across fault schedules.
    pub fn filter_tables_digest(&self) -> String {
        format!("{:?}", self.filter.tables())
    }

    /// Last in-order control-envelope sequence accepted for the tenant
    /// bound to `tvm_bdf` (the CTRL_SEQ_ACK value).
    pub fn ctrl_ack(&self, tvm_bdf: Bdf) -> Option<u64> {
        self.requester(tvm_bdf).tvm.map(|t| self.tenants[t].ctrl_last_seq)
    }

    /// Crypto engine statistics.
    pub fn engine_stats(&self) -> crate::handler::EngineStats {
        self.engine.stats()
    }

    /// Recorded security alerts.
    pub fn alerts(&self) -> &[ScAlert] {
        &self.alerts
    }

    /// Replays blocked by the anti-replay windows (all tenants).
    pub fn replays_blocked(&self) -> u64 {
        self.tenants.iter().map(|t| t.params.replays_blocked()).sum()
    }

    fn in_control_window(&self, addr: u64) -> bool {
        (self.config.region_base..self.config.region_base + regs::WINDOW_LEN).contains(&addr)
    }

    // ---- control window ----

    fn handle_control(&mut self, tlp: Tlp, tenant: Option<usize>) -> InterposeOutcome {
        let header = *tlp.header();
        let Some(tenant) = tenant else {
            self.alerts.push(ScAlert::ControlAccessDenied {
                requester: header.requester().to_string(),
            });
            self.counters.packets_blocked += 1;
            return self.refuse(&tlp);
        };
        self.counters.control_accesses += 1;
        let offset = header.address().expect("memory TLP") - self.config.region_base;
        match header.tlp_type() {
            TlpType::MemWrite => {
                match parse_ctrl_envelope(tlp.payload()) {
                    Some((body, seq)) => self.sequenced_control_write(tenant, offset, body, seq),
                    // Raw writes (the Adaptor's MMIO tag mirror, and
                    // envelopes whose trailer was mangled in flight) bypass
                    // the sequence machinery; a lost one surfaces as a
                    // failed read-back or a stalled ack and is re-sent.
                    None => {
                        self.control_write(tenant, offset, tlp.payload(), None);
                    }
                }
                InterposeOutcome::drop_packet() // absorbed, posted
            }
            TlpType::MemRead => {
                let value = self.control_read(tenant, offset);
                let len = (header.payload_len() as usize).min(8);
                InterposeOutcome::answer(Tlp::completion_with_data(
                    self.config.sc_bdf,
                    header.requester(),
                    header.tag(),
                    value.to_le_bytes()[..len].to_vec(),
                ))
            }
            _ => InterposeOutcome::drop_packet(),
        }
    }

    /// Dispatches a sequence-numbered control write with strict in-order
    /// acceptance: exactly `last + 1` is applied; duplicates (at or
    /// below the ack point) are suppressed so retransmits converge to
    /// exactly-once semantics; writes past a hole are dropped and cured
    /// by the Adaptor's go-back-N re-send.
    fn sequenced_control_write(&mut self, tenant: usize, offset: u64, body: &[u8], seq: u64) {
        let last = self.tenants[tenant].ctrl_last_seq;
        if seq <= last {
            self.counters.control_dup_suppressed += 1;
            self.telemetry.record(
                Severity::Info,
                "sc.control_dup",
                self.tenant_tag(tenant),
                None,
                format!("offset={offset:#x} seq={seq} last={last}"),
            );
            self.telemetry.counter_add("sc.control_dup_suppressed", 1);
            return;
        }
        if seq != last + 1 {
            self.counters.control_gaps += 1;
            self.telemetry.record(
                Severity::Warn,
                "sc.control_gap",
                self.tenant_tag(tenant),
                None,
                format!("offset={offset:#x} seq={seq} last={last}"),
            );
            self.telemetry.counter_add("sc.control_gaps", 1);
            return;
        }
        if self.control_write(tenant, offset, body, Some(seq)) {
            self.tenants[tenant].ctrl_last_seq = seq;
        }
    }

    /// Applies a control-window write. Returns whether the write was
    /// accepted; a rejected write (bad env-record MAC) must not advance
    /// the control sequence so the re-send of the same record retries it.
    fn control_write(&mut self, tenant: usize, offset: u64, payload: &[u8], seq: Option<u64>) -> bool {
        // Platform-level configuration (packet policy, environment
        // policy) is reserved to the primary tenant; per-tenant registers
        // act on the caller's own context.
        let primary = tenant == 0;
        match offset {
            o if o < regs::POLICY_STAGING_LEN && primary => {
                let end = (o as usize + payload.len()).min(self.policy_staging.len());
                let n = end - o as usize;
                self.policy_staging[o as usize..end].copy_from_slice(&payload[..n]);
            }
            regs::POLICY_LEN if primary => {
                self.policy_len = read_u64(payload);
            }
            regs::POLICY_APPLY if primary => self.apply_policy(),
            regs::ENV_POLICY if primary => return self.register_env_policy(payload, seq),
            regs::TAG_LANDING_ADDR => {
                let ctx = &mut self.tenants[tenant];
                ctx.tag_landing = Some(read_u64(payload));
                ctx.tag_landing_cursor = 0;
            }
            regs::METADATA_BUF_ADDR => {
                self.tenants[tenant].metadata_buf = Some(read_u64(payload));
            }
            regs::STREAM_MAP => self.register_stream_record(tenant, payload),
            regs::TAG_QUEUE => match TagRecord::parse_batch(payload) {
                Some(records) => {
                    self.counters.tags_received += records.len() as u64;
                    self.tenants[tenant].tags.push_batch(records);
                }
                None => self.alerts.push(ScAlert::CryptFailure {
                    stream: 0,
                    seq: 0,
                    reason: "malformed tag batch".to_string(),
                }),
            },
            regs::NOTIFY => {
                // Transfer announcement. A tenant that registered a
                // metadata buffer (§5 metadata batching) gets one batch
                // describing the upcoming chunks pushed into it.
                let ctx = &self.tenants[tenant];
                if let Some(buf) = ctx.metadata_buf {
                    let mut batch = Vec::with_capacity(16);
                    batch.extend_from_slice(&read_u64(payload).to_be_bytes());
                    batch.extend_from_slice(&ctx.tag_landing_cursor.to_be_bytes());
                    let batch = Tlp::memory_write(self.config.sc_bdf, buf, batch);
                    self.pending_host_writes.push(batch);
                    self.counters.metadata_batches += 1;
                }
            }
            regs::REKEY => {
                let stream = StreamId(read_u64(payload) as u32);
                let _ = self.tenants[tenant].params.keys_mut().rotate(stream);
            }
            regs::TASK_END => {
                // The doorbell carries the target epoch so that a
                // double-delivered (retransmitted) task-end is idempotent:
                // only the transition `epoch -> epoch + 1` fires.
                let target = read_u64(payload);
                if target != u64::from(self.tenants[tenant].epoch) + 1 {
                    return true;
                }
                self.tenants[tenant].rekey_epoch();
                self.env_guard.request_reset();
                if self.reset_observed {
                    // The environment-cleaning reset already went through.
                    self.reset_observed = false;
                } else {
                    self.status |= status_bits::ENV_CLEAN_PENDING;
                }
            }
            _ => {}
        }
        true
    }

    fn control_read(&mut self, tenant: usize, offset: u64) -> u64 {
        match offset {
            regs::STATUS => self.status,
            regs::BLOCKED_COUNT => self.counters.packets_blocked,
            regs::METADATA_QUERY => {
                // Non-optimized path: the Adaptor polls this per chunk.
                self.counters.metadata_queries += 1;
                self.tenants[tenant].tag_landing_cursor
            }
            regs::CTRL_SEQ_ACK => self.tenants[tenant].ctrl_last_seq,
            // Read-back targets so the Adaptor can verify that address
            // registers survived the wire with their contents intact.
            regs::TAG_LANDING_ADDR => self.tenants[tenant].tag_landing.unwrap_or(0),
            regs::METADATA_BUF_ADDR => self.tenants[tenant].metadata_buf.unwrap_or(0),
            _ => 0,
        }
    }

    fn apply_policy(&mut self) {
        let len = (self.policy_len as usize).min(self.policy_staging.len());
        let result = PolicyBlob::from_bytes(&self.policy_staging[..len])
            .and_then(|blob| blob.unseal(&self.config_key));
        match result {
            Ok((l1, l2)) => {
                self.filter.replace_tables(l1, l2);
                self.status = (self.status | status_bits::POLICY_OK) & !status_bits::POLICY_ERR;
            }
            Err(_) => {
                self.status = (self.status | status_bits::POLICY_ERR) & !status_bits::POLICY_OK;
            }
        }
    }

    fn register_stream_record(&mut self, tenant: usize, payload: &[u8]) {
        if payload.len() != STREAM_MAP_RECORD_LEN {
            return;
        }
        let stream = StreamId(u32::from_be_bytes(payload[..4].try_into().expect("4B")));
        let direction = match payload[4] {
            0 => StreamDirection::HostToDevice,
            _ => StreamDirection::DeviceToHost,
        };
        let base = u64::from_be_bytes(payload[5..13].try_into().expect("8B"));
        let len = u64::from_be_bytes(payload[13..21].try_into().expect("8B"));
        let base_seq = u64::from_be_bytes(payload[21..29].try_into().expect("8B"));
        self.tenants[tenant]
            .params
            .register_stream(stream, direction, base..base + len, base_seq);
    }

    fn register_env_policy(&mut self, payload: &[u8], seq: Option<u64>) -> bool {
        // Env policy is append-only — a record accepted here can never be
        // rolled back — so only a sequenced record whose MAC (nonced by
        // its envelope sequence, under the env key) verifies is applied.
        // Anything else, a bare record included, is a forgery or a
        // mangled write, and the rejection holds the ack back.
        let authentic = match (payload.len(), seq) {
            (ENV_POLICY_MAC_RECORD_LEN, Some(seq)) => {
                let (body, tag) = payload.split_at(ENV_POLICY_RECORD_LEN);
                let tag: [u8; 16] = tag.try_into().expect("16B tag");
                let nonce = ChunkRef { stream: ENV_STREAM, seq }.nonce();
                self.engine
                    .verify_plain_tag(&self.env_key, &nonce, body, &tag)
                    .then_some(body)
            }
            _ => None,
        };
        let Some(payload) = authentic else {
            self.alerts.push(ScAlert::WriteProtectFailure {
                addr: regs::ENV_POLICY,
                reason: "env-policy record failed authentication".to_string(),
            });
            let detail =
                seq.map_or_else(|| "unsequenced".to_string(), |seq| format!("seq={seq}"));
            self.telemetry.record(Severity::Warn, "sc.env_reject", None, None, detail);
            self.telemetry.counter_add("sc.env_rejects", 1);
            return false;
        };
        let addr = u64::from_be_bytes(payload[1..9].try_into().expect("8B"));
        let value_or_end = u64::from_be_bytes(payload[9..17].try_into().expect("8B"));
        match payload[0] {
            0 => self
                .env_guard
                .push_policy(MmioPolicy::AllowedWindow { range: addr..value_or_end }),
            1 => self
                .env_guard
                .push_policy(MmioPolicy::ExpectedValue { addr, expected: value_or_end }),
            2 => {
                // Reset-register registration: seeing a write here clears
                // the env-clean-pending latch.
                self.expected_reset_addr = Some(addr);
                self.env_guard
                    .push_policy(MmioPolicy::AllowedWindow { range: addr..addr + 8 });
            }
            _ => {}
        }
        true
    }

    // ---- A2: decrypt H2D completions ----

    /// Opens a protected completion's payload in place, in the TLP's own
    /// buffer. `Err` is the outcome to send instead; the tag is checked
    /// before any byte is decrypted, so the payload then still holds the
    /// ciphertext that arrived.
    fn decrypt_completion(
        &mut self,
        tenant: usize,
        tlp: &mut Tlp,
        chunk: ChunkRef,
    ) -> Result<(), InterposeOutcome> {
        let (requester, cpl_tag) = (tlp.header().requester(), tlp.header().tag());
        if !self.tenants[tenant].params.mark_processed(chunk) {
            self.alert_crypt(tenant, chunk, "replayed chunk");
            return Err(InterposeOutcome::drop_packet());
        }
        let Some(tag) = self.tenants[tenant].tags.take(chunk.stream, chunk.seq) else {
            self.tenants[tenant].params.unmark(chunk);
            self.alert_crypt(tenant, chunk, "missing authentication tag");
            return Err(self.abort_completion(requester, cpl_tag));
        };
        let Ok(cipher) = self.tenants[tenant].params.cipher(chunk.stream) else {
            self.tenants[tenant].params.unmark(chunk);
            self.alert_crypt(tenant, chunk, "no key for stream");
            return Err(self.abort_completion(requester, cpl_tag));
        };
        let (payload, nonce, aad) = (tlp.payload_mut(), chunk.nonce(), chunk.aad());
        match self.engine.open_in_place_detached(cipher, &nonce, payload, &tag, &aad) {
            Ok(()) => {
                self.counters.chunks_decrypted += 1;
                self.tenants[tenant].consecutive_crypt_failures = 0;
                let crypt = self.crypt_time(payload.len());
                self.telemetry.advance_span(Hop::ScCrypt, self.tenant_tag(tenant), crypt);
                self.telemetry.counter_add("sc.chunks_decrypted", 1);
                Ok(())
            }
            Err(()) => {
                // The chunk stays consumed: a second delivery is a replay.
                self.alert_crypt(tenant, chunk, "authentication failed");
                Err(self.abort_completion(requester, cpl_tag))
            }
        }
    }

    /// Sim time the crypt engine takes over `bytes` of payload at
    /// [`AES_NI_RATE`]. The f64 pricing runs once per distinct length.
    fn crypt_time(&mut self, bytes: usize) -> SimDuration {
        let rate = Bandwidth::from_bytes_per_sec(AES_NI_RATE);
        *self.crypt_times.entry(bytes as u64).or_insert_with(|| rate.transfer_time(bytes as u64))
    }

    /// Answers a failed protected completion with CompleterAbort toward
    /// the device, so its DMA engine ends the transfer in `Error` at once
    /// instead of stalling `Busy` until the driver's timeout.
    fn abort_completion(&self, requester: Bdf, tag: u8) -> InterposeOutcome {
        InterposeOutcome::pass(Tlp::completion(
            self.config.sc_bdf,
            requester,
            tag,
            CplStatus::CompleterAbort,
        ))
    }

    fn alert_crypt(&mut self, tenant: usize, chunk: ChunkRef, reason: &str) {
        self.counters.packets_blocked += 1;
        self.alerts.push(ScAlert::CryptFailure {
            stream: chunk.stream.0,
            seq: chunk.seq,
            reason: reason.to_string(),
        });
        let tag = self.tenant_tag(tenant);
        self.telemetry.record(
            Severity::Warn,
            "sc.crypt_fail",
            tag,
            Some(u64::from(chunk.stream.0)),
            format!("seq={} reason={reason}", chunk.seq),
        );
        self.telemetry.counter_add("sc.crypt_failures", 1);
        let threshold = self.quarantine_threshold;
        let ctx = &mut self.tenants[tenant];
        ctx.consecutive_crypt_failures += 1;
        if !ctx.quarantined && ctx.consecutive_crypt_failures >= threshold {
            ctx.quarantined = true;
            let xpu = ctx.xpu_bdf.to_string();
            let failures = ctx.consecutive_crypt_failures;
            self.alerts.push(ScAlert::ChannelQuarantined {
                xpu: xpu.clone(),
                failures,
            });
            self.telemetry.record(
                Severity::Error,
                "sc.quarantine",
                tag,
                Some(u64::from(chunk.stream.0)),
                format!("xpu={xpu} failures={failures}"),
            );
            self.telemetry.counter_add("sc.quarantines", 1);
        }
    }

    // ---- A2: encrypt D2H writes ----

    /// Seals a device write's payload in place, in the TLP's own buffer,
    /// and forwards it with its tag record.
    fn encrypt_device_write(
        &mut self,
        tenant: usize,
        mut tlp: Tlp,
        chunk: ChunkRef,
    ) -> InterposeOutcome {
        let Ok(cipher) = self.tenants[tenant].params.cipher(chunk.stream) else {
            self.alert_crypt(tenant, chunk, "no key for stream");
            return InterposeOutcome::drop_packet();
        };
        let (payload, nonce, aad) = (tlp.payload_mut(), chunk.nonce(), chunk.aad());
        let tag = self.engine.seal_in_place_detached(cipher, &nonce, payload, &aad);
        self.counters.chunks_encrypted += 1;
        self.tenants[tenant].consecutive_crypt_failures = 0;
        let crypt = self.crypt_time(payload.len());
        self.telemetry.advance_span(Hop::ScCrypt, self.tenant_tag(tenant), crypt);
        self.telemetry.counter_add("sc.chunks_encrypted", 1);
        let mut outcome = InterposeOutcome::pass(tlp);
        let ctx = &mut self.tenants[tenant];
        if let Some(landing) = ctx.tag_landing {
            let record = TagRecord { stream: chunk.stream, seq: chunk.seq, tag };
            let addr = crate::handler::landing_record_addr(landing, ctx.tag_landing_cursor);
            ctx.tag_landing_cursor += 1;
            outcome.forward.push(Tlp::memory_write(
                self.config.sc_bdf,
                addr,
                record.to_bytes().to_vec(),
            ));
        }
        outcome
    }

    // ---- A3: verify write-protected MMIO ----

    fn verify_protected_write(&mut self, tlp: Tlp, tenant: Option<usize>) -> InterposeOutcome {
        let header = *tlp.header();
        let addr = header.address().expect("memory TLP");

        // MMIO integrity is keyed per tenant: the write's requester names
        // the TVM whose Adaptor mirrored the tag.
        let Some(tenant) = tenant else {
            self.block_a3(addr, "write-protected MMIO from unbound requester");
            return InterposeOutcome::drop_packet();
        };
        // The integrity tag is keyed by the envelope sequence, so a write
        // without one (or whose trailer was mangled in flight) has nothing
        // to verify against; the driver's read-back re-sends it intact.
        let Some((_, seq)) = parse_ctrl_envelope(tlp.payload()) else {
            self.block_a3(addr, "unsequenced MMIO write");
            return InterposeOutcome::drop_packet();
        };
        // Acceptance is monotone: a duplicate delivery of an
        // already-verified write is suppressed without consuming tag state
        // or raising an alert, so driver retransmits converge to
        // exactly-once semantics. A write at-or-below the mark is a stale
        // duplicate *unless* a fresh mirror tag sits at this exact
        // sequence: the Adaptor only mirrors writes the TVM actually
        // issued, so a fresh tag at an old seq means a re-bound driver
        // restarting its counter, not a replay. Re-verifying and
        // re-applying is safe — registers are idempotent and triggers use
        // the pre-clear protocol.
        let ctx = &self.tenants[tenant];
        if seq <= ctx.mmio_last_seq && !ctx.tags.contains(MMIO_STREAM, seq) {
            self.counters.control_dup_suppressed += 1;
            self.telemetry.record(
                Severity::Info,
                "sc.control_dup",
                self.tenant_tag(tenant),
                None,
                format!("mmio addr={addr:#x} seq={seq}"),
            );
            self.telemetry.counter_add("sc.control_dup_suppressed", 1);
            return InterposeOutcome::drop_packet();
        }
        let nonce = ChunkRef { stream: MMIO_STREAM, seq }.nonce();
        let Some(tag) = self.tenants[tenant].tags.take(MMIO_STREAM, seq) else {
            self.block_a3(addr, "missing MMIO integrity tag");
            return InterposeOutcome::drop_packet();
        };
        let Ok(cipher) = self.tenants[tenant].params.cipher(MMIO_STREAM) else {
            self.block_a3(addr, "no MMIO stream key");
            return InterposeOutcome::drop_packet();
        };
        if !with_mmio_signed(addr, tlp.payload(), |signed| {
            self.engine.verify_plain_tag(cipher, &nonce, signed, &tag)
        }) {
            self.block_a3(addr, "MMIO integrity tag mismatch");
            return InterposeOutcome::drop_packet();
        }
        // `max`: a re-bound driver's restarted counter must not drag the
        // acceptance mark down and re-open the window for stale
        // duplicates of earlier sequences.
        let ctx = &mut self.tenants[tenant];
        ctx.mmio_last_seq = ctx.mmio_last_seq.max(seq);

        let value = read_u64(tlp.payload());
        if let Err(violation) = self.env_guard.verify_write(addr, value) {
            self.block_a3(addr, &violation.reason);
            return InterposeOutcome::drop_packet();
        }

        if Some(addr) == self.expected_reset_addr {
            // Environment reset observed: clear the pending latch.
            self.reset_observed = true;
            self.status &= !status_bits::ENV_CLEAN_PENDING;
        }
        InterposeOutcome::pass(tlp)
    }

    fn block_a3(&mut self, addr: u64, reason: &str) {
        self.counters.packets_blocked += 1;
        self.alerts.push(ScAlert::WriteProtectFailure {
            addr,
            reason: reason.to_string(),
        });
    }

    /// Counts an A1 deny issued because the tenant's channel is
    /// quarantined (keyed per tenant so starvation is attributable).
    fn note_quarantine_deny(&self, tenant: usize) {
        let tag = self.tenant_tag(tenant).unwrap_or(0);
        self.telemetry.counter_add_named(&format!("sc.quarantine_deny.{tag}"), 1);
    }

    fn block_a1(&mut self, tlp: &Tlp) -> InterposeOutcome {
        self.counters.packets_blocked += 1;
        self.alerts.push(ScAlert::PacketBlocked { summary: tlp.to_string() });
        self.refuse(tlp)
    }

    /// Answers a refused read with Unsupported Request; drops a refused
    /// write.
    fn refuse(&self, tlp: &Tlp) -> InterposeOutcome {
        let header = tlp.header();
        if !header.tlp_type().is_read() {
            return InterposeOutcome::drop_packet();
        }
        let (requester, tag) = (header.requester(), header.tag());
        let ur = Tlp::completion(self.config.sc_bdf, requester, tag, CplStatus::UnsupportedRequest);
        InterposeOutcome::answer(ur)
    }

    /// Serializes the SC's mutable security state. Deliberately excluded:
    /// the config (fixed at construction and reproduced by the rebuild),
    /// the config/env keys and every tenant master (key material re-derives
    /// from the masters the restoring SC was constructed with), and the
    /// telemetry hub (the restoring SC was constructed with its own).
    pub fn encode_snapshot(&self, enc: &mut Encoder) {
        enc.put(&self.filter);
        // Tenants decode against the masters they are bound with here.
        enc.u64(self.tenants.len() as u64);
        for tenant in &self.tenants {
            tenant.encode_snapshot(enc);
        }
        enc.put(&self.engine);
        enc.put(&self.env_guard);
        enc.put(&self.status);
        enc.bytes(&self.policy_staging);
        enc.put(&self.policy_len);
        enc.put(&self.outstanding_reads);
        enc.put(&self.counters);
        enc.put(&self.reset_observed);
        enc.put(&self.alerts);
        enc.put(&self.pending_host_writes);
        enc.put(&self.expected_reset_addr);
        enc.put(&self.quarantine_threshold);
        enc.put(&self.serving);
    }

    /// The power-cycle-persistent slice of this SC's security state.
    pub fn persistent_state(&self) -> PersistentState {
        PersistentState {
            tenants: self
                .tenants
                .iter()
                .map(|t| PersistentTenant {
                    tvm_bdf: t.tvm_bdf,
                    xpu_bdf: t.xpu_bdf,
                    epoch: t.epoch,
                    mmio_last_seq: t.mmio_last_seq,
                    ctrl_last_seq: t.ctrl_last_seq,
                    consecutive_crypt_failures: t.consecutive_crypt_failures,
                    quarantined: t.quarantined,
                })
                .collect(),
            quarantine_threshold: self.quarantine_threshold,
        }
    }

    /// Lays persistent state onto this SC, whose tenants must be bound
    /// with the same identifiers (and masters) as the state's. Key
    /// schedules are rebuilt at the persisted epoch (keys re-derive from
    /// the master; nothing keyed is ever persisted), and the sequence
    /// floors keep earlier control/MMIO envelopes un-replayable.
    ///
    /// # Errors
    ///
    /// `Invalid("tenant set mismatch")` if the state's tenants are not
    /// exactly this SC's; nothing is changed then.
    pub fn restore_persistent(&mut self, state: PersistentState) -> Result<(), SnapshotError> {
        let matched = self.match_tenants(state.tenants.into_iter(), |t| (t.tvm_bdf, t.xpu_bdf))?;
        for (tenant, persisted) in self.tenants.iter_mut().zip(matched) {
            tenant.epoch = persisted.epoch;
            tenant.params = epoch_params(&tenant.master, persisted.epoch);
            tenant.mmio_last_seq = persisted.mmio_last_seq;
            tenant.ctrl_last_seq = persisted.ctrl_last_seq;
            tenant.consecutive_crypt_failures = persisted.consecutive_crypt_failures;
            tenant.quarantined = persisted.quarantined;
        }
        self.quarantine_threshold = state.quarantine_threshold;
        Ok(())
    }

    /// Puts restored per-tenant values, given in any order, into bind
    /// order, refusing anything but exactly one value per bound tenant.
    fn match_tenants<T>(
        &self,
        restored: impl ExactSizeIterator<Item = T>,
        ids: impl Fn(&T) -> (Bdf, Bdf),
    ) -> Result<Vec<T>, SnapshotError> {
        let mismatch = SnapshotError::Invalid("tenant set mismatch");
        if restored.len() != self.tenants.len() {
            return Err(mismatch);
        }
        let mut slots: Vec<Option<T>> = self.tenants.iter().map(|_| None).collect();
        for value in restored {
            let (tvm_bdf, xpu_bdf) = ids(&value);
            let slot = self
                .tenants
                .iter()
                .zip(&slots)
                .position(|(t, s)| s.is_none() && t.tvm_bdf == tvm_bdf && t.xpu_bdf == xpu_bdf)
                .ok_or(mismatch.clone())?;
            slots[slot] = Some(value);
        }
        Ok(slots.into_iter().flatten().collect())
    }

    /// `(tvm, xpu, master)` for every bound tenant, in bind order — the
    /// rebuild recipe a replacement controller uses to re-bind them.
    pub(crate) fn tenant_bindings(&self) -> Vec<(Bdf, Bdf, [u8; 32])> {
        self.tenants.iter().map(|t| (t.tvm_bdf, t.xpu_bdf, t.master)).collect()
    }

    /// Restores a freshly built SC to a snapshotted state.
    ///
    /// The receiver must have been constructed — and its tenants bound —
    /// with the same configuration and master secrets as the snapshotted
    /// SC: snapshots never carry key material, so every key is re-derived
    /// locally. Tenants are matched by their `(TVM, xPU)` PCIe
    /// identifiers.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] for truncated/corrupt input, or
    /// `Invalid("tenant set mismatch")` when the snapshot's tenant
    /// identifiers differ from this SC's; the SC is left untouched on
    /// failure.
    pub fn restore_snapshot(&mut self, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
        let mismatch = SnapshotError::Invalid("tenant set mismatch");
        let filter = dec.get()?;
        if dec.seq_len()? != self.tenants.len() {
            return Err(mismatch);
        }
        let mut tenants = Vec::with_capacity(self.tenants.len());
        for _ in 0..self.tenants.len() {
            let ids = dec.get()?;
            let bound = self.tenants.iter().find(|t| (t.tvm_bdf, t.xpu_bdf) == ids);
            let master = bound.ok_or(mismatch.clone())?.master;
            tenants.push(TenantCtx::from_snapshot(ids, master, dec)?);
        }
        let tenants = self.match_tenants(tenants.into_iter(), |t| (t.tvm_bdf, t.xpu_bdf))?;
        let engine = dec.get()?;
        let env_guard = dec.get()?;
        let status = dec.get()?;
        let policy_staging = dec.bytes()?;
        if policy_staging.len() != regs::POLICY_STAGING_LEN as usize {
            return Err(SnapshotError::Invalid("policy staging length"));
        }
        let policy_len = dec.get()?;
        if policy_len > regs::POLICY_STAGING_LEN {
            return Err(SnapshotError::Invalid("staged policy length out of range"));
        }
        let outstanding_reads = dec.get()?;
        let counters = dec.get()?;
        let reset_observed = dec.get()?;
        let alerts = dec.get()?;
        let pending_host_writes = dec.get()?;
        let expected_reset_addr = dec.get()?;
        let quarantine_threshold = dec.get()?;
        if quarantine_threshold == 0 {
            return Err(SnapshotError::Invalid("quarantine threshold is zero"));
        }
        let serving = dec.get()?;
        self.filter = filter;
        self.tenants = tenants;
        self.engine = engine;
        self.env_guard = env_guard;
        self.status = status;
        self.policy_staging = policy_staging;
        self.policy_len = policy_len;
        self.outstanding_reads = outstanding_reads;
        self.counters = counters;
        self.reset_observed = reset_observed;
        self.alerts = alerts;
        self.pending_host_writes = pending_host_writes;
        self.expected_reset_addr = expected_reset_addr;
        self.quarantine_threshold = quarantine_threshold;
        self.serving = serving;
        Ok(())
    }
}

/// Derives the per-task-epoch master secret.
pub fn epoch_master(master: &[u8; 32], epoch: u32) -> [u8; 32] {
    let okm = hkdf(b"ccai-task-epoch", master, &epoch.to_be_bytes(), 32);
    let mut out = [0u8; 32];
    out.copy_from_slice(&okm);
    out
}

fn read_u64(payload: &[u8]) -> u64 {
    let mut bytes = [0u8; 8];
    let n = payload.len().min(8);
    bytes[..n].copy_from_slice(&payload[..n]);
    u64::from_le_bytes(bytes)
}

impl Interposer for PcieSc {
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_downstream(&mut self, mut tlp: Tlp) -> InterposeOutcome {
        self.counters.packets_seen += 1;
        let header = *tlp.header();
        let found = self.requester(header.requester());

        // The SC's own control window stays reachable even under
        // quarantine (the Adaptor needs it to end the task and re-attest).
        if let Some(addr) = header.address() {
            if self.in_control_window(addr) {
                return self.handle_control(tlp, found.tvm);
            }
        }

        // Before bring-up reaches Serving only the control window above
        // is reachable (policy install and re-attestation need it); all
        // data traffic is hard-denied.
        if !self.serving {
            self.telemetry.counter_add("sc.bringup_deny", 1);
            return self.block_a1(&tlp);
        }

        // Quarantined channels are demoted to A1-deny for all data
        // traffic.
        if let Some(tenant) = found.tvm.or(found.xpu).filter(|&t| self.tenants[t].quarantined) {
            self.note_quarantine_deny(tenant);
            return self.block_a1(&tlp);
        }

        // Completions returning for device-issued DMA reads: match the
        // outstanding request to learn the host address (completions do
        // not carry one), then decrypt if it was a protected stream.
        if header.tlp_type() == TlpType::CompletionData {
            let ticket = (header.requester().to_u16(), header.tag());
            if let Some((addr, _len)) = self.outstanding_reads.remove(&ticket) {
                if let Some(tenant) = found.xpu {
                    if let Some(chunk) = self.tenants[tenant]
                        .params
                        .resolve(addr, StreamDirection::HostToDevice)
                    {
                        return match self.decrypt_completion(tenant, &mut tlp, chunk) {
                            Ok(()) => InterposeOutcome::pass(tlp),
                            Err(refusal) => refusal,
                        };
                    }
                }
                return InterposeOutcome::pass(tlp); // plain DMA
            }
        }
        if header.tlp_type() == TlpType::Completion {
            return InterposeOutcome::pass(tlp);
        }

        let action = self.filter.classify(&header);
        self.note_filter_decision(action, self.requester_tag(found));
        match action {
            SecurityAction::Disallow => self.block_a1(&tlp),
            SecurityAction::CryptProtect => {
                // Downstream A2 (aperture writes into sensitive device
                // regions) is not part of the confidential flow; treat as
                // a policy violation.
                self.block_a1(&tlp)
            }
            SecurityAction::WriteProtect => self.verify_protected_write(tlp, found.tvm),
            SecurityAction::PassThrough => InterposeOutcome::pass(tlp),
        }
    }

    fn on_upstream(&mut self, tlp: Tlp) -> InterposeOutcome {
        self.counters.packets_seen += 1;
        let header = *tlp.header();
        let found = self.requester(header.requester());

        // A device that has not completed bring-up may not reach the
        // host at all.
        if !self.serving {
            self.telemetry.counter_add("sc.bringup_deny", 1);
            return self.block_a1(&tlp);
        }

        // A quarantined device may not reach the host at all.
        if let Some(tenant) = found.xpu.or(found.tvm).filter(|&t| self.tenants[t].quarantined) {
            self.note_quarantine_deny(tenant);
            return self.block_a1(&tlp);
        }

        // Track device-issued reads so their completions can be matched.
        if header.tlp_type() == TlpType::MemRead && found.xpu.is_some() {
            if let Some(addr) = header.address() {
                self.outstanding_reads.insert(
                    (header.requester().to_u16(), header.tag()),
                    (addr, header.payload_len()),
                );
            }
        }

        let action = self.filter.classify(&header);
        self.note_filter_decision(action, self.requester_tag(found));
        let mut outcome = match action {
            SecurityAction::Disallow => self.block_a1(&tlp),
            SecurityAction::CryptProtect => {
                if header.tlp_type() == TlpType::MemWrite {
                    let addr = header.address().expect("memory TLP");
                    let resolved = found.xpu.and_then(|tenant| {
                        self.tenants[tenant]
                            .params
                            .resolve(addr, StreamDirection::DeviceToHost)
                            .map(|chunk| (tenant, chunk))
                    });
                    match resolved {
                        Some((tenant, chunk)) => self.encrypt_device_write(tenant, tlp, chunk),
                        None => self.block_a1(&tlp),
                    }
                } else {
                    InterposeOutcome::pass(tlp)
                }
            }
            SecurityAction::WriteProtect => self.verify_protected_write(tlp, found.tvm),
            SecurityAction::PassThrough => InterposeOutcome::pass(tlp),
        };
        // Piggy-back any SC-originated host writes (metadata batches).
        outcome.forward.append(&mut self.pending_host_writes);
        outcome
    }

    fn on_upstream_batch(&mut self, tlps: Vec<Tlp>) -> InterposeOutcome {
        // §5 metadata batching on the enforcement hop: the fabric hands
        // the SC one burst per pump round, so batch-level bookkeeping is
        // paid once instead of per packet. Everything below is
        // counters/histograms only — never `record()` events or clock
        // advances — so the trace digest is bit-identical to the
        // packet-at-a-time path.
        self.telemetry.counter_add("sc.filter_batches", 1);
        self.telemetry.histogram_record("sc.batch_size", tlps.len() as f64);
        let mut out = InterposeOutcome::default();
        for tlp in tlps {
            out.absorb(self.on_upstream(tlp));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{L1Rule, L2Rule};

    fn tvm() -> Bdf {
        Bdf::new(0, 2, 0)
    }

    fn xpu() -> Bdf {
        Bdf::new(0x17, 0, 0)
    }

    fn sc_config() -> ScConfig {
        ScConfig {
            sc_bdf: Bdf::new(0x16, 0, 0),
            region_base: 0x7F00_0000,
            tvm_bdf: tvm(),
            xpu_bdf: xpu(),
        }
    }

    /// Queues the tag the primary tenant's Adaptor would mirror for a
    /// register write of `payload` to `addr` at MMIO sequence `seq`.
    fn mirror_tag(sc: &mut PcieSc, addr: u64, payload: &[u8], seq: u64) {
        let mut signed = addr.to_be_bytes().to_vec();
        signed.extend_from_slice(payload);
        let nonce = ChunkRef { stream: MMIO_STREAM, seq }.nonce();
        let cipher = sc.tenants[0].params.cipher(MMIO_STREAM).unwrap();
        let tag = CryptoEngine::new().plain_tag(cipher, &nonce, &signed);
        sc.tenants[0].tags.push(TagRecord { stream: MMIO_STREAM, seq, tag });
    }

    /// A sequenced register write of `value` to `addr` with its mirror tag
    /// queued, as the driver and Adaptor send it.
    fn sequenced_write(sc: &mut PcieSc, addr: u64, value: u64, seq: u64) -> Tlp {
        let payload = ccai_pcie::seal_ctrl_envelope(&value.to_le_bytes(), seq);
        mirror_tag(sc, addr, &payload, seq);
        Tlp::memory_write(tvm(), addr, payload)
    }

    fn sc_with_policy() -> PcieSc {
        let mut sc = PcieSc::new(sc_config(), [0x42; 32], Telemetry::default());
        // Install a policy directly (the control-window path is covered
        // by the adaptor integration tests).
        let l1 = vec![
            L1Rule::admit(TlpType::MemWrite, tvm()),
            L1Rule::admit(TlpType::MemRead, tvm()),
            L1Rule::admit(TlpType::MemRead, xpu()),
            L1Rule::admit(TlpType::MemWrite, xpu()),
            L1Rule::admit(TlpType::Message, xpu()),
        ];
        let l2 = vec![
            L2Rule::for_range(
                TlpType::MemWrite,
                tvm(),
                0x8000_0000..0x8010_0000,
                SecurityAction::WriteProtect,
            ),
            L2Rule::for_range(
                TlpType::MemRead,
                tvm(),
                0x8000_0000..0x9000_0000,
                SecurityAction::PassThrough,
            ),
            L2Rule::for_type(TlpType::MemRead, xpu(), SecurityAction::PassThrough),
            L2Rule::for_range(
                TlpType::MemWrite,
                xpu(),
                0x2_0000..0x4_0000,
                SecurityAction::CryptProtect,
            ),
            L2Rule::for_type(TlpType::Message, xpu(), SecurityAction::PassThrough),
        ];
        sc.filter.replace_tables(l1, l2);
        sc.env_guard
            .push_policy(MmioPolicy::AllowedWindow { range: 0x8000_0000..0x8010_0000 });
        sc
    }

    #[test]
    fn rogue_requester_blocked() {
        let mut sc = sc_with_policy();
        let rogue = Tlp::memory_write(Bdf::new(9, 9, 0), 0x8000_0000, vec![1]);
        let outcome = sc.on_downstream(rogue);
        assert!(outcome.forward.is_empty());
        assert_eq!(sc.counters().packets_blocked, 1);
        assert!(matches!(sc.alerts()[0], ScAlert::PacketBlocked { .. }));
    }

    #[test]
    fn rogue_read_gets_ur_completion() {
        let mut sc = sc_with_policy();
        let rogue = Tlp::memory_read(Bdf::new(9, 9, 0), 0x8000_0000, 8, 3);
        let outcome = sc.on_downstream(rogue);
        assert_eq!(outcome.reply.len(), 1);
        assert_eq!(
            outcome.reply[0].header().cpl_status(),
            Some(CplStatus::UnsupportedRequest)
        );
    }

    #[test]
    fn authorized_mmio_passes_a3() {
        let mut sc = sc_with_policy();
        let write = sequenced_write(&mut sc, 0x8000_0040, 1, 1);
        let outcome = sc.on_downstream(write);
        assert_eq!(outcome.forward.len(), 1);
        assert_eq!(sc.filter_stats().write_protected, 1);
        assert!(sc.alerts().is_empty(), "{:?}", sc.alerts());
    }

    /// A3 verifies only sequenced writes: a raw register write is refused
    /// even when a valid mirror tag waits at sequence 0.
    #[test]
    fn unsequenced_mmio_write_is_refused() {
        let mut sc = sc_with_policy();
        let payload = 1u64.to_le_bytes();
        mirror_tag(&mut sc, 0x8000_0040, &payload, 0);
        let outcome = sc.on_downstream(Tlp::memory_write(tvm(), 0x8000_0040, payload.to_vec()));
        assert!(outcome.forward.is_empty());
        assert!(outcome.reply.is_empty());
        assert_eq!(
            sc.alerts(),
            [ScAlert::WriteProtectFailure {
                addr: 0x8000_0040,
                reason: "unsequenced MMIO write".to_string(),
            }]
        );
    }

    #[test]
    fn control_window_from_rogue_denied() {
        let mut sc = sc_with_policy();
        let write = Tlp::memory_write(
            Bdf::new(9, 9, 0),
            0x7F00_0000 + regs::TAG_LANDING_ADDR,
            vec![0; 8],
        );
        let outcome = sc.on_downstream(write);
        assert!(outcome.forward.is_empty());
        assert!(matches!(sc.alerts()[0], ScAlert::ControlAccessDenied { .. }));
        assert!(sc.tenants[0].tag_landing.is_none());
    }

    #[test]
    fn control_window_registers_and_reads() {
        let mut sc = sc_with_policy();
        let base = 0x7F00_0000u64;
        // Register tag landing.
        sc.on_downstream(Tlp::memory_write(
            tvm(),
            base + regs::TAG_LANDING_ADDR,
            0x12_3456u64.to_le_bytes().to_vec(),
        ));
        assert_eq!(sc.tenants[0].tag_landing, Some(0x12_3456));
        // Read the status register.
        let outcome = sc.on_downstream(Tlp::memory_read(tvm(), base + regs::STATUS, 8, 1));
        assert_eq!(outcome.reply.len(), 1);
    }

    #[test]
    fn policy_blob_installation_via_control_window() {
        let config = sc_config();
        let base = config.region_base;
        let mut sc = PcieSc::new(config, [0x42; 32], Telemetry::default());
        // Build a blob under the same master-derived config key.
        let config_key =
            Key::from_bytes(&hkdf(b"ccai-config-key", &[0x42; 32], b"policy", 16)).unwrap();
        let l1 = vec![L1Rule::admit(TlpType::Message, xpu())];
        let l2 = vec![L2Rule::for_type(TlpType::Message, xpu(), SecurityAction::PassThrough)];
        let blob = PolicyBlob::seal(&l1, &l2, &config_key, [5; 12]).to_bytes();

        for (i, chunk) in blob.chunks(1024).enumerate() {
            sc.on_downstream(Tlp::memory_write(
                tvm(),
                base + (i * 1024) as u64,
                chunk.to_vec(),
            ));
        }
        sc.on_downstream(Tlp::memory_write(
            tvm(),
            base + regs::POLICY_LEN,
            (blob.len() as u64).to_le_bytes().to_vec(),
        ));
        sc.on_downstream(Tlp::memory_write(
            tvm(),
            base + regs::POLICY_APPLY,
            vec![1, 0, 0, 0, 0, 0, 0, 0],
        ));
        assert_eq!(sc.status & status_bits::POLICY_OK, status_bits::POLICY_OK);
        // The new policy admits xPU messages.
        let outcome = sc.on_upstream(Tlp::message(xpu(), 0x20));
        assert_eq!(outcome.forward.len(), 1);
    }

    #[test]
    fn corrupted_policy_blob_flagged() {
        let config = sc_config();
        let base = config.region_base;
        let mut sc = PcieSc::new(config, [0x42; 32], Telemetry::default());
        sc.on_downstream(Tlp::memory_write(tvm(), base, vec![0xFF; 64]));
        sc.on_downstream(Tlp::memory_write(
            tvm(),
            base + regs::POLICY_LEN,
            64u64.to_le_bytes().to_vec(),
        ));
        sc.on_downstream(Tlp::memory_write(tvm(), base + regs::POLICY_APPLY, vec![1]));
        assert_eq!(sc.status & status_bits::POLICY_ERR, status_bits::POLICY_ERR);
    }

    #[test]
    fn h2d_completion_decryption_round_trip() {
        let mut sc = sc_with_policy();
        // Register an H2D stream covering host range 0x1_0000..0x2_0000.
        sc.tenants[0].params.register_stream(
            StreamId(1),
            StreamDirection::HostToDevice,
            0x1_0000..0x2_0000,
            0,
        );
        // Adaptor-side encryption of one chunk.
        let cipher = sc.tenants[0].params.cipher(StreamId(1)).unwrap();
        let chunk = ChunkRef { stream: StreamId(1), seq: 0 };
        let plaintext = vec![0x5A; 4096];
        let (ct, tag) = cipher.seal_detached(&chunk.nonce(), &plaintext, &chunk.aad());
        sc.tenants[0].tags.push(TagRecord { stream: StreamId(1), seq: 0, tag });

        // Device issues the read...
        let read = Tlp::memory_read(xpu(), 0x1_0000, 4096, 9);
        let outcome = sc.on_upstream(read);
        assert_eq!(outcome.forward.len(), 1, "read request forwarded");

        // ...and the RC answers with ciphertext.
        let cpl = Tlp::completion_with_data(Bdf::new(0, 0, 0), xpu(), 9, ct);
        let outcome = sc.on_downstream(cpl);
        assert_eq!(outcome.forward.len(), 1);
        assert_eq!(outcome.forward[0].payload(), plaintext, "device sees plaintext");
        assert_eq!(sc.counters().chunks_decrypted, 1);
    }

    /// Opening happens in the completion's own buffer, tag first: a
    /// tampered chunk is refused with its payload still the ciphertext
    /// that arrived, and the chunk stays consumed, so even its intact
    /// ciphertext is then refused as a replay.
    #[test]
    fn tampered_completion_is_refused_and_consumes_its_chunk() {
        let mut sc = sc_with_policy();
        sc.tenants[0].params.register_stream(
            StreamId(1),
            StreamDirection::HostToDevice,
            0x1_0000..0x2_0000,
            0,
        );
        let cipher = sc.tenants[0].params.cipher(StreamId(1)).unwrap();
        let chunk = ChunkRef { stream: StreamId(1), seq: 0 };
        let plaintext = vec![0x3C; 4096];
        let (ct, tag) = cipher.seal_detached(&chunk.nonce(), &plaintext, &chunk.aad());
        sc.tenants[0].tags.push(TagRecord { stream: StreamId(1), seq: 0, tag });

        let mut tampered = ct.clone();
        tampered[1000] ^= 0x01;
        let mut cpl = Tlp::completion_with_data(Bdf::new(0, 0, 0), xpu(), 9, tampered.clone());
        let Err(refusal) = sc.decrypt_completion(0, &mut cpl, chunk) else {
            panic!("a tampered completion must be refused");
        };
        assert_eq!(refusal.forward.len(), 1);
        assert_eq!(refusal.forward[0].header().cpl_status(), Some(CplStatus::CompleterAbort));
        assert_eq!(cpl.payload(), tampered, "payload still holds the ciphertext that arrived");
        assert_eq!(sc.engine_stats().auth_failures, 1);
        assert_eq!(sc.counters().chunks_decrypted, 0);
        assert!(matches!(
            sc.alerts().last().unwrap(),
            ScAlert::CryptFailure { reason, .. } if reason.contains("authentication")
        ));

        // A second delivery of the same chunk, intact this time, is a replay.
        let mut cpl = Tlp::completion_with_data(Bdf::new(0, 0, 0), xpu(), 10, ct.clone());
        assert!(sc.decrypt_completion(0, &mut cpl, chunk).is_err());
        assert_eq!(cpl.payload(), ct, "no plaintext after a refused replay");
        assert_eq!(sc.counters().chunks_decrypted, 0);
        assert!(matches!(
            sc.alerts().last().unwrap(),
            ScAlert::CryptFailure { reason, .. } if reason == "replayed chunk"
        ));
    }

    #[test]
    fn h2d_missing_tag_blocks() {
        let mut sc = sc_with_policy();
        sc.tenants[0].params.register_stream(
            StreamId(1),
            StreamDirection::HostToDevice,
            0x1_0000..0x2_0000,
            0,
        );
        let read = Tlp::memory_read(xpu(), 0x1_0000, 64, 1);
        sc.on_upstream(read);
        let cpl = Tlp::completion_with_data(Bdf::new(0, 0, 0), xpu(), 1, vec![0; 64]);
        let outcome = sc.on_downstream(cpl);
        // The plaintext never reaches the device; it sees a CompleterAbort
        // so its DMA engine fails the transfer instead of stalling.
        assert_eq!(outcome.forward.len(), 1);
        assert_eq!(outcome.forward[0].header().cpl_status(), Some(CplStatus::CompleterAbort));
        assert!(outcome.forward[0].payload().is_empty());
        assert!(matches!(
            sc.alerts().last().unwrap(),
            ScAlert::CryptFailure { reason, .. } if reason.contains("missing")
        ));
    }

    #[test]
    fn d2h_write_encrypted_with_tag_record() {
        let mut sc = sc_with_policy();
        sc.tenants[0].params.register_stream(
            StreamId(2),
            StreamDirection::DeviceToHost,
            0x2_0000..0x4_0000,
            0,
        );
        sc.tenants[0].tag_landing = Some(0x9_0000);
        let secret = vec![0xA1; 256];
        let write = Tlp::memory_write(xpu(), 0x2_0000, secret.clone());
        let outcome = sc.on_upstream(write);
        assert_eq!(outcome.forward.len(), 2, "ciphertext + tag record");
        assert_ne!(outcome.forward[0].payload(), secret, "payload encrypted");
        assert_eq!(outcome.forward[0].payload().len(), secret.len());
        assert_eq!(outcome.forward[1].header().address(), Some(0x9_0000));
        assert_eq!(outcome.forward[1].payload().len(), crate::handler::TAG_RECORD_LEN);
        assert_eq!(sc.counters().chunks_encrypted, 1);
    }

    #[test]
    fn replayed_completion_blocked() {
        let mut sc = sc_with_policy();
        sc.tenants[0].params.register_stream(
            StreamId(1),
            StreamDirection::HostToDevice,
            0x1_0000..0x2_0000,
            0,
        );
        let cipher = sc.tenants[0].params.cipher(StreamId(1)).unwrap();
        let chunk = ChunkRef { stream: StreamId(1), seq: 0 };
        let (ct, tag) = cipher.seal_detached(&chunk.nonce(), &[1; 64], &chunk.aad());
        sc.tenants[0].tags.push(TagRecord { stream: StreamId(1), seq: 0, tag });
        sc.tenants[0].tags.push(TagRecord { stream: StreamId(1), seq: 0, tag });

        for round in 0..2 {
            let read = Tlp::memory_read(xpu(), 0x1_0000, 64, round);
            sc.on_upstream(read);
            let cpl =
                Tlp::completion_with_data(Bdf::new(0, 0, 0), xpu(), round, ct.clone());
            let outcome = sc.on_downstream(cpl);
            if round == 0 {
                assert_eq!(outcome.forward.len(), 1);
            } else {
                assert!(outcome.forward.is_empty(), "replay must be blocked");
            }
        }
        assert_eq!(sc.replays_blocked(), 1);
    }

    #[test]
    fn env_guard_blocks_bad_register_value() {
        let mut sc = sc_with_policy();
        sc.env_guard.push_policy(MmioPolicy::ExpectedValue {
            addr: 0x8000_0100,
            expected: 0xAB,
        });
        let good = sequenced_write(&mut sc, 0x8000_0100, 0xAB, 1);
        assert_eq!(sc.on_downstream(good).forward.len(), 1);
        let bad = sequenced_write(&mut sc, 0x8000_0100, 0xCD, 2);
        assert!(sc.on_downstream(bad).forward.is_empty());
        assert!(matches!(
            sc.alerts(),
            [ScAlert::WriteProtectFailure { reason, .. }] if reason.starts_with("guarded register")
        ));
    }

    #[test]
    fn task_end_destroys_keys_and_latches_cleanup() {
        let mut sc = sc_with_policy();
        let base = 0x7F00_0000u64;
        sc.tenants[0].params.register_stream(
            StreamId(1),
            StreamDirection::HostToDevice,
            0x1_0000..0x2_0000,
            0,
        );
        sc.on_downstream(Tlp::memory_write(tvm(), base + regs::TASK_END, vec![1]));
        assert!(sc.tenants[0].params.cipher(StreamId(1)).is_err(), "keys destroyed");
        assert_ne!(sc.status & status_bits::ENV_CLEAN_PENDING, 0);
    }

    #[test]
    fn recycled_staging_window_keeps_tenant_keys_bounded() {
        let mut sc = sc_with_policy();
        // What the Adaptor sends per request: a fresh stream id over the
        // same (recycled) staging window.
        for id in 0x100u32..0x140 {
            let mut record = Vec::with_capacity(STREAM_MAP_RECORD_LEN);
            record.extend_from_slice(&id.to_be_bytes());
            record.push(0);
            record.extend_from_slice(&0x1_0000u64.to_be_bytes());
            record.extend_from_slice(&0x1000u64.to_be_bytes());
            record.extend_from_slice(&0u64.to_be_bytes());
            sc.on_downstream(Tlp::memory_write(tvm(), 0x7F00_0000 + regs::STREAM_MAP, record));
            assert!(sc.tenants[0].params.cipher(StreamId(id)).is_ok());
        }
        // MMIO_STREAM plus the newest registration.
        assert!(sc.tenants[0].params.keys_mut().live_streams() <= 2);
    }
}
