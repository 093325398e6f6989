//! Seeded, deterministic fault injection for the simulated PCIe fabric.
//!
//! A [`FaultPlan`] describes per-packet probabilities (in units of
//! 1/1024) for each fault class; a [`FaultInjector`] built from the plan
//! consumes packets in deterministic fabric order and applies faults
//! driven by `ccai_sim`'s [`SimRng`] and [`Clock`]. Every decision —
//! which packets are hit, which byte is corrupted, when a completion is
//! held back — comes from the seeded stream, so the same seed replays
//! the identical fault trace bit for bit.
//!
//! Faults always apply to the *upstream host-side link segment*:
//! device-initiated DMA traffic after the PCIe-SC has processed it, and
//! the read completions travelling back toward the device. With the
//! [`FaultPlan::fault_control_path`] knob armed they additionally hit
//! *host-initiated control traffic* — MMIO register programming, config
//! cycles, SC control-window reads/writes and their completions — via
//! [`FaultInjector::fault_control_request`] /
//! [`FaultInjector::fault_control_reply`]. Surviving that requires the
//! control-plane retry protocol (sequence-numbered idempotent writes
//! with read-back verification in the driver and the Adaptor); with the
//! knob off, control traffic passes untouched and consumes *nothing*
//! from the random stream, so pre-existing golden traces are unchanged.
//!
//! Fault taxonomy:
//!
//! * **Corrupt** — one payload byte XORed with a nonzero mask. Only
//!   data-bearing TLPs (posted writes, read completions) are eligible.
//! * **Drop** — the packet vanishes.
//! * **Duplicate** — a posted memory write is delivered twice. Only
//!   posted writes are eligible (PCIe forbids duplicating non-posted
//!   requests, and duplicated completions would alias read tags).
//! * **Reorder** — two packets of one batch swap places.
//! * **LinkFlap** — the link goes down for `flap_len` consecutive
//!   eligible packets, all of which are dropped.
//! * **DelayCompletion** — a read completion is held back one fabric
//!   pump cycle before delivery.

use crate::link::{LinkConfig, LinkSpeed};
use crate::tlp::{Tlp, TlpType};
use ccai_sim::{Clock, Severity, SimRng, SimTime, Telemetry};
use serde::{Deserialize, Serialize};

/// One fault class, as recorded in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A payload byte was flipped.
    Corrupt,
    /// The packet was discarded.
    Drop,
    /// A posted write was delivered twice.
    Duplicate,
    /// Two packets in one batch swapped places.
    Reorder,
    /// The packet was lost to a link flap window.
    LinkFlap,
    /// A completion was held back one pump cycle.
    DelayCompletion,
}

impl FaultKind {
    /// Stable telemetry event kind for this fault class.
    pub fn event_kind(self) -> &'static str {
        match self {
            FaultKind::Corrupt => "fault.corrupt",
            FaultKind::Drop => "fault.drop",
            FaultKind::Duplicate => "fault.duplicate",
            FaultKind::Reorder => "fault.reorder",
            FaultKind::LinkFlap => "fault.link_flap",
            FaultKind::DelayCompletion => "fault.delay_completion",
        }
    }
}

/// A seeded schedule of fault probabilities. Rates are per-packet odds
/// in units of 1/1024 (so `1024` means "every eligible packet").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Odds (per 1024) of corrupting a data-bearing packet.
    pub corrupt_per_1024: u16,
    /// Odds (per 1024) of dropping a packet.
    pub drop_per_1024: u16,
    /// Odds (per 1024) of duplicating a posted write.
    pub duplicate_per_1024: u16,
    /// Odds (per 1024, rolled once per batch) of swapping two packets.
    pub reorder_per_1024: u16,
    /// Odds (per 1024) of a link flap starting at a packet.
    pub flap_per_1024: u16,
    /// Number of consecutive packets lost per link flap.
    pub flap_len: u8,
    /// Odds (per 1024) of delaying a read completion one pump cycle.
    pub delay_per_1024: u16,
    /// When true, the plan's rates also apply to host-initiated control
    /// traffic (MMIO/config/SC-window requests and their completions).
    /// Off by default: faulting the control path requires the
    /// control-plane retry protocol to converge.
    pub fault_control_path: bool,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a differential baseline).
    pub fn fault_free(seed: u64) -> Self {
        FaultPlan {
            seed,
            corrupt_per_1024: 0,
            drop_per_1024: 0,
            duplicate_per_1024: 0,
            reorder_per_1024: 0,
            flap_per_1024: 0,
            flap_len: 0,
            delay_per_1024: 0,
            fault_control_path: false,
        }
    }

    /// Arms the same rates on the host control path too (builder-style).
    pub fn with_control_path(mut self) -> Self {
        self.fault_control_path = true;
        self
    }

    /// Light mixed-fault plan: a few percent of packets are hit.
    pub fn light(seed: u64) -> Self {
        FaultPlan {
            corrupt_per_1024: 12,
            drop_per_1024: 12,
            duplicate_per_1024: 16,
            reorder_per_1024: 24,
            flap_per_1024: 0,
            flap_len: 0,
            delay_per_1024: 24,
            ..Self::fault_free(seed)
        }
    }

    /// Heavy mixed-fault plan: every class active, including flaps.
    pub fn heavy(seed: u64) -> Self {
        FaultPlan {
            corrupt_per_1024: 32,
            drop_per_1024: 32,
            duplicate_per_1024: 48,
            reorder_per_1024: 64,
            flap_per_1024: 4,
            flap_len: 3,
            delay_per_1024: 48,
            ..Self::fault_free(seed)
        }
    }

    /// Corruption only, at the given odds.
    pub fn corrupt_only(seed: u64, per_1024: u16) -> Self {
        FaultPlan { corrupt_per_1024: per_1024, ..Self::fault_free(seed) }
    }

    /// Drops only, at the given odds.
    pub fn drop_only(seed: u64, per_1024: u16) -> Self {
        FaultPlan { drop_per_1024: per_1024, ..Self::fault_free(seed) }
    }

    /// Duplication + reorder only (the "idempotence" plan).
    pub fn duplicate_reorder(seed: u64, per_1024: u16) -> Self {
        FaultPlan {
            duplicate_per_1024: per_1024,
            reorder_per_1024: per_1024,
            ..Self::fault_free(seed)
        }
    }

    /// Delayed completions only.
    pub fn delay_only(seed: u64, per_1024: u16) -> Self {
        FaultPlan { delay_per_1024: per_1024, ..Self::fault_free(seed) }
    }

    /// Link flaps only.
    pub fn flap_only(seed: u64, per_1024: u16, flap_len: u8) -> Self {
        FaultPlan { flap_per_1024: per_1024, flap_len, ..Self::fault_free(seed) }
    }

    /// True if every rate is zero.
    pub fn is_fault_free(&self) -> bool {
        self.corrupt_per_1024 == 0
            && self.drop_per_1024 == 0
            && self.duplicate_per_1024 == 0
            && self.reorder_per_1024 == 0
            && self.flap_per_1024 == 0
            && self.delay_per_1024 == 0
    }
}

/// One injected fault, stamped with the injector's virtual clock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Virtual time at which the packet crossed the faulted segment.
    pub at: SimTime,
    /// Monotonic index of the packet in fabric arrival order.
    pub packet_index: u64,
    /// The fault class applied.
    pub kind: FaultKind,
    /// The victim packet's TLP type.
    pub tlp_type: TlpType,
    /// The victim packet's address, when it has one.
    pub address: Option<u64>,
}

/// What the injector decided to do with a read completion.
#[derive(Debug)]
pub enum CompletionVerdict {
    /// Deliver the (possibly corrupted) completion now.
    Deliver(Tlp),
    /// The completion was dropped.
    Dropped,
    /// Hold the completion until the next fabric pump cycle.
    Delayed(Tlp),
}

/// The stateful injector the fabric drives. Packets must be offered in
/// deterministic order; all randomness comes from the seeded plan.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    clock: Clock,
    link: LinkConfig,
    packet_index: u64,
    flap_remaining: u32,
    /// A posted control write held back by a control-path reorder; it is
    /// released *after* the next control request's output, swapping the
    /// two packets' arrival order.
    held_request: Option<Tlp>,
    trace: Vec<FaultEvent>,
    telemetry: Telemetry,
}

impl FaultInjector {
    /// Builds an injector from a plan, seeding the RNG from `plan.seed`.
    /// Every injected fault is mirrored into `telemetry`'s event stream.
    pub fn new(plan: FaultPlan, telemetry: Telemetry) -> Self {
        FaultInjector {
            plan,
            rng: SimRng::seed_from(plan.seed),
            clock: Clock::new(),
            link: LinkConfig::new(LinkSpeed::Gen4, 16),
            packet_index: 0,
            flap_remaining: 0,
            held_request: None,
            trace: Vec::new(),
            telemetry,
        }
    }

    /// The plan this injector runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The fault trace so far (one entry per injected fault).
    pub fn trace(&self) -> &[FaultEvent] {
        &self.trace
    }

    fn roll(&mut self, per_1024: u16) -> bool {
        per_1024 > 0 && self.rng.next_bounded(1024) < per_1024 as u64
    }

    fn record(&mut self, kind: FaultKind, tlp: &Tlp) {
        self.trace.push(FaultEvent {
            at: self.clock.now(),
            packet_index: self.packet_index,
            kind,
            tlp_type: tlp.header().tlp_type(),
            address: tlp.header().address(),
        });
        self.telemetry.record(
            Severity::Warn,
            kind.event_kind(),
            None,
            None,
            format!(
                "packet={} type={:?} addr={:?}",
                self.packet_index,
                tlp.header().tlp_type(),
                tlp.header().address()
            ),
        );
        self.telemetry.counter_add("fault.injected", 1);
    }

    /// Charges link time for one packet and bumps the arrival counter.
    fn observe(&mut self, tlp: &Tlp) {
        let wire_bytes = (tlp.payload().len() as u64).max(32);
        self.clock.advance(self.link.dma_time(wire_bytes));
        self.packet_index += 1;
    }

    fn corrupt_payload(&mut self, tlp: Tlp) -> Tlp {
        let mut payload = tlp.payload().to_vec();
        if payload.is_empty() {
            return tlp; // nothing to corrupt on this packet
        }
        let idx = self.rng.choose_index(payload.len());
        let mask = 1 + self.rng.next_bounded(255) as u8;
        payload[idx] ^= mask;
        tlp.with_payload(payload)
    }

    fn data_bearing(tlp: &Tlp) -> bool {
        !tlp.payload().is_empty()
            && matches!(
                tlp.header().tlp_type(),
                TlpType::MemWrite | TlpType::CompletionData
            )
    }

    /// Per-packet fault pass shared by both directions. Returns zero, one
    /// or two packets (duplicate).
    fn fault_packet(&mut self, tlp: Tlp, allow_duplicate: bool) -> Vec<Tlp> {
        self.observe(&tlp);
        if self.flap_remaining > 0 {
            self.flap_remaining -= 1;
            self.record(FaultKind::LinkFlap, &tlp);
            return Vec::new();
        }
        if self.roll(self.plan.flap_per_1024) {
            self.flap_remaining = u32::from(self.plan.flap_len).saturating_sub(1);
            self.record(FaultKind::LinkFlap, &tlp);
            return Vec::new();
        }
        if self.roll(self.plan.drop_per_1024) {
            self.record(FaultKind::Drop, &tlp);
            return Vec::new();
        }
        let tlp = if Self::data_bearing(&tlp) && self.roll(self.plan.corrupt_per_1024) {
            self.record(FaultKind::Corrupt, &tlp);
            self.corrupt_payload(tlp)
        } else {
            tlp
        };
        let duplicate = allow_duplicate
            && tlp.header().tlp_type() == TlpType::MemWrite
            && self.roll(self.plan.duplicate_per_1024);
        if duplicate {
            self.record(FaultKind::Duplicate, &tlp);
            vec![tlp.clone(), tlp]
        } else {
            vec![tlp]
        }
    }

    /// Applies the plan to one batch of device-initiated upstream TLPs
    /// (DMA reads and posted writes, post-interposer). The batch is
    /// replaced by the surviving — possibly duplicated, corrupted and
    /// reordered — packets.
    pub fn fault_upstream_batch(&mut self, batch: &mut Vec<Tlp>) {
        let mut out = Vec::with_capacity(batch.len());
        for tlp in batch.drain(..) {
            out.extend(self.fault_packet(tlp, true));
        }
        if out.len() >= 2 && self.roll(self.plan.reorder_per_1024) {
            let a = self.rng.choose_index(out.len());
            let b = self.rng.choose_index(out.len());
            if a != b {
                self.record(FaultKind::Reorder, &out[a]);
                out.swap(a, b);
            }
        }
        *batch = out;
    }

    /// True when host-initiated control traffic is subject to the plan.
    pub fn faults_control_path(&self) -> bool {
        self.plan.fault_control_path && !self.plan.is_fault_free()
    }

    /// Applies the plan to one host-initiated control request (MMIO,
    /// config, SC control window). Returns the surviving — possibly
    /// duplicated, corrupted or reordered — packets, in delivery order.
    ///
    /// When [`FaultPlan::fault_control_path`] is off this is a pure
    /// pass-through that consumes *nothing* from the seeded stream, so
    /// arming a data-path-only plan replays exactly the trace it did
    /// before this hook existed.
    pub fn fault_control_request(&mut self, tlp: Tlp) -> Vec<Tlp> {
        if !self.faults_control_path() {
            return vec![tlp];
        }
        // Release a previously held write *after* this request's own
        // output — the pair arrives swapped.
        let prior = self.held_request.take();
        let mut out = self.fault_packet(tlp, true);
        if self.roll(self.plan.reorder_per_1024) {
            let holdable = out.last().is_some_and(|t| {
                matches!(
                    t.header().tlp_type(),
                    TlpType::MemWrite | TlpType::CfgWrite | TlpType::IoWrite
                )
            });
            // Only posted writes may be held back: holding a non-posted
            // request would strand its requester waiting on a completion
            // that no retry protocol can distinguish from a drop.
            if holdable {
                let held = out.pop().expect("checked non-empty");
                self.record(FaultKind::Reorder, &held);
                self.held_request = Some(held);
            }
        }
        out.extend(prior);
        out
    }

    /// Applies the plan to one completion heading back to the host in
    /// reply to a control request. A pure pass-through (zero random-
    /// stream consumption) unless [`FaultPlan::fault_control_path`] is
    /// armed.
    pub fn fault_control_reply(&mut self, tlp: Tlp) -> CompletionVerdict {
        if !self.faults_control_path() {
            return CompletionVerdict::Deliver(tlp);
        }
        self.fault_completion(tlp)
    }

    /// Applies the plan to one read completion heading back to a device.
    pub fn fault_completion(&mut self, tlp: Tlp) -> CompletionVerdict {
        let mut survivors = self.fault_packet(tlp, false);
        let Some(tlp) = survivors.pop() else {
            return CompletionVerdict::Dropped;
        };
        if self.roll(self.plan.delay_per_1024) {
            self.record(FaultKind::DelayCompletion, &tlp);
            CompletionVerdict::Delayed(tlp)
        } else {
            CompletionVerdict::Deliver(tlp)
        }
    }
}

// --- snapshot support -------------------------------------------------

use ccai_sim::snapshot::{Decoder, Encoder, SnapshotError};

ccai_sim::snapshot_state!(enum FaultKind: "fault kind code" {
    Corrupt = 0,
    Drop = 1,
    Duplicate = 2,
    Reorder = 3,
    LinkFlap = 4,
    DelayCompletion = 5,
});

ccai_sim::snapshot_state!(FaultPlan {
    seed,
    corrupt_per_1024,
    drop_per_1024,
    duplicate_per_1024,
    reorder_per_1024,
    flap_per_1024,
    flap_len,
    delay_per_1024,
    fault_control_path,
});

ccai_sim::snapshot_state!(FaultEvent { at, packet_index, kind, tlp_type, address });

impl FaultInjector {
    /// Serializes the plan followed by the injector's mutable state
    /// (seeded-stream position, virtual clock, flap window, held write,
    /// trace). The telemetry hub is not state.
    pub(crate) fn encode_snapshot(&self, enc: &mut Encoder) {
        enc.put(&self.plan);
        enc.put(&self.rng);
        enc.put(&self.clock);
        enc.put(&self.packet_index);
        enc.put(&self.flap_remaining);
        enc.put(&self.held_request);
        enc.put(&self.trace);
    }

    /// Rebuilds an injector captured by
    /// [`FaultInjector::encode_snapshot`] on `telemetry`: it continues
    /// exactly where the snapshot left off.
    pub(crate) fn restore_snapshot(
        dec: &mut Decoder<'_>,
        telemetry: Telemetry,
    ) -> Result<Self, SnapshotError> {
        let plan = dec.get()?;
        Ok(FaultInjector {
            rng: dec.get()?,
            clock: dec.get()?,
            packet_index: dec.get()?,
            flap_remaining: dec.get()?,
            held_request: dec.get()?,
            trace: dec.get()?,
            ..FaultInjector::new(plan, telemetry)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Bdf;

    impl FaultInjector {
        /// The injector's virtual time (advanced per observed packet).
        fn now(&self) -> SimTime {
            self.clock.now()
        }
    }

    fn write(addr: u64, len: usize) -> Tlp {
        Tlp::memory_write(Bdf::new(1, 0, 0), addr, vec![0xAB; len])
    }

    fn completion(data: Vec<u8>) -> Tlp {
        Tlp::completion_with_data(Bdf::new(0, 0, 0), Bdf::new(1, 0, 0), 7, data)
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed| {
            let mut inj = FaultInjector::new(FaultPlan::heavy(seed), Telemetry::default());
            let mut batch: Vec<Tlp> = (0..200).map(|i| write(i * 0x1000, 256)).collect();
            inj.fault_upstream_batch(&mut batch);
            for i in 0..50u64 {
                let _ = inj.fault_completion(completion(vec![i as u8; 128]));
            }
            (inj.trace().to_vec(), batch)
        };
        let (t1, b1) = run(42);
        let (t2, b2) = run(42);
        assert_eq!(t1, t2, "same seed must replay the identical trace");
        assert_eq!(b1, b2, "same seed must mutate packets identically");
        assert!(!t1.is_empty(), "heavy plan must inject something");
        let (t3, _) = run(43);
        assert_ne!(t1, t3, "different seeds must diverge");
    }

    #[test]
    fn fault_free_plan_is_transparent() {
        let mut inj = FaultInjector::new(FaultPlan::fault_free(1), Telemetry::default());
        let original: Vec<Tlp> = (0..64).map(|i| write(i * 0x100, 64)).collect();
        let mut batch = original.clone();
        inj.fault_upstream_batch(&mut batch);
        assert_eq!(batch, original);
        assert!(inj.trace().is_empty());
        assert!(FaultPlan::fault_free(1).is_fault_free());
        assert!(!FaultPlan::light(1).is_fault_free());
    }

    #[test]
    fn corrupt_only_flips_exactly_one_byte() {
        let mut inj = FaultInjector::new(FaultPlan::corrupt_only(9, 1024), Telemetry::default());
        let mut batch = vec![write(0x1000, 512)];
        inj.fault_upstream_batch(&mut batch);
        assert_eq!(batch.len(), 1);
        let diff: usize = batch[0]
            .payload()
            .iter()
            .filter(|&&b| b != 0xAB)
            .count();
        assert_eq!(diff, 1, "exactly one byte flipped");
        assert_eq!(inj.trace().len(), 1);
        assert_eq!(inj.trace()[0].kind, FaultKind::Corrupt);
    }

    #[test]
    fn reads_are_never_corrupted_or_duplicated() {
        let plan = FaultPlan {
            corrupt_per_1024: 1024,
            duplicate_per_1024: 1024,
            ..FaultPlan::fault_free(3)
        };
        let mut inj = FaultInjector::new(plan, Telemetry::default());
        let read = Tlp::memory_read(Bdf::new(1, 0, 0), 0x4000, 256, 9);
        let mut batch = vec![read.clone()];
        inj.fault_upstream_batch(&mut batch);
        assert_eq!(batch, vec![read], "reads carry no payload and must pass");
        assert!(inj.trace().is_empty());
    }

    #[test]
    fn flap_drops_consecutive_packets() {
        let mut inj = FaultInjector::new(FaultPlan::flap_only(5, 1024, 4), Telemetry::default());
        let mut batch: Vec<Tlp> = (0..4).map(|i| write(i * 0x100, 32)).collect();
        inj.fault_upstream_batch(&mut batch);
        assert!(batch.is_empty(), "all packets inside the flap window drop");
        assert!(inj.trace().iter().all(|e| e.kind == FaultKind::LinkFlap));
        assert_eq!(inj.trace().len(), 4);
    }

    #[test]
    fn delayed_completion_survives_intact() {
        let mut inj = FaultInjector::new(FaultPlan::delay_only(6, 1024), Telemetry::default());
        let original = completion(vec![5; 64]);
        match inj.fault_completion(original.clone()) {
            CompletionVerdict::Delayed(tlp) => assert_eq!(tlp, original),
            other => panic!("expected delay, got {other:?}"),
        }
    }

    #[test]
    fn control_hooks_are_transparent_without_the_knob() {
        // A data-path plan without `fault_control_path` must pass control
        // traffic untouched AND consume nothing from the seeded stream:
        // the subsequent upstream batch replays identically to a run that
        // never saw control packets.
        let run = |control_first: bool| {
            let mut inj = FaultInjector::new(FaultPlan::heavy(77), Telemetry::default());
            if control_first {
                for i in 0..40u64 {
                    let out = inj.fault_control_request(write(0x7000 + i * 8, 24));
                    assert_eq!(out.len(), 1, "pass-through");
                    match inj.fault_control_reply(completion(vec![i as u8; 8])) {
                        CompletionVerdict::Deliver(_) => {}
                        other => panic!("pass-through expected, got {other:?}"),
                    }
                }
                assert!(inj.trace().is_empty(), "no control faults without the knob");
                assert_eq!(inj.now(), SimTime::ZERO, "no clock consumption");
            }
            let mut batch: Vec<Tlp> = (0..100).map(|i| write(i * 0x1000, 256)).collect();
            inj.fault_upstream_batch(&mut batch);
            (inj.trace().to_vec(), batch)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn control_path_same_seed_same_trace() {
        let run = || {
            let plan = FaultPlan::heavy(0xC0).with_control_path();
            let mut inj = FaultInjector::new(plan, Telemetry::default());
            let mut out = Vec::new();
            for i in 0..200u64 {
                out.extend(inj.fault_control_request(write(0x5000 + i * 8, 24)));
                if let CompletionVerdict::Deliver(t) | CompletionVerdict::Delayed(t) =
                    inj.fault_control_reply(completion(vec![i as u8; 8]))
                {
                    out.push(t);
                }
            }
            (inj.trace().to_vec(), out)
        };
        let (t1, o1) = run();
        let (t2, o2) = run();
        assert_eq!(t1, t2);
        assert_eq!(o1, o2);
        assert!(!t1.is_empty(), "heavy control plan must inject something");
    }

    #[test]
    fn control_reorder_holds_a_write_until_the_next_request() {
        let plan = FaultPlan {
            reorder_per_1024: 1024,
            ..FaultPlan::fault_free(4)
        }
        .with_control_path();
        let mut inj = FaultInjector::new(plan, Telemetry::default());
        let first = write(0x1000, 16);
        let second = write(0x2000, 16);
        assert!(
            inj.fault_control_request(first.clone()).is_empty(),
            "first write held back"
        );
        let out = inj.fault_control_request(second.clone());
        // The second write is itself held; the first is released after it
        // (an empty slot), so delivery order becomes [first] here…
        assert_eq!(out, vec![first]);
        // …and a read (not holdable) flushes the second.
        let read = Tlp::memory_read(Bdf::new(0, 0, 0), 0x3000, 8, 1);
        let out = inj.fault_control_request(read.clone());
        assert_eq!(out, vec![read, second]);
        assert!(inj.trace().iter().all(|e| e.kind == FaultKind::Reorder));
    }

    #[test]
    fn trace_timestamps_are_monotonic() {
        let mut inj = FaultInjector::new(FaultPlan::heavy(11), Telemetry::default());
        let mut batch: Vec<Tlp> = (0..300).map(|i| write(i * 0x1000, 1024)).collect();
        inj.fault_upstream_batch(&mut batch);
        let trace = inj.trace();
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(trace.windows(2).all(|w| w[0].packet_index <= w[1].packet_index));
        assert!(inj.now() > SimTime::ZERO);
    }
}
