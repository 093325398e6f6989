//! Fleet-scale multi-tenant serving.
//!
//! This module is the serving layer the paper's §8 deployment sketch
//! implies but never details: N tenants sharing M xPU-backed confidential
//! systems behind sharded PCIe-SC instances. It wires together
//!
//! * [`arrival`] — deterministic seeded open-loop Poisson arrivals;
//! * [`limiter`] — per-tenant token-bucket admission with typed shed
//!   reasons (requests are never silently dropped);
//! * [`scheduler`] — a continuous-batching scheduler that admits new
//!   work at pump-round quiesce points with fair round-robin seats;
//! * [`FleetServer`] — the event loop joining them over `shards`
//!   parallel service lanes, accounting every picosecond into the
//!   [`Telemetry`] hub (waits as per-tenant idle, service as per-tenant
//!   hop spans) so the trace digest covers the whole fleet run.
//!
//! Everything is a pure function of [`FleetConfig`]: same config, same
//! digest, bit-identical [`FleetSnapshot`] — including across a
//! mid-flight [`FleetServer::snapshot`]/[`FleetServer::resume`] pair.

pub mod arrival;
pub mod limiter;
pub mod scheduler;

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ccai_core::perf::{CostBreakdown, OptimizationConfig, PerfModel};
use ccai_sim::snapshot::{Decoder, Encoder, SnapshotError};
use ccai_sim::telemetry::Severity;
use ccai_sim::{
    fnv1a, Hop, SimDuration, SimTime, Summary, Telemetry, TelemetrySnapshot, FNV_OFFSET,
};
use ccai_xpu::XpuSpec;

use crate::catalog::LlmSpec;
use crate::chaos::{ChaosEvent, ChaosPlan};
use crate::shard::ReplicaSet;
use crate::workload::InferenceWorkload;

pub use arrival::{ArrivalProcess, Request};
pub use limiter::{RateLimiter, ShedReason};
pub use scheduler::ContinuousBatcher;

/// Telemetry ring-buffer capacity for fleet runs. The digest covers every
/// event regardless; the ring only bounds replayable history.
const EVENT_CAPACITY: usize = 4096;

/// Schema tag for [`FleetSnapshot::to_json`].
pub const FLEET_SCHEMA: &str = "ccai.fleet.v1";

/// Deterministic bring-up latency a hot-plugged blade pays before its
/// first batch, modeling the attested bring-up chain (secure boot →
/// attest → key release → policy install → filter arming) a replacement
/// must clear before it may serve.
pub const BRINGUP_LATENCY: SimDuration = SimDuration::from_micros(250);

/// One tenant's serving contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// Telemetry tag (matches the SC's `u32` tenant tag space).
    pub tag: u32,
    /// Mean inter-arrival gap of the tenant's Poisson source.
    pub mean_interarrival: SimDuration,
    /// Token-bucket burst capacity (requests).
    pub burst: u64,
    /// Token-bucket refill rate (requests per second).
    pub rate_per_sec: u64,
}

impl TenantSpec {
    /// Convenience constructor.
    pub fn new(tag: u32, mean_interarrival: SimDuration, burst: u64, rate_per_sec: u64) -> Self {
        TenantSpec { tag, mean_interarrival, burst, rate_per_sec }
    }
}

/// Full fleet configuration; the run is a pure function of this value.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Arrival-process seed.
    pub seed: u64,
    /// Number of parallel service lanes (sharded PCIe-SC instances).
    pub shards: u32,
    /// Largest batch a shard admits at a quiesce point.
    pub max_batch: usize,
    /// Per-tenant admission backlog before tail-dropping with a typed
    /// shed.
    pub admission_backlog: usize,
    /// Whether token-bucket rate limiting is active.
    pub rate_limiting: bool,
    /// Model every shard serves (golden image).
    pub model: LlmSpec,
    /// Device behind every shard.
    pub device: XpuSpec,
    /// The tenant population.
    pub tenants: Vec<TenantSpec>,
}

impl FleetConfig {
    /// The acceptance-scale default: eight tenants across four shards,
    /// all with the same contract, serving OPT-1.3b on A100s.
    pub fn standard(seed: u64) -> FleetConfig {
        let tenants = (0..8)
            .map(|i| TenantSpec::new(100 + i, SimDuration::from_millis(40), 32, 64))
            .collect();
        FleetConfig {
            seed,
            shards: 4,
            max_batch: 32,
            admission_backlog: 64,
            rate_limiting: true,
            model: LlmSpec::opt_1_3b(),
            device: XpuSpec::a100(),
            tenants,
        }
    }

    /// Structural fingerprint folded into snapshots so a resume against a
    /// different config is rejected instead of silently diverging.
    pub fn fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, &self.seed.to_le_bytes());
        h = fnv1a(h, &self.shards.to_le_bytes());
        h = fnv1a(h, &(self.max_batch as u64).to_le_bytes());
        h = fnv1a(h, &(self.admission_backlog as u64).to_le_bytes());
        h = fnv1a(h, &[u8::from(self.rate_limiting)]);
        h = fnv1a(h, self.model.name().as_bytes());
        h = fnv1a(h, self.device.name().as_bytes());
        for t in &self.tenants {
            h = fnv1a(h, &t.tag.to_le_bytes());
            h = fnv1a(h, &t.mean_interarrival.as_picos().to_le_bytes());
            h = fnv1a(h, &t.burst.to_le_bytes());
            h = fnv1a(h, &t.rate_per_sec.to_le_bytes());
        }
        h
    }
}

/// One request currently being served by a shard. The wait and per-hop
/// service components are priced at dispatch and *recorded* at
/// completion, so a crash between the two can hand the raw request back
/// to the batcher with nothing accounted — exactly-once stats.
#[derive(Debug, Clone)]
struct InFlight {
    req: Request,
    wait: SimDuration,
    stage: SimDuration,
    crypt: SimDuration,
    filter: SimDuration,
    link: SimDuration,
    compute: SimDuration,
}

impl InFlight {
    fn service(&self) -> SimDuration {
        self.stage + self.crypt + self.filter + self.link + self.compute
    }
}

ccai_sim::snapshot_state!(InFlight { req, wait, stage, crypt, filter, link, compute });

/// One service lane (a sharded PCIe-SC fronting one xPU system). Its
/// stable id and whether it is draining live in the [`ReplicaSet`]: a
/// draining lane finishes its current round, is never offered another
/// batch, and retires once idle.
#[derive(Debug, Default)]
struct Lane {
    busy_until: SimTime,
    rounds: u64,
    /// The batch currently in service (empty when idle).
    in_flight: Vec<InFlight>,
}

impl Lane {
    fn idle_at(&self, now: SimTime) -> bool {
        self.in_flight.is_empty() && self.busy_until <= now
    }
}

/// A lane as the snapshot stores it: (id, busy_until, rounds, draining,
/// in_flight).
type LaneImage = (u32, SimTime, u64, bool, Vec<InFlight>);

/// Per-tenant serving counters and latency samples.
#[derive(Debug, Default)]
struct TenantStats {
    generated: u64,
    admitted: u64,
    served: u64,
    shed_rate_limited: u64,
    shed_queue_full: u64,
    shed_quarantined: u64,
    queue_delay_us: Vec<f64>,
    e2e_us: Vec<f64>,
}

ccai_sim::snapshot_state!(TenantStats {
    generated,
    admitted,
    served,
    shed_rate_limited,
    shed_queue_full,
    shed_quarantined,
    queue_delay_us,
    e2e_us,
});

/// Which event the loop services next; variant order is the tie-break
/// (completions quiesce a shard before the chaos/refill/arrival that
/// would touch it, so both admission and chaos injection happen at
/// quiesce points).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Completion,
    Chaos,
    Refill,
    Arrival,
}

/// The fleet event loop: arrivals → admission → continuous batching →
/// sharded service, with every outcome accounted.
pub struct FleetServer {
    config: FleetConfig,
    hub: Telemetry,
    now: SimTime,
    arrivals: ArrivalProcess,
    limiter: RateLimiter,
    /// Admitted-pending queues: arrived but not yet through the token
    /// bucket. Bounded by `admission_backlog` per tenant.
    pending: BTreeMap<u32, VecDeque<Request>>,
    batcher: ContinuousBatcher,
    /// Service lanes under stable replica ids, with every tenant's home.
    lanes: ReplicaSet<Lane>,
    /// Scheduled chaos events, fired at quiesce points.
    chaos: ChaosPlan,
    /// Next un-fired event in `chaos`.
    chaos_cursor: usize,
    /// Chaos events applied (skipped ones excluded).
    chaos_applied: u64,
    /// In-flight requests requeued by crashes/unplugs.
    requeued: u64,
    /// Migrations applied.
    migrations: u64,
    quarantined: BTreeSet<u32>,
    stats: BTreeMap<u32, TenantStats>,
}

impl FleetServer {
    /// Builds an idle fleet from `config`.
    ///
    /// # Panics
    ///
    /// Panics if the config has no shards or no tenants, or a tenant has
    /// a zero mean inter-arrival / zero-shaped bucket.
    pub fn new(config: FleetConfig) -> FleetServer {
        assert!(!config.tenants.is_empty(), "fleet needs at least one tenant");
        assert!(config.max_batch > 0, "max_batch must be positive");
        assert!(config.admission_backlog > 0, "admission_backlog must be positive");
        let loads: Vec<(u32, SimDuration)> =
            config.tenants.iter().map(|t| (t.tag, t.mean_interarrival)).collect();
        let arrivals = ArrivalProcess::new(config.seed, &loads);
        let mut limiter = RateLimiter::new(config.rate_limiting);
        let mut pending = BTreeMap::new();
        let mut stats = BTreeMap::new();
        for t in &config.tenants {
            limiter.add_tenant(t.tag, t.burst, t.rate_per_sec);
            pending.insert(t.tag, VecDeque::new());
            stats.insert(t.tag, TenantStats::default());
        }
        let tags: Vec<u32> = config.tenants.iter().map(|t| t.tag).collect();
        let batcher = ContinuousBatcher::new(&tags);
        let lanes = ReplicaSet::new((0..config.shards).map(|_| Lane::default()));
        FleetServer {
            config,
            hub: Telemetry::new(EVENT_CAPACITY),
            now: SimTime::ZERO,
            arrivals,
            limiter,
            pending,
            batcher,
            lanes,
            chaos: ChaosPlan::default(),
            chaos_cursor: 0,
            chaos_applied: 0,
            requeued: 0,
            migrations: 0,
            quarantined: BTreeSet::new(),
            stats,
        }
    }

    /// Installs (replacing) the chaos plan. Events strictly before the
    /// current loop time fire at the next quiesce point.
    pub fn set_chaos_plan(&mut self, plan: ChaosPlan) {
        self.chaos = plan;
        self.chaos_cursor = 0;
    }

    /// Stable ids of the currently live replicas, ascending.
    pub fn replicas(&self) -> Vec<u32> {
        self.lanes.ids()
    }

    /// The replica id a tenant's batches are routed to right now —
    /// a migration pin if one is active, the HRW home otherwise.
    pub fn home_of(&self, tenant: u32) -> u32 {
        self.lanes.shard_of(tenant)
    }

    /// The fleet's telemetry hub (digest, counters, per-tenant hops).
    pub fn telemetry(&self) -> &Telemetry {
        &self.hub
    }

    /// Requests waiting for admission (arrived, not yet through the
    /// bucket) plus admitted-but-undispatched requests.
    pub fn backlog(&self) -> usize {
        self.pending.values().map(VecDeque::len).sum::<usize>() + self.batcher.queued()
    }

    // --- event loop -----------------------------------------------------

    /// Earliest pending refill across tenants with admission-blocked work
    /// (only meaningful when rate limiting is on).
    fn next_refill(&mut self) -> Option<SimTime> {
        if !self.limiter.enabled() {
            return None;
        }
        let (now, limiter) = (self.now, &mut self.limiter);
        self.pending
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(&t, _)| now + limiter.time_until_admit(t, now))
            .min()
    }

    /// Earliest busy-lane completion after `now`.
    fn next_completion(&self) -> Option<SimTime> {
        self.lanes
            .iter()
            .filter(|(_, _, l)| !l.in_flight.is_empty())
            .map(|(_, _, l)| l.busy_until)
            .filter(|&t| t > self.now)
            .min()
    }

    /// Fire time of the next un-fired chaos event, if any.
    fn next_chaos(&self) -> Option<SimTime> {
        self.chaos.events().get(self.chaos_cursor).map(|&(at, _)| at)
    }

    /// Records completions: every lane whose round has finished by `now`
    /// has its in-flight batch accounted (idle + per-hop spans + stats),
    /// in ascending replica order for determinism. Draining replicas that
    /// fall idle retire here.
    fn finish_rounds(&mut self) {
        let now = self.now;
        for lane in self.lanes.values_mut() {
            if lane.in_flight.is_empty() || lane.busy_until > now {
                continue;
            }
            for inf in std::mem::take(&mut lane.in_flight) {
                let tenant = Some(inf.req.tenant);
                self.hub.advance_idle(tenant, inf.wait);
                self.hub.advance_span(Hop::AdaptorStage, tenant, inf.stage);
                self.hub.advance_span(Hop::AdaptorCrypt, tenant, inf.crypt);
                self.hub.advance_span(Hop::ScFilter, tenant, inf.filter);
                self.hub.advance_span(Hop::ScCrypt, tenant, SimDuration::ZERO);
                self.hub.advance_span(Hop::Link, tenant, inf.link);
                self.hub.advance_span(Hop::Dma, tenant, inf.compute);
                let service = inf.service();
                let s = self.stats.get_mut(&inf.req.tenant).expect("stats exist for tenant");
                s.served += 1;
                s.queue_delay_us.push(inf.wait.as_secs_f64() * 1e6);
                s.e2e_us.push((inf.wait + service).as_secs_f64() * 1e6);
                self.hub.counter_add("serve.served", 1);
            }
        }
        self.retire_drained();
    }

    /// Removes draining replicas that have fallen idle.
    fn retire_drained(&mut self) {
        let now = self.now;
        for id in self.lanes.retire(|lane| lane.idle_at(now)) {
            self.hub.record(
                Severity::Info,
                "fleet.chaos.drain_complete",
                None,
                None,
                format!("replica={id}"),
            );
            self.hub.counter_add("fleet.chaos.replicas_removed", 1);
        }
    }

    /// Applies the next scheduled chaos event (the caller has checked the
    /// fire time) at the current quiesce point.
    fn apply_next_chaos(&mut self) {
        let (_, event) = self.chaos.events()[self.chaos_cursor];
        self.chaos_cursor += 1;
        match event {
            ChaosEvent::Crash { replica } | ChaosEvent::HotUnplug { replica } => {
                self.remove_replica(replica, event);
            }
            ChaosEvent::Drain { replica } => self.drain_replica(replica),
            ChaosEvent::HotPlug { replica } => self.plug_replica(replica),
            ChaosEvent::Migrate { tenant, to } => self.migrate_tenant(tenant, to),
        }
    }

    /// Records a chaos event the fleet cannot apply (unknown, last or
    /// duplicate replica, dead migration target, unknown tenant). Skips
    /// are visible, never silent.
    fn skip_chaos(&mut self, event: ChaosEvent, why: &str) {
        self.hub.record(
            Severity::Warn,
            "fleet.chaos.skipped",
            None,
            None,
            format!("class={} why={why}", event.class()),
        );
        self.hub.counter_add("fleet.chaos.skipped", 1);
    }

    /// Kills a replica (hard crash or link hot-unplug): the routing entry
    /// disappears (HRW minimal remap re-homes its tenants), its in-flight
    /// batch is requeued at the front of the owning tenants' queues with
    /// original arrival stamps, and migration pins on it fall back to HRW
    /// homes. Unplug additionally types the in-flight losses.
    fn remove_replica(&mut self, replica: u32, event: ChaosEvent) {
        let (dead, rehomed) = match self.lanes.remove(replica) {
            Ok(removed) => removed,
            Err(refusal) => return self.skip_chaos(event, refusal.reason()),
        };
        let lost = dead.in_flight.len();
        // Reverse order so front-pushes restore the original FIFO order.
        for inf in dead.in_flight.into_iter().rev() {
            self.batcher.requeue_front(inf.req);
        }
        self.requeued += lost as u64;
        self.chaos_applied += 1;
        let kind = match event {
            ChaosEvent::HotUnplug { .. } => "fleet.chaos.hot_unplug",
            _ => "fleet.chaos.crash",
        };
        self.hub.record(
            Severity::Error,
            kind,
            None,
            None,
            format!("replica={replica} requeued={lost} rehomed={rehomed}"),
        );
        self.hub.counter_add("fleet.chaos.events", 1);
        self.hub.counter_add("fleet.chaos.requeued", lost as u64);
        self.hub.counter_add("fleet.chaos.replicas_removed", 1);
        if matches!(event, ChaosEvent::HotUnplug { .. }) {
            // Each in-flight request had DMA on the severed link; the
            // requeue is the retry that absorbs the typed loss.
            self.hub.counter_add("fleet.chaos.unplug_lost_tlps", lost as u64);
        }
    }

    /// Starts a graceful drain: the replica leaves the routing table now
    /// (new work re-homes), finishes its current round, and retires at
    /// the next quiesce point it is idle.
    fn drain_replica(&mut self, replica: u32) {
        if let Err(refusal) = self.lanes.drain(replica) {
            return self.skip_chaos(ChaosEvent::Drain { replica }, refusal.reason());
        }
        self.chaos_applied += 1;
        self.hub.record(
            Severity::Warn,
            "fleet.chaos.drain",
            None,
            None,
            format!("replica={replica}"),
        );
        self.hub.counter_add("fleet.chaos.events", 1);
        self.retire_drained();
    }

    /// Hot-plugs a fresh blade under a stable id no member holds (a
    /// draining lane still holds its id). The blade is routable
    /// immediately but pays [`BRINGUP_LATENCY`] (the attested bring-up
    /// chain) before its first batch.
    fn plug_replica(&mut self, replica: u32) {
        let blade = Lane { busy_until: self.now + BRINGUP_LATENCY, ..Lane::default() };
        if let Err(refusal) = self.lanes.insert(replica, blade) {
            return self.skip_chaos(ChaosEvent::HotPlug { replica }, refusal.reason());
        }
        self.chaos_applied += 1;
        self.hub.record(
            Severity::Info,
            "fleet.chaos.hot_plug",
            None,
            None,
            format!("replica={replica} bringup_picos={}", BRINGUP_LATENCY.as_picos()),
        );
        self.hub.counter_add("fleet.chaos.events", 1);
        self.hub.counter_add("fleet.chaos.replicas_added", 1);
    }

    /// Live-migrates a tenant's home to `to`. The tenant's token bucket,
    /// pending queue, batcher queue, stats, and quarantine standing are
    /// tenant-keyed fleet-global state, so they move exactly-once by
    /// construction; only the routing home changes.
    fn migrate_tenant(&mut self, tenant: u32, to: u32) {
        if !self.stats.contains_key(&tenant) {
            return self.skip_chaos(ChaosEvent::Migrate { tenant, to }, "unknown_tenant");
        }
        let from = self.home_of(tenant);
        if self.lanes.pin(tenant, to).is_err() {
            return self.skip_chaos(ChaosEvent::Migrate { tenant, to }, "dead_target");
        }
        self.hub.record(
            Severity::Info,
            "fleet.migrate.start",
            Some(tenant),
            None,
            format!("from={from} to={to}"),
        );
        self.chaos_applied += 1;
        self.migrations += 1;
        self.hub.record(
            Severity::Info,
            "fleet.migrate.complete",
            Some(tenant),
            None,
            format!("from={from} to={to} carried=bucket,queue,quarantine"),
        );
        self.hub.counter_add("fleet.chaos.events", 1);
        self.hub.counter_add("fleet.migrate.count", 1);
    }

    /// Moves admission-blocked requests through the token buckets into the
    /// batcher, in tenant-tag order.
    fn drain_pending(&mut self) {
        let now = self.now;
        for (&t, queue) in &mut self.pending {
            while !queue.is_empty() && self.limiter.try_admit(t, now) {
                let req = queue.pop_front().expect("head checked above");
                if let Some(s) = self.stats.get_mut(&t) {
                    s.admitted += 1;
                }
                self.hub.counter_add("serve.admitted", 1);
                self.batcher.enqueue(req);
            }
        }
    }

    /// Gives every idle routable lane a batch of the tenants homed to it,
    /// in ascending replica order.
    fn try_dispatch(&mut self) {
        for id in self.lanes.ids() {
            let busy = self.lanes.get(id).is_some_and(|lane| lane.busy_until > self.now);
            if busy || self.batcher.queued() == 0 {
                continue;
            }
            let lanes = &self.lanes;
            let batch =
                self.batcher.form_batch_where(self.config.max_batch, |t| lanes.shard_of(t) == id);
            if !batch.is_empty() {
                self.serve_round(id, batch);
            }
        }
    }

    /// Prices one pump round on one lane and marks the batch in flight.
    /// Nothing is *recorded* here — waits, spans, and served counts are
    /// accounted by [`FleetServer::finish_rounds`] when the round
    /// completes, so a crash mid-round can requeue the batch with
    /// exactly-once stats.
    fn serve_round(&mut self, id: u32, batch: Vec<Request>) {
        let now = self.now;
        let batch_size = batch.len() as u32;
        let head_id = batch[0].id;
        let perf = PerfModel::new(self.config.device.clone(), OptimizationConfig::all_on());
        let mut round_end = now;
        let mut in_flight = Vec::with_capacity(batch.len());
        for req in batch {
            // Transfer hops priced per request (each request's prompt and
            // tokens cross the SC individually); compute priced at the
            // round's batch size so batching contention is visible.
            let solo = InferenceWorkload::new(
                self.config.model.clone(),
                req.input_tokens,
                req.output_tokens,
                1,
            );
            let batched = InferenceWorkload::new(
                self.config.model.clone(),
                req.input_tokens,
                req.output_tokens,
                batch_size,
            );
            let prefill: CostBreakdown = perf.price(&solo.prefill_profile());
            let step: CostBreakdown = perf.price(&solo.step_profile());
            let steps = u64::from(req.output_tokens);
            let link = prefill.base_transfer
                + prefill.tag_traffic
                + (step.base_transfer + step.tag_traffic) * steps;
            let stage = prefill.base_mmio
                + prefill.sc_interaction
                + (step.base_mmio + step.sc_interaction) * steps;
            let crypt = prefill.crypto + step.crypto * steps;
            let filter = prefill.sc_pipeline + step.sc_pipeline * steps;
            let compute = batched.prefill_time(&self.config.device)
                + batched.step_time(&self.config.device) * steps;
            let service = link + stage + crypt + filter + compute;
            let wait = now.duration_since(req.arrived);
            round_end = round_end.max(now + service);
            in_flight.push(InFlight { req, wait, stage, crypt, filter, link, compute });
        }
        let lane = self.lanes.get_mut(id).expect("dispatch names a member");
        lane.busy_until = round_end;
        lane.rounds += 1;
        lane.in_flight = in_flight;
        self.hub.record(
            Severity::Info,
            "serve.round",
            None,
            Some(head_id),
            format!("shard={id} n={batch_size}"),
        );
        self.hub.counter_add("serve.rounds", 1);
        self.hub.histogram_record("serve.batch_size", f64::from(batch_size));
    }

    /// Sheds one request with a typed reason — counted, recorded, never
    /// silent.
    fn shed(&mut self, req: &Request, reason: ShedReason) {
        let s = self.stats.get_mut(&req.tenant).expect("stats exist for tenant");
        match reason {
            ShedReason::RateLimited => s.shed_rate_limited += 1,
            ShedReason::QueueFull => s.shed_queue_full += 1,
            ShedReason::Quarantined => s.shed_quarantined += 1,
        }
        self.hub.record(
            Severity::Warn,
            "serve.shed",
            Some(req.tenant),
            Some(req.id),
            reason.as_str(),
        );
        self.hub
            .counter_add_named(&format!("serve.shed.{}", reason.as_str()), 1);
    }

    /// Handles one arrival: quarantine check, backlog check, then the
    /// pending queue.
    fn accept(&mut self, req: Request) {
        self.hub.counter_add("serve.generated", 1);
        if let Some(s) = self.stats.get_mut(&req.tenant) {
            s.generated += 1;
        }
        if self.quarantined.contains(&req.tenant) {
            self.shed(&req, ShedReason::Quarantined);
            return;
        }
        let backlog = self.pending.get(&req.tenant).map_or(0, VecDeque::len);
        if backlog >= self.config.admission_backlog {
            // The backlog exists to absorb rate-limit waits; when it is
            // full under an active limiter the tenant is over contract,
            // otherwise the fleet itself cannot keep up.
            let reason = if self.limiter.enabled() {
                ShedReason::RateLimited
            } else {
                ShedReason::QueueFull
            };
            self.shed(&req, reason);
            return;
        }
        self.pending
            .get_mut(&req.tenant)
            .expect("pending queue exists for registered tenant")
            .push_back(req);
    }

    /// Runs the loop until `target` requests have been generated in
    /// total. Work may remain queued (or admission-blocked) when this
    /// returns — exactly the mid-flight state the snapshot tests freeze.
    pub fn generate(&mut self, target: u64) {
        self.run(Some(target));
    }

    /// Runs completion/refill/chaos events (no new arrivals) until every
    /// queue is empty and every lane idle. Chaos events scheduled past
    /// that point stay un-fired.
    pub fn drain(&mut self) {
        self.run(None);
        debug_assert_eq!(self.backlog(), 0, "drain left queued work");
    }

    /// The event loop. With a `target` it offers arrivals until that many
    /// requests have been generated; without one it takes no arrivals and
    /// stops once the fleet is idle. Each step jumps to the earliest event
    /// (ties broken by [`EventKind`] order), accounts finished rounds,
    /// applies the event, then admits and dispatches at that quiesce point.
    fn run(&mut self, target: Option<u64>) {
        loop {
            let arrival_at = match target {
                Some(target) if self.arrivals.generated() >= target => return,
                Some(_) => Some(self.arrivals.peek()),
                None if self.backlog() == 0
                    && self.lanes.iter().all(|(_, _, lane)| lane.in_flight.is_empty()) =>
                {
                    return
                }
                None => None,
            };
            let next = [
                (EventKind::Completion, self.next_completion()),
                (EventKind::Chaos, self.next_chaos()),
                (EventKind::Refill, self.next_refill()),
                (EventKind::Arrival, arrival_at),
            ]
            .into_iter()
            .filter_map(|(kind, at)| Some((at?, kind)))
            .min();
            let Some((at, kind)) = next else { return };
            self.now = self.now.max(at);
            self.finish_rounds();
            match kind {
                EventKind::Arrival => {
                    let req = self.arrivals.next_request();
                    self.accept(req);
                }
                EventKind::Chaos => self.apply_next_chaos(),
                EventKind::Completion | EventKind::Refill => {}
            }
            self.drain_pending();
            self.try_dispatch();
        }
    }

    /// Quarantines a tenant: future arrivals shed at admission and every
    /// queued (pending or batched) request is shed as
    /// [`ShedReason::Quarantined`].
    pub fn quarantine_tenant(&mut self, tenant: u32) {
        if !self.quarantined.insert(tenant) {
            return;
        }
        self.hub.record(
            Severity::Error,
            "serve.quarantine",
            Some(tenant),
            None,
            "tenant quarantined at admission",
        );
        let mut stranded: Vec<Request> = self
            .pending
            .get_mut(&tenant)
            .map(|q| q.drain(..).collect())
            .unwrap_or_default();
        stranded.extend(self.batcher.drain_tenant(tenant));
        for req in stranded {
            self.shed(&req, ShedReason::Quarantined);
        }
    }

    /// Mirrors an externally observed quarantine set (e.g. from the
    /// sharded systems' PCIe-SCs) into admission control.
    #[doc(hidden)]
    pub fn sync_quarantine(&mut self, tenants: &[u32]) {
        for &t in tenants {
            self.quarantine_tenant(t);
        }
    }

    // --- reporting ------------------------------------------------------

    /// Point-in-time serving report.
    pub fn report(&self) -> FleetSnapshot {
        let tenants = self
            .stats
            .iter()
            .map(|(&tag, s)| TenantReport {
                tenant: tag,
                generated: s.generated,
                admitted: s.admitted,
                served: s.served,
                shed_rate_limited: s.shed_rate_limited,
                shed_queue_full: s.shed_queue_full,
                shed_quarantined: s.shed_quarantined,
                queued: self.pending.get(&tag).map_or(0, VecDeque::len) as u64
                    + self.batcher.queued_for(tag) as u64,
                queue_delay_us: Summary::try_from_samples(&s.queue_delay_us),
                e2e_us: Summary::try_from_samples(&s.e2e_us),
                idle: self.hub.idle_for_tenant(tag),
            })
            .collect();
        FleetSnapshot {
            schema: FLEET_SCHEMA,
            seed: self.config.seed,
            shards: self.config.shards,
            rate_limiting: self.config.rate_limiting,
            generated: self.arrivals.generated(),
            rounds: self.lanes.iter().map(|(_, _, lane)| lane.rounds).sum(),
            now: self.now,
            replicas: self.replicas(),
            chaos_events: self.chaos_applied,
            requeued: self.requeued,
            migrations: self.migrations,
            tenants,
            telemetry: self.hub.snapshot(),
        }
    }

    // --- snapshot/resume ------------------------------------------------

    /// Freezes the whole fleet — arrivals, buckets, queues, lane clocks,
    /// pins, stats and telemetry — into a resumable byte image.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut enc = Encoder::versioned();
        enc.put(&self.config.fingerprint());
        enc.put(&self.now);
        enc.put(&self.arrivals);
        enc.put(&self.limiter);
        enc.put(&self.pending);
        enc.put(&self.batcher);
        enc.put(&self.quarantined);
        let lanes: Vec<LaneImage> = self
            .lanes
            .iter()
            .map(|(id, routable, l)| (id, l.busy_until, l.rounds, !routable, l.in_flight.clone()))
            .collect();
        enc.put(&lanes);
        enc.put(self.lanes.pins());
        enc.put(&self.chaos);
        enc.put(&self.chaos_cursor);
        enc.put(&self.chaos_applied);
        enc.put(&self.requeued);
        enc.put(&self.migrations);
        enc.put(&self.stats);
        self.hub.encode_snapshot(&mut enc);
        enc.finish()
    }

    /// Rebuilds a fleet from a [`FleetServer::snapshot`] image.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] if the image is malformed or was taken under a
    /// different [`FleetConfig`] (fingerprint mismatch).
    pub fn resume(config: FleetConfig, bytes: &[u8]) -> Result<FleetServer, SnapshotError> {
        let mut dec = Decoder::versioned(bytes)?;
        if dec.get::<u64>()? != config.fingerprint() {
            return Err(SnapshotError::Invalid("fleet config fingerprint mismatch"));
        }
        let now = dec.get()?;
        let arrivals = dec.get()?;
        let limiter = dec.get()?;
        let pending = dec.get()?;
        let batcher = dec.get()?;
        let quarantined = dec.get()?;
        let lanes: Vec<LaneImage> = dec.get()?;
        let rows = lanes.into_iter().map(|(id, busy_until, rounds, draining, in_flight)| {
            (id, !draining, Lane { busy_until, rounds, in_flight })
        });
        let lanes = ReplicaSet::from_parts(rows, dec.get()?)
            .ok_or(SnapshotError::Invalid("fleet snapshot lanes or pins are malformed"))?;
        let chaos: ChaosPlan = dec.get()?;
        let chaos_cursor = dec.get()?;
        if chaos_cursor > chaos.len() {
            return Err(SnapshotError::Invalid("chaos cursor out of range"));
        }
        let chaos_applied = dec.get()?;
        let requeued = dec.get()?;
        let migrations = dec.get()?;
        let stats = dec.get()?;
        let hub = Telemetry::new(EVENT_CAPACITY);
        hub.restore_snapshot(&mut dec)?;
        dec.finish()?;
        Ok(FleetServer {
            config,
            hub,
            now,
            arrivals,
            limiter,
            pending,
            batcher,
            lanes,
            chaos,
            chaos_cursor,
            chaos_applied,
            requeued,
            migrations,
            quarantined,
            stats,
        })
    }
}

/// Per-tenant slice of a [`FleetSnapshot`].
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant tag.
    pub tenant: u32,
    /// Requests its arrival lane generated.
    pub generated: u64,
    /// Requests that cleared admission.
    pub admitted: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Sheds because the token bucket was dry.
    pub shed_rate_limited: u64,
    /// Sheds because the fleet backlog was full.
    pub shed_queue_full: u64,
    /// Sheds because the tenant was quarantined.
    pub shed_quarantined: u64,
    /// Requests still queued (pending admission or batched).
    pub queued: u64,
    /// Queue-delay distribution in microseconds (None until first serve).
    pub queue_delay_us: Option<Summary>,
    /// End-to-end latency distribution in microseconds.
    pub e2e_us: Option<Summary>,
    /// Idle/wait time charged to this tenant.
    pub idle: SimDuration,
}

/// Point-in-time fleet serving report with embedded telemetry.
#[derive(Debug, Clone)]
pub struct FleetSnapshot {
    /// Schema tag ([`FLEET_SCHEMA`]).
    pub schema: &'static str,
    /// Arrival seed the run was driven by.
    pub seed: u64,
    /// Service lanes.
    pub shards: u32,
    /// Whether rate limiting was active.
    pub rate_limiting: bool,
    /// Total requests generated.
    pub generated: u64,
    /// Pump rounds dispatched across all shards.
    pub rounds: u64,
    /// Fleet-loop time of the report.
    pub now: SimTime,
    /// Stable ids of the live (routable) replicas, ascending. Chaos
    /// events name their targets by these ids.
    pub replicas: Vec<u32>,
    /// Chaos events applied so far (skipped events excluded).
    pub chaos_events: u64,
    /// In-flight requests requeued by crash/unplug failovers.
    pub requeued: u64,
    /// Live tenant migrations applied.
    pub migrations: u64,
    /// Per-tenant breakdown, tag-ascending.
    pub tenants: Vec<TenantReport>,
    /// Full telemetry snapshot (per-tenant hop latencies included).
    pub telemetry: TelemetrySnapshot,
}

impl FleetSnapshot {
    /// Renders the report as deterministic JSON (keys in fixed order).
    pub fn to_json(&self) -> String {
        fn summary_json(s: &Option<Summary>) -> String {
            match s {
                None => "null".to_owned(),
                Some(s) => format!(
                    "{{ \"count\": {}, \"mean\": {:.3}, \"p50\": {:.3}, \"p99\": {:.3}, \"max\": {:.3} }}",
                    s.count(),
                    s.mean(),
                    s.p50(),
                    s.p99(),
                    s.max()
                ),
            }
        }
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{}\",\n", self.schema));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"rate_limiting\": {},\n", self.rate_limiting));
        out.push_str(&format!("  \"generated\": {},\n", self.generated));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        let replicas: Vec<String> = self.replicas.iter().map(u32::to_string).collect();
        out.push_str(&format!("  \"replicas\": [{}],\n", replicas.join(", ")));
        out.push_str(&format!(
            "  \"chaos\": {{ \"events\": {}, \"requeued\": {}, \"migrations\": {} }},\n",
            self.chaos_events, self.requeued, self.migrations
        ));
        out.push_str(&format!("  \"now_picos\": {},\n", self.now.as_picos()));
        out.push_str("  \"tenants\": [\n");
        for (i, t) in self.tenants.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"tenant\": {},\n", t.tenant));
            out.push_str(&format!("      \"generated\": {},\n", t.generated));
            out.push_str(&format!("      \"admitted\": {},\n", t.admitted));
            out.push_str(&format!("      \"served\": {},\n", t.served));
            out.push_str(&format!(
                "      \"shed\": {{ \"rate_limited\": {}, \"queue_full\": {}, \"quarantined\": {} }},\n",
                t.shed_rate_limited, t.shed_queue_full, t.shed_quarantined
            ));
            out.push_str(&format!("      \"queued\": {},\n", t.queued));
            out.push_str(&format!(
                "      \"queue_delay_us\": {},\n",
                summary_json(&t.queue_delay_us)
            ));
            out.push_str(&format!("      \"e2e_us\": {},\n", summary_json(&t.e2e_us)));
            out.push_str(&format!("      \"idle_picos\": {}\n", t.idle.as_picos()));
            out.push_str(if i + 1 == self.tenants.len() { "    }\n" } else { "    },\n" });
        }
        out.push_str("  ],\n");
        out.push_str("  \"telemetry\":\n");
        let telemetry = self.telemetry.to_json();
        for (i, line) in telemetry.lines().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            out.push_str("  ");
            out.push_str(line);
        }
        out.push('\n');
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(seed: u64, rate_limiting: bool) -> FleetConfig {
        let tenants = (0..4)
            .map(|i| TenantSpec::new(10 + i, SimDuration::from_millis(50), 8, 16))
            .collect();
        FleetConfig {
            seed,
            shards: 2,
            max_batch: 8,
            admission_backlog: 16,
            rate_limiting,
            model: LlmSpec::opt_1_3b(),
            device: XpuSpec::a100(),
            tenants,
        }
    }

    #[test]
    fn fleet_run_is_deterministic() {
        let run = |seed| {
            let mut f = FleetServer::new(small_config(seed, true));
            f.generate(400);
            f.drain();
            (f.telemetry().digest(), f.report().to_json())
        };
        let (d1, j1) = run(7);
        let (d2, j2) = run(7);
        assert_eq!(d1, d2, "same seed, same digest");
        assert_eq!(j1, j2, "same seed, same report");
        let (d3, _) = run(8);
        assert_ne!(d1, d3, "different seed, different digest");
    }

    #[test]
    fn every_generated_request_is_accounted() {
        let mut f = FleetServer::new(small_config(3, true));
        f.generate(500);
        f.drain();
        let report = f.report();
        for t in &report.tenants {
            assert_eq!(
                t.generated,
                t.served + t.shed_rate_limited + t.shed_queue_full + t.shed_quarantined,
                "tenant {} leaked requests",
                t.tenant
            );
            assert_eq!(t.queued, 0, "drain left work queued");
        }
        let total: u64 = report.tenants.iter().map(|t| t.generated).sum();
        assert_eq!(total, 500);
    }

    #[test]
    fn rate_limiting_changes_the_trace_but_not_determinism() {
        let digest = |rl| {
            let mut f = FleetServer::new(small_config(5, rl));
            f.generate(300);
            f.drain();
            f.telemetry().digest()
        };
        assert_eq!(digest(true), digest(true));
        assert_eq!(digest(false), digest(false));
        // An aggressive-enough run sheds under limiting, so traces differ.
        let mut tight = small_config(5, true);
        for t in &mut tight.tenants {
            t.burst = 1;
            t.rate_per_sec = 1;
        }
        let mut f = FleetServer::new(tight);
        f.generate(300);
        f.drain();
        let shed = f.telemetry().counter("serve.shed.rate_limited");
        assert!(shed > 0, "tight buckets must shed");
    }

    #[test]
    fn quarantined_tenant_sheds_typed_and_serves_nothing_more() {
        let mut f = FleetServer::new(small_config(9, true));
        f.generate(100);
        f.quarantine_tenant(11);
        f.generate(400);
        f.drain();
        let report = f.report();
        let victim = report.tenants.iter().find(|t| t.tenant == 11).unwrap();
        assert!(victim.shed_quarantined > 0, "quarantine must shed");
        assert_eq!(
            victim.generated,
            victim.served + victim.shed_rate_limited + victim.shed_queue_full
                + victim.shed_quarantined
        );
        assert!(f.telemetry().counter("serve.shed.quarantined") > 0);
    }

    #[test]
    fn snapshot_mid_flight_resumes_bit_identically() {
        let config = small_config(21, true);
        let mut straight = FleetServer::new(config.clone());
        straight.generate(600);
        straight.drain();

        let mut first = FleetServer::new(config.clone());
        first.generate(250);
        assert!(first.backlog() > 0, "mid-flight snapshot should have queued work");
        let image = first.snapshot();
        let mut second = FleetServer::resume(config, &image).unwrap();
        second.generate(600);
        second.drain();

        assert_eq!(straight.telemetry().digest(), second.telemetry().digest());
        assert_eq!(straight.report().to_json(), second.report().to_json());
    }

    #[test]
    fn resume_rejects_a_different_config() {
        let mut f = FleetServer::new(small_config(2, true));
        f.generate(50);
        let image = f.snapshot();
        let err = match FleetServer::resume(small_config(3, true), &image) {
            Ok(_) => panic!("resume must reject a different config"),
            Err(e) => e,
        };
        assert!(matches!(err, SnapshotError::Invalid(_)));
    }

    fn at_ms(ms: u64) -> SimTime {
        SimTime::from_picos(ms * 1_000_000_000)
    }

    fn skip_details(f: &FleetServer) -> Vec<String> {
        f.telemetry()
            .events()
            .into_iter()
            .filter(|e| e.kind == "fleet.chaos.skipped")
            .map(|e| e.detail)
            .collect()
    }

    #[test]
    fn refused_chaos_events_are_recorded_and_change_nothing() {
        let mut config = small_config(13, true);
        config.shards = 1;
        let run = |plan: ChaosPlan| {
            let mut f = FleetServer::new(config.clone());
            f.set_chaos_plan(plan);
            f.generate(300);
            f.drain();
            f
        };
        let refused = run(ChaosPlan::new(vec![
            (at_ms(100), ChaosEvent::Crash { replica: 7 }),
            (at_ms(200), ChaosEvent::Drain { replica: 0 }),
            (at_ms(300), ChaosEvent::HotPlug { replica: 0 }),
            (at_ms(400), ChaosEvent::Migrate { tenant: 10, to: 9 }),
            (at_ms(500), ChaosEvent::Migrate { tenant: 99, to: 0 }),
        ]));
        let clean = run(ChaosPlan::default());
        assert_eq!(refused.telemetry().events_dropped(), 0, "the ring kept every event");
        assert_eq!(
            skip_details(&refused),
            [
                "class=crash why=unknown",
                "class=drain why=last",
                "class=hot_plug why=duplicate",
                "class=migrate why=dead_target",
                "class=migrate why=unknown_tenant",
            ]
        );
        assert_eq!(refused.telemetry().counter("fleet.chaos.skipped"), 5);
        let (r, c) = (refused.report(), clean.report());
        assert_eq!(r.chaos_events, 0, "a refused event is not an applied one");
        assert_eq!(r.replicas, vec![0]);
        let served = |s: &FleetSnapshot| -> Vec<(u32, u64)> {
            s.tenants.iter().map(|t| (t.tenant, t.served)).collect()
        };
        assert_eq!(served(&r), served(&c), "refusals changed what was served");

        // A draining replica keeps its id until it retires: a blade plugged
        // under that id while the last round is in flight is a duplicate,
        // not a second lane.
        let mut f = FleetServer::new(small_config(13, true));
        f.set_chaos_plan(ChaosPlan::new(vec![
            (at_ms(1_000), ChaosEvent::Drain { replica: 1 }),
            (at_ms(1_000), ChaosEvent::HotPlug { replica: 1 }),
        ]));
        f.generate(300);
        f.drain();
        let chaos: Vec<(&str, String)> = f
            .telemetry()
            .events()
            .into_iter()
            .filter(|e| e.kind.starts_with("fleet.chaos."))
            .map(|e| (e.kind, e.detail))
            .collect();
        assert_eq!(
            chaos,
            [
                ("fleet.chaos.drain", "replica=1".to_owned()),
                ("fleet.chaos.skipped", "class=hot_plug why=duplicate".to_owned()),
                ("fleet.chaos.drain_complete", "replica=1".to_owned()),
            ]
        );
        assert_eq!(f.report().chaos_events, 1);
        assert_eq!(f.report().replicas, vec![0]);
    }

    #[test]
    fn report_json_has_the_pinned_keys() {
        let mut f = FleetServer::new(small_config(4, true));
        f.generate(200);
        f.drain();
        let json = f.report().to_json();
        for key in [
            "\"schema\": \"ccai.fleet.v1\"",
            "\"seed\":",
            "\"shards\":",
            "\"rate_limiting\":",
            "\"generated\":",
            "\"rounds\":",
            "\"replicas\":",
            "\"chaos\": { \"events\":",
            "\"requeued\":",
            "\"migrations\":",
            "\"now_picos\":",
            "\"tenants\":",
            "\"admitted\":",
            "\"served\":",
            "\"shed\":",
            "\"queue_delay_us\":",
            "\"e2e_us\":",
            "\"idle_picos\":",
            "\"telemetry\":",
            "\"schema\": \"ccai.telemetry.v2\"",
            "\"idle_by_tenant\":",
        ] {
            assert!(json.contains(key), "missing key {key} in:\n{json}");
        }
    }
}
