//! Deterministic, sim-clock-stamped telemetry.
//!
//! Every component on the TLP path (adaptor staging, PCIe-SC filter/crypto,
//! link transit, xPU DMA, driver retry/backoff) reports into one shared
//! [`Telemetry`] hub:
//!
//! * a **structured event stream** — a bounded ring of [`TelemetryEvent`]s
//!   with severity and per-tenant/per-stream tags, stamped with the hub's
//!   own virtual clock;
//! * a **metric registry** — monotonic counters plus an exact per-(tenant,
//!   hop) store of span durations, from which counts, totals and latency
//!   summaries are derived at read time;
//! * a **running trace digest** — a 64-bit FNV-1a fold over every event at
//!   record time, so the digest covers the full event sequence even after
//!   the ring has evicted old entries. Two runs with the same seed must
//!   produce the same digest; this is what the golden-trace suite pins.
//!
//! The hub owns the virtual clock for the functional datapath, and time can
//! only move through [`Telemetry::advance_span`] (attributed to a [`Hop`])
//! or [`Telemetry::advance_idle`] (attributed to backoff/starvation). As a
//! consequence the invariant
//!
//! ```text
//! Σ span durations + Σ idle durations == clock.now()
//! ```
//!
//! holds *by construction*, which the metric-invariant tests exploit.
//!
//! Cloning a [`Telemetry`] clones a handle to the same hub (the simulation
//! is single-threaded; the handle is deliberately not `Send`).

use crate::hash::{fnv1a, DetHashMap, FNV_OFFSET};
use crate::snapshot::{Decoder, Encoder, SnapshotError, SnapshotState};
use crate::stats::{Histogram, Summary};
use crate::time::{SimDuration, SimTime};
use crate::Clock;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::fmt::Write as _;
use std::rc::Rc;

/// Severity of a telemetry event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Fine-grained diagnostic detail.
    Debug,
    /// Normal datapath progress.
    Info,
    /// Recoverable anomaly (injected fault, retry, crypt failure).
    Warn,
    /// Security-relevant or unrecoverable condition (quarantine, abort).
    Error,
}

impl Severity {
    /// Stable lowercase name, used in JSON output and the trace digest.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A datapath stage that latency spans are attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Hop {
    /// Adaptor: staging-buffer management, doorbells, tag/metadata MMIO.
    AdaptorStage,
    /// Adaptor: AES-GCM seal/open of transfer chunks.
    AdaptorCrypt,
    /// PCIe-SC: per-TLP filter classification (actions A1–A4).
    ScFilter,
    /// PCIe-SC: inline decrypt/encrypt of protected traffic.
    ScCrypt,
    /// PCIe link transit time for TLPs crossing the fabric.
    Link,
    /// xPU DMA engine moving payload into/out of device memory.
    Dma,
}

crate::snapshot_state!(enum Hop: "hop index" {
    AdaptorStage = 0,
    AdaptorCrypt = 1,
    ScFilter = 2,
    ScCrypt = 3,
    Link = 4,
    Dma = 5,
});

/// All hops, in snapshot order.
pub const ALL_HOPS: [Hop; 6] = [
    Hop::AdaptorStage,
    Hop::AdaptorCrypt,
    Hop::ScFilter,
    Hop::ScCrypt,
    Hop::Link,
    Hop::Dma,
];

impl Hop {
    /// Stable snake_case name, used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Hop::AdaptorStage => "adaptor_stage",
            Hop::AdaptorCrypt => "adaptor_crypt",
            Hop::ScFilter => "sc_filter",
            Hop::ScCrypt => "sc_crypt",
            Hop::Link => "link",
            Hop::Dma => "dma",
        }
    }
}

impl fmt::Display for Hop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured, sim-clock-stamped event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Monotonic sequence number (never reused, survives ring eviction).
    pub seq: u64,
    /// Hub clock time at record.
    pub at: SimTime,
    /// Event severity.
    pub severity: Severity,
    /// Stable event kind, e.g. `"adaptor.retry"` or `"sc.quarantine"`.
    pub kind: &'static str,
    /// Owning tenant (encoded BDF), if attributable.
    pub tenant: Option<u32>,
    /// Owning stream id, if attributable.
    pub stream: Option<u64>,
    /// Free-form detail (deterministic content only).
    pub detail: String,
}

/// Exact record of the spans charged to one `(tenant, hop)` key: span
/// duration in picoseconds → number of spans that lasted exactly that
/// long. Spans are calibrated functions of transfer sizes, so a store
/// grows with the number of *distinct* durations, not with the number of
/// spans; counts, totals and summaries are derived from it on read.
type SpanStore = BTreeMap<u64, u64>;

fn store_total(store: &SpanStore) -> SimDuration {
    store
        .iter()
        .map(|(&picos, &n)| SimDuration::from_picos(picos) * n)
        .sum()
}

/// Latency summary of a store, in microseconds; `None` when it is empty.
fn store_summary_us(store: &SpanStore) -> Option<Summary> {
    let runs: Vec<(f64, u64)> = store
        .iter()
        .map(|(&picos, &n)| (SimDuration::from_picos(picos).as_secs_f64() * 1e6, n))
        .collect();
    Summary::try_from_runs(&runs)
}

fn hop_report(hop: Hop, store: &SpanStore) -> HopReport {
    HopReport {
        hop,
        count: store.values().sum(),
        total: store_total(store),
        summary_us: store_summary_us(store),
    }
}

/// The spans of one `(tenant, hop)` key: the exact store, and in front of
/// it the latest run of equal durations. A hop charges the same
/// calibrated duration many times in a row (every control TLP crosses the
/// link in the same time), so a span usually just lengthens the run; the
/// run folds into the store when another duration arrives or a reader
/// needs the store.
#[derive(Default)]
struct SpanLane {
    store: SpanStore,
    run_picos: u64,
    run_len: u64,
}

impl SpanLane {
    fn add(&mut self, picos: u64) {
        if picos != self.run_picos || self.run_len == 0 {
            self.fold();
            self.run_picos = picos;
        }
        self.run_len += 1;
    }

    fn fold(&mut self) {
        if self.run_len > 0 {
            *self.store.entry(self.run_picos).or_insert(0) += self.run_len;
            self.run_len = 0;
        }
    }
}

/// One tenant tag's lanes, indexed by hop.
type Lanes = [SpanLane; ALL_HOPS.len()];

/// Every span, recorded once under its tenant tag (`None` when untagged)
/// and hop: the untagged lanes, then one row of lanes per tag, ascending
/// by tag (the key order the snapshot codec writes). Untagged link spans
/// interleave with every tenant's spans, so they need no lookup; a tag
/// tries the row charged last before a binary search. Per-hop figures
/// merge all tenants on read, so fleet runs can report p50/p99 hop
/// latency both globally and per tenant from one record.
#[derive(Default)]
struct SpanTable {
    untagged: Lanes,
    tagged: Vec<(u32, Lanes)>,
    last: usize,
}

impl SpanTable {
    fn add(&mut self, tenant: Option<u32>, hop: Hop, picos: u64) {
        let lanes = match tenant {
            None => &mut self.untagged,
            Some(tag) => {
                if self.tagged.get(self.last).is_none_or(|(t, _)| *t != tag) {
                    self.last = match self.tagged.binary_search_by_key(&tag, |(t, _)| *t) {
                        Ok(row) => row,
                        Err(row) => {
                            self.tagged.insert(row, (tag, Lanes::default()));
                            row
                        }
                    };
                }
                &mut self.tagged[self.last].1
            }
        };
        lanes[hop as usize].add(picos);
    }

    /// Folds every run into its store; the readers below see exact
    /// stores only, so call this first.
    fn fold(&mut self) -> &Self {
        let tagged = self.tagged.iter_mut().map(|(_, lanes)| lanes);
        for lanes in std::iter::once(&mut self.untagged).chain(tagged) {
            lanes.iter_mut().for_each(SpanLane::fold);
        }
        self
    }

    /// Every non-empty store with its key, in ascending key order.
    fn stores(&self) -> impl Iterator<Item = ((Option<u32>, Hop), &SpanStore)> {
        let tagged = self.tagged.iter().map(|(tag, lanes)| (Some(*tag), lanes));
        std::iter::once((None, &self.untagged)).chain(tagged).flat_map(|(tenant, lanes)| {
            ALL_HOPS
                .iter()
                .zip(lanes)
                .filter(|(_, lane)| !lane.store.is_empty())
                .map(move |(&hop, lane)| ((tenant, hop), &lane.store))
        })
    }

    fn store(&self, tenant: Option<u32>, hop: Hop) -> Option<&SpanStore> {
        let lanes = match tenant {
            None => &self.untagged,
            Some(tag) => &self.tagged[self.tagged.binary_search_by_key(&tag, |(t, _)| *t).ok()?].1,
        };
        Some(&lanes[hop as usize].store)
    }

    fn tenants(&self) -> impl Iterator<Item = u32> + '_ {
        self.tagged.iter().map(|(tag, _)| *tag)
    }

    /// Writes the stores exactly like a map from `(tenant, hop)` to store.
    fn encode(&mut self, enc: &mut Encoder) {
        self.fold();
        enc.u64(self.stores().count() as u64);
        for (key, store) in self.stores() {
            key.encode_state(enc);
            store.encode_state(enc);
        }
    }

    /// Reads what [`SpanTable::encode`] wrote, refusing non-canonical
    /// stores (the codec already refuses unsorted keys): no empty store,
    /// no zero count, every store's total representable.
    fn decode(dec: &mut Decoder<'_>) -> Result<SpanTable, SnapshotError> {
        let spans: BTreeMap<(Option<u32>, Hop), SpanStore> = dec.get()?;
        let mut table = SpanTable::default();
        for ((tenant, hop), store) in spans {
            if store.is_empty() {
                return Err(SnapshotError::Invalid("empty span store"));
            }
            if store.values().any(|&n| n == 0) {
                return Err(SnapshotError::Invalid("zero span count"));
            }
            store
                .iter()
                .try_fold(0u64, |total, (&picos, &n)| {
                    picos.checked_mul(n).and_then(|t| t.checked_add(total))
                })
                .ok_or(SnapshotError::Invalid("span total overflows"))?;
            let lanes = match tenant {
                None => &mut table.untagged,
                Some(tag) => {
                    if table.tagged.last().is_none_or(|(t, _)| *t != tag) {
                        table.tagged.push((tag, Lanes::default()));
                    }
                    &mut table.tagged.last_mut().expect("pushed above").1
                }
            };
            lanes[hop as usize].store = store;
        }
        Ok(table)
    }
}

fn fnv1a_u64(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

/// Folds one event into a running trace digest.
fn fold_event(mut h: u64, event: &TelemetryEvent) -> u64 {
    h = fnv1a_u64(h, event.seq);
    h = fnv1a_u64(h, event.at.as_picos());
    h = fnv1a(h, event.severity.as_str().as_bytes());
    h = fnv1a(h, event.kind.as_bytes());
    h = fnv1a_u64(h, event.tenant.map_or(0, |t| u64::from(t) + 1));
    h = fnv1a_u64(h, event.stream.map_or(0, |s| s.wrapping_add(1)));
    fnv1a(h, event.detail.as_bytes())
}

/// Named metrics, stored in first-touch order. A `'static` name finds its
/// slot by its address and length: a `'static` str is never freed, so an
/// equal key is the same name, and a hit neither compares nor allocates a
/// string. A direct-mapped cache of recent keys answers a hot name with
/// one compare; behind it `slots` maps every key resolved so far, and a
/// miss there (first touch, or the same text at another address)
/// searches `entries` by text once. Every reader sorts, so order of
/// first touch is never observable.
struct Registry<T> {
    entries: Vec<(String, T)>,
    recent: [(usize, usize, usize); RECENT_LINES],
    slots: DetHashMap<(usize, usize), usize>,
}

/// Lines of [`Registry`]'s recent-key cache (a power of two).
const RECENT_LINES: usize = 64;

impl<T> Default for Registry<T> {
    fn default() -> Self {
        // Address 0 is never a str's, so no key matches an unused line.
        Registry { entries: Vec::new(), recent: [(0, 0, 0); RECENT_LINES], slots: DetHashMap::default() }
    }
}

impl<T> Registry<T> {
    fn slot(&mut self, name: &'static str, init: impl FnOnce() -> T) -> &mut T {
        let key = (name.as_ptr() as usize, name.len());
        let line = ((key.0 ^ key.1).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 58) % RECENT_LINES;
        let (ptr, len, hit) = self.recent[line];
        let i = if (ptr, len) == key {
            hit
        } else {
            let i = match self.slots.get(&key) {
                Some(&i) => i,
                None => {
                    let i = self.index(name, init);
                    self.slots.insert(key, i);
                    i
                }
            };
            self.recent[line] = (key.0, key.1, i);
            i
        };
        &mut self.entries[i].1
    }

    /// Slot of a name that may not be `'static`, found by text.
    fn index(&mut self, name: &str, init: impl FnOnce() -> T) -> usize {
        self.entries.iter().position(|(n, _)| n == name).unwrap_or_else(|| {
            self.entries.push((name.to_owned(), init()));
            self.entries.len() - 1
        })
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.entries.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    fn sorted(&self) -> Vec<&(String, T)> {
        let mut rows: Vec<_> = self.entries.iter().collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

/// Written exactly like a `BTreeMap<String, T>` of the same entries.
impl<T: SnapshotState> SnapshotState for Registry<T> {
    fn encode_state(&self, enc: &mut Encoder) {
        let rows = self.sorted();
        enc.u64(rows.len() as u64);
        for (name, value) in rows {
            name.encode_state(enc);
            value.encode_state(enc);
        }
    }

    fn decode_state(dec: &mut Decoder<'_>) -> Result<Self, SnapshotError> {
        let entries = BTreeMap::<String, T>::decode_state(dec)?.into_iter().collect();
        Ok(Registry { entries, ..Registry::default() })
    }
}

struct TelemetryInner {
    clock: Clock,
    capacity: usize,
    events: VecDeque<TelemetryEvent>,
    events_recorded: u64,
    events_dropped: u64,
    digest: u64,
    counters: Registry<u64>,
    histograms: Registry<Histogram>,
    spans: SpanTable,
    idle_total: SimDuration,
    idle_by_tenant: BTreeMap<u32, SimDuration>,
}

/// Shared handle to the telemetry hub. Cheap to clone; all clones observe
/// and advance the same clock, event ring, and metric registry.
#[derive(Clone)]
pub struct Telemetry {
    inner: Rc<RefCell<TelemetryInner>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Telemetry")
            .field("now", &inner.clock.now())
            .field("events_recorded", &inner.events_recorded)
            .field("digest", &format_args!("{:016x}", inner.digest))
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new(Telemetry::DEFAULT_CAPACITY)
    }
}

impl Telemetry {
    /// Default event-ring capacity.
    pub const DEFAULT_CAPACITY: usize = 4096;

    /// Creates a hub whose event ring keeps the most recent `capacity`
    /// events (older ones are evicted but still counted and digested).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "telemetry ring needs capacity");
        Telemetry {
            inner: Rc::new(RefCell::new(TelemetryInner {
                clock: Clock::new(),
                capacity,
                events: VecDeque::with_capacity(capacity.min(1024)),
                events_recorded: 0,
                events_dropped: 0,
                digest: FNV_OFFSET,
                counters: Registry::default(),
                histograms: Registry::default(),
                spans: SpanTable::default(),
                idle_total: SimDuration::ZERO,
                idle_by_tenant: BTreeMap::new(),
            })),
        }
    }

    /// Current hub virtual time.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().clock.now()
    }

    /// Records a structured event, stamped with the hub clock, and folds it
    /// into the running trace digest.
    pub fn record(
        &self,
        severity: Severity,
        kind: &'static str,
        tenant: Option<u32>,
        stream: Option<u64>,
        detail: impl Into<String>,
    ) {
        let mut inner = self.inner.borrow_mut();
        let event = TelemetryEvent {
            seq: inner.events_recorded,
            at: inner.clock.now(),
            severity,
            kind,
            tenant,
            stream,
            detail: detail.into(),
        };
        inner.digest = fold_event(inner.digest, &event);
        inner.events_recorded += 1;
        if inner.events.len() == inner.capacity {
            inner.events.pop_front();
            inner.events_dropped += 1;
        }
        inner.events.push_back(event);
    }

    /// Adds `delta` to the named monotonic counter (created at zero).
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        *self.inner.borrow_mut().counters.slot(name, || 0) += delta;
    }

    /// [`Telemetry::counter_add`] for a name built at run time (a
    /// per-tenant counter). It finds the counter by comparing names, so
    /// keep it off per-TLP paths.
    pub fn counter_add_named(&self, name: &str, delta: u64) {
        let mut inner = self.inner.borrow_mut();
        let i = inner.counters.index(name, || 0);
        inner.counters.entries[i].1 += delta;
    }

    /// Current value of a counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner.borrow().counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, in deterministic (lexicographic) order.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.inner
            .borrow()
            .counters
            .sorted()
            .into_iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Range of the named-histogram buckets (sized for batch/packet
    /// counts; larger values land in the overflow bucket).
    pub const NAMED_HISTOGRAM_RANGE: f64 = 1024.0;

    /// Records `value` into the named histogram (created on first use,
    /// spanning `0..NAMED_HISTOGRAM_RANGE` over 64 buckets).
    ///
    /// Named histograms are observability-only: they never feed the trace
    /// digest and never advance the hub clock, so hot paths (e.g. the
    /// SC's batch pump) can record into them without perturbing golden
    /// traces.
    pub fn histogram_record(&self, name: &'static str, value: f64) {
        self.inner
            .borrow_mut()
            .histograms
            .slot(name, || Histogram::new(0.0, Self::NAMED_HISTOGRAM_RANGE, 64))
            .record(value);
    }

    /// Copy of the named histogram, if it has recorded any samples.
    #[doc(hidden)]
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.inner.borrow().histograms.get(name).cloned()
    }

    /// Advances the hub clock by `d`, attributing the time to `hop`.
    ///
    /// The span is recorded once, under `tenant` when given, so
    /// contention experiments can read per-tenant p50/p99 hop latency from
    /// one shared hub while the global per-hop view still sees every span.
    pub fn advance_span(&self, hop: Hop, tenant: Option<u32>, d: SimDuration) {
        let mut inner = self.inner.borrow_mut();
        inner.clock.advance(d);
        inner.spans.add(tenant, hop, d.as_picos());
    }

    /// Advances the hub clock by `d`, attributing the time to idle/backoff
    /// (charged against `tenant` when given).
    pub fn advance_idle(&self, tenant: Option<u32>, d: SimDuration) {
        let mut inner = self.inner.borrow_mut();
        inner.clock.advance(d);
        inner.idle_total += d;
        if let Some(t) = tenant {
            *inner.idle_by_tenant.entry(t).or_insert(SimDuration::ZERO) += d;
        }
    }

    /// Idles until `deadline` (no-op if already past), charging the wait as
    /// idle time against `tenant`. Returns the time actually waited.
    pub fn idle_until(&self, deadline: SimTime, tenant: Option<u32>) -> SimDuration {
        let waited = {
            let mut inner = self.inner.borrow_mut();
            inner.clock.advance_to(deadline)
        };
        if !waited.is_zero() {
            let mut inner = self.inner.borrow_mut();
            inner.idle_total += waited;
            if let Some(t) = tenant {
                *inner.idle_by_tenant.entry(t).or_insert(SimDuration::ZERO) += waited;
            }
        }
        waited
    }

    /// Running FNV-1a digest over the full event sequence.
    pub fn digest(&self) -> u64 {
        self.inner.borrow().digest
    }

    /// Digest as a fixed-width hex string.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest())
    }

    /// Events currently held in the ring (oldest first).
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.inner.borrow().events.iter().cloned().collect()
    }

    /// Total events ever recorded (including evicted ones).
    pub fn events_recorded(&self) -> u64 {
        self.inner.borrow().events_recorded
    }

    /// Events evicted from the ring.
    pub fn events_dropped(&self) -> u64 {
        self.inner.borrow().events_dropped
    }

    /// Sum of all span durations across hops.
    pub fn span_total(&self) -> SimDuration {
        let mut inner = self.inner.borrow_mut();
        inner.spans.fold().stores().map(|(_, store)| store_total(store)).sum()
    }

    /// Total idle/backoff time.
    pub fn idle_total(&self) -> SimDuration {
        self.inner.borrow().idle_total
    }

    /// Idle/backoff time charged against one tenant.
    pub fn idle_for_tenant(&self, tenant: u32) -> SimDuration {
        self.inner
            .borrow()
            .idle_by_tenant
            .get(&tenant)
            .copied()
            .unwrap_or(SimDuration::ZERO)
    }

    /// Latency summary (microseconds) for one tenant's spans on one hop,
    /// if that tenant has recorded any.
    #[doc(hidden)]
    pub fn tenant_hop_summary(&self, tenant: u32, hop: Hop) -> Option<Summary> {
        let mut inner = self.inner.borrow_mut();
        inner.spans.fold().store(Some(tenant), hop).and_then(store_summary_us)
    }

    /// Serializes the hub's full resumable state: clock, trace digest,
    /// event accounting, counters, named histograms, per-hop latency
    /// stats and idle attribution. The event *ring* is deliberately not
    /// captured — event kinds are `&'static str` and cannot be
    /// reconstructed from bytes — so a restored hub starts with an empty
    /// ring but continues the digest, clock and metrics bit-exactly.
    pub fn encode_snapshot(&self, enc: &mut Encoder) {
        let mut inner = self.inner.borrow_mut();
        enc.put(&inner.clock);
        enc.put(&inner.capacity);
        enc.put(&inner.events_recorded);
        enc.put(&inner.events_dropped);
        enc.put(&inner.digest);
        enc.put(&inner.counters);
        enc.put(&inner.histograms);
        inner.spans.encode(enc);
        enc.put(&inner.idle_total);
        enc.put(&inner.idle_by_tenant);
    }

    /// Overwrites the hub's state from a snapshot produced by
    /// [`Telemetry::encode_snapshot`]. Every clone of this handle
    /// observes the restored state (the hub is shared). The event ring
    /// is cleared; digest, clock and metrics resume exactly.
    ///
    /// # Errors
    ///
    /// Any [`crate::snapshot::SnapshotError`] on corrupt input; the hub
    /// is left untouched on failure.
    pub fn restore_snapshot(
        &self,
        dec: &mut Decoder<'_>,
    ) -> Result<(), SnapshotError> {
        let clock: Clock = dec.get()?;
        let capacity: usize = dec.get()?;
        if capacity == 0 {
            return Err(SnapshotError::Invalid("telemetry ring capacity"));
        }
        let events_recorded = dec.get()?;
        let events_dropped = dec.get()?;
        let digest = dec.get()?;
        let counters = dec.get()?;
        let histograms = dec.get()?;
        let spans = SpanTable::decode(dec)?;
        let idle_total = dec.get()?;
        let idle_by_tenant = dec.get()?;
        *self.inner.borrow_mut() = TelemetryInner {
            clock,
            capacity,
            events: VecDeque::with_capacity(capacity.min(1024)),
            events_recorded,
            events_dropped,
            digest,
            counters,
            histograms,
            spans,
            idle_total,
            idle_by_tenant,
        };
        Ok(())
    }

    /// Point-in-time copy of the metric registry and trace digest.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut inner = self.inner.borrow_mut();
        let spans = inner.spans.fold();
        let mut merged: [SpanStore; ALL_HOPS.len()] = Default::default();
        for ((_, hop), store) in spans.stores() {
            let global = &mut merged[hop as usize];
            for (&picos, &n) in store {
                *global.entry(picos).or_insert(0) += n;
            }
        }
        let hops = ALL_HOPS.iter().zip(&merged).map(|(&hop, store)| hop_report(hop, store)).collect();
        let empty = SpanStore::new();
        let tenants = spans
            .tenants()
            .map(|tenant| TenantHopReport {
                tenant,
                hops: ALL_HOPS
                    .iter()
                    .map(|&hop| hop_report(hop, spans.store(Some(tenant), hop).unwrap_or(&empty)))
                    .collect(),
            })
            .collect();
        let span_total = merged.iter().map(store_total).sum();
        TelemetrySnapshot {
            now: inner.clock.now(),
            digest: inner.digest,
            events_recorded: inner.events_recorded,
            events_dropped: inner.events_dropped,
            counters: inner
                .counters
                .sorted()
                .into_iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            hops,
            tenants,
            span_total,
            idle_total: inner.idle_total,
            idle_by_tenant: inner
                .idle_by_tenant
                .iter()
                .map(|(k, v)| (*k, *v))
                .collect(),
        }
    }
}

/// Per-hop latency report inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct HopReport {
    /// Which datapath stage.
    pub hop: Hop,
    /// Number of spans attributed to the hop.
    pub count: u64,
    /// Total sim time attributed to the hop.
    pub total: SimDuration,
    /// Latency summary over span durations in microseconds; `None` when the
    /// hop saw no spans (a tenant with zero completed transfers must not
    /// abort the report).
    pub summary_us: Option<Summary>,
}

/// Per-tenant break-out of the hop reports inside a [`TelemetrySnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantHopReport {
    /// Tenant tag (encoded BDF).
    pub tenant: u32,
    /// Per-hop latency reports for this tenant, in [`ALL_HOPS`] order.
    pub hops: Vec<HopReport>,
}

/// Schema identifier written into every snapshot JSON document.
///
/// v2 added the per-tenant `"tenants"` hop-latency section.
pub const SNAPSHOT_SCHEMA: &str = "ccai.telemetry.v2";

/// Point-in-time export of the telemetry registry.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// Hub clock at snapshot time (equals measured end-to-end time).
    pub now: SimTime,
    /// Running trace digest at snapshot time.
    pub digest: u64,
    /// Total events recorded.
    pub events_recorded: u64,
    /// Events evicted from the ring.
    pub events_dropped: u64,
    /// Monotonic counters, lexicographically ordered.
    pub counters: Vec<(String, u64)>,
    /// Per-hop latency reports, in [`ALL_HOPS`] order.
    pub hops: Vec<HopReport>,
    /// Per-tenant hop reports for every tenant with tagged spans, ordered
    /// by tenant tag.
    pub tenants: Vec<TenantHopReport>,
    /// Sum of all hop totals.
    pub span_total: SimDuration,
    /// Total idle/backoff time.
    pub idle_total: SimDuration,
    /// Idle/backoff time per tenant (encoded BDF), ordered by tenant.
    pub idle_by_tenant: Vec<(u32, SimDuration)>,
}

impl TelemetrySnapshot {
    /// Trace digest as a fixed-width hex string.
    pub fn digest_hex(&self) -> String {
        format!("{:016x}", self.digest)
    }

    /// Renders the snapshot as a JSON document.
    ///
    /// The vendored `serde` stand-in is a no-op, so this serializer is
    /// written by hand. The key set is pinned by the snapshot-schema CI
    /// check.
    pub fn to_json(&self) -> String {
        fn write_hops(out: &mut String, hops: &[HopReport], indent: &str) {
            for (i, hop) in hops.iter().enumerate() {
                let comma = if i + 1 < hops.len() { "," } else { "" };
                let _ = writeln!(out, "{indent}{{");
                let _ = writeln!(out, "{indent}  \"hop\": \"{}\",", hop.hop);
                let _ = writeln!(out, "{indent}  \"count\": {},", hop.count);
                let _ = writeln!(out, "{indent}  \"total_picos\": {},", hop.total.as_picos());
                match &hop.summary_us {
                    Some(s) => {
                        let _ = writeln!(
                            out,
                            "{indent}  \"latency_us\": {{\"mean\": {:.6}, \"min\": {:.6}, \"p50\": {:.6}, \"p95\": {:.6}, \"p99\": {:.6}, \"max\": {:.6}}}",
                            s.mean(),
                            s.min(),
                            s.p50(),
                            s.p95(),
                            s.p99(),
                            s.max()
                        );
                    }
                    None => {
                        let _ = writeln!(out, "{indent}  \"latency_us\": null");
                    }
                }
                let _ = writeln!(out, "{indent}}}{comma}");
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{SNAPSHOT_SCHEMA}\",");
        let _ = writeln!(out, "  \"now_picos\": {},", self.now.as_picos());
        let _ = writeln!(out, "  \"trace_digest\": \"{}\",", self.digest_hex());
        let _ = writeln!(out, "  \"events_recorded\": {},", self.events_recorded);
        let _ = writeln!(out, "  \"events_dropped\": {},", self.events_dropped);
        let _ = writeln!(out, "  \"counters\": {{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{name}\": {value}{comma}");
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"hops\": [");
        write_hops(&mut out, &self.hops, "    ");
        let _ = writeln!(out, "  ],");
        let _ = writeln!(out, "  \"tenants\": {{");
        for (i, tenant) in self.tenants.iter().enumerate() {
            let comma = if i + 1 < self.tenants.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{}\": [", tenant.tenant);
            write_hops(&mut out, &tenant.hops, "      ");
            let _ = writeln!(out, "    ]{comma}");
        }
        let _ = writeln!(out, "  }},");
        let _ = writeln!(out, "  \"span_total_picos\": {},", self.span_total.as_picos());
        let _ = writeln!(out, "  \"idle_total_picos\": {},", self.idle_total.as_picos());
        let _ = writeln!(out, "  \"idle_by_tenant\": {{");
        for (i, (tenant, idle)) in self.idle_by_tenant.iter().enumerate() {
            let comma = if i + 1 < self.idle_by_tenant.len() { "," } else { "" };
            let _ = writeln!(out, "    \"{tenant}\": {}{comma}", idle.as_picos());
        }
        let _ = writeln!(out, "  }}");
        let _ = writeln!(out, "}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Telemetry {
        /// Tenants that have at least one tagged span, in ascending tag order.
        fn span_tenants(&self) -> Vec<u32> {
            self.inner.borrow().spans.tenants().collect()
        }
    }

    fn drive(t: &Telemetry) {
        t.record(Severity::Info, "test.start", None, None, "");
        t.advance_span(Hop::AdaptorCrypt, Some(1), SimDuration::from_micros(12));
        t.counter_add("test.blocks", 3);
        t.record(Severity::Warn, "test.retry", Some(1), Some(7), "attempt=1");
        t.advance_idle(Some(1), SimDuration::from_micros(50));
        t.advance_span(Hop::Dma, Some(1), SimDuration::from_micros(8));
        t.record(Severity::Info, "test.done", Some(1), None, "");
    }

    #[test]
    fn identical_sequences_produce_identical_digests() {
        let a = Telemetry::new(64);
        let b = Telemetry::new(64);
        drive(&a);
        drive(&b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.digest_hex(), b.digest_hex());
    }

    #[test]
    fn any_field_change_perturbs_the_digest() {
        let a = Telemetry::new(64);
        let b = Telemetry::new(64);
        a.record(Severity::Info, "k", Some(1), None, "x");
        b.record(Severity::Info, "k", Some(2), None, "x");
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn ring_eviction_does_not_change_the_digest() {
        let small = Telemetry::new(2);
        let large = Telemetry::new(1024);
        for t in [&small, &large] {
            for i in 0..10 {
                t.record(Severity::Debug, "evict.me", None, Some(i), "");
            }
        }
        assert_eq!(small.digest(), large.digest());
        assert_eq!(small.events().len(), 2);
        assert_eq!(small.events_dropped(), 8);
        assert_eq!(small.events_recorded(), 10);
    }

    #[test]
    fn spans_plus_idle_equal_elapsed_time() {
        let t = Telemetry::new(64);
        drive(&t);
        assert_eq!(t.span_total() + t.idle_total(), t.now().duration_since(SimTime::ZERO));
        assert_eq!(t.idle_for_tenant(1), SimDuration::from_micros(50));
    }

    #[test]
    fn idle_until_charges_only_forward_waits() {
        let t = Telemetry::new(64);
        t.advance_span(Hop::Link, None, SimDuration::from_micros(10));
        let deadline = SimTime::ZERO + SimDuration::from_micros(25);
        assert_eq!(t.idle_until(deadline, Some(9)), SimDuration::from_micros(15));
        assert_eq!(t.idle_until(deadline, Some(9)), SimDuration::ZERO);
        assert_eq!(t.idle_for_tenant(9), SimDuration::from_micros(15));
        assert_eq!(t.now(), deadline);
    }

    #[test]
    fn counters_are_create_on_write_and_ordered() {
        let t = Telemetry::new(64);
        t.counter_add("z.last", 1);
        t.counter_add("a.first", 2);
        t.counter_add("a.first", 3);
        assert_eq!(t.counter("a.first"), 5);
        assert_eq!(t.counter("missing"), 0);
        let names: Vec<String> = t.counters().into_iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a.first".to_string(), "z.last".to_string()]);
    }

    #[test]
    fn snapshot_reports_every_hop_and_serializes() {
        let t = Telemetry::new(64);
        drive(&t);
        let snap = t.snapshot();
        assert_eq!(snap.hops.len(), ALL_HOPS.len());
        let crypt = snap.hops.iter().find(|h| h.hop == Hop::AdaptorCrypt).unwrap();
        assert_eq!(crypt.count, 1);
        assert!(crypt.summary_us.is_some());
        let link = snap.hops.iter().find(|h| h.hop == Hop::Link).unwrap();
        assert_eq!(link.count, 0);
        assert!(link.summary_us.is_none(), "empty hop must not abort the report");
        let json = snap.to_json();
        for key in [
            "\"schema\"",
            "\"trace_digest\"",
            "\"counters\"",
            "\"hops\"",
            "\"span_total_picos\"",
            "\"idle_total_picos\"",
            "\"idle_by_tenant\"",
            "\"latency_us\"",
            "\"tenants\"",
        ] {
            assert!(json.contains(key), "snapshot JSON missing {key}");
        }
        assert!(json.contains(SNAPSHOT_SCHEMA));
    }

    #[test]
    fn snapshot_restore_resumes_digest_clock_and_metrics() {
        let a = Telemetry::new(64);
        drive(&a);
        let mut enc = crate::snapshot::Encoder::new();
        a.encode_snapshot(&mut enc);
        let bytes = enc.finish();

        let b = Telemetry::new(64);
        b.record(Severity::Info, "noise.to.wipe", None, None, "pre-restore");
        let mut dec = crate::snapshot::Decoder::new(&bytes);
        b.restore_snapshot(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.now(), b.now());
        // Identical continuations stay identical.
        drive(&a);
        drive(&b);
        assert_eq!(a.digest(), b.digest());
        assert_eq!(a.now(), b.now());
        assert_eq!(a.counters(), b.counters());
        assert_eq!(a.span_total(), b.span_total());
        assert_eq!(a.idle_total(), b.idle_total());
        assert_eq!(a.idle_for_tenant(1), b.idle_for_tenant(1));
    }

    #[test]
    fn a_restored_hub_counts_like_its_source() {
        let source = Telemetry::new(64);
        source.counter_add("a.first", 1);
        source.counter_add("m.mid", 2);
        source.histogram_record("h.batch", 3.0);
        source.advance_span(Hop::Link, Some(2), SimDuration::from_nanos(5));
        let mut enc = crate::snapshot::Encoder::new();
        source.encode_snapshot(&mut enc);
        let bytes = enc.finish();

        // The target resolved other names to slots first, so each slot it
        // cached points at another name once the restore lays down the
        // source's registry.
        let target = Telemetry::new(64);
        target.counter_add("m.mid", 5);
        target.counter_add("z.only_here", 1);
        target.histogram_record("h.other", 1.0);
        target.histogram_record("h.batch", 9.0);
        target.advance_span(Hop::Dma, Some(9), SimDuration::from_nanos(7));
        target.restore_snapshot(&mut crate::snapshot::Decoder::new(&bytes)).unwrap();

        for t in [&source, &target] {
            t.counter_add("m.mid", 1);
            t.counter_add("z.last", 4);
            t.counter_add("a.first", 1);
            t.histogram_record("h.batch", 4.0);
            t.advance_span(Hop::Link, Some(2), SimDuration::from_nanos(5));
        }
        assert_eq!(target.counters(), source.counters());
        assert_eq!(
            target.counters().iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            ["a.first", "m.mid", "z.last"]
        );
        assert_eq!(target.counter("z.only_here"), 0);
        assert_eq!(target.histogram("h.batch"), source.histogram("h.batch"));
        assert!(target.histogram("h.other").is_none());
        assert_eq!(target.snapshot(), source.snapshot());
    }

    #[test]
    fn span_tenants_ascend_whatever_order_they_were_charged_in() {
        let t = Telemetry::new(64);
        for tenant in (1..=40u32).rev() {
            t.advance_span(Hop::Link, Some(tenant), SimDuration::from_nanos(1));
            t.advance_span(Hop::Dma, Some(tenant), SimDuration::from_nanos(2));
        }
        assert_eq!(t.span_tenants(), (1..=40).collect::<Vec<_>>());
        let snap = t.snapshot();
        assert!(snap.tenants.windows(2).all(|w| w[0].tenant < w[1].tenant));
    }

    #[test]
    fn corrupt_telemetry_snapshot_is_refused_without_state_change() {
        let t = Telemetry::new(64);
        drive(&t);
        let mut enc = crate::snapshot::Encoder::new();
        t.encode_snapshot(&mut enc);
        let bytes = enc.finish();
        let digest_before = t.digest();
        let mut dec = crate::snapshot::Decoder::new(&bytes[..bytes.len() / 2]);
        assert!(t.restore_snapshot(&mut dec).is_err());
        assert_eq!(t.digest(), digest_before, "failed restore must not disturb the hub");
    }

    #[test]
    fn tagged_spans_break_out_per_tenant() {
        let t = Telemetry::new(64);
        t.advance_span(Hop::Link, Some(7), SimDuration::from_micros(10));
        t.advance_span(Hop::Link, Some(7), SimDuration::from_micros(30));
        t.advance_span(Hop::Link, Some(9), SimDuration::from_micros(100));
        t.advance_span(Hop::Dma, None, SimDuration::from_micros(5));

        assert_eq!(t.span_tenants(), vec![7, 9]);
        let s7 = t.tenant_hop_summary(7, Hop::Link).unwrap();
        assert_eq!(s7.count(), 2);
        assert!((s7.max() - 30.0).abs() < 1e-9);
        let s9 = t.tenant_hop_summary(9, Hop::Link).unwrap();
        assert!((s9.min() - 100.0).abs() < 1e-9);
        assert!(t.tenant_hop_summary(7, Hop::Dma).is_none(), "untagged spans stay global");
        assert_eq!(t.tenant_hop_summary(9, Hop::Link).unwrap().count(), 1);

        // Global stats still see every span.
        let snap = t.snapshot();
        let link = snap.hops.iter().find(|h| h.hop == Hop::Link).unwrap();
        assert_eq!(link.count, 3);
        assert_eq!(snap.tenants.len(), 2);
        assert_eq!(snap.tenants[0].tenant, 7);
        assert_eq!(snap.tenants[0].hops.len(), ALL_HOPS.len());
    }

    #[test]
    fn tenant_hops_survive_snapshot_restore() {
        let a = Telemetry::new(64);
        a.advance_span(Hop::ScFilter, Some(3), SimDuration::from_micros(21));
        a.advance_span(Hop::ScCrypt, Some(4), SimDuration::from_micros(2));
        let mut enc = crate::snapshot::Encoder::new();
        a.encode_snapshot(&mut enc);
        let bytes = enc.finish();

        let b = Telemetry::new(64);
        let mut dec = crate::snapshot::Decoder::new(&bytes);
        b.restore_snapshot(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(b.span_tenants(), vec![3, 4]);
        assert_eq!(
            b.tenant_hop_summary(3, Hop::ScFilter).unwrap().count(),
            a.tenant_hop_summary(3, Hop::ScFilter).unwrap().count()
        );
        // A re-snapshot of the restored hub is bit-identical.
        let mut enc2 = crate::snapshot::Encoder::new();
        b.encode_snapshot(&mut enc2);
        assert_eq!(enc2.finish(), bytes);
    }

    #[test]
    fn hop_histogram_records_microseconds() {
        let t = Telemetry::new(64);
        t.advance_span(Hop::ScCrypt, None, SimDuration::from_micros(100));
        t.advance_span(Hop::ScCrypt, Some(2), SimDuration::from_micros(100));
        t.advance_span(Hop::ScCrypt, None, SimDuration::from_nanos(250));
        let snap = t.snapshot();
        let summary = |hop| {
            let report = snap.hops.iter().find(|h| h.hop == hop).unwrap();
            report.summary_us.clone()
        };
        let crypt = summary(Hop::ScCrypt).unwrap();
        assert_eq!(crypt.count(), 3, "global view merges tagged and untagged");
        assert!((crypt.min() - 0.25).abs() < 1e-12);
        assert!((crypt.p50() - 100.0).abs() < 1e-9);
        assert!(summary(Hop::Dma).is_none());
    }

    #[test]
    fn non_canonical_span_stores_are_refused() {
        use crate::snapshot::{Decoder, Encoder, SnapshotError};
        let t = Telemetry::new(64);
        t.advance_span(Hop::Link, None, SimDuration::from_nanos(1));
        t.advance_span(Hop::Link, None, SimDuration::from_nanos(2));
        let mut enc = Encoder::new();
        t.encode_snapshot(&mut enc);
        let bytes = enc.finish();
        // Tail: runs (1 ns, ×1) and (2 ns, ×1), then idle total and idle map.
        let run = |i: usize| bytes.len() - 16 - 16 * (2 - i);
        let restore = |bytes: &[u8]| Telemetry::new(64).restore_snapshot(&mut Decoder::new(bytes));
        assert!(restore(&bytes).is_ok());
        let mut zero_count = bytes.clone();
        zero_count[run(0) + 8..run(0) + 16].fill(0);
        assert_eq!(
            restore(&zero_count),
            Err(SnapshotError::Invalid("zero span count"))
        );
        let mut unsorted = bytes.clone();
        unsorted[run(1)..run(1) + 8].copy_from_slice(&1_000u64.to_le_bytes());
        assert_eq!(
            restore(&unsorted),
            Err(SnapshotError::Invalid("keys not strictly ascending"))
        );
    }
}
