//! Metric invariants and quarantine observability.
//!
//! The telemetry hub owns the datapath's clock, so its accounting is
//! exact by construction — these tests pin that contract:
//!
//! * counters are monotone non-decreasing over the run;
//! * Σ per-hop span time + Σ idle/backoff time equals the measured
//!   end-to-end sim time, to the clock's (picosecond) resolution;
//! * every `transfer_retries` / `rekeys` counter increment has a
//!   matching trace event;
//! * a quarantine trip is visible coherently in the alert log, the
//!   event trace, and the per-tenant deny counter;
//! * span records stay bounded: a long-lived system serving same-size
//!   requests stops growing its telemetry state, and equal DMA transfers
//!   are charged equal DMA time however long the system has run.

use ccai_core::sc::ScAlert;
use ccai_core::system::layout;
use ccai_core::{ConfidentialSystem, SystemMode};
use ccai_pcie::{Bdf, FaultPlan, Tlp};
use ccai_sim::snapshot::{Decoder, Encoder};
use ccai_sim::telemetry::{HopReport, TenantHopReport, ALL_HOPS};
use ccai_sim::{fnv1a, Clock, Hop, Severity, SimDuration, Summary, Telemetry, TelemetrySnapshot, FNV_OFFSET};
use proptest::prelude::*;
use ccai_tvm::RetryPolicy;
use ccai_xpu::XpuSpec;
use std::collections::{BTreeMap, BTreeSet};

fn workload() -> (Vec<u8>, Vec<u8>) {
    let weights: Vec<u8> = (0..20_000).map(|i| (i * 131 % 251) as u8).collect();
    let input: Vec<u8> = (0..6_000).map(|i| (i * 17 % 241) as u8).collect();
    (weights, input)
}

fn build_faulted() -> ConfidentialSystem {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system
        .driver_mut()
        .set_retry_policy(RetryPolicy { max_attempts: 8, backoff_base: 2, ..Default::default() });
    system.inject_faults(FaultPlan::corrupt_only(5, 96));
    system
}

fn tvm_tenant_tag() -> u32 {
    u32::from(Bdf::new(layout::TVM_BDF.0, layout::TVM_BDF.1, layout::TVM_BDF.2).to_u16())
}

/// Counters as a map, for whole-set monotonicity comparison.
fn counter_map(system: &ConfidentialSystem) -> BTreeMap<String, u64> {
    system.telemetry().counters().into_iter().collect()
}

fn assert_monotone(before: &BTreeMap<String, u64>, after: &BTreeMap<String, u64>, when: &str) {
    for (name, value) in before {
        let later = after.get(name).copied().unwrap_or(0);
        assert!(
            later >= *value,
            "{when}: counter {name} decreased: {value} -> {later}"
        );
    }
}

#[test]
fn counters_never_decrease_across_pump_rounds() {
    let mut system = build_faulted();
    let (weights, input) = workload();
    let mut prev = counter_map(&system);

    system.run_workload(&weights, &input).expect("recoverable plan");
    let after_first = counter_map(&system);
    assert_monotone(&prev, &after_first, "after first workload");
    prev = after_first;

    // Extra idle pump rounds must never move any counter backwards.
    for round in 0..4 {
        system.with_port(|port, memory| {
            let _ = port.pump(memory);
        });
        let now = counter_map(&system);
        assert_monotone(&prev, &now, &format!("pump round {round}"));
        prev = now;
    }

    system.run_workload(&weights, &input).expect("second run");
    assert_monotone(&prev, &counter_map(&system), "after second workload");
}

#[test]
fn spans_plus_idle_account_for_elapsed_time_exactly() {
    let mut system = build_faulted();
    let (weights, input) = workload();
    system.run_workload(&weights, &input).expect("recoverable plan");

    let telemetry = system.telemetry();
    let elapsed = telemetry.now().duration_since(ccai_sim::SimTime::ZERO);
    assert!(!elapsed.is_zero(), "the workload must consume sim time");
    assert_eq!(
        telemetry.span_total() + telemetry.idle_total(),
        elapsed,
        "per-hop spans plus idle/backoff time must equal measured e2e"
    );

    // The driver's backoff now idles on sim-time deadlines, so the
    // starving tenant's wait is a measured, attributable quantity.
    assert!(system.driver().dma_retries() > 0, "plan must force retries");
    let starved = telemetry.idle_for_tenant(tvm_tenant_tag());
    assert!(
        !starved.is_zero(),
        "backoff under sustained faults must show up as per-tenant idle time"
    );
    assert!(starved <= telemetry.idle_total());
}

#[test]
fn retry_and_rekey_counters_match_their_trace_events() {
    let mut system = build_faulted();
    let (weights, input) = workload();
    system.run_workload(&weights, &input).expect("recoverable plan");

    let telemetry = system.telemetry();
    let events = telemetry.events();
    assert_eq!(
        telemetry.events_dropped(),
        0,
        "this workload must fit the ring so event counting is exact"
    );
    let count_kind = |kind: &str| events.iter().filter(|e| e.kind == kind).count() as u64;

    assert_eq!(
        telemetry.counter("adaptor.transfer_retries"),
        count_kind("adaptor.retry"),
        "every transfer_retries increment has a matching trace event"
    );
    assert_eq!(
        telemetry.counter("adaptor.rekeys"),
        count_kind("adaptor.rekey"),
        "every rekey increment has a matching trace event"
    );
    assert_eq!(telemetry.counter("driver.retries"), count_kind("driver.retry"));
    assert_eq!(telemetry.counter("fault.injected"), {
        events.iter().filter(|e| e.kind.starts_with("fault.")).count() as u64
    });

    // The functional counters agree with the telemetry mirror.
    assert_eq!(
        telemetry.counter("adaptor.transfer_retries"),
        system.adaptor_counters().transfer_retries
    );
    assert_eq!(telemetry.counter("adaptor.rekeys"), system.adaptor_counters().rekeys);
    assert_eq!(telemetry.counter("driver.retries"), system.driver().dma_retries());
}

#[test]
fn control_fault_counters_match_their_trace_events() {
    // Same contract as the datapath test above, but with the injector
    // armed against the *control* path: every control-plane recovery
    // counter has a one-to-one trace-event mirror, the functional
    // counters agree with telemetry, and the clock accounting stays
    // exact even while control writes are duplicated and reordered.
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system
        .driver_mut()
        .set_retry_policy(RetryPolicy { max_attempts: 8, backoff_base: 2, ..Default::default() });
    system.inject_faults(FaultPlan::duplicate_reorder(21, 64).with_control_path());
    let (weights, input) = workload();
    system.run_workload(&weights, &input).expect("recoverable control plan");

    let telemetry = system.telemetry();
    assert_eq!(
        telemetry.events_dropped(),
        0,
        "this workload must fit the ring so event counting is exact"
    );
    let events = telemetry.events();
    let count_kind = |kind: &str| events.iter().filter(|e| e.kind == kind).count() as u64;

    assert_eq!(
        telemetry.counter("driver.control_retries"),
        count_kind("driver.control_retry"),
        "every driver control retry has a matching trace event"
    );
    assert_eq!(
        telemetry.counter("adaptor.control_retries"),
        count_kind("adaptor.control_retry"),
        "every adaptor control retry has a matching trace event"
    );
    assert_eq!(
        telemetry.counter("sc.control_dup_suppressed"),
        count_kind("sc.control_dup"),
        "every suppressed duplicate has a matching trace event"
    );
    assert_eq!(
        telemetry.counter("sc.control_gaps"),
        count_kind("sc.control_gap"),
        "every sequence gap has a matching trace event"
    );

    // The functional counters agree with the telemetry mirror.
    assert_eq!(telemetry.counter("driver.control_retries"), system.driver().control_retries());
    assert_eq!(
        telemetry.counter("adaptor.control_retries"),
        system.adaptor_counters().control_retries
    );
    let sc = system.sc().expect("protected").counters();
    assert_eq!(telemetry.counter("sc.control_dup_suppressed"), sc.control_dup_suppressed);
    assert_eq!(telemetry.counter("sc.control_gaps"), sc.control_gaps);

    // The plan must visibly exercise the protocol — otherwise the
    // equalities above hold vacuously at zero.
    assert!(
        system.driver().control_retries()
            + system.adaptor_counters().control_retries
            + sc.control_dup_suppressed
            > 0,
        "duplicated/reordered control writes must leave recovery footprints"
    );

    // Span + idle accounting stays exact with control faults armed.
    let elapsed = telemetry.now().duration_since(ccai_sim::SimTime::ZERO);
    assert!(!elapsed.is_zero());
    assert_eq!(
        telemetry.span_total() + telemetry.idle_total(),
        elapsed,
        "per-hop spans plus idle time must equal measured e2e under control faults"
    );
}

#[test]
fn quarantine_is_coherently_observable() {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    // Corrupt every data-bearing packet: consecutive crypt failures must
    // trip the A1-deny quarantine.
    system.inject_faults(FaultPlan::corrupt_only(0xBAD, 1024));
    let (weights, input) = workload();
    assert!(system.run_workload(&weights, &input).is_err(), "channel is unrecoverable");

    let xpu_bdf = Bdf::new(layout::XPU_BDF.0, layout::XPU_BDF.1, layout::XPU_BDF.2);
    assert!(system.sc().expect("protected").is_quarantined(xpu_bdf));

    let alert_count = system
        .sc()
        .expect("protected")
        .alerts()
        .iter()
        .filter(|a| matches!(a, ScAlert::ChannelQuarantined { .. }))
        .count() as u64;
    assert_eq!(alert_count, 1, "exactly one quarantine trip");

    let telemetry = system.telemetry();
    let trace_count = telemetry
        .events()
        .iter()
        .filter(|e| e.kind == "sc.quarantine")
        .count() as u64;
    assert_eq!(trace_count, alert_count, "alert log and trace agree");
    assert_eq!(telemetry.counter("sc.quarantines"), alert_count);
    assert_eq!(
        telemetry.counter("sc.crypt_failures"),
        telemetry
            .events()
            .iter()
            .filter(|e| e.kind == "sc.crypt_fail")
            .count() as u64
    );

    // The per-tenant deny counter attributes the A1 denials. Remove the
    // injector so the increment below is the SC's doing alone.
    system.clear_faults();
    let deny_counter = format!("sc.quarantine_deny.{}", tvm_tenant_tag());
    let denied_before = system.telemetry().counter(&deny_counter);
    let probe = Tlp::memory_read(system.tvm_bdf(), layout::XPU_BAR_BASE, 8, 0x7A);
    system.fabric_mut().host_request(probe);
    assert_eq!(
        system.telemetry().counter(&deny_counter),
        denied_before + 1,
        "each blocked packet increments the quarantined tenant's deny counter"
    );
}

/// A system with a small model loaded, ready to serve chat requests.
fn chat_system() -> ConfidentialSystem {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let weights: Vec<u8> = (0..4_096).map(|i| (i * 131 % 251) as u8).collect();
    system.load_model(&weights).expect("model loads");
    system
}

/// One chat request: a 512-byte prompt whose content varies with `i`.
fn chat(system: &mut ConfidentialSystem, i: usize) {
    let prompt: Vec<u8> = (0..512).map(|j| ((i * 7 + j * 17) % 241) as u8).collect();
    system
        .run_inference(&prompt)
        .expect("chat request succeeds");
}

fn dma_total(system: &ConfidentialSystem) -> SimDuration {
    let snapshot = system.telemetry_snapshot();
    snapshot
        .hops
        .iter()
        .find(|h| h.hop == Hop::Dma)
        .expect("dma hop reported")
        .total
}

#[test]
fn hub_state_stops_growing_under_same_size_requests() {
    const N: usize = 10;
    let mut system = chat_system();
    let encoded_len = |system: &ConfidentialSystem| {
        let mut enc = Encoder::new();
        system.telemetry().encode_snapshot(&mut enc);
        enc.len()
    };
    for i in 0..N {
        chat(&mut system, i);
    }
    let after_n = encoded_len(&system);
    for i in N..10 * N {
        chat(&mut system, i);
    }
    let after_10n = encoded_len(&system);
    println!(
        "hub encode_snapshot: {after_n} bytes after {N} requests, {after_10n} after {}",
        10 * N
    );
    assert_eq!(
        after_n, after_10n,
        "span records must grow with distinct durations, not with requests"
    );
}

#[test]
fn equal_dma_transfers_charge_equal_dma_spans() {
    let mut system = chat_system();
    let mut charged = Vec::new();
    for i in 0..3 {
        let before = dma_total(&system);
        chat(&mut system, i);
        charged.push(dma_total(&system) - before);
    }
    assert!(!charged[0].is_zero(), "a chat request moves data over DMA");
    assert!(
        charged.iter().all(|&d| d == charged[0]),
        "same-size requests must be charged the same DMA time, got {charged:?}"
    );
}

/// The hub as it would be if every span went straight into an exact
/// `(tenant, hop) → duration → count` map: the oracle for the hub's run
/// bookkeeping. It renders the same snapshot JSON and writes the same
/// snapshot bytes as [`Telemetry`] from its own state.
#[derive(Default)]
struct ReferenceHub {
    clock: Clock,
    events_recorded: u64,
    digest: u64,
    counters: BTreeMap<String, u64>,
    spans: BTreeMap<(Option<u32>, Hop), BTreeMap<u64, u64>>,
}

impl ReferenceHub {
    fn new() -> Self {
        ReferenceHub { digest: FNV_OFFSET, ..ReferenceHub::default() }
    }

    fn advance_span(&mut self, hop: Hop, tenant: Option<u32>, d: SimDuration) {
        self.clock.advance(d);
        let store = self.spans.entry((tenant, hop)).or_default();
        *store.entry(d.as_picos()).or_insert(0) += 1;
    }

    fn record(&mut self, severity: Severity, kind: &str, tenant: Option<u32>, detail: &str) {
        let word = |h, v: u64| fnv1a(h, &v.to_le_bytes());
        let mut h = word(self.digest, self.events_recorded);
        h = word(h, self.clock.now().as_picos());
        h = fnv1a(h, severity.as_str().as_bytes());
        h = fnv1a(h, kind.as_bytes());
        h = word(h, tenant.map_or(0, |t| u64::from(t) + 1));
        h = word(h, 0);
        self.digest = fnv1a(h, detail.as_bytes());
        self.events_recorded += 1;
    }

    fn encode(&self, capacity: usize) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put(&self.clock);
        enc.put(&capacity);
        enc.put(&self.events_recorded);
        enc.put(&0u64); // no event is evicted from a ring this size
        enc.put(&self.digest);
        enc.put(&self.counters);
        enc.u64(0); // no named histogram
        enc.put(&self.spans);
        enc.put(&SimDuration::ZERO);
        enc.put(&BTreeMap::<u32, SimDuration>::new());
        enc.finish()
    }

    fn snapshot(&self) -> TelemetrySnapshot {
        let report = |hop: Hop, store: &BTreeMap<u64, u64>| {
            let runs: Vec<(f64, u64)> = store
                .iter()
                .map(|(&ps, &n)| (SimDuration::from_picos(ps).as_secs_f64() * 1e6, n))
                .collect();
            HopReport {
                hop,
                count: store.values().sum(),
                total: store.iter().map(|(&ps, &n)| SimDuration::from_picos(ps) * n).sum(),
                summary_us: Summary::try_from_runs(&runs),
            }
        };
        let merged = |hop: Hop| {
            let mut all = BTreeMap::new();
            for ((_, h), store) in &self.spans {
                if *h == hop {
                    store.iter().for_each(|(&ps, &n)| *all.entry(ps).or_insert(0) += n);
                }
            }
            all
        };
        let tenants: BTreeSet<u32> = self.spans.keys().filter_map(|&(t, _)| t).collect();
        let empty = BTreeMap::new();
        let hops: Vec<HopReport> = ALL_HOPS.iter().map(|&hop| report(hop, &merged(hop))).collect();
        TelemetrySnapshot {
            now: self.clock.now(),
            digest: self.digest,
            events_recorded: self.events_recorded,
            events_dropped: 0,
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            span_total: hops.iter().map(|h| h.total).sum(),
            hops,
            tenants: tenants
                .into_iter()
                .map(|tenant| TenantHopReport {
                    tenant,
                    hops: ALL_HOPS
                        .iter()
                        .map(|&hop| report(hop, self.spans.get(&(Some(tenant), hop)).unwrap_or(&empty)))
                        .collect(),
                })
                .collect(),
            idle_total: SimDuration::ZERO,
            idle_by_tenant: Vec::new(),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Spans over up to twenty tenants and untagged, every hop and a
    /// small pool of durations (so a hop's runs both repeat and break),
    /// interleaved with counter bumps, events, snapshots and a snapshot
    /// restore into a fresh hub mid-stream: the hub's JSON and snapshot
    /// bytes always equal those of the exact-map reference.
    #[test]
    fn span_runs_read_and_encode_like_an_exact_store(
        ops in proptest::collection::vec((0u8..10, 0u32..21, 0usize..6, 0usize..4), 1..400),
    ) {
        const CAPACITY: usize = 1 << 16;
        const DURATIONS: [SimDuration; 4] = [
            SimDuration::from_picos(1_000),
            SimDuration::from_picos(1_500),
            SimDuration::from_picos(2_000_000),
            SimDuration::from_picos(7),
        ];
        const COUNTERS: [&str; 4] = ["sc.filter_tlps", "sc.a4_pass", "adaptor.mmio_tags", "z.last"];
        let mut hub = Telemetry::new(CAPACITY);
        let mut reference = ReferenceHub::new();
        for (op, tenant, hop, pick) in ops {
            let tenant = (tenant < 20).then_some(tenant);
            match op {
                0..=5 => {
                    // One to four spans in a row on the same lane.
                    for _ in 0..=pick {
                        hub.advance_span(ALL_HOPS[hop], tenant, DURATIONS[pick]);
                        reference.advance_span(ALL_HOPS[hop], tenant, DURATIONS[pick]);
                    }
                }
                6 => {
                    hub.counter_add(COUNTERS[pick], hop as u64);
                    *reference.counters.entry(COUNTERS[pick].to_owned()).or_insert(0) += hop as u64;
                }
                7 => {
                    let detail = format!("hop={hop}");
                    hub.record(Severity::Info, "test.event", tenant, None, detail.clone());
                    reference.record(Severity::Info, "test.event", tenant, &detail);
                }
                8 => prop_assert_eq!(hub.snapshot().to_json(), reference.snapshot().to_json()),
                _ => {
                    let mut enc = Encoder::new();
                    hub.encode_snapshot(&mut enc);
                    let bytes = enc.finish();
                    prop_assert_eq!(&bytes, &reference.encode(CAPACITY));
                    hub = Telemetry::new(CAPACITY);
                    hub.restore_snapshot(&mut Decoder::new(&bytes)).expect("restores");
                }
            }
        }
        prop_assert_eq!(hub.snapshot().to_json(), reference.snapshot().to_json());
        let mut enc = Encoder::new();
        hub.encode_snapshot(&mut enc);
        prop_assert_eq!(enc.finish(), reference.encode(CAPACITY));
    }
}
