//! Fleet-serving battery: determinism, fairness under flooding, and the
//! acceptance-scale run.
//!
//! The serving layer is a pure function of its [`FleetConfig`]: the same
//! seed must replay a bit-identical trace digest and report, with and
//! without rate limiting. On top of that this suite proves the isolation
//! claim that justifies the continuous-batching scheduler: a tenant
//! flooding at 10× its contracted rate absorbs the backpressure itself —
//! every victim's p99 hop latency stays within 2× of a solo baseline,
//! and the flooder's shed/idle numbers (not the victims') carry the
//! damage.
//!
//! The determinism test checks its digests against
//! `tests/golden/fleet_serving.txt` (see `support/golden.rs`).

use ccai_llm::serve::{FleetConfig, FleetServer, TenantSpec};
use ccai_llm::LlmSpec;
use ccai_sim::telemetry::ALL_HOPS;
use ccai_sim::SimDuration;
use ccai_xpu::XpuSpec;

#[path = "support/golden.rs"]
mod golden;

/// Victim contract: 25 req/s mean offered load, bucket sized to admit it.
const VICTIM_MEAN_MS: u64 = 40;
/// Flooder offered load: 10× the victim's.
const FLOOD_MEAN_MS: u64 = 4;

fn config(seed: u64, rate_limiting: bool) -> FleetConfig {
    let mut cfg = FleetConfig::standard(seed);
    cfg.rate_limiting = rate_limiting;
    cfg
}

fn run(cfg: FleetConfig, requests: u64) -> FleetServer {
    let mut fleet = FleetServer::new(cfg);
    fleet.generate(requests);
    fleet.drain();
    fleet
}

/// Satellite 1: same seed → bit-identical digest, with and without rate
/// limiting; different seeds diverge.
#[test]
fn fleet_run_replays_bit_identically_for_the_same_seed() {
    let limited_a = run(config(0xBEEF, true), 2_000);
    let limited_b = run(config(0xBEEF, true), 2_000);
    assert_eq!(
        limited_a.telemetry().digest(),
        limited_b.telemetry().digest(),
        "rate-limited run must replay bit-identically"
    );
    assert_eq!(limited_a.report().to_json(), limited_b.report().to_json());

    let open_a = run(config(0xBEEF, false), 2_000);
    let open_b = run(config(0xBEEF, false), 2_000);
    assert_eq!(
        open_a.telemetry().digest(),
        open_b.telemetry().digest(),
        "unlimited run must replay bit-identically"
    );

    let other_seed = run(config(0xD00D, true), 2_000);
    assert_ne!(
        limited_a.telemetry().digest(),
        other_seed.telemetry().digest(),
        "different seeds must produce different traces"
    );

    let line = |name, fleet: &FleetServer| {
        let t = fleet.telemetry();
        golden::line(name, &t.digest_hex(), t.now().as_picos(), None)
    };
    let dump = line("fleet_limited", &limited_a) + &line("fleet_open", &open_a);
    golden::check("fleet_serving", "", &dump);
}

/// The flooding scenario: tenant 0 offers 10× its contract; tenants
/// 1..n stay at their contracted load.
fn flood_config(seed: u64, victims: u32) -> FleetConfig {
    let mut tenants =
        vec![TenantSpec::new(500, SimDuration::from_millis(FLOOD_MEAN_MS), 32, 64)];
    for i in 0..victims {
        tenants.push(TenantSpec::new(
            600 + i,
            SimDuration::from_millis(VICTIM_MEAN_MS),
            32,
            64,
        ));
    }
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

/// Solo baseline: the same victim population with no flooder present.
fn solo_config(seed: u64, victims: u32) -> FleetConfig {
    let mut cfg = flood_config(seed, victims);
    cfg.tenants.remove(0);
    cfg
}

/// Satellite 2: under a 10× flooder, no victim's p99 hop latency exceeds
/// 2× its solo baseline, and the flooder — not the victims — absorbs the
/// backpressure (sheds and idle time).
#[test]
fn flooding_tenant_cannot_starve_the_others() {
    const VICTIMS: u32 = 7;
    const REQUESTS_SOLO: u64 = 4_000;
    const REQUESTS_FLOOD: u64 = 12_000; // flooder generates most of these

    let solo = run(solo_config(0xACE, VICTIMS), REQUESTS_SOLO);
    let flooded = run(flood_config(0xACE, VICTIMS), REQUESTS_FLOOD);

    for i in 0..VICTIMS {
        let tag = 600 + i;
        for hop in ALL_HOPS {
            let base = solo.telemetry().tenant_hop_summary(tag, hop);
            let under = flooded.telemetry().tenant_hop_summary(tag, hop);
            let (Some(base), Some(under)) = (base, under) else {
                continue; // hop with no spans (e.g. zero-cost stages)
            };
            if base.p99() <= 0.0 {
                continue;
            }
            let ratio = under.p99() / base.p99();
            assert!(
                ratio <= 2.0,
                "victim {tag} hop {hop} p99 regressed {ratio:.2}x under flooding \
                 (solo {:.1} us, flooded {:.1} us)",
                base.p99(),
                under.p99()
            );
        }
    }

    let report = flooded.report();
    let flooder = report.tenants.iter().find(|t| t.tenant == 500).unwrap();
    let victims: Vec<_> = report.tenants.iter().filter(|t| t.tenant != 500).collect();

    // The flooder is over contract by 10x: admission must shed most of
    // its traffic while every victim is served nearly in full.
    assert!(
        flooder.shed_rate_limited > flooder.served,
        "flooder must shed more than it serves (shed {} vs served {})",
        flooder.shed_rate_limited,
        flooder.served
    );
    for v in &victims {
        let shed = v.shed_rate_limited + v.shed_queue_full + v.shed_quarantined;
        assert!(
            shed * 20 <= v.generated,
            "victim {} shed {shed} of {} requests — backpressure leaked",
            v.tenant,
            v.generated
        );
    }

    // Backpressure shows up as wait time charged to the flooder: its
    // idle share must dwarf any victim's.
    let max_victim_idle = victims.iter().map(|v| v.idle).max().unwrap();
    assert!(
        flooder.idle > max_victim_idle,
        "flooder idle {:?} must exceed every victim's ({:?}) — it absorbs the backpressure",
        flooder.idle,
        max_victim_idle
    );
}

/// Acceptance-scale run: ≥100k requests across 8 tenants × 4 shards,
/// every request accounted (served or typed-shed), per-tenant hop
/// latency present for every tenant.
#[test]
fn acceptance_scale_run_accounts_every_request() {
    const REQUESTS: u64 = 100_000;
    let fleet = run(config(0x5CA1E, true), REQUESTS);
    let report = fleet.report();

    assert!(report.tenants.len() >= 8, "need at least 8 tenants");
    assert!(report.shards >= 4, "need at least 4 shards");
    assert_eq!(report.generated, REQUESTS);

    let mut total = 0;
    for t in &report.tenants {
        assert_eq!(
            t.generated,
            t.served + t.shed_rate_limited + t.shed_queue_full + t.shed_quarantined,
            "tenant {} leaked requests",
            t.tenant
        );
        assert_eq!(t.queued, 0, "drain left work queued for tenant {}", t.tenant);
        assert!(t.served > 0, "tenant {} served nothing", t.tenant);
        total += t.generated;

        // Per-tenant hop latency must be reported for the served hops.
        let summary = fleet
            .telemetry()
            .tenant_hop_summary(t.tenant, ccai_sim::Hop::Dma)
            .expect("served tenant has Dma spans");
        assert!(summary.p99() >= summary.p50());
    }
    assert_eq!(total, REQUESTS);

    // The telemetry invariant holds at fleet scale: every picosecond is
    // either a tagged hop span or idle.
    let t = fleet.telemetry();
    // The hub clock sums every request's tenant time, so it runs far
    // ahead of the fleet loop; `--nocapture` shows how close it sits to
    // `u64::MAX`.
    eprintln!(
        "hub now {} ps, fleet loop now {} ps, at {REQUESTS} requests",
        t.now().as_picos(),
        report.now.as_picos()
    );
    assert_eq!(
        (t.span_total() + t.idle_total()).as_picos(),
        t.now().as_picos()
    );
}

/// Continuous batching must actually batch: at this offered load the
/// mean dispatch round carries several requests, and admission happens
/// only at quiesce points (rounds ≪ requests).
#[test]
fn rounds_batch_multiple_requests() {
    let fleet = run(config(7, true), 20_000);
    let rounds = fleet.telemetry().counter("serve.rounds");
    let served = fleet.telemetry().counter("serve.served");
    assert!(rounds > 0);
    assert!(
        served >= rounds * 2,
        "mean batch below 2 ({served} served / {rounds} rounds) — not batching"
    );
    let hist = fleet
        .telemetry()
        .histogram("serve.batch_size")
        .expect("batch-size histogram exists");
    assert_eq!(hist.total(), rounds);
}
