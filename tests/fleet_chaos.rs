//! Fleet chaos battery: hot-unplug/hot-plug, replica failover, and live
//! tenant migration with rekey in flight.
//!
//! Two layers are attacked:
//!
//! * the **serving loop** ([`FleetServer`]) absorbs seeded
//!   [`ChaosPlan`]s — hard crash, graceful drain, link hot-unplug
//!   mid-round, blade hot-plug, scheduled migration — and must converge
//!   to the chaos-free baseline: every event class ends with the same
//!   per-tenant served counts, the same accounting identity, and zero
//!   stranded work, while the same seed + plan replays bit-identically
//!   (including across a snapshot/resume taken mid-chaos);
//! * the **confidential systems** ([`ShardedFleet`]) prove the security
//!   story: replacement blades are admitted only through the attested
//!   bring-up chain, and live migration rotates every stream key so
//!   ciphertext captured on the source before the move is refused by the
//!   target — the rekey-in-flight argument, shown at the key level
//!   (epoch-derived GCM keys diverge) and at the bus level (replayed
//!   pre-migration TLPs are visibly suppressed).
//!
//! The replay test checks the chaotic digest against
//! `tests/golden/fleet_chaos.txt` (see `support/golden.rs`).

use ccai_core::sc::epoch_master;
use ccai_core::system::{layout, SystemMode};
use ccai_crypto::{AesGcm, DhKeyPair, Key, NONCE_LEN};
use ccai_llm::chaos::{ChaosEvent, ChaosPlan};
use ccai_llm::serve::{FleetConfig, FleetServer, TenantSpec};
use ccai_llm::{LlmSpec, ShardedFleet};
use ccai_pcie::{BusAdversary, Tlp, TlpType};
use ccai_sim::SimDuration;
use ccai_sim::SimTime;
use ccai_xpu::{CommandProcessor, XpuSpec};

#[path = "support/golden.rs"]
mod golden;

fn at_ms(ms: u64) -> SimTime {
    SimTime::from_picos(ms * 1_000_000_000)
}

/// Generous limits (no rate limiting, deep backlog) so nothing sheds and
/// convergence to the baseline is exact, not statistical.
fn chaos_config(seed: u64) -> FleetConfig {
    let tenants = (0..6)
        .map(|i| TenantSpec::new(200 + i, SimDuration::from_millis(30), 64, 128))
        .collect();
    FleetConfig {
        seed,
        shards: 4,
        max_batch: 16,
        admission_backlog: 4096,
        rate_limiting: false,
        model: LlmSpec::opt_1_3b(),
        device: XpuSpec::a100(),
        tenants,
    }
}

fn run_with(cfg: FleetConfig, plan: ChaosPlan, requests: u64) -> FleetServer {
    let mut fleet = FleetServer::new(cfg);
    fleet.set_chaos_plan(plan);
    fleet.generate(requests);
    fleet.drain();
    fleet
}

/// Every event class converges: after recovery the chaotic run has the
/// exact per-tenant served counts of the chaos-free baseline, every
/// request accounted, and the span+idle identity intact.
#[test]
fn every_event_class_converges_to_the_chaos_free_baseline() {
    const REQUESTS: u64 = 1_500;
    let baseline = run_with(chaos_config(0xC0DE), ChaosPlan::default(), REQUESTS);
    let base = baseline.report();

    let classes: Vec<(&str, ChaosPlan)> = vec![
        (
            "crash",
            ChaosPlan::new(vec![(at_ms(500), ChaosEvent::Crash { replica: 1 })]),
        ),
        (
            "drain",
            ChaosPlan::new(vec![(at_ms(600), ChaosEvent::Drain { replica: 2 })]),
        ),
        (
            "hot_unplug",
            ChaosPlan::new(vec![(at_ms(700), ChaosEvent::HotUnplug { replica: 0 })]),
        ),
        (
            "hot_plug",
            ChaosPlan::new(vec![(at_ms(400), ChaosEvent::HotPlug { replica: 4 })]),
        ),
        (
            "migrate",
            ChaosPlan::new(vec![(at_ms(800), ChaosEvent::Migrate { tenant: 203, to: 3 })]),
        ),
        (
            "failover",
            ChaosPlan::new(vec![
                (at_ms(500), ChaosEvent::Crash { replica: 2 }),
                (at_ms(900), ChaosEvent::HotPlug { replica: 4 }),
                (at_ms(1_100), ChaosEvent::Migrate { tenant: 201, to: 4 }),
            ]),
        ),
    ];

    for (class, plan) in classes {
        let chaotic = run_with(chaos_config(0xC0DE), plan, REQUESTS);
        let report = chaotic.report();
        assert!(report.chaos_events > 0, "class {class}: no chaos event applied");
        assert_eq!(report.generated, base.generated, "class {class}");
        assert_eq!(report.tenants.len(), base.tenants.len());
        for (t, b) in report.tenants.iter().zip(&base.tenants) {
            assert_eq!(t.tenant, b.tenant);
            assert_eq!(
                t.generated, b.generated,
                "class {class}: arrivals must not depend on chaos"
            );
            assert_eq!(
                t.served, b.served,
                "class {class}: tenant {} served count diverged from baseline",
                t.tenant
            );
            assert_eq!(
                t.generated,
                t.served + t.shed_rate_limited + t.shed_queue_full + t.shed_quarantined,
                "class {class}: tenant {} leaked requests",
                t.tenant
            );
            assert_eq!(t.queued, 0, "class {class}: drain left work queued");
        }
        // Chaos never breaks the picosecond accounting identity.
        let t = chaotic.telemetry();
        assert_eq!(
            (t.span_total() + t.idle_total()).as_picos(),
            t.now().as_picos(),
            "class {class}: span+idle != elapsed"
        );
        // Telemetry mirrors the report's chaos counters.
        assert_eq!(
            t.counter("fleet.chaos.requeued"),
            report.requeued,
            "class {class}"
        );
        assert_eq!(
            t.counter("fleet.migrate.count"),
            report.migrations,
            "class {class}"
        );
        if class == "hot_unplug" {
            assert_eq!(
                t.counter("fleet.chaos.unplug_lost_tlps"),
                report.requeued,
                "every TLP lost on the severed link is absorbed by a requeue"
            );
        }
        if class == "crash" || class == "hot_unplug" || class == "failover" {
            assert!(
                report.requeued > 0,
                "class {class}: the removal must have struck mid-round"
            );
        }
    }
}

/// Same seed + same plan → bit-identical digest and report; a different
/// plan diverges. Dumps the digest for the CI replay diff.
#[test]
fn chaotic_runs_replay_bit_identically() {
    const REQUESTS: u64 = 1_200;
    let replicas = [0u32, 1, 2, 3];
    let tenants: Vec<u32> = (200..206).collect();
    let plan =
        || ChaosPlan::seeded(0x5EED, &replicas, &tenants, SimDuration::from_secs(4), 12);

    let a = run_with(chaos_config(0xBEEF), plan(), REQUESTS);
    let b = run_with(chaos_config(0xBEEF), plan(), REQUESTS);
    assert_eq!(
        a.telemetry().digest(),
        b.telemetry().digest(),
        "same seed + same plan must replay bit-identically"
    );
    assert_eq!(a.report().to_json(), b.report().to_json());
    assert!(a.report().chaos_events > 0, "the seeded plan must actually fire");

    let other = run_with(
        chaos_config(0xBEEF),
        ChaosPlan::seeded(0x0BAD, &replicas, &tenants, SimDuration::from_secs(4), 12),
        REQUESTS,
    );
    assert_ne!(
        a.telemetry().digest(),
        other.telemetry().digest(),
        "a different chaos plan must change the trace"
    );

    let t = a.telemetry();
    let dump = golden::line("fleet_chaos", &t.digest_hex(), t.now().as_picos(), None);
    golden::check("fleet_chaos", "", &dump);
}

/// During a single-replica failover (crash, later a hot-plugged
/// replacement) no tenant's end-to-end p99 exceeds 3× its chaos-free
/// baseline — requeued requests keep their original arrival stamps, so
/// the failover delay is in these numbers, not hidden.
#[test]
fn failover_keeps_every_tenant_p99_within_3x_of_chaos_free() {
    const REQUESTS: u64 = 2_000;
    // Run below saturation: at an offered load the surviving replicas can
    // absorb, the failover transient (requeue + re-home) is the signal,
    // not an unbounded queue explosion.
    let light = |seed| {
        let mut cfg = chaos_config(seed);
        for t in &mut cfg.tenants {
            t.mean_interarrival = SimDuration::from_millis(120);
        }
        cfg
    };
    let base = run_with(light(0xFA11), ChaosPlan::default(), REQUESTS);
    let plan = ChaosPlan::new(vec![
        (at_ms(400), ChaosEvent::Crash { replica: 2 }),
        (at_ms(900), ChaosEvent::HotPlug { replica: 4 }),
    ]);
    let chaotic = run_with(light(0xFA11), plan, REQUESTS);
    assert!(
        chaotic.report().requeued > 0,
        "the crash must strike mid-round for this to exercise failover"
    );
    for (t, b) in chaotic.report().tenants.iter().zip(&base.report().tenants) {
        assert_eq!(t.tenant, b.tenant);
        let (Some(under), Some(solo)) = (&t.e2e_us, &b.e2e_us) else {
            continue;
        };
        if solo.p99() <= 0.0 {
            continue;
        }
        let ratio = under.p99() / solo.p99();
        assert!(
            ratio <= 3.0,
            "tenant {} e2e p99 regressed {ratio:.2}x under failover \
             (chaos-free {:.1} us, failover {:.1} us)",
            t.tenant,
            solo.p99(),
            under.p99()
        );
    }
}

/// A snapshot taken mid-chaos (events fired before it, events pending
/// after it, a batch in flight) resumes to a bit-identical end state.
#[test]
fn snapshot_resume_mid_chaos_is_bit_identical() {
    const REQUESTS: u64 = 1_600;
    let cfg = chaos_config(0x57A7);
    let plan = ChaosPlan::new(vec![
        (at_ms(300), ChaosEvent::Crash { replica: 0 }),
        (at_ms(500), ChaosEvent::Migrate { tenant: 202, to: 3 }),
        (at_ms(6_000), ChaosEvent::HotPlug { replica: 4 }),
        (at_ms(6_500), ChaosEvent::Drain { replica: 1 }),
    ]);

    let straight = run_with(cfg.clone(), plan.clone(), REQUESTS);

    let mut first = FleetServer::new(cfg.clone());
    first.set_chaos_plan(plan);
    first.generate(700);
    let mid = first.report();
    assert!(mid.chaos_events > 0, "snapshot point must be after some chaos");
    assert!(
        mid.chaos_events < straight.report().chaos_events,
        "snapshot point must be before the last chaos event"
    );
    let image = first.snapshot();
    let mut second = FleetServer::resume(cfg, &image).expect("mid-chaos image resumes");
    second.generate(REQUESTS);
    second.drain();

    assert_eq!(straight.telemetry().digest(), second.telemetry().digest());
    assert_eq!(straight.report().to_json(), second.report().to_json());
}

/// Layer B differential convergence: a real sharded fleet that suffers a
/// crash, admits an attested replacement, and live-migrates a tenant
/// produces bit-identical outputs to an untouched fleet.
#[test]
fn real_fleet_outputs_converge_under_crash_replacement_and_migration() {
    let weights = b"CHAOS-GOLDEN-WEIGHTS-".repeat(40);
    let tenants = [7u32, 19, 23, 64];
    let mut clean = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, &weights, 3)
        .expect("clean fleet deploys");
    let mut chaotic = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, &weights, 3)
        .expect("chaotic fleet deploys");

    let phase = |fleet: &mut ShardedFleet, tag: &str| -> Vec<Vec<u8>> {
        tenants
            .iter()
            .map(|&t| {
                let prompt = format!("tenant {t} prompt {tag}");
                fleet
                    .serve(t, prompt.as_bytes())
                    .unwrap_or_else(|e| panic!("serve tenant {t} phase {tag}: {e}"))
            })
            .collect()
    };

    let clean_one = phase(&mut clean, "one");
    let chaos_one = phase(&mut chaotic, "one");
    assert_eq!(clean_one, chaos_one, "fleets agree before chaos");

    // Chaos strikes the second fleet only: crash a replica, admit an
    // attested replacement under a fresh id, migrate a tenant onto it.
    chaotic.crash_replica(1).expect("crash succeeds");
    let fresh = chaotic.admit_replacement().expect("replacement re-attests");
    assert!(!clean.replica_ids().contains(&fresh) || fresh >= 3, "fresh id never reused");
    let m = chaotic.migrate_tenant(19, fresh).expect("migration succeeds");
    assert!(m.target_epoch > m.source_epoch, "migration must rotate keys");

    let clean_two = phase(&mut clean, "two");
    let chaos_two = phase(&mut chaotic, "two");
    assert_eq!(
        clean_two, chaos_two,
        "post-recovery outputs must match the chaos-free fleet bit-for-bit"
    );
    let expected = CommandProcessor::surrogate_inference(&weights, b"tenant 19 prompt two");
    assert_eq!(chaos_two[1], expected, "outputs are the golden surrogate results");
}

/// The rekey-in-flight argument, all three prongs:
///
/// 1. the migration receipt shows the target advanced the task epoch;
/// 2. a GCM seal under the source-epoch master refuses to open under the
///    target-epoch master (the keys really rotated, not just a counter);
/// 3. ciphertext TLPs captured on the source **before** the migration
///    are visibly suppressed when replayed into the target's fabric,
///    while post-migration serving succeeds — so a bus adversary cannot
///    launder pre-migration traffic through the new home.
#[test]
fn pre_migration_ciphertext_never_opens_on_the_target() {
    let weights = b"MIGRATION-SECRET-WEIGHTS-".repeat(30);
    let prompt = b"MIGRATION-SECRET-PROMPT-".repeat(8);
    let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, &weights, 2)
        .expect("fleet deploys");

    let tenant = 42u32;
    let from = fleet.shard_of(tenant);
    let to = fleet.replica_ids().into_iter().find(|&id| id != from).unwrap();

    // The bus adversary snoops the source replica's fabric during a
    // pre-migration confidential inference.
    let snooper = BusAdversary::new();
    fleet.shard_system_mut(from).fabric_mut().add_tap(snooper.tap());
    let pre = fleet.serve(tenant, &prompt).expect("pre-migration serve");
    assert_eq!(pre, CommandProcessor::surrogate_inference(&weights, &prompt));
    let tvm = fleet.shard_system(from).tvm_bdf();
    let captured: Vec<Tlp> = snooper
        .log()
        .of_type(TlpType::MemWrite)
        .into_iter()
        .filter(|tlp| {
            tlp.header().requester() == tvm
                && tlp.header().address().unwrap_or(0) >= layout::XPU_BAR_BASE
        })
        .cloned()
        .collect();
    assert!(!captured.is_empty(), "a protected run must emit MMIO ciphertext");

    let m = fleet.migrate_tenant(tenant, to).expect("migration succeeds");

    // Prong 1: the epoch advanced.
    assert_eq!(
        m.target_epoch,
        m.source_epoch + 1,
        "the target must rekey one epoch past the source"
    );

    // Prong 2: the epoch masters derive incompatible GCM keys. The
    // master is the deterministic TVM↔SC agreement both sides hold.
    let tvm_kp = DhKeyPair::generate(b"tvm-trust-module-boot-entropy-01");
    let sc_kp = DhKeyPair::generate(b"hrot-blade-boot-entropy-00000002");
    let master = tvm_kp.agree(sc_kp.public()).expect("valid exchange");
    let source_gcm = AesGcm::new(&Key::Aes256(epoch_master(&master, m.source_epoch)));
    let target_gcm = AesGcm::new(&Key::Aes256(epoch_master(&master, m.target_epoch)));
    let nonce = [0x4Du8; NONCE_LEN];
    let sealed = source_gcm.seal(&nonce, b"pre-migration stream data", b"stream-aad");
    assert!(
        source_gcm.open(&nonce, &sealed, b"stream-aad").is_ok(),
        "the source epoch key opens its own seal"
    );
    assert!(
        target_gcm.open(&nonce, &sealed, b"stream-aad").is_err(),
        "the rotated epoch key must refuse pre-migration ciphertext"
    );

    // Prong 3: replay the pre-migration capture into the target. The
    // imported anti-replay floors cover every captured sequence, so the
    // exactly-once windows suppress them all — visibly.
    let target = fleet.shard_system_mut(to);
    let filter_before = target.sc_filter_digest();
    let before = target.sc_counters();
    for tlp in captured {
        target.fabric_mut().host_request(tlp);
    }
    let after = fleet.shard_system(to).sc_counters();
    assert_eq!(
        fleet.shard_system(to).sc_filter_digest(),
        filter_before,
        "replayed pre-migration traffic must not move the target's tables"
    );
    assert!(
        after.control_dup_suppressed > before.control_dup_suppressed
            || after.packets_blocked > before.packets_blocked,
        "the replay must be visibly refused, not silently absorbed"
    );
    assert!(
        fleet.shard_system(to).sc_quarantined_tenants().is_empty(),
        "suppression, not quarantine: the legitimate tenant is unharmed"
    );

    // Post-migration serving on the new home still computes the right
    // answer under the rotated keys.
    let post_prompt = b"POST-MIGRATION-PROMPT-".repeat(8);
    let post = fleet.serve(tenant, &post_prompt).expect("post-migration serve");
    assert_eq!(post, CommandProcessor::surrogate_inference(&weights, &post_prompt));
}
