//! Soak: many randomized confidential workloads through one platform,
//! with a snooper attached throughout. Sizes are drawn deterministically
//! so failures reproduce.

use ccai_core::handler::{CHUNK_SIZE, TAG_LANDING_RECORDS};
use ccai_core::system::{layout, ConfidentialSystem, SystemMode};
use ccai_llm::chaos::ChaosPlan;
use ccai_llm::serve::{FleetConfig, FleetServer, TenantSpec};
use ccai_llm::{LlmSpec, ShardedFleet};
use ccai_pcie::{BusAdversary, FaultPlan};
use ccai_sim::{SimDuration, SimRng};
use ccai_tvm::RetryPolicy;
use ccai_xpu::{CommandProcessor, XpuSpec};

#[test]
fn fifty_randomized_workloads_stay_clean() {
    let mut rng = SimRng::seed_from(0xCC_A1);
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let adversary = BusAdversary::new();
    system.fabric_mut().add_tap(adversary.tap());

    for round in 0..50 {
        let w_len = rng.next_range(1, 60_000) as usize;
        let i_len = rng.next_range(1, 20_000) as usize;
        let weights = rng.bytes(w_len);
        let input = rng.bytes(i_len);
        let result = system
            .run_workload(&weights, &input)
            .unwrap_or_else(|e| panic!("round {round} ({w_len}/{i_len}): {e}"));
        assert_eq!(
            result,
            CommandProcessor::surrogate_inference(&weights, &input),
            "round {round}"
        );
        if w_len >= 24 {
            assert!(
                !adversary.log().leaked(&weights[..24]),
                "round {round}: weights prefix leaked"
            );
        }
        // Periodic task teardown exercises epoch rekeying mid-soak.
        if round % 17 == 16 {
            system.end_task();
        }
    }

    let sc = system.sc().expect("protected");
    assert_eq!(sc.alerts().len(), 0, "clean soak must raise no alerts");
    assert_eq!(sc.replays_blocked(), 0);
    assert!(system.adaptor_counters().bytes_encrypted > 500_000);
}

/// One 1 MiB block written to the device once and read back until the
/// D2H tag landing ring has wrapped: every read must equal the block.
/// The SC deposits 256 tag records per read, so a landing window that is
/// not a ring runs into the next shared buffer and then into private
/// guest memory, and fails a read near the 155th as an integrity error.
#[test]
fn d2h_reads_wrap_the_tag_landing_ring() {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.load_model(b"ring weights").expect("policy installs");
    let block: Vec<u8> = (0..1u32 << 20).map(|i| (i * 31 % 251) as u8).collect();
    let len = block.len() as u64;
    let reads = TAG_LANDING_RECORDS.div_ceil(len / CHUNK_SIZE) + 13;
    let (driver, fabric, memory, stager, adaptor) = system.parts();
    let mut port = adaptor.expect("ccAI mode has an Adaptor").port(fabric);
    driver
        .dma_to_device(&mut port, memory, stager, &block, layout::DEV_INPUT)
        .expect("block reaches the device");
    stager.release_all();
    for read in 0..reads {
        let back = driver
            .dma_from_device(&mut port, memory, stager, layout::DEV_INPUT, len)
            .unwrap_or_else(|e| panic!("read {read} of {reads}: {e}"));
        assert!(back == block, "read {read} of {reads} differs from the block");
        stager.release_all();
    }
}

/// Fault-schedule soak: N randomized workloads × M seeded fault plans.
///
/// Every (workload, plan) pair must converge to the fault-free outcome —
/// identical inference result AND byte-identical post-run xPU memory —
/// within the retry policy's bound. Everything is derived from
/// `MASTER_SEED`, and every assertion message carries the plan seed, so a
/// failure reproduces with a single constant.
#[test]
fn seeded_fault_schedules_never_diverge() {
    const MASTER_SEED: u64 = 0xFA_17_5C_ED;
    const POLICY: RetryPolicy = RetryPolicy {
        max_attempts: 8,
        backoff_base: 2,
        backoff_unit: RetryPolicy::DEFAULT_BACKOFF_UNIT,
    };
    // 3 transfers per workload, at most (max_attempts - 1) retries each.
    const RETRY_BOUND: u64 = 3 * (POLICY.max_attempts as u64 - 1);

    let mut rng = SimRng::seed_from(MASTER_SEED);
    let workloads: Vec<(Vec<u8>, Vec<u8>)> = (0..3)
        .map(|_| {
            let w_len = rng.next_range(1_000, 24_000) as usize;
            let i_len = rng.next_range(100, 8_000) as usize;
            (rng.bytes(w_len), rng.bytes(i_len))
        })
        .collect();

    for (wi, (weights, input)) in workloads.iter().enumerate() {
        // Fault-free baseline for this workload shape.
        let mut baseline = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
        baseline.driver_mut().set_retry_policy(POLICY);
        let expected = baseline
            .run_workload(weights, input)
            .unwrap_or_else(|e| panic!("workload {wi}: fault-free baseline failed: {e}"));
        assert_eq!(expected, CommandProcessor::surrogate_inference(weights, input));
        let expected_digest = baseline.xpu_memory_digest();

        let seed = MASTER_SEED.wrapping_mul(wi as u64 + 1);
        let plans = [
            ("light", FaultPlan::light(seed)),
            ("drop", FaultPlan::drop_only(seed, 12)),
            ("corrupt", FaultPlan::corrupt_only(seed, 20)),
            ("dup+reorder", FaultPlan::duplicate_reorder(seed, 48)),
            ("delay", FaultPlan::delay_only(seed, 128)),
            ("flap", FaultPlan::flap_only(seed, 6, 2)),
        ];
        for (name, plan) in plans {
            let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
            system.driver_mut().set_retry_policy(POLICY);
            system.inject_faults(plan);
            let result = system.run_workload(weights, input).unwrap_or_else(|e| {
                panic!("workload {wi}, plan {name} (seed {seed:#x}): {e}")
            });
            assert_eq!(
                result, expected,
                "workload {wi}, plan {name} (seed {seed:#x}): result diverged"
            );
            assert_eq!(
                system.xpu_memory_digest(),
                expected_digest,
                "workload {wi}, plan {name} (seed {seed:#x}): xPU memory diverged"
            );
            let retries = system.driver().dma_retries();
            assert!(
                retries <= RETRY_BOUND,
                "workload {wi}, plan {name} (seed {seed:#x}): {retries} retries exceed bound {RETRY_BOUND}"
            );
        }
    }
}

/// Combined regime: one seeded run layers **data faults** (seeded fabric
/// fault plans on every real shard), **control-plane chaos** (crash →
/// attested replacement → live migration with rekey), and an analytic
/// fleet absorbing a seeded [`ChaosPlan`] with a streaming digest
/// consumer attached from the first event. Every workspace invariant
/// must hold simultaneously: golden surrogate outputs, the span+idle
/// picosecond identity, counter/report mirrors, and a bit-identical
/// streaming digest across a replay.
#[test]
fn combined_regime_holds_every_invariant_in_one_seeded_run() {
    const MASTER_SEED: u64 = 0xFA_17_5C_ED;

    // --- analytic layer: seeded chaos plan + streaming digest ----------
    let run = || {
        let tenants: Vec<TenantSpec> = (0..4)
            .map(|i| TenantSpec::new(300 + i, SimDuration::from_millis(40), 32, 96))
            .collect();
        let cfg = FleetConfig {
            seed: MASTER_SEED,
            shards: 3,
            max_batch: 8,
            admission_backlog: 2048,
            rate_limiting: false,
            model: LlmSpec::opt_1_3b(),
            device: XpuSpec::a100(),
            tenants,
        };
        let tags: Vec<u32> = (300..304).collect();
        let mut fleet = FleetServer::new(cfg);
        fleet.set_chaos_plan(ChaosPlan::seeded(
            MASTER_SEED ^ 0xC4A0,
            &[0, 1, 2],
            &tags,
            SimDuration::from_secs(3),
            6,
        ));
        fleet.generate(600);
        fleet.drain();
        fleet
    };
    let fleet = run();
    let report = fleet.report();
    let t = fleet.telemetry();
    assert!(report.chaos_events > 0, "the seeded plan must fire");
    assert_eq!(
        (t.span_total() + t.idle_total()).as_picos(),
        t.now().as_picos(),
        "span+idle identity must survive the combined regime"
    );
    assert_eq!(t.counter("fleet.chaos.requeued"), report.requeued);
    assert_eq!(t.counter("fleet.migrate.count"), report.migrations);
    for tenant in &report.tenants {
        assert_eq!(
            tenant.generated,
            tenant.served
                + tenant.shed_rate_limited
                + tenant.shed_queue_full
                + tenant.shed_quarantined,
            "tenant {} leaked requests",
            tenant.tenant,
        );
    }
    assert!(t.events_recorded() > 0, "the hub must have recorded the stream");
    let replay = run();
    assert_eq!(
        replay.telemetry().digest(),
        t.digest(),
        "combined regime must replay bit-identically"
    );
    assert_eq!(replay.report().to_json(), report.to_json());

    // --- real layer: data faults + control-plane chaos ------------------
    const POLICY: RetryPolicy = RetryPolicy {
        max_attempts: 8,
        backoff_base: 2,
        backoff_unit: RetryPolicy::DEFAULT_BACKOFF_UNIT,
    };
    let mut rng = SimRng::seed_from(MASTER_SEED);
    let weights = rng.bytes(18_000);
    let mut real = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, &weights, 3)
        .expect("sharded fleet deploys");
    for id in real.replica_ids() {
        let system = real.shard_system_mut(id);
        system.driver_mut().set_retry_policy(POLICY);
        system.inject_faults(FaultPlan::light(MASTER_SEED.wrapping_add(u64::from(id))));
    }
    let tenants = [3u32, 11, 27, 50];
    for &tenant in &tenants {
        let prompt = rng.bytes(900);
        let out = real
            .serve(tenant, &prompt)
            .unwrap_or_else(|e| panic!("tenant {tenant} under data faults: {e}"));
        assert_eq!(
            out,
            CommandProcessor::surrogate_inference(&weights, &prompt),
            "tenant {tenant} diverged under data faults"
        );
    }
    real.crash_replica(1).expect("crash mid-soak");
    let fresh = real.admit_replacement().expect("replacement re-attests");
    let system = real.shard_system_mut(fresh);
    system.driver_mut().set_retry_policy(POLICY);
    system.inject_faults(FaultPlan::light(MASTER_SEED.wrapping_add(u64::from(fresh))));
    real.migrate_tenant(tenants[1], fresh).expect("live migration mid-soak");
    for &tenant in &tenants {
        let prompt = rng.bytes(700);
        let out = real.serve(tenant, &prompt).unwrap_or_else(|e| {
            panic!("tenant {tenant} after failover + migration: {e}")
        });
        assert_eq!(
            out,
            CommandProcessor::surrogate_inference(&weights, &prompt),
            "tenant {tenant} diverged after failover + migration"
        );
    }
    assert!(
        real.quarantined_tenants().is_empty(),
        "recoverable chaos must never trip containment"
    );
}

#[test]
fn task_teardown_wipes_the_xpu_environment() {
    // §4.2 environment guard: after end_task, nothing of the previous
    // tenant's model or results remains readable on the device.
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let secret_model = b"residual-model-secret".repeat(100);
    system.run_workload(&secret_model, b"query").unwrap();
    system.end_task();

    // Read the (former) weights region through the aperture as the
    // authorized TVM — an A4-classified read that reaches the device.
    use ccai_core::system::layout;
    let bar1 = layout::XPU_BAR_BASE + (1 << 28);
    let tvm = system.tvm_bdf();
    let replies = system.fabric_mut().host_request(ccai_pcie::Tlp::memory_read(
        tvm,
        bar1 + layout::DEV_WEIGHTS,
        256,
        0x61,
    ));
    let data = replies
        .iter()
        .find(|r| !r.payload().is_empty())
        .map(|r| r.payload().to_vec())
        .unwrap_or_default();
    assert!(
        data.iter().all(|&b| b == 0),
        "device memory must be zeroed after the environment reset"
    );
}
