//! Per-request cost ceilings of the four benchmark workload shapes.
//!
//! Each shape runs a fixed number of requests through the public API
//! after a short warm-up, the way `bench_e2e` drives it: short chat
//! prompts over a four-shard fleet, a 1 MiB prompt on a one-shard fleet,
//! a 256 KiB block swapped in and back out of a bare system, and the chat
//! fleet under heavy data-path faults. The counts it reads are ones the
//! program keeps anyway — the TLPs on the exposed bus, the Adaptor's and
//! the PCIe-SC's counters, and the telemetry spans per hop — so a change
//! that sends more packets, more control traffic or more spans per
//! request fails here, in a debug build, without a timer.
//!
//! Ceilings sit at the counts measured when they were set, per request
//! and rounded up to a hundredth. A change that lowers a count lowers its
//! ceiling in the same change, so the next one cannot give it back.

use ccai_core::sc::regs::WINDOW_LEN;
use ccai_core::system::layout;
use ccai_core::{ConfidentialSystem, SystemMode};
use ccai_llm::{PromptGenerator, ShardedFleet};
use ccai_pcie::fabric::BusTap;
use ccai_pcie::{FaultPlan, Tlp};
use ccai_sim::SimRng;
use ccai_tvm::{RetryPolicy, TlpPort};
use ccai_xpu::device::BAR0_SIZE;
use ccai_xpu::XpuSpec;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Counts the TLPs crossing one fabric's exposed bus, and among the
/// host's requests those into the SC control window and the xPU's BAR0.
#[derive(Debug, Default)]
struct BusCounts {
    tlps: Cell<u64>,
    sc_window: Cell<u64>,
    bar0: Cell<u64>,
}

#[derive(Debug)]
struct CountingTap(Rc<BusCounts>);

impl BusTap for CountingTap {
    fn observe(&mut self, tlp: &Tlp, downstream: bool) {
        let bump = |c: &Cell<u64>| c.set(c.get() + 1);
        bump(&self.0.tlps);
        match tlp.header().address() {
            Some(a)
                if downstream
                    && (layout::SC_REGION..layout::SC_REGION + WINDOW_LEN).contains(&a) =>
            {
                bump(&self.0.sc_window)
            }
            Some(a)
                if downstream
                    && (layout::XPU_BAR_BASE..layout::XPU_BAR_BASE + BAR0_SIZE).contains(&a) =>
            {
                bump(&self.0.bar0)
            }
            _ => {}
        }
    }
}

type Counts = BTreeMap<String, u64>;

/// Everything counted on one system so far; taps are read from `bus`.
fn read(system: &ConfidentialSystem, bus: &BusCounts, into: &mut Counts) {
    let mut add = |name: &str, n: u64| *into.entry(name.to_owned()).or_insert(0) += n;
    add("bus.tlps", bus.tlps.get());
    add("bus.sc_window_tlps", bus.sc_window.get());
    add("bus.bar0_tlps", bus.bar0.get());
    let a = system.adaptor_counters();
    add("adaptor.sc_mmio_writes", a.sc_mmio_writes);
    add("adaptor.sc_mmio_reads", a.sc_mmio_reads);
    add("adaptor.doorbells", a.doorbells);
    add("adaptor.transfer_retries", a.transfer_retries);
    let sc = system.sc_counters();
    add("sc.chunks_decrypted", sc.chunks_decrypted);
    add("sc.chunks_encrypted", sc.chunks_encrypted);
    add("sc.tags_received", sc.tags_received);
    add("sc.metadata_batches", sc.metadata_batches);
    add("sc.control_accesses", sc.control_accesses);
    for report in system.telemetry_snapshot().hops {
        add(&format!("spans.{}", report.hop), report.count);
    }
}

/// `after − before`, name by name.
fn since(after: &Counts, before: &Counts) -> Counts {
    after
        .iter()
        .map(|(name, &n)| (name.clone(), n - before[name]))
        .collect()
}

fn weights() -> Vec<u8> {
    SimRng::seed_from(7).bytes(4096)
}

/// Chat prompts, 8 B to 1.8 KiB, from the benchmark's length model.
fn chat_prompts(count: usize) -> Vec<Vec<u8>> {
    let mut lengths = PromptGenerator::sharegpt_like(11);
    let mut rng = SimRng::seed_from(13);
    (0..count)
        .map(|_| rng.bytes(2 * lengths.next_len() as usize))
        .collect()
}

/// Serves `prompts` over a fleet of `shards` (eight tenants round
/// robin), heavily faulted when `faulted`, and counts the last
/// `timed` requests.
fn fleet_shape(shards: usize, prompts: &[Vec<u8>], timed: usize, faulted: bool) -> Counts {
    let mut fleet = ShardedFleet::deploy(XpuSpec::a100(), SystemMode::CcAi, &weights(), shards)
        .expect("deploys");
    let mut taps = Vec::new();
    for id in fleet.replica_ids() {
        let system = fleet.shard_system_mut(id);
        if faulted {
            system.inject_faults(FaultPlan::heavy(0xFA17 + u64::from(id)));
            let policy = RetryPolicy {
                max_attempts: 16,
                backoff_base: 2,
                ..RetryPolicy::default()
            };
            system.driver_mut().set_retry_policy(policy);
        }
        let bus = Rc::new(BusCounts::default());
        system
            .fabric_mut()
            .add_tap(Box::new(CountingTap(Rc::clone(&bus))));
        taps.push((id, bus));
    }
    let snapshot = |fleet: &ShardedFleet| {
        let mut counts = Counts::new();
        for (id, bus) in &taps {
            read(fleet.shard_system(*id), bus, &mut counts);
        }
        counts
    };
    let warmup = prompts.len() - timed;
    let mut before = Counts::new();
    for (i, prompt) in prompts.iter().enumerate() {
        if i == warmup {
            before = snapshot(&fleet);
        }
        fleet.serve(i as u32 % 8, prompt).expect("request served");
    }
    since(&snapshot(&fleet), &before)
}

/// Swaps a `block`-byte block into device memory and back out `1 +
/// timed` times on one system, counting the last `timed`.
fn kv_swap_shape(block: usize, timed: usize) -> Counts {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    system.load_model(&weights()).expect("model loads");
    let bus = Rc::new(BusCounts::default());
    system
        .fabric_mut()
        .add_tap(Box::new(CountingTap(Rc::clone(&bus))));
    let data = SimRng::seed_from(17).bytes(block);
    let mut before = Counts::new();
    for i in 0..=timed {
        if i == 1 {
            read(&system, &bus, &mut before);
        }
        let (driver, fabric, memory, stager, adaptor) = system.parts();
        let mut port = adaptor.expect("ccAI mode has an Adaptor").port(fabric);
        let port: &mut dyn TlpPort = &mut port;
        driver
            .dma_to_device(port, memory, stager, &data, layout::DEV_INPUT)
            .expect("swap in");
        let back = driver
            .dma_from_device(port, memory, stager, layout::DEV_INPUT, block as u64)
            .expect("swap out");
        assert_eq!(back, data);
        stager.release_all();
    }
    let mut after = Counts::new();
    read(&system, &bus, &mut after);
    since(&after, &before)
}

/// Checks every count of `counts` (over `timed` requests) against its
/// per-request ceiling, printing the per-request figures.
fn check(shape: &str, counts: &Counts, timed: usize, ceilings: &[(&str, f64)]) {
    let names: Vec<&str> = ceilings.iter().map(|(name, _)| *name).collect();
    assert_eq!(
        counts.keys().map(String::as_str).collect::<Vec<_>>(),
        names,
        "{shape}"
    );
    let mut over = Vec::new();
    for (name, ceiling) in ceilings {
        let per_request = counts[*name] as f64 / timed as f64;
        println!("{shape:<13} {name:<26} {per_request:>9.3} / request (ceiling {ceiling})");
        if per_request > ceiling + 1e-9 {
            over.push(format!("{name}: {per_request:.3} > {ceiling}"));
        }
    }
    assert!(
        over.is_empty(),
        "{shape} costs more per request than its ceilings: {over:?}"
    );
}

const CHAT_TIMED: usize = 32;
const BULK_TIMED: usize = 2;
const KV_TIMED: usize = 4;

#[test]
fn chat_small_stays_under_its_ceilings() {
    let counts = fleet_shape(4, &chat_prompts(CHAT_TIMED + 2), CHAT_TIMED, false);
    check(
        "chat_small",
        &counts,
        CHAT_TIMED,
        &[
            ("adaptor.doorbells", 1.0),
            ("adaptor.sc_mmio_reads", 4.0),
            ("adaptor.sc_mmio_writes", 19.0),
            ("adaptor.transfer_retries", 0.0),
            ("bus.bar0_tlps", 33.0),
            ("bus.sc_window_tlps", 23.0),
            ("bus.tlps", 85.04),
            ("sc.chunks_decrypted", 1.0),
            ("sc.chunks_encrypted", 1.0),
            ("sc.control_accesses", 23.0),
            ("sc.metadata_batches", 1.0),
            ("sc.tags_received", 16.0),
            ("spans.adaptor_crypt", 2.0),
            ("spans.adaptor_stage", 2.0),
            ("spans.dma", 2.0),
            ("spans.link", 85.04),
            ("spans.sc_crypt", 2.0),
            ("spans.sc_filter", 55.04),
        ],
    );
}

#[test]
fn bulk_prefill_stays_under_its_ceilings() {
    let prompts: Vec<Vec<u8>> = (0..=BULK_TIMED as u64)
        .map(|i| SimRng::seed_from(i).bytes(1 << 20))
        .collect();
    let counts = fleet_shape(1, &prompts, BULK_TIMED, false);
    check(
        "bulk_prefill",
        &counts,
        BULK_TIMED,
        &[
            ("adaptor.doorbells", 1.0),
            ("adaptor.sc_mmio_reads", 4.0),
            ("adaptor.sc_mmio_writes", 20.0),
            ("adaptor.transfer_retries", 0.0),
            ("bus.bar0_tlps", 33.0),
            ("bus.sc_window_tlps", 24.0),
            ("bus.tlps", 596.0),
            ("sc.chunks_decrypted", 256.0),
            ("sc.chunks_encrypted", 1.0),
            ("sc.control_accesses", 24.0),
            ("sc.metadata_batches", 1.0),
            ("sc.tags_received", 271.0),
            ("spans.adaptor_crypt", 2.0),
            ("spans.adaptor_stage", 2.0),
            ("spans.dma", 2.0),
            ("spans.link", 596.0),
            ("spans.sc_crypt", 257.0),
            ("spans.sc_filter", 310.0),
        ],
    );
}

#[test]
fn kv_swap_stays_under_its_ceilings() {
    let counts = kv_swap_shape(256 << 10, KV_TIMED);
    check(
        "kv_swap",
        &counts,
        KV_TIMED,
        &[
            ("adaptor.doorbells", 1.0),
            ("adaptor.sc_mmio_reads", 4.0),
            ("adaptor.sc_mmio_writes", 14.0),
            ("adaptor.transfer_retries", 0.0),
            ("bus.bar0_tlps", 22.0),
            ("bus.sc_window_tlps", 18.0),
            ("bus.tlps", 315.0),
            ("sc.chunks_decrypted", 64.0),
            ("sc.chunks_encrypted", 64.0),
            ("sc.control_accesses", 18.0),
            ("sc.metadata_batches", 1.0),
            ("sc.tags_received", 74.0),
            ("spans.adaptor_crypt", 2.0),
            ("spans.adaptor_stage", 2.0),
            ("spans.dma", 2.0),
            ("spans.link", 315.0),
            ("spans.sc_crypt", 128.0),
            ("spans.sc_filter", 164.0),
        ],
    );
}

#[test]
fn chat_faulted_stays_under_its_ceilings() {
    let counts = fleet_shape(4, &chat_prompts(CHAT_TIMED + 2), CHAT_TIMED, true);
    check(
        "chat_faulted",
        &counts,
        CHAT_TIMED,
        &[
            ("adaptor.doorbells", 1.07),
            ("adaptor.sc_mmio_reads", 4.88),
            ("adaptor.sc_mmio_writes", 20.88),
            ("adaptor.transfer_retries", 0.22),
            ("bus.bar0_tlps", 35.85),
            ("bus.sc_window_tlps", 25.75),
            ("bus.tlps", 93.6),
            ("sc.chunks_decrypted", 1.0),
            ("sc.chunks_encrypted", 1.16),
            ("sc.control_accesses", 25.75),
            ("sc.metadata_batches", 1.07),
            ("sc.tags_received", 17.38),
            ("spans.adaptor_crypt", 2.07),
            ("spans.adaptor_stage", 2.22),
            ("spans.dma", 2.19),
            ("spans.link", 93.6),
            ("spans.sc_crypt", 2.16),
            ("spans.sc_filter", 59.82),
        ],
    );
}
