//! The benchmark's sheet: the workloads, the end-to-end metrics with
//! their bounds, and the per-layer metrics. `/BENCHMARK.json` is
//! `bench_e2e sheet` written to a file; `tests/smoke.rs` fails when the
//! two differ or when a run emits a name that is not on the sheet.

use crate::json::Json;

/// `run_seconds` in `/BENCHMARK.json`: the duration the epoch counts
/// below were sized for on the reference 2-core box.
pub const RUN_SECONDS: u64 = 20;

/// Traced epochs per workload in a `--trace 1` run.
pub const TRACED_EPOCHS: usize = 4;

/// What one request of a workload does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ShardedFleet::serve` of short prompts over `shards` replicas.
    Chat { shards: usize, tenants: u32 },
    /// `ShardedFleet::serve` of one large prompt on a one-shard fleet.
    Bulk { prompt_bytes: usize },
    /// `dma_to_device` + `dma_from_device` of one KV block on a bare
    /// `ConfidentialSystem`.
    KvSwap { block_bytes: usize },
}

/// One workload: a fixed amount of work, so that two commits do the same
/// work and simulated statistics repeat exactly.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
    /// Timed requests per epoch (`R`); `R / 16` warm-up requests precede
    /// them.
    pub requests: usize,
    /// Epochs (`E`) at [`RUN_SECONDS`]; `--seconds` scales it.
    pub epochs: usize,
    /// Whether every shard runs under `FaultPlan::heavy` on the data
    /// path with a 16-attempt retry policy.
    pub faulted: bool,
}

impl Workload {
    /// Whole epochs for a requested duration: `E` scaled by
    /// `seconds / RUN_SECONDS`, at least one.
    pub fn epochs_for(&self, seconds: u64) -> usize {
        let scaled = (self.epochs as u64 * seconds + RUN_SECONDS / 2) / RUN_SECONDS;
        scaled.max(1) as usize
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "chat_small",
        why: "8 B-1.8 KiB prompts on a 4-shard fleet: ~40 verified MMIO TLPs, tag mirrors, 4 key set-ups and routing are the request; bulk crypto is ~2 %",
        kind: Kind::Chat { shards: 4, tenants: 8 },
        requests: 2048,
        epochs: 64,
        faulted: false,
    },
    Workload {
        name: "bulk_prefill",
        why: "1 MiB prompts on one shard: Adaptor seals 256 chunks, SC opens them, the kernel hashes 1 MiB; crypto and compute are the request, control plane <1 %",
        kind: Kind::Bulk { prompt_bytes: 1 << 20 },
        requests: 64,
        epochs: 28,
        faulted: false,
    },
    Workload {
        name: "kv_swap",
        why: "256 KiB KV block swapped in and back out: the crypto, fabric and SC layers run the other way round (SC seals, Adaptor opens, MemWrite upstream) with no xPU kernel",
        kind: Kind::KvSwap { block_bytes: 256 << 10 },
        requests: 128,
        epochs: 44,
        faulted: false,
    },
    Workload {
        name: "chat_faulted",
        why: "chat_small's fleet and prompts under heavy data-path faults with 16-attempt retries: the difference to chat_small is the recovery path, which fattens the tail",
        kind: Kind::Chat { shards: 4, tenants: 8 },
        requests: 2048,
        epochs: 56,
        faulted: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "goodput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd {
        name: "wall_us_p50",
        unit: "us",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "wall_us_p90",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "rss_kib_per_req",
        unit: "KiB",
        better: Better::Lower,
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Memory growth below this reads as this: under one page per request
/// the difference of two `VmRSS` samples is allocator noise.
pub const RSS_PER_REQ_FLOOR_KIB: f64 = 4.0;

const H: Better = Better::Higher;
const L: Better = Better::Lower;

/// Per-layer metrics of the traced run: `(name, unit, better)`. All are
/// per request unless the name says otherwise.
pub const PER_LAYER: [(&str, &str, Better); 74] = [
    ("crypto.seal_replay_us", "us", L),
    ("crypto.open_replay_us", "us", L),
    ("crypto.seal_mib_s", "MiB/s", H),
    ("crypto.open_mib_s", "MiB/s", H),
    ("crypto.key_setup_us", "us", L),
    ("crypto.keys_per_req_n", "count", L),
    ("core.adaptor.stage_self_us", "us", L),
    ("core.adaptor.alloc_self_us", "us", L),
    ("core.adaptor.recover_self_us", "us", L),
    ("core.adaptor.transfer_failed_self_us", "us", L),
    ("core.adaptor.bytes_encrypted_n", "count", L),
    ("core.adaptor.bytes_decrypted_n", "count", L),
    ("core.adaptor.sc_mmio_writes_n", "count", L),
    ("core.adaptor.mmio_tags_n", "count", L),
    ("core.adaptor.rekeys_n", "count", L),
    ("core.adaptor.transfer_retries_n", "count", L),
    ("tvm.driver.self_us", "us", L),
    ("tvm.driver.mmio_writes_n", "count", L),
    ("tvm.driver.mmio_reads_n", "count", L),
    ("tvm.driver.dma_retries_n", "count", L),
    ("tvm.driver.control_retries_n", "count", L),
    ("pcie.fabric.request_self_us", "us", L),
    ("pcie.fabric.pump_self_us", "us", L),
    ("pcie.fabric.request_calls_n", "count", L),
    ("pcie.fabric.pump_calls_n", "count", L),
    ("pcie.fabric.tlps_n", "count", L),
    ("pcie.fabric.wire_bytes_n", "count", L),
    ("pcie.pool.hit_ratio", "ratio", H),
    ("pcie.fault.events_n", "count", L),
    ("core.sc.downstream_us", "us", L),
    ("core.sc.upstream_us", "us", L),
    ("core.sc.downstream_calls_n", "count", L),
    ("core.sc.upstream_batches_n", "count", L),
    ("core.sc.batch_size_mean", "count", H),
    ("core.sc.packets_seen_n", "count", L),
    ("core.sc.packets_blocked_n", "count", L),
    ("core.sc.chunks_decrypted_n", "count", L),
    ("core.sc.chunks_encrypted_n", "count", L),
    ("core.sc.control_accesses_n", "count", L),
    ("core.sc.tags_received_n", "count", L),
    ("core.sc.auth_failures_n", "count", L),
    ("xpu.compute_replay_us", "us", L),
    ("xpu.dma_completions_n", "count", L),
    ("xpu.dma_refetches_n", "count", L),
    ("xpu.dma_read_bytes_n", "count", L),
    ("tvm.guest_memory.read_us", "us", L),
    ("tvm.guest_memory.write_us", "us", L),
    ("tvm.guest_memory.read_calls_n", "count", L),
    ("tvm.guest_memory.write_calls_n", "count", L),
    ("llm.fleet.route_us", "us", L),
    ("llm.fleet.deploy_ms", "ms", L),
    ("core.snapshot.resume_ms", "ms", L),
    ("core.snapshot.bytes_n", "count", L),
    ("sim.us_per_req", "us", L),
    ("sim.hop.adaptor_stage_us", "us", L),
    ("sim.hop.adaptor_crypt_us", "us", L),
    ("sim.hop.sc_filter_us", "us", L),
    ("sim.hop.sc_crypt_us", "us", L),
    ("sim.hop.link_us", "us", L),
    ("sim.hop.dma_us", "us", L),
    ("sim.idle_us", "us", L),
    ("sim.vs_vanilla_overhead_pct", "%", L),
    ("sim.telemetry.events_n", "count", L),
    ("sim.telemetry.snapshot_us", "us", L),
    ("request.wall_us_p99", "us", L),
    ("request.wall_us_max", "us", L),
    ("request.self_us", "us", L),
    ("ledger.self_time_coverage", "ratio", H),
    ("ledger.tracing_overhead_x", "x", L),
    ("ledger.wall_vs_vanilla_x", "x", L),
    ("ledger.wall_vs_crypto_replay_x", "x", L),
    ("ledger.epoch_goodput_spread", "x", L),
    ("ledger.traced_requests_n", "count", H),
    ("ledger.spans_per_req_n", "count", L),
];

/// The sheet as the document `/BENCHMARK.json` holds.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "bench_e2e/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("bench_e2e")])),
        ("run_seconds", Json::count(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|&(name, unit, better)| {
                        Json::obj([
                            ("name", Json::str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheet_stays_inside_the_contract_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        for name in &names {
            assert!(name.len() <= 64, "{name} is too long");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name} has a character outside the contract"
            );
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        assert!(benchmark_json().to_string().len() < 64 * 1024);
    }

    #[test]
    fn seconds_round_to_whole_epochs() {
        let chat = workload("chat_small").unwrap();
        assert_eq!(chat.epochs_for(RUN_SECONDS), chat.epochs);
        assert_eq!(chat.epochs_for(10), chat.epochs / 2);
        assert_eq!(chat.epochs_for(0), 1);
    }
}
