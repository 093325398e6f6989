//! A run: the epochs of one workload and seed, the metrics computed from
//! them, and the record written about them.
//!
//! `--trace 0` runs `E` untraced epochs and reports the end-to-end
//! metrics. `--trace 1` runs a few epochs twice — untraced, then traced
//! with the same seed — checks that both took the same path, replays the
//! workload's crypto and compute alone, runs epoch 0 once more in
//! `SystemMode::Vanilla`, and reports the per-layer metrics.

use crate::epoch::{proc_status_kib, quantile, run_epoch, EpochRecord, EpochSpec};
use crate::json::Json;
use crate::replay::{replay, Replay};
use crate::sheet::{
    Workload, END_TO_END, PER_LAYER, RSS_PER_REQ_FLOOR_KIB, RUN_SECONDS, TRACED_EPOCHS,
};
use crate::trace::{write_jsonl, Layer, LayerTotals, Tracer};
use ccai_core::system::SystemMode;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// One epoch of `R / 16` requests through the same code paths.
    pub smoke: bool,
}

/// A finished run.
#[derive(Debug)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// `(name, value, unit)` in sheet order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The full record, one JSON object.
    pub record: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }

    /// The line the benchmark contract asks for last on standard output.
    pub fn contract_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::count(self.attempted)),
            ("failed", Json::count(self.failed)),
            ("metrics", metrics_json(&self.metrics)),
        ])
    }
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
        )
    }))
}

fn spec_for(args: &RunArgs, mode: SystemMode, epoch: usize) -> EpochSpec<'static> {
    let workload = args.workload;
    EpochSpec {
        workload,
        kind: workload.kind,
        mode,
        seed: args.seed,
        epoch,
        requests: if args.smoke {
            workload.requests / 16
        } else {
            workload.requests
        },
        // Vanilla has no integrity layer to catch a corrupted packet, so
        // its comparison epoch runs fault-free.
        faulted: workload.faulted && mode.protected(),
    }
}

fn verified(epochs: &[EpochRecord]) -> usize {
    epochs.iter().map(|e| e.wall_ns.len()).sum()
}

fn pooled_wall_ns(epochs: &[EpochRecord]) -> Vec<u64> {
    let mut all: Vec<u64> = epochs
        .iter()
        .flat_map(|e| e.wall_ns.iter().copied())
        .collect();
    all.sort_unstable();
    all
}

fn median_f64(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// Runs what `args` asks for.
pub fn run(args: &RunArgs, out_dir: &Path) -> RunResult {
    if args.traced {
        run_traced(args, out_dir)
    } else {
        run_untraced(args)
    }
}

fn run_untraced(args: &RunArgs) -> RunResult {
    let epochs = if args.smoke {
        1
    } else {
        args.workload.epochs_for(args.seconds)
    };
    let records: Vec<EpochRecord> = (0..epochs)
        .map(|epoch| run_epoch(&spec_for(args, SystemMode::CcAi, epoch), None))
        .collect();
    let mut violations = collect_violations(args, &records);

    let first = &records[0];
    let rss_per_req =
        first.rss_after_kib.saturating_sub(first.rss_before_kib) as f64 / first.attempted as f64;
    let peak_rss_kib = proc_status_kib("VmHWM").unwrap_or(0);
    if peak_rss_kib == 0 || first.rss_after_kib == 0 {
        violations.push("cannot read VmHWM/VmRSS from /proc/self/status".to_string());
    }
    // Each timing is its epoch statistic in the quietest epoch of the
    // run, not a pool or a median over epochs: neighbours on the shared
    // host only ever slow an epoch down, by up to 1.7x for seconds at a
    // time, and a median follows whichever host state held for more than
    // half of the run (README, "why the quietest epoch").
    let fastest = |f: &dyn Fn(&EpochRecord) -> f64| records.iter().map(f).fold(f64::NAN, f64::min);
    let values = [
        records
            .iter()
            .map(EpochRecord::goodput_rps)
            .fold(f64::NAN, f64::max),
        fastest(&|e| e.wall_us(0.50)),
        fastest(&|e| e.wall_us(0.90)),
        peak_rss_kib as f64 / 1024.0,
        rss_per_req.max(RSS_PER_REQ_FLOOR_KIB),
        fastest(&|e| e.setup_ns as f64 / 1e9),
    ];
    let metrics: Vec<_> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| (m.name, value, m.unit))
        .collect();
    let samples = vec![("epochs", epochs), ("wall_us", verified(&records))];
    finish(args, &records, violations, metrics, samples)
}

fn collect_violations(args: &RunArgs, records: &[EpochRecord]) -> Vec<String> {
    let mut violations: Vec<String> = records
        .iter()
        .flat_map(|e| e.violations.iter().cloned())
        .collect();
    if args.workload.faulted {
        let sum = |key: &str| records.iter().map(|e| e.delta.get(key)).sum::<u64>();
        if sum("fault.events") == 0 || sum("driver.dma_retries") == 0 {
            violations.push(format!(
                "faulted workload injected {} faults and retried {} transfers; both must be > 0",
                sum("fault.events"),
                sum("driver.dma_retries")
            ));
        }
    }
    violations
}

fn run_traced(args: &RunArgs, out_dir: &Path) -> RunResult {
    let epochs = if args.smoke { 1 } else { TRACED_EPOCHS };
    let tracer = Tracer::new();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut totals = LayerTotals::default();
    let mut first_epoch_spans = Vec::new();
    let mut violations = Vec::new();
    for epoch in 0..epochs {
        let spec = spec_for(args, SystemMode::CcAi, epoch);
        let untraced = run_epoch(&spec, None);
        let mut with_spans = run_epoch(&spec, Some(&tracer));
        // The traced epoch must be the same program path: same verdict
        // on every output, same simulated clock, digests and counters.
        if (untraced.attempted, untraced.failed) != (with_spans.attempted, with_spans.failed)
            || untraced.delta.state() != with_spans.delta.state()
        {
            violations.push(format!(
                "epoch {epoch}: traced and untraced runs diverged (failed {} vs {}, sim clock {} vs {} ps, digests {:x?} vs {:x?})",
                with_spans.failed,
                untraced.failed,
                with_spans.delta.get("sim.now_ps"),
                untraced.delta.get("sim.now_ps"),
                with_spans.delta.digests,
                untraced.delta.digests,
            ));
        }
        if let Some((spans, counts)) = with_spans.trace.take() {
            totals.add(&spans, counts);
            if epoch == 0 {
                first_epoch_spans = spans;
            }
        }
        plain.push(untraced);
        traced.push(with_spans);
    }
    let vanilla = run_epoch(&spec_for(args, SystemMode::Vanilla, 0), None);
    let replayed = replay(&spec_for(args, SystemMode::CcAi, 0));

    violations.extend(collect_violations(args, &plain));
    violations.extend(traced.iter().flat_map(|e| e.violations.iter().cloned()));
    violations.extend(vanilla.violations.iter().cloned());
    if vanilla.failed > 0 {
        violations.push(format!(
            "{} requests failed in vanilla mode",
            vanilla.failed
        ));
    }
    if let Err(e) = write_trace(out_dir, args.workload.name, &first_epoch_spans) {
        violations.push(format!("cannot write the trace file: {e}"));
    }

    let metrics = per_layer(&plain, &traced, &totals, &vanilla, &replayed);
    let samples = vec![
        ("request.wall_us", verified(&plain)),
        ("traced_requests", totals.calls(Layer::Request) as usize),
        ("spans", totals.spans as usize),
    ];
    // Attempted and failed count the untraced epochs: the traced ones
    // repeat the same requests.
    finish(args, &plain, violations, metrics, samples)
}

fn write_trace(
    out_dir: &Path,
    workload: &str,
    spans: &[crate::trace::Span],
) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    let mut out = BufWriter::new(File::create(
        out_dir.join(format!("trace-{workload}.jsonl")),
    )?);
    write_jsonl(&mut out, spans)?;
    out.flush()
}

fn per_layer(
    plain: &[EpochRecord],
    traced: &[EpochRecord],
    totals: &LayerTotals,
    vanilla: &EpochRecord,
    replayed: &Replay,
) -> Vec<(&'static str, f64, &'static str)> {
    let requests = totals.calls(Layer::Request) as f64;
    let counter = |key: &str| traced.iter().map(|e| e.delta.get(key)).sum::<u64>() as f64;
    let per_req = |key: &str| counter(key) / requests;
    let ps_to_us = |key: &str| counter(key) / 1e6 / requests;
    let self_us = |layer: Layer| totals.self_ns(layer) as f64 / 1e3 / requests;
    let span_us = |layer: Layer| totals.span_ns(layer) as f64 / 1e3 / requests;
    let calls = |layer: Layer| totals.calls(layer) as f64 / requests;

    let wall = pooled_wall_ns(plain);
    let p50_us = quantile(&wall, 0.50) / 1e3;
    let traced_wall = pooled_wall_ns(traced);
    let epoch_goodput: Vec<f64> = plain.iter().map(EpochRecord::goodput_rps).collect();
    let sim_us = |e: &EpochRecord| e.delta.get("sim.now_ps") as f64 / 1e6 / e.attempted as f64;
    let snapshots: Vec<(usize, f64)> = traced.iter().filter_map(|e| e.snapshot).collect();
    let pool_takes = counter("pool.hits") + counter("pool.misses");
    let systems = traced.iter().map(|e| e.delta.digests.len()).sum::<usize>() as f64;

    let value = |name: &str| -> f64 {
        match name {
            "crypto.seal_replay_us" => replayed.seal_us,
            "crypto.open_replay_us" => replayed.open_us,
            "crypto.seal_mib_s" => replayed.seal_mib_s,
            "crypto.open_mib_s" => replayed.open_mib_s,
            "crypto.key_setup_us" => replayed.key_setup_us,
            // Every staged or landing buffer opens one stream, keyed on
            // both ends (Adaptor and SC).
            "crypto.keys_per_req_n" => {
                2.0 * (calls(Layer::AdaptorStage) + calls(Layer::AdaptorAlloc))
            }
            "core.adaptor.stage_self_us" => self_us(Layer::AdaptorStage),
            "core.adaptor.alloc_self_us" => self_us(Layer::AdaptorAlloc),
            "core.adaptor.recover_self_us" => self_us(Layer::AdaptorRecover),
            "core.adaptor.transfer_failed_self_us" => self_us(Layer::AdaptorTransferFailed),
            "core.adaptor.bytes_encrypted_n" => per_req("adaptor.bytes_encrypted"),
            "core.adaptor.bytes_decrypted_n" => per_req("adaptor.bytes_decrypted"),
            "core.adaptor.sc_mmio_writes_n" => per_req("adaptor.sc_mmio_writes"),
            "core.adaptor.mmio_tags_n" => per_req("adaptor.mmio_tags"),
            "core.adaptor.rekeys_n" => per_req("adaptor.rekeys"),
            "core.adaptor.transfer_retries_n" => per_req("adaptor.transfer_retries"),
            "tvm.driver.self_us" => self_us(Layer::Driver),
            "tvm.driver.mmio_writes_n" => per_req("adaptor.driver_mmio_writes"),
            "tvm.driver.mmio_reads_n" => per_req("adaptor.driver_mmio_reads"),
            "tvm.driver.dma_retries_n" => per_req("driver.dma_retries"),
            "tvm.driver.control_retries_n" => per_req("driver.control_retries"),
            "pcie.fabric.request_self_us" => self_us(Layer::FabricRequest),
            "pcie.fabric.pump_self_us" => self_us(Layer::FabricPump),
            "pcie.fabric.request_calls_n" => calls(Layer::FabricRequest),
            "pcie.fabric.pump_calls_n" => calls(Layer::FabricPump),
            "pcie.fabric.tlps_n" => totals.counts.tap_tlps as f64 / requests,
            "pcie.fabric.wire_bytes_n" => totals.counts.tap_wire_bytes as f64 / requests,
            "pcie.pool.hit_ratio" if pool_takes == 0.0 => 0.0,
            "pcie.pool.hit_ratio" => counter("pool.hits") / pool_takes,
            "pcie.fault.events_n" => per_req("fault.events"),
            "core.sc.downstream_us" => span_us(Layer::ScDownstream),
            "core.sc.upstream_us" => span_us(Layer::ScUpstream),
            "core.sc.downstream_calls_n" => calls(Layer::ScDownstream),
            "core.sc.upstream_batches_n" => totals.counts.upstream_batches as f64 / requests,
            "core.sc.batch_size_mean" if totals.counts.upstream_batches == 0 => 0.0,
            "core.sc.batch_size_mean" => {
                totals.counts.upstream_batch_tlps as f64 / totals.counts.upstream_batches as f64
            }
            "core.sc.packets_seen_n" => per_req("sc.packets_seen"),
            "core.sc.packets_blocked_n" => per_req("sc.packets_blocked"),
            "core.sc.chunks_decrypted_n" => per_req("sc.chunks_decrypted"),
            "core.sc.chunks_encrypted_n" => per_req("sc.chunks_encrypted"),
            "core.sc.control_accesses_n" => per_req("sc.control_accesses"),
            "core.sc.tags_received_n" => per_req("sc.tags_received"),
            "core.sc.auth_failures_n" => per_req("sc.auth_failures"),
            "xpu.compute_replay_us" => replayed.compute_us,
            "xpu.dma_completions_n" => per_req("xpu.dma_completions"),
            "xpu.dma_refetches_n" => per_req("xpu.dma_refetches"),
            "xpu.dma_read_bytes_n" => per_req("xpu.dma_read_bytes"),
            "tvm.guest_memory.read_us" => span_us(Layer::MemoryRead),
            "tvm.guest_memory.write_us" => span_us(Layer::MemoryWrite),
            "tvm.guest_memory.read_calls_n" => calls(Layer::MemoryRead),
            "tvm.guest_memory.write_calls_n" => calls(Layer::MemoryWrite),
            "llm.fleet.route_us" => span_us(Layer::Route),
            "llm.fleet.deploy_ms" => {
                median_f64(plain.iter().map(|e| e.deploy_ns as f64 / 1e6).collect())
            }
            "core.snapshot.resume_ms" => median_f64(snapshots.iter().map(|s| s.1).collect()),
            "core.snapshot.bytes_n" => snapshots.first().map_or(0.0, |s| s.0 as f64),
            "sim.us_per_req" => ps_to_us("sim.now_ps"),
            "sim.hop.adaptor_stage_us" => ps_to_us("adaptor_stage"),
            "sim.hop.adaptor_crypt_us" => ps_to_us("adaptor_crypt"),
            "sim.hop.sc_filter_us" => ps_to_us("sc_filter"),
            "sim.hop.sc_crypt_us" => ps_to_us("sc_crypt"),
            "sim.hop.link_us" => ps_to_us("link"),
            "sim.hop.dma_us" => ps_to_us("dma"),
            "sim.idle_us" => ps_to_us("sim.idle_ps"),
            "sim.vs_vanilla_overhead_pct" => (sim_us(&plain[0]) / sim_us(vanilla) - 1.0) * 100.0,
            "sim.telemetry.events_n" => per_req("sim.events"),
            "sim.telemetry.snapshot_us" => {
                traced.iter().map(|e| e.delta.snapshot_ns).sum::<u64>() as f64 / 1e3 / systems
            }
            "request.wall_us_p99" => quantile(&wall, 0.99) / 1e3,
            "request.wall_us_max" => wall.last().map_or(f64::NAN, |&ns| ns as f64 / 1e3),
            "request.self_us" => self_us(Layer::Request),
            "ledger.self_time_coverage" => totals.coverage(),
            "ledger.tracing_overhead_x" => quantile(&traced_wall, 0.50) / 1e3 / p50_us,
            "ledger.wall_vs_vanilla_x" => plain[0].wall_us(0.50) / vanilla.wall_us(0.50),
            "ledger.wall_vs_crypto_replay_x" => p50_us / (replayed.seal_us + replayed.open_us),
            "ledger.epoch_goodput_spread" => {
                epoch_goodput.iter().copied().fold(f64::MIN, f64::max)
                    / epoch_goodput.iter().copied().fold(f64::MAX, f64::min)
            }
            "ledger.traced_requests_n" => requests,
            "ledger.spans_per_req_n" => totals.spans as f64 / requests,
            other => unreachable!("{other} is on the sheet but has no formula"),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit, _)| (name, value(name), unit))
        .collect()
}

/// The toolchain the benchmark was built with (`build.rs` asks rustc).
const RUSTC_VERSION: &str = env!("BENCH_E2E_RUSTC_VERSION");

/// The commit checked out above the benchmark's directory, read from
/// `.git` without running git; "unknown" in an exported tree.
fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
                packed
                    .lines()
                    .find_map(|line| line.strip_suffix(reference).map(str::to_string))
            })
            .unwrap_or_default()
            .trim()
            .to_string(),
    };
    if commit.is_empty() {
        "unknown".to_string()
    } else {
        commit
    }
}

fn finish(
    args: &RunArgs,
    counted: &[EpochRecord],
    violations: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
    samples: Vec<(&'static str, usize)>,
) -> RunResult {
    let attempted = counted.iter().map(|e| e.attempted).sum();
    let failed = counted.iter().map(|e| e.failed).sum();
    let requests = counted.first().map_or(0, |e| e.attempted);
    let epochs_detail = counted
        .iter()
        .map(|e| {
            Json::obj([
                ("epoch", Json::count(e.epoch as u64)),
                ("attempted", Json::count(e.attempted)),
                ("failed", Json::count(e.failed)),
                ("goodput_rps", Json::Num(e.goodput_rps())),
                ("wall_us_p50", Json::Num(e.wall_us(0.50))),
                ("wall_us_p90", Json::Num(e.wall_us(0.90))),
                ("setup_s", Json::Num(e.setup_ns as f64 / 1e9)),
                (
                    "sim_digest",
                    Json::Arr(
                        e.delta
                            .digests
                            .iter()
                            .map(|d| Json::str(format!("{d:016x}")))
                            .collect(),
                    ),
                ),
                ("sim_elapsed_ps", Json::count(e.delta.get("sim.now_ps"))),
            ])
        })
        .collect();
    let record = Json::obj([
        ("schema", Json::str("bench_e2e.run.v1")),
        ("workload", Json::str(args.workload.name)),
        ("seed", Json::count(args.seed)),
        ("seconds", Json::count(args.seconds)),
        ("trace", Json::Bool(args.traced)),
        ("smoke", Json::Bool(args.smoke)),
        ("epochs", Json::count(counted.len() as u64)),
        ("requests_per_epoch", Json::count(requests)),
        ("run_seconds_of_sheet", Json::count(RUN_SECONDS)),
        (
            "available_parallelism",
            Json::count(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("rustc", Json::str(RUSTC_VERSION)),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_commit", Json::str(git_commit())),
        ("correct", Json::Bool(violations.is_empty() && failed == 0)),
        ("attempted", Json::count(attempted)),
        ("failed", Json::count(failed)),
        (
            "violations",
            Json::Arr(violations.iter().map(Json::str).collect()),
        ),
        ("metrics", metrics_json(&metrics)),
        (
            "samples",
            Json::obj(
                samples
                    .into_iter()
                    .map(|(name, n)| (name, Json::count(n as u64))),
            ),
        ),
        ("epochs_detail", Json::Arr(epochs_detail)),
    ]);
    RunResult {
        attempted,
        failed,
        violations,
        metrics,
        record,
    }
}
