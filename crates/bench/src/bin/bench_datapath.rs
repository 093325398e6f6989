//! TLP datapath benchmark runner: measures classification throughput of
//! the precompiled filter matcher against the pre-refactor linear scan,
//! and end-to-end staging throughput through the batched SC pump, then
//! writes machine-readable results to `BENCH_datapath.json` so the
//! datapath performance trajectory is tracked from PR to PR.
//!
//! Run with `cargo run --release -p ccai-bench --bin bench_datapath`.
//! Pass an output path as the first argument to override the default.
//! Set `CCAI_BENCH_SMOKE=1` to run each scenario once with tiny inputs —
//! the CI schema-drift check uses this mode.
//!
//! Alongside raw numbers, one fixed-seed confidential workload runs
//! through the batched pipeline and embeds its telemetry snapshot — the
//! per-hop latency breakdown (adaptor staging, adaptor crypt, SC filter,
//! SC crypt, link, DMA), event counters and trace digest — and the
//! `sc.batch_size` summary. Both are deterministic, so those sections are
//! reproducible run-to-run; `bench_crypto` does not repeat the snapshot.

use ccai_core::filter::{L1Rule, L2Rule, PacketFilter, SecurityAction};
use ccai_core::system::{ConfidentialSystem, SystemMode};
use ccai_core::TelemetrySnapshot;
use ccai_pcie::{Bdf, Tlp, TlpType};
use ccai_xpu::XpuSpec;
use std::fmt::Write as _;
use std::time::Instant;

/// Number of headers in the small-TLP flood.
const FLOOD_LEN: usize = 1024;
/// Requesters in the synthetic fleet-scale rule table.
const FLEET: usize = 8;
/// Address ranges per requester in the L2 table.
const RANGES_PER_REQUESTER: usize = 12;

/// One measurement row of the `results` array.
struct Sample {
    scenario: &'static str,
    path: &'static str,
    tlps: usize,
    bytes: usize,
    ns_per_iter: f64,
    tlps_per_sec: f64,
    gib_per_s: f64,
}

fn smoke() -> bool {
    std::env::var_os("CCAI_BENCH_SMOKE").is_some()
}

/// Times `f` adaptively (the `bench_crypto` estimator): calibrates a
/// batch targeting ~80 ms of work, then reports the best of three
/// batches. In smoke mode everything shrinks to a single short pass so
/// CI only validates the schema, not the numbers.
fn measure<F: FnMut()>(mut f: F) -> f64 {
    let (calib_ms, target_ns, batches) =
        if smoke() { (1u128, 1_000_000.0, 1) } else { (40, 80_000_000.0, 3) };
    let t0 = Instant::now();
    let mut calib = 0u64;
    loop {
        f();
        calib += 1;
        if t0.elapsed().as_millis() >= calib_ms {
            break;
        }
    }
    let per = t0.elapsed().as_nanos() as f64 / calib as f64;
    let batch = ((target_ns / per).ceil() as u64).max(1);
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        let ns = t.elapsed().as_nanos() as f64 / batch as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

fn sample(
    scenario: &'static str,
    path: &'static str,
    tlps: usize,
    bytes: usize,
    ns_per_iter: f64,
) -> Sample {
    Sample {
        scenario,
        path,
        tlps,
        bytes,
        ns_per_iter,
        tlps_per_sec: tlps as f64 * 1e9 / ns_per_iter,
        gib_per_s: bytes as f64 / ns_per_iter * 1e9 / (1024.0 * 1024.0 * 1024.0),
    }
}

fn patterned(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 131 % 251) as u8).collect()
}

fn requester(j: usize) -> Bdf {
    Bdf::new(j as u8 + 1, 0, 0)
}

/// A fleet-scale policy: `FLEET` TVM requesters, each admitted for
/// memory reads and writes at L1, each with `RANGES_PER_REQUESTER`
/// disjoint L2 address stripes cycling through the three permissive
/// actions. The linear scan walks up to `FLEET * RANGES_PER_REQUESTER`
/// L2 rows per packet; the compiled tree probes one (type, requester)
/// bucket.
fn fleet_filter() -> PacketFilter {
    let mut filter = PacketFilter::new();
    for j in 0..FLEET {
        filter.push_l1(L1Rule::admit(TlpType::MemWrite, requester(j)));
        filter.push_l1(L1Rule::admit(TlpType::MemRead, requester(j)));
    }
    filter.push_l1(L1Rule::default_deny());
    let actions = [
        SecurityAction::CryptProtect,
        SecurityAction::WriteProtect,
        SecurityAction::PassThrough,
    ];
    for j in 0..FLEET {
        for k in 0..RANGES_PER_REQUESTER {
            let base = ((j * RANGES_PER_REQUESTER + k) as u64) * 0x1000;
            filter.push_l2(L2Rule::for_range(
                TlpType::MemWrite,
                requester(j),
                base..base + 0x1000,
                actions[k % actions.len()],
            ));
        }
    }
    filter
}

/// A deterministic flood mixing in-range writes, out-of-range writes
/// (L2 miss), reads (scan the whole L2 table before missing), and a
/// rogue requester (caught by the default-deny row).
fn flood() -> Vec<Tlp> {
    let rogue = Bdf::new(0x3F, 0, 0);
    (0..FLOOD_LEN)
        .map(|i| {
            let req = requester(i % FLEET);
            let stripe = ((i % FLEET) * RANGES_PER_REQUESTER + (i / FLEET) % RANGES_PER_REQUESTER)
                as u64
                * 0x1000;
            match i % 4 {
                0 => Tlp::memory_write(req, stripe + (i as u64 % 0x1000), vec![0x5C; 16]),
                1 => Tlp::memory_write(req, 0x00DE_0000 + i as u64, vec![0x5C; 16]),
                2 => Tlp::memory_read(req, stripe, 64, (i % 256) as u8),
                _ => Tlp::memory_write(rogue, stripe, vec![0x5C; 16]),
            }
        })
        .collect()
}

/// Classification throughput: the same flood through the compiled tree
/// and the linear-scan oracle, after a differential sanity pass.
fn filter_scenarios() -> Vec<Sample> {
    let flood = flood();
    let wire_bytes: usize = flood.iter().map(Tlp::wire_len).sum();

    // Sanity: both paths agree on every flood packet (the property suite
    // covers random tables; this pins the exact benchmark workload).
    let mut fast = fleet_filter();
    let mut oracle = fleet_filter();
    for tlp in &flood {
        assert_eq!(
            fast.classify(tlp.header()),
            oracle.classify_scan(tlp.header()),
            "benchmark flood must classify identically on both paths: {tlp}"
        );
    }
    assert_eq!(fast.stats(), oracle.stats());

    let mut samples = Vec::new();
    let ns = measure(|| {
        for tlp in &flood {
            std::hint::black_box(fast.classify(tlp.header()));
        }
    });
    samples.push(sample("small_tlp_flood", "compiled", FLOOD_LEN, wire_bytes, ns));
    let ns = measure(|| {
        for tlp in &flood {
            std::hint::black_box(oracle.classify_scan(tlp.header()));
        }
    });
    samples.push(sample("small_tlp_flood", "scan", FLOOD_LEN, wire_bytes, ns));
    samples
}

/// End-to-end staging throughput: full confidential workloads through
/// the fabric and the batched SC pump.
fn staging_scenario() -> Sample {
    let (weights_len, input_len) =
        if smoke() { (16 * 1024, 2 * 1024) } else { (128 * 1024, 16 * 1024) };
    let weights = patterned(weights_len);
    let input = patterned(input_len);
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    // Warm up (session establishment, rule install), then count the TLPs
    // one steady-state run pushes through the SC filter.
    system.run_workload(&weights, &input).expect("warmup workload");
    let before = system.telemetry().counter("sc.filter_tlps");
    system.run_workload(&weights, &input).expect("counted workload");
    let tlps_per_run = (system.telemetry().counter("sc.filter_tlps") - before) as usize;
    let ns = measure(|| {
        system.run_workload(&weights, &input).expect("benchmark workload");
    });
    sample("bulk_dma_staging", "batched", tlps_per_run, weights_len + input_len, ns)
}

/// One fixed-seed run (96 KiB of weights, 8 KiB of input) through the
/// batched pipeline for the deterministic sections of the report:
/// telemetry snapshot and the SC batch-size summary.
fn instrumented_run() -> (TelemetrySnapshot, u64, u64, u64) {
    let mut system = ConfidentialSystem::build(XpuSpec::a100(), SystemMode::CcAi);
    let weights = patterned(96 * 1024);
    let input = patterned(8 * 1024);
    system.run_workload(&weights, &input).expect("fixed-seed workload succeeds");
    let snapshot = system.telemetry_snapshot();
    let batches = system.telemetry().counter("sc.filter_batches");
    let tlps = system.telemetry().counter("sc.filter_tlps");
    let histogram_samples =
        system.telemetry().histogram("sc.batch_size").map_or(0, |h| h.total());
    (snapshot, batches, tlps, histogram_samples)
}

/// The tentpole's headline number: compiled vs scan flood throughput.
fn speedup(samples: &[Sample]) -> f64 {
    let find = |path: &str| {
        samples
            .iter()
            .find(|s| s.scenario == "small_tlp_flood" && s.path == path)
            .map(|s| s.tlps_per_sec)
            .unwrap_or(0.0)
    };
    let (compiled, scan) = (find("compiled"), find("scan"));
    if scan > 0.0 {
        compiled / scan
    } else {
        0.0
    }
}

fn to_json(
    samples: &[Sample],
    telemetry: &TelemetrySnapshot,
    batches: u64,
    batched_tlps: u64,
    histogram_samples: u64,
) -> String {
    let mut out = String::from(
        "{\n  \"benchmark\": \"datapath_throughput\",\n  \"unit\": \"TLPs/s\",\n  \"results\": [\n",
    );
    for (i, s) in samples.iter().enumerate() {
        let sep = if i + 1 == samples.len() { "" } else { "," };
        writeln!(
            out,
            "    {{\"scenario\": \"{}\", \"path\": \"{}\", \"tlps\": {}, \"bytes\": {}, \"ns_per_iter\": {:.1}, \"tlps_per_sec\": {:.1}, \"gib_per_s\": {:.4}}}{}",
            s.scenario, s.path, s.tlps, s.bytes, s.ns_per_iter, s.tlps_per_sec, s.gib_per_s, sep
        )
        .expect("write to string");
    }
    out.push_str("  ],\n");
    writeln!(out, "  \"speedup_compiled_vs_scan\": {:.1},", speedup(samples)).expect("write");
    let mean_batch =
        if batches > 0 { batched_tlps as f64 / batches as f64 } else { 0.0 };
    writeln!(
        out,
        "  \"sc_batch\": {{\"batches\": {batches}, \"tlps\": {batched_tlps}, \"mean_batch_size\": {mean_batch:.2}, \"histogram_samples\": {histogram_samples}}},"
    )
    .expect("write");
    out.push_str("  \"telemetry\": ");
    let telemetry_json = telemetry.to_json();
    assert!(
        telemetry_json.contains(ccai_core::telemetry::SNAPSHOT_SCHEMA),
        "embedded telemetry snapshot must carry the pinned schema"
    );
    out.push_str(telemetry_json.trim_end());
    out.push('\n');
    out.push('}');
    out.push('\n');
    out
}

fn main() {
    let out_path =
        std::env::args().nth(1).unwrap_or_else(|| "BENCH_datapath.json".to_string());
    let mut samples = filter_scenarios();
    samples.push(staging_scenario());
    for s in &samples {
        println!(
            "{:>16} {:<8}  {:>14.1} ns/iter  {:>14.0} TLPs/s  {:>8.3} GiB/s",
            s.scenario, s.path, s.ns_per_iter, s.tlps_per_sec, s.gib_per_s
        );
    }
    println!("compiled vs scan flood: {:.1}x", speedup(&samples));
    let (snapshot, batches, tlps, histogram_samples) = instrumented_run();
    println!("fixed-seed workload trace digest: {}", snapshot.digest_hex());
    println!("sc batches: {batches} ({tlps} TLPs, {histogram_samples} histogram samples)");
    let json = to_json(&samples, &snapshot, batches, tlps, histogram_samples);
    if let Err(e) = std::fs::write(&out_path, json) {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
}
