//! One epoch: generate inputs from `(seed, epoch)`, deploy a fresh fleet
//! or system, warm it up, send `R` timed requests one after the other
//! (closed loop, one client), check every output, drop the system.
//!
//! Epochs bound a system's lifetime on purpose. A long-lived system grows
//! ~130 KiB per request, fails every D2H transfer near 40 k chunks, and a
//! control-path fault plan panics it; see the README's "known program
//! limits". Those are the program's to fix; the epoch keeps them out of
//! the timed window and the memory metric keeps the first one visible.

use crate::sheet::{Kind, Workload};
use crate::sut::{Probe, Request, Sut};
use crate::trace::{Span, TraceCounts, Tracer};
use ccai_core::handler::CHUNK_SIZE;
use ccai_core::system::SystemMode;
use ccai_llm::PromptGenerator;
use ccai_sim::SimRng;
use ccai_xpu::CommandProcessor;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Instant;

/// Model weights are 4 KiB everywhere: the surrogate kernel hashes them
/// on every request, and that share should stay small.
const WEIGHT_BYTES: usize = 4096;

/// Distinct payloads per epoch of the bulk workloads, cycled. Hashing a
/// fresh 1 MiB prompt per request to know its expected output would cost
/// the benchmark a third of what the request costs the program.
const BULK_POOL: usize = 8;

/// Failed requests spelled out per epoch; the rest are only counted.
const FAILURES_SPELLED_OUT: usize = 5;

/// What to run for one epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochSpec<'a> {
    pub workload: &'a Workload,
    /// The workload's kind, or a resized one (`selfcheck` halves the
    /// bulk prompt).
    pub kind: Kind,
    pub mode: SystemMode,
    pub seed: u64,
    pub epoch: usize,
    /// Timed requests (`R`, or `R / 16` in smoke mode).
    pub requests: usize,
    pub faulted: bool,
}

impl EpochSpec<'_> {
    fn warmup(&self) -> usize {
        (self.requests / 16).max(1)
    }
}

/// The inputs of one epoch, a function of `(seed, epoch)` alone so that
/// `chat_faulted` sees exactly `chat_small`'s prompts.
pub(crate) struct EpochInputs {
    pub(crate) weights: Vec<u8>,
    payloads: Vec<Vec<u8>>,
    /// Expected output per payload; `None` for `kv_swap`, whose expected
    /// read-back is the block itself.
    expected: Option<Vec<[u8; 32]>>,
    tenants: u32,
}

fn mix(seed: u64, epoch: usize) -> u64 {
    // SplitMix64 finalizer over the pair, so neighbouring seeds and
    // epochs share no stream.
    let mut z = seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl EpochInputs {
    pub(crate) fn generate(spec: &EpochSpec<'_>) -> EpochInputs {
        let stream = mix(spec.seed, spec.epoch);
        let mut rng = SimRng::seed_from(stream);
        let weights = rng.bytes(WEIGHT_BYTES);
        let total = spec.warmup() + spec.requests;
        let (payloads, tenants): (Vec<Vec<u8>>, u32) = match spec.kind {
            Kind::Chat { tenants, .. } => {
                let mut lengths = PromptGenerator::sharegpt_like(stream);
                let prompts = (0..total)
                    .map(|_| rng.bytes(2 * lengths.next_len() as usize))
                    .collect();
                (prompts, tenants)
            }
            Kind::Bulk {
                prompt_bytes: bytes,
            }
            | Kind::KvSwap { block_bytes: bytes } => (
                (0..BULK_POOL.min(total))
                    .map(|_| rng.bytes(bytes))
                    .collect(),
                1,
            ),
        };
        let expected = match spec.kind {
            Kind::KvSwap { .. } => None,
            _ => Some(
                payloads
                    .iter()
                    .map(|p| CommandProcessor::surrogate_inference(&weights, p))
                    .collect(),
            ),
        };
        EpochInputs {
            weights,
            payloads,
            expected,
            tenants,
        }
    }

    /// Payloads of the timed requests, in order.
    pub(crate) fn timed_payloads<'a>(
        &'a self,
        spec: &EpochSpec<'_>,
    ) -> impl Iterator<Item = &'a [u8]> {
        let warmup = spec.warmup();
        (warmup..warmup + spec.requests).map(|index| self.request(index).0.payload)
    }

    /// Request `index` of the epoch and the output it must produce.
    fn request(&self, index: usize) -> (Request<'_>, &[u8]) {
        let slot = index % self.payloads.len();
        let payload = &self.payloads[slot];
        let expected: &[u8] = match &self.expected {
            Some(outputs) => &outputs[slot],
            None => payload,
        };
        (
            Request {
                tenant: index as u32 % self.tenants,
                payload,
            },
            expected,
        )
    }
}

/// What one epoch measured.
#[derive(Debug, Default)]
pub struct EpochRecord {
    pub epoch: usize,
    pub deploy_ns: u64,
    /// Deploy plus warm-up.
    pub setup_ns: u64,
    /// Wall time of every output-verified request, ascending once the
    /// epoch is over.
    pub wall_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Payload bytes and 4 KiB chunks of the timed requests, host to
    /// device and back.
    pub h2d_bytes: u64,
    pub h2d_chunks: u64,
    pub d2h_bytes: u64,
    /// Counter and simulated-time deltas over the timed requests, and the
    /// replicas' digests after them.
    pub delta: Probe,
    pub rss_before_kib: u64,
    pub rss_after_kib: u64,
    pub violations: Vec<String>,
    pub trace: Option<(Vec<Span>, TraceCounts)>,
    /// Golden-snapshot bytes and resume time (traced epochs only).
    pub snapshot: Option<(usize, f64)>,
}

impl EpochRecord {
    /// Verified requests per second of request wall time.
    pub fn goodput_rps(&self) -> f64 {
        let wall: u64 = self.wall_ns.iter().sum();
        self.wall_ns.len() as f64 / (wall as f64 / 1e9)
    }

    /// Wall time in µs at quantile `q` of this epoch's verified requests.
    pub fn wall_us(&self, q: f64) -> f64 {
        quantile(&self.wall_ns, q) / 1e3
    }
}

/// Value at quantile `q` of ascending `sorted` (nearest rank).
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Reads one `kB` field of `/proc/self/status`.
pub fn proc_status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
}

/// Runs one epoch. A panic or a failed deploy fails every request the
/// epoch had not served yet.
pub fn run_epoch(spec: &EpochSpec<'_>, tracer: Option<&Rc<Tracer>>) -> EpochRecord {
    let inputs = EpochInputs::generate(spec);
    let mut record = EpochRecord {
        epoch: spec.epoch,
        ..EpochRecord::default()
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        drive(spec, &inputs, tracer, &mut record)
    }));
    let failure = match outcome {
        Ok(Ok(())) => None,
        Ok(Err(message)) => Some(message),
        Err(panic) => Some(format!(
            "panic: {}",
            panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>")
        )),
    };
    record.wall_ns.sort_unstable();
    if let Some(message) = failure {
        let unserved = spec.requests as u64 - record.attempted;
        record.attempted += unserved;
        record.failed += unserved;
        record
            .violations
            .push(format!("epoch {} aborted: {message}", spec.epoch));
    }
    record
}

fn drive(
    spec: &EpochSpec<'_>,
    inputs: &EpochInputs,
    tracer: Option<&Rc<Tracer>>,
    record: &mut EpochRecord,
) -> Result<(), String> {
    let send = |sut: &mut Sut, index: usize, timed: Option<u32>| {
        let (request, expected) = inputs.request(index);
        let started = Instant::now();
        let result = match tracer {
            Some(tracer) => sut.request_traced(tracer, timed.unwrap_or(u32::MAX), &request),
            None => sut.request(&request),
        };
        let wall_ns = started.elapsed().as_nanos() as u64;
        match result {
            Ok(output) if output == expected => Ok(wall_ns),
            Ok(_) => Err("output differs from the reference".to_string()),
            Err(e) => Err(e),
        }
    };

    let fault_seed = spec.faulted.then(|| mix(spec.seed, spec.epoch));
    let started = Instant::now();
    let mut sut = Sut::deploy(spec.workload, spec.mode, &inputs.weights, fault_seed)?;
    record.deploy_ns = started.elapsed().as_nanos() as u64;
    if let Some(tracer) = tracer {
        sut.instrument(tracer);
    }
    let warmup = spec.warmup();
    let started = Instant::now();
    for index in 0..warmup {
        if let Err(e) = send(&mut sut, index, None) {
            record
                .violations
                .push(format!("epoch {} warm-up request {index}: {e}", spec.epoch));
        }
    }
    record.setup_ns = record.deploy_ns + started.elapsed().as_nanos() as u64;

    if let Some(tracer) = tracer {
        // Room for 512 spans per request: `chat_*` record ≈135, and
        // `bulk_prefill`'s ≈650 grow the list once, early in the epoch.
        tracer.reset(spec.requests * 512);
    }
    let before = sut.probe();
    record.rss_before_kib = proc_status_kib("VmRSS").unwrap_or(0);
    for i in 0..spec.requests {
        let outcome = send(&mut sut, warmup + i, Some(i as u32));
        record.attempted += 1;
        match outcome {
            Ok(wall_ns) => record.wall_ns.push(wall_ns),
            Err(e) => {
                record.failed += 1;
                if record.failed as usize <= FAILURES_SPELLED_OUT {
                    record
                        .violations
                        .push(format!("epoch {} request {i}: {e}", spec.epoch));
                }
            }
        }
    }
    record.rss_after_kib = proc_status_kib("VmRSS").unwrap_or(0);
    record.delta = sut.probe().since(&before);
    if let Some(tracer) = tracer {
        record.trace = Some(tracer.take());
        record.snapshot = Some(sut.snapshot_cost());
    }

    for payload in inputs.timed_payloads(spec) {
        let len = payload.len() as u64;
        record.h2d_bytes += len;
        record.h2d_chunks += len.div_ceil(CHUNK_SIZE).max(1);
        record.d2h_bytes += match spec.kind {
            Kind::KvSwap { .. } => len,
            _ => 32,
        };
    }
    if spec.mode.protected() {
        gate(spec, record);
    }
    Ok(())
}

/// The correctness gate beyond output equality: the protected path was
/// driven, and recovery machinery ran only where faults were injected.
fn gate(spec: &EpochSpec<'_>, record: &mut EpochRecord) {
    let delta = &record.delta;
    let mut violations = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            violations.push(format!("epoch {}: {what}", spec.epoch));
        }
    };
    let encrypted = delta.get("adaptor.bytes_encrypted");
    let decrypted = delta.get("adaptor.bytes_decrypted");
    let chunks = delta.get("sc.chunks_decrypted");
    check(
        chunks >= record.h2d_chunks,
        format!(
            "SC decrypted {chunks} chunks, the payloads hold {}",
            record.h2d_chunks
        ),
    );
    if spec.faulted {
        check(
            encrypted >= record.h2d_bytes && decrypted >= record.d2h_bytes,
            format!(
                "Adaptor sealed {encrypted} B / opened {decrypted} B, less than the payloads' {} B / {} B",
                record.h2d_bytes, record.d2h_bytes
            ),
        );
    } else if record.failed == 0 {
        check(
            encrypted == record.h2d_bytes && decrypted == record.d2h_bytes,
            format!(
                "Adaptor sealed {encrypted} B / opened {decrypted} B, the payloads hold {} B / {} B",
                record.h2d_bytes, record.d2h_bytes
            ),
        );
        for key in [
            "driver.dma_retries",
            "driver.control_retries",
            "adaptor.rekeys",
            "adaptor.transfer_retries",
            "adaptor.control_retries",
            "sc.packets_blocked",
            "sc.auth_failures",
            "fault.events",
            "xpu.dma_refetches",
        ] {
            check(
                delta.get(key) == 0,
                format!("{key} = {} on a fault-free run", delta.get(key)),
            );
        }
    }
    check(
        delta.get("fleet.quarantined_tenants") == 0,
        format!(
            "{} tenants quarantined",
            delta.get("fleet.quarantined_tenants")
        ),
    );
    record.violations.extend(violations);
}
