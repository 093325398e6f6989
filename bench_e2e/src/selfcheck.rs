//! `bench_e2e selfcheck`: evidence that the numbers respond to the
//! program rather than to the benchmark's own overhead.
//!
//! Three checks, each on epoch 0 at full `R`: removing the protection
//! (`SystemMode::Vanilla`) must make every workload at least 1.5× faster;
//! halving the bulk prompt must roughly halve the request; and the traced
//! layers must account for at least 90 % of the request span.

use crate::epoch::{run_epoch, EpochSpec};
use crate::sheet::{Kind, Workload, WORKLOADS};
use crate::trace::{LayerTotals, Tracer};
use ccai_core::system::SystemMode;
use std::fmt::Write;

const MIN_VANILLA_SPEEDUP: f64 = 1.5;
const HALF_PROMPT_COST: std::ops::RangeInclusive<f64> = 0.42..=0.60;
const MIN_COVERAGE: f64 = 0.9;

/// Runs the checks; returns the report and whether all passed.
pub fn selfcheck(seed: u64) -> (String, bool) {
    let mut report = String::new();
    let mut pass = true;
    let mut check = |ok: bool, line: String| {
        pass &= ok;
        let _ = writeln!(report, "{} {line}", if ok { "ok  " } else { "FAIL" });
    };
    let spec = |workload: &'static Workload, kind: Kind, mode: SystemMode| EpochSpec {
        workload,
        kind,
        mode,
        seed,
        epoch: 0,
        requests: workload.requests,
        faulted: workload.faulted && mode.protected(),
    };
    for workload in &WORKLOADS {
        let protected = run_epoch(&spec(workload, workload.kind, SystemMode::CcAi), None);
        let vanilla = run_epoch(&spec(workload, workload.kind, SystemMode::Vanilla), None);
        let failed = protected.failed + vanilla.failed;
        let speedup = protected.wall_us(0.50) / vanilla.wall_us(0.50);
        check(
            failed == 0 && speedup >= MIN_VANILLA_SPEEDUP,
            format!(
                "{}: p50 {:.1} us protected / {:.1} us vanilla = {speedup:.2}x (>= {MIN_VANILLA_SPEEDUP}x), {failed} failed",
                workload.name,
                protected.wall_us(0.50),
                vanilla.wall_us(0.50),
            ),
        );

        let tracer = Tracer::new();
        let mut traced = run_epoch(
            &spec(workload, workload.kind, SystemMode::CcAi),
            Some(&tracer),
        );
        let mut totals = LayerTotals::default();
        if let Some((spans, counts)) = traced.trace.take() {
            totals.add(&spans, counts);
        }
        check(
            traced.failed == 0 && totals.coverage() >= MIN_COVERAGE,
            format!(
                "{}: layers cover {:.3} of the request span (>= {MIN_COVERAGE})",
                workload.name,
                totals.coverage()
            ),
        );

        if let Kind::Bulk { prompt_bytes } = workload.kind {
            let half = Kind::Bulk {
                prompt_bytes: prompt_bytes / 2,
            };
            let halved = run_epoch(&spec(workload, half, SystemMode::CcAi), None);
            let cost = halved.wall_us(0.50) / protected.wall_us(0.50);
            check(
                halved.failed == 0 && HALF_PROMPT_COST.contains(&cost),
                format!(
                    "{}: a {} KiB prompt costs {cost:.3} of a {} KiB one ({HALF_PROMPT_COST:?})",
                    workload.name,
                    prompt_bytes / 2048,
                    prompt_bytes / 1024
                ),
            );
        }
    }
    (report, pass)
}
