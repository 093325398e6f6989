//! `bench_e2e compare A B`: do two sets of runs agree?
//!
//! Each file holds run records, one JSON object per line, as `--record`
//! appends them. One row per workload × end-to-end metric: both medians,
//! their ratio (base A), the bound, and a verdict.

use crate::json::Json;
use crate::sheet::{Better, END_TO_END, WORKLOADS};
use std::fmt::Write;

/// The three cut points `statistics.quantiles(values, n=4)` returns in
/// Python (exclusive method), so spreads here read like the driver's.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    std::array::from_fn(|i| {
        let rank = (i + 1) * (n + 1);
        let j = (rank / 4).clamp(1, n - 1);
        let delta = rank as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Median and interquartile spread as a share of the median.
fn summarize(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.len() < 2 {
        return (sorted.first().copied().unwrap_or(f64::NAN), 0.0);
    }
    let [q1, median, q3] = quartiles(&sorted);
    (median, (q3 - q1) / median)
}

struct RunSet {
    /// Per workload: per end-to-end metric, one value per run.
    values: Vec<Vec<Vec<f64>>>,
    attempted: Vec<f64>,
    failed: Vec<f64>,
}

fn read_set(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet {
        values: vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()],
        attempted: vec![0.0; WORKLOADS.len()],
        failed: vec![0.0; WORKLOADS.len()],
    };
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let field = |key: &str| {
            record
                .get(key)
                .ok_or(format!("line {}: no {key:?}", number + 1))
        };
        if field("trace")?.as_bool() != Some(false) || field("smoke")?.as_bool() != Some(false) {
            continue;
        }
        let name = field("workload")?.as_str().unwrap_or_default();
        let Some(w) = WORKLOADS.iter().position(|w| w.name == name) else {
            return Err(format!("line {}: unknown workload {name:?}", number + 1));
        };
        set.attempted[w] += field("attempted")?.as_f64().unwrap_or(0.0);
        set.failed[w] += field("failed")?.as_f64().unwrap_or(0.0);
        let metrics = field("metrics")?;
        for (m, metric) in END_TO_END.iter().enumerate() {
            let value = metrics
                .get(metric.name)
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64)
                .ok_or(format!("line {}: no value for {}", number + 1, metric.name))?;
            set.values[w][m].push(value);
        }
    }
    Ok(set)
}

/// Compares two sets of run records. Returns the table and whether B is
/// nowhere worse than A.
///
/// # Errors
///
/// A record that does not parse or lacks a field.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (read_set(a_text)?, read_set(b_text)?);
    let mut table = String::new();
    let mut agree = true;
    let _ = writeln!(
        table,
        "{:<13} {:<22} {:>5} {:>13} {:>13} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "runs", "median A", "median B", "B/A", "IQR A", "IQR B", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        if a.values[w][0].is_empty() || b.values[w][0].is_empty() {
            continue;
        }
        for (m, metric) in END_TO_END.iter().enumerate() {
            let (va, vb) = (&a.values[w][m], &b.values[w][m]);
            let ((median_a, spread_a), (median_b, spread_b)) = (summarize(va), summarize(vb));
            let worse_by = match metric.better {
                Better::Lower => (median_b - median_a) / median_a,
                Better::Higher => (median_a - median_b) / median_a,
            };
            let b_always_better = va.iter().all(|&x| {
                vb.iter().all(|&y| match metric.better {
                    Better::Lower => y < x,
                    Better::Higher => y > x,
                })
            });
            let verdict = if worse_by > metric.bound {
                agree = false;
                "worse"
            } else if spread_a.max(spread_b) > metric.bound && !b_always_better {
                "unresolved"
            } else {
                "ok"
            };
            let _ = writeln!(
                table,
                "{:<13} {:<22} {:>2}/{:<2} {:>13.4} {:>13.4} {:>9.4} {:>6.2}% {:>6.2}% {:>5.0}%  {verdict}",
                workload.name,
                format!("{} [{}]", metric.name, metric.unit),
                va.len(),
                vb.len(),
                median_a,
                median_b,
                median_b / median_a,
                spread_a * 100.0,
                spread_b * 100.0,
                metric.bound * 100.0,
            );
        }
        let (share_a, share_b) = (a.failed[w] / a.attempted[w], b.failed[w] / b.attempted[w]);
        let verdict = if share_b > share_a {
            agree = false;
            "worse"
        } else {
            "ok"
        };
        let _ = writeln!(
            table,
            "{:<13} {:<22} {:>5} {:>13.6} {:>13.6} {:>9} {:>7} {:>7} {:>6}  {verdict}",
            workload.name, "failed share", "", share_a, share_b, "", "", "", ""
        );
    }
    let _ = writeln!(
        table,
        "ratios are B/A with A as the base; IQR is (Q3-Q1)/median of each set"
    );
    Ok((table, agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, p50: f64, failed: u64) -> String {
        let metrics = Json::obj(END_TO_END.iter().map(|m| {
            let value = if m.name == "wall_us_p50" { p50 } else { 10.0 };
            (
                m.name,
                Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
            )
        }));
        Json::obj([
            ("workload", Json::str(workload)),
            ("trace", Json::Bool(false)),
            ("smoke", Json::Bool(false)),
            ("attempted", Json::count(100)),
            ("failed", Json::count(failed)),
            ("metrics", metrics),
        ])
        .to_string()
    }

    fn set(workload: &str, p50s: &[f64], failed: u64) -> String {
        p50s.iter()
            .map(|&p| record(workload, p, failed) + "\n")
            .collect()
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
        let q = quartiles(&[1.0, 2.0, 4.0, 7.0, 11.0, 16.0, 22.0, 29.0, 37.0, 46.0]);
        assert_eq!(q, [3.5, 13.5, 31.0]);
    }

    #[test]
    fn verdicts_follow_bound_spread_and_failures() {
        let bound = END_TO_END
            .iter()
            .find(|m| m.name == "wall_us_p50")
            .unwrap()
            .bound;
        let around = |centre: f64| set("kv_swap", &[centre, centre + 1.0, centre - 1.0], 0);
        let a = around(100.0);
        let (table, agree) = compare(&a, &around(100.0 * (1.0 + bound / 2.0))).unwrap();
        assert!(agree && !table.contains("unresolved"), "{table}");
        let (table, agree) = compare(&a, &around(100.0 * (1.0 + bound * 1.5))).unwrap();
        assert!(!agree && table.contains("worse"), "{table}");
        let wide = 100.0 * bound * 2.0;
        let noisy = set("kv_swap", &[100.0 - wide, 100.0, 100.0 + wide], 0);
        let (table, agree) = compare(&a, &noisy).unwrap();
        assert!(agree && table.contains("unresolved"), "{table}");
        let (table, agree) = compare(&a, &set("kv_swap", &[100.0, 101.0, 99.0], 1)).unwrap();
        assert!(!agree, "{table}");
        assert!(compare("{not json", &a).is_err());
    }
}
