//! No drift between the sheet and the binary: `/BENCHMARK.json` is what
//! `bench_e2e sheet` prints, and every workload, traced and untraced,
//! emits exactly the sheet's metric names and units in smoke mode (one
//! epoch, `R / 16` requests, the same code paths as a full run).

use bench_e2e::json::Json;
use bench_e2e::sheet::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::Path;
use std::process::Command;

fn bench() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
}

#[test]
fn benchmark_json_is_the_binarys_sheet() {
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = std::fs::read_to_string(&committed)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", committed.display()));
    let printed = bench().arg("sheet").output().expect("bench_e2e sheet runs");
    assert!(printed.status.success());
    assert_eq!(
        Json::parse(&committed).expect("BENCHMARK.json parses"),
        Json::parse(&String::from_utf8(printed.stdout).unwrap()).expect("sheet parses"),
        "BENCHMARK.json differs from `bench_e2e sheet`; regenerate it"
    );
}

fn smoke(workload: &str) {
    let out_dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}"));
    for trace in ["0", "1"] {
        let run = bench()
            .args([
                "--workload",
                workload,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--smoke",
            ])
            .args(["--trace", trace, "--out"])
            .arg(&out_dir)
            .output()
            .expect("bench_e2e runs");
        let stdout = String::from_utf8(run.stdout).unwrap();
        assert!(
            run.status.success(),
            "{workload} --trace {trace} exited with {:?}:\n{stdout}\n{}",
            run.status.code(),
            String::from_utf8_lossy(&run.stderr)
        );
        let last = Json::parse(stdout.lines().last().expect("a result line")).unwrap();
        let keys: Vec<&str> = last
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(last.get("failed"), Some(&Json::Num(0.0)));
        assert!(last.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);

        let emitted: Vec<(&str, &str)> = last
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap()
            .iter()
            .map(|(name, metric)| {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload}: {name} = {value:?}"
                );
                (
                    name.as_str(),
                    metric.get("unit").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        let sheet: Vec<(&str, &str)> = if trace == "0" {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            PER_LAYER
                .iter()
                .map(|&(name, unit, _)| (name, unit))
                .collect()
        };
        assert_eq!(emitted, sheet, "{workload} --trace {trace}");
    }
    let trace_file = out_dir.join(format!("trace-{workload}.jsonl"));
    let spans = std::fs::read_to_string(&trace_file).expect("the traced run wrote its spans");
    let first = Json::parse(spans.lines().next().expect("at least one span")).unwrap();
    let keys: Vec<&str> = first
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["id", "name", "parent", "request", "start_ns", "end_ns"]
    );
}

#[test]
fn chat_small_emits_the_sheet() {
    smoke(WORKLOADS[0].name);
}

#[test]
fn bulk_prefill_emits_the_sheet() {
    smoke(WORKLOADS[1].name);
}

#[test]
fn kv_swap_emits_the_sheet() {
    smoke(WORKLOADS[2].name);
}

#[test]
fn chat_faulted_emits_the_sheet() {
    smoke(WORKLOADS[3].name);
}

#[test]
fn a_run_outside_the_sheet_is_refused() {
    let run = bench()
        .args(["--workload", "no_such", "--seed", "1"])
        .output()
        .unwrap();
    assert_eq!(run.status.code(), Some(2));
    assert!(run.stdout.is_empty(), "no result line without a run");
}
