//! Command line of the benchmark. See `README.md`.

use bench_e2e::compare::compare;
use bench_e2e::run::{run, RunArgs};
use bench_e2e::selfcheck::selfcheck;
use bench_e2e::sheet::{benchmark_json, workload, RUN_SECONDS, WORKLOADS};
use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--smoke]
            [--record <file>] [--out <dir>]
  bench_e2e selfcheck [--seed <n>]
  bench_e2e compare <A.jsonl> <B.jsonl>
  bench_e2e sheet";

fn fail(message: &str) -> ExitCode {
    eprintln!("bench_e2e: {message}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("sheet") => {
            println!("{}", benchmark_json());
            ExitCode::SUCCESS
        }
        Some("compare") => {
            let [_, a, b] = args.as_slice() else {
                return fail("compare takes two files");
            };
            let read = |path: &String| {
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
            };
            match read(a).and_then(|a| compare(&a, &read(b)?)) {
                Ok((table, agree)) => {
                    print!("{table}");
                    if agree {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => fail(&e),
            }
        }
        Some("selfcheck") => {
            let seed = match args.get(1..) {
                Some([]) => 1,
                Some([flag, n]) if flag == "--seed" => match n.parse() {
                    Ok(seed) => seed,
                    Err(_) => return fail("--seed takes a whole number"),
                },
                _ => return fail("selfcheck takes only --seed <n>"),
            };
            let (report, pass) = selfcheck(seed);
            print!("{report}");
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        _ => run_command(&args),
    }
}

fn run_command(args: &[String]) -> ExitCode {
    let mut name = None;
    let mut seed = None;
    let mut seconds = RUN_SECONDS;
    let mut traced = false;
    let mut smoke = false;
    let mut record_path = None;
    let mut out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let Some(value) = it.next() else {
            return fail(&format!("{flag} needs a value"));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number"))
        };
        let parsed = match flag.as_str() {
            "--workload" => {
                name = Some(value.as_str());
                Ok(())
            }
            "--seed" => number().map(|n| seed = Some(n)),
            "--seconds" => number().map(|n| seconds = n),
            "--trace" if value == "0" || value == "1" => {
                traced = value == "1";
                Ok(())
            }
            "--trace" => Err("--trace takes 0 or 1".to_string()),
            "--record" => {
                record_path = Some(PathBuf::from(value));
                Ok(())
            }
            "--out" => {
                out_dir = PathBuf::from(value);
                Ok(())
            }
            _ => Err(format!("unknown argument {flag}")),
        };
        if let Err(e) = parsed {
            return fail(&e);
        }
    }
    let (Some(name), Some(seed)) = (name, seed) else {
        return fail("--workload and --seed are required");
    };
    let Some(workload) = workload(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return fail(&format!(
            "unknown workload {name:?}; the sheet has {names:?}"
        ));
    };

    let result = run(
        &RunArgs {
            workload,
            seed,
            seconds,
            traced,
            smoke,
        },
        &out_dir,
    );
    for (name, value, unit) in &result.metrics {
        println!("{name} = {value} {unit}");
    }
    for violation in &result.violations {
        println!("violation: {violation}");
    }
    println!("record {}", result.record);
    if let Some(path) = record_path {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .and_then(|mut file| writeln!(file, "{}", result.record));
        if let Err(e) = appended {
            eprintln!("bench_e2e: cannot append to {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", result.contract_line());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
