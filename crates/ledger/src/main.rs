//! `cs-ledger` — the stage-attributed benchmark of the serving path.
//!
//! ```text
//! cs-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cs-ledger [--seed <n>] [--seconds <s>] [--runs <r>] [--out <file>]
//! cs-ledger compare <A.json> <B.json>
//! ```
//!
//! The first form is the one `BENCHMARK.json` names: one workload in
//! this process, its result as one JSON object on the last line. The
//! second runs all five workloads, each in a fresh child process, and
//! writes the merged result file. See README.md.

mod alloc;
mod estimate;
mod gen;
mod host;
mod json;
mod load;
mod metrics;
mod report;
mod sut;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use crate::workload::Options;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage:
  cs-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
  cs-ledger [--seed <n>] [--seconds <s>] [--runs <r>] [--out <file>]
  cs-ledger compare <A.json> <B.json>
workloads: mlp_inproc mlp_net fc_dense fc_spike mlp_sim";

/// Seconds a run measures for when `--seconds` is not given (the
/// `run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 15.0;

/// Where build products go; trace and result files go beside them.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target).join("ledger")
}

fn write_file(name: &str, contents: &str) -> Result<PathBuf, String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 1,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = || format!("{flag} cannot take {value:?}");
        match flag.as_str() {
            "--workload" => out.workload = Some(value.clone()),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                out.seconds = value.parse().map_err(|_| bad())?;
                if !(out.seconds > 0.0 && out.seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => {
                out.runs = value.parse().map_err(|_| bad())?;
                if out.runs == 0 {
                    return Err(bad());
                }
            }
            "--out" => out.out = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(out)
}

fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let w = metrics::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let outcome = workload::run(
        w,
        &Options {
            seed: args.seed,
            seconds: args.seconds,
            trace: args.trace,
            smoke: false,
        },
    )?;
    if args.trace {
        let path = write_file(
            &format!("{name}.trace.jsonl"),
            &trace::to_jsonl(&outcome.spans),
        )?;
        println!(
            "{} spans written to {}",
            outcome.spans.len(),
            path.display()
        );
    }
    if let Some(e) = &outcome.first_error {
        eprintln!("first failure: {e}");
    }
    for (metric, value) in &outcome.metrics {
        println!("{metric:<36} {value:>16.4} {}", report::unit_of(metric));
    }
    println!("{}", report::result_line(&outcome));
    Ok(())
}

fn run_all(args: &Args) -> Result<(), String> {
    let result = report::run_all(args.seed, args.seconds, args.runs)?;
    let text = result.render() + "\n";
    let path = match &args.out {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
            PathBuf::from(path)
        }
        None => write_file("result.json", &text)?,
    };
    println!("result written to {}", path.display());
    Ok(())
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (table, any_worse) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.as_slice() {
        [cmd, a, b] if cmd == "compare" => match compare(a, b) {
            Ok(false) => Ok(()),
            Ok(true) => return ExitCode::from(2),
            Err(e) => Err(e),
        },
        [cmd, ..] if cmd == "compare" || cmd == "--help" || cmd == "-h" => Err(USAGE.to_string()),
        _ => parse_args(&args).and_then(|parsed| match parsed.workload.clone() {
            Some(name) => run_one(&name, &parsed),
            None => run_all(&parsed),
        }),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cs-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
