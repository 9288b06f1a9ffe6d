//! Conformance harness CLI.
//!
//! ```text
//! conformance run      --cases N --seed S [--inject FAULT] [--serve-every N]
//!                      [--no-shrink] [--max-failures N] [--report-out PATH]
//! conformance replay   --seed S --case K [--inject FAULT]
//! conformance corpus
//! conformance net-fuzz [--cases N] [--seed S]
//! conformance registry-fuzz [--cases N] [--seed S]
//! ```
//!
//! Exit codes: 0 = all checks green, 1 = usage error, 2 = mismatches.

use std::process::ExitCode;

use cs_conformance::runner::{self, RunConfig};
use cs_conformance::{corpus, Fault};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  \
         conformance run --cases N --seed S [--inject FAULT]\n      \
         [--serve-every N] [--no-shrink] [--max-failures N] [--report-out PATH]\n  \
         conformance replay --seed S --case K [--inject FAULT]\n  \
         conformance corpus\n  \
         conformance net-fuzz [--cases N] [--seed S]\n  \
         conformance registry-fuzz [--cases N] [--seed S]\n\
         FAULT: reverse-accumulation | codebook-off-by-one | pair-codebook-swap | swap-batch-columns"
    );
    ExitCode::from(1)
}

fn parse_u64(args: &[String], i: &mut usize, flag: &str) -> Result<u64, String> {
    *i += 1;
    let v = args
        .get(*i)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<u64>()
        .map_err(|_| format!("{flag}: not a number: {v}"))
}

fn parse_fault(args: &[String], i: &mut usize) -> Result<Fault, String> {
    *i += 1;
    let v = args
        .get(*i)
        .ok_or_else(|| "--inject needs a value".to_string())?;
    Fault::parse(v).ok_or_else(|| format!("--inject: unknown fault: {v}"))
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = RunConfig::default();
    let mut report_out = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cases" => cfg.cases = parse_u64(args, &mut i, "--cases")?,
            "--seed" => cfg.seed = parse_u64(args, &mut i, "--seed")?,
            "--serve-every" => cfg.serve_every = parse_u64(args, &mut i, "--serve-every")?,
            "--max-failures" => {
                cfg.max_failures = parse_u64(args, &mut i, "--max-failures")? as usize
            }
            "--no-shrink" => cfg.shrink = false,
            "--inject" => cfg.fault = parse_fault(args, &mut i)?,
            "--report-out" => {
                i += 1;
                report_out = Some(
                    args.get(i)
                        .ok_or_else(|| "--report-out needs a path".to_string())?
                        .clone(),
                );
            }
            other => return Err(format!("run: unknown flag: {other}")),
        }
        i += 1;
    }

    let report = runner::run(&cfg);
    let rendered = report.render();
    print!("{rendered}");
    if let Some(path) = report_out {
        let body = format!("{rendered}\n# telemetry\n{}", report.telemetry);
        std::fs::write(&path, body).map_err(|e| format!("--report-out {path}: {e}"))?;
        eprintln!("report written to {path}");
    }
    Ok(if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

fn cmd_replay(args: &[String]) -> Result<ExitCode, String> {
    let mut seed = None;
    let mut case = None;
    let mut fault = Fault::None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seed" => seed = Some(parse_u64(args, &mut i, "--seed")?),
            "--case" => case = Some(parse_u64(args, &mut i, "--case")?),
            "--inject" => fault = parse_fault(args, &mut i)?,
            other => return Err(format!("replay: unknown flag: {other}")),
        }
        i += 1;
    }
    let seed = seed.ok_or("replay: --seed is required")?;
    let case = case.ok_or("replay: --case is required")?;

    let (c, mismatches) = runner::check_one(seed, case, fault);
    println!("case {case} [{}]: {}", c.kind.name(), c.kind.summary());
    if mismatches.is_empty() {
        println!("PASS");
        return Ok(ExitCode::SUCCESS);
    }
    for m in &mismatches {
        println!("  {m}");
    }
    let outcome = crate_shrink(&c, fault);
    println!(
        "shrunk ({} steps, {} attempts) to {} layer(s): {}",
        outcome.steps,
        outcome.attempts,
        outcome.case.kind.layer_count(),
        outcome.case.kind.summary()
    );
    for m in cs_conformance::diff::check_case(&outcome.case, fault) {
        println!("    {m}");
    }
    Ok(ExitCode::from(2))
}

fn crate_shrink(
    case: &cs_conformance::gen::Case,
    fault: Fault,
) -> cs_conformance::shrink::ShrinkOutcome {
    cs_conformance::shrink::shrink(
        case,
        |cand| !cs_conformance::diff::check_case(cand, fault).is_empty(),
        runner::SHRINK_ATTEMPTS,
    )
}

fn cmd_corpus() -> ExitCode {
    let failures = corpus::replay_corpus();
    println!(
        "corpus: {} entries, {} failing",
        corpus::CORPUS.len(),
        failures.len()
    );
    for (e, mismatches) in &failures {
        println!("FAIL seed {} case {} ({})", e.seed, e.case, e.note);
        for m in mismatches {
            println!("  {m}");
        }
        println!(
            "  replay: {}",
            runner::replay_command(e.seed, e.case, Fault::None)
        );
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

fn cmd_net_fuzz(args: &[String]) -> Result<ExitCode, String> {
    let mut cases = 500u64;
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cases" => cases = parse_u64(args, &mut i, "--cases")?,
            "--seed" => seed = parse_u64(args, &mut i, "--seed")?,
            other => return Err(format!("net-fuzz: unknown flag: {other}")),
        }
        i += 1;
    }
    let mismatches = cs_conformance::net_check::fuzz_codec(seed, cases);
    println!(
        "net-fuzz: {cases} cases, seed {seed}, {} violations",
        mismatches.len()
    );
    for m in &mismatches {
        println!("  {m}");
    }
    if mismatches.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("  replay: conformance net-fuzz --cases {cases} --seed {seed}");
        Ok(ExitCode::from(2))
    }
}

fn cmd_registry_fuzz(args: &[String]) -> Result<ExitCode, String> {
    let mut cases = 500u64;
    let mut seed = 42u64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cases" => cases = parse_u64(args, &mut i, "--cases")?,
            "--seed" => seed = parse_u64(args, &mut i, "--seed")?,
            other => return Err(format!("registry-fuzz: unknown flag: {other}")),
        }
        i += 1;
    }
    let fuzz = cs_conformance::registry_check::fuzz_container(seed, cases);
    let mismatches = fuzz.mismatches;
    println!(
        "registry-fuzz: {cases} cases, seed {seed}, {} violations; {} re-sealed mutations, {} reached a section decoder",
        mismatches.len(),
        fuzz.resealed,
        fuzz.reached_sections
    );
    for m in &mismatches {
        println!("  {m}");
    }
    if mismatches.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        println!("  replay: conformance registry-fuzz --cases {cases} --seed {seed}");
        Ok(ExitCode::from(2))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "run" => cmd_run(rest),
        "replay" => cmd_replay(rest),
        "corpus" => {
            if !rest.is_empty() {
                return usage();
            }
            Ok(cmd_corpus())
        }
        "net-fuzz" => cmd_net_fuzz(rest),
        "registry-fuzz" => cmd_registry_fuzz(rest),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("conformance: {msg}");
            ExitCode::from(1)
        }
    }
}
