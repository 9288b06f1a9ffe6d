//! Serving saturation sweep: offered load × worker count × batch size.
//!
//! Drives the `cs-serve` runtime with closed-loop clients against the
//! paper's MLP compressed at scale 4, and prints the saturation
//! table. The headline figure is the simulated-hardware throughput
//! (each worker models one Cambricon-S accelerator), which must scale
//! with the worker count once the offered load saturates the pool.
//!
//! `--metrics-out <path>` additionally writes the telemetry every
//! operating point's server kept, merged over the sweep
//! (queue waits, batch sizes, compute/DRAM-stall cycles, worker
//! busy/idle time, …) as JSONL, one series per line.
//!
//! ```text
//! cargo run --release -p cs-bench --bin exp_serve_load
//! cargo run --release -p cs-bench --bin exp_serve_load -- --quick
//! cargo run --release -p cs-bench --bin exp_serve_load -- --quick --metrics-out serve_metrics.jsonl
//! ```

use cs_serve::loadgen::{run_sweep_into, SweepConfig};
use cs_serve::{Recorder, Registry};

fn metrics_out_path() -> Option<std::path::PathBuf> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--metrics-out" {
            match args.next() {
                Some(path) => return Some(path.into()),
                None => {
                    eprintln!("error: --metrics-out requires a path");
                    std::process::exit(1);
                }
            }
        }
    }
    None
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let metrics_out = metrics_out_path();
    let cfg = SweepConfig {
        seed: cambricon_s::experiments::SEED,
        requests: if quick { 64 } else { 384 },
        clients: if quick { vec![8] } else { vec![1, 4, 16] },
        workers: vec![1, 2, 4],
        max_batches: if quick { vec![8] } else { vec![1, 8] },
        ..SweepConfig::default()
    };
    let registry = Registry::new();
    let report = match run_sweep_into(&cfg, &registry) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve load sweep failed: {e}");
            std::process::exit(1);
        }
    };
    println!("Serving saturation sweep ({} requests/point)", cfg.requests);
    println!("{}", report.render());
    if let Some(path) = metrics_out {
        let jsonl = registry.jsonl().unwrap_or_default();
        match std::fs::write(&path, jsonl) {
            Ok(()) => println!("telemetry written to {}", path.display()),
            Err(e) => {
                eprintln!("writing {} failed: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    match report.scaling(1, 4) {
        Some(s) => {
            println!("1 -> 4 worker hardware throughput scaling at saturation: {s:.2}x");
            if s < 1.5 {
                eprintln!("warning: scaling below the 1.5x acceptance floor");
                std::process::exit(2);
            }
        }
        None => eprintln!("warning: sweep missing 1- or 4-worker points"),
    }
}
