//! Writes the paper's tables and figures to `results/<stem>.txt` from the
//! one experiment table, [`cambricon_s::experiments::TABLE`]: the named
//! entries, or every entry when none is named. Each entry runs with the
//! scale, seed and parameters the table holds for it; `--quick` shrinks
//! only the training runs and the gate sweep to their smoke sizes.
//!
//! ```text
//! cargo run --release -p cs-bench --bin exp_all
//! cargo run --release -p cs-bench --bin exp_all -- exp_tab06_hw exp_fig15_speedup
//! cargo run --release -p cs-bench --bin exp_all -- --quick exp_fig08_max_vs_avg
//! ```
//!
//! Exits 1 on a usage or write error and 2 if any entry failed (the
//! gate sweep fails when a gated output bit differs from the dense
//! reference); the other entries are still written.

use std::path::Path;
use std::time::Instant;

use cambricon_s::experiments::{self, Experiment, TABLE};

fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: exp_all [--quick] [artifact...]");
    eprintln!("artifacts:");
    for e in TABLE {
        eprintln!("  {} ({})", e.stem, e.args);
    }
    std::process::exit(1);
}

fn main() {
    let mut quick = false;
    let mut selected: Vec<&Experiment> = Vec::new();
    for a in std::env::args().skip(1) {
        if a == "--quick" {
            quick = true;
        } else if let Some(e) = experiments::find(&a) {
            selected.push(e);
        } else {
            usage_error(&format!("unknown argument {a:?}"));
        }
    }
    if selected.is_empty() {
        selected = TABLE.iter().collect();
    }

    let dir = Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("error: creating {}: {e}", dir.display());
        std::process::exit(1);
    }
    let mut failed = 0usize;
    for e in selected {
        let t0 = Instant::now();
        match e.run(quick) {
            Ok(text) => {
                let path = dir.join(format!("{}.txt", e.stem));
                if let Err(err) = std::fs::write(&path, text) {
                    eprintln!("error: writing {}: {err}", path.display());
                    std::process::exit(1);
                }
                println!(
                    "wrote {} ({}) in {:.1} s",
                    path.display(),
                    e.args,
                    t0.elapsed().as_secs_f64()
                );
            }
            Err(err) => {
                eprintln!("FAIL: {}: {err}", e.stem);
                failed += 1;
            }
        }
    }
    if failed > 0 {
        std::process::exit(2);
    }
}
