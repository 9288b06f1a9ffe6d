//! The experiment table against what it claims: the shape-driven
//! entries reproduce their committed `results/` files, and the docs
//! quote exactly the table's stems.

use std::path::PathBuf;

use cambricon_s::experiments::{self, Args, TABLE};

fn repo_file(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

#[test]
fn shape_driven_entries_reproduce_their_committed_artifacts() {
    let shapes: Vec<_> = TABLE
        .iter()
        .filter(|e| matches!(e.args, Args::Shapes(_)))
        .collect();
    assert_eq!(
        shapes.len(),
        12,
        "tab06, tab07, fig15-21, ext_table1, ext_scaling, disc"
    );
    for e in shapes {
        let text = e
            .run(false)
            .unwrap_or_else(|err| panic!("{}: {err}", e.stem));
        let committed = repo_file(&format!("results/{}.txt", e.stem));
        assert_eq!(
            text.trim_end_matches('\n'),
            committed.trim_end_matches('\n'),
            "{} no longer reproduces results/{}.txt; regenerate it with \
             `cargo run --release -p cs-bench --bin exp_all -- {}` and say why it moved",
            e.stem,
            e.stem,
            e.stem
        );
    }
}

/// The arguments of every `--bin exp_all -- …` command line in `doc`.
fn quoted_exp_all_args(doc: &str) -> Vec<String> {
    const CMD: &str = "--bin exp_all -- ";
    let mut args = Vec::new();
    for line in doc.lines() {
        if let Some(at) = line.find(CMD) {
            let rest = &line[at + CMD.len()..];
            let rest = rest.split('`').next().unwrap_or(rest);
            args.extend(rest.split_whitespace().map(str::to_string));
        }
    }
    args
}

#[test]
fn docs_quote_exactly_the_table() {
    let experiments_md = quoted_exp_all_args(&repo_file("EXPERIMENTS.md"));
    let readme = quoted_exp_all_args(&repo_file("README.md"));
    for arg in experiments_md.iter().chain(&readme) {
        assert!(
            arg == "--quick" || experiments::find(arg).is_some(),
            "a doc command line passes {arg:?} to exp_all, which is not a table entry"
        );
    }
    for e in TABLE {
        assert!(
            experiments_md.iter().any(|a| a == e.stem),
            "EXPERIMENTS.md quotes no `--bin exp_all -- {}` command line",
            e.stem
        );
    }
}
