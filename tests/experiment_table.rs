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

/// A number quoted in a doc or printed in an artifact: its value, its
/// decimal places, and whether a ratio sign (`x` or `×`) follows it.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Quoted {
    value: f64,
    decimals: i32,
    ratio: bool,
}

/// Every number in `text` that does not continue an identifier (the
/// `6` of `fc6` is not a number). A trailing `x` or `×` is a ratio sign
/// unless a digit or letter follows it (`8×8` is two plain numbers).
fn numbers(text: &str) -> Vec<Quoted> {
    let chars: Vec<char> = text.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let starts = chars[i].is_ascii_digit()
            && (i == 0 || !(chars[i - 1].is_alphanumeric() || chars[i - 1] == '.'));
        if !starts {
            i += 1;
            continue;
        }
        let begin = i;
        while i < chars.len() && chars[i].is_ascii_digit() {
            i += 1;
        }
        let mut decimals = 0;
        if i + 1 < chars.len() && chars[i] == '.' && chars[i + 1].is_ascii_digit() {
            i += 1;
            while i < chars.len() && chars[i].is_ascii_digit() {
                i += 1;
                decimals += 1;
            }
        }
        let literal: String = chars[begin..i].iter().collect();
        let ratio = matches!(chars.get(i), Some('x' | '×'))
            && !chars.get(i + 1).is_some_and(|c| c.is_alphanumeric());
        if let Ok(value) = literal.parse() {
            out.push(Quoted {
                value,
                decimals,
                ratio,
            });
        }
    }
    out
}

/// `held` rounds to `quoted` at the quoted precision, with the same
/// ratio sign when the quote carries one.
fn matches(quoted: Quoted, held: Quoted) -> bool {
    let scale = 10f64.powi(quoted.decimals);
    (!quoted.ratio || held.ratio) && (held.value * scale).round() == (quoted.value * scale).round()
}

#[test]
fn experiments_md_quotes_numbers_its_artifacts_hold() {
    let doc = repo_file("EXPERIMENTS.md");
    let mut artifacts: Vec<Quoted> = Vec::new();
    let mut columns: Option<Vec<usize>> = None;
    let mut checked = 0;
    let mut missing = Vec::new();
    for line in doc.lines() {
        if line.starts_with('#') {
            artifacts.clear();
        }
        let stems = quoted_exp_all_args(line);
        if !stems.is_empty() {
            artifacts = stems
                .iter()
                .filter(|s| *s != "--quick")
                .flat_map(|s| numbers(&repo_file(&format!("results/{s}.txt"))))
                .collect();
        }
        let Some(row) = line.strip_prefix('|') else {
            columns = None;
            continue;
        };
        let cells: Vec<&str> = row.split('|').map(str::trim).collect();
        let Some(cols) = &columns else {
            // A header row: the "Ours" and "Measured" columns are checked.
            let cols = (0..cells.len())
                .filter(|&c| cells[c].contains("Ours") || cells[c].contains("Measured"))
                .collect();
            columns = Some(cols);
            continue;
        };
        if cells.iter().all(|c| c.chars().all(|ch| ch == '-')) {
            continue;
        }
        for &c in cols {
            for quoted in numbers(cells[c]) {
                assert!(
                    !artifacts.is_empty(),
                    "EXPERIMENTS.md quotes {:?} under no results file: {line}",
                    cells[c]
                );
                if !artifacts.iter().any(|held| matches(quoted, *held)) {
                    missing.push(format!("{} in {:?}", quoted.value, cells[c]));
                }
                checked += 1;
            }
        }
    }
    assert!(
        missing.is_empty(),
        "EXPERIMENTS.md quotes numbers its results files do not hold: {missing:#?}"
    );
    assert!(checked > 50, "only {checked} quoted numbers found");
}
