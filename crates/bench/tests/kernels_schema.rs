//! Golden-file test for the `exp_kernels` JSONL metric schema.
//!
//! Downstream dashboards key on the field names and types of the lines
//! `--metrics-out` writes; values change every run and are not part of
//! the contract. This test renders one representative line per
//! experiment through the *same* constructors the binary uses, reduces
//! each to its `name:type` schema, and compares against the checked-in
//! golden file.
//!
//! To bless an intentional schema change:
//!
//! ```text
//! KERNELS_BLESS=1 cargo test -p cs-bench --test kernels_schema
//! ```
//!
//! and commit the updated `tests/golden/kernels_schema.txt` together
//! with the downstream consumers.

use cs_bench::kernels_jsonl::{conv_line, fc_line, field_schema, gated_line, structured_line};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/kernels_schema.txt"
);

/// One schema line per experiment: `experiment field:type field:type …`.
fn current_schema() -> String {
    // Representative values only — the schema must be value-independent,
    // which `schema_extraction_sees_names_and_types_not_values` in the
    // unit tests already guarantees.
    let lines = [
        ("fc", fc_line(256, 256, 0.25, 10_000.0, 2_000.0, 5.0)),
        (
            "structured",
            structured_line("two_four", 256, 256, 0.5, 9_000.0, 4_000.0, 2.2),
        ),
        (
            "gated",
            gated_line("spiking", 1024, 1024, 8, 0.94, 8_000.0, 1_500.0, 5.3),
        ),
        ("conv", conv_line(16, 32, 14, 9_000.0, 3_000.0, 3.0)),
    ];
    let mut out = String::new();
    for (name, line) in lines {
        let schema = field_schema(&line).unwrap_or_else(|e| panic!("{name}: {e}"));
        let fields: Vec<String> = schema.iter().map(|(n, t)| format!("{n}:{t}")).collect();
        out.push_str(&format!("{name} {}\n", fields.join(" ")));
    }
    out
}

#[test]
fn jsonl_schema_matches_golden() {
    let current = current_schema();
    if std::env::var("KERNELS_BLESS").as_deref() == Ok("1") {
        std::fs::write(GOLDEN, &current).expect("writing the golden file");
        eprintln!("blessed {GOLDEN}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!("missing golden file {GOLDEN} ({e}); bless with KERNELS_BLESS=1")
    });
    assert_eq!(
        golden, current,
        "exp_kernels JSONL schema drifted from {GOLDEN}.\n\
         If the change is intentional, re-bless with:\n  \
         KERNELS_BLESS=1 cargo test -p cs-bench --test kernels_schema\n\
         and update downstream dashboard consumers."
    );
}

#[test]
fn every_line_declares_its_experiment_first() {
    // The `experiment` discriminator must stay the first field so
    // streaming consumers can route lines without full parses.
    for line in [
        fc_line(1, 1, 0.1, 1.0, 1.0, 1.0),
        structured_line("bank_balanced", 1, 1, 0.1, 1.0, 1.0, 1.0),
        gated_line("dense", 1, 1, 8, 0.0, 1.0, 1.0, 1.0),
        conv_line(1, 1, 1, 1.0, 1.0, 1.0),
    ] {
        let schema = field_schema(&line).unwrap();
        assert_eq!(schema[0].0, "experiment");
        assert_eq!(schema[0].1, "string");
    }
}
