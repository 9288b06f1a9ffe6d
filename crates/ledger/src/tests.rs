//! Whole-benchmark tests: a smoke run of all five workloads, the golden
//! of the result file's names and units, and agreement between the
//! tables in `metrics.rs` and `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::report::{result_file, result_line, Merged};
use crate::trace::check_nesting;
use crate::workload::{run, Options};

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/result_schema.txt");
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");

/// A scalar with its measured value blanked: names and units are the
/// contract and stay, other strings and all numbers are values.
fn blank(v: &Value, key: &str) -> String {
    match v {
        Value::Str(s) if key == "unit" || key == "name" => format!("{s:?}"),
        Value::Str(_) => "string".to_string(),
        Value::Num(_) => "0".to_string(),
        Value::Bool(_) => "bool".to_string(),
        Value::Arr(items) => match items.first() {
            Some(first) => format!("[{}, ..]", blank(first, key)),
            None => "[]".to_string(),
        },
        Value::Null | Value::Obj(_) => "null".to_string(),
    }
}

fn is_leaf(v: &Value) -> bool {
    match v {
        Value::Obj(_) => false,
        Value::Arr(items) => !matches!(items.first(), Some(Value::Obj(_) | Value::Arr(_))),
        _ => true,
    }
}

/// The file's shape: one line per key, an object of scalars on one
/// line, arrays of objects item by item.
fn schema(v: &Value, indent: usize, out: &mut String) {
    let pad = " ".repeat(indent);
    match v {
        Value::Obj(fields) => {
            for (k, v) in fields {
                match v {
                    Value::Obj(inner) if inner.iter().all(|(_, v)| is_leaf(v)) => {
                        let inline: Vec<String> = inner
                            .iter()
                            .map(|(k, v)| format!("{k} = {}", blank(v, k)))
                            .collect();
                        out.push_str(&format!("{pad}{k}: {}\n", inline.join(", ")));
                    }
                    v if is_leaf(v) => out.push_str(&format!("{pad}{k} = {}\n", blank(v, k))),
                    _ => {
                        out.push_str(&format!("{pad}{k}\n"));
                        schema(v, indent + 2, out);
                    }
                }
            }
        }
        Value::Arr(items) => {
            for item in items {
                out.push_str(&format!("{pad}-\n"));
                schema(item, indent + 2, out);
            }
        }
        leaf => out.push_str(&format!("{pad}{}\n", blank(leaf, ""))),
    }
}

#[test]
fn smoke_run_reports_every_metric_and_matches_the_golden() {
    let mut merged = Vec::new();
    for w in &WORKLOADS {
        let mut m = Merged::new(w.name);
        for trace in [false, true] {
            let outcome = run(
                w,
                &Options {
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                },
            )
            .unwrap_or_else(|e| panic!("{} trace {trace}: {e}", w.name));
            assert!(
                outcome.correct && outcome.tally.failed() == 0,
                "{} trace {trace}: {:?} {:?}",
                w.name,
                outcome.tally,
                outcome.first_error
            );
            // Set-up request + 2 segments of 200 + 200 paced, at least.
            assert!(outcome.tally.attempted >= 601, "{:?}", outcome.tally);
            let names: Vec<&str> = outcome.metrics.iter().map(|(n, _)| *n).collect();
            if trace {
                assert_eq!(names, PER_LAYER.map(|(n, _)| n));
                // One trace per request of the first traced segment,
                // every child span inside its root.
                assert_eq!(check_nesting(&outcome.spans), Ok(200));
            } else {
                assert_eq!(names, END_TO_END.each_ref().map(|m| m.name));
                for (name, value) in &outcome.metrics {
                    assert!(*value > 0.0, "{}.{name} = {value}", w.name);
                }
            }
            let line = result_line(&outcome);
            assert!(!line.contains('\n'));
            m.add(&json::parse(&line).expect("own result line parses"), trace);
        }
        merged.push(m);
    }

    let mut current = String::new();
    schema(&result_file(3, 1.0, 1, &merged), 0, &mut current);
    if std::env::var("LEDGER_BLESS").as_deref() == Ok("1") {
        std::fs::write(GOLDEN, &current).expect("writing the golden file");
        eprintln!("blessed {GOLDEN}");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| {
        panic!("missing golden file {GOLDEN} ({e}); bless with LEDGER_BLESS=1")
    });
    assert_eq!(
        golden, current,
        "the result file's names or units drifted from {GOLDEN}.\n\
         Every later performance claim is made in these names; if the change is\n\
         intentional, re-bless with LEDGER_BLESS=1 cargo test -p cs-ledger\n\
         and update BENCHMARK.json and README.md with it."
    );
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("{key} missing"))
}

#[test]
fn benchmark_json_lists_the_same_names_units_and_bounds() {
    let file = std::fs::read_to_string(BENCHMARK_JSON).expect("BENCHMARK.json at the repo root");
    let file = json::parse(&file).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = file
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        list(&file, "paths"),
        [Value::Str("crates/ledger".to_string())]
    );
    assert_eq!(
        file.get("run_seconds").and_then(Value::as_f64),
        Some(crate::DEFAULT_SECONDS)
    );

    let workloads = list(&file, "workloads");
    assert_eq!(
        workloads
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Vec<_>>(),
        WORKLOADS.each_ref().map(|w| w.name)
    );
    for w in workloads {
        let why = text(w, "why");
        assert!(why.chars().count() <= 200 && !why.contains('\n'), "{why}");
    }

    let e2e = list(&file, "end_to_end");
    assert_eq!(e2e.len(), END_TO_END.len());
    for (listed, ours) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(text(listed, "name"), ours.name);
        assert_eq!(text(listed, "unit"), ours.unit);
        let better = match ours.better {
            Better::Higher => "higher",
            Better::Lower => "lower",
        };
        assert_eq!(text(listed, "better"), better, "{}", ours.name);
        assert_eq!(
            listed.get("bound").and_then(Value::as_f64),
            Some(ours.bound),
            "{}",
            ours.name
        );
    }

    let layers = list(&file, "per_layer");
    assert_eq!(
        layers
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect::<Vec<_>>(),
        PER_LAYER
    );
    for m in layers {
        assert!(matches!(text(m, "better"), "higher" | "lower"));
    }
}
