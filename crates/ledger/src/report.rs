//! The full ledger (`cs-ledger --seed N`): every workload in a fresh
//! child process, untraced then traced, merged into one result file —
//! and `cs-ledger compare`, which judges two such files by the bounds
//! the benchmark fixed.

use std::fmt::Write as _;
use std::process::Command;

use crate::estimate::{Quartiles, CALIB_REF_MS};
use crate::host::cores;
use crate::json::{self, obj, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::workload::Outcome;

/// The line a single-workload run ends with.
pub fn result_line(outcome: &Outcome) -> String {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            (
                name.to_string(),
                obj([
                    ("value", Value::Num(*value)),
                    ("unit", Value::Str(unit_of(name).to_string())),
                ]),
            )
        })
        .collect();
    obj([
        ("correct", Value::Bool(outcome.correct)),
        ("attempted", Value::Num(outcome.tally.attempted as f64)),
        ("failed", Value::Num(outcome.tally.failed() as f64)),
        ("metrics", Value::Obj(metrics)),
    ])
    .render()
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Host fingerprint: results from hosts that differ here do not compare.
fn header(seed: u64, seconds: f64, runs: usize) -> Value {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    obj([
        ("cores", Value::Num(cores() as f64)),
        ("avx2", Value::Bool(avx2())),
        ("kernel", Value::Str(kernel.trim().to_string())),
        ("calib_ref_ms", Value::Num(CALIB_REF_MS)),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(seconds)),
        ("runs", Value::Num(runs as f64)),
        ("git_commit", Value::Str(git_commit())),
    ])
}

fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{workload} exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    json::parse(line).map_err(|e| format!("{workload} result line: {e}"))
}

fn count(result: &Value, key: &str) -> f64 {
    result.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The result lines of one workload's runs, merged: per metric, one
/// value per run.
pub struct Merged {
    name: &'static str,
    attempted: f64,
    failed: f64,
    end_to_end: Vec<(String, Vec<f64>)>,
    per_layer: Vec<(String, Vec<f64>)>,
}

impl Merged {
    pub fn new(name: &'static str) -> Merged {
        Merged {
            name,
            attempted: 0.0,
            failed: 0.0,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        }
    }

    /// Adds one parsed result line (`trace` says of which kind).
    pub fn add(&mut self, result: &Value, trace: bool) {
        self.attempted += count(result, "attempted");
        self.failed += count(result, "failed");
        let into = if trace {
            &mut self.per_layer
        } else {
            &mut self.end_to_end
        };
        for (name, m) in result
            .get("metrics")
            .and_then(Value::as_object)
            .unwrap_or_default()
        {
            let v = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
            match into.iter_mut().find(|(n, _)| n == name) {
                Some((_, values)) => values.push(v),
                None => into.push((name.clone(), vec![v])),
            }
        }
    }

    /// Every metric by name: median, unit, quartiles, run count.
    fn print(&self) {
        println!(
            "== {} ({} attempted, {} failed)",
            self.name, self.attempted, self.failed
        );
        println!(
            "{:<36} {:>16.6} ratio",
            "fail_ratio",
            self.failed / self.attempted.max(1.0)
        );
        for (name, values) in self.end_to_end.iter().chain(&self.per_layer) {
            let q = Quartiles::of(values);
            println!(
                "{name:<36} {:>16.4} {:<6} [q1 {:.4}, q3 {:.4}, n {}]",
                q.median,
                unit_of(name),
                q.q1,
                q.q3,
                values.len()
            );
        }
    }

    pub fn to_value(&self) -> Value {
        let metrics = |rows: &[(String, Vec<f64>)]| {
            Value::Obj(
                rows.iter()
                    .map(|(name, values)| {
                        let values = values.iter().copied().map(Value::Num).collect();
                        (
                            name.clone(),
                            obj([
                                ("unit", Value::Str(unit_of(name).to_string())),
                                ("values", Value::Arr(values)),
                            ]),
                        )
                    })
                    .collect(),
            )
        };
        obj([
            ("name", Value::Str(self.name.to_string())),
            ("attempted", Value::Num(self.attempted)),
            ("failed", Value::Num(self.failed)),
            ("end_to_end", metrics(&self.end_to_end)),
            ("per_layer", metrics(&self.per_layer)),
        ])
    }
}

pub fn result_file(seed: u64, seconds: f64, runs: usize, workloads: &[Merged]) -> Value {
    obj([
        ("header", header(seed, seconds, runs)),
        (
            "workloads",
            Value::Arr(workloads.iter().map(Merged::to_value).collect()),
        ),
    ])
}

/// Runs every workload `runs` times (seeds `seed`, `seed + 1`, …), prints
/// every metric by name with its unit, and returns the result file.
pub fn run_all(seed: u64, seconds: f64, runs: usize) -> Result<Value, String> {
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut merged = Merged::new(w.name);
        for r in 0..runs as u64 {
            for trace in [false, true] {
                merged.add(&child(w.name, seed + r, seconds, trace)?, trace);
            }
        }
        merged.print();
        workloads.push(merged);
    }
    Ok(result_file(seed, seconds, runs, &workloads))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judges the runs `b` against the runs `a` of one metric. `Worse`:
/// `b`'s median is worse than `a`'s by more than `bound` (a share of
/// `a`'s median). `Unresolved`: not worse, but either side's quartiles
/// lie further apart than the bound, and `b`'s runs are not all better
/// than all of `a`'s.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (qa, qb) = (Quartiles::of(a), Quartiles::of(b));
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (qb.median - qa.median) / qa.median.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound {
        return Verdict::Worse;
    }
    let spread = qa.iqr_pct().max(qb.iqr_pct()) / 100.0;
    let all_better = b.iter().all(|y| a.iter().all(|x| sign * (y - x) < 0.0));
    if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn values_of(workload: &Value, metric: &str) -> Vec<f64> {
    workload
        .get("end_to_end")
        .and_then(|m| m.get(metric))
        .and_then(|m| m.get("values"))
        .and_then(Value::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

/// Compares two result files; returns the table and whether any row is
/// worse.
pub fn compare(a: &Value, b: &Value) -> Result<(String, bool), String> {
    let list = |v: &Value| -> Result<Vec<Value>, String> {
        v.get("workloads")
            .and_then(Value::as_array)
            .map(<[Value]>::to_vec)
            .ok_or_else(|| "no \"workloads\" array".to_string())
    };
    let (wa, wb) = (list(a)?, list(b)?);
    let mut table = String::new();
    let mut any_worse = false;
    let _ = writeln!(
        table,
        "{:<12} {:<16} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "B/A (base A)", "bound"
    );
    for a in &wa {
        let name = a.get("name").and_then(Value::as_str).unwrap_or_default();
        let Some(b) = wb
            .iter()
            .find(|b| b.get("name").and_then(Value::as_str) == Some(name))
        else {
            return Err(format!("workload {name} is missing from the second file"));
        };
        for m in &END_TO_END {
            let (va, vb) = (values_of(a, m.name), values_of(b, m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!("{name}.{} has no values", m.name));
            }
            let verdict = judge(&va, &vb, m.better, m.bound);
            any_worse |= verdict == Verdict::Worse;
            let (ma, mb) = (Quartiles::of(&va).median, Quartiles::of(&vb).median);
            let _ = writeln!(
                table,
                "{name:<12} {:<16} {ma:>14.4} {mb:>14.4} {:>9.4} of {ma:>9.4} {:>6.2}  {}",
                m.name,
                mb / ma,
                m.bound,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
        // Any rise in failures is a regression, whatever the speed.
        let fail = |w: &Value| count(w, "failed") / count(w, "attempted").max(1.0);
        let (fa, fb) = (fail(a), fail(b));
        any_worse |= fb > fa;
        let _ = writeln!(
            table,
            "{name:<12} {:<16} {fa:>14.6} {fb:>14.6} {:>22} {:>6.2}  {}",
            "fail_ratio",
            "-",
            0.0,
            if fb > fa { "worse" } else { "ok" }
        );
    }
    Ok((table, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let steady = [100.0, 101.0, 99.0];
        // Lower is better: +20 % is worse, +5 % is within a 10 % bound.
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0], Better::Lower, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &[105.0, 106.0, 104.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        // Higher is better: the same +20 % is fine, −20 % is worse.
        assert_eq!(
            judge(&steady, &[120.0, 121.0, 119.0], Better::Higher, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&steady, &[80.0, 81.0, 79.0], Better::Higher, 0.10),
            Verdict::Worse
        );
        // Quartiles further apart than the bound: unresolved …
        let noisy = [80.0, 100.0, 125.0];
        assert_eq!(
            judge(&noisy, &[101.0, 99.0, 100.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[70.0, 60.0, 75.0], Better::Lower, 0.10),
            Verdict::Ok
        );
    }

    fn file(throughput: &[f64], failed: f64) -> Value {
        let metric = |values: &[f64]| {
            obj([(
                "values",
                Value::Arr(values.iter().copied().map(Value::Num).collect()),
            )])
        };
        let e2e = Value::Obj(
            END_TO_END
                .iter()
                .map(|m| {
                    let v = if m.name == "throughput_rps" {
                        metric(throughput)
                    } else {
                        metric(&[1.0, 1.0, 1.0])
                    };
                    (m.name.to_string(), v)
                })
                .collect(),
        );
        obj([(
            "workloads",
            Value::Arr(vec![obj([
                ("name", Value::Str("mlp_inproc".to_string())),
                ("attempted", Value::Num(1000.0)),
                ("failed", Value::Num(failed)),
                ("end_to_end", e2e),
            ])]),
        )])
    }

    #[test]
    fn compare_flags_a_slower_or_failing_second_file() {
        let base = file(&[1000.0, 1010.0, 990.0], 0.0);
        let (table, worse) = compare(&base, &file(&[1005.0, 1000.0, 995.0], 0.0)).unwrap();
        assert!(!worse, "{table}");
        assert_eq!(table.lines().count(), 1 + END_TO_END.len() + 1);
        let (table, worse) = compare(&base, &file(&[600.0, 605.0, 595.0], 0.0)).unwrap();
        assert!(worse && table.contains("worse"), "{table}");
        // Same speed, but one request failed where none did before.
        let (table, worse) = compare(&base, &file(&[1000.0, 1010.0, 990.0], 1.0)).unwrap();
        assert!(worse && table.contains("fail_ratio"), "{table}");
        assert!(compare(&base, &obj([])).is_err());
    }
}
