//! The orchestrator behind the `conformance` bin.
//!
//! [`run`] drives a whole conformance sweep: generate each case from
//! `(seed, index)`, push it through the differential executor and the
//! invariant checkers, periodically close the loop through the serving
//! runtime, shrink every failure to a local minimum, and report each
//! with a one-line replay command. Progress and outcome counters are
//! recorded through `cs-telemetry` and exported as Prometheus text in
//! the report.

use std::sync::Arc;

use cs_telemetry::{Labels, Recorder, Registry};

use crate::gen::{self, Case, CaseKind};
use crate::shrink::{self, ShrinkOutcome};
use crate::{diff, serve_check, Fault, Mismatch};

/// Candidate-evaluation budget for the shrinker, per failing case.
pub const SHRINK_ATTEMPTS: usize = 200;

/// Configuration of one conformance sweep.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of cases to generate and check.
    pub cases: u64,
    /// Run seed; every case is `generate(seed, index)`.
    pub seed: u64,
    /// Deliberately injected engine defect (acceptance testing of the
    /// harness itself).
    pub fault: Fault,
    /// Check served-output agreement on every n-th FC case (0 = never).
    pub serve_every: u64,
    /// Minimize failing cases before reporting them.
    pub shrink: bool,
    /// Stop the sweep after this many failing cases (0 = no limit).
    pub max_failures: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            cases: 100,
            seed: 42,
            fault: Fault::None,
            serve_every: 25,
            shrink: true,
            max_failures: 8,
        }
    }
}

/// A minimized reproduction of a failure.
#[derive(Debug, Clone)]
pub struct ShrunkCase {
    /// One-line summary of the minimized case.
    pub summary: String,
    /// Layer count of the minimized case.
    pub layers: usize,
    /// Adopted simplification steps.
    pub steps: usize,
    /// Candidate evaluations spent.
    pub attempts: usize,
    /// The violations the minimized case still exhibits.
    pub mismatches: Vec<Mismatch>,
}

/// One failing case with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub struct CaseFailure {
    /// Case index within the run.
    pub index: u64,
    /// Case kind (`fc` / `conv` / `lstm`).
    pub kind: &'static str,
    /// One-line summary of the original case.
    pub summary: String,
    /// All violations the original case exhibited.
    pub mismatches: Vec<Mismatch>,
    /// The minimized reproduction, when shrinking was enabled.
    pub shrunk: Option<ShrunkCase>,
    /// Copy-pastable reproduction command.
    pub replay: String,
}

/// Outcome counters of a sweep.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunCounters {
    /// Cases generated and checked.
    pub cases_run: u64,
    /// Individual contract violations found (before shrinking).
    pub mismatches: u64,
    /// Adopted shrink steps across all failures.
    pub shrink_steps: u64,
    /// Served-backend agreement checks performed.
    pub serve_checks: u64,
}

/// Result of [`run`].
#[derive(Debug, Clone)]
pub struct Report {
    /// Cases checked.
    pub cases: u64,
    /// Failing cases, in discovery order.
    pub failures: Vec<CaseFailure>,
    /// Outcome counters.
    pub counters: RunCounters,
    /// Prometheus-text export of the run's telemetry.
    pub telemetry: String,
}

impl Report {
    /// Renders the human-readable report the bin prints.
    pub fn render(&self) -> String {
        let mut s = format!(
            "conformance: {} cases, {} failing, {} mismatches, {} serve checks\n",
            self.counters.cases_run,
            self.failures.len(),
            self.counters.mismatches,
            self.counters.serve_checks,
        );
        s.push_str(&format!("fc legs armed: {}\n", diff::FC_LEGS.join(" ")));
        for f in &self.failures {
            s.push_str(&format!(
                "\nFAIL case {} [{}]: {}\n",
                f.index, f.kind, f.summary
            ));
            for m in &f.mismatches {
                s.push_str(&format!("  {m}\n"));
            }
            if let Some(sh) = &f.shrunk {
                s.push_str(&format!(
                    "  shrunk ({} steps, {} attempts) to {} layer(s): {}\n",
                    sh.steps, sh.attempts, sh.layers, sh.summary
                ));
                for m in &sh.mismatches {
                    s.push_str(&format!("    {m}\n"));
                }
            }
            s.push_str(&format!("  replay: {}\n", f.replay));
        }
        s
    }
}

/// The replay command printed for a failure.
pub fn replay_command(seed: u64, index: u64, fault: Fault) -> String {
    let mut cmd = format!("conformance replay --seed {seed} --case {index}");
    if fault != Fault::None {
        cmd.push_str(&format!(" --inject {}", fault.as_str()));
    }
    cmd
}

/// Checks one `(seed, index)` case, returning it with its violations.
pub fn check_one(seed: u64, index: u64, fault: Fault) -> (Case, Vec<Mismatch>) {
    let case = gen::generate(seed, index);
    let mismatches = diff::check_case(&case, fault);
    (case, mismatches)
}

/// Runs a conformance sweep.
pub fn run(cfg: &RunConfig) -> Report {
    let registry = Arc::new(Registry::new());
    let c_cases = registry.counter(
        "conformance_cases_total",
        "Cases generated and checked",
        Labels::new(),
    );
    let c_mismatches = registry.counter(
        "conformance_mismatches_total",
        "Contract violations found",
        Labels::new(),
    );
    let c_failed = registry.counter(
        "conformance_failed_cases_total",
        "Cases with at least one violation",
        Labels::new(),
    );
    let c_shrink = registry.counter(
        "conformance_shrink_steps_total",
        "Adopted shrinker simplifications",
        Labels::new(),
    );
    let c_serve = registry.counter(
        "conformance_serve_checks_total",
        "Served-backend agreement checks",
        Labels::new(),
    );

    let mut counters = RunCounters::default();
    let mut failures = Vec::new();
    for index in 0..cfg.cases {
        let (case, mut mismatches) = check_one(cfg.seed, index, cfg.fault);
        counters.cases_run += 1;
        c_cases.inc();

        // Periodically close the loop through the serving runtime.
        if cfg.serve_every > 0 && index % cfg.serve_every == 0 {
            if let CaseKind::FcNet(fc) = &case.kind {
                if let Ok(art) = diff::build_fc(fc) {
                    counters.serve_checks += 1;
                    c_serve.inc();
                    mismatches.extend(serve_check::check_serve(&art, cfg.seed ^ index));
                }
            }
        }

        if mismatches.is_empty() {
            continue;
        }
        counters.mismatches += mismatches.len() as u64;
        c_mismatches.add(mismatches.len() as u64);
        c_failed.inc();

        let shrunk = cfg.shrink.then(|| {
            let outcome: ShrinkOutcome = shrink::shrink(
                &case,
                |cand| !diff::check_case(cand, cfg.fault).is_empty(),
                SHRINK_ATTEMPTS,
            );
            counters.shrink_steps += outcome.steps as u64;
            c_shrink.add(outcome.steps as u64);
            ShrunkCase {
                summary: outcome.case.kind.summary(),
                layers: outcome.case.kind.layer_count(),
                steps: outcome.steps,
                attempts: outcome.attempts,
                mismatches: diff::check_case(&outcome.case, cfg.fault),
            }
        });

        failures.push(CaseFailure {
            index,
            kind: case.kind.name(),
            summary: case.kind.summary(),
            mismatches,
            shrunk,
            replay: replay_command(cfg.seed, index, cfg.fault),
        });
        if cfg.max_failures > 0 && failures.len() >= cfg.max_failures {
            break;
        }
    }

    Report {
        cases: counters.cases_run,
        failures,
        counters,
        telemetry: registry.prometheus_text().unwrap_or_default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::CaseKind;

    #[test]
    fn a_small_clean_sweep_reports_no_failures() {
        let report = run(&RunConfig {
            cases: 12,
            seed: 42,
            serve_every: 6,
            ..RunConfig::default()
        });
        assert_eq!(report.cases, 12);
        assert!(report.failures.is_empty(), "{}", report.render());
        assert_eq!(report.counters.mismatches, 0);
        assert!(report.counters.serve_checks >= 1);
        assert!(report.telemetry.contains("conformance_cases_total 12"));
    }

    #[test]
    fn sweeps_are_deterministic() {
        let cfg = RunConfig {
            cases: 6,
            seed: 7,
            serve_every: 0,
            ..RunConfig::default()
        };
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.cases, b.cases);
        assert_eq!(a.failures.len(), b.failures.len());
        assert_eq!(a.counters.mismatches, b.counters.mismatches);
    }

    #[test]
    fn injected_fault_is_caught_and_shrunk_to_a_tiny_reproduction() {
        // The acceptance gate: a flipped accumulation order, a
        // codebook read one slot up, a shared-run pair reading its
        // partner's codebook, and batch columns delivered to each
        // other's slot must each be detected, minimized to <= 2
        // layers, and reported with a replay command. Poison-input
        // cases catch the planted kernels on the survivors walk or the
        // batched-vs-engine leg instead of the dense ones; the shrunk
        // reproduction must fail the fault's dense leg (the first
        // listed).
        let seed = 42u64;
        for (fault, legs) in [
            (
                Fault::ReverseAccumulation,
                ["fc-dense-vs-sparse-bits", "fc-sparse-vs-survivors-bits"],
            ),
            (
                Fault::CodebookOffByOne,
                ["fc-dense-vs-sparse-bits", "fc-sparse-vs-survivors-bits"],
            ),
            (
                Fault::PairCodebookSwap,
                ["fc-dense-vs-sparse-bits", "fc-sparse-vs-survivors-bits"],
            ),
            (
                Fault::SwapBatchColumns,
                ["fc-batched-vs-dense-bits", "fc-batched-vs-engine-bits"],
            ),
        ] {
            let index = (0..64)
                .find(|k| {
                    let (case, m) = check_one(seed, *k, fault);
                    matches!(case.kind, CaseKind::FcNet(_)) && !m.is_empty()
                })
                .unwrap_or_else(|| panic!("{} escaped 64 cases", fault.as_str()));
            let report = run(&RunConfig {
                cases: index + 1,
                seed,
                fault,
                serve_every: 0,
                max_failures: 1,
                ..RunConfig::default()
            });
            assert_eq!(report.failures.len(), 1, "{}", report.render());
            let f = &report.failures[0];
            assert!(
                f.mismatches
                    .iter()
                    .any(|m| legs.contains(&m.check.as_str())),
                "{}",
                report.render()
            );
            assert_eq!(
                f.replay,
                format!(
                    "conformance replay --seed {seed} --case {} --inject {}",
                    f.index,
                    fault.as_str()
                )
            );
            let sh = f.shrunk.as_ref().expect("shrinking was enabled");
            assert!(
                sh.layers <= 2,
                "shrunk case still has {} layers: {}",
                sh.layers,
                sh.summary
            );
            assert!(
                sh.mismatches.iter().any(|m| m.check == legs[0]),
                "shrunk case no longer fails {}: {}",
                legs[0],
                report.render()
            );
        }
    }

    #[test]
    fn the_report_names_the_batched_leg() {
        let report = run(&RunConfig {
            cases: 1,
            serve_every: 0,
            ..RunConfig::default()
        });
        let armed = report
            .render()
            .lines()
            .find(|l| l.starts_with("fc legs armed:"))
            .expect("legs line")
            .to_string();
        assert!(armed.contains("fc-batched-vs-dense-bits"), "{armed}");
        assert!(armed.contains("fc-sim-vs-dense-tolerance"), "{armed}");
    }
}
