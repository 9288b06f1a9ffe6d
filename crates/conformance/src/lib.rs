//! Cross-backend differential conformance harness (the correctness
//! backbone for the execution stack).
//!
//! The repo has three ways to execute the same compressed model — the
//! dense reference kernels, the block-CSR sparse engine, and the
//! cycle-approximate Cambricon-S simulator — plus six baseline
//! accelerator models. This crate cross-checks them continuously with
//! generator-driven cases instead of hand-picked examples:
//!
//! * [`gen`] — a deterministic model/config generator: every `(seed,
//!   case-index)` pair expands to one random FC / conv / LSTM case with
//!   coarse-pruning settings (block shapes, max/avg metric, densities
//!   including the ~0% and 100% edges) and quantization widths.
//! * [`diff`] — the differential executor: runs each case through the
//!   Dense reference, the sparse engine (ungated, gated and batched),
//!   and the simulator, asserting bit-identity where the
//!   equivalence contract promises it and bounded error where it
//!   doesn't (see `DESIGN.md` §9 for the contract table).
//! * [`sim_ref`] — the simulator's lane-major reference walk, the
//!   oracle the compiled simulator is held to bit for bit.
//! * [`invariants`] — structural checks over simulator and baseline
//!   outputs: cycles are positive and monotone in work, sparse DRAM
//!   traffic stays under the dense bound, EIE / Cambricon-X MAC counts
//!   are consistent with survivor counts, and `StepIndex` round-trips
//!   on every compiled layer's mask.
//! * [`shrink`] — a built-in shrinker that minimizes a failing case
//!   (fewer layers → smaller shapes → denser mask) and prints a
//!   one-line `conformance replay --seed N --case K` reproduction.
//! * [`serve_check`] — the check on *served* outputs: one routine holds
//!   every serving front's replies bit for bit to a direct lane forward
//!   and, on finite probes, to the off-server dense oracle; it runs on
//!   `cs-serve` workers under the Sparse and Gated backends, and the
//!   default Simulator backend must equal a direct `run_network` in
//!   outputs, cycles and energy.
//! * [`net_check`] — the network-path extension of the same contract:
//!   a seed-replayable fuzz sweep over the `cs-net` frame codec
//!   (`conformance net-fuzz`), plus the served-output check run over
//!   loopback TCP.
//! * [`registry_check`] — the storage-path extension: a seed-replayable
//!   fuzz sweep over the `cs-registry` CSMR container codec
//!   (`conformance registry-fuzz`) — byte-exact round trips including
//!   NaN/±0.0 codebook payloads, plus hostile mutations (half of them
//!   re-sealed past the CRC, into the entropy-coded layer bodies) that
//!   must fail with typed errors or decode canonically — and an on-disk
//!   save→load→save leg for
//!   `registry: true` corpus entries.
//! * [`cluster_check`] — one hop further out: the case replicated
//!   across a two-node in-process cluster, probed through the
//!   `cs-cluster` orchestrator, with the same served-output check on
//!   the routed outputs.
//! * [`runner`] — the orchestrator behind the `conformance` bin
//!   (`run` / `replay` / `corpus` subcommands), with cs-telemetry
//!   counters for cases run, mismatches, and shrink steps.
//! * [`corpus`] — the checked-in regression corpus of previously-shrunk
//!   or edge-rich `(seed, case)` pairs, replayed in tier-1 tests.
//!
//! # Example
//!
//! ```
//! use cs_conformance::runner::{self, RunConfig};
//!
//! let report = runner::run(&RunConfig {
//!     cases: 8,
//!     seed: 42,
//!     ..RunConfig::default()
//! });
//! assert_eq!(report.failures.len(), 0);
//! ```

pub mod cluster_check;
pub mod corpus;
pub mod diff;
pub mod gen;
pub mod invariants;
pub mod net_check;
pub mod registry_check;
pub mod rng;
pub mod runner;
pub mod serve_check;
pub mod shrink;
pub mod sim_ref;

/// A deliberately-injected engine defect, used to exercise the harness
/// itself: the acceptance test flips the sparse kernel's accumulation
/// order and demands that the harness catches it, shrinks it, and
/// prints a replay command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No fault: production kernels as shipped.
    #[default]
    None,
    /// Accumulate each strip's surviving terms in *descending* input
    /// order. The dense reference adds them ascending, so the float
    /// rounding differs and bit-identity breaks on almost every case.
    ReverseAccumulation,
    /// Read every looked-up weight from slot `idx + 1 (mod len)` of its
    /// strip's codebook — what a lookup body that mis-based its table
    /// would do. Only the ungated block-CSR leg runs it, and only nibble
    /// strips (codebooks of at most 16 entries) look weights up.
    CodebookOffByOne,
    /// Look the second strip of every shared-run pair up in its
    /// partner's codebook — what a paired walk that handed both chunks
    /// one lookup table would do. Only the ungated block-CSR leg runs
    /// it, and only nibble strips look weights up.
    PairCodebookSwap,
    /// Deliver two batch columns' results to each other: the batched
    /// kernel's output for column 0 lands in column 1's slot and vice
    /// versa — what a tile kernel that stored its accumulators under
    /// the wrong column index would do. Only the batched leg runs it.
    SwapBatchColumns,
}

impl Fault {
    /// Parses the `--inject` CLI spelling.
    pub fn parse(s: &str) -> Option<Fault> {
        match s {
            "none" => Some(Fault::None),
            "reverse-accumulation" => Some(Fault::ReverseAccumulation),
            "codebook-off-by-one" => Some(Fault::CodebookOffByOne),
            "pair-codebook-swap" => Some(Fault::PairCodebookSwap),
            "swap-batch-columns" => Some(Fault::SwapBatchColumns),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Fault::None => "none",
            Fault::ReverseAccumulation => "reverse-accumulation",
            Fault::CodebookOffByOne => "codebook-off-by-one",
            Fault::PairCodebookSwap => "pair-codebook-swap",
            Fault::SwapBatchColumns => "swap-batch-columns",
        }
    }
}

/// One contract violation found by a check, with enough detail to
/// diagnose without re-running.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Which check failed (e.g. `fc-dense-vs-sparse-bits`).
    pub check: String,
    /// Human-readable specifics: indices, expected vs actual values.
    pub detail: String,
}

impl Mismatch {
    /// Creates a mismatch record.
    pub fn new(check: impl Into<String>, detail: impl Into<String>) -> Self {
        Mismatch {
            check: check.into(),
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}
