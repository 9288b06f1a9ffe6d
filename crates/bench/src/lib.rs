//! Benchmark harness for the Cambricon-S reproduction.
//!
//! * `src/bin/exp_all.rs` — writes the paper's tables and figures to
//!   `results/` from the one experiment table,
//!   [`cambricon_s::experiments::TABLE`], which owns each artifact's
//!   scale, seed and parameters;
//! * `src/bin/exp_kernels.rs` — dense vs compiled sparse kernel floors;
//! * `src/bin/exp_serve_load.rs` — the serving saturation sweep;
//! * `benches/*.rs` — Criterion micro-benchmarks of the core kernels
//!   (selection logic, codecs, k-means, pruning, the timing simulator).

pub mod kernels_jsonl;
