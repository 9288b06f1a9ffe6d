//! Zero-dependency telemetry for the Cambricon-S workspace: counters,
//! gauges, fixed-bucket mergeable histograms and span timers behind a
//! [`Recorder`] trait, with deterministic clocks and Prometheus/JSONL
//! exporters.
//!
//! The serving runtime (`cs-serve`), the simulator stack, and the
//! experiment drivers all instrument through this crate:
//!
//! * Handles ([`Counter`], [`Gauge`], [`Histogram`]) are fetched once
//!   at startup from a [`Recorder`] and updated lock-free on the hot
//!   path. They are also where the figures are read back: a `cs-serve`
//!   server builds its stats snapshot from its own handles, so it owns
//!   its registry. [`NoopRecorder`] issues handles that discard
//!   updates and read zero, for callers that want neither.
//! * Time is injected through [`Clock`]: production uses
//!   [`MonotonicClock`], tests pin every duration with [`ManualClock`],
//!   which makes latency histograms and [`Span`] measurements exactly
//!   reproducible.
//! * A [`Registry`] recorder retains everything for export as
//!   Prometheus text ([`export::render_prometheus`]) or JSONL
//!   ([`export::render_jsonl`]); [`Registry::merge`] folds one
//!   registry into another (a sweep's points into its total).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use cs_telemetry::{buckets, label, Labels, ManualClock, Recorder, Registry, Span};
//!
//! let registry = Arc::new(Registry::new());
//! let clock = Arc::new(ManualClock::new(0));
//!
//! let served = registry.counter("served_total", "Requests served", Labels::new());
//! let wait = registry.histogram(
//!     "wait_us", "Queue wait", label("lane", 0), &buckets::duration_us());
//!
//! let span = Span::start(clock.clone(), wait.clone());
//! clock.advance(250);
//! span.finish();
//! served.inc();
//!
//! assert_eq!(wait.sum(), 250);
//! let text = registry.prometheus_text().unwrap();
//! assert!(text.contains("served_total 1"));
//! ```

#![deny(missing_docs)]
// Telemetry must never take down the system it observes: no panics on
// the recording path.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod clock;
pub mod export;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use metrics::{
    buckets, percentile_of_sorted, rank_for_quantile, Counter, Gauge, Histogram, HistogramSnapshot,
};
pub use recorder::{label, Labels, NoopRecorder, Recorder, Registry};
pub use span::Span;
