//! Metric primitives: counters, gauges and fixed-bucket histograms.
//!
//! Every primitive is a cheap cloneable *handle*. A handle is either
//! live (backed by atomics shared with the [`crate::Registry`] that
//! issued it) or a no-op (issued by [`crate::NoopRecorder`]); the hot
//! path updates it without branching on configuration, locking, or
//! allocating. All values are `u64` — microseconds, cycles, bytes,
//! sizes — which keeps exports exact and histograms mergeable.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// The 1-based rank a quantile addresses in a population of `n`
/// samples: `ceil(q * n)` clamped to `[1, n]`.
///
/// This is the *single* rank rule in the workspace: the bucketed
/// [`Histogram::quantile`] (which `cs-serve`'s `ServeSnapshot`
/// percentiles read) and [`percentile_of_sorted`] (client-side exact
/// percentiles) both use it, so they agree whenever samples land on
/// bucket bounds.
pub fn rank_for_quantile(q: f64, n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Exact quantile of an ascending-sorted sample slice under the
/// [`rank_for_quantile`] rule; `0` for an empty slice.
pub fn percentile_of_sorted(sorted: &[u64], q: f64) -> u64 {
    match rank_for_quantile(q, sorted.len()) {
        0 => 0,
        rank => sorted[rank - 1],
    }
}

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op handle; increments vanish.
    pub fn noop() -> Self {
        Counter(None)
    }

    pub(crate) fn live() -> Self {
        Counter(Some(Arc::new(AtomicU64::new(0))))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(v) = &self.0 {
            v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (`0` for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |v| v.load(Ordering::Relaxed))
    }

    /// Whether this handle records anywhere.
    pub fn is_live(&self) -> bool {
        self.0.is_some()
    }
}

#[derive(Debug, Default)]
struct GaugeInner {
    value: AtomicI64,
    max: AtomicI64,
}

/// An instantaneous level (queue depth, buffer occupancy) with a
/// high-water mark.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<GaugeInner>>);

impl Gauge {
    /// A no-op handle; updates vanish.
    pub fn noop() -> Self {
        Gauge(None)
    }

    pub(crate) fn live() -> Self {
        Gauge(Some(Arc::new(GaugeInner::default())))
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.value.store(v, Ordering::Relaxed);
            g.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Moves the level up by `n`.
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            let now = g.value.fetch_add(n, Ordering::Relaxed) + n;
            g.max.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// Moves the level down by `n`.
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current level (`0` for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0
            .as_ref()
            .map_or(0, |g| g.value.load(Ordering::Relaxed))
    }

    /// Highest level ever set (`0` for a no-op handle).
    pub fn max(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.max.load(Ordering::Relaxed))
    }

    /// Takes another gauge's level, as a later reading of the same
    /// quantity, and keeps the larger high-water mark.
    pub fn merge(&self, other: &Gauge) {
        self.set(other.get());
        if let Some(g) = &self.0 {
            g.max.fetch_max(other.max(), Ordering::Relaxed);
        }
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Ascending, strictly increasing upper bounds; one overflow bucket
    /// past the last bound makes the counts slice one entry longer.
    bounds: Vec<u64>,
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// An immutable copy of a histogram's state, used by the exporters and
/// for cross-recorder merging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds (ascending); the overflow bucket is implied.
    pub bounds: Vec<u64>,
    /// Per-bucket counts, one longer than `bounds` (last is overflow).
    pub counts: Vec<u64>,
    /// Total samples observed.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Smallest observed value (`0` when empty).
    pub min: u64,
    /// Largest observed value (`0` when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Quantile estimate under the shared [`rank_for_quantile`] rule:
    /// the upper bound of the first bucket whose cumulative count
    /// reaches the rank (the observed maximum for the overflow bucket).
    /// Exact whenever samples land on bucket bounds.
    pub fn quantile(&self, q: f64) -> u64 {
        let rank = rank_for_quantile(q, self.count as usize) as u64;
        if rank == 0 {
            return 0;
        }
        let mut cum = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    /// Mean observed value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A fixed-bucket histogram of `u64` values.
///
/// Buckets are cumulative-exportable (Prometheus `le` semantics) and
/// two histograms with identical bounds merge by adding counts.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<HistogramInner>>);

impl Histogram {
    /// A no-op handle; observations vanish.
    pub fn noop() -> Self {
        Histogram(None)
    }

    pub(crate) fn live(bounds: &[u64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect();
        Histogram(Some(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        })))
    }

    /// Records one value.
    pub fn observe(&self, v: u64) {
        if let Some(h) = &self.0 {
            let idx = h.bounds.partition_point(|b| *b < v);
            h.counts[idx].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.min.fetch_min(v, Ordering::Relaxed);
            h.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Total samples observed (`0` for a no-op handle).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map_or(0, |h| h.count.load(Ordering::Relaxed))
    }

    /// Sum of observed values (`0` for a no-op handle).
    pub fn sum(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.sum.load(Ordering::Relaxed))
    }

    /// Quantile estimate; see [`HistogramSnapshot::quantile`].
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().map_or(0, |s| s.quantile(q))
    }

    /// Copies the current state out (`None` for a no-op handle).
    pub fn snapshot(&self) -> Option<HistogramSnapshot> {
        let h = self.0.as_ref()?;
        let count = h.count.load(Ordering::Relaxed);
        let min = h.min.load(Ordering::Relaxed);
        Some(HistogramSnapshot {
            bounds: h.bounds.clone(),
            counts: h.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
            count,
            sum: h.sum.load(Ordering::Relaxed),
            min: if count == 0 { 0 } else { min },
            max: h.max.load(Ordering::Relaxed),
        })
    }

    /// Adds another histogram's samples into this one. Both handles
    /// must be live with identical bounds; returns whether the merge
    /// happened.
    pub fn merge(&self, other: &Histogram) -> bool {
        let (Some(h), Some(o)) = (&self.0, &other.0) else {
            return false;
        };
        if h.bounds != o.bounds {
            return false;
        }
        for (dst, src) in h.counts.iter().zip(&o.counts) {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        let src_count = o.count.load(Ordering::Relaxed);
        h.count.fetch_add(src_count, Ordering::Relaxed);
        h.sum
            .fetch_add(o.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        if src_count > 0 {
            h.min
                .fetch_min(o.min.load(Ordering::Relaxed), Ordering::Relaxed);
            h.max
                .fetch_max(o.max.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        true
    }
}

/// Stock bucket layouts for the metrics this workspace records.
pub mod buckets {
    /// Microsecond durations: sub-µs to 10 s, roughly 1-2-5 per decade.
    /// The leading `0` bound gives zero-duration samples (manual-clock
    /// runs) their own bucket, so quantiles stay exact there.
    pub fn duration_us() -> Vec<u64> {
        let mut b = vec![0];
        for decade in [1u64, 10, 100, 1_000, 10_000, 100_000, 1_000_000] {
            b.extend([decade, 2 * decade, 5 * decade]);
        }
        b.push(10_000_000);
        b
    }

    /// Simulated cycle counts: 1 k to 1 G, 1-2-5 per decade.
    pub fn cycles() -> Vec<u64> {
        let mut b = vec![0];
        for decade in [
            1_000u64,
            10_000,
            100_000,
            1_000_000,
            10_000_000,
            100_000_000,
        ] {
            b.extend([decade, 2 * decade, 5 * decade]);
        }
        b.push(1_000_000_000);
        b
    }

    /// Small cardinalities (batch sizes): one bucket per size up to
    /// `max`, so the histogram is exact.
    pub fn exact(max: u64) -> Vec<u64> {
        (1..=max).collect()
    }

    /// Byte volumes: 64 B to 64 MiB in powers of four.
    pub fn bytes() -> Vec<u64> {
        (0..=10).map(|i| 64u64 << (2 * i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_rule_matches_exact_percentiles() {
        let sorted: Vec<u64> = (1..=10).map(|i| i * 100).collect();
        assert_eq!(percentile_of_sorted(&sorted, 0.50), 500);
        assert_eq!(percentile_of_sorted(&sorted, 0.95), 1000);
        assert_eq!(percentile_of_sorted(&sorted, 0.99), 1000);
        assert_eq!(percentile_of_sorted(&[], 0.5), 0);
        assert_eq!(rank_for_quantile(0.0, 10), 1, "q=0 clamps to first");
        assert_eq!(rank_for_quantile(1.0, 10), 10);
    }

    #[test]
    fn counter_counts_and_noop_vanishes() {
        let c = Counter::live();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert!(c.is_live());
        let n = Counter::noop();
        n.inc();
        assert_eq!(n.get(), 0);
        assert!(!n.is_live());
    }

    #[test]
    fn gauge_tracks_level_and_high_water() {
        let g = Gauge::live();
        g.add(3);
        g.add(2);
        g.sub(4);
        assert_eq!(g.get(), 1);
        assert_eq!(g.max(), 5);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.max(), 5, "set below the mark keeps it");
    }

    #[test]
    fn histogram_buckets_values_at_bounds_inclusively() {
        let h = Histogram::live(&[10, 20, 50]);
        for v in [0, 10, 11, 20, 21, 50, 51, 1000] {
            h.observe(v);
        }
        let s = h.snapshot().unwrap();
        // le=10 gets {0,10}; le=20 gets {11,20}; le=50 gets {21,50};
        // overflow gets {51,1000}.
        assert_eq!(s.counts, vec![2, 2, 2, 2]);
        assert_eq!(s.count, 8);
        assert_eq!(s.sum, 1163);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1000);
    }

    #[test]
    fn histogram_quantile_is_exact_on_bucket_bounds() {
        let bounds: Vec<u64> = (1..=10).map(|i| i * 100).collect();
        let h = Histogram::live(&bounds);
        let mut samples: Vec<u64> = (1..=10).map(|i| i * 100).collect();
        for v in &samples {
            h.observe(*v);
        }
        samples.sort_unstable();
        for q in [0.5, 0.9, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), percentile_of_sorted(&samples, q), "q={q}");
        }
    }

    #[test]
    fn overflow_quantile_reports_observed_max() {
        let h = Histogram::live(&[10]);
        h.observe(500);
        h.observe(700);
        assert_eq!(h.quantile(0.99), 700);
    }

    #[test]
    fn merge_requires_identical_bounds_and_adds() {
        let a = Histogram::live(&[10, 20]);
        let b = Histogram::live(&[10, 20]);
        a.observe(5);
        b.observe(15);
        b.observe(25);
        assert!(a.merge(&b));
        let s = a.snapshot().unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.counts, vec![1, 1, 1]);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 25);
        let c = Histogram::live(&[99]);
        assert!(!a.merge(&c), "bound mismatch refuses the merge");
        assert!(!a.merge(&Histogram::noop()));
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::live(&[1, 2]);
        let s = h.snapshot().unwrap();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
        assert!(Histogram::noop().snapshot().is_none());
    }

    #[test]
    fn stock_buckets_are_strictly_increasing() {
        for b in [
            buckets::duration_us(),
            buckets::cycles(),
            buckets::exact(16),
            buckets::bytes(),
        ] {
            assert!(b.windows(2).all(|w| w[0] < w[1]), "{b:?}");
        }
    }
}
