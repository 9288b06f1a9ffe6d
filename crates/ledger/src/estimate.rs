//! The estimator: order statistics, host calibration, direct timings.
//!
//! The sandbox this benchmark is gated in is a small shared VM whose
//! speed drifts by tens of percent over minutes, so a throughput figure
//! is never reported raw: a fixed loop owned by this file (integer
//! arithmetic, then multiply-adds over 1 MiB) runs between saturation
//! segments, and the run's median segment rate
//! is scaled by how slow that loop ran relative to [`CALIB_REF_MS`].
//! README.md has the measurements behind each choice.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Wall time of [`calibrate`] on the host the constants were fixed on
/// (2 vCPU Xeon @ 2.1 GHz, quiet). Only ratios to it are ever reported,
/// so its exact value matters less than that it never changes.
pub const CALIB_REF_MS: f64 = 10.0;

/// Steps of the calibration loop's integer chain (≈ 5 ms).
const CHAIN_STEPS: u64 = 4_000_000;

/// Passes of its multiply-add stream over [`STREAM_FLOATS`] (≈ 5 ms).
const STREAM_PASSES: u64 = 220;

/// 1 MiB of `f32`: larger than L1, resident in L2.
const STREAM_FLOATS: usize = 256 * 1024;

/// Value at quantile `q` of an ascending slice by the "exclusive"
/// method — the default of Python's `statistics.quantiles`, so spreads
/// computed here read the same as the ones the gate computes.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q * (n + 1) as f64;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            sorted[j - 1] + (sorted[j] - sorted[j - 1]) * (pos - j as f64)
        }
    }
}

/// First quartile, median and third quartile of `values`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Quartiles {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Quartiles {
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
        }
    }

    /// Interquartile range as a percentage of the median.
    pub fn iqr_pct(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median * 100.0
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    Quartiles::of(values).median
}

/// The sample at the highest percentile that still has at least ten
/// samples beyond it, capped at `want` (e.g. 0.99): with 500 samples a
/// p99 has only five beyond it, so the p98 is reported in its place.
/// Returns `(percentile actually used, value)`.
pub fn supported_percentile(sorted: &[f64], want: f64) -> (f64, f64) {
    let n = sorted.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    // Index of the sample with exactly ten samples above it.
    let highest = n.saturating_sub(11);
    let wanted = ((n as f64 * want).ceil() as usize).clamp(1, n) - 1;
    let idx = wanted.min(highest);
    ((idx + 1) as f64 / n as f64, sorted[idx])
}

/// A rate scaled to the reference host: a run during which the
/// calibration loop took twice its reference time counts double.
pub fn normalise(raw_per_s: f64, calib_ms: f64) -> f64 {
    raw_per_s * calib_ms / CALIB_REF_MS
}

/// A run's calibration reading: the lower quartile of its readings.
/// Scheduling luck (both chains starting on one vCPU) only ever
/// inflates a reading, so the low side is the host and the high side
/// is noise; a host that is slow throughout still moves the quartile.
pub fn calib_reading(readings_ms: &[f64]) -> f64 {
    Quartiles::of(readings_ms).q1
}

/// The calibration loop: half its time on a dependent integer chain
/// (core clock, and whether a sibling hyperthread is taken), half
/// streaming 1 MiB with multiply-adds (the cache and memory system) —
/// the two things a neighbour on the host can take away. `light` does
/// a fiftieth of the work (tests, where only the plumbing matters).
fn calib_loop(light: bool) {
    static STREAM: OnceLock<Vec<f32>> = OnceLock::new();
    let stream = STREAM.get_or_init(|| vec![1.0; STREAM_FLOATS]);
    let shrink = if light { 50 } else { 1 };
    let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..CHAIN_STEPS / shrink {
        // `black_box` every step: left alone, the compiler collapses
        // the recurrence and the loop measures nothing.
        x = black_box(
            x.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407),
        );
    }
    let mut acc = [0f32; 8];
    for _ in 0..(STREAM_PASSES / shrink).max(1) {
        for chunk in stream.chunks_exact(8) {
            for (a, v) in acc.iter_mut().zip(chunk) {
                *a += v * 1.0001;
            }
        }
        black_box(&mut acc);
    }
}

/// Runs the calibration loop on `threads` threads at once and returns
/// the wall time until the last one finishes, in milliseconds.
///
/// With `threads` = the core count this measures how fast the host
/// runs that many busy threads *together*, which is what a saturated
/// server needs and what drifts; one thread alone reads the same
/// whatever the neighbours do.
pub fn calibrate(threads: usize, light: bool) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads.max(1) {
            s.spawn(move || calib_loop(light));
        }
    });
    start.elapsed().as_secs_f64() * 1e3
}

/// Median time of one call to `f` in nanoseconds: at least
/// `min_repeats` calls, more while `budget` lasts. Not scaled by the
/// calibration loop: one thread of it reads the same in every host
/// state observed, so there is nothing to scale by.
pub fn time_call(min_repeats: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy set-up
    let started = Instant::now();
    let mut samples = Vec::with_capacity(min_repeats);
    while samples.len() < min_repeats || (started.elapsed() < budget && samples.len() < 20_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e9);
    }
    median(&samples)
}

/// Times `a` and `b` in alternation (so drift in host speed hits both
/// alike) and returns the median of each in nanoseconds, plus the
/// median over rounds of `b / a` — a ratio, in which host speed cancels
/// altogether. Each side is called twice per round and the second call
/// timed: the first refills the caches the other side just emptied, as
/// a server running one of them all day would have them.
pub fn time_pair(
    min_rounds: usize,
    budget: Duration,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (f64, f64, f64) {
    let timed = |f: &mut dyn FnMut()| {
        f();
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e9
    };
    let started = Instant::now();
    let (mut ta, mut tb, mut ratio) = (Vec::new(), Vec::new(), Vec::new());
    while ta.len() < min_rounds || (started.elapsed() < budget && ta.len() < 20_000) {
        let (da, db) = (timed(&mut a), timed(&mut b));
        ta.push(da);
        tb.push(db);
        ratio.push(db / da.max(1.0));
    }
    (median(&ta), median(&tb), median(&ratio))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        let q = Quartiles::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 3.0, 4.5));
        let q = Quartiles::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.25, 2.5, 3.75));
        assert_eq!(q.iqr_pct(), 100.0);
        assert_eq!(Quartiles::of(&[]).median, 0.0);
        assert_eq!(Quartiles::of(&[7.0]).iqr_pct(), 0.0);
    }

    #[test]
    fn percentile_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        // 2000 samples: p99 is sample 1980, twenty lie beyond it.
        assert_eq!(supported_percentile(&v, 0.99), (0.99, 1980.0));
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        // 500 samples: p99 would leave five; fall back to sample 490.
        assert_eq!(supported_percentile(&v, 0.99), (0.98, 490.0));
        // Fewer than eleven samples: the lowest is all that qualifies.
        assert_eq!(supported_percentile(&[3.0, 4.0], 0.95), (0.5, 3.0));
    }

    #[test]
    fn normalisation_cancels_a_slow_host() {
        // Half the rate measured while the host ran at half speed is the
        // same normalised rate.
        assert_eq!(
            normalise(1000.0, CALIB_REF_MS),
            normalise(500.0, 2.0 * CALIB_REF_MS)
        );
        // A few inflated readings do not move a run's reading …
        let quiet = [10.0, 10.1, 10.0, 17.0, 10.2, 10.1, 19.5, 10.0];
        assert!((calib_reading(&quiet) - 10.0).abs() < 0.05);
        // … a host slow throughout does.
        let slow = [15.0, 15.2, 14.9, 21.0, 15.1, 15.3, 15.0, 19.0];
        assert!(calib_reading(&slow) > 14.8);
        assert!(calibrate(2, true) > 0.0);
    }

    #[test]
    fn timers_run_the_minimum_rounds_and_rank_the_slower_call() {
        let mut calls = 0;
        let ns = time_call(5, Duration::ZERO, || calls += 1);
        assert_eq!(calls, 6); // one warm-up + five samples
        assert!(ns >= 0.0);
        let spin = |n: u64| {
            move || {
                black_box((0..n).fold(0u64, |x, i| black_box(x ^ i)));
            }
        };
        let (fast, slow, ratio) = time_pair(5, Duration::ZERO, spin(1_000), spin(100_000));
        assert!(fast < slow && ratio > 1.0, "{fast} {slow} {ratio}");
    }
}
