//! Serving statistics: latency percentiles, batch-size histogram,
//! throughput and simulated hardware cost per request.
//!
//! All time is read through the injected [`Clock`], never from
//! `Instant::now()`, so every figure in a [`ServeSnapshot`] — including
//! the percentiles — is reproducible in tests with a
//! [`crate::clock::ManualClock`].
//!
//! Every `record_*` event additionally feeds a set of
//! [`cs_telemetry`] handles registered against the recorder passed to
//! [`ServeStats::with_recorder`]. The default recorder is a
//! [`NoopRecorder`], whose handles discard updates, so the snapshot
//! path is unchanged for callers that never ask for metrics. The
//! snapshot percentiles and the telemetry histograms share one rank
//! rule ([`cs_telemetry::rank_for_quantile`]), so they agree exactly
//! whenever latencies land on histogram bucket bounds.

use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex, MutexGuard};

use cs_sim::SimStats;
use cs_telemetry::{buckets, label, percentile_of_sorted, Counter, Gauge, Histogram};
use cs_telemetry::{Labels, NoopRecorder, Recorder};

use crate::batch::CloseReason;
use crate::clock::Clock;

/// Hard cap on retained latency samples; past this the recorder keeps
/// every second sample to bound memory during long soak runs.
const MAX_LATENCY_SAMPLES: usize = 1 << 20;

fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Counter updates can't leave the map in a broken state, so a
    // poisoned lock (a panicking test thread) is safe to adopt.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

#[derive(Debug, Default)]
struct StatsInner {
    submitted: u64,
    rejected: u64,
    completed: u64,
    hw_completed: u64,
    failed: u64,
    /// Signed: a free worker can take a job before its submitter has
    /// recorded the admission, so the count may dip to -1 in between.
    queue_depth: i64,
    max_queue_depth: usize,
    latencies_us: Vec<u64>,
    keep_every: usize,
    latency_skip: usize,
    batch_hist: BTreeMap<usize, u64>,
    total_cycles: u64,
    total_energy_pj: f64,
    worker_busy_cycles: Vec<u64>,
    loaded_models: u64,
    resident_bytes: u64,
    evictions: u64,
    canary_divergences: u64,
    canary_demotions: u64,
    /// Tenant → (submitted, rejected).
    tenants: BTreeMap<String, (u64, u64)>,
}

/// Telemetry handles for every serving-path event, fetched once at
/// startup (registration locks; updates are lock-free atomics).
#[derive(Debug, Clone)]
struct ServeMetrics {
    submitted: Counter,
    rejected: Counter,
    completed: Counter,
    failed: Counter,
    queue_depth: Gauge,
    queue_wait_us: Histogram,
    batch_size: Histogram,
    batch_wait_us: Histogram,
    /// Indexed by [`CloseReason`] discriminant order.
    batch_close: [Counter; 3],
    latency_us: Histogram,
    compute_cycles: Histogram,
    dram_stall_cycles: Histogram,
    nbin_peak_bytes: Gauge,
    energy_pj: Counter,
    worker_busy_us: Vec<Counter>,
    worker_idle_us: Vec<Counter>,
    worker_busy_cycles: Vec<Counter>,
    loaded_models: Gauge,
    resident_bytes: Gauge,
    evictions: Counter,
    canary_demotions: Counter,
}

impl ServeMetrics {
    fn new(rec: &dyn Recorder, workers: usize, max_batch: usize) -> Self {
        let close = |reason: CloseReason| {
            rec.counter(
                "serve_batch_close_total",
                "Batches closed, by closing rule",
                label("reason", reason.as_str()),
            )
        };
        ServeMetrics {
            submitted: rec.counter(
                "serve_requests_submitted_total",
                "Requests admitted into the queue",
                Labels::new(),
            ),
            rejected: rec.counter(
                "serve_requests_rejected_total",
                "Requests rejected with Overloaded",
                Labels::new(),
            ),
            completed: rec.counter(
                "serve_requests_completed_total",
                "Requests answered successfully",
                Labels::new(),
            ),
            failed: rec.counter(
                "serve_requests_failed_total",
                "Requests answered with an error",
                Labels::new(),
            ),
            queue_depth: rec.gauge(
                "serve_queue_depth",
                "Requests admitted but not yet batched",
                Labels::new(),
            ),
            queue_wait_us: rec.histogram(
                "serve_queue_wait_us",
                "Enqueue-to-dequeue wait per request",
                Labels::new(),
                &buckets::duration_us(),
            ),
            batch_size: rec.histogram(
                "serve_batch_size",
                "Requests per closed batch",
                Labels::new(),
                &buckets::exact(max_batch.max(1) as u64),
            ),
            batch_wait_us: rec.histogram(
                "serve_batch_wait_us",
                "Open-to-close wait per batch",
                Labels::new(),
                &buckets::duration_us(),
            ),
            batch_close: [
                close(CloseReason::Size),
                close(CloseReason::Deadline),
                close(CloseReason::ModelSwitch),
            ],
            latency_us: rec.histogram(
                "serve_request_latency_us",
                "End-to-end latency per completed request",
                Labels::new(),
                &buckets::duration_us(),
            ),
            compute_cycles: rec.histogram(
                "serve_request_compute_cycles",
                "Simulated NFU-busy cycles per request",
                Labels::new(),
                &buckets::cycles(),
            ),
            dram_stall_cycles: rec.histogram(
                "serve_request_dram_stall_cycles",
                "Simulated cycles stalled on DRAM per request",
                Labels::new(),
                &buckets::cycles(),
            ),
            nbin_peak_bytes: rec.gauge(
                "serve_nbin_peak_bytes",
                "Peak NBin occupancy over served requests",
                Labels::new(),
            ),
            energy_pj: rec.counter(
                "serve_energy_pj_total",
                "Simulated energy across completed requests (pJ)",
                Labels::new(),
            ),
            worker_busy_us: (0..workers)
                .map(|w| {
                    rec.counter(
                        "serve_worker_busy_us",
                        "Wall-clock time spent executing batches",
                        label("worker", w),
                    )
                })
                .collect(),
            worker_idle_us: (0..workers)
                .map(|w| {
                    rec.counter(
                        "serve_worker_idle_us",
                        "Wall-clock time spent waiting for batches",
                        label("worker", w),
                    )
                })
                .collect(),
            worker_busy_cycles: (0..workers)
                .map(|w| {
                    rec.counter(
                        "serve_worker_busy_cycles",
                        "Simulated accelerator cycles executed",
                        label("worker", w),
                    )
                })
                .collect(),
            loaded_models: rec.gauge(
                "serve_loaded_models",
                "Model versions currently resident",
                Labels::new(),
            ),
            resident_bytes: rec.gauge(
                "serve_resident_bytes",
                "Compact weight bytes held by resident model versions",
                Labels::new(),
            ),
            evictions: rec.counter(
                "serve_model_evictions_total",
                "Model versions evicted by the memory budget",
                Labels::new(),
            ),
            canary_demotions: rec.counter(
                "serve_canary_demotions_total",
                "Canary versions auto-demoted by divergence",
                Labels::new(),
            ),
        }
    }

    fn close_counter(&self, reason: CloseReason) -> &Counter {
        &self.batch_close[reason as usize]
    }
}

/// Shared, thread-safe statistics recorder.
///
/// The admission path and every worker hold an `Arc` of
/// this and record events as they happen; [`ServeStats::snapshot`]
/// folds the counters into a [`ServeSnapshot`].
pub struct ServeStats {
    clock: Arc<dyn Clock>,
    start_us: u64,
    inner: Mutex<StatsInner>,
    metrics: ServeMetrics,
    /// Kept for series that register lazily: tenants and canary models
    /// are not known at startup.
    recorder: Arc<dyn Recorder>,
    tenant_metrics: Mutex<HashMap<String, (Counter, Counter)>>,
    canary_metrics: Mutex<HashMap<String, Counter>>,
}

impl std::fmt::Debug for ServeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeStats")
            .field("start_us", &self.start_us)
            .finish_non_exhaustive()
    }
}

impl ServeStats {
    /// A recorder for `workers` worker threads, timed by `clock`, with
    /// telemetry discarded (no-op handles).
    pub fn new(clock: Arc<dyn Clock>, workers: usize) -> Self {
        ServeStats::with_recorder(clock, workers, Arc::new(NoopRecorder), 64)
    }

    /// A recorder whose events additionally feed telemetry handles
    /// registered against `recorder`. `max_batch` sizes the exact
    /// batch-size histogram (one bucket per size).
    pub fn with_recorder(
        clock: Arc<dyn Clock>,
        workers: usize,
        recorder: Arc<dyn Recorder>,
        max_batch: usize,
    ) -> Self {
        let start_us = clock.now_us();
        ServeStats {
            clock,
            start_us,
            inner: Mutex::new(StatsInner {
                keep_every: 1,
                worker_busy_cycles: vec![0; workers],
                ..StatsInner::default()
            }),
            metrics: ServeMetrics::new(recorder.as_ref(), workers, max_batch),
            recorder,
            tenant_metrics: Mutex::new(HashMap::new()),
            canary_metrics: Mutex::new(HashMap::new()),
        }
    }

    /// The clock this recorder reads.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Current time in microseconds on the injected clock.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Records a request admitted into the queue.
    pub fn record_submit(&self) {
        {
            let mut g = lock_or_recover(&self.inner);
            g.submitted += 1;
            g.queue_depth += 1;
            g.max_queue_depth = g
                .max_queue_depth
                .max(usize::try_from(g.queue_depth).unwrap_or(0));
        }
        self.metrics.submitted.inc();
        self.metrics.queue_depth.add(1);
    }

    /// Records a request rejected with `Overloaded`.
    pub fn record_reject(&self) {
        lock_or_recover(&self.inner).rejected += 1;
        self.metrics.rejected.inc();
    }

    /// Records a request leaving the queue for a batch after waiting
    /// `wait_us` since admission.
    pub fn record_dequeue(&self, wait_us: u64) {
        lock_or_recover(&self.inner).queue_depth -= 1;
        self.metrics.queue_depth.sub(1);
        self.metrics.queue_wait_us.observe(wait_us);
    }

    /// Records a closed batch of `size` requests that stayed open for
    /// `wait_us` and was closed by `reason`.
    pub fn record_batch(&self, size: usize, wait_us: u64, reason: CloseReason) {
        *lock_or_recover(&self.inner)
            .batch_hist
            .entry(size)
            .or_insert(0) += 1;
        self.metrics.batch_size.observe(size as u64);
        self.metrics.batch_wait_us.observe(wait_us);
        self.metrics.close_counter(reason).inc();
    }

    /// Records one completed request.
    ///
    /// Requests with `cycles == 0` ran on an engine lane with no
    /// hardware model attached (see [`crate::ExecBackend`]); they count
    /// toward wall-clock throughput but are excluded from the
    /// hardware-side accounting (`cycles_per_req`, `energy_pj_per_req`,
    /// `hw_rps`), which would otherwise be diluted toward zero.
    pub fn record_done(&self, worker: usize, latency_us: u64, cycles: u64, energy_pj: f64) {
        {
            let mut g = lock_or_recover(&self.inner);
            g.completed += 1;
            if cycles > 0 {
                g.hw_completed += 1;
            }
            g.total_cycles += cycles;
            g.total_energy_pj += energy_pj;
            if let Some(busy) = g.worker_busy_cycles.get_mut(worker) {
                *busy += cycles;
            }
            // Reservoir-ish decimation: once the buffer is full, keep
            // every 2^k-th sample so percentiles stay representative
            // while memory stays bounded.
            if g.latencies_us.len() >= MAX_LATENCY_SAMPLES {
                g.latencies_us = g.latencies_us.iter().copied().step_by(2).collect();
                g.keep_every *= 2;
            }
            if g.latency_skip == 0 {
                g.latencies_us.push(latency_us);
                g.latency_skip = g.keep_every - 1;
            } else {
                g.latency_skip -= 1;
            }
        }
        self.metrics.completed.inc();
        self.metrics.latency_us.observe(latency_us);
        self.metrics.energy_pj.add(energy_pj.round() as u64);
        if let Some(c) = self.metrics.worker_busy_cycles.get(worker) {
            c.add(cycles);
        }
    }

    /// Records the simulated-hardware breakdown of one request: how the
    /// accelerator's cycles split into compute vs DRAM stall, and the
    /// peak NBin occupancy it reached.
    pub fn record_request_hw(&self, sim: &SimStats) {
        self.metrics.compute_cycles.observe(sim.compute_busy_cycles);
        self.metrics
            .dram_stall_cycles
            .observe(sim.dram_stall_cycles);
        // Gauge high-water mark tracks the peak across requests.
        self.metrics
            .nbin_peak_bytes
            .set(sim.nbin_peak_bytes.min(i64::MAX as u64) as i64);
    }

    /// Records one worker-lane accounting sample: `idle_us` waiting for
    /// a batch, then `busy_us` executing it.
    pub fn record_worker_lane(&self, worker: usize, idle_us: u64, busy_us: u64) {
        if let Some(c) = self.metrics.worker_idle_us.get(worker) {
            c.add(idle_us);
        }
        if let Some(c) = self.metrics.worker_busy_us.get(worker) {
            c.add(busy_us);
        }
    }

    /// Records one failed request (the worker returned an error).
    pub fn record_failure(&self) {
        lock_or_recover(&self.inner).failed += 1;
        self.metrics.failed.inc();
    }

    fn tenant_handles(&self, tenant: &str) -> (Counter, Counter) {
        let mut g = lock_or_recover(&self.tenant_metrics);
        g.entry(tenant.to_string())
            .or_insert_with(|| {
                (
                    self.recorder.counter(
                        "serve_tenant_requests_total",
                        "Requests admitted, by tenant",
                        label("tenant", tenant),
                    ),
                    self.recorder.counter(
                        "serve_tenant_rejected_total",
                        "Requests rejected with Overloaded, by tenant",
                        label("tenant", tenant),
                    ),
                )
            })
            .clone()
    }

    /// Records an admission attributed to `tenant` (companion to
    /// [`ServeStats::record_submit`], which keeps the global counters).
    pub fn record_tenant_submit(&self, tenant: &str) {
        lock_or_recover(&self.inner)
            .tenants
            .entry(tenant.to_string())
            .or_insert((0, 0))
            .0 += 1;
        self.tenant_handles(tenant).0.inc();
    }

    /// Records a rejection attributed to `tenant`.
    pub fn record_tenant_reject(&self, tenant: &str) {
        lock_or_recover(&self.inner)
            .tenants
            .entry(tenant.to_string())
            .or_insert((0, 0))
            .1 += 1;
        self.tenant_handles(tenant).1.inc();
    }

    /// Records a model version becoming resident (`bytes` compact
    /// weight bytes).
    pub fn record_load(&self, bytes: u64) {
        {
            let mut g = lock_or_recover(&self.inner);
            g.loaded_models += 1;
            g.resident_bytes += bytes;
        }
        self.metrics.loaded_models.add(1);
        self.metrics
            .resident_bytes
            .add(bytes.min(i64::MAX as u64) as i64);
    }

    fn record_resident_drop(&self, bytes: u64) {
        {
            let mut g = lock_or_recover(&self.inner);
            g.loaded_models = g.loaded_models.saturating_sub(1);
            g.resident_bytes = g.resident_bytes.saturating_sub(bytes);
        }
        self.metrics.loaded_models.sub(1);
        self.metrics
            .resident_bytes
            .sub(bytes.min(i64::MAX as u64) as i64);
    }

    /// Records an explicit unload of a resident version.
    pub fn record_unload(&self, bytes: u64) {
        self.record_resident_drop(bytes);
    }

    /// Records a version evicted (and drained) by the memory budget.
    pub fn record_eviction(&self, bytes: u64) {
        lock_or_recover(&self.inner).evictions += 1;
        self.metrics.evictions.inc();
        self.record_resident_drop(bytes);
    }

    /// Records one canary shadow comparison that diverged from the
    /// primary for `model`.
    pub fn record_canary_divergence(&self, model: &str) {
        lock_or_recover(&self.inner).canary_divergences += 1;
        let counter = {
            let mut g = lock_or_recover(&self.canary_metrics);
            g.entry(model.to_string())
                .or_insert_with(|| {
                    self.recorder.counter(
                        "serve_canary_divergences_total",
                        "Canary outputs that diverged from the primary, by model",
                        label("model", model),
                    )
                })
                .clone()
        };
        counter.inc();
    }

    /// Records a canary crossing its divergence threshold and being
    /// demoted.
    pub fn record_canary_demotion(&self) {
        lock_or_recover(&self.inner).canary_demotions += 1;
        self.metrics.canary_demotions.inc();
    }

    /// Folds the counters into an immutable snapshot at the current
    /// clock reading.
    pub fn snapshot(&self) -> ServeSnapshot {
        let now = self.clock.now_us();
        let g = lock_or_recover(&self.inner);
        let mut sorted = g.latencies_us.clone();
        sorted.sort_unstable();
        let elapsed_us = now.saturating_sub(self.start_us);
        let completed = g.completed;
        let batches: u64 = g.batch_hist.values().sum();
        let batched_reqs: u64 = g.batch_hist.iter().map(|(size, n)| *size as u64 * n).sum();
        ServeSnapshot {
            elapsed_us,
            submitted: g.submitted,
            rejected: g.rejected,
            completed,
            failed: g.failed,
            queue_depth: usize::try_from(g.queue_depth).unwrap_or(0),
            max_queue_depth: g.max_queue_depth,
            p50_us: percentile_of_sorted(&sorted, 0.50),
            p95_us: percentile_of_sorted(&sorted, 0.95),
            p99_us: percentile_of_sorted(&sorted, 0.99),
            mean_latency_us: if sorted.is_empty() {
                0.0
            } else {
                sorted.iter().sum::<u64>() as f64 / sorted.len() as f64
            },
            throughput_rps: if elapsed_us == 0 {
                0.0
            } else {
                completed as f64 * 1e6 / elapsed_us as f64
            },
            batch_hist: g.batch_hist.iter().map(|(s, n)| (*s, *n)).collect(),
            mean_batch: if batches == 0 {
                0.0
            } else {
                batched_reqs as f64 / batches as f64
            },
            hw_completed: g.hw_completed,
            total_cycles: g.total_cycles,
            cycles_per_req: if g.hw_completed == 0 {
                0.0
            } else {
                g.total_cycles as f64 / g.hw_completed as f64
            },
            energy_pj_per_req: if g.hw_completed == 0 {
                0.0
            } else {
                g.total_energy_pj / g.hw_completed as f64
            },
            worker_busy_cycles: g.worker_busy_cycles.clone(),
            loaded_models: g.loaded_models,
            resident_bytes: g.resident_bytes,
            evictions: g.evictions,
            canary_divergences: g.canary_divergences,
            canary_demotions: g.canary_demotions,
            tenants: g
                .tenants
                .iter()
                .map(|(t, (s, r))| (t.clone(), *s, *r))
                .collect(),
        }
    }
}

/// Immutable summary of a server's activity.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSnapshot {
    /// Microseconds since the recorder was created.
    pub elapsed_us: u64,
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests rejected with `Overloaded`.
    pub rejected: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Completed requests that ran a hardware model (`cycles > 0`).
    /// Engine-lane requests complete with zero cycles and are excluded
    /// from the per-request hardware figures below.
    pub hw_completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Requests currently queued (admitted, not yet batched).
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
    /// Median end-to-end latency (µs).
    pub p50_us: u64,
    /// 95th-percentile latency (µs).
    pub p95_us: u64,
    /// 99th-percentile latency (µs).
    pub p99_us: u64,
    /// Mean latency (µs).
    pub mean_latency_us: f64,
    /// Completed requests per wall-clock second.
    pub throughput_rps: f64,
    /// `(batch size, count)` pairs in ascending size order.
    pub batch_hist: Vec<(usize, u64)>,
    /// Mean requests per closed batch.
    pub mean_batch: f64,
    /// Total simulated accelerator cycles across all requests.
    pub total_cycles: u64,
    /// Mean simulated cycles per hardware-modeled request
    /// (zero-cycle engine-lane completions excluded).
    pub cycles_per_req: f64,
    /// Mean simulated energy per hardware-modeled request (picojoules,
    /// zero-cycle engine-lane completions excluded).
    pub energy_pj_per_req: f64,
    /// Simulated busy cycles per worker (one accelerator each).
    pub worker_busy_cycles: Vec<u64>,
    /// Model versions currently resident.
    pub loaded_models: u64,
    /// Compact weight bytes held by resident versions.
    pub resident_bytes: u64,
    /// Versions evicted (and drained) by the memory budget.
    pub evictions: u64,
    /// Canary shadow comparisons that diverged from the primary.
    pub canary_divergences: u64,
    /// Canaries auto-demoted by crossing their divergence threshold.
    pub canary_demotions: u64,
    /// `(tenant, submitted, rejected)` triples in tenant order.
    pub tenants: Vec<(String, u64, u64)>,
}

impl ServeSnapshot {
    /// Simulated-hardware makespan: the busiest accelerator's cycle
    /// count. With balanced load this shrinks linearly in the number of
    /// workers, which is what the saturation sweep measures.
    pub fn makespan_cycles(&self) -> u64 {
        self.worker_busy_cycles.iter().copied().max().unwrap_or(0)
    }

    /// Requests per second the simulated hardware sustains at
    /// `freq_ghz`: hardware-modeled completions over the busiest
    /// accelerator's busy time. Zero-cycle engine-lane completions
    /// never touched the hardware model, so counting them would inflate
    /// the figure.
    pub fn hw_rps(&self, freq_ghz: f64) -> f64 {
        let makespan = self.makespan_cycles();
        if makespan == 0 {
            return 0.0;
        }
        self.hw_completed as f64 * freq_ghz * 1e9 / makespan as f64
    }

    /// Multi-line human-readable rendering.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "requests: {} completed, {} failed, {} rejected ({} submitted)\n",
            self.completed, self.failed, self.rejected, self.submitted
        ));
        s.push_str(&format!(
            "latency:  p50 {} us, p95 {} us, p99 {} us, mean {:.1} us\n",
            self.p50_us, self.p95_us, self.p99_us, self.mean_latency_us
        ));
        s.push_str(&format!(
            "rate:     {:.1} req/s wall, mean batch {:.2}, queue max {}\n",
            self.throughput_rps, self.mean_batch, self.max_queue_depth
        ));
        s.push_str(&format!(
            "hardware: {:.0} cycles/req, {:.1} nJ/req\n",
            self.cycles_per_req,
            self.energy_pj_per_req / 1e3
        ));
        let hist: Vec<String> = self
            .batch_hist
            .iter()
            .map(|(size, n)| format!("{size}:{n}"))
            .collect();
        s.push_str(&format!("batches:  [{}]\n", hist.join(" ")));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use cs_telemetry::Registry;

    #[test]
    fn percentiles_are_deterministic_under_a_manual_clock() {
        let clock = Arc::new(ManualClock::new(0));
        let stats = ServeStats::new(clock.clone(), 2);
        for latency in [100u64, 200, 300, 400, 500, 600, 700, 800, 900, 1000] {
            stats.record_submit();
            stats.record_dequeue(0);
            stats.record_done(0, latency, 50, 10.0);
        }
        clock.advance(1_000_000);
        let snap = stats.snapshot();
        assert_eq!(snap.completed, 10);
        assert_eq!(snap.p50_us, 500);
        assert_eq!(snap.p95_us, 1000);
        assert_eq!(snap.p99_us, 1000);
        assert_eq!(snap.mean_latency_us, 550.0);
        // Exactly one simulated second elapsed → rps equals count.
        assert_eq!(snap.throughput_rps, 10.0);
        assert_eq!(snap.total_cycles, 500);
        assert_eq!(snap.cycles_per_req, 50.0);
        assert_eq!(snap.energy_pj_per_req, 10.0);
    }

    #[test]
    fn queue_depth_tracks_submit_and_dequeue() {
        let stats = ServeStats::new(Arc::new(ManualClock::new(0)), 1);
        stats.record_submit();
        stats.record_submit();
        stats.record_submit();
        stats.record_dequeue(5);
        let snap = stats.snapshot();
        assert_eq!(snap.queue_depth, 2);
        assert_eq!(snap.max_queue_depth, 3);
    }

    #[test]
    fn batch_histogram_and_mean() {
        let stats = ServeStats::new(Arc::new(ManualClock::new(0)), 1);
        stats.record_batch(1, 0, CloseReason::Deadline);
        stats.record_batch(4, 10, CloseReason::Size);
        stats.record_batch(4, 20, CloseReason::Size);
        let snap = stats.snapshot();
        assert_eq!(snap.batch_hist, vec![(1, 1), (4, 2)]);
        assert!((snap.mean_batch - 3.0).abs() < 1e-9);
    }

    #[test]
    fn hw_rps_uses_the_busiest_worker() {
        let stats = ServeStats::new(Arc::new(ManualClock::new(0)), 2);
        stats.record_done(0, 10, 1_000, 0.0);
        stats.record_done(1, 10, 3_000, 0.0);
        let snap = stats.snapshot();
        assert_eq!(snap.makespan_cycles(), 3_000);
        // 2 requests / (3000 cycles / 1 GHz) = 2 / 3 µs.
        let rps = snap.hw_rps(1.0);
        assert!((rps - 2.0 / 3e-6).abs() / rps < 1e-9);
    }

    #[test]
    fn zero_cycle_engine_completions_stay_out_of_hw_accounting() {
        // Regression: engine-lane requests (ExecBackend::Sparse/Dense)
        // complete with cycles == 0. They used to be counted in the
        // cycles_per_req / hw_rps denominators, diluting the hardware
        // throughput figures whenever engine and simulator traffic
        // mixed.
        let clock = Arc::new(ManualClock::new(0));
        let stats = ServeStats::new(clock.clone(), 1);
        stats.record_done(0, 10, 2_000, 100.0); // simulator-backed
        stats.record_done(0, 10, 4_000, 200.0); // simulator-backed
        stats.record_done(0, 10, 0, 0.0); // engine lane, no hw model
        stats.record_done(0, 10, 0, 0.0); // engine lane, no hw model
        clock.advance(1_000_000);
        let snap = stats.snapshot();
        // Wall-clock throughput still counts every completion...
        assert_eq!(snap.completed, 4);
        assert_eq!(snap.throughput_rps, 4.0);
        // ...but the hardware figures only average hw-modeled requests.
        assert_eq!(snap.hw_completed, 2);
        assert_eq!(snap.cycles_per_req, 3_000.0);
        assert_eq!(snap.energy_pj_per_req, 150.0);
        // hw_rps: 2 hw requests over a 6000-cycle makespan at 1 GHz.
        let rps = snap.hw_rps(1.0);
        assert!((rps - 2.0 * 1e9 / 6_000.0).abs() / rps < 1e-9);
    }

    #[test]
    fn all_engine_traffic_yields_zero_hw_figures() {
        let stats = ServeStats::new(Arc::new(ManualClock::new(0)), 1);
        stats.record_done(0, 10, 0, 0.0);
        stats.record_done(0, 10, 0, 0.0);
        let snap = stats.snapshot();
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.hw_completed, 0);
        assert_eq!(snap.cycles_per_req, 0.0);
        assert_eq!(snap.hw_rps(1.0), 0.0);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let stats = ServeStats::new(Arc::new(ManualClock::new(0)), 1);
        let snap = stats.snapshot();
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.throughput_rps, 0.0);
        assert_eq!(snap.mean_batch, 0.0);
        assert_eq!(snap.hw_rps(1.0), 0.0);
        assert!(snap.render().contains("requests"));
    }

    #[test]
    fn recorder_sees_every_event_the_snapshot_sees() {
        let registry = Arc::new(Registry::new());
        let clock = Arc::new(ManualClock::new(0));
        let stats = ServeStats::with_recorder(clock, 2, registry.clone(), 8);
        stats.record_submit();
        stats.record_submit();
        stats.record_reject();
        stats.record_dequeue(40);
        stats.record_dequeue(60);
        stats.record_batch(2, 60, CloseReason::Size);
        stats.record_done(0, 500, 1_000, 12.6);
        stats.record_done(1, 700, 3_000, 7.4);
        stats.record_failure();
        let snap = stats.snapshot();

        let counter = |name| registry.find_counter(name, &[]).unwrap().get();
        assert_eq!(counter("serve_requests_submitted_total"), snap.submitted);
        assert_eq!(counter("serve_requests_rejected_total"), snap.rejected);
        assert_eq!(counter("serve_requests_completed_total"), snap.completed);
        assert_eq!(counter("serve_requests_failed_total"), snap.failed);
        assert_eq!(counter("serve_energy_pj_total"), 13 + 7);

        let depth = registry.find_gauge("serve_queue_depth", &[]).unwrap();
        assert_eq!(depth.get() as usize, snap.queue_depth);
        assert_eq!(depth.max() as usize, snap.max_queue_depth);

        let wait = registry.find_histogram("serve_queue_wait_us", &[]).unwrap();
        assert_eq!(wait.count(), 2);
        assert_eq!(wait.sum(), 100);

        let size = registry.find_histogram("serve_batch_size", &[]).unwrap();
        assert_eq!(size.count(), 1);
        assert_eq!(size.sum(), 2);
        let by_size = registry
            .find_counter("serve_batch_close_total", &[("reason", "size")])
            .unwrap();
        assert_eq!(by_size.get(), 1);

        let busy0 = registry
            .find_counter("serve_worker_busy_cycles", &[("worker", "0")])
            .unwrap();
        let busy1 = registry
            .find_counter("serve_worker_busy_cycles", &[("worker", "1")])
            .unwrap();
        assert_eq!(busy0.get(), snap.worker_busy_cycles[0]);
        assert_eq!(busy1.get(), snap.worker_busy_cycles[1]);
    }

    #[test]
    fn snapshot_and_histogram_percentiles_agree_on_bucket_bounds() {
        // Latencies placed exactly on `duration_us` bucket bounds: the
        // exact sample percentiles (snapshot) and the bucketed
        // histogram quantiles share `rank_for_quantile`, so they must
        // agree to the microsecond.
        let registry = Arc::new(Registry::new());
        let clock = Arc::new(ManualClock::new(0));
        let stats = ServeStats::with_recorder(clock, 1, registry.clone(), 8);
        let latencies = [10u64, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000];
        for l in latencies {
            stats.record_done(0, l, 1, 0.0);
        }
        let snap = stats.snapshot();
        let hist = registry
            .find_histogram("serve_request_latency_us", &[])
            .unwrap();
        assert_eq!(hist.quantile(0.50), snap.p50_us);
        assert_eq!(hist.quantile(0.95), snap.p95_us);
        assert_eq!(hist.quantile(0.99), snap.p99_us);
        assert_eq!(snap.p50_us, 200);
    }

    #[test]
    fn tenant_and_lifecycle_events_reach_snapshot_and_recorder() {
        let registry = Arc::new(Registry::new());
        let stats =
            ServeStats::with_recorder(Arc::new(ManualClock::new(0)), 1, registry.clone(), 8);
        stats.record_tenant_submit("acme");
        stats.record_tenant_submit("acme");
        stats.record_tenant_submit("beta");
        stats.record_tenant_reject("beta");
        stats.record_load(1_000);
        stats.record_load(500);
        stats.record_eviction(500);
        stats.record_unload(250);
        stats.record_canary_divergence("mlp");
        stats.record_canary_divergence("mlp");
        stats.record_canary_demotion();
        let snap = stats.snapshot();
        assert_eq!(
            snap.tenants,
            vec![("acme".to_string(), 2, 0), ("beta".to_string(), 1, 1)]
        );
        assert_eq!(snap.loaded_models, 0);
        // 1000 + 500 loaded, 500 evicted, 250 unloaded.
        assert_eq!(snap.resident_bytes, 750);
        assert_eq!(snap.evictions, 1);
        assert_eq!(snap.canary_divergences, 2);
        assert_eq!(snap.canary_demotions, 1);

        let acme = registry
            .find_counter("serve_tenant_requests_total", &[("tenant", "acme")])
            .unwrap();
        assert_eq!(acme.get(), 2);
        let beta_rej = registry
            .find_counter("serve_tenant_rejected_total", &[("tenant", "beta")])
            .unwrap();
        assert_eq!(beta_rej.get(), 1);
        let div = registry
            .find_counter("serve_canary_divergences_total", &[("model", "mlp")])
            .unwrap();
        assert_eq!(div.get(), 2);
        let resident = registry.find_gauge("serve_resident_bytes", &[]).unwrap();
        assert_eq!(resident.get(), 750);
        assert_eq!(
            registry
                .find_counter("serve_model_evictions_total", &[])
                .unwrap()
                .get(),
            1
        );
    }

    #[test]
    fn hw_breakdown_and_worker_lane_accounting_reach_the_recorder() {
        let registry = Arc::new(Registry::new());
        let stats =
            ServeStats::with_recorder(Arc::new(ManualClock::new(0)), 1, registry.clone(), 8);
        let sim = SimStats {
            cycles: 100,
            compute_busy_cycles: 80,
            dram_stall_cycles: 20,
            nbin_peak_bytes: 4_096,
            ..SimStats::default()
        };
        stats.record_request_hw(&sim);
        stats.record_worker_lane(0, 30, 70);
        stats.record_worker_lane(0, 10, 90);
        // Out-of-range workers are ignored, not a panic.
        stats.record_worker_lane(7, 1, 1);

        let compute = registry
            .find_histogram("serve_request_compute_cycles", &[])
            .unwrap();
        let stall = registry
            .find_histogram("serve_request_dram_stall_cycles", &[])
            .unwrap();
        assert_eq!(compute.sum() + stall.sum(), sim.cycles);
        let nbin = registry.find_gauge("serve_nbin_peak_bytes", &[]).unwrap();
        assert_eq!(nbin.max(), 4_096);
        let idle = registry
            .find_counter("serve_worker_idle_us", &[("worker", "0")])
            .unwrap();
        let busy = registry
            .find_counter("serve_worker_busy_us", &[("worker", "0")])
            .unwrap();
        assert_eq!(idle.get(), 40);
        assert_eq!(busy.get(), 160);
    }
}
