//! Serving statistics: latency percentiles, batch-size histogram,
//! throughput and simulated hardware cost per request.
//!
//! There is one ledger: the [`cs_telemetry`] handles a server registers
//! against its recorder. Every `record_*` event updates those handles
//! (lock-free atomics), and `ServeStats::snapshot` folds the same
//! handles into a [`ServeSnapshot`], so the snapshot and the exported
//! metrics read the same numbers. A server therefore owns its registry;
//! under a [`cs_telemetry::NoopRecorder`] every handle discards its
//! updates and the snapshot's counts read zero.
//!
//! The percentiles are [`cs_telemetry::Histogram::quantile`] readings
//! of `serve_request_latency_us`: the upper bound of the 1-2-5
//! [`buckets::duration_us`] bucket holding the rank, so a 340 µs median
//! reads 500. The mean stays exact (sum over count). All time is read
//! through the injected [`Clock`], so every figure is reproducible in
//! tests with a [`crate::clock::ManualClock`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use cs_sim::SimStats;
use cs_telemetry::{buckets, label, Counter, Gauge, Histogram, HistogramSnapshot};
use cs_telemetry::{Labels, Recorder};

use crate::batch::CloseReason;
use crate::clock::Clock;

/// The server's telemetry handles, registered once at startup (canary
/// counters on the first canary of a name), and the snapshot built
/// from them.
///
/// The admission path and every worker hold an `Arc` of this; tenant
/// counters live with the tenant's admission lane instead
/// ([`crate::admission::AdmissionQueue::tenants`]).
pub(crate) struct ServeStats {
    clock: Arc<dyn Clock>,
    start_us: u64,
    /// Kept for the canary counters, registered when a canary loads.
    recorder: Arc<dyn Recorder>,
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
    /// Observed once per hardware-modelled completion, so its count is
    /// the snapshot's `hw_completed`.
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
    /// Model name → `serve_canary_divergences_total{model}`. Locked only
    /// when a canary loads and when a snapshot sums them; the worker
    /// increments the handle its canary state holds.
    canary_divergences: Mutex<HashMap<String, Counter>>,
}

impl ServeStats {
    /// Handles for `workers` worker threads registered against
    /// `recorder`, timed by `clock`. `max_batch` sizes the exact
    /// batch-size histogram (one bucket per size).
    pub(crate) fn new(
        clock: Arc<dyn Clock>,
        workers: usize,
        recorder: Arc<dyn Recorder>,
        max_batch: usize,
    ) -> Self {
        let rec = recorder.as_ref();
        let counter = |name, help| rec.counter(name, help, Labels::new());
        let gauge = |name, help| rec.gauge(name, help, Labels::new());
        let histogram =
            |name, help, bounds: &[u64]| rec.histogram(name, help, Labels::new(), bounds);
        let per_worker = |name, help| -> Vec<Counter> {
            (0..workers)
                .map(|w| rec.counter(name, help, label("worker", w)))
                .collect()
        };
        let close = |reason: CloseReason| {
            rec.counter(
                "serve_batch_close_total",
                "Batches closed, by closing rule",
                label("reason", reason.as_str()),
            )
        };
        ServeStats {
            start_us: clock.now_us(),
            clock,
            submitted: counter(
                "serve_requests_submitted_total",
                "Requests admitted into the queue",
            ),
            rejected: counter(
                "serve_requests_rejected_total",
                "Requests rejected with Overloaded",
            ),
            completed: counter(
                "serve_requests_completed_total",
                "Requests answered successfully",
            ),
            failed: counter(
                "serve_requests_failed_total",
                "Requests answered with an error",
            ),
            queue_depth: gauge("serve_queue_depth", "Requests admitted but not yet batched"),
            queue_wait_us: histogram(
                "serve_queue_wait_us",
                "Enqueue-to-dequeue wait per request",
                &buckets::duration_us(),
            ),
            batch_size: histogram(
                "serve_batch_size",
                "Requests per closed batch",
                &buckets::exact(max_batch.max(1) as u64),
            ),
            batch_wait_us: histogram(
                "serve_batch_wait_us",
                "Open-to-close wait per batch",
                &buckets::duration_us(),
            ),
            batch_close: [
                close(CloseReason::Size),
                close(CloseReason::Deadline),
                close(CloseReason::ModelSwitch),
            ],
            latency_us: histogram(
                "serve_request_latency_us",
                "End-to-end latency per completed request",
                &buckets::duration_us(),
            ),
            compute_cycles: histogram(
                "serve_request_compute_cycles",
                "Simulated NFU-busy cycles per request",
                &buckets::cycles(),
            ),
            dram_stall_cycles: histogram(
                "serve_request_dram_stall_cycles",
                "Simulated cycles stalled on DRAM per request",
                &buckets::cycles(),
            ),
            nbin_peak_bytes: gauge(
                "serve_nbin_peak_bytes",
                "Peak NBin occupancy over served requests",
            ),
            energy_pj: counter(
                "serve_energy_pj_total",
                "Simulated energy across completed requests (pJ)",
            ),
            worker_busy_us: per_worker(
                "serve_worker_busy_us",
                "Wall-clock time spent executing batches",
            ),
            worker_idle_us: per_worker(
                "serve_worker_idle_us",
                "Wall-clock time spent waiting for batches",
            ),
            worker_busy_cycles: per_worker(
                "serve_worker_busy_cycles",
                "Simulated accelerator cycles executed",
            ),
            loaded_models: gauge("serve_loaded_models", "Model versions currently resident"),
            resident_bytes: gauge(
                "serve_resident_bytes",
                "Compact weight bytes held by resident model versions",
            ),
            evictions: counter(
                "serve_model_evictions_total",
                "Model versions evicted by the memory budget",
            ),
            canary_demotions: counter(
                "serve_canary_demotions_total",
                "Canary versions auto-demoted by divergence",
            ),
            canary_divergences: Mutex::new(HashMap::new()),
            recorder,
        }
    }

    /// The clock this recorder reads.
    pub(crate) fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Current time in microseconds on the injected clock.
    pub(crate) fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Records a request admitted into the queue.
    pub(crate) fn record_submit(&self) {
        self.submitted.inc();
        self.queue_depth.add(1);
    }

    /// Records a request rejected with `Overloaded`.
    pub(crate) fn record_reject(&self) {
        self.rejected.inc();
    }

    /// Records a request leaving the queue for a batch after waiting
    /// `wait_us` since admission. A free worker can take a job before
    /// its submitter has recorded the admission, so the depth may dip
    /// to -1 in between.
    pub(crate) fn record_dequeue(&self, wait_us: u64) {
        self.queue_depth.sub(1);
        self.queue_wait_us.observe(wait_us);
    }

    /// Records a closed batch of `size` requests that stayed open for
    /// `wait_us` and was closed by `reason`.
    pub(crate) fn record_batch(&self, size: usize, wait_us: u64, reason: CloseReason) {
        self.batch_size.observe(size as u64);
        self.batch_wait_us.observe(wait_us);
        self.batch_close[reason as usize].inc();
    }

    /// Records one completed request.
    ///
    /// Requests with `cycles == 0` ran on an engine lane with no
    /// hardware model attached (see [`crate::ExecBackend`]); they count
    /// toward wall-clock throughput but not toward `hw_completed`, which
    /// [`ServeStats::record_request_hw`] counts.
    pub(crate) fn record_done(&self, worker: usize, latency_us: u64, cycles: u64, energy_pj: f64) {
        self.completed.inc();
        self.latency_us.observe(latency_us);
        self.energy_pj.add(energy_pj.round() as u64);
        if let Some(c) = self.worker_busy_cycles.get(worker) {
            c.add(cycles);
        }
    }

    /// Records the simulated-hardware breakdown of one
    /// hardware-modelled request: how the accelerator's cycles split
    /// into compute vs DRAM stall, and the peak NBin occupancy it
    /// reached.
    pub(crate) fn record_request_hw(&self, sim: &SimStats) {
        self.compute_cycles.observe(sim.compute_busy_cycles);
        self.dram_stall_cycles.observe(sim.dram_stall_cycles);
        // Gauge high-water mark tracks the peak across requests.
        self.nbin_peak_bytes
            .set(sim.nbin_peak_bytes.min(i64::MAX as u64) as i64);
    }

    /// Records one worker-lane accounting sample: `idle_us` waiting for
    /// a batch, then `busy_us` executing it.
    pub(crate) fn record_worker_lane(&self, worker: usize, idle_us: u64, busy_us: u64) {
        if let Some(c) = self.worker_idle_us.get(worker) {
            c.add(idle_us);
        }
        if let Some(c) = self.worker_busy_us.get(worker) {
            c.add(busy_us);
        }
    }

    /// Records one failed request (the worker returned an error).
    pub(crate) fn record_failure(&self) {
        self.failed.inc();
    }

    /// Records a model version becoming resident (`bytes` compact
    /// weight bytes).
    pub(crate) fn record_load(&self, bytes: u64) {
        self.loaded_models.add(1);
        self.resident_bytes.add(bytes.min(i64::MAX as u64) as i64);
    }

    /// Records an explicit unload of a resident version.
    pub(crate) fn record_unload(&self, bytes: u64) {
        self.loaded_models.sub(1);
        self.resident_bytes.sub(bytes.min(i64::MAX as u64) as i64);
    }

    /// Records a version evicted (and drained) by the memory budget.
    pub(crate) fn record_eviction(&self, bytes: u64) {
        self.evictions.inc();
        self.record_unload(bytes);
    }

    /// The divergence counter a canary of `model` scores into, one
    /// series per model name.
    pub(crate) fn canary_divergences(&self, model: &str) -> Counter {
        let mut counters = self
            .canary_divergences
            .lock()
            .unwrap_or_else(|p| p.into_inner());
        counters
            .entry(model.to_string())
            .or_insert_with(|| {
                self.recorder.counter(
                    "serve_canary_divergences_total",
                    "Canary outputs that diverged from the primary, by model",
                    label("model", model),
                )
            })
            .clone()
    }

    /// Records a canary crossing its divergence threshold and being
    /// demoted.
    pub(crate) fn record_canary_demotion(&self) {
        self.canary_demotions.inc();
    }

    /// Folds the handles into a snapshot at the current clock reading.
    /// `tenants` is left empty: the admission queue holds those.
    pub(crate) fn snapshot(&self) -> ServeSnapshot {
        let elapsed_us = self.clock.now_us().saturating_sub(self.start_us);
        let latency = self.latency_us.snapshot();
        let quantile = |q| latency.as_ref().map_or(0, |h| h.quantile(q));
        let batches = self.batch_size.snapshot();
        let completed = self.completed.get();
        let hw_completed = self.compute_cycles.count();
        let per_hw_req = |total: u64| {
            if hw_completed == 0 {
                0.0
            } else {
                total as f64 / hw_completed as f64
            }
        };
        let worker_busy_cycles: Vec<u64> =
            self.worker_busy_cycles.iter().map(Counter::get).collect();
        let total_cycles = worker_busy_cycles.iter().sum();
        let level = |g: &Gauge| u64::try_from(g.get()).unwrap_or(0);
        let canary_divergences = self
            .canary_divergences
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .map(Counter::get)
            .sum();
        ServeSnapshot {
            elapsed_us,
            submitted: self.submitted.get(),
            rejected: self.rejected.get(),
            completed,
            hw_completed,
            failed: self.failed.get(),
            queue_depth: usize::try_from(self.queue_depth.get()).unwrap_or(0),
            max_queue_depth: usize::try_from(self.queue_depth.max()).unwrap_or(0),
            p50_us: quantile(0.50),
            p95_us: quantile(0.95),
            p99_us: quantile(0.99),
            mean_latency_us: latency.as_ref().map_or(0.0, HistogramSnapshot::mean),
            throughput_rps: if elapsed_us == 0 {
                0.0
            } else {
                completed as f64 * 1e6 / elapsed_us as f64
            },
            batch_hist: batches.as_ref().map_or_else(Vec::new, |h| {
                // Exact buckets: bound `i` is batch size `i + 1`.
                h.bounds
                    .iter()
                    .zip(&h.counts)
                    .filter(|(_, n)| **n > 0)
                    .map(|(size, n)| (*size as usize, *n))
                    .collect()
            }),
            mean_batch: batches.as_ref().map_or(0.0, HistogramSnapshot::mean),
            total_cycles,
            cycles_per_req: per_hw_req(total_cycles),
            energy_pj_per_req: per_hw_req(self.energy_pj.get()),
            worker_busy_cycles,
            loaded_models: level(&self.loaded_models),
            resident_bytes: level(&self.resident_bytes),
            evictions: self.evictions.get(),
            canary_divergences,
            canary_demotions: self.canary_demotions.get(),
            tenants: Vec::new(),
        }
    }
}

/// Immutable summary of a server's activity.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSnapshot {
    /// Microseconds since the server started.
    pub elapsed_us: u64,
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests rejected with `Overloaded`.
    pub rejected: u64,
    /// Requests answered successfully.
    pub completed: u64,
    /// Completed requests that ran a hardware model (the count of
    /// `serve_request_compute_cycles`). Engine-lane requests complete
    /// with zero cycles and are excluded from the per-request hardware
    /// figures below.
    pub hw_completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Requests currently queued (admitted, not yet batched).
    pub queue_depth: usize,
    /// High-water mark of the queue depth.
    pub max_queue_depth: usize,
    /// Median end-to-end latency (µs), read as the upper bound of its
    /// `duration_us` histogram bucket (1-2-5 per decade).
    pub p50_us: u64,
    /// 95th-percentile latency (µs), bucket bound as for `p50_us`.
    pub p95_us: u64,
    /// 99th-percentile latency (µs), bucket bound as for `p50_us`.
    pub p99_us: u64,
    /// Mean latency (µs), exact.
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
    /// zero-cycle engine-lane completions excluded): the whole-pJ
    /// `serve_energy_pj_total` counter over `hw_completed`.
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
    /// `(tenant, submitted, rejected)` triples in tenant order, one per
    /// tenant admission has seen.
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
    use crate::admission::{AdmissionQueue, AdmitError};
    use crate::clock::ManualClock;
    use cs_telemetry::{NoopRecorder, Registry};

    /// Stats for `workers` workers on a fresh registry and a frozen
    /// clock.
    fn on_registry(workers: usize) -> (ServeStats, Arc<Registry>, Arc<ManualClock>) {
        let registry = Arc::new(Registry::new());
        let clock = Arc::new(ManualClock::new(0));
        let stats = ServeStats::new(clock.clone(), workers, registry.clone(), 8);
        (stats, registry, clock)
    }

    /// What a worker records for one completed request: the hardware
    /// breakdown when the lane models hardware (`cycles > 0`), then the
    /// completion.
    fn done(stats: &ServeStats, worker: usize, latency_us: u64, cycles: u64, energy_pj: f64) {
        if cycles > 0 {
            stats.record_request_hw(&SimStats {
                cycles,
                compute_busy_cycles: cycles,
                ..SimStats::default()
            });
        }
        stats.record_done(worker, latency_us, cycles, energy_pj);
    }

    #[test]
    fn percentiles_are_deterministic_under_a_manual_clock() {
        let (stats, _, clock) = on_registry(2);
        for latency in [100u64, 200, 300, 400, 500, 600, 700, 800, 900, 1000] {
            stats.record_submit();
            stats.record_dequeue(0);
            done(&stats, 0, latency, 50, 10.0);
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

        // Off a bucket bound the percentile reads the bucket's upper
        // bound (1-2-5 per decade), while the mean stays exact.
        let (stats, _, _) = on_registry(1);
        for latency in [100u64, 340, 900] {
            done(&stats, 0, latency, 50, 10.0);
        }
        let snap = stats.snapshot();
        assert_eq!(snap.p50_us, 500);
        assert_eq!(snap.p99_us, 1000);
        assert_eq!(snap.mean_latency_us, 1340.0 / 3.0);
    }

    #[test]
    fn queue_depth_tracks_submit_and_dequeue() {
        let (stats, _, _) = on_registry(1);
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
        let (stats, _, _) = on_registry(1);
        stats.record_batch(1, 0, CloseReason::Deadline);
        stats.record_batch(4, 10, CloseReason::Size);
        stats.record_batch(4, 20, CloseReason::Size);
        stats.record_batch(8, 0, CloseReason::Size);
        let snap = stats.snapshot();
        assert_eq!(snap.batch_hist, vec![(1, 1), (4, 2), (8, 1)]);
        assert!((snap.mean_batch - 17.0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn hw_rps_uses_the_busiest_worker() {
        let (stats, _, _) = on_registry(2);
        done(&stats, 0, 10, 1_000, 0.0);
        done(&stats, 1, 10, 3_000, 0.0);
        let snap = stats.snapshot();
        assert_eq!(snap.makespan_cycles(), 3_000);
        // 2 requests / (3000 cycles / 1 GHz) = 2 / 3 µs.
        let rps = snap.hw_rps(1.0);
        assert!((rps - 2.0 / 3e-6).abs() / rps < 1e-9);
    }

    #[test]
    fn zero_cycle_engine_completions_stay_out_of_hw_accounting() {
        // Regression: engine-lane requests (ExecBackend::Sparse)
        // complete with cycles == 0. They used to be counted in the
        // cycles_per_req / hw_rps denominators, diluting the hardware
        // throughput figures whenever engine and simulator traffic
        // mixed.
        let (stats, _, clock) = on_registry(1);
        done(&stats, 0, 10, 2_000, 100.0); // simulator-backed
        done(&stats, 0, 10, 4_000, 200.0); // simulator-backed
        done(&stats, 0, 10, 0, 0.0); // engine lane, no hw model
        done(&stats, 0, 10, 0, 0.0); // engine lane, no hw model
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
        let (stats, _, _) = on_registry(1);
        done(&stats, 0, 10, 0, 0.0);
        done(&stats, 0, 10, 0, 0.0);
        let snap = stats.snapshot();
        assert_eq!(snap.completed, 2);
        assert_eq!(snap.hw_completed, 0);
        assert_eq!(snap.cycles_per_req, 0.0);
        assert_eq!(snap.hw_rps(1.0), 0.0);
    }

    #[test]
    fn empty_snapshot_is_all_zeros() {
        let (stats, _, _) = on_registry(1);
        let snap = stats.snapshot();
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.throughput_rps, 0.0);
        assert_eq!(snap.mean_batch, 0.0);
        assert_eq!(snap.hw_rps(1.0), 0.0);
        assert!(snap.render().contains("requests"));

        // Under the no-op recorder nothing is kept, so the counts read
        // zero however much was recorded.
        let clock = Arc::new(ManualClock::new(0));
        let quiet = ServeStats::new(clock.clone(), 1, Arc::new(NoopRecorder), 8);
        quiet.record_submit();
        done(&quiet, 0, 10, 1_000, 5.0);
        clock.advance(10);
        let snap = quiet.snapshot();
        assert_eq!((snap.submitted, snap.completed, snap.p50_us), (0, 0, 0));
        assert_eq!((snap.elapsed_us, snap.worker_busy_cycles), (10, vec![0]));
    }

    #[test]
    fn recorder_sees_every_event_the_snapshot_sees() {
        let (stats, registry, _) = on_registry(2);
        stats.record_submit();
        stats.record_submit();
        stats.record_reject();
        stats.record_dequeue(40);
        stats.record_dequeue(60);
        stats.record_batch(2, 60, CloseReason::Size);
        done(&stats, 0, 500, 1_000, 12.6);
        done(&stats, 1, 700, 3_000, 7.4);
        stats.record_failure();
        let snap = stats.snapshot();

        let counter = |name| registry.find_counter(name, &[]).unwrap().get();
        assert_eq!(counter("serve_requests_submitted_total"), snap.submitted);
        assert_eq!(counter("serve_requests_rejected_total"), snap.rejected);
        assert_eq!(counter("serve_requests_completed_total"), snap.completed);
        assert_eq!(counter("serve_requests_failed_total"), snap.failed);
        assert_eq!((snap.submitted, snap.rejected), (2, 1));
        assert_eq!((snap.completed, snap.failed), (2, 1));
        // Whole picojoules per request: 13 + 7 over two requests.
        assert_eq!(counter("serve_energy_pj_total"), 13 + 7);
        assert_eq!(snap.energy_pj_per_req, 10.0);

        let depth = registry.find_gauge("serve_queue_depth", &[]).unwrap();
        assert_eq!(depth.get() as usize, snap.queue_depth);
        assert_eq!(depth.max() as usize, snap.max_queue_depth);

        let wait = registry.find_histogram("serve_queue_wait_us", &[]).unwrap();
        assert_eq!(wait.count(), 2);
        assert_eq!(wait.sum(), 100);

        let size = registry.find_histogram("serve_batch_size", &[]).unwrap();
        assert_eq!(size.count(), 1);
        assert_eq!(size.sum(), 2);
        assert_eq!(snap.batch_hist, vec![(2, 1)]);
        let by_size = registry
            .find_counter("serve_batch_close_total", &[("reason", "size")])
            .unwrap();
        assert_eq!(by_size.get(), 1);

        let latency = registry
            .find_histogram("serve_request_latency_us", &[])
            .unwrap();
        assert_eq!(latency.quantile(0.50), snap.p50_us);
        assert_eq!(latency.quantile(0.99), snap.p99_us);
        assert_eq!((snap.p50_us, snap.p99_us), (500, 1_000));

        let busy0 = registry
            .find_counter("serve_worker_busy_cycles", &[("worker", "0")])
            .unwrap();
        let busy1 = registry
            .find_counter("serve_worker_busy_cycles", &[("worker", "1")])
            .unwrap();
        assert_eq!(busy0.get(), snap.worker_busy_cycles[0]);
        assert_eq!(busy1.get(), snap.worker_busy_cycles[1]);
        assert_eq!(snap.total_cycles, 4_000);
    }

    #[test]
    fn tenant_and_lifecycle_events_reach_snapshot_and_recorder() {
        let (stats, registry, _) = on_registry(1);
        // Tenants are counted by their admission lane: three slots,
        // the fourth push is rejected for the global capacity.
        let queue = AdmissionQueue::new(3, 0, &[]).with_recorder(registry.clone());
        for tenant in ["acme", "acme", "beta"] {
            assert_eq!(queue.try_push(tenant, ()), Ok(()));
        }
        assert_eq!(
            queue.try_push("beta", ()),
            Err(AdmitError::Full {
                tenant_quota: false
            })
        );
        stats.record_load(1_000);
        stats.record_load(500);
        stats.record_eviction(500);
        stats.record_unload(250);
        let mlp = stats.canary_divergences("mlp");
        mlp.inc();
        stats.canary_divergences("mlp").inc();
        stats.record_canary_demotion();
        let snap = stats.snapshot();
        assert_eq!(
            queue.tenants(),
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
        let (stats, registry, _) = on_registry(1);
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
        assert_eq!(stats.snapshot().hw_completed, 1);
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
