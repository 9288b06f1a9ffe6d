//! Closed-loop load generator and saturation sweep.
//!
//! [`run_sweep`] drives a fresh server per operating point across the
//! cross product of worker count × batch size × client count, with
//! every client submitting back-to-back (closed loop) — enough clients
//! saturate the pipeline. The sweep reports wall-clock throughput and,
//! more importantly here, the **simulated hardware throughput**: the
//! host running this simulator may have a single core, but each worker
//! models one accelerator, so requests/sec of the modeled deployment is
//! completed requests over the busiest accelerator's simulated busy
//! time. That is the figure that scales with the worker count.
//!
//! Every point's server keeps its own [`Registry`] (its snapshot is
//! built from it), which is merged into the caller's registry when the
//! point ends, so that one covers the whole sweep.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cs_nn::spec::Scale;
use cs_telemetry::Registry;

use crate::clock::MonotonicClock;
use crate::error::ServeError;
use crate::model::{ModelRegistry, ServableModel};
use crate::server::{InferRequest, ServeConfig, Server};

/// Deterministic input generator (SplitMix64 over the request id), so a
/// sweep is reproducible without an external RNG dependency. Public so
/// other load drivers (e.g. `cs-net`'s `cs-netload`) offer exactly the
/// same request shapes as the in-process sweep.
pub fn request_input(n_in: usize, request_id: u64, seed: u64) -> Vec<f32> {
    let mut state = seed ^ request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n_in)
        .map(|_| {
            let r = next();
            // ~1/3 zeros (dynamic sparsity), rest uniform in [-0.5, 0.5).
            if r % 3 == 0 {
                0.0
            } else {
                (r >> 11) as f32 / (1u64 << 53) as f32 - 0.5
            }
        })
        .collect()
}

/// Sweep configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Scale the MLP workload is built at.
    pub scale: Scale,
    /// Seed for model materialization and request inputs.
    pub seed: u64,
    /// Requests per operating point.
    pub requests: usize,
    /// Closed-loop client thread counts to sweep.
    pub clients: Vec<usize>,
    /// Worker counts to sweep.
    pub workers: Vec<usize>,
    /// Batch-size limits to sweep.
    pub max_batches: Vec<usize>,
    /// Admission queue depth for every point.
    pub queue_depth: usize,
    /// Emulate simulated service time on the wall clock (see
    /// [`ServeConfig::emulate_hw_time`]).
    pub emulate_hw_time: bool,
    /// Accelerator clock (GHz).
    pub freq_ghz: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            scale: Scale::Reduced(4),
            seed: 7,
            requests: 256,
            clients: vec![8],
            workers: vec![1, 2, 4],
            max_batches: vec![1, 8],
            queue_depth: 64,
            emulate_hw_time: true,
            freq_ghz: 1.0,
        }
    }
}

/// One operating point of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadPoint {
    /// Worker (accelerator) count.
    pub workers: usize,
    /// Batch-size limit.
    pub max_batch: usize,
    /// Closed-loop clients offering load.
    pub clients: usize,
    /// Requests completed.
    pub completed: u64,
    /// Admission rejections observed (clients retry, so every request
    /// eventually completes; this counts backpressure events).
    pub rejected: u64,
    /// Wall-clock requests/sec on the host.
    pub wall_rps: f64,
    /// Simulated-hardware requests/sec (completed over the busiest
    /// accelerator's busy time).
    pub hw_rps: f64,
    /// Median latency (µs).
    pub p50_us: u64,
    /// 95th-percentile latency (µs).
    pub p95_us: u64,
    /// 99th-percentile latency (µs).
    pub p99_us: u64,
    /// Mean requests per closed batch.
    pub mean_batch: f64,
    /// Mean simulated cycles per request.
    pub cycles_per_req: f64,
    /// Mean simulated energy per request (picojoules).
    pub energy_pj_per_req: f64,
}

/// Result of a sweep: every operating point in sweep order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Operating points in `(clients, workers, max_batch)` sweep order.
    pub points: Vec<LoadPoint>,
}

impl SweepReport {
    /// Best simulated-hardware throughput over all points with the
    /// given worker count.
    pub fn best_hw_rps(&self, workers: usize) -> Option<f64> {
        self.points
            .iter()
            .filter(|p| p.workers == workers)
            .map(|p| p.hw_rps)
            .fold(None, |best, rps| {
                Some(best.map_or(rps, |b: f64| b.max(rps)))
            })
    }

    /// Throughput scaling factor between two worker counts (best point
    /// each), e.g. `scaling(1, 4)` for the 1 → 4 speedup.
    pub fn scaling(&self, from_workers: usize, to_workers: usize) -> Option<f64> {
        let from = self.best_hw_rps(from_workers)?;
        let to = self.best_hw_rps(to_workers)?;
        if from <= 0.0 {
            None
        } else {
            Some(to / from)
        }
    }

    /// Renders the saturation table.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:>7} {:>7} {:>7} {:>9} {:>11} {:>11} {:>8} {:>8} {:>8} {:>7} {:>10}\n",
            "clients",
            "workers",
            "batch",
            "done",
            "wall req/s",
            "hw req/s",
            "p50 us",
            "p95 us",
            "p99 us",
            "avg B",
            "kcyc/req"
        ));
        for p in &self.points {
            s.push_str(&format!(
                "{:>7} {:>7} {:>7} {:>9} {:>11.1} {:>11.1} {:>8} {:>8} {:>8} {:>7.2} {:>10.1}\n",
                p.clients,
                p.workers,
                p.max_batch,
                p.completed,
                p.wall_rps,
                p.hw_rps,
                p.p50_us,
                p.p95_us,
                p.p99_us,
                p.mean_batch,
                p.cycles_per_req / 1e3
            ));
        }
        s
    }
}

/// Runs one operating point against a freshly started server on a
/// registry of its own, merged into `metrics` once the server stops.
///
/// # Errors
///
/// Propagates model-compilation and server-start failures. Per-request
/// worker errors (none occur for a validated registry) fail the point.
pub fn run_point(
    model: &ServableModel,
    cfg: &ServeConfig,
    clients: usize,
    requests: usize,
    seed: u64,
    metrics: &Registry,
) -> Result<LoadPoint, ServeError> {
    let mut models = ModelRegistry::new();
    models.register(model.clone())?;
    let own = Arc::new(Registry::new());
    let server = Server::start_with_recorder(
        models,
        cfg.clone(),
        Arc::new(MonotonicClock::new()),
        own.clone(),
    )?;
    let name = model.name.clone();
    let n_in = model.n_in;
    let retries = AtomicU64::new(0);
    let clients = clients.max(1);
    let mut failure: Option<ServeError> = None;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(clients);
        for client in 0..clients {
            let server = &server;
            let name = &name;
            let retries = &retries;
            // Split the request ids across clients.
            let lo = requests * client / clients;
            let hi = requests * (client + 1) / clients;
            handles.push(scope.spawn(move || -> Result<(), ServeError> {
                for rid in lo..hi {
                    let input = request_input(n_in, rid as u64, seed);
                    loop {
                        match server.infer(InferRequest::new(name.clone(), input.clone())) {
                            Ok(_) => break,
                            Err(ServeError::Overloaded { .. }) => {
                                // Closed-loop backoff: the queue is the
                                // backpressure signal, retry shortly.
                                retries.fetch_add(1, Ordering::Relaxed);
                                std::thread::sleep(std::time::Duration::from_micros(200));
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                Ok(())
            }));
        }
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => failure = Some(e),
                Err(_) => failure = Some(ServeError::WorkerLost),
            }
        }
    });
    let snap = server.shutdown();
    metrics.merge(&own);
    if let Some(e) = failure {
        return Err(e);
    }
    Ok(LoadPoint {
        workers: cfg.workers,
        max_batch: cfg.max_batch,
        clients,
        completed: snap.completed,
        rejected: snap.rejected,
        wall_rps: snap.throughput_rps,
        hw_rps: snap.hw_rps(cfg.freq_ghz),
        p50_us: snap.p50_us,
        p95_us: snap.p95_us,
        p99_us: snap.p99_us,
        mean_batch: snap.mean_batch,
        cycles_per_req: snap.cycles_per_req,
        energy_pj_per_req: snap.energy_pj_per_req,
    })
}

/// Runs the full sweep: one point per `(clients, workers, max_batch)`
/// combination, all against the same compiled MLP.
///
/// # Errors
///
/// Propagates model-compilation and per-point failures.
pub fn run_sweep(cfg: &SweepConfig) -> Result<SweepReport, ServeError> {
    run_sweep_into(cfg, &Registry::new())
}

/// [`run_sweep`] with every point's telemetry merged into `metrics`,
/// so it covers the whole sweep.
///
/// # Errors
///
/// Propagates model-compilation and per-point failures.
pub fn run_sweep_into(cfg: &SweepConfig, metrics: &Registry) -> Result<SweepReport, ServeError> {
    let model = ServableModel::mlp(cfg.scale, cfg.seed)?;
    let mut points = Vec::new();
    for &clients in &cfg.clients {
        for &workers in &cfg.workers {
            for &max_batch in &cfg.max_batches {
                let serve_cfg = ServeConfig {
                    workers,
                    queue_depth: cfg.queue_depth,
                    max_batch,
                    emulate_hw_time: cfg.emulate_hw_time,
                    freq_ghz: cfg.freq_ghz,
                    backend: crate::server::ExecBackend::Simulator,
                    node: "local".to_string(),
                    ..ServeConfig::default()
                };
                points.push(run_point(
                    &model,
                    &serve_cfg,
                    clients,
                    cfg.requests,
                    cfg.seed,
                    metrics,
                )?);
            }
        }
    }
    Ok(SweepReport { points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_deterministic_and_sparse() {
        let a = request_input(256, 42, 7);
        let b = request_input(256, 42, 7);
        assert_eq!(a, b);
        let c = request_input(256, 43, 7);
        assert_ne!(a, c);
        let zeros = a.iter().filter(|v| **v == 0.0).count();
        assert!(zeros > 40 && zeros < 160, "zeros {zeros}");
        assert!(a.iter().all(|v| (-0.5..0.5).contains(v)));
    }

    #[test]
    fn tiny_sweep_completes_every_request() {
        let cfg = SweepConfig {
            scale: Scale::Reduced(16),
            requests: 12,
            clients: vec![3],
            workers: vec![1, 2],
            max_batches: vec![4],
            emulate_hw_time: false,
            ..SweepConfig::default()
        };
        let metrics = Registry::new();
        let report = run_sweep_into(&cfg, &metrics).expect("sweep");
        assert_eq!(report.points.len(), 2);
        // Each point reads its own server; the merged registry, all.
        for p in &report.points {
            assert_eq!(p.completed, 12);
            assert!(p.cycles_per_req > 0.0);
            assert!(p.energy_pj_per_req > 0.0);
        }
        let merged = metrics
            .find_counter("serve_requests_completed_total", &[])
            .expect("merged");
        assert_eq!(merged.get(), 2 * 12);
        assert!(report.render().contains("hw req/s"));
        assert!(report.best_hw_rps(1).is_some());
        assert!(report.best_hw_rps(7).is_none());
    }

    #[test]
    fn multi_worker_hw_throughput_scales() {
        // Saturating load, no wall-clock emulation needed: the hardware
        // figure comes from simulated busy cycles, which spread across
        // accelerators as soon as batches interleave.
        let cfg = SweepConfig {
            scale: Scale::Reduced(16),
            requests: 64,
            clients: vec![8],
            workers: vec![1, 4],
            max_batches: vec![4],
            emulate_hw_time: false,
            ..SweepConfig::default()
        };
        let report = run_sweep(&cfg).expect("sweep");
        let scaling = report.scaling(1, 4).expect("both worker counts present");
        assert!(
            scaling >= 1.5,
            "1→4 worker hw throughput scaling {scaling:.2}× below 1.5×"
        );
    }
}
