//! The batched multi-worker inference server.
//!
//! Request flow:
//!
//! ```text
//! clients ──try_push──▶ tenant-fair queue ──pop_batch──▶ worker pool
//!    ▲                    (admission)                 (one Accelerator
//!    │                                                     each)
//!    └────────── per-request response channel ◀─────────────┘
//! ```
//!
//! Admission is a `try_push` on the bounded [`crate::admission`] queue:
//! a full queue (global depth or the tenant's quota) rejects with
//! [`ServeError::Overloaded`] instead of blocking the client, which is
//! the backpressure contract. No thread sits between the queue and the
//! workers: a free worker pulls its next batch straight from the queue,
//! which drains tenants weighted-fair and groups requests by the
//! resolved model *load* (two loads of one name never share a batch)
//! up to `max_batch`: a batch is whatever is queued for one load when
//! a worker takes it. Each load is compiled once into the
//! executor its requests run on: an engine lane's kernels, or for the
//! simulator a network validated and compiled by
//! [`Accelerator::compile_network`] for the same accelerator
//! configuration the workers run. Workers execute whole batches through
//! that executor on their own [`Accelerator`], with one arena of reused
//! buffers each, and answer each request on its private channel.
//!
//! Models are live: the server may start empty and be populated through
//! [`Server::load_servable`] / [`Server::load_artifact`], with versions
//! promoted, canaried, unloaded and evicted at runtime (see
//! [`crate::lifecycle`]). A request always completes on the version it
//! was admitted against — eviction drains per-version in-flight latches
//! outside the registry lock.
//!
//! Shutdown is graceful: [`Server::shutdown`] stops admitting, lets the
//! workers drain the queue and finish their in-flight batches, and
//! joins every thread before returning the final stats snapshot.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

use cs_accel::exec::Accelerator;
use cs_accel::AccelConfig;
use cs_energy::energy::energy_cambricon_s;
use cs_energy::EnergyModel;
use cs_registry::ModelArtifact;
use cs_telemetry::{Recorder, Registry};

use crate::admission::{AdmissionQueue, AdmitError};
use crate::clock::{Clock, MonotonicClock};
use crate::error::ServeError;
use crate::lifecycle::{
    outputs_equivalent, CanaryReport, CanaryState, InflightGuard, LiveRegistry, LoadContext,
    LoadedModel, ModelStatus,
};
use crate::model::{LaneArena, ModelRegistry, ServableModel};
use crate::stats::{ServeSnapshot, ServeStats};

/// Which execution engine worker lanes run.
///
/// The simulator is the default and preserves the original contract:
/// cycle-accurate hardware modeling with per-request cycle and energy
/// figures. The engine backends trade the hardware model for real
/// host-native kernels from [`cs_compress::engine`]; they report
/// `cycles = 0` / `energy_pj = 0.0`, execute a closed batch as one walk
/// over the layers, and time every layer into the
/// `serve_layer_kernel_us{model, layer, kernel}` histograms — one
/// sample per (batch, layer), the wall time of the batched kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// Cycle-accurate accelerator simulator (cycles + energy modeled).
    #[default]
    Simulator,
    /// Compiled sparse engine (host-native kernels) behind the
    /// activation gate: each layer counts its bit-exact `+0.0` inputs,
    /// skips their weight rows when few enough inputs are active, and
    /// reports per-layer hit/skip input counts through the
    /// `serve_gate_blocks_total{model, layer, outcome}` counters.
    /// Bit-identical to the dense twin ([`ServableModel::dense_lane`],
    /// the off-server oracle) on finite inputs.
    Sparse,
    /// A synonym of [`ExecBackend::Sparse`], kept for the benchmark's
    /// system under test, which still names it: every engine lane
    /// gates.
    Gated,
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Worker threads, each owning one simulated accelerator.
    pub workers: usize,
    /// Admission queue capacity; a full queue rejects with
    /// [`ServeError::Overloaded`]. It bounds the queued jobs: a worker
    /// runs a batch the moment it takes it, so no request waits
    /// anywhere else.
    pub queue_depth: usize,
    /// Maximum requests per batch. A free worker runs whatever is
    /// queued for one model load, up to this many, at once; batches
    /// fill under load because requests queue up while workers are
    /// busy.
    pub max_batch: usize,
    /// When true, workers sleep out each batch's simulated service time
    /// (`cycles / freq`), so wall-clock latency and saturation behave
    /// like a real multi-accelerator deployment even on few host cores.
    pub emulate_hw_time: bool,
    /// Accelerator clock in GHz (service-time emulation and the
    /// hardware-side throughput figures).
    pub freq_ghz: f64,
    /// Execution engine worker lanes run (default: the simulator).
    pub backend: ExecBackend,
    /// Identity of this serving node, stamped on every response
    /// (`"local"` for a standalone server). Cluster workers set their
    /// registered worker name here so routed responses attribute to
    /// the replica that executed them.
    pub node: String,
    /// Resident-memory budget in compact weight bytes; loading past it
    /// evicts least-recently-used non-primary versions. `0` disables
    /// eviction (unlimited residency).
    pub memory_budget_bytes: u64,
    /// Maximum queued requests per tenant; a tenant at its quota is
    /// rejected with [`ServeError::Overloaded`] even while the global
    /// queue has room. `0` disables per-tenant quotas.
    pub tenant_quota: usize,
    /// Weighted-fair dequeue weights by tenant name; unlisted tenants
    /// (including the `"default"` tenant) weigh 1.
    pub tenant_weights: Vec<(String, u32)>,
    /// Shadow-comparison divergences at which a canary auto-demotes.
    pub canary_divergence_threshold: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_depth: 64,
            max_batch: 8,
            emulate_hw_time: false,
            freq_ghz: 1.0,
            backend: ExecBackend::Simulator,
            node: "local".to_string(),
            memory_budget_bytes: 0,
            tenant_quota: 0,
            tenant_weights: Vec::new(),
            canary_divergence_threshold: 1,
        }
    }
}

impl ServeConfig {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig(
                "workers must be at least 1".to_string(),
            ));
        }
        if self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig(
                "queue_depth must be at least 1".to_string(),
            ));
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig(
                "max_batch must be at least 1".to_string(),
            ));
        }
        if !self.freq_ghz.is_finite() || self.freq_ghz <= 0.0 {
            return Err(ServeError::InvalidConfig(format!(
                "freq_ghz must be finite and positive, got {}",
                self.freq_ghz
            )));
        }
        if let Some((tenant, _)) = self.tenant_weights.iter().find(|(_, w)| *w == 0) {
            return Err(ServeError::InvalidConfig(format!(
                "tenant weight for {tenant:?} must be at least 1"
            )));
        }
        if self.canary_divergence_threshold == 0 {
            return Err(ServeError::InvalidConfig(
                "canary_divergence_threshold must be at least 1".to_string(),
            ));
        }
        Ok(())
    }

    /// The accelerator every worker runs and every simulator load is
    /// compiled for.
    fn accelerator(&self) -> Accelerator {
        Accelerator::new(AccelConfig {
            freq_ghz: self.freq_ghz,
            ..AccelConfig::paper_default()
        })
    }
}

/// One inference request: a model name, its input vector, and the
/// tenant it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct InferRequest {
    /// Registry name of the model to run.
    pub model: String,
    /// Input activations (length must equal the model's input width).
    pub input: Vec<f32>,
    /// Tenant this request belongs to; empty means the `"default"`
    /// tenant. Admission quotas, fair dequeue and the per-tenant
    /// telemetry key on this.
    pub tenant: String,
}

impl InferRequest {
    /// Convenience constructor (default tenant).
    pub fn new(model: impl Into<String>, input: Vec<f32>) -> Self {
        InferRequest {
            model: model.into(),
            input,
            tenant: String::new(),
        }
    }

    /// Attributes the request to a tenant.
    #[must_use]
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = tenant.into();
        self
    }

    /// The tenant label admission accounts this request under
    /// (`"default"` when none was set).
    pub fn tenant_label(&self) -> &str {
        if self.tenant.is_empty() {
            "default"
        } else {
            &self.tenant
        }
    }
}

/// One completed inference with its simulated hardware cost.
#[derive(Debug, Clone, PartialEq)]
pub struct InferResponse {
    /// Model that produced the outputs.
    pub model: String,
    /// Output neuron values (post-activation) of the final layer.
    pub outputs: Vec<f32>,
    /// Simulated accelerator cycles this request consumed.
    pub cycles: u64,
    /// Simulated energy this request consumed (picojoules).
    pub energy_pj: f64,
    /// Size of the batch this request rode in.
    pub batch_size: usize,
    /// Worker (accelerator) that executed it.
    pub worker: usize,
    /// End-to-end latency on the server's clock (µs).
    pub latency_us: u64,
    /// Identity of the serving node that executed the request (from
    /// [`ServeConfig::node`]).
    pub node: String,
}

/// A queued request: the resolved model load (pinned by an in-flight
/// guard, so eviction waits for it), the optional canary shadow,
/// input, admission timestamp and the private response channel.
struct Job {
    loaded: Arc<LoadedModel>,
    /// When this request was routed to a canary: the primary to
    /// shadow-compare against and the shared canary state to score.
    shadow: Option<(Arc<LoadedModel>, Arc<CanaryState>)>,
    input: Vec<f32>,
    submit_us: u64,
    reply: SyncSender<Result<InferResponse, ServeError>>,
    /// In-flight registrations (target, plus the shadow primary when
    /// canaried); released when the job is dropped after its reply.
    _guards: Vec<InflightGuard>,
    /// Rings when the job drops. Last field, so it drops last: by then
    /// the reply is sent or its sender gone, and `try_wait` answers.
    _bell: Option<Doorbell>,
}

/// How a job submitted through [`Server::submit_rung`] says it is done:
/// dropping the job calls `bell(token)` — after its reply was sent, or
/// unanswered when the last worker departs (the ticket then reads
/// [`ServeError::WorkerLost`]). Either way [`Ticket::try_wait`] on that
/// job's ticket is already `Some` when the bell rings, and it rings
/// exactly once per admitted job.
///
/// A refused submission (`Overloaded`, `UnknownModel`, …) drops its
/// bell too, so it may ring although no ticket exists: a listener takes
/// a ring as "look again at this token", never as "a reply exists".
/// The bell runs on worker threads, so it must not block, and it must
/// not own the [`Server`]: queued jobs hold it, and a server kept alive
/// by its own queue could be dropped last on a worker thread that then
/// joins itself.
pub struct Doorbell {
    bell: Arc<dyn Fn(u64) + Send + Sync>,
    token: u64,
}

impl Doorbell {
    /// A doorbell that calls `bell(token)` once, when it is dropped.
    pub fn new(bell: Arc<dyn Fn(u64) + Send + Sync>, token: u64) -> Doorbell {
        Doorbell { bell, token }
    }
}

impl Drop for Doorbell {
    fn drop(&mut self) {
        (self.bell)(self.token);
    }
}

/// What executing one job produced: `(outputs, cycles, energy_pj)`.
type Outcome = Result<(Vec<f32>, u64, f64), ServeError>;

/// Handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    rx: Receiver<Result<InferResponse, ServeError>>,
}

impl Ticket {
    /// Blocks until the response arrives.
    ///
    /// # Errors
    ///
    /// Returns the worker-side error for this request, or
    /// [`ServeError::WorkerLost`] if the worker died before answering.
    pub fn wait(self) -> Result<InferResponse, ServeError> {
        match self.rx.recv() {
            Ok(result) => result,
            Err(_) => Err(ServeError::WorkerLost),
        }
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<InferResponse, ServeError>> {
        match self.rx.try_recv() {
            Ok(result) => Some(result),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }

    /// Blocks up to `timeout` for the response; `None` if it has not
    /// arrived yet. Unlike [`Ticket::wait`] the ticket stays usable.
    pub fn wait_deadline(
        &self,
        timeout: std::time::Duration,
    ) -> Option<Result<InferResponse, ServeError>> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => Some(result),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Err(ServeError::WorkerLost)),
        }
    }
}

/// A cloneable handle that can shut the server down from any thread.
///
/// [`Server::shutdown`] consumes the owning handle, which a component
/// embedding the server (e.g. a network frontend reacting to a control
/// frame on a connection thread) cannot do. A `DrainHandle` performs
/// the same graceful sequence — stop admitting, drain the queue, wait
/// for workers to answer every in-flight request — without ownership;
/// the final [`Server::shutdown`] (or drop) then merely joins the
/// already-exited threads.
#[derive(Clone)]
pub struct DrainHandle {
    shutting_down: Arc<AtomicBool>,
    queue: Arc<AdmissionQueue<Job>>,
}

impl std::fmt::Debug for DrainHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DrainHandle")
            .field("shutting_down", &self.is_shutting_down())
            .finish_non_exhaustive()
    }
}

impl DrainHandle {
    /// Stops admission, lets the workers drain what is queued, and
    /// blocks until every worker thread has answered its in-flight
    /// batches and exited. Idempotent: concurrent calls all return
    /// once the drain completes.
    pub fn shutdown_and_drain(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
        // Workers keep pulling from a closed queue until it is empty,
        // then leave.
        self.queue.close();
        self.queue.wait_departed();
    }

    /// Whether a shutdown (from any handle) has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }
}

/// The running server. Shareable across client threads by reference;
/// dropped or [`Server::shutdown`] joins all internal threads.
pub struct Server {
    live: Arc<LiveRegistry>,
    cfg: ServeConfig,
    stats: Arc<ServeStats>,
    recorder: Arc<dyn Recorder>,
    queue: Arc<AdmissionQueue<Job>>,
    shutting_down: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("models", &self.live.names())
            .field("cfg", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts the server on the wall clock, preloading every model of
    /// `registry` as version 1. The registry may be empty: models can
    /// be hot-loaded later through [`Server::load_servable`].
    ///
    /// # Errors
    ///
    /// Rejects invalid configs and models that fail validation.
    pub fn start(registry: ModelRegistry, cfg: ServeConfig) -> Result<Server, ServeError> {
        Server::start_with_clock(registry, cfg, Arc::new(MonotonicClock::new()))
    }

    /// Starts the server with an injected clock (tests use
    /// [`crate::clock::ManualClock`] to pin latency figures) and a
    /// fresh [`Registry`] of its own, which both [`Server::stats`] and
    /// [`Server::metrics_text`] read.
    ///
    /// # Errors
    ///
    /// Rejects invalid configs and models that fail validation.
    pub fn start_with_clock(
        registry: ModelRegistry,
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Server, ServeError> {
        Server::start_with_recorder(registry, cfg, clock, Arc::new(Registry::new()))
    }

    /// Starts the server with an injected clock and telemetry recorder.
    /// Every request-path event (admission, queue wait, batch close,
    /// worker busy/idle, per-request hardware breakdown, model
    /// lifecycle) registers and feeds metrics on `recorder`, and
    /// [`Server::stats`] is built from those same handles. Give each
    /// server a [`Registry`] of its own (series re-resolve by name, so
    /// two servers on one registry would read each other's counts).
    /// Under a [`cs_telemetry::NoopRecorder`] nothing is kept: the
    /// snapshot's counts read zero and there is no metrics dump.
    ///
    /// # Errors
    ///
    /// Rejects invalid configs and models that fail validation.
    pub fn start_with_recorder(
        registry: ModelRegistry,
        cfg: ServeConfig,
        clock: Arc<dyn Clock>,
        recorder: Arc<dyn Recorder>,
    ) -> Result<Server, ServeError> {
        cfg.validate()?;
        let stats = Arc::new(ServeStats::new(
            clock,
            cfg.workers,
            Arc::clone(&recorder),
            cfg.max_batch,
        ));
        let live = Arc::new(LiveRegistry::new(cfg.memory_budget_bytes));
        let shutting_down = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(
            AdmissionQueue::new(cfg.queue_depth, cfg.tenant_quota, &cfg.tenant_weights)
                .with_workers(cfg.workers)
                .with_recorder(Arc::clone(&recorder)),
        );
        // The workers are the only threads. Idle ones stand in a FIFO
        // line inside the queue, so assignment rotates over them
        // however the host schedules threads: the old worry that on a
        // single core a shared queue lets one hot worker starve the
        // rest is answered by the line, not by per-worker lanes.
        let threads = (0..cfg.workers)
            .map(|id| Server::spawn_worker(id, &queue, &cfg, &stats))
            .collect();

        let server = Server {
            live,
            cfg,
            stats,
            recorder,
            queue,
            shutting_down,
            threads,
        };
        for model in registry.models() {
            server.load_servable((**model).clone(), 1, 0)?;
        }
        // Start barrier: the first request finds every worker in line.
        server.queue.wait_lined_up();
        Ok(server)
    }

    fn spawn_worker(
        worker_id: usize,
        queue: &Arc<AdmissionQueue<Job>>,
        cfg: &ServeConfig,
        stats: &Arc<ServeStats>,
    ) -> JoinHandle<()> {
        let (queue, stats) = (Arc::clone(queue), Arc::clone(stats));
        // Each worker owns its accelerator; the executors themselves
        // ride in on every job (built once at load time, shared via
        // Arc), so the hot path never touches the registry lock.
        let accel = cfg.accelerator();
        let energy_model = EnergyModel::default_65nm();
        let emulate = cfg.emulate_hw_time;
        let freq_ghz = cfg.freq_ghz;
        let node = cfg.node.clone();
        let max_batch = cfg.max_batch;
        // Signs the worker off even if it unwinds: neither hand-offs
        // nor a drain wait on a dead thread, and when the last one goes
        // every outstanding ticket resolves to `WorkerLost`.
        struct Departure(Arc<AdmissionQueue<Job>>, usize);
        impl Drop for Departure {
            fn drop(&mut self) {
                self.0.depart(self.1);
            }
        }
        std::thread::Builder::new()
            .name(format!("cs-serve-worker-{worker_id}"))
            .spawn(move || {
                let _departure = Departure(Arc::clone(&queue), worker_id);
                let clock = stats.clock();
                // Lane accounting: time between batches is idle, time
                // spent executing one is busy; both accumulate into
                // the per-worker telemetry counters.
                let mut lane_mark = stats.now_us();
                // Reused across batches: the gathered inputs of a batch
                // and the buffers an engine lane walks it through.
                let mut staging: Vec<f32> = Vec::new();
                let mut arena = LaneArena::default();
                // Batches key on the load's slot, not the model name:
                // two loads of one name (a re-load, a canary vs its
                // primary) never share a batch — one batch, one executor.
                while let Some(batch) =
                    queue.pop_batch(worker_id, max_batch, clock.as_ref(), |job| job.loaded.slot)
                {
                    let busy_from = stats.now_us();
                    let batch_size = batch.items.len();
                    stats.record_batch(
                        batch_size,
                        busy_from.saturating_sub(batch.opened_us),
                        batch.reason,
                    );
                    for job in &batch.items {
                        stats.record_dequeue(busy_from.saturating_sub(job.submit_us));
                    }
                    let Some(loaded) = batch.items.first().map(|job| Arc::clone(&job.loaded))
                    else {
                        continue;
                    };
                    debug_assert!(batch.items.iter().all(|job| job.loaded.slot == batch.model));
                    let inputs: &[f32] = match batch.items.as_slice() {
                        [job] => &job.input,
                        jobs => {
                            staging.clear();
                            for job in jobs {
                                staging.extend_from_slice(&job.input);
                            }
                            &staging
                        }
                    };
                    let n_out = loaded.model.n_out;
                    let mut batch_cycles = 0u64;
                    // Engine lanes run real host kernels and report no
                    // simulated hardware cost: their columns have no
                    // counters, so they answer 0 cycles and 0 pJ.
                    let run = loaded
                        .exec
                        .forward_batch(inputs, &accel, &mut arena, Some(clock));
                    let outcomes: Vec<Outcome> = match run {
                        Ok(run) => (0..batch_size)
                            .map(|j| {
                                let outputs = run.outputs[j * n_out..(j + 1) * n_out].to_vec();
                                let Some(hw) = run.hw.get(j) else {
                                    return Ok((outputs, 0, 0.0));
                                };
                                batch_cycles += hw.cycles;
                                stats.record_request_hw(hw);
                                let energy_pj = energy_cambricon_s(hw, &energy_model).total_pj();
                                Ok((outputs, hw.cycles, energy_pj))
                            })
                            .collect(),
                        Err(e) => vec![Err(e); batch_size],
                    };
                    for (job, outcome) in batch.items.iter().zip(&outcomes) {
                        if let Ok((outputs, _, _)) = outcome {
                            shadow_compare(job, outputs, &accel, &stats, &mut arena);
                        }
                    }
                    let results = batch.items.into_iter().zip(outcomes);
                    if emulate && batch_cycles > 0 {
                        // One accelerator serves the whole batch
                        // serially: sleep out its simulated busy time so
                        // wall-clock behaviour matches the modeled
                        // hardware.
                        let ns = batch_cycles as f64 / freq_ghz;
                        std::thread::sleep(Duration::from_nanos(ns as u64));
                    }
                    let done_us = stats.now_us();
                    stats.record_worker_lane(
                        worker_id,
                        busy_from.saturating_sub(lane_mark),
                        done_us.saturating_sub(busy_from),
                    );
                    lane_mark = done_us;
                    for (job, result) in results {
                        match result {
                            Ok((outputs, cycles, energy_pj)) => {
                                let latency_us = done_us.saturating_sub(job.submit_us);
                                stats.record_done(worker_id, latency_us, cycles, energy_pj);
                                // The client may have dropped its ticket;
                                // that is its prerogative, not an error.
                                let _ = job.reply.send(Ok(InferResponse {
                                    model: job.loaded.model.name.clone(),
                                    outputs,
                                    cycles,
                                    energy_pj,
                                    batch_size,
                                    worker: worker_id,
                                    latency_us,
                                    node: node.clone(),
                                }));
                            }
                            Err(e) => {
                                stats.record_failure();
                                let _ = job.reply.send(Err(e));
                            }
                        }
                        // The job (and its in-flight guards) drops here,
                        // after the reply — eviction drains observe the
                        // response as already sent.
                    }
                }
            })
            .unwrap_or_else(|e| panic!("spawning worker thread failed: {e}"))
    }

    /// Submits a request without blocking on execution; the returned
    /// [`Ticket`] resolves to the response.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] / [`ServeError::ShapeMismatch`] for
    /// malformed requests, [`ServeError::Overloaded`] when the queue
    /// (or the tenant's quota) is full, [`ServeError::ShuttingDown`]
    /// after shutdown began.
    pub fn submit(&self, req: InferRequest) -> Result<Ticket, ServeError> {
        self.admit(req, None)
    }

    /// [`Server::submit`] for callers that multiplex many tickets on one
    /// thread: the job rings `bell` when it is done with (see
    /// [`Doorbell`]), so the caller polls [`Ticket::try_wait`] only when
    /// told to instead of parking a thread per ticket.
    ///
    /// # Errors
    ///
    /// As [`Server::submit`]; a refused submission may still ring.
    pub fn submit_rung(&self, req: InferRequest, bell: Doorbell) -> Result<Ticket, ServeError> {
        self.admit(req, Some(bell))
    }

    fn admit(&self, mut req: InferRequest, bell: Option<Doorbell>) -> Result<Ticket, ServeError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        let resolved = self
            .live
            .resolve(&req.model)
            .ok_or_else(|| ServeError::UnknownModel(req.model.clone()))?;
        if req.input.len() != resolved.target.model.n_in {
            return Err(ServeError::ShapeMismatch {
                model: req.model,
                expected: resolved.target.model.n_in,
                actual: req.input.len(),
            });
        }
        let now = self.stats.now_us();
        let target = Arc::clone(&resolved.target);
        target.last_used_us.store(now, Ordering::SeqCst);
        // In-flight guards pin the target (and, for canaried requests,
        // the shadow primary) against eviction until the reply is sent.
        let mut guards = vec![target.inflight.acquire()];
        if let Some((primary, _)) = &resolved.shadow {
            guards.push(primary.inflight.acquire());
        }
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let job = Job {
            loaded: resolved.target,
            shadow: resolved.shadow,
            input: std::mem::take(&mut req.input),
            submit_us: now,
            reply: reply_tx,
            _guards: guards,
            _bell: bell,
        };
        // Borrowed: only a refusal needs an owned copy of the label.
        let tenant = req.tenant_label();
        match self.queue.try_push(tenant, job) {
            Ok(()) => {
                self.stats.record_submit();
                target.requests.inc();
                Ok(Ticket { rx: reply_rx })
            }
            Err(AdmitError::Full { tenant_quota }) => {
                self.stats.record_reject();
                Err(ServeError::Overloaded {
                    capacity: if tenant_quota {
                        self.cfg.tenant_quota
                    } else {
                        self.cfg.queue_depth
                    },
                    tenant: tenant.to_string(),
                })
            }
            // Closed without a shutdown: the last worker died.
            Err(AdmitError::Closed) if !self.shutting_down.load(Ordering::SeqCst) => {
                Err(ServeError::WorkerLost)
            }
            Err(AdmitError::Closed) => Err(ServeError::ShuttingDown),
        }
    }

    /// Synchronous inference: submit and wait.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Server::submit`] plus worker-side errors.
    pub fn infer(&self, req: InferRequest) -> Result<InferResponse, ServeError> {
        self.submit(req)?.wait()
    }

    fn load_ctx(&self) -> LoadContext<'_> {
        LoadContext {
            backend: self.cfg.backend,
            accel: self.cfg.accelerator(),
            recorder: self.recorder.as_ref(),
            stats: &self.stats,
            canary_threshold: self.cfg.canary_divergence_threshold,
        }
    }

    /// Loads (or promotes) `model` as `version`.
    ///
    /// With `canary_pct == 0` the version becomes the primary its name
    /// serves. With `canary_pct` in `1..=100` the version becomes the
    /// name's canary: that percentage of traffic is routed to it, every
    /// routed request is shadow-compared against the primary, and
    /// crossing [`ServeConfig::canary_divergence_threshold`] divergences
    /// auto-demotes it. Re-loading an already-resident version only
    /// repoints routing. Loading past
    /// [`ServeConfig::memory_budget_bytes`] evicts least-recently-used
    /// non-primary versions, draining each victim's in-flight requests
    /// before its memory is considered reclaimed.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] for a bad percentage or a model
    /// failing validation, [`ServeError::VersionMismatch`] for shape
    /// or promotion inconsistencies, [`ServeError::RegistryFull`] when
    /// the budget cannot fit the load even after eviction.
    pub fn load_servable(
        &self,
        model: ServableModel,
        version: u32,
        canary_pct: u8,
    ) -> Result<(), ServeError> {
        if self.shutting_down.load(Ordering::SeqCst) {
            return Err(ServeError::ShuttingDown);
        }
        self.live.load(model, version, canary_pct, &self.load_ctx())
    }

    /// Loads a compressed model artifact from a `CSMR` registry
    /// container (see [`cs_registry`]) — the hot-load path a
    /// `LoadModel` control frame takes. Same semantics as
    /// [`Server::load_servable`], with the version taken from the
    /// artifact.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Server::load_servable`].
    pub fn load_artifact(
        &self,
        artifact: &ModelArtifact,
        canary_pct: u8,
    ) -> Result<(), ServeError> {
        let model = ServableModel::from_layers(artifact.name.clone(), artifact.layers.clone())?;
        self.load_servable(model, artifact.version, canary_pct)
    }

    /// Unloads one resident version after its in-flight requests drain.
    ///
    /// # Errors
    ///
    /// [`ServeError::ModelNotFound`] when the version is not resident;
    /// [`ServeError::VersionMismatch`] when it is the primary and other
    /// versions still depend on it.
    pub fn unload_model(&self, name: &str, version: u32) -> Result<(), ServeError> {
        self.live.unload(name, version, &self.stats)
    }

    /// Every resident `(model, version)` with its routing role, sorted
    /// by name then version.
    pub fn list_models(&self) -> Vec<ModelStatus> {
        self.live.list()
    }

    /// Canary progress for `name`, if an experiment exists (live or
    /// demoted).
    pub fn canary_report(&self, name: &str) -> Option<CanaryReport> {
        self.live.canary_report(name)
    }

    /// The primary version's model for `name` (shape probes, conformance
    /// references).
    pub fn lookup(&self, name: &str) -> Option<Arc<ServableModel>> {
        self.live.lookup(name)
    }

    /// Sorted resident model names.
    pub fn model_names(&self) -> Vec<String> {
        self.live.names()
    }

    /// Current statistics snapshot, built from the server's telemetry
    /// handles (all counts read zero when it was started on a
    /// [`cs_telemetry::NoopRecorder`]).
    pub fn stats(&self) -> ServeSnapshot {
        ServeSnapshot {
            tenants: self.queue.tenants(),
            ..self.stats.snapshot()
        }
    }

    /// Prometheus text-format dump of the server's telemetry — the
    /// `/metrics`-page equivalent. `None` when the server was started
    /// on a recorder that keeps nothing ([`cs_telemetry::NoopRecorder`]).
    pub fn metrics_text(&self) -> Option<String> {
        self.recorder.prometheus_text()
    }

    /// JSONL dump of the server's telemetry (one series per line).
    /// `None` when the server was started on a recorder that keeps
    /// nothing.
    pub fn metrics_jsonl(&self) -> Option<String> {
        self.recorder.jsonl()
    }

    /// The server's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// A cloneable handle that can gracefully shut this server down
    /// from any thread (see [`DrainHandle`]). The owning handle keeps
    /// working afterwards: [`Server::shutdown`] returns the final
    /// snapshot once the drain (wherever it was initiated) completes.
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            shutting_down: Arc::clone(&self.shutting_down),
            queue: Arc::clone(&self.queue),
        }
    }

    /// Stops admitting, drains in-flight work, joins all threads and
    /// returns the final snapshot.
    pub fn shutdown(mut self) -> ServeSnapshot {
        self.stop_and_join();
        self.stats()
    }

    fn stop_and_join(&mut self) {
        self.drain_handle().shutdown_and_drain();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Scores one canary-routed request: re-runs the input on the shadow
/// primary and compares outputs under the differential rule. A
/// divergence (or a primary-side failure) increments the canary's
/// counter; crossing the threshold demotes it exactly once.
fn shadow_compare(
    job: &Job,
    outputs: &[f32],
    accel: &Accelerator,
    stats: &ServeStats,
    arena: &mut LaneArena,
) {
    let Some((primary, state)) = &job.shadow else {
        return;
    };
    if state.demoted.load(Ordering::SeqCst) {
        return;
    }
    // A primary-side failure counts as a divergence. Unobserved: shadow
    // runs must not pollute the primary's kernel histograms.
    let diverged = primary
        .exec
        .forward_batch(&job.input, accel, arena, None)
        .map_or(true, |run| !outputs_equivalent(outputs, run.outputs));
    if diverged {
        let seen = state.divergences.fetch_add(1, Ordering::SeqCst) + 1;
        state.diverged.inc();
        if seen >= state.threshold && !state.demoted.swap(true, Ordering::SeqCst) {
            stats.record_canary_demotion();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::spin_until;
    use crate::model::ServableModel;
    use cs_nn::spec::Scale;

    fn mlp_registry() -> (ModelRegistry, ServableModel) {
        let model = ServableModel::mlp(Scale::Reduced(8), 7).expect("mlp compiles");
        let mut reg = ModelRegistry::new();
        reg.register(model.clone()).expect("register");
        (reg, model)
    }

    fn input_for(model: &ServableModel, salt: u32) -> Vec<f32> {
        (0..model.n_in)
            .map(|i| {
                let v = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
                if v.is_multiple_of(3) {
                    0.0
                } else {
                    (v % 17) as f32 * 0.07 - 0.5
                }
            })
            .collect()
    }

    #[test]
    fn serves_a_request_and_matches_direct_execution() {
        let (reg, model) = mlp_registry();
        let server = Server::start(reg, ServeConfig::default()).expect("start");
        let input = input_for(&model, 1);
        let resp = server
            .infer(InferRequest::new("mlp", input.clone()))
            .expect("infer");
        let accel = Accelerator::new(AccelConfig::paper_default());
        let direct = accel
            .run_network(&model.shared_layers(), &input)
            .expect("direct");
        assert_eq!(resp.outputs, direct.outputs);
        assert_eq!(resp.cycles, direct.stats.cycles);
        assert!(resp.energy_pj > 0.0);
        let snap = server.shutdown();
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.failed, 0);
    }

    #[test]
    fn one_simulator_worker_serves_two_widths_and_a_canary_through_one_arena() {
        let (reg, narrow) = mlp_registry();
        let mut reg = reg;
        let mut wide = ServableModel::mlp(Scale::Reduced(4), 9).expect("wide mlp");
        wide.name = "mlp-wide".to_string();
        reg.register(wide.clone()).expect("register");
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 8,
            ..ServeConfig::default()
        };
        assert_eq!(cfg.backend, ExecBackend::Simulator);
        let server = Server::start(reg, cfg).expect("start");
        // v2 is v1 again, canaried: every request routed to it is
        // shadow-compared against v1 through the same worker's arena.
        server.load_servable(narrow.clone(), 2, 50).expect("canary");
        let accel = Accelerator::new(AccelConfig::paper_default());
        let models = [&narrow, &wide];
        let direct: Vec<_> = models.iter().map(|m| m.shared_layers()).collect();
        // Runs of each model back to back, so batches of the two widths
        // (and canary and primary slots) alternate on the one worker.
        let mut tickets = Vec::new();
        for (run, len) in [3u32, 5, 1, 8, 2, 4].into_iter().enumerate() {
            let m = run % 2;
            for i in 0..len {
                let x = input_for(models[m], 100 * run as u32 + i);
                let req = InferRequest::new(models[m].name.as_str(), x.clone());
                tickets.push((m, x, server.submit(req).expect("submit")));
            }
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (m, x, ticket) in tickets {
            let resp = ticket.wait().expect("reply");
            let want = accel.run_network(&direct[m], &x).expect("direct");
            assert_eq!(bits(&resp.outputs), bits(&want.outputs), "{}", resp.model);
            assert_eq!(resp.cycles, want.stats.cycles, "{}", resp.model);
        }
        let canary = server.canary_report("mlp").expect("canary experiment");
        assert!(canary.routed > 0);
        assert_eq!(canary.divergences, 0);
        assert!(!canary.demoted);
        let snap = server.shutdown();
        assert_eq!(snap.failed, 0);
    }

    #[test]
    fn unknown_model_and_bad_shape_are_rejected_at_admission() {
        let (reg, model) = mlp_registry();
        let server = Server::start(reg, ServeConfig::default()).expect("start");
        assert!(matches!(
            server.submit(InferRequest::new("nope", vec![0.0; model.n_in])),
            Err(ServeError::UnknownModel(_))
        ));
        assert!(matches!(
            server.submit(InferRequest::new("mlp", vec![0.0; 3])),
            Err(ServeError::ShapeMismatch { expected, actual: 3, .. })
                if expected == model.n_in
        ));
        let snap = server.shutdown();
        assert_eq!(snap.submitted, 0);
    }

    #[test]
    fn batches_respect_max_batch_and_answer_every_ticket() {
        let (reg, model) = mlp_registry();
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 4,
            ..ServeConfig::default()
        };
        let server = Server::start(reg, cfg).expect("start");
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                server
                    .submit(InferRequest::new("mlp", input_for(&model, i)))
                    .expect("submit")
            })
            .collect();
        for t in tickets {
            let resp = t.wait().expect("response");
            assert!(resp.batch_size >= 1 && resp.batch_size <= 4);
            assert_eq!(resp.outputs.len(), model.n_out);
        }
        let snap = server.shutdown();
        assert_eq!(snap.completed, 8);
        assert!(snap.batch_hist.iter().all(|(size, _)| *size <= 4));
    }

    #[test]
    fn submit_after_shutdown_reports_shutting_down() {
        let (reg, model) = mlp_registry();
        let server = Server::start(reg, ServeConfig::default()).expect("start");
        let n_in = model.n_in;
        let snap = server.shutdown();
        assert_eq!(snap.completed, 0);
        // A fresh server is needed for further traffic; the old handle
        // is consumed. Start another to prove restartability.
        let (reg2, _) = mlp_registry();
        let server2 = Server::start(reg2, ServeConfig::default()).expect("restart");
        assert!(server2
            .infer(InferRequest::new("mlp", vec![0.1; n_in]))
            .is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (reg, _) = mlp_registry();
        for cfg in [
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                queue_depth: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_batch: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                freq_ghz: 0.0,
                ..ServeConfig::default()
            },
            ServeConfig {
                tenant_weights: vec![("acme".to_string(), 0)],
                ..ServeConfig::default()
            },
            ServeConfig {
                canary_divergence_threshold: 0,
                ..ServeConfig::default()
            },
        ] {
            let (reg_fresh, _) = mlp_registry();
            assert!(Server::start(reg_fresh, cfg).is_err());
        }
        assert!(Server::start(reg, ServeConfig::default()).is_ok());
    }

    #[test]
    fn recorder_metrics_reconcile_with_the_snapshot() {
        use crate::clock::ManualClock;
        use cs_telemetry::Registry;
        let (reg, model) = mlp_registry();
        let registry = Arc::new(Registry::new());
        let clock = Arc::new(ManualClock::new(0));
        let cfg = ServeConfig {
            workers: 2,
            max_batch: 4,
            ..ServeConfig::default()
        };
        let server = Server::start_with_recorder(reg, cfg, clock, registry.clone()).expect("start");
        let tickets: Vec<Ticket> = (0..6)
            .map(|i| {
                server
                    .submit(InferRequest::new("mlp", input_for(&model, i)))
                    .expect("submit")
            })
            .collect();
        for t in tickets {
            t.wait().expect("response");
        }
        let text = server.metrics_text().expect("registry retains state");
        let jsonl = server.metrics_jsonl().expect("registry retains state");
        let snap = server.shutdown();

        let counter = |name| registry.find_counter(name, &[]).unwrap().get();
        assert_eq!(counter("serve_requests_submitted_total"), snap.submitted);
        assert_eq!(counter("serve_requests_completed_total"), snap.completed);
        assert_eq!(counter("serve_requests_failed_total"), 0);

        // The per-request hardware breakdown reconciles exactly with
        // the snapshot's cycle total: compute + DRAM stall = cycles.
        let compute = registry
            .find_histogram("serve_request_compute_cycles", &[])
            .unwrap();
        let stall = registry
            .find_histogram("serve_request_dram_stall_cycles", &[])
            .unwrap();
        assert_eq!(compute.sum() + stall.sum(), snap.total_cycles);

        // Same rank rule on both sides: quantiles agree (all-zero
        // latencies under the frozen clock make them trivially exact,
        // and the count reconciliation is the strong check).
        let lat = registry
            .find_histogram("serve_request_latency_us", &[])
            .unwrap();
        assert_eq!(lat.count(), snap.completed);
        assert_eq!(lat.quantile(0.50), snap.p50_us);
        assert_eq!(lat.quantile(0.95), snap.p95_us);
        assert_eq!(lat.quantile(0.99), snap.p99_us);

        // Batch-size histogram matches the snapshot's exactly.
        let bs = registry.find_histogram("serve_batch_size", &[]).unwrap();
        assert_eq!(
            bs.count(),
            snap.batch_hist.iter().map(|(_, n)| n).sum::<u64>()
        );
        assert_eq!(
            bs.sum(),
            snap.batch_hist
                .iter()
                .map(|(s, n)| *s as u64 * n)
                .sum::<u64>()
        );

        // Per-model lifecycle accounting: one primary resident, every
        // request attributed to it.
        assert_eq!(snap.loaded_models, 1);
        let per_model = registry
            .find_counter(
                "serve_model_requests_total",
                &[("model", "mlp"), ("version", "1")],
            )
            .expect("per-model counter registered");
        assert_eq!(per_model.get(), snap.submitted);

        assert!(text.contains("serve_requests_completed_total 6"));
        assert!(jsonl.contains("serve_request_latency_us"));
    }

    #[test]
    fn a_lone_request_is_answered_without_the_clock_moving() {
        use crate::clock::ManualClock;
        use cs_telemetry::Registry;
        let (reg, model) = mlp_registry();
        let registry = Arc::new(Registry::new());
        // Never advanced. When batches waited out a 200 us deadline by
        // default, a lone request on an idle server sat until the clock
        // passed it; a free worker now takes what is queued and goes.
        let clock = Arc::new(ManualClock::new(0));
        let server =
            Server::start_with_recorder(reg, ServeConfig::default(), clock, registry.clone())
                .expect("start");
        let ticket = server
            .submit(InferRequest::new("mlp", input_for(&model, 1)))
            .expect("submit");
        let resp = ticket
            .wait_deadline(Duration::from_secs(30))
            .expect("answered with no co-rider and no clock tick")
            .expect("response");
        assert_eq!(resp.batch_size, 1);
        server.shutdown();
        // A zero-wait partial batch is a deadline close that waited 0.
        let closes = |reason| {
            registry
                .find_counter("serve_batch_close_total", &[("reason", reason)])
                .expect("close counter registered")
                .get()
        };
        assert_eq!(closes("deadline"), 1);
        assert_eq!(closes("size") + closes("model_switch"), 0);
        let wait = registry
            .find_histogram("serve_batch_wait_us", &[])
            .expect("batch wait histogram registered");
        assert_eq!((wait.count(), wait.sum()), (1, 0));
    }

    #[test]
    fn two_idle_workers_still_fill_one_batch_of_eight() {
        let (reg, model) = mlp_registry();
        let cfg = ServeConfig {
            workers: 2,
            max_batch: 8,
            ..ServeConfig::default()
        };
        let server = Server::start(reg, cfg).expect("start");
        // Held, the head of the line does not take: the eight pile up
        // as they would behind busy workers.
        server.queue.hold(true);
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| {
                server
                    .submit(InferRequest::new("mlp", input_for(&model, i)))
                    .expect("submit")
            })
            .collect();
        server.queue.hold(false);
        // The second worker stood idle right behind the first the whole
        // time, yet only the head of the line takes: the eight were not
        // split between them.
        let replies: Vec<InferResponse> = tickets
            .into_iter()
            .map(|t| t.wait().expect("reply"))
            .collect();
        assert!(replies.iter().all(|r| r.batch_size == 8));
        assert!(replies.iter().all(|r| r.worker == replies[0].worker));
        let snap = server.shutdown();
        assert_eq!(snap.batch_hist, vec![(8, 1)]);
    }

    #[test]
    fn sequential_requests_visit_the_workers_in_one_fixed_cyclic_order() {
        let (reg, model) = mlp_registry();
        let cfg = ServeConfig {
            workers: 4,
            ..ServeConfig::default()
        };
        let server = Server::start(reg, cfg).expect("start");
        let mut served_by = Vec::new();
        for i in 0..12 {
            let resp = server
                .infer(InferRequest::new("mlp", input_for(&model, i)))
                .expect("infer");
            served_by.push(resp.worker);
            // The reply is sent before the worker rejoins the line.
            spin_until("worker rejoined the line", || {
                server.queue.idle_workers() == 4
            });
        }
        server.shutdown();
        // Whatever order the four first lined up in, it repeats: the
        // load spreads evenly however the host schedules the threads.
        let mut first_round = served_by[..4].to_vec();
        first_round.sort_unstable();
        assert_eq!(first_round, vec![0, 1, 2, 3], "{served_by:?}");
        assert!(
            served_by.iter().zip(&served_by[4..]).all(|(a, b)| a == b),
            "{served_by:?}"
        );
    }

    /// The wall clock, except that it panics once — when armed, and
    /// only on the thread named `cs-serve-worker-0`.
    struct FaultyClock {
        inner: MonotonicClock,
        armed: AtomicBool,
    }

    impl FaultyClock {
        fn new() -> Arc<Self> {
            Arc::new(FaultyClock {
                inner: MonotonicClock::new(),
                armed: AtomicBool::new(false),
            })
        }
    }

    impl Clock for FaultyClock {
        fn now_us(&self) -> u64 {
            if std::thread::current().name() == Some("cs-serve-worker-0")
                && self.armed.swap(false, Ordering::SeqCst)
            {
                panic!("injected fault: worker 0 dies here");
            }
            self.inner.now_us()
        }
    }

    #[test]
    fn a_dead_worker_does_not_black_hole_traffic() {
        let (reg, model) = mlp_registry();
        let clock = FaultyClock::new();
        let cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        let server = Server::start_with_clock(reg, cfg, clock.clone()).expect("start");
        clock.armed.store(true, Ordering::SeqCst);
        let mut after_the_fault = 0;
        for i in 0..24 {
            let already_dead = !clock.armed.load(Ordering::SeqCst);
            let result = server.infer(InferRequest::new("mlp", input_for(&model, i)));
            if already_dead {
                // With per-worker dispatch lanes every second batch went
                // to the dead worker's lane for the life of the server.
                let resp = result.expect("the survivor serves every later request");
                assert_eq!(resp.worker, 1);
                after_the_fault += 1;
            } else if let Err(e) = result {
                // Only what worker 0 held when it died may be lost.
                assert!(matches!(e, ServeError::WorkerLost), "{e}");
            }
        }
        // Two workers take turns, so the fault fired within two requests.
        assert!(after_the_fault >= 22, "{after_the_fault}");
        let snap = server.shutdown();
        assert_eq!(snap.failed, 0);
    }

    #[test]
    fn the_last_worker_out_resolves_every_outstanding_ticket() {
        let (reg, model) = mlp_registry();
        let clock = FaultyClock::new();
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start_with_clock(reg, cfg, clock.clone()).expect("start");
        clock.armed.store(true, Ordering::SeqCst);
        // The only worker dies on its next clock reading — before it can
        // run anything. Whatever was admitted by then is still queued.
        let mut tickets = Vec::new();
        for i in 0..6 {
            match server.submit(InferRequest::new("mlp", input_for(&model, i))) {
                Ok(ticket) => tickets.push(ticket),
                Err(e) => assert!(matches!(e, ServeError::WorkerLost), "{e}"),
            }
        }
        assert!(!tickets.is_empty(), "the first submit precedes the fault");
        for ticket in tickets {
            let reply = ticket
                .wait_deadline(Duration::from_secs(30))
                .expect("a ticket nobody can serve must not hang");
            assert!(matches!(reply, Err(ServeError::WorkerLost)), "{reply:?}");
        }
        // Nobody is left to serve: admission says so instead of queueing.
        assert!(matches!(
            server.submit(InferRequest::new("mlp", input_for(&model, 99))),
            Err(ServeError::WorkerLost)
        ));
        // And a drain has nothing to wait for.
        server.drain_handle().shutdown_and_drain();
        server.shutdown();
    }

    /// A bell that posts every ring to a channel the test reads.
    fn channel_bell() -> (Arc<dyn Fn(u64) + Send + Sync>, mpsc::Receiver<u64>) {
        let (tx, rx) = mpsc::channel();
        let tx = std::sync::Mutex::new(tx);
        let bell = Arc::new(move |token| {
            let _ = tx.lock().unwrap().send(token);
        });
        (bell, rx)
    }

    #[test]
    fn the_doorbell_rings_once_per_admitted_job_after_its_reply() {
        let (reg, model) = mlp_registry();
        let server = Server::start(reg, ServeConfig::default()).expect("start");
        let (bell, rings) = channel_bell();
        let tickets: Vec<Ticket> = (0..16u32)
            .map(|i| {
                let req = InferRequest::new("mlp", input_for(&model, i));
                server
                    .submit_rung(req, Doorbell::new(bell.clone(), u64::from(i)))
                    .expect("submit")
            })
            .collect();
        let mut rung = [0u32; 16];
        for _ in 0..16 {
            let token = rings
                .recv_timeout(Duration::from_secs(30))
                .expect("every admitted job rings") as usize;
            rung[token] += 1;
            // The reply is already there when the bell rings.
            let reply = tickets[token].try_wait().expect("ringing ticket answers");
            assert!(reply.is_ok(), "{reply:?}");
        }
        // A refused submission creates no ticket; whether it rings is
        // no business of anybody's, since no slot waits on token 99.
        let refused = server.submit_rung(
            InferRequest::new("nope", input_for(&model, 0)),
            Doorbell::new(bell.clone(), 99),
        );
        assert!(matches!(refused, Err(ServeError::UnknownModel(_))));
        server.shutdown();
        drop(bell);
        // Every bell is gone now, so this drains whatever else rang.
        for token in rings.iter() {
            assert_eq!(token, 99, "an admitted job rang twice");
        }
        assert_eq!(rung, [1; 16]);
    }

    #[test]
    fn the_doorbell_rings_for_jobs_the_last_worker_leaves_unanswered() {
        let (reg, model) = mlp_registry();
        let clock = FaultyClock::new();
        let cfg = ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start_with_clock(reg, cfg, clock.clone()).expect("start");
        clock.armed.store(true, Ordering::SeqCst);
        let (bell, rings) = channel_bell();
        let mut tickets = Vec::new();
        for i in 0..6u32 {
            let req = InferRequest::new("mlp", input_for(&model, i));
            if let Ok(ticket) = server.submit_rung(req, Doorbell::new(bell.clone(), u64::from(i))) {
                tickets.push((u64::from(i), ticket));
            }
        }
        assert!(!tickets.is_empty(), "the first submit precedes the fault");
        while !tickets.is_empty() {
            let token = rings
                .recv_timeout(Duration::from_secs(30))
                .expect("a job dropped unanswered still rings");
            // Refused submissions (the queue closed under them) may ring
            // too; they have no ticket to check.
            if let Some(at) = tickets.iter().position(|(t, _)| *t == token) {
                let (_, ticket) = tickets.swap_remove(at);
                let reply = ticket.try_wait().expect("the ring comes after the drop");
                assert!(matches!(reply, Err(ServeError::WorkerLost)), "{reply:?}");
            }
        }
        server.shutdown();
    }

    #[test]
    fn engine_lanes_serve_bit_identical_outputs_across_backends() {
        let (reg, model) = mlp_registry();
        let inputs: Vec<Vec<f32>> = (0..4).map(|i| input_for(&model, i)).collect();
        let cfg = ServeConfig {
            backend: ExecBackend::Sparse,
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start(reg, cfg).expect("start");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The oracle is the dense twin run off the server; the direct
        // lane is the same engine called outside it.
        let (oracle, direct) = (model.dense_lane(), model.sparse_lane());
        for input in &inputs {
            let resp = server
                .infer(InferRequest::new("mlp", input.clone()))
                .expect("infer");
            // Engine lanes run real kernels; there is no simulated
            // hardware cost to report.
            assert_eq!(resp.cycles, 0);
            assert_eq!(resp.energy_pj, 0.0);
            let dense = oracle.forward(input).expect("dense forward");
            assert_eq!(bits(&resp.outputs), bits(&dense));
            let lane = direct.forward(input).expect("forward");
            assert_eq!(bits(&resp.outputs), bits(&lane));
        }
        server.shutdown();
    }

    /// Serves `frames` on `backend` with one worker and its own
    /// registry: the replies, and the registry the lane recorded into.
    fn serve_frames(
        model: &ServableModel,
        backend: ExecBackend,
        frames: &[Vec<f32>],
    ) -> (Vec<Vec<f32>>, Arc<cs_telemetry::Registry>) {
        let mut reg = ModelRegistry::new();
        reg.register(model.clone()).expect("register");
        let registry = Arc::new(cs_telemetry::Registry::new());
        let clock = Arc::new(crate::clock::ManualClock::new(0));
        let cfg = ServeConfig {
            backend,
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start_with_recorder(reg, cfg, clock, registry.clone()).expect("start");
        let replies = frames
            .iter()
            .map(|frame| {
                server
                    .infer(InferRequest::new(&model.name, frame.clone()))
                    .expect("infer")
                    .outputs
            })
            .collect();
        server.shutdown();
        (replies, registry)
    }

    /// LIF frames (exact zeros between spike amplitudes) of the model's
    /// width, the second poisoned with `-0.0` and the third with NaN
    /// and inf so the never-skip rule runs end to end.
    fn spike_frames(model: &ServableModel) -> Vec<Vec<f32>> {
        use cs_nn::data::lif_spike_train;
        let mut frames: Vec<Vec<f32>> = (0..3)
            .map(|i| {
                lif_spike_train(model.n_in, 20, 0.25, 11 + i)
                    .as_slice()
                    .to_vec()
            })
            .collect();
        frames[1][0] = -0.0;
        frames[2][0] = f32::NAN;
        frames[2][1] = f32::INFINITY;
        frames
    }

    #[test]
    fn sparse_backend_gates_spike_frames_and_matches_the_dense_oracle() {
        let model = ServableModel::mlp(Scale::Reduced(2), 7).expect("model");
        let name = model.name.clone();
        let frames = spike_frames(&model);
        let (replies, registry) = serve_frames(&model, ExecBackend::Sparse, &frames);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (dense, direct) = (model.dense_lane(), model.sparse_lane());
        for (i, (frame, reply)) in frames.iter().zip(&replies).enumerate() {
            if frame.iter().all(|v| v.is_finite()) {
                // On finite inputs (exact zeros and -0.0 included) the
                // off-server dense twin agrees bit for bit. NaN/inf
                // frames are excluded by contract: the dense twin
                // propagates poison through pruned positions (NaN * 0.0
                // = NaN) the sparse kernels never touch.
                let want = dense.forward(frame).expect("dense forward");
                assert_eq!(bits(reply), bits(&want), "frame {i} vs dense");
            }
            let want = direct.forward(frame).expect("sparse forward");
            assert_eq!(bits(reply), bits(&want), "frame {i} vs the direct lane");
        }
        // Every layer of the lane registers hit/skip counters and spans
        // under its kernel's own kind, and the spike frames skip inputs.
        let mut total_skips = 0;
        for layer in &direct.layers {
            let counter = |outcome: &str| {
                registry
                    .find_counter(
                        "serve_gate_blocks_total",
                        &[
                            ("model", &name),
                            ("layer", &layer.name),
                            ("outcome", outcome),
                        ],
                    )
                    .unwrap_or_else(|| panic!("{outcome} counter of {}", layer.name))
                    .get()
            };
            assert!(
                counter("hit") > 0,
                "layer {} saw no active input",
                layer.name
            );
            total_skips += counter("skip");
            assert_eq!(layer.kernel.kind(), "sparse");
            let h = registry
                .find_histogram(
                    "serve_layer_kernel_us",
                    &[
                        ("model", &name),
                        ("layer", &layer.name),
                        ("kernel", "sparse"),
                    ],
                )
                .expect("per-layer histogram registered");
            assert_eq!(h.count(), frames.len() as u64);
        }
        assert!(total_skips > 0, "LIF frames produced no skipped inputs");
    }

    #[test]
    fn gated_builds_the_same_lane_as_sparse() {
        let model = ServableModel::mlp(Scale::Reduced(2), 7).expect("model");
        let lane = |l: &crate::model::CompiledLane| -> Vec<(String, &'static str)> {
            l.layers
                .iter()
                .map(|layer| (layer.name.clone(), layer.kernel.kind()))
                .collect()
        };
        assert_eq!(lane(&model.gated_lane()), lane(&model.sparse_lane()));
        let frames = spike_frames(&model);
        let (sparse, sparse_reg) = serve_frames(&model, ExecBackend::Sparse, &frames);
        let (gated, gated_reg) = serve_frames(&model, ExecBackend::Gated, &frames);
        let bits = |outs: &[Vec<f32>]| {
            outs.iter()
                .flatten()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&gated), bits(&sparse));
        // The same series, with the same counts.
        for layer in &model.sparse_lane().layers {
            let labels = [("model", "mlp"), ("layer", layer.name.as_str())];
            for outcome in ["hit", "skip"] {
                let count = |reg: &cs_telemetry::Registry| {
                    let with = [labels[0], labels[1], ("outcome", outcome)];
                    reg.find_counter("serve_gate_blocks_total", &with)
                        .map(|c| c.get())
                };
                assert!(count(&sparse_reg).is_some());
                assert_eq!(count(&gated_reg), count(&sparse_reg), "{}", layer.name);
            }
            let with = [labels[0], labels[1], ("kernel", layer.kernel.kind())];
            let spans = |reg: &cs_telemetry::Registry| {
                reg.find_histogram("serve_layer_kernel_us", &with)
                    .map(|h| h.count())
            };
            assert_eq!(spans(&gated_reg), spans(&sparse_reg), "{}", layer.name);
            assert_eq!(spans(&sparse_reg), Some(frames.len() as u64));
        }
    }

    #[test]
    fn a_closed_batch_of_eight_serves_each_request_its_dense_bits() {
        use cs_nn::data::lif_spike_train;
        use cs_telemetry::Registry;
        let model = ServableModel::mlp(Scale::Reduced(2), 7).expect("model");
        let name = model.name.clone();
        let mut reg = ModelRegistry::new();
        reg.register(model.clone()).expect("register");
        let registry = Arc::new(Registry::new());
        let cfg = ServeConfig {
            backend: ExecBackend::Sparse,
            workers: 1,
            max_batch: 8,
            ..ServeConfig::default()
        };
        let clock = Arc::new(MonotonicClock::new());
        let server = Server::start_with_recorder(reg, cfg, clock, registry.clone()).expect("start");
        // The worker takes only once all eight are queued.
        server.queue.hold(true);
        // Eight distinct requests: spike frames (blocks to skip)
        // riding with dense-ish vectors (nothing to skip).
        let inputs: Vec<Vec<f32>> = (0..8u32)
            .map(|i| match i % 2 {
                0 => lif_spike_train(model.n_in, 20, 0.25, 40 + u64::from(i))
                    .as_slice()
                    .to_vec(),
                _ => input_for(&model, i),
            })
            .collect();
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|x| {
                server
                    .submit(InferRequest::new(&name, x.clone()))
                    .expect("submit")
            })
            .collect();
        server.queue.hold(false);
        let dense = model.dense_lane();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (x, ticket) in inputs.iter().zip(tickets) {
            let resp = ticket.wait().expect("reply");
            assert_eq!(resp.batch_size, 8);
            let want = dense.forward(x).expect("dense forward");
            assert_eq!(bits(&resp.outputs), bits(&want));
        }
        server.shutdown();
        // One kernel span per (batch, layer), and gate counters that
        // equal the per-request sums.
        let mut layer_inputs = inputs.clone();
        for layer in &model.sparse_lane().layers {
            let h = registry
                .find_histogram(
                    "serve_layer_kernel_us",
                    &[
                        ("model", &name),
                        ("layer", &layer.name),
                        ("kernel", layer.kernel.kind()),
                    ],
                )
                .expect("per-layer histogram registered");
            assert_eq!(h.count(), 1, "layer {}", layer.name);
            let mut want = cs_compress::gate::GateStats::default();
            for x in &mut layer_inputs {
                let (mut out, stats) = layer.kernel.forward_counted(x).expect("forward");
                want.merge(stats.expect("a sparse kernel counts its inputs"));
                for v in &mut out {
                    *v = layer.activation.apply(*v);
                }
                *x = out;
            }
            let counted = |outcome: &str| {
                registry
                    .find_counter(
                        "serve_gate_blocks_total",
                        &[
                            ("model", &name),
                            ("layer", &layer.name),
                            ("outcome", outcome),
                        ],
                    )
                    .map_or(0, |c| c.get())
            };
            assert_eq!(counted("hit"), want.occupied_blocks() as u64);
            assert_eq!(counted("skip"), want.zero_blocks as u64);
            assert_eq!(want.blocks, 8 * layer.kernel.n_in());
        }
    }

    #[test]
    fn a_batch_never_mixes_two_loaded_versions() {
        let v1 = ServableModel::mlp(Scale::Reduced(8), 7).expect("v1");
        let v2 = ServableModel::mlp(Scale::Reduced(8), 8).expect("v2");
        let mut reg = ModelRegistry::new();
        reg.register(v1.clone()).expect("register");
        let cfg = ServeConfig {
            backend: ExecBackend::Sparse,
            workers: 1,
            max_batch: 8,
            // The two versions differ on purpose; keep the canary up.
            canary_divergence_threshold: 1_000,
            ..ServeConfig::default()
        };
        let server = Server::start(reg, cfg).expect("start");
        // Tickets 0..4 route to the canary, the rest to the primary.
        server.load_servable(v2.clone(), 2, 4).expect("canary");
        let inputs: Vec<Vec<f32>> = (0..8).map(|i| input_for(&v1, i)).collect();
        // All eight are queued before the worker takes: only the slot
        // switch can split them.
        server.queue.hold(true);
        let tickets: Vec<Ticket> = inputs
            .iter()
            .map(|x| {
                server
                    .submit(InferRequest::new("mlp", x.clone()))
                    .expect("submit")
            })
            .collect();
        server.queue.hold(false);
        server.shutdown();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let (lane1, lane2) = (v1.dense_lane(), v2.dense_lane());
        for (i, (x, ticket)) in inputs.iter().zip(tickets).enumerate() {
            let resp = ticket.wait().expect("reply");
            // Eight requests were waiting and `max_batch` is 8, yet the
            // slot key split them: no batch holds both versions, and
            // each request ran on the version it was admitted against.
            assert_eq!(resp.batch_size, 4, "request {i}");
            let lane = if i < 4 { &lane2 } else { &lane1 };
            let want = lane.forward(x).expect("dense forward");
            assert_eq!(bits(&resp.outputs), bits(&want), "request {i}");
        }
    }

    #[test]
    fn structured_models_serve_with_mode_labeled_kernel_telemetry() {
        use crate::clock::ManualClock;
        use cs_nn::spec::Scale;
        use cs_sparsity::PruneMode;
        use cs_telemetry::Registry;
        for mode in [
            PruneMode::TwoFour,
            PruneMode::BankBalanced { bank: 8, k: 2 },
        ] {
            let model = ServableModel::mlp_with_mode(mode, Scale::Reduced(8), 7).expect("model");
            let name = model.name.clone();
            let mut reg = ModelRegistry::new();
            reg.register(model.clone()).expect("register");
            let registry = Arc::new(Registry::new());
            let clock = Arc::new(ManualClock::new(0));
            let cfg = ServeConfig {
                backend: ExecBackend::Sparse,
                workers: 1,
                ..ServeConfig::default()
            };
            let server =
                Server::start_with_recorder(reg, cfg, clock, registry.clone()).expect("start");
            let resp = server
                .infer(InferRequest::new(&name, input_for(&model, 3)))
                .expect("infer");
            assert_eq!(resp.outputs.len(), model.n_out);
            assert_eq!(resp.cycles, 0);
            server.shutdown();
            // Every layer's histogram carries the structured kernel label.
            for (format, _) in &model.layers {
                let h = registry
                    .find_histogram(
                        "serve_layer_kernel_us",
                        &[
                            ("model", &name),
                            ("layer", format.name()),
                            ("kernel", mode.name()),
                        ],
                    )
                    .expect("structured per-layer histogram registered");
                assert_eq!(h.count(), 1);
            }
        }
    }

    #[test]
    fn engine_lane_populates_per_layer_kernel_histograms() {
        use crate::clock::ManualClock;
        use cs_telemetry::Registry;
        let (reg, model) = mlp_registry();
        let registry = Arc::new(Registry::new());
        let clock = Arc::new(ManualClock::new(0));
        let cfg = ServeConfig {
            backend: ExecBackend::Sparse,
            workers: 1,
            ..ServeConfig::default()
        };
        let server = Server::start_with_recorder(reg, cfg, clock, registry.clone()).expect("start");
        for i in 0..4 {
            server
                .infer(InferRequest::new("mlp", input_for(&model, i)))
                .expect("infer");
        }
        server.shutdown();
        for (format, _) in &model.layers {
            let h = registry
                .find_histogram(
                    "serve_layer_kernel_us",
                    &[
                        ("model", "mlp"),
                        ("layer", format.name()),
                        ("kernel", "sparse"),
                    ],
                )
                .expect("per-layer histogram registered");
            assert_eq!(h.count(), 4);
        }
        // A sparse-backend server never registers dense-kernel series.
        assert!(registry
            .find_histogram(
                "serve_layer_kernel_us",
                &[
                    ("model", "mlp"),
                    ("layer", model.layers[0].0.name()),
                    ("kernel", "dense"),
                ],
            )
            .is_none());
    }

    #[test]
    fn drain_handle_shuts_down_from_another_thread() {
        let (reg, model) = mlp_registry();
        let cfg = ServeConfig {
            workers: 2,
            max_batch: 4,
            queue_depth: 64,
            ..ServeConfig::default()
        };
        let server = Server::start(reg, cfg).expect("start");
        let tickets: Vec<Ticket> = (0..10)
            .map(|i| {
                server
                    .submit(InferRequest::new("mlp", input_for(&model, i)))
                    .expect("submit")
            })
            .collect();
        let handle = server.drain_handle();
        assert!(!handle.is_shutting_down());
        let drainer = {
            let handle = handle.clone();
            std::thread::spawn(move || handle.shutdown_and_drain())
        };
        drainer.join().expect("drain thread");
        assert!(handle.is_shutting_down());
        // The drain answered every in-flight request before returning.
        for t in tickets {
            t.wait().expect("in-flight request answered");
        }
        // Admission is closed from the owning handle's point of view too.
        assert!(matches!(
            server.submit(InferRequest::new("mlp", input_for(&model, 99))),
            Err(ServeError::ShuttingDown)
        ));
        // The owning handle still works and reports the final stats.
        let snap = server.shutdown();
        assert_eq!(snap.completed, 10);
        assert_eq!(snap.failed, 0);
    }

    #[test]
    fn drain_handle_is_idempotent_across_threads() {
        let (reg, model) = mlp_registry();
        let server = Server::start(reg, ServeConfig::default()).expect("start");
        server
            .infer(InferRequest::new("mlp", input_for(&model, 0)))
            .expect("infer");
        let handle = server.drain_handle();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let h = handle.clone();
                std::thread::spawn(move || h.shutdown_and_drain())
            })
            .collect();
        for t in threads {
            t.join().expect("concurrent drains all return");
        }
        let snap = server.shutdown();
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn a_server_started_without_a_recorder_exports_its_metrics() {
        let (reg, model) = mlp_registry();
        let server = Server::start(reg, ServeConfig::default()).expect("start");
        server
            .infer(InferRequest::new("mlp", input_for(&model, 0)))
            .expect("infer");
        let text = server
            .metrics_text()
            .expect("a default server keeps its metrics");
        assert!(text.contains("serve_requests_completed_total 1"), "{text}");
        assert!(server
            .metrics_jsonl()
            .expect("jsonl too")
            .contains("serve_request_latency_us"));
        assert_eq!(server.stats().completed, 1);
    }

    #[test]
    fn servers_started_in_sequence_report_independent_snapshots() {
        let (reg, model) = mlp_registry();
        let first = Server::start(reg, ServeConfig::default()).expect("start");
        for i in 0..3 {
            first
                .infer(InferRequest::new("mlp", input_for(&model, i)).with_tenant("acme"))
                .expect("infer");
        }
        let first = first.shutdown();
        let (reg, model) = mlp_registry();
        let second = Server::start(reg, ServeConfig::default()).expect("start");
        second
            .infer(InferRequest::new("mlp", input_for(&model, 9)))
            .expect("infer");
        let second = second.shutdown();
        assert_eq!((first.submitted, first.completed), (3, 3));
        assert_eq!((second.submitted, second.completed), (1, 1));
        assert_eq!(first.tenants, vec![("acme".to_string(), 3, 0)]);
        assert_eq!(second.tenants, vec![("default".to_string(), 1, 0)]);
        assert_eq!(first.hw_completed, 3);
        assert_eq!(second.hw_completed, 1);
        // One resident model each: a shared registry would read two.
        assert_eq!((first.loaded_models, second.loaded_models), (1, 1));
    }

    #[test]
    fn empty_registry_starts_and_serves_after_hot_load() {
        let server = Server::start(ModelRegistry::new(), ServeConfig::default()).expect("start");
        assert!(server.list_models().is_empty());
        let model = ServableModel::mlp(Scale::Reduced(8), 7).expect("mlp");
        let input = input_for(&model, 1);
        assert!(matches!(
            server.submit(InferRequest::new("mlp", input.clone())),
            Err(ServeError::UnknownModel(_))
        ));
        server.load_servable(model.clone(), 1, 0).expect("load");
        let resp = server
            .infer(InferRequest::new("mlp", input))
            .expect("infer after hot load");
        assert_eq!(resp.outputs.len(), model.n_out);
        let listed = server.list_models();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "mlp");
        assert_eq!(listed[0].version, 1);
        assert!(listed[0].primary);
        assert!(listed[0].resident_bytes > 0);
        let snap = server.shutdown();
        assert_eq!(snap.loaded_models, 1);
        assert_eq!(snap.completed, 1);
    }

    #[test]
    fn tenant_quota_rejects_with_the_tenant_label() {
        let (reg, model) = mlp_registry();
        let cfg = ServeConfig {
            workers: 1,
            queue_depth: 64,
            tenant_quota: 2,
            // Single-request batches on a deliberately slow emulated
            // accelerator: the one worker is busy after the first
            // submission, so the tenant's lane backs up and the quota
            // must reject.
            max_batch: 1,
            emulate_hw_time: true,
            freq_ghz: 1e-3,
            ..ServeConfig::default()
        };
        let server = Server::start(reg, cfg).expect("start");
        let mut tickets = Vec::new();
        // Fill tenant "acme" to its quota. The worker takes the first
        // job or two while the burst arrives, so push until a rejection
        // arrives (bounded by the quota plus what it took).
        let mut rejected = None;
        for i in 0..200 {
            match server.submit(InferRequest::new("mlp", input_for(&model, i)).with_tenant("acme"))
            {
                Ok(t) => tickets.push(t),
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        match rejected.expect("quota eventually rejects") {
            ServeError::Overloaded { capacity, tenant } => {
                assert_eq!(capacity, 2);
                assert_eq!(tenant, "acme");
            }
            other => panic!("expected Overloaded, got {other}"),
        }
        // A different tenant still has room.
        tickets.push(
            server
                .submit(InferRequest::new("mlp", input_for(&model, 500)).with_tenant("beta"))
                .expect("other tenant admits"),
        );
        let snap = server.shutdown();
        for t in tickets {
            t.wait().expect("queued requests drain on shutdown");
        }
        let acme = snap.tenants.iter().find(|(t, _, _)| t == "acme").unwrap();
        assert_eq!(acme.2, 1, "exactly one acme rejection");
        let beta = snap.tenants.iter().find(|(t, _, _)| t == "beta").unwrap();
        assert_eq!(beta.1, 1);
        assert_eq!(beta.2, 0);
    }
}
