//! The cluster control plane: registration, routing, health, failover.
//!
//! ```text
//! workers ──TCP──▶ Register/Heartbeat ──▶ Membership ◀── eviction sweeper
//!                     (control conns)         │ pick()
//! clients ──TCP──▶ Request ──▶ route ──forward▶ worker request plane
//!                                │ transport error: mark dead,
//!                                ▼ retry once on a survivor
//!                            Response / typed Error
//! ```
//!
//! The [`Orchestrator`] accepts both workers and clients on one
//! listener; the first frame decides the connection's role. A
//! connection that opens with [`Frame::Register`] becomes that
//! worker's **control channel** — heartbeats arrive on it, losing it
//! evicts the worker, and the cluster-wide shutdown cascade sends
//! [`Frame::Shutdown`] down it. Every other connection is a client:
//! requests are handled strictly in arrival order per connection, each
//! one answered exactly once (a routed response, a relayed typed
//! error, or a router-originated `NoReplica`/`WorkerLost` error), so
//! the wire contract matches a single [`cs_net::NetServer`].
//!
//! Failover: a forward that dies mid-flight (connection refused, reset,
//! truncated frame, timeout) marks the replica dead, purges its pooled
//! connections, and retries the request on a surviving replica
//! **exactly once**. A second transport failure answers
//! `WorkerLost`; no healthy replica at pick time answers `NoReplica`.
//! Replica-side typed errors (overload, shape mismatch) are relayed
//! verbatim and never retried — backoff is the client's decision.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cs_net::transport::{read_frame, write_frame};
use cs_net::{
    Client, ClientConfig, ErrorCode, Frame, NetError, WireModelStatus, DEFAULT_MAX_PAYLOAD,
};
use cs_telemetry::{
    buckets, Clock, Counter, Histogram, Labels, MonotonicClock, NoopRecorder, Recorder,
};

use crate::error::ClusterError;
use crate::membership::{Lease, Membership};
use crate::pool::ClientPool;

/// Orchestrator configuration.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Heartbeat interval told to registering workers.
    pub heartbeat_ms: u32,
    /// Eviction deadline: a healthy worker silent for longer is marked
    /// dead by the sweeper. Must exceed `heartbeat_ms` (≈3× is the
    /// conventional slack).
    pub heartbeat_timeout_ms: u32,
    /// Read deadline for accepted connections (idle clients are
    /// closed; control connections always beat it via heartbeats).
    pub read_timeout: Option<Duration>,
    /// Payload cap for accepted frames.
    pub max_payload: u32,
    /// Dial settings for pooled forwards to workers.
    pub forward: ClientConfig,
    /// How long the shutdown cascade waits for each worker's drain ack
    /// before giving up on it.
    pub shutdown_grace: Duration,
}

impl Default for OrchestratorConfig {
    fn default() -> Self {
        OrchestratorConfig {
            addr: "127.0.0.1:0".to_string(),
            heartbeat_ms: 100,
            heartbeat_timeout_ms: 350,
            read_timeout: Some(Duration::from_secs(30)),
            max_payload: DEFAULT_MAX_PAYLOAD,
            forward: ClientConfig::default(),
            shutdown_grace: Duration::from_secs(10),
        }
    }
}

impl OrchestratorConfig {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// [`ClusterError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.heartbeat_ms == 0 {
            return Err(ClusterError::InvalidConfig(
                "heartbeat_ms must be at least 1".to_string(),
            ));
        }
        if self.heartbeat_timeout_ms <= self.heartbeat_ms {
            return Err(ClusterError::InvalidConfig(format!(
                "heartbeat_timeout_ms {} must exceed heartbeat_ms {}",
                self.heartbeat_timeout_ms, self.heartbeat_ms
            )));
        }
        if self.max_payload < 64 {
            return Err(ClusterError::InvalidConfig(format!(
                "max_payload {} is too small to carry any request",
                self.max_payload
            )));
        }
        Ok(())
    }
}

/// Router-path metric handles, fetched once at startup. The membership
/// gauges (`cluster_workers_registered` / `cluster_workers_healthy` /
/// `cluster_worker_outstanding`) live in [`Membership`]; all share the
/// recorder passed to [`Orchestrator::start_with_recorder`].
struct ClusterMetrics {
    routed: Counter,
    retried: Counter,
    failovers: Counter,
    failed: Counter,
    latency: Histogram,
}

impl ClusterMetrics {
    fn new(recorder: &dyn Recorder) -> Self {
        ClusterMetrics {
            routed: recorder.counter(
                "cluster_requests_routed_total",
                "Client requests the orchestrator routed to a replica",
                Labels::new(),
            ),
            retried: recorder.counter(
                "cluster_requests_retried_total",
                "Requests retried on a surviving replica after a transport failure",
                Labels::new(),
            ),
            failovers: recorder.counter(
                "cluster_failovers_total",
                "Workers evicted (transport failure, lost control connection, \
                 or missed heartbeat deadline)",
                Labels::new(),
            ),
            failed: recorder.counter(
                "cluster_requests_failed_total",
                "Requests the router could not answer from any replica \
                 (NoReplica / WorkerLost)",
                Labels::new(),
            ),
            latency: recorder.histogram(
                "cluster_route_latency_us",
                "End-to-end routed latency: client frame decoded to reply \
                 ready (µs)",
                Labels::new(),
                &buckets::duration_us(),
            ),
        }
    }
}

/// A worker's control channel: the stream the shutdown cascade writes
/// to, and the signal its conn thread raises when the drain ack (or
/// the connection's death) arrives.
struct Control {
    stream: TcpStream,
    acked: Arc<(Mutex<bool>, Condvar)>,
}

/// State shared by the accept loop, connection threads, the sweeper,
/// and the owning [`Orchestrator`] handle.
struct OrchShared {
    cfg: OrchestratorConfig,
    membership: Membership,
    pool: ClientPool,
    metrics: ClusterMetrics,
    clock: Arc<dyn Clock>,
    stop: AtomicBool,
    draining: AtomicBool,
    conns: Mutex<Vec<(u64, TcpStream)>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    controls: Mutex<HashMap<String, Control>>,
    shutdown_signal: (Mutex<bool>, Condvar),
    local_addr: SocketAddr,
}

impl OrchShared {
    fn begin_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.local_addr);
        let (lock, cv) = &self.shutdown_signal;
        let mut stopped = lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        *stopped = true;
        cv.notify_all();
    }
}

/// The running orchestrator. Dropping it (or [`Orchestrator::shutdown`])
/// stops the listener and joins every thread; workers it knew about
/// keep serving standalone.
pub struct Orchestrator {
    shared: Arc<OrchShared>,
    accept_thread: Option<JoinHandle<()>>,
    sweeper_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Orchestrator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Orchestrator")
            .field("addr", &self.shared.local_addr)
            .finish_non_exhaustive()
    }
}

impl Orchestrator {
    /// Starts without telemetry.
    ///
    /// # Errors
    ///
    /// Invalid configs and bind failures.
    pub fn start(cfg: OrchestratorConfig) -> Result<Orchestrator, ClusterError> {
        Orchestrator::start_with_recorder(cfg, Arc::new(NoopRecorder))
    }

    /// Starts with a telemetry recorder; every cluster series
    /// (membership gauges, router counters, the routed-latency
    /// histogram) lands on it.
    ///
    /// # Errors
    ///
    /// Invalid configs and bind failures.
    pub fn start_with_recorder(
        cfg: OrchestratorConfig,
        recorder: Arc<dyn Recorder>,
    ) -> Result<Orchestrator, ClusterError> {
        cfg.validate()?;
        let listener = TcpListener::bind(&cfg.addr)
            .map_err(|e| ClusterError::Net(NetError::from_io("bind listener", &e)))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| ClusterError::Net(NetError::from_io("resolve bound address", &e)))?;
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let membership = Membership::new(
            Arc::clone(&clock),
            u64::from(cfg.heartbeat_timeout_ms) * 1_000,
            Arc::clone(&recorder),
        );
        let pool = ClientPool::new(cfg.forward.clone());
        let shared = Arc::new(OrchShared {
            metrics: ClusterMetrics::new(recorder.as_ref()),
            membership,
            pool,
            clock,
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            conn_threads: Mutex::new(Vec::new()),
            controls: Mutex::new(HashMap::new()),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
            local_addr,
            cfg,
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cs-cluster-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener))
                .map_err(|e| ClusterError::InvalidConfig(format!("spawning accept thread: {e}")))?
        };
        let sweeper_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("cs-cluster-sweeper".to_string())
                .spawn(move || sweeper_loop(&shared))
                .map_err(|e| ClusterError::InvalidConfig(format!("spawning sweeper thread: {e}")))?
        };
        Ok(Orchestrator {
            shared,
            accept_thread: Some(accept_thread),
            sweeper_thread: Some(sweeper_thread),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The worker roster (tests inspect states and counts through it).
    pub fn membership(&self) -> &Membership {
        &self.shared.membership
    }

    /// Blocks until a client's cluster-shutdown control frame finished
    /// cascading (or [`Orchestrator::shutdown`] was called elsewhere).
    pub fn wait_for_shutdown(&self) {
        let (lock, cv) = &self.shared.shutdown_signal;
        let mut stopped = lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        while !*stopped {
            stopped = cv
                .wait(stopped)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Stops the listener, closes every connection (workers keep
    /// serving standalone), and joins all threads.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.shared.begin_stop();
        {
            let conns = self
                .shared
                .conns
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            for (_, stream) in conns.iter() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.sweeper_thread.take() {
            let _ = t.join();
        }
        loop {
            let threads: Vec<JoinHandle<()>> = {
                let mut guard = self
                    .shared
                    .conn_threads
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
                guard.drain(..).collect()
            };
            if threads.is_empty() {
                break;
            }
            for t in threads {
                let _ = t.join();
            }
        }
    }
}

impl Drop for Orchestrator {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// Marks the heartbeat deadline of silent workers; paused while the
/// cluster drains (a draining worker legitimately stops heartbeating).
fn sweeper_loop(shared: &Arc<OrchShared>) {
    let tick = Duration::from_millis(u64::from(shared.cfg.heartbeat_ms).clamp(10, 50));
    loop {
        std::thread::sleep(tick);
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        if shared.draining.load(Ordering::SeqCst) {
            continue;
        }
        for worker in shared.membership.evict_expired() {
            shared.metrics.failovers.inc();
            fail_worker_cleanup(shared, &worker);
        }
    }
}

/// Purges a dead worker's pooled connections and closes its control
/// channel (unblocking the control thread and any cascade waiter).
fn fail_worker_cleanup(shared: &OrchShared, worker: &str) {
    shared.pool.purge(worker);
    let control = shared
        .controls
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .remove(worker);
    if let Some(c) = control {
        let _ = c.stream.shutdown(std::net::Shutdown::Both);
        signal_ack(&c.acked);
    }
}

fn signal_ack(acked: &Arc<(Mutex<bool>, Condvar)>) {
    let (lock, cv) = acked.as_ref();
    let mut done = lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    *done = true;
    cv.notify_all();
}

fn accept_loop(shared: &Arc<OrchShared>, listener: &TcpListener) {
    let mut conn_id = 0u64;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(shared.cfg.read_timeout);
        conn_id += 1;
        if let Ok(clone) = stream.try_clone() {
            shared
                .conns
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push((conn_id, clone));
        }
        let handle = {
            let shared = Arc::clone(shared);
            std::thread::Builder::new()
                .name(format!("cs-cluster-conn-{conn_id}"))
                .spawn(move || {
                    run_conn(&shared, stream, conn_id);
                    shared
                        .conns
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .retain(|(id, _)| *id != conn_id);
                })
        };
        if let Ok(h) = handle {
            shared
                .conn_threads
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .push(h);
        } else {
            shared
                .conns
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .retain(|(id, _)| *id != conn_id);
        }
    }
}

/// The role a connection assumed after its registration frame.
struct ControlRole {
    worker: String,
    acked: Arc<(Mutex<bool>, Condvar)>,
    deregistered: bool,
}

/// Handles one connection — worker control or client request — until
/// it ends. Client requests are answered strictly in order, exactly
/// once each.
fn run_conn(shared: &Arc<OrchShared>, mut stream: TcpStream, _conn_id: u64) {
    let mut role: Option<ControlRole> = None;
    loop {
        let frame = match read_frame(&mut stream, shared.cfg.max_payload) {
            Ok(Some(frame)) => frame,
            Ok(None) => break,
            Err(NetError::Wire(e)) => {
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error {
                        id: 0,
                        code: ErrorCode::Malformed,
                        tenant: String::new(),
                        detail: e.to_string(),
                    },
                );
                break;
            }
            Err(_) => break,
        };
        match frame {
            Frame::Register {
                id,
                worker,
                addr,
                models,
            } => {
                if shared.stop.load(Ordering::SeqCst) || shared.draining.load(Ordering::SeqCst) {
                    let _ = write_frame(
                        &mut stream,
                        &Frame::Error {
                            id,
                            code: ErrorCode::ShuttingDown,
                            tenant: String::new(),
                            detail: "cluster is draining".to_string(),
                        },
                    );
                    break;
                }
                match shared.membership.register(&worker, &addr, models) {
                    Ok(()) => {
                        let acked = Arc::new((Mutex::new(false), Condvar::new()));
                        if let Ok(clone) = stream.try_clone() {
                            shared
                                .controls
                                .lock()
                                .unwrap_or_else(|poisoned| poisoned.into_inner())
                                .insert(
                                    worker.clone(),
                                    Control {
                                        stream: clone,
                                        acked: Arc::clone(&acked),
                                    },
                                );
                        }
                        role = Some(ControlRole {
                            worker,
                            acked,
                            deregistered: false,
                        });
                        let ack = Frame::RegisterAck {
                            id,
                            heartbeat_ms: shared.cfg.heartbeat_ms,
                        };
                        if write_frame(&mut stream, &ack).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = write_frame(
                            &mut stream,
                            &Frame::Error {
                                id,
                                code: ErrorCode::Internal,
                                tenant: String::new(),
                                detail: e.to_string(),
                            },
                        );
                        break;
                    }
                }
            }
            Frame::Heartbeat { worker, .. } => {
                shared.membership.heartbeat(&worker);
            }
            Frame::Deregister { id, worker } => {
                shared.membership.mark_dead(&worker);
                shared.pool.purge(&worker);
                shared
                    .controls
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .remove(&worker);
                if let Some(r) = role.as_mut() {
                    if r.worker == worker {
                        r.deregistered = true;
                    }
                }
                let _ = write_frame(&mut stream, &Frame::DeregisterAck { id });
            }
            Frame::Request {
                id,
                model,
                tenant,
                input,
            } => {
                shared.metrics.routed.inc();
                let t0 = shared.clock.now_us();
                let reply = if shared.draining.load(Ordering::SeqCst) {
                    Frame::Error {
                        id,
                        code: ErrorCode::ShuttingDown,
                        tenant: String::new(),
                        detail: "cluster is draining".to_string(),
                    }
                } else {
                    route_any(shared, id, &model, &|c: &mut Client| {
                        c.request_as(&model, &tenant, &input)
                            .map(|resp| response_frame(id, resp))
                    })
                };
                shared
                    .metrics
                    .latency
                    .observe(shared.clock.now_us().saturating_sub(t0));
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
            Frame::Query { id, model } => {
                let reply = if shared.draining.load(Ordering::SeqCst) {
                    Frame::Error {
                        id,
                        code: ErrorCode::ShuttingDown,
                        tenant: String::new(),
                        detail: "cluster is draining".to_string(),
                    }
                } else {
                    route_any(shared, id, &model, &|c: &mut Client| {
                        c.model_info(&model).map(|(n_in, n_out)| Frame::Info {
                            id,
                            model: model.clone(),
                            n_in,
                            n_out,
                        })
                    })
                };
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
            Frame::Ping { id } => {
                if write_frame(&mut stream, &Frame::Pong { id }).is_err() {
                    break;
                }
            }
            Frame::Shutdown { id } => {
                // Cluster-wide drain: stop admitting, cascade the
                // shutdown to every worker, ack the client only after
                // every drain ack (or grace timeout) came back.
                cascade_shutdown(shared);
                let _ = write_frame(&mut stream, &Frame::ShutdownAck { id });
                shared.begin_stop();
                break;
            }
            Frame::ShutdownAck { .. } => match role.as_ref() {
                // The worker's drain finished; release the cascade.
                Some(r) => signal_ack(&r.acked),
                None => break,
            },
            Frame::LoadModel {
                id,
                model,
                version,
                canary_pct,
            } => {
                let reply = if shared.draining.load(Ordering::SeqCst) {
                    Frame::Error {
                        id,
                        code: ErrorCode::ShuttingDown,
                        tenant: String::new(),
                        detail: "cluster is draining".to_string(),
                    }
                } else {
                    // A load targets a worker that already serves some
                    // version of the model; its local registry supplies
                    // the bytes, so nothing heavy crosses this hop.
                    route_any(shared, id, &model, &|c: &mut Client| {
                        c.load_model(&model, version, canary_pct)
                            .map(|models| Frame::ModelList { id, models })
                    })
                };
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
            Frame::UnloadModel { id, model, version } => {
                let reply = if shared.draining.load(Ordering::SeqCst) {
                    Frame::Error {
                        id,
                        code: ErrorCode::ShuttingDown,
                        tenant: String::new(),
                        detail: "cluster is draining".to_string(),
                    }
                } else {
                    route_any(shared, id, &model, &|c: &mut Client| {
                        c.unload_model(&model, version)
                            .map(|models| Frame::ModelList { id, models })
                    })
                };
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
            Frame::ListModels { id } => {
                let reply = if shared.draining.load(Ordering::SeqCst) {
                    Frame::Error {
                        id,
                        code: ErrorCode::ShuttingDown,
                        tenant: String::new(),
                        detail: "cluster is draining".to_string(),
                    }
                } else {
                    list_cluster_models(shared, id)
                };
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
            }
            // Anything else is a protocol violation at the orchestrator.
            other => {
                let _ = write_frame(
                    &mut stream,
                    &Frame::Error {
                        id: other.id(),
                        code: ErrorCode::Malformed,
                        tenant: String::new(),
                        detail: "frame type is not valid at the orchestrator".to_string(),
                    },
                );
                break;
            }
        }
    }
    // A control connection that ends without a deregister is a dead
    // worker: evict it so routing stops immediately, and release any
    // cascade waiting on its ack.
    if let Some(r) = role {
        if !r.deregistered && shared.membership.mark_dead(&r.worker) {
            shared.metrics.failovers.inc();
        }
        fail_worker_cleanup(shared, &r.worker);
        signal_ack(&r.acked);
    }
}

fn response_frame(id: u64, resp: cs_net::NetResponse) -> Frame {
    Frame::Response {
        id,
        model: resp.model,
        outputs: resp.outputs,
        cycles: resp.cycles,
        energy_pj: resp.energy_pj,
        batch_size: resp.batch_size,
        worker: resp.worker,
        latency_us: resp.latency_us,
        node: resp.node,
    }
}

/// Routes one operation with at-most-one failover retry. `call` runs
/// the forward on a pooled connection and returns the reply frame;
/// replica-side typed errors are relayed without retrying, transport
/// failures evict the replica and retry exactly once.
fn route_any(
    shared: &OrchShared,
    id: u64,
    model: &str,
    call: &dyn Fn(&mut Client) -> Result<Frame, NetError>,
) -> Frame {
    let mut exclude: Option<String> = None;
    for attempt in 0..2u32 {
        let lease = match shared.membership.pick(model, exclude.as_deref()) {
            Some(l) => l,
            None => {
                shared.metrics.failed.inc();
                return Frame::Error {
                    id,
                    code: ErrorCode::NoReplica,
                    tenant: String::new(),
                    detail: format!("no healthy replica serves model {model:?}"),
                };
            }
        };
        match forward_once(shared, &lease, id, call) {
            Ok(reply) => return reply,
            Err(e) => {
                let worker = lease.worker.clone();
                drop(lease);
                if shared.membership.mark_dead(&worker) {
                    shared.metrics.failovers.inc();
                }
                fail_worker_cleanup(shared, &worker);
                if attempt == 0 {
                    shared.metrics.retried.inc();
                    exclude = Some(worker);
                    continue;
                }
                shared.metrics.failed.inc();
                return Frame::Error {
                    id,
                    code: ErrorCode::WorkerLost,
                    tenant: String::new(),
                    detail: format!("replica {worker:?} failed mid-request: {e}"),
                };
            }
        }
    }
    // Both loop arms return; this is unreachable but typed.
    shared.metrics.failed.inc();
    Frame::Error {
        id,
        code: ErrorCode::NoReplica,
        tenant: String::new(),
        detail: "routing exhausted".to_string(),
    }
}

/// Fans a `ListModels` out to every healthy worker and merges the
/// answers: one entry per `(name, version)` pair, `in_flight` and
/// `resident_bytes` summed across replicas, flags taken from the first
/// replica that reported the pair. Workers that fail mid-query are
/// skipped — a fleet listing is a snapshot, not a transaction.
fn list_cluster_models(shared: &OrchShared, id: u64) -> Frame {
    let mut merged: Vec<WireModelStatus> = Vec::new();
    for lease in shared.membership.lease_all() {
        let listed = forward_once(shared, &lease, id, &|c: &mut Client| {
            c.list_models()
                .map(|models| Frame::ModelList { id, models })
        });
        let worker = lease.worker.clone();
        drop(lease);
        match listed {
            Ok(Frame::ModelList { models, .. }) => {
                for status in models {
                    match merged
                        .iter_mut()
                        .find(|m| m.name == status.name && m.version == status.version)
                    {
                        Some(m) => {
                            m.in_flight += status.in_flight;
                            m.resident_bytes += status.resident_bytes;
                        }
                        None => merged.push(status),
                    }
                }
            }
            // A worker-side typed error on a fleet listing is not
            // fatal to the merge; skip that worker's contribution.
            Ok(_) => {}
            Err(_) => {
                if shared.membership.mark_dead(&worker) {
                    shared.metrics.failovers.inc();
                }
                fail_worker_cleanup(shared, &worker);
            }
        }
    }
    merged.sort_by(|a, b| a.name.cmp(&b.name).then(a.version.cmp(&b.version)));
    Frame::ModelList { id, models: merged }
}

/// One forward on a pooled connection. `Ok` is a reply to relay (the
/// routed response or the replica's typed error); `Err` is a transport
/// failure — the connection is dropped, never checked back in, and the
/// caller fails the replica over.
fn forward_once(
    shared: &OrchShared,
    lease: &Lease,
    id: u64,
    call: &dyn Fn(&mut Client) -> Result<Frame, NetError>,
) -> Result<Frame, NetError> {
    let mut client = shared.pool.checkout(&lease.worker, &lease.addr)?;
    match call(&mut client) {
        Ok(frame) => {
            shared.pool.checkin(&lease.worker, client);
            Ok(frame)
        }
        Err(NetError::Remote {
            code,
            tenant,
            detail,
        }) => {
            // The replica answered; the connection is healthy and the
            // typed error is the client's business, not a failover.
            shared.pool.checkin(&lease.worker, client);
            Ok(Frame::Error {
                id,
                code,
                tenant,
                detail,
            })
        }
        Err(e) => Err(e),
    }
}

/// Drains the whole cluster: stops admitting, sends the shutdown
/// control frame down every worker's control channel, and waits for
/// each drain ack (bounded by the grace period).
fn cascade_shutdown(shared: &Arc<OrchShared>) {
    shared.draining.store(true, Ordering::SeqCst);
    let controls: Vec<(String, Control)> = {
        let mut map = shared
            .controls
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        map.drain().collect()
    };
    // Fan the shutdown out first so worker drains overlap, then
    // collect the acks.
    for (_, control) in &controls {
        let mut w = &control.stream;
        let _ = write_frame(&mut w, &Frame::Shutdown { id: 0 });
    }
    for (worker, control) in &controls {
        let (lock, cv) = control.acked.as_ref();
        let mut done = lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        let deadline = std::time::Instant::now() + shared.cfg.shutdown_grace;
        while !*done {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                break;
            }
            let (guard, _timeout) = cv
                .wait_timeout(done, left)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            done = guard;
        }
        shared.membership.mark_dead(worker);
        shared.pool.purge(worker);
    }
}
