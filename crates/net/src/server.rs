//! The TCP frontend for the serving runtime.
//!
//! [`NetServer`] is one epoll event loop (the crate's `reactor` module) that
//! owns the listener and every nonblocking connection. It decodes
//! frames, submits requests to the wrapped [`cs_serve::Server`] and
//! writes replies back; the workers that finish a job ring the loop
//! directly, so the process runs the workers plus this one thread.
//!
//! A client may pipeline requests and responses come back in
//! per-connection FIFO order while the server batches across
//! connections; admission backpressure
//! ([`cs_serve::ServeError::Overloaded`]) travels to the client as a
//! typed error frame rather than blocking the socket; a client that
//! stops draining replies is disconnected once its bounded reply window
//! has been full past [`NetConfig::slow_consumer_grace`] (counted in
//! `net_slow_consumer_disconnects_total`).
//!
//! A [`crate::wire::Frame::Shutdown`] control frame drains the serving
//! runtime through [`cs_serve::DrainHandle`] — every in-flight request
//! is answered first — then acks and stops the listener, which is how
//! `cs-netserve` terminates without signal handling.
//!
//! The whole path is metered through `cs-telemetry`: a connections
//! gauge, frames in/out and decode-error counters, and a
//! socket-to-response latency histogram (decode of the request frame to
//! the response frame fully written).

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cs_registry::{RegistryError, RegistryStore};
use cs_serve::{DrainHandle, ServeSnapshot, Server};
use cs_telemetry::{
    buckets, Clock, Counter, Gauge, Histogram, Labels, MonotonicClock, NoopRecorder, Recorder,
};

use crate::error::NetError;
use crate::reactor::Mailbox;
use crate::wire::{ErrorCode, Frame, DEFAULT_MAX_PAYLOAD};

/// The network data plane. The epoll reactor is the only one; the type
/// stays so configurations that name it (`"reactor"`) keep parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// One epoll event loop owning every socket.
    #[default]
    Reactor,
}

impl std::str::FromStr for Transport {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Transport, NetError> {
        if s.eq_ignore_ascii_case("reactor") {
            Ok(Transport::Reactor)
        } else {
            Err(NetError::InvalidConfig(format!(
                "unknown transport {s:?} (the only data plane is \"reactor\")"
            )))
        }
    }
}

/// Network frontend configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NetConfig {
    /// Address to bind (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Concurrent-connection cap; excess connections are answered with
    /// a [`ErrorCode::ConnectionLimit`] error frame and closed.
    pub max_connections: usize,
    /// Per-connection read deadline; an idle connection is closed when
    /// it elapses. `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// How long a connection may owe reply bytes without the socket
    /// taking any before it is cut as a slow consumer. `None` waits
    /// forever.
    pub write_timeout: Option<Duration>,
    /// Payload-length cap enforced before any allocation.
    pub max_payload: u32,
    /// The data plane; [`Transport::Reactor`] is its only value.
    pub transport: Transport,
    /// Outstanding replies a single connection may have queued before
    /// the server stops decoding further frames from it (pipelining
    /// backpressure) — the bound on per-connection reply buffering.
    pub max_pending_replies: usize,
    /// How long a connection's reply queue may stay full (the client
    /// not draining responses) before the server disconnects it as a
    /// slow consumer. `None` waits forever.
    pub slow_consumer_grace: Option<Duration>,
    /// Directory of an on-disk `CSMR` model registry (see
    /// [`cs_registry::RegistryStore`]). When set, `LoadModel` control
    /// frames hot-load `(model, version)` containers from it; when
    /// `None`, loads are refused with an [`ErrorCode::Internal`]
    /// error frame.
    pub registry_dir: Option<String>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 64,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_payload: DEFAULT_MAX_PAYLOAD,
            transport: Transport::Reactor,
            max_pending_replies: 64,
            slow_consumer_grace: Some(Duration::from_secs(5)),
            registry_dir: None,
        }
    }
}

impl NetConfig {
    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), NetError> {
        if self.max_connections == 0 {
            return Err(NetError::InvalidConfig(
                "max_connections must be at least 1".to_string(),
            ));
        }
        if self.max_payload < 64 {
            return Err(NetError::InvalidConfig(format!(
                "max_payload {} is too small to carry any request",
                self.max_payload
            )));
        }
        if self.max_pending_replies == 0 {
            return Err(NetError::InvalidConfig(
                "max_pending_replies must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// The network-path metric handles, fetched once at startup.
pub(crate) struct NetMetrics {
    pub(crate) connections: Gauge,
    pub(crate) accepted: Counter,
    pub(crate) rejected: Counter,
    pub(crate) frames_in: Counter,
    pub(crate) frames_out: Counter,
    pub(crate) decode_errors: Counter,
    pub(crate) requests: Counter,
    pub(crate) slow_consumer: Counter,
    pub(crate) latency: Histogram,
}

impl NetMetrics {
    fn new(recorder: &dyn Recorder) -> Self {
        NetMetrics {
            connections: recorder.gauge(
                "net_connections",
                "Currently open client connections",
                Labels::new(),
            ),
            accepted: recorder.counter(
                "net_connections_accepted_total",
                "Connections accepted",
                Labels::new(),
            ),
            rejected: recorder.counter(
                "net_connections_rejected_total",
                "Connections refused at the connection cap",
                Labels::new(),
            ),
            frames_in: recorder.counter(
                "net_frames_in_total",
                "Frames decoded from clients",
                Labels::new(),
            ),
            frames_out: recorder.counter(
                "net_frames_out_total",
                "Frames written to clients",
                Labels::new(),
            ),
            decode_errors: recorder.counter(
                "net_decode_errors_total",
                "Malformed or protocol-violating client frames",
                Labels::new(),
            ),
            requests: recorder.counter(
                "net_requests_total",
                "Inference requests received over the network",
                Labels::new(),
            ),
            slow_consumer: recorder.counter(
                "net_slow_consumer_disconnects_total",
                "Connections cut because the client stopped draining \
                 replies past the slow-consumer grace period",
                Labels::new(),
            ),
            latency: recorder.histogram(
                "net_request_latency_us",
                "Socket-to-response latency: request frame decoded to \
                 response frame fully written (µs)",
                Labels::new(),
                &buckets::duration_us(),
            ),
        }
    }
}

/// State shared by the event loop, its lifecycle threads, and the
/// owning [`NetServer`] / [`NetShutdownHandle`]s.
pub(crate) struct Shared {
    pub(crate) serve: Server,
    pub(crate) drain: DrainHandle,
    /// On-disk model store backing `LoadModel` control frames.
    pub(crate) registry: Option<RegistryStore>,
    pub(crate) cfg: NetConfig,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) metrics: NetMetrics,
    pub(crate) stop: AtomicBool,
    /// Where finished jobs ring the loop. Its own `Arc`: jobs in the
    /// serve queue hold it, and they must not hold the server.
    pub(crate) mailbox: Arc<Mailbox>,
    /// Signalled when a remote shutdown control frame has drained the
    /// server ([`NetServer::wait_for_shutdown`] blocks on it).
    shutdown_signal: (Mutex<bool>, Condvar),
    local_addr: SocketAddr,
}

impl Shared {
    /// Marks the frontend as stopping, wakes the event loop, and
    /// signals [`NetServer::wait_for_shutdown`] waiters. Idempotent.
    pub(crate) fn begin_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.mailbox.wake();
        let (lock, cv) = &self.shutdown_signal;
        let mut stopped = lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        *stopped = true;
        cv.notify_all();
    }
}

/// The running TCP frontend. Owns the wrapped [`Server`]; dropping or
/// [`NetServer::shutdown`] stops the listener, closes connections,
/// drains the serving runtime and joins the loop thread.
pub struct NetServer {
    shared: Arc<Shared>,
    loop_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.local_addr())
            .finish_non_exhaustive()
    }
}

impl NetServer {
    /// Starts the frontend around an already-running server, without
    /// telemetry.
    ///
    /// # Errors
    ///
    /// Invalid configs and bind failures.
    pub fn start(serve: Server, cfg: NetConfig) -> Result<NetServer, NetError> {
        NetServer::start_with_recorder(serve, cfg, Arc::new(NoopRecorder))
    }

    /// Starts the frontend with a telemetry recorder. Pass the same
    /// [`cs_telemetry::Registry`] the wrapped server records to and the
    /// JSONL/Prometheus dump carries the serving and network series
    /// side by side.
    ///
    /// # Errors
    ///
    /// Invalid configs and bind failures.
    pub fn start_with_recorder(
        serve: Server,
        cfg: NetConfig,
        recorder: Arc<dyn Recorder>,
    ) -> Result<NetServer, NetError> {
        cfg.validate()?;
        let registry = match &cfg.registry_dir {
            Some(dir) => Some(RegistryStore::open(dir).map_err(|e| {
                NetError::InvalidConfig(format!("opening model registry {dir:?}: {e}"))
            })?),
            None => None,
        };
        let listener =
            TcpListener::bind(&cfg.addr).map_err(|e| NetError::from_io("bind listener", &e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| NetError::from_io("resolve bound address", &e))?;
        let mailbox = Mailbox::new().map_err(|e| NetError::from_io("create wake pipe", &e))?;
        let shared = Arc::new(Shared {
            drain: serve.drain_handle(),
            serve,
            registry,
            cfg,
            clock: Arc::new(MonotonicClock::new()),
            metrics: NetMetrics::new(recorder.as_ref()),
            stop: AtomicBool::new(false),
            mailbox: Arc::new(mailbox),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
            local_addr,
        });
        let loop_thread = crate::reactor::spawn(Arc::clone(&shared), listener)?;
        Ok(NetServer {
            shared,
            loop_thread: Some(loop_thread),
        })
    }

    /// The bound address (resolves the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The wrapped serving runtime — the in-process lane differential
    /// tests submit to directly.
    pub fn server(&self) -> &Server {
        &self.shared.serve
    }

    /// Blocks until a client's shutdown control frame has drained the
    /// server (or [`NetServer::shutdown`] was called from elsewhere).
    pub fn wait_for_shutdown(&self) {
        let (lock, cv) = &self.shared.shutdown_signal;
        let mut stopped = lock.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        while !*stopped {
            stopped = cv
                .wait(stopped)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Stops accepting, closes every connection, drains the serving
    /// runtime, joins the loop thread and returns the final snapshot.
    pub fn shutdown(mut self) -> ServeSnapshot {
        self.stop_and_join();
        self.shared.serve.stats()
    }

    /// A cloneable handle that can initiate this frontend's shutdown
    /// from another thread (the worker agent uses it when the
    /// orchestrator commands a drain). After
    /// [`NetShutdownHandle::initiate`] returns,
    /// [`NetServer::wait_for_shutdown`] unblocks and the owner should
    /// call [`NetServer::shutdown`] to join the loop.
    pub fn shutdown_handle(&self) -> NetShutdownHandle {
        NetShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    fn stop_and_join(&mut self) {
        self.shared.begin_stop();
        if let Some(t) = self.loop_thread.take() {
            let _ = t.join();
        }
        self.shared.drain.shutdown_and_drain();
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.loop_thread.is_some() {
            self.stop_and_join();
        }
    }
}

/// Remote-control handle for a running [`NetServer`]: drains the
/// serving runtime and signals the frontend to stop, without owning it.
#[derive(Clone)]
pub struct NetShutdownHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for NetShutdownHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetShutdownHandle")
            .field("addr", &self.shared.local_addr)
            .finish_non_exhaustive()
    }
}

impl NetShutdownHandle {
    /// Drains every in-flight request, then marks the frontend as
    /// stopping and wakes [`NetServer::wait_for_shutdown`] waiters.
    /// Idempotent; the owner still calls [`NetServer::shutdown`] to
    /// join the loop.
    pub fn initiate(&self) {
        self.shared.drain.shutdown_and_drain();
        self.shared.begin_stop();
    }
}

/// Builds the reply to a [`Frame::Query`].
pub(crate) fn query_reply(serve: &Server, id: u64, model: String) -> Frame {
    match serve.lookup(&model) {
        Some(m) => Frame::Info {
            id,
            model,
            n_in: m.n_in as u32,
            n_out: m.n_out as u32,
        },
        None => Frame::Error {
            id,
            code: ErrorCode::UnknownModel,
            tenant: String::new(),
            detail: format!("unknown model {model:?}"),
        },
    }
}

/// Answers a model-lifecycle control frame (`LoadModel` /
/// `UnloadModel` / `ListModels`) against the serving runtime and the
/// optional on-disk registry.
///
/// Loads resolve `(model, version)` in the on-disk store, decode the
/// `CSMR` container, and hand the artifact to the runtime, which
/// builds kernels outside its locks so serving never stalls on a
/// load. Successful loads and unloads ack with the post-operation
/// [`Frame::ModelList`], so the client observes the state it just
/// created without a follow-up round trip.
pub(crate) fn lifecycle_reply(
    serve: &Server,
    registry: Option<&RegistryStore>,
    frame: &Frame,
) -> Frame {
    match frame {
        Frame::LoadModel {
            id,
            model,
            version,
            canary_pct,
        } => {
            let id = *id;
            match registry {
                None => Frame::Error {
                    id,
                    code: ErrorCode::Internal,
                    tenant: String::new(),
                    detail: "server has no on-disk model registry configured".to_string(),
                },
                Some(store) => match store.load(model, *version) {
                    Ok(artifact) => match serve.load_artifact(&artifact, *canary_pct) {
                        Ok(()) => Frame::from_model_list(id, &serve.list_models()),
                        Err(e) => Frame::from_serve_error(id, &e),
                    },
                    Err(RegistryError::NotFound { .. }) => Frame::Error {
                        id,
                        code: ErrorCode::ModelNotFound,
                        tenant: String::new(),
                        detail: format!("model {model}@v{version} is not in the registry"),
                    },
                    Err(e) => Frame::Error {
                        id,
                        code: ErrorCode::Internal,
                        tenant: String::new(),
                        detail: format!("loading {model}@v{version}: {e}"),
                    },
                },
            }
        }
        Frame::UnloadModel { id, model, version } => match serve.unload_model(model, *version) {
            Ok(()) => Frame::from_model_list(*id, &serve.list_models()),
            Err(e) => Frame::from_serve_error(*id, &e),
        },
        Frame::ListModels { id } => Frame::from_model_list(*id, &serve.list_models()),
        other => Frame::Error {
            id: other.id(),
            code: ErrorCode::Internal,
            tenant: String::new(),
            detail: "not a lifecycle control frame".to_string(),
        },
    }
}
