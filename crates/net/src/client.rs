//! Blocking client for the cs-net protocol.
//!
//! [`Client`] owns one TCP connection and issues one request at a time
//! (many-connection load goes through [`crate::load`] instead). Replies
//! are matched against the request id and frame type; anything else is
//! a [`NetError::Protocol`]. Server-side failures arrive as typed
//! [`crate::wire::ErrorCode`]s in [`NetError::Remote`] — including the
//! connection-level ones sent with id 0, such as the connection cap —
//! so a caller can distinguish backpressure
//! ([`NetError::is_overloaded`]) from real errors.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::error::NetError;
use crate::transport::{read_frame, write_frame};
use crate::wire::{ErrorCode, Frame, WireModelStatus, DEFAULT_MAX_PAYLOAD};

/// Client-side connection settings.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientConfig {
    /// TCP connect deadline.
    pub connect_timeout: Duration,
    /// Read deadline per reply (covers queueing and execution on the
    /// server). `None` waits forever.
    pub read_timeout: Option<Duration>,
    /// Write deadline per request.
    pub write_timeout: Option<Duration>,
    /// Largest reply payload this client will accept.
    pub max_payload: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(5),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            max_payload: DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// A successful inference reply, with the server-side execution
/// metadata the response frame carries.
#[derive(Debug, Clone, PartialEq)]
pub struct NetResponse {
    /// Model that produced the outputs.
    pub model: String,
    /// Output activations.
    pub outputs: Vec<f32>,
    /// Simulated accelerator cycles for the batch this request rode in.
    pub cycles: u64,
    /// Simulated energy for the batch, picojoules.
    pub energy_pj: f64,
    /// How many requests shared the batch.
    pub batch_size: u32,
    /// Worker lane that executed the batch.
    pub worker: u32,
    /// Server-side queue+execution latency, microseconds.
    pub latency_us: u64,
    /// Identity of the serving node that executed the request
    /// ("local" for a standalone server, the registered worker name
    /// when routed through an orchestrator).
    pub node: String,
}

/// Resolves `addr` and opens a TCP connection to its first address
/// within `timeout`, with Nagle off: the dial [`Client`] and
/// [`crate::load`] share.
pub(crate) fn dial(addr: &str, timeout: Duration) -> Result<TcpStream, NetError> {
    let resolved: Vec<SocketAddr> = addr
        .to_socket_addrs()
        .map_err(|e| NetError::InvalidConfig(format!("bad address {addr:?}: {e}")))?
        .collect();
    let first = resolved
        .first()
        .ok_or_else(|| NetError::InvalidConfig(format!("address {addr:?} resolves to nothing")))?;
    let stream =
        TcpStream::connect_timeout(first, timeout).map_err(|e| NetError::from_io("connect", &e))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// A blocking connection to a [`crate::NetServer`].
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    max_payload: u32,
    next_id: u64,
}

impl Client {
    /// Connects with default settings.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] / [`NetError::Timeout`] when the server is
    /// unreachable, [`NetError::InvalidConfig`] for a bad address.
    pub fn connect(addr: &str) -> Result<Client, NetError> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connects with explicit settings.
    ///
    /// # Errors
    ///
    /// As [`Client::connect`].
    pub fn connect_with(addr: &str, cfg: ClientConfig) -> Result<Client, NetError> {
        let stream = dial(addr, cfg.connect_timeout)?;
        stream
            .set_read_timeout(cfg.read_timeout)
            .map_err(|e| NetError::from_io("set read timeout", &e))?;
        stream
            .set_write_timeout(cfg.write_timeout)
            .map_err(|e| NetError::from_io("set write timeout", &e))?;
        Ok(Client {
            stream,
            max_payload: cfg.max_payload,
            next_id: 1,
        })
    }

    fn round_trip(&mut self, frame: &Frame) -> Result<Frame, NetError> {
        write_frame(&mut self.stream, frame)?;
        match read_frame(&mut self.stream, self.max_payload)? {
            Some(reply) => Ok(reply),
            None => Err(NetError::ConnectionClosed),
        }
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn check_id(sent: u64, got: u64, what: &str) -> Result<(), NetError> {
        if sent == got {
            Ok(())
        } else {
            Err(NetError::Protocol(format!(
                "{what} reply id {got} does not match request id {sent}"
            )))
        }
    }

    /// The typed error an error frame carries. It answers either the
    /// request `sent` or, with id 0, the whole connection (the
    /// connection cap, a malformed stream).
    fn remote_error(
        sent: u64,
        got: u64,
        code: ErrorCode,
        tenant: String,
        detail: String,
    ) -> NetError {
        if got != 0 && got != sent {
            return NetError::Protocol(format!(
                "error reply id {got} does not match request id {sent}"
            ));
        }
        NetError::Remote {
            code,
            tenant,
            detail,
        }
    }

    /// Runs one inference and blocks for the reply.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] for server-side failures (unknown model,
    /// shape mismatch, overload, shutdown), transport errors otherwise.
    pub fn request(&mut self, model: &str, input: &[f32]) -> Result<NetResponse, NetError> {
        self.request_as(model, "", input)
    }

    /// Runs one inference billed against `tenant` and blocks for the
    /// reply. An empty tenant is the server's "default" lane.
    ///
    /// # Errors
    ///
    /// As [`Client::request`]; additionally, a tenant whose quota is
    /// exhausted gets [`crate::wire::ErrorCode::Overloaded`] with the
    /// tenant echoed in the error frame.
    pub fn request_as(
        &mut self,
        model: &str,
        tenant: &str,
        input: &[f32],
    ) -> Result<NetResponse, NetError> {
        let id = self.take_id();
        let reply = self.round_trip(&Frame::Request {
            id,
            model: model.to_string(),
            tenant: tenant.to_string(),
            input: input.to_vec(),
        })?;
        match reply {
            Frame::Response {
                id: rid,
                model,
                outputs,
                cycles,
                energy_pj,
                batch_size,
                worker,
                latency_us,
                node,
            } => {
                Self::check_id(id, rid, "response")?;
                Ok(NetResponse {
                    model,
                    outputs,
                    cycles,
                    energy_pj,
                    batch_size,
                    worker,
                    latency_us,
                    node,
                })
            }
            Frame::Error {
                id: rid,
                code,
                tenant,
                detail,
            } => Err(Self::remote_error(id, rid, code, tenant, detail)),
            other => Err(NetError::Protocol(format!(
                "expected response or error, got {:?}",
                other.frame_type()
            ))),
        }
    }

    /// Liveness probe; returns when the matching pong arrives.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`NetError::Protocol`] for a wrong reply.
    pub fn ping(&mut self) -> Result<(), NetError> {
        let id = self.take_id();
        match self.round_trip(&Frame::Ping { id })? {
            Frame::Pong { id: rid } => Self::check_id(id, rid, "pong"),
            other => Err(NetError::Protocol(format!(
                "expected pong, got {:?}",
                other.frame_type()
            ))),
        }
    }

    /// Asks the server for a model's input/output widths.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] with [`crate::wire::ErrorCode::UnknownModel`]
    /// when the name is not registered; transport errors otherwise.
    pub fn model_info(&mut self, model: &str) -> Result<(u32, u32), NetError> {
        let id = self.take_id();
        let reply = self.round_trip(&Frame::Query {
            id,
            model: model.to_string(),
        })?;
        match reply {
            Frame::Info {
                id: rid,
                n_in,
                n_out,
                ..
            } => {
                Self::check_id(id, rid, "info")?;
                Ok((n_in, n_out))
            }
            Frame::Error {
                id: rid,
                code,
                tenant,
                detail,
            } => Err(Self::remote_error(id, rid, code, tenant, detail)),
            other => Err(NetError::Protocol(format!(
                "expected info, got {:?}",
                other.frame_type()
            ))),
        }
    }

    /// Parses a ModelList/Error reply shared by the lifecycle calls.
    fn expect_model_list(
        id: u64,
        reply: Frame,
        what: &str,
    ) -> Result<Vec<WireModelStatus>, NetError> {
        match reply {
            Frame::ModelList { id: rid, models } => {
                Self::check_id(id, rid, what)?;
                Ok(models)
            }
            Frame::Error {
                id: rid,
                code,
                tenant,
                detail,
            } => Err(Self::remote_error(id, rid, code, tenant, detail)),
            other => Err(NetError::Protocol(format!(
                "expected model list, got {:?}",
                other.frame_type()
            ))),
        }
    }

    /// Hot-loads `model@version` from the server's on-disk registry —
    /// as the new primary when `canary_pct` is 0, as a canary taking
    /// `canary_pct`% of the model's traffic otherwise. Returns the
    /// post-load resident set.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] with
    /// [`crate::wire::ErrorCode::ModelNotFound`] when the registry has
    /// no such container, `VersionMismatch` for shape or promotion
    /// inconsistencies, `RegistryFull` when the memory budget cannot
    /// fit it; transport errors otherwise.
    pub fn load_model(
        &mut self,
        model: &str,
        version: u32,
        canary_pct: u8,
    ) -> Result<Vec<WireModelStatus>, NetError> {
        let id = self.take_id();
        let reply = self.round_trip(&Frame::LoadModel {
            id,
            model: model.to_string(),
            version,
            canary_pct,
        })?;
        Self::expect_model_list(id, reply, "load-model ack")
    }

    /// Unloads a resident `model@version` (drains its in-flight
    /// requests first). Returns the post-unload resident set.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] with
    /// [`crate::wire::ErrorCode::ModelNotFound`] when the version is
    /// not resident, `VersionMismatch` when it is the primary of a
    /// multi-version model; transport errors otherwise.
    pub fn unload_model(
        &mut self,
        model: &str,
        version: u32,
    ) -> Result<Vec<WireModelStatus>, NetError> {
        let id = self.take_id();
        let reply = self.round_trip(&Frame::UnloadModel {
            id,
            model: model.to_string(),
            version,
        })?;
        Self::expect_model_list(id, reply, "unload-model ack")
    }

    /// Lists the server's resident model versions, sorted by
    /// `(name, version)`.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`NetError::Protocol`] for a wrong reply.
    pub fn list_models(&mut self) -> Result<Vec<WireModelStatus>, NetError> {
        let id = self.take_id();
        let reply = self.round_trip(&Frame::ListModels { id })?;
        Self::expect_model_list(id, reply, "model list")
    }

    /// Tells the server to drain all in-flight work and stop. The ack
    /// arrives only after the drain completes, so when this returns the
    /// server has answered every request it accepted.
    ///
    /// # Errors
    ///
    /// Transport errors, or [`NetError::Protocol`] for a wrong reply.
    pub fn shutdown_server(&mut self) -> Result<(), NetError> {
        let id = self.take_id();
        match self.round_trip(&Frame::Shutdown { id })? {
            Frame::ShutdownAck { id: rid } => Self::check_id(id, rid, "shutdown ack"),
            other => Err(NetError::Protocol(format!(
                "expected shutdown ack, got {:?}",
                other.frame_type()
            ))),
        }
    }
}
