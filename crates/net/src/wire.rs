//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message is one [`Frame`], encoded as a fixed 16-byte header
//! followed by a type-specific payload (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     2  magic        0xCA 0x5E
//!      2     1  version      1
//!      3     1  frame type   (see FrameType)
//!      4     8  request id   u64, echoed verbatim in the reply
//!     12     4  payload len  u32, bytes after the header
//! ```
//!
//! The codec is pure functions over byte slices — no I/O, no global
//! state — so it is fuzzable and exactly testable. Decoding is strict:
//! a hostile length prefix is rejected against [`DEFAULT_MAX_PAYLOAD`]
//! (or a caller-supplied cap) *before* any payload allocation, inner
//! lengths (strings, f32 arrays) are validated against the remaining
//! payload before their buffers are reserved, and a payload that is
//! not fully consumed is a [`WireError::BadPayload`]. Every valid
//! frame round-trips: `decode(encode(f)) == f` and
//! `encode(decode(bytes)) == bytes`.
//!
//! Encoding makes one allocation per frame (none with
//! [`Frame::encode_into`] into a buffer that has room): the payload
//! writers first run over a byte counter to size the frame, the buffer
//! is reserved once, and the header and payload are written in place
//! before the length field is patched. `f32` arrays move in one
//! `chunks_exact(4)` pass each way, into a buffer sized once (the
//! decoder's `collect` takes its exact length from the iterator).
//!
//! Strings are `u16 length + UTF-8 bytes`; f32 arrays are `u32 count +
//! 4 bytes per element (IEEE-754 bit pattern)`, which preserves NaN
//! payloads and signed zeros so served outputs stay bit-identical
//! across the wire.

use std::fmt;

use cs_serve::{InferResponse, ServeError};

/// Two-byte frame preamble (`0xCA5E`).
pub const MAGIC: [u8; 2] = [0xCA, 0x5E];

/// Protocol version this build speaks. Decoders reject anything else
/// with [`WireError::UnsupportedVersion`]; version bumps are additive
/// (new frame types) and never reuse retired type codes. Version 2
/// added the cluster control frames ([`Frame::Register`] through
/// [`Frame::DeregisterAck`]) and the `node` field on
/// [`Frame::Response`]. Version 3 added the model-lifecycle control
/// frames ([`Frame::LoadModel`] through [`Frame::ModelList`]), the
/// `tenant` field on [`Frame::Request`] and [`Frame::Error`], and the
/// lifecycle error codes ([`ErrorCode::ModelNotFound`],
/// [`ErrorCode::VersionMismatch`], [`ErrorCode::RegistryFull`]).
pub const WIRE_VERSION: u8 = 3;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 16;

/// Default payload-length cap. The served models take a few thousand
/// f32 inputs at most, so 1 MiB leaves two orders of magnitude of
/// headroom while bounding what a hostile length prefix can make the
/// decoder allocate.
pub const DEFAULT_MAX_PAYLOAD: u32 = 1 << 20;

/// Frame type codes (header byte 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// Client → server inference request.
    Request = 1,
    /// Server → client inference response.
    Response = 2,
    /// Server → client typed failure.
    Error = 3,
    /// Client → server liveness probe.
    Ping = 4,
    /// Server → client liveness reply.
    Pong = 5,
    /// Client → server graceful-shutdown control frame.
    Shutdown = 6,
    /// Server → client acknowledgement that the drain completed.
    ShutdownAck = 7,
    /// Client → server model-shape query.
    Query = 8,
    /// Server → client model-shape reply.
    Info = 9,
    /// Worker → orchestrator enrollment announcement.
    Register = 10,
    /// Orchestrator → worker enrollment acknowledgement.
    RegisterAck = 11,
    /// Worker → orchestrator liveness beacon.
    Heartbeat = 12,
    /// Worker → orchestrator graceful leave announcement.
    Deregister = 13,
    /// Orchestrator → worker leave acknowledgement.
    DeregisterAck = 14,
    /// Client → server: load a `(model, version)` from the server's
    /// on-disk registry, optionally as a canary.
    LoadModel = 15,
    /// Client → server: unload a resident `(model, version)`.
    UnloadModel = 16,
    /// Client → server: list resident model versions.
    ListModels = 17,
    /// Server → client reply to [`FrameType::ListModels`], and the ack
    /// for [`FrameType::LoadModel`] / [`FrameType::UnloadModel`].
    ModelList = 18,
}

impl FrameType {
    fn from_u8(v: u8) -> Option<FrameType> {
        Some(match v {
            1 => FrameType::Request,
            2 => FrameType::Response,
            3 => FrameType::Error,
            4 => FrameType::Ping,
            5 => FrameType::Pong,
            6 => FrameType::Shutdown,
            7 => FrameType::ShutdownAck,
            8 => FrameType::Query,
            9 => FrameType::Info,
            10 => FrameType::Register,
            11 => FrameType::RegisterAck,
            12 => FrameType::Heartbeat,
            13 => FrameType::Deregister,
            14 => FrameType::DeregisterAck,
            15 => FrameType::LoadModel,
            16 => FrameType::UnloadModel,
            17 => FrameType::ListModels,
            18 => FrameType::ModelList,
            _ => return None,
        })
    }
}

/// Typed failure codes carried by [`Frame::Error`], mapped one-to-one
/// from [`ServeError`] plus the network-only conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The request named a model the registry does not hold.
    UnknownModel = 1,
    /// The input length does not match the model's input width.
    ShapeMismatch = 2,
    /// The admission queue is full; back off and retry.
    Overloaded = 3,
    /// The server is draining and no longer admits requests.
    ShuttingDown = 4,
    /// The worker processing the request died before answering.
    WorkerLost = 5,
    /// A server-side failure outside the request contract.
    Internal = 6,
    /// The server could not decode the client's frame.
    Malformed = 7,
    /// The per-server connection cap was reached.
    ConnectionLimit = 8,
    /// No healthy replica holds the requested model.
    NoReplica = 9,
    /// A lifecycle operation addressed a `(model, version)` that is
    /// not resident (and, for loads, not in the on-disk registry).
    ModelNotFound = 10,
    /// A lifecycle operation contradicted the resident versions
    /// (unloading the primary, canarying the primary, shape drift).
    VersionMismatch = 11,
    /// Loading would exceed the resident-memory budget even after
    /// evicting everything evictable.
    RegistryFull = 12,
}

impl ErrorCode {
    /// Decodes the u16 wire value.
    pub fn from_u16(v: u16) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::UnknownModel,
            2 => ErrorCode::ShapeMismatch,
            3 => ErrorCode::Overloaded,
            4 => ErrorCode::ShuttingDown,
            5 => ErrorCode::WorkerLost,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Malformed,
            8 => ErrorCode::ConnectionLimit,
            9 => ErrorCode::NoReplica,
            10 => ErrorCode::ModelNotFound,
            11 => ErrorCode::VersionMismatch,
            12 => ErrorCode::RegistryFull,
            _ => return None,
        })
    }

    /// The code a [`ServeError`] maps to on the wire.
    pub fn from_serve(e: &ServeError) -> ErrorCode {
        match e {
            ServeError::UnknownModel(_) => ErrorCode::UnknownModel,
            ServeError::ShapeMismatch { .. } => ErrorCode::ShapeMismatch,
            ServeError::Overloaded { .. } => ErrorCode::Overloaded,
            ServeError::ModelNotFound { .. } => ErrorCode::ModelNotFound,
            ServeError::VersionMismatch { .. } => ErrorCode::VersionMismatch,
            ServeError::RegistryFull { .. } => ErrorCode::RegistryFull,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::WorkerLost => ErrorCode::WorkerLost,
            ServeError::InvalidConfig(_) | ServeError::Accel(_) | ServeError::Compress(_) => {
                ErrorCode::Internal
            }
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorCode::UnknownModel => "unknown-model",
            ErrorCode::ShapeMismatch => "shape-mismatch",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::WorkerLost => "worker-lost",
            ErrorCode::Internal => "internal",
            ErrorCode::Malformed => "malformed",
            ErrorCode::ConnectionLimit => "connection-limit",
            ErrorCode::NoReplica => "no-replica",
            ErrorCode::ModelNotFound => "model-not-found",
            ErrorCode::VersionMismatch => "version-mismatch",
            ErrorCode::RegistryFull => "registry-full",
        };
        f.write_str(s)
    }
}

/// Everything that can be wrong with bytes on the wire. Header-level
/// variants ([`WireError::BadMagic`], [`WireError::UnsupportedVersion`],
/// [`WireError::UnknownFrameType`], [`WireError::Oversized`]) mean the
/// stream cannot be resynchronized and the connection must close;
/// [`WireError::Truncated`] on a finished stream means the peer died
/// mid-frame; [`WireError::BadPayload`] means the header was sane but
/// the payload contradicts itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first two bytes are not [`MAGIC`].
    BadMagic {
        /// The bytes received instead.
        got: [u8; 2],
    },
    /// The version byte names a protocol this build does not speak.
    UnsupportedVersion {
        /// The version received.
        got: u8,
    },
    /// The frame-type byte is not a known [`FrameType`].
    UnknownFrameType {
        /// The type byte received.
        got: u8,
    },
    /// The length prefix exceeds the payload cap; rejected before any
    /// allocation.
    Oversized {
        /// Length the header claimed.
        len: u32,
        /// Cap it was checked against.
        max: u32,
    },
    /// The buffer ends mid-frame (only raised by whole-message decodes;
    /// the streaming decoder reports "need more bytes" instead).
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes the frame needs in total.
        need: usize,
    },
    /// The header was valid but the payload is inconsistent with it.
    BadPayload {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic { got } => {
                write!(f, "bad magic {:02x}{:02x} (want ca5e)", got[0], got[1])
            }
            WireError::UnsupportedVersion { got } => {
                write!(f, "unsupported wire version {got} (speak {WIRE_VERSION})")
            }
            WireError::UnknownFrameType { got } => write!(f, "unknown frame type {got}"),
            WireError::Oversized { len, max } => {
                write!(f, "payload length {len} exceeds the {max}-byte cap")
            }
            WireError::Truncated { have, need } => {
                write!(f, "frame truncated: have {have} of {need} bytes")
            }
            WireError::BadPayload { reason } => write!(f, "bad payload: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A parsed frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Frame type (already validated).
    pub frame_type: FrameType,
    /// Request id echoed between request and reply.
    pub id: u64,
    /// Payload length in bytes (already bounded by the cap).
    pub payload_len: u32,
}

/// Validates a full 16-byte header. The payload cap is enforced here,
/// before the caller allocates anything for the payload.
///
/// # Errors
///
/// Header-level [`WireError`]s only (magic, version, type, cap).
pub fn parse_header(bytes: &[u8; HEADER_LEN], max_payload: u32) -> Result<Header, WireError> {
    if bytes[0..2] != MAGIC {
        return Err(WireError::BadMagic {
            got: [bytes[0], bytes[1]],
        });
    }
    if bytes[2] != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion { got: bytes[2] });
    }
    let frame_type =
        FrameType::from_u8(bytes[3]).ok_or(WireError::UnknownFrameType { got: bytes[3] })?;
    let id = u64::from_le_bytes([
        bytes[4], bytes[5], bytes[6], bytes[7], bytes[8], bytes[9], bytes[10], bytes[11],
    ]);
    let payload_len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    if payload_len > max_payload {
        return Err(WireError::Oversized {
            len: payload_len,
            max: max_payload,
        });
    }
    Ok(Header {
        frame_type,
        id,
        payload_len,
    })
}

/// One protocol message. `id` pairs replies with requests; the server
/// echoes it verbatim and preserves per-connection FIFO order, so a
/// client may pipeline requests and match responses by position or id.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Run `input` through `model`.
    Request {
        /// Request id, echoed in the reply.
        id: u64,
        /// Registry name of the model.
        model: String,
        /// Tenant the request is billed against (empty = "default").
        tenant: String,
        /// Input activations.
        input: Vec<f32>,
    },
    /// The completed inference with its simulated hardware cost (the
    /// wire twin of [`cs_serve::InferResponse`]).
    Response {
        /// Id of the request this answers.
        id: u64,
        /// Model that produced the outputs.
        model: String,
        /// Output neuron values, bit-exact.
        outputs: Vec<f32>,
        /// Simulated accelerator cycles (0 on engine backends).
        cycles: u64,
        /// Simulated energy in picojoules (0.0 on engine backends).
        energy_pj: f64,
        /// Size of the batch the request rode in.
        batch_size: u32,
        /// Worker lane that executed it.
        worker: u32,
        /// Server-side end-to-end latency (µs).
        latency_us: u64,
        /// Identity of the serving node that executed the request
        /// ("local" for a standalone server); lets cluster clients
        /// attribute responses to replicas.
        node: String,
    },
    /// A typed failure answering the frame with the same id (or id 0
    /// for connection-level failures such as a decode error).
    Error {
        /// Id of the request this answers (0 = connection-level).
        id: u64,
        /// Typed failure code.
        code: ErrorCode,
        /// Tenant the failed request belonged to (empty when the
        /// failure is not attributable to a tenant, e.g. a decode
        /// error). Lets a client account rejections per tenant
        /// without parsing `detail`.
        tenant: String,
        /// Human-readable specifics.
        detail: String,
    },
    /// Liveness probe.
    Ping {
        /// Echoed in the pong.
        id: u64,
    },
    /// Liveness reply.
    Pong {
        /// Id of the ping this answers.
        id: u64,
    },
    /// Graceful-shutdown control frame: the server stops admitting,
    /// drains in-flight work, acks, and stops accepting connections.
    Shutdown {
        /// Echoed in the ack.
        id: u64,
    },
    /// The drain completed; the server is going away.
    ShutdownAck {
        /// Id of the shutdown frame this answers.
        id: u64,
    },
    /// Ask for a model's input/output widths (so a load generator can
    /// shape requests without out-of-band configuration).
    Query {
        /// Echoed in the info reply.
        id: u64,
        /// Registry name of the model.
        model: String,
    },
    /// Reply to [`Frame::Query`].
    Info {
        /// Id of the query this answers.
        id: u64,
        /// Registry name of the model.
        model: String,
        /// Input width of the model.
        n_in: u32,
        /// Output width of the model.
        n_out: u32,
    },
    /// Worker → orchestrator: enroll this node and the models it
    /// serves. Sent once, immediately after the worker dials the
    /// orchestrator; the connection it arrives on becomes that
    /// worker's control channel.
    Register {
        /// Echoed in the ack.
        id: u64,
        /// Unique worker name (the orchestrator rejects duplicates).
        worker: String,
        /// Address (host:port) where the worker serves requests.
        addr: String,
        /// Registry names of the models this worker can execute.
        models: Vec<String>,
    },
    /// Orchestrator → worker: enrollment accepted.
    RegisterAck {
        /// Id of the register frame this answers.
        id: u64,
        /// Interval at which the worker must heartbeat; missing
        /// roughly three in a row gets the worker evicted.
        heartbeat_ms: u32,
    },
    /// Worker → orchestrator: liveness beacon, resets the eviction
    /// deadline.
    Heartbeat {
        /// Beacon sequence number (not echoed).
        id: u64,
        /// Name the worker registered under.
        worker: String,
        /// Requests currently in flight on the worker (advisory).
        outstanding: u32,
    },
    /// Worker → orchestrator: graceful leave; the orchestrator stops
    /// routing to this worker before acking.
    Deregister {
        /// Echoed in the ack.
        id: u64,
        /// Name the worker registered under.
        worker: String,
    },
    /// Orchestrator → worker: leave acknowledged, no new requests
    /// will arrive.
    DeregisterAck {
        /// Id of the deregister frame this answers.
        id: u64,
    },
    /// Client → server: load `model@version` from the server's
    /// on-disk registry into the live set. With `canary_pct == 0` the
    /// version becomes (or replaces) the primary; with `1..=100` it
    /// becomes a canary taking that share of the model's traffic.
    /// Acked with [`Frame::ModelList`] carrying the post-load state.
    LoadModel {
        /// Echoed in the ack.
        id: u64,
        /// Registry name of the model.
        model: String,
        /// Version to load.
        version: u32,
        /// Canary traffic share in percent (0 = load as primary).
        canary_pct: u8,
    },
    /// Client → server: unload a resident `(model, version)`. The
    /// primary of a multi-version model cannot be unloaded. Acked
    /// with [`Frame::ModelList`] carrying the post-unload state.
    UnloadModel {
        /// Echoed in the ack.
        id: u64,
        /// Registry name of the model.
        model: String,
        /// Version to unload.
        version: u32,
    },
    /// Client → server: list resident model versions.
    ListModels {
        /// Echoed in the reply.
        id: u64,
    },
    /// Server → client: the resident model versions, sorted by
    /// `(name, version)`. Also the ack for [`Frame::LoadModel`] and
    /// [`Frame::UnloadModel`].
    ModelList {
        /// Id of the frame this answers.
        id: u64,
        /// One entry per resident `(model, version)`.
        models: Vec<WireModelStatus>,
    },
}

/// One resident model version as reported by [`Frame::ModelList`] —
/// the wire twin of [`cs_serve::ModelStatus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireModelStatus {
    /// Registry name of the model.
    pub name: String,
    /// Version number.
    pub version: u32,
    /// Whether this version is the model's primary.
    pub primary: bool,
    /// Canary traffic share, when this version is a live canary.
    pub canary_pct: Option<u8>,
    /// Whether the canary was demoted for divergence.
    pub demoted: bool,
    /// Bytes of compressed weights resident for this version.
    pub resident_bytes: u64,
    /// Requests currently executing against this version.
    pub in_flight: u64,
}

impl Frame {
    /// The frame's type code.
    pub fn frame_type(&self) -> FrameType {
        match self {
            Frame::Request { .. } => FrameType::Request,
            Frame::Response { .. } => FrameType::Response,
            Frame::Error { .. } => FrameType::Error,
            Frame::Ping { .. } => FrameType::Ping,
            Frame::Pong { .. } => FrameType::Pong,
            Frame::Shutdown { .. } => FrameType::Shutdown,
            Frame::ShutdownAck { .. } => FrameType::ShutdownAck,
            Frame::Query { .. } => FrameType::Query,
            Frame::Info { .. } => FrameType::Info,
            Frame::Register { .. } => FrameType::Register,
            Frame::RegisterAck { .. } => FrameType::RegisterAck,
            Frame::Heartbeat { .. } => FrameType::Heartbeat,
            Frame::Deregister { .. } => FrameType::Deregister,
            Frame::DeregisterAck { .. } => FrameType::DeregisterAck,
            Frame::LoadModel { .. } => FrameType::LoadModel,
            Frame::UnloadModel { .. } => FrameType::UnloadModel,
            Frame::ListModels { .. } => FrameType::ListModels,
            Frame::ModelList { .. } => FrameType::ModelList,
        }
    }

    /// The frame's request id.
    pub fn id(&self) -> u64 {
        match self {
            Frame::Request { id, .. }
            | Frame::Response { id, .. }
            | Frame::Error { id, .. }
            | Frame::Ping { id }
            | Frame::Pong { id }
            | Frame::Shutdown { id }
            | Frame::ShutdownAck { id }
            | Frame::Query { id, .. }
            | Frame::Info { id, .. }
            | Frame::Register { id, .. }
            | Frame::RegisterAck { id, .. }
            | Frame::Heartbeat { id, .. }
            | Frame::Deregister { id, .. }
            | Frame::DeregisterAck { id }
            | Frame::LoadModel { id, .. }
            | Frame::UnloadModel { id, .. }
            | Frame::ListModels { id }
            | Frame::ModelList { id, .. } => *id,
        }
    }

    /// Builds the response frame for a completed inference.
    pub fn from_response(id: u64, resp: &InferResponse) -> Frame {
        Frame::Response {
            id,
            model: resp.model.clone(),
            outputs: resp.outputs.clone(),
            cycles: resp.cycles,
            energy_pj: resp.energy_pj,
            batch_size: resp.batch_size as u32,
            worker: resp.worker as u32,
            latency_us: resp.latency_us,
            node: resp.node.clone(),
        }
    }

    /// Builds the error frame for a server-side failure, carrying the
    /// tenant label when the error is attributable to one.
    pub fn from_serve_error(id: u64, e: &ServeError) -> Frame {
        let tenant = match e {
            ServeError::Overloaded { tenant, .. } => tenant.clone(),
            _ => String::new(),
        };
        Frame::Error {
            id,
            code: ErrorCode::from_serve(e),
            tenant,
            detail: e.to_string(),
        }
    }

    /// Builds the [`Frame::ModelList`] reply from serve-side statuses.
    pub fn from_model_list(id: u64, statuses: &[cs_serve::ModelStatus]) -> Frame {
        Frame::ModelList {
            id,
            models: statuses
                .iter()
                .map(|s| WireModelStatus {
                    name: s.name.clone(),
                    version: s.version,
                    primary: s.primary,
                    canary_pct: s.canary_pct,
                    demoted: s.demoted,
                    resident_bytes: s.resident_bytes,
                    in_flight: s.in_flight,
                })
                .collect(),
        }
    }

    /// Encodes the frame: header plus payload, in one allocation of
    /// exactly the encoded length.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_LEN + self.payload_len());
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded frame to `out`: the bytes
    /// [`Frame::encode`] returns, written in place after one `reserve`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        append_frame(out, self.frame_type(), self.id(), self.payload_len(), |p| {
            self.put_payload(p)
        });
    }

    /// Appends the [`Frame::Response`] for a completed inference to
    /// `out`: the bytes `Frame::from_response(id, resp).encode()`
    /// returns, without copying the outputs, model or node into a
    /// [`Frame`] first.
    pub(crate) fn encode_response_into(id: u64, resp: &InferResponse, out: &mut Vec<u8>) {
        let body = ResponseBody {
            model: &resp.model,
            outputs: &resp.outputs,
            cycles: resp.cycles,
            energy_pj: resp.energy_pj,
            batch_size: resp.batch_size as u32,
            worker: resp.worker as u32,
            latency_us: resp.latency_us,
            node: &resp.node,
        };
        let mut len = ByteCount(0);
        body.put(&mut len);
        append_frame(out, FrameType::Response, id, len.0, |p| body.put(p));
    }

    fn payload_len(&self) -> usize {
        let mut len = ByteCount(0);
        self.put_payload(&mut len);
        len.0
    }

    fn put_payload<S: Sink>(&self, p: &mut S) {
        match self {
            Frame::Request {
                model,
                tenant,
                input,
                ..
            } => {
                put_str(p, model);
                put_str(p, tenant);
                put_f32s(p, input);
            }
            Frame::Response {
                model,
                outputs,
                cycles,
                energy_pj,
                batch_size,
                worker,
                latency_us,
                node,
                ..
            } => ResponseBody {
                model,
                outputs,
                cycles: *cycles,
                energy_pj: *energy_pj,
                batch_size: *batch_size,
                worker: *worker,
                latency_us: *latency_us,
                node,
            }
            .put(p),
            Frame::Error {
                code,
                tenant,
                detail,
                ..
            } => {
                p.put(&(*code as u16).to_le_bytes());
                put_str(p, tenant);
                put_str(p, detail);
            }
            Frame::Ping { .. }
            | Frame::Pong { .. }
            | Frame::Shutdown { .. }
            | Frame::ShutdownAck { .. } => {}
            Frame::Query { model, .. } => {
                put_str(p, model);
            }
            Frame::Info {
                model, n_in, n_out, ..
            } => {
                put_str(p, model);
                p.put(&n_in.to_le_bytes());
                p.put(&n_out.to_le_bytes());
            }
            Frame::Register {
                worker,
                addr,
                models,
                ..
            } => {
                put_str(p, worker);
                put_str(p, addr);
                put_strs(p, models);
            }
            Frame::RegisterAck { heartbeat_ms, .. } => {
                p.put(&heartbeat_ms.to_le_bytes());
            }
            Frame::Heartbeat {
                worker,
                outstanding,
                ..
            } => {
                put_str(p, worker);
                p.put(&outstanding.to_le_bytes());
            }
            Frame::Deregister { worker, .. } => {
                put_str(p, worker);
            }
            Frame::DeregisterAck { .. } => {}
            Frame::LoadModel {
                model,
                version,
                canary_pct,
                ..
            } => {
                put_str(p, model);
                p.put(&version.to_le_bytes());
                p.put(&[*canary_pct]);
            }
            Frame::UnloadModel { model, version, .. } => {
                put_str(p, model);
                p.put(&version.to_le_bytes());
            }
            Frame::ListModels { .. } => {}
            Frame::ModelList { models, .. } => {
                let len = models.len().min(u16::MAX as usize);
                p.put(&(len as u16).to_le_bytes());
                for m in &models[..len] {
                    put_str(p, &m.name);
                    p.put(&m.version.to_le_bytes());
                    p.put(&[u8::from(m.primary)]);
                    p.put(&[m.canary_pct.unwrap_or(NO_CANARY)]);
                    p.put(&[u8::from(m.demoted)]);
                    p.put(&m.resident_bytes.to_le_bytes());
                    p.put(&m.in_flight.to_le_bytes());
                }
            }
        }
    }

    /// Streaming decode against [`DEFAULT_MAX_PAYLOAD`]: `Ok(None)`
    /// means the buffer holds a valid prefix but not yet a whole frame.
    ///
    /// # Errors
    ///
    /// Malformed bytes (see [`Frame::decode_with_limit`]).
    pub fn decode(buf: &[u8]) -> Result<Option<(Frame, usize)>, WireError> {
        Frame::decode_with_limit(buf, DEFAULT_MAX_PAYLOAD)
    }

    /// Streaming decode with an explicit payload cap. Returns the frame
    /// and the number of bytes it consumed, or `Ok(None)` when more
    /// bytes are needed. Header fields are validated as soon as their
    /// bytes are present, so garbage fails fast even on a slow stream,
    /// and an oversized length prefix is rejected while only the
    /// 16-byte header has been read.
    ///
    /// # Errors
    ///
    /// Header-level errors close the connection (the stream cannot be
    /// resynchronized); [`WireError::BadPayload`] covers payloads that
    /// contradict their header.
    pub fn decode_with_limit(
        buf: &[u8],
        max_payload: u32,
    ) -> Result<Option<(Frame, usize)>, WireError> {
        // Validate the prefix we do have before asking for more bytes:
        // a client that opens with garbage is cut off immediately.
        if buf.len() >= 2 && buf[0..2] != MAGIC {
            return Err(WireError::BadMagic {
                got: [buf[0], buf[1]],
            });
        }
        if buf.len() >= 3 && buf[2] != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion { got: buf[2] });
        }
        if buf.len() >= 4 && FrameType::from_u8(buf[3]).is_none() {
            return Err(WireError::UnknownFrameType { got: buf[3] });
        }
        if buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let mut header_bytes = [0u8; HEADER_LEN];
        header_bytes.copy_from_slice(&buf[..HEADER_LEN]);
        let header = parse_header(&header_bytes, max_payload)?;
        let total = HEADER_LEN + header.payload_len as usize;
        if buf.len() < total {
            return Ok(None);
        }
        let payload = &buf[HEADER_LEN..total];
        let frame = decode_payload(&header, payload)?;
        Ok(Some((frame, total)))
    }

    /// Decodes a buffer that must hold exactly one whole frame.
    ///
    /// # Errors
    ///
    /// Everything [`Frame::decode_with_limit`] raises, plus
    /// [`WireError::Truncated`] for an incomplete buffer and
    /// [`WireError::BadPayload`] for trailing bytes.
    pub fn decode_exact(buf: &[u8], max_payload: u32) -> Result<Frame, WireError> {
        match Frame::decode_with_limit(buf, max_payload)? {
            None => {
                let need = if buf.len() >= HEADER_LEN {
                    let mut header_bytes = [0u8; HEADER_LEN];
                    header_bytes.copy_from_slice(&buf[..HEADER_LEN]);
                    // The header parsed once already; default on the
                    // unreachable error path instead of panicking.
                    parse_header(&header_bytes, max_payload)
                        .map(|h| HEADER_LEN + h.payload_len as usize)
                        .unwrap_or(HEADER_LEN)
                } else {
                    HEADER_LEN
                };
                Err(WireError::Truncated {
                    have: buf.len(),
                    need,
                })
            }
            Some((_, consumed)) if consumed != buf.len() => Err(WireError::BadPayload {
                reason: format!(
                    "frame consumed {consumed} bytes but the buffer holds {}",
                    buf.len()
                ),
            }),
            Some((frame, _)) => Ok(frame),
        }
    }
}

/// Sentinel byte meaning "no canary" in the `canary_pct` slot of a
/// [`WireModelStatus`] entry (valid shares are `0..=100`).
const NO_CANARY: u8 = 0xFF;

/// Where an encoder writes a payload: the output buffer, or a
/// [`ByteCount`] that sizes the frame before anything is written.
trait Sink {
    fn put(&mut self, bytes: &[u8]);

    /// The IEEE-754 bit patterns of `xs`, four little-endian bytes each.
    fn put_f32_bits(&mut self, xs: &[f32]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn put_f32_bits(&mut self, xs: &[f32]) {
        let start = self.len();
        self.resize(start + 4 * xs.len(), 0);
        for (dst, x) in self[start..].chunks_exact_mut(4).zip(xs) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }
}

/// A [`Sink`] that only counts the bytes it is given.
struct ByteCount(usize);

impl Sink for ByteCount {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn put_f32_bits(&mut self, xs: &[f32]) {
        self.0 += 4 * xs.len();
    }
}

/// Appends one frame to `out`: reserves the header and `payload_len`
/// once, writes the header with a zero length, lets `put` write the
/// payload in place, then patches the length with what was written. A
/// wrong `payload_len` can only cost a regrowth, never a wrong frame.
fn append_frame(
    out: &mut Vec<u8>,
    frame_type: FrameType,
    id: u64,
    payload_len: usize,
    put: impl FnOnce(&mut Vec<u8>),
) {
    out.reserve(HEADER_LEN + payload_len);
    let start = out.len();
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.push(frame_type as u8);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    put(out);
    let written = (out.len() - start - HEADER_LEN) as u32;
    out[start + 12..start + HEADER_LEN].copy_from_slice(&written.to_le_bytes());
}

/// A response payload's fields, borrowed from a [`Frame::Response`]
/// or straight from an [`InferResponse`], so both encode through one
/// writer.
struct ResponseBody<'a> {
    model: &'a str,
    outputs: &'a [f32],
    cycles: u64,
    energy_pj: f64,
    batch_size: u32,
    worker: u32,
    latency_us: u64,
    node: &'a str,
}

impl ResponseBody<'_> {
    fn put<S: Sink>(&self, p: &mut S) {
        put_str(p, self.model);
        put_f32s(p, self.outputs);
        p.put(&self.cycles.to_le_bytes());
        p.put(&self.energy_pj.to_bits().to_le_bytes());
        p.put(&self.batch_size.to_le_bytes());
        p.put(&self.worker.to_le_bytes());
        p.put(&self.latency_us.to_le_bytes());
        put_str(p, self.node);
    }
}

/// A `u16`-prefixed string. One longer than `u16::MAX` bytes is cut at
/// the last character boundary at or below the cap, so the bytes stay
/// valid UTF-8 and the frame decodes.
fn put_str<S: Sink>(p: &mut S, s: &str) {
    let mut len = s.len().min(u16::MAX as usize);
    while !s.is_char_boundary(len) {
        len -= 1;
    }
    p.put(&(len as u16).to_le_bytes());
    p.put(&s.as_bytes()[..len]);
}

fn put_strs<S: Sink>(p: &mut S, xs: &[String]) {
    let len = xs.len().min(u16::MAX as usize);
    p.put(&(len as u16).to_le_bytes());
    for s in &xs[..len] {
        put_str(p, s);
    }
}

fn put_f32s<S: Sink>(p: &mut S, xs: &[f32]) {
    let len = xs.len().min(u32::MAX as usize);
    p.put(&(len as u32).to_le_bytes());
    p.put_f32_bits(&xs[..len]);
}

/// Cursor over a payload; every getter checks the remaining length
/// before touching (or allocating for) the bytes.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::BadPayload {
                reason: format!(
                    "{what} needs {n} bytes, payload has {} left",
                    self.remaining()
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self, what: &str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// A strict boolean byte: anything but 0 or 1 is rejected so every
    /// decoded frame re-encodes to the exact bytes it came from.
    fn boolean(&mut self, what: &str) -> Result<bool, WireError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(WireError::BadPayload {
                reason: format!("{what} must be 0 or 1, got {other}"),
            }),
        }
    }

    fn u16(&mut self, what: &str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self, what: &str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn string(&mut self, what: &str) -> Result<String, WireError> {
        let len = self.u16(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadPayload {
            reason: format!("{what} is not valid UTF-8"),
        })
    }

    fn strings(&mut self, what: &str) -> Result<Vec<String>, WireError> {
        let count = self.u16(what)? as usize;
        // Each entry costs at least its 2-byte length prefix, so the
        // count is bounded by the remaining payload before allocating.
        if count.saturating_mul(2) > self.remaining() {
            return Err(WireError::BadPayload {
                reason: format!(
                    "{what} claims {count} strings, payload has {} bytes left",
                    self.remaining()
                ),
            });
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(self.string(what)?);
        }
        Ok(out)
    }

    fn f32s(&mut self, what: &str) -> Result<Vec<f32>, WireError> {
        let count = self.u32(what)? as usize;
        // The length is validated against the remaining payload BEFORE
        // the vector is allocated: a hostile count cannot over-allocate.
        let bytes = self.take(count.saturating_mul(4), what)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes([c[0], c[1], c[2], c[3]])))
            .collect())
    }

    fn finish(self, what: &str) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::BadPayload {
                reason: format!("{what} leaves {} trailing payload bytes", self.remaining()),
            });
        }
        Ok(())
    }
}

pub(crate) fn decode_payload(header: &Header, payload: &[u8]) -> Result<Frame, WireError> {
    let id = header.id;
    let mut c = Cursor::new(payload);
    let frame = match header.frame_type {
        FrameType::Request => Frame::Request {
            id,
            model: c.string("request model")?,
            tenant: c.string("request tenant")?,
            input: c.f32s("request input")?,
        },
        FrameType::Response => Frame::Response {
            id,
            model: c.string("response model")?,
            outputs: c.f32s("response outputs")?,
            cycles: c.u64("response cycles")?,
            energy_pj: f64::from_bits(c.u64("response energy")?),
            batch_size: c.u32("response batch size")?,
            worker: c.u32("response worker")?,
            latency_us: c.u64("response latency")?,
            node: c.string("response node")?,
        },
        FrameType::Error => {
            let raw = c.u16("error code")?;
            let code = ErrorCode::from_u16(raw).ok_or_else(|| WireError::BadPayload {
                reason: format!("unknown error code {raw}"),
            })?;
            Frame::Error {
                id,
                code,
                tenant: c.string("error tenant")?,
                detail: c.string("error detail")?,
            }
        }
        FrameType::Ping => Frame::Ping { id },
        FrameType::Pong => Frame::Pong { id },
        FrameType::Shutdown => Frame::Shutdown { id },
        FrameType::ShutdownAck => Frame::ShutdownAck { id },
        FrameType::Query => Frame::Query {
            id,
            model: c.string("query model")?,
        },
        FrameType::Info => Frame::Info {
            id,
            model: c.string("info model")?,
            n_in: c.u32("info n_in")?,
            n_out: c.u32("info n_out")?,
        },
        FrameType::Register => Frame::Register {
            id,
            worker: c.string("register worker")?,
            addr: c.string("register addr")?,
            models: c.strings("register models")?,
        },
        FrameType::RegisterAck => Frame::RegisterAck {
            id,
            heartbeat_ms: c.u32("register-ack heartbeat")?,
        },
        FrameType::Heartbeat => Frame::Heartbeat {
            id,
            worker: c.string("heartbeat worker")?,
            outstanding: c.u32("heartbeat outstanding")?,
        },
        FrameType::Deregister => Frame::Deregister {
            id,
            worker: c.string("deregister worker")?,
        },
        FrameType::DeregisterAck => Frame::DeregisterAck { id },
        FrameType::LoadModel => {
            let model = c.string("load-model name")?;
            let version = c.u32("load-model version")?;
            let canary_pct = c.u8("load-model canary pct")?;
            if canary_pct > 100 {
                return Err(WireError::BadPayload {
                    reason: format!("canary pct {canary_pct} exceeds 100"),
                });
            }
            Frame::LoadModel {
                id,
                model,
                version,
                canary_pct,
            }
        }
        FrameType::UnloadModel => Frame::UnloadModel {
            id,
            model: c.string("unload-model name")?,
            version: c.u32("unload-model version")?,
        },
        FrameType::ListModels => Frame::ListModels { id },
        FrameType::ModelList => {
            let count = c.u16("model-list count")? as usize;
            // Each entry costs at least 25 bytes (2-byte name prefix,
            // version, three flag bytes, two u64 counters), so the
            // count is bounded before the vector is allocated.
            if count.saturating_mul(25) > c.remaining() {
                return Err(WireError::BadPayload {
                    reason: format!(
                        "model list claims {count} entries, payload has {} bytes left",
                        c.remaining()
                    ),
                });
            }
            let mut models = Vec::with_capacity(count);
            for _ in 0..count {
                let name = c.string("model-list name")?;
                let version = c.u32("model-list version")?;
                let primary = c.boolean("model-list primary")?;
                let canary_pct = match c.u8("model-list canary pct")? {
                    NO_CANARY => None,
                    pct if pct <= 100 => Some(pct),
                    pct => {
                        return Err(WireError::BadPayload {
                            reason: format!("canary pct {pct} exceeds 100"),
                        })
                    }
                };
                let demoted = c.boolean("model-list demoted")?;
                models.push(WireModelStatus {
                    name,
                    version,
                    primary,
                    canary_pct,
                    demoted,
                    resident_bytes: c.u64("model-list resident bytes")?,
                    in_flight: c.u64("model-list in flight")?,
                });
            }
            Frame::ModelList { id, models }
        }
    };
    c.finish("frame")?;
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Request {
                id: 7,
                model: "mlp".to_string(),
                tenant: "acme".to_string(),
                input: vec![0.0, -0.5, 1.25, f32::MIN_POSITIVE],
            },
            Frame::Response {
                id: 7,
                model: "mlp".to_string(),
                outputs: vec![1.0, -2.5, 0.0],
                cycles: 123_456,
                energy_pj: 98.5,
                batch_size: 4,
                worker: 1,
                latency_us: 250,
                node: "node-a".to_string(),
            },
            Frame::Error {
                id: 9,
                code: ErrorCode::Overloaded,
                tenant: "acme".to_string(),
                detail: "admission queue full (64 slots) for tenant \"acme\"".to_string(),
            },
            Frame::Ping { id: 1 },
            Frame::Pong { id: 1 },
            Frame::Shutdown { id: 2 },
            Frame::ShutdownAck { id: 2 },
            Frame::Query {
                id: 3,
                model: "mlp".to_string(),
            },
            Frame::Info {
                id: 3,
                model: "mlp".to_string(),
                n_in: 98,
                n_out: 10,
            },
            Frame::Register {
                id: 4,
                worker: "node-a".to_string(),
                addr: "127.0.0.1:9001".to_string(),
                models: vec!["mlp".to_string(), "mlp-big".to_string()],
            },
            Frame::RegisterAck {
                id: 4,
                heartbeat_ms: 500,
            },
            Frame::Heartbeat {
                id: 11,
                worker: "node-a".to_string(),
                outstanding: 3,
            },
            Frame::Deregister {
                id: 5,
                worker: "node-a".to_string(),
            },
            Frame::DeregisterAck { id: 5 },
            Frame::LoadModel {
                id: 6,
                model: "mlp".to_string(),
                version: 2,
                canary_pct: 25,
            },
            Frame::UnloadModel {
                id: 7,
                model: "mlp".to_string(),
                version: 1,
            },
            Frame::ListModels { id: 8 },
            Frame::ModelList {
                id: 8,
                models: vec![
                    WireModelStatus {
                        name: "mlp".to_string(),
                        version: 1,
                        primary: true,
                        canary_pct: None,
                        demoted: false,
                        resident_bytes: 4096,
                        in_flight: 2,
                    },
                    WireModelStatus {
                        name: "mlp".to_string(),
                        version: 2,
                        primary: false,
                        canary_pct: Some(25),
                        demoted: true,
                        resident_bytes: 4096,
                        in_flight: 0,
                    },
                ],
            },
        ]
    }

    #[test]
    fn every_frame_type_round_trips() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            let (decoded, consumed) = Frame::decode(&bytes).expect("valid").expect("complete");
            assert_eq!(consumed, bytes.len());
            assert_eq!(decoded, frame);
            assert_eq!(decoded.encode(), bytes, "byte-level round trip");
            assert_eq!(
                Frame::decode_exact(&bytes, DEFAULT_MAX_PAYLOAD).expect("exact"),
                frame
            );
        }
    }

    #[test]
    fn encode_allocates_once_and_encode_into_appends_the_same_bytes() {
        for frame in sample_frames() {
            let bytes = frame.encode();
            assert_eq!(bytes.len(), bytes.capacity(), "{frame:?}");
            let mut out = Frame::Ping { id: 99 }.encode();
            let prefix = out.clone();
            frame.encode_into(&mut out);
            assert_eq!(&out[..prefix.len()], &prefix[..]);
            assert_eq!(&out[prefix.len()..], &bytes[..], "{frame:?}");
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Bytes written by the encoder of wire version 3 before frames
    /// were encoded in place; any change here breaks deployed peers.
    #[test]
    fn request_and_response_bytes_are_pinned() {
        let request = Frame::Request {
            id: 0x0102_0304_0506_0708,
            model: "mlp".to_string(),
            tenant: "acme".to_string(),
            input: vec![1.0, -0.0, f32::NAN, f32::MIN_POSITIVE, -2.5],
        };
        assert_eq!(
            hex(&request.encode()),
            "ca5e030108070605040302012300000003006d6c70040061636d6505000000\
             0000803f000000800000c07f00008000000020c0"
        );
        assert_eq!(
            hex(&sample_frames()[1].encode()),
            "ca5e030207000000000000003d00000003006d6c70030000000000803f0000\
             20c00000000040e20100000000000000000000a05840040000000100000\
             0fa0000000000000006006e6f64652d61"
        );
    }

    #[test]
    fn overlong_strings_are_cut_at_a_char_boundary() {
        // 65 534 ASCII bytes then a two-byte 'é': the cap falls inside
        // the 'é', so the whole character is dropped.
        let detail = format!("{}é", "x".repeat(u16::MAX as usize - 1));
        let frame = Frame::Error {
            id: 3,
            code: ErrorCode::Internal,
            tenant: String::new(),
            detail,
        };
        let bytes = frame.encode();
        assert_eq!(bytes.len(), bytes.capacity());
        match Frame::decode_exact(&bytes, DEFAULT_MAX_PAYLOAD).expect("decodes") {
            Frame::Error { detail, .. } => {
                assert_eq!(detail.len(), u16::MAX as usize - 1);
                assert!(detail.bytes().all(|b| b == b'x'));
            }
            other => panic!("decoded {other:?}"),
        }
        // A string that fits exactly is kept whole.
        let exact = "é".repeat(u16::MAX as usize / 2) + "x";
        let frame = Frame::Query {
            id: 1,
            model: exact.clone(),
        };
        assert_eq!(
            Frame::decode_exact(&frame.encode(), DEFAULT_MAX_PAYLOAD).expect("decodes"),
            frame
        );
    }

    #[test]
    fn nan_and_negative_zero_survive_the_wire_bit_exactly() {
        let frame = Frame::Request {
            id: 1,
            model: "m".to_string(),
            tenant: String::new(),
            input: vec![f32::NAN, -0.0, f32::INFINITY, f32::NEG_INFINITY],
        };
        let bytes = frame.encode();
        let (decoded, _) = Frame::decode(&bytes).unwrap().unwrap();
        match decoded {
            Frame::Request { input, .. } => {
                let want: Vec<u32> = [f32::NAN, -0.0, f32::INFINITY, f32::NEG_INFINITY]
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                let got: Vec<u32> = input.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn streaming_decode_waits_for_a_whole_frame() {
        let bytes = sample_frames()[0].encode();
        for cut in 0..bytes.len() {
            let r = Frame::decode(&bytes[..cut]).expect("prefix of a valid frame");
            assert!(r.is_none(), "cut {cut} decoded early");
        }
        // Two frames back to back: the first decodes, reporting its
        // length so the caller can resynchronize on the second.
        let mut two = bytes.clone();
        let second = Frame::Ping { id: 42 }.encode();
        two.extend_from_slice(&second);
        let (f, n) = Frame::decode(&two).unwrap().unwrap();
        assert_eq!(f, sample_frames()[0]);
        assert_eq!(n, bytes.len());
        let (f2, n2) = Frame::decode(&two[n..]).unwrap().unwrap();
        assert_eq!(f2, Frame::Ping { id: 42 });
        assert_eq!(n2, second.len());
    }

    #[test]
    fn short_header_is_truncated_not_misparsed() {
        let bytes = Frame::Ping { id: 5 }.encode();
        let err = Frame::decode_exact(&bytes[..10], DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                have: 10,
                need: HEADER_LEN
            }
        );
    }

    #[test]
    fn short_payload_is_truncated_with_the_real_need() {
        let bytes = sample_frames()[0].encode();
        let err = Frame::decode_exact(&bytes[..bytes.len() - 3], DEFAULT_MAX_PAYLOAD).unwrap_err();
        assert_eq!(
            err,
            WireError::Truncated {
                have: bytes.len() - 3,
                need: bytes.len()
            }
        );
    }

    #[test]
    fn bad_magic_fails_fast_even_on_a_two_byte_prefix() {
        let mut bytes = Frame::Ping { id: 5 }.encode();
        bytes[0] = 0x00;
        assert_eq!(
            Frame::decode(&bytes[..2]).unwrap_err(),
            WireError::BadMagic { got: [0x00, 0x5E] }
        );
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::BadMagic { got: [0x00, 0x5E] }
        );
    }

    #[test]
    fn unsupported_version_and_unknown_type_are_rejected() {
        let mut v = Frame::Ping { id: 5 }.encode();
        v[2] = 9;
        assert_eq!(
            Frame::decode(&v).unwrap_err(),
            WireError::UnsupportedVersion { got: 9 }
        );
        let mut t = Frame::Ping { id: 5 }.encode();
        t[3] = 200;
        assert_eq!(
            Frame::decode(&t).unwrap_err(),
            WireError::UnknownFrameType { got: 200 }
        );
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Frame::Ping { id: 5 }.encode();
        bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::Oversized {
                len: u32::MAX,
                max: DEFAULT_MAX_PAYLOAD
            }
        );
        // A tighter caller-supplied cap wins.
        let req = sample_frames()[0].encode();
        assert!(matches!(
            Frame::decode_with_limit(&req, 4).unwrap_err(),
            WireError::Oversized { max: 4, .. }
        ));
    }

    #[test]
    fn inner_length_cannot_exceed_the_payload() {
        // Request with an input count claiming more floats than the
        // payload carries: must be BadPayload, not an allocation.
        let mut bytes = Frame::Request {
            id: 1,
            model: "m".to_string(),
            tenant: String::new(),
            input: vec![1.0, 2.0],
        }
        .encode();
        // input count lives after the 2-byte len + 1-byte "m" and the
        // 2-byte empty-tenant prefix.
        let count_off = HEADER_LEN + 2 + 1 + 2;
        bytes[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::BadPayload { .. }
        ));
    }

    #[test]
    fn hostile_string_count_is_rejected_before_allocation() {
        let mut bytes = Frame::Register {
            id: 1,
            worker: "w".to_string(),
            addr: "a".to_string(),
            models: vec![],
        }
        .encode();
        // models count lives after "w" (2+1 bytes) and "a" (2+1 bytes).
        let off = HEADER_LEN + 3 + 3;
        bytes[off..off + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::BadPayload { .. }
        ));
    }

    #[test]
    fn trailing_payload_bytes_are_rejected() {
        let mut bytes = Frame::Ping { id: 5 }.encode();
        bytes[12..16].copy_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::BadPayload { .. }
        ));
        // And decode_exact rejects a valid frame followed by garbage.
        let mut ok = Frame::Ping { id: 5 }.encode();
        ok.push(0xFF);
        assert!(matches!(
            Frame::decode_exact(&ok, DEFAULT_MAX_PAYLOAD).unwrap_err(),
            WireError::BadPayload { .. }
        ));
    }

    #[test]
    fn non_utf8_model_name_is_bad_payload() {
        let mut bytes = Frame::Query {
            id: 1,
            model: "ab".to_string(),
        }
        .encode();
        bytes[HEADER_LEN + 2] = 0xFF;
        bytes[HEADER_LEN + 3] = 0xFE;
        assert!(matches!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::BadPayload { .. }
        ));
    }

    #[test]
    fn error_codes_round_trip_and_map_from_serve_errors() {
        for code in [
            ErrorCode::UnknownModel,
            ErrorCode::ShapeMismatch,
            ErrorCode::Overloaded,
            ErrorCode::ShuttingDown,
            ErrorCode::WorkerLost,
            ErrorCode::Internal,
            ErrorCode::Malformed,
            ErrorCode::ConnectionLimit,
            ErrorCode::NoReplica,
            ErrorCode::ModelNotFound,
            ErrorCode::VersionMismatch,
            ErrorCode::RegistryFull,
        ] {
            assert_eq!(ErrorCode::from_u16(code as u16), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
        assert_eq!(
            ErrorCode::from_serve(&ServeError::Overloaded {
                capacity: 64,
                tenant: "acme".into()
            }),
            ErrorCode::Overloaded
        );
        assert_eq!(
            ErrorCode::from_serve(&ServeError::UnknownModel("x".into())),
            ErrorCode::UnknownModel
        );
        assert_eq!(
            ErrorCode::from_serve(&ServeError::ShuttingDown),
            ErrorCode::ShuttingDown
        );
        assert_eq!(
            ErrorCode::from_serve(&ServeError::ModelNotFound {
                model: "m".into(),
                version: 2
            }),
            ErrorCode::ModelNotFound
        );
        assert_eq!(
            ErrorCode::from_serve(&ServeError::VersionMismatch {
                model: "m".into(),
                version: 1,
                detail: "is the primary".into()
            }),
            ErrorCode::VersionMismatch
        );
        assert_eq!(
            ErrorCode::from_serve(&ServeError::RegistryFull {
                model: "m".into(),
                needed_bytes: 10,
                budget_bytes: 5
            }),
            ErrorCode::RegistryFull
        );
    }

    #[test]
    fn overloaded_error_frame_carries_the_tenant() {
        let e = ServeError::Overloaded {
            capacity: 2,
            tenant: "acme".to_string(),
        };
        match Frame::from_serve_error(9, &e) {
            Frame::Error {
                id, code, tenant, ..
            } => {
                assert_eq!(id, 9);
                assert_eq!(code, ErrorCode::Overloaded);
                assert_eq!(tenant, "acme");
            }
            other => panic!("built {other:?}"),
        }
        // Non-tenant errors leave the field empty.
        match Frame::from_serve_error(1, &ServeError::ShuttingDown) {
            Frame::Error { tenant, .. } => assert_eq!(tenant, ""),
            other => panic!("built {other:?}"),
        }
    }

    #[test]
    fn hostile_model_list_count_is_rejected_before_allocation() {
        let mut bytes = Frame::ModelList {
            id: 1,
            models: vec![],
        }
        .encode();
        bytes[HEADER_LEN..HEADER_LEN + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::BadPayload { .. }
        ));
    }

    #[test]
    fn model_list_flag_bytes_are_strict() {
        let status = WireModelStatus {
            name: "m".to_string(),
            version: 1,
            primary: true,
            canary_pct: None,
            demoted: false,
            resident_bytes: 8,
            in_flight: 0,
        };
        let frame = Frame::ModelList {
            id: 1,
            models: vec![status],
        };
        let clean = frame.encode();
        // primary byte lives after count (2), name (2+1), version (4).
        let primary_off = HEADER_LEN + 2 + 3 + 4;
        for (off, bad) in [
            (primary_off, 2u8),     // primary must be 0/1
            (primary_off + 1, 101), // canary pct must be <=100 or 0xFF
            (primary_off + 2, 7),   // demoted must be 0/1
        ] {
            let mut bytes = clean.clone();
            bytes[off] = bad;
            assert!(
                matches!(
                    Frame::decode(&bytes).unwrap_err(),
                    WireError::BadPayload { .. }
                ),
                "offset {off} value {bad} must be rejected"
            );
        }
        // 0xFF decodes as "no canary" and round-trips.
        let (decoded, _) = Frame::decode(&clean).unwrap().unwrap();
        assert_eq!(decoded.encode(), clean);
    }

    #[test]
    fn load_model_canary_pct_above_100_is_rejected() {
        let mut bytes = Frame::LoadModel {
            id: 1,
            model: "m".to_string(),
            version: 2,
            canary_pct: 100,
        }
        .encode();
        *bytes.last_mut().unwrap() = 101;
        assert!(matches!(
            Frame::decode(&bytes).unwrap_err(),
            WireError::BadPayload { .. }
        ));
    }
}
