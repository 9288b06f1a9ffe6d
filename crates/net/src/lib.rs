//! # cs-net — TCP wire protocol and network frontend for cs-serve
//!
//! The serving runtime ([`cs_serve::Server`]) batches and executes
//! inference in-process; this crate puts it on the network. It is
//! dependency-free (std only) and splits into:
//!
//! * [`wire`] — the versioned, length-prefixed binary frame codec.
//!   Pure functions over byte slices; every length is validated before
//!   any allocation, so hostile prefixes cost 16 bytes, not 4 GiB.
//! * [`transport`] — blocking frame I/O over any `Read`/`Write` pair:
//!   the client's side of the socket, and the reference decoder the
//!   assembler is fuzzed against.
//! * [`assembler`] — [`FrameAssembler`] / [`WriteBuffer`]: resumable
//!   incremental decode and coalesced nonblocking encode, the state
//!   machines behind the server's event loop.
//! * [`poll`] — a zero-dependency epoll binding. The server is built on
//!   it, and so is the load client in [`load`].
//! * [`server`] — [`NetServer`]: one epoll event loop (`reactor`, a
//!   private module over [`poll`]) owning every socket, scaling to
//!   thousands of connections, with per-connection FIFO reply order, a
//!   connection cap, read/write deadlines, bounded reply windows with
//!   slow-consumer disconnects, and telemetry. Finished jobs ring the
//!   loop themselves ([`cs_serve::Doorbell`]): a serving process runs
//!   its workers plus this one thread.
//! * [`client`] — [`Client`]: a blocking caller with typed errors.
//! * [`load`] — [`load::run_closed_loop`]: the one socket load
//!   generator. It drives many closed-loop connections from one thread
//!   and backs off and reissues on overload; `cs-netload` and the
//!   cluster sweep both run it.
//! * [`agent`] — [`WorkerAgent`]: the worker-side cluster control
//!   plane (register/heartbeat/drain against a `cs-cluster`
//!   orchestrator).
//!
//! Linux only: epoll is the one readiness primitive, and Linux is the
//! one platform CI builds, so no second backend exists to go untested.
//!
//! ## Quickstart
//!
//! ```
//! use cs_net::{Client, NetConfig, NetServer};
//! use cs_nn::spec::Scale;
//! use cs_serve::{ExecBackend, ModelRegistry, ServableModel, ServeConfig, Server};
//!
//! let model = ServableModel::mlp(Scale::Reduced(8), 7).unwrap();
//! let n_in = model.n_in;
//! let mut registry = ModelRegistry::new();
//! registry.register(model).unwrap();
//! let serve = Server::start(
//!     registry,
//!     ServeConfig { workers: 1, backend: ExecBackend::Sparse, ..ServeConfig::default() },
//! )
//! .unwrap();
//! let net = NetServer::start(serve, NetConfig::default()).unwrap();
//!
//! let mut client = Client::connect(&net.local_addr().to_string()).unwrap();
//! let out = client.request("mlp", &vec![0.5; n_in]).unwrap();
//! assert!(!out.outputs.is_empty());
//! net.shutdown();
//! ```

#![deny(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

#[cfg(not(target_os = "linux"))]
compile_error!("cs-net serves through epoll and builds on Linux only");

pub mod agent;
pub mod assembler;
pub mod client;
pub mod error;
pub mod load;
pub mod poll;
mod reactor;
pub mod server;
pub mod transport;
pub mod wire;

pub use agent::{AgentConfig, WorkerAgent};
pub use assembler::{FrameAssembler, WriteBuffer};
pub use client::{Client, ClientConfig, NetResponse};
pub use error::NetError;
pub use server::{NetConfig, NetServer, NetShutdownHandle, Transport};
pub use wire::{
    ErrorCode, Frame, FrameType, WireError, WireModelStatus, DEFAULT_MAX_PAYLOAD, WIRE_VERSION,
};
