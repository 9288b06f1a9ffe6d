//! Batched, multi-worker inference serving on the Cambricon-S model.
//!
//! The paper's stack ends at a single compressed network running on one
//! simulated accelerator. This crate wraps that in the runtime a
//! deployment needs: clients submit [`InferRequest`]s against a
//! [`ModelRegistry`] of compressed models; admission control bounds the
//! queue and rejects overload as [`ServeError::Overloaded`]; and a pool
//! of worker threads — each owning one [`cs_accel::exec::Accelerator`]
//! — pulls batches straight from that queue
//! ([`admission::AdmissionQueue::pop_batch`]: whatever is queued for
//! one model when a worker comes free, up to `max_batch`), executes
//! them and answers
//! every request with its outputs plus the simulated hardware cost
//! (cycles from `cs-sim`'s counters, picojoules from `cs-energy`).
//!
//! Every figure in a [`ServeSnapshot`] is read from the server's own
//! telemetry handles (a fresh [`Registry`] unless the caller passes a
//! recorder), so [`Server::stats`] and [`Server::metrics_text`] agree.
//! Time is injected via the [`Clock`] trait so the latency percentiles
//! are testable deterministically; the [`loadgen`] module drives
//! saturation sweeps over offered load × worker count × batch size.
//!
//! # Example
//!
//! ```
//! use cs_nn::spec::Scale;
//! use cs_serve::{InferRequest, ModelRegistry, ServableModel, ServeConfig, Server};
//!
//! let mut registry = ModelRegistry::new();
//! let model = ServableModel::mlp(Scale::Reduced(8), 7).unwrap();
//! let n_in = model.n_in;
//! registry.register(model).unwrap();
//!
//! let server = Server::start(registry, ServeConfig::default()).unwrap();
//! let resp = server.infer(InferRequest::new("mlp", vec![0.5; n_in])).unwrap();
//! assert_eq!(resp.outputs.len(), 10);
//! assert!(resp.cycles > 0);
//!
//! let stats = server.shutdown();
//! assert_eq!(stats.completed, 1);
//! ```

// The request path must degrade to typed errors, never panic: a panic
// in a worker would silently drop every queued request. `unwrap`/
// `expect` stay banned outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![deny(missing_docs)]

pub mod admission;
pub mod batch;
pub mod clock;
pub mod error;
pub mod lifecycle;
pub mod loadgen;
pub mod model;
pub mod server;
pub mod stats;

pub use batch::CloseReason;
pub use clock::{Clock, ManualClock, MonotonicClock};
pub use cs_telemetry::{NoopRecorder, Recorder, Registry};
pub use error::ServeError;
pub use lifecycle::{outputs_equivalent, CanaryReport, ModelStatus};
pub use model::{CompiledLane, LaneKernel, LaneLayer, ModelRegistry, ServableModel};
pub use server::{
    Doorbell, DrainHandle, ExecBackend, InferRequest, InferResponse, ServeConfig, Server, Ticket,
};
pub use stats::ServeSnapshot;
