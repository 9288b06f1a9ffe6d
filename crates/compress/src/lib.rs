//! The full Cambricon-S compression pipeline (the paper's Fig. 5):
//! coarse-grained pruning → local quantization → entropy coding.
//!
//! * [`config`] — per-layer-class pruning/quantization settings, with the
//!   paper's published per-network targets (Table IV).
//! * [`pipeline`] — runs the flow over a network spec, producing the size
//!   accounting the paper reports (`W_p`, `r_p`, `W_q`, `r_q`, `W_c`,
//!   `r_c`, index sizes). There is one compression path: each layer is
//!   built in the format the server loads, and `W_c` / `I_c` are the
//!   lengths of the sections the model registry stores for it. The
//!   reduced-irregularity metric `R(Irr)` (Eq. 1) is the bilevel size of
//!   the fine-grained mask over `I_c` (the bilevel codec in `cs-coding`
//!   is the JBIG stand-in).
//! * [`mod@format`] — the compact shared-index storage format consumed by the
//!   accelerator simulator: per output-neuron-group synapse indexes shared
//!   by all PEs, plus quantized weights and one k-means codebook per group
//!   for the WDM, and the one encoder of its stored bytes
//!   ([`format::SharedIndexLayer::encode_streams`]: a bilevel-coded
//!   shared-index image and one entropy-coded weight-index stream,
//!   Huffman unless the fixed-width dictionary is no longer).
//! * [`engine`] — the compiled block-CSR sparse execution engine: the
//!   storage format lowered into run-length strips with pre-decoded
//!   weights, with FC and conv kernels bit-identical to the dense
//!   reference on finite inputs.
//! * [`gate`] — dynamic activation sparsity: the prescan-and-skip
//!   occupancy bitmap, the `bits == +0.0` skip-eligibility rule, and
//!   the per-layer benefit model behind the gated kernels in
//!   [`engine`].
//!
//! # Example
//!
//! ```
//! use cs_compress::config::ModelCompressionConfig;
//! use cs_compress::pipeline;
//! use cs_nn::spec::{Model, NetworkSpec, Scale};
//!
//! let spec = NetworkSpec::model(Model::Mlp, Scale::Reduced(4));
//! let cfg = ModelCompressionConfig::paper(Model::Mlp);
//! let report = pipeline::compress_model(&spec, &cfg, 42).unwrap();
//! assert!(report.overall_ratio() > 10.0);
//! ```

// The compiled kernels run on the serving path, where a panic drops a
// worker's whole batch; `unwrap`/`expect` stay banned outside tests.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod config;
pub mod engine;
pub mod format;
pub mod gate;
pub mod pipeline;

use std::fmt;

/// Error type for the compression pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CompressError {
    /// Propagated tensor error.
    Tensor(cs_tensor::TensorError),
    /// Propagated coding error.
    Coding(cs_coding::CodingError),
    /// A layer has no surviving weights after pruning.
    EmptyLayer(String),
}

impl fmt::Display for CompressError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompressError::Tensor(e) => write!(f, "tensor error: {e}"),
            CompressError::Coding(e) => write!(f, "coding error: {e}"),
            CompressError::EmptyLayer(n) => write!(f, "layer {n} has no surviving weights"),
        }
    }
}

impl std::error::Error for CompressError {}

impl From<cs_tensor::TensorError> for CompressError {
    fn from(e: cs_tensor::TensorError) -> Self {
        CompressError::Tensor(e)
    }
}

impl From<cs_coding::CodingError> for CompressError {
    fn from(e: cs_coding::CodingError) -> Self {
        CompressError::Coding(e)
    }
}
