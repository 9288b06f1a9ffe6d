//! Typed errors for the functional executor.
//!
//! The executor sits on the serving request path, so malformed programs
//! or layers must surface as values rather than panics that would kill a
//! worker thread. `cs-serve` compiles each simulator-backed load once
//! with [`crate::exec::Accelerator::compile_network`], which is where a
//! malformed layer is rejected, and its workers call
//! [`crate::exec::Accelerator::run_compiled`] per request.

use std::fmt;

use cs_tensor::TensorError;

/// Error from compiling or executing a program on the accelerator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccelError {
    /// An underlying tensor-level failure (e.g. input length mismatch).
    Tensor(TensorError),
    /// An instruction referenced an output group the layer doesn't have.
    GroupOutOfRange {
        /// Referenced group.
        group: usize,
        /// Number of groups in the layer.
        groups: usize,
    },
    /// An instruction's input window exceeds the layer's input width.
    WindowOutOfRange {
        /// Window start.
        offset: usize,
        /// Window length.
        len: usize,
        /// Layer input width.
        n_in: usize,
    },
    /// A `Compute` window does not match the tile currently in NBin.
    TileMismatch {
        /// Offset of the tile resident in NBin.
        loaded: usize,
        /// Offset the compute asked for.
        requested: usize,
    },
    /// A group's compact weight rows disagree with its index popcount.
    MalformedGroup {
        /// Offending group.
        group: usize,
        /// Survivors promised by the shared index.
        expected: usize,
        /// Shortest weight-row length actually present.
        actual: usize,
    },
    /// A group's quantized weights address past the end of its codebook.
    CodebookOverflow {
        /// Offending group.
        group: usize,
        /// Largest dictionary index used.
        index: u16,
        /// Codebook entry count.
        entries: usize,
    },
    /// The layer's groups produce more outputs than `n_out`.
    OutputOverflow {
        /// Outputs addressed by the groups.
        needed: usize,
        /// Declared output count.
        n_out: usize,
    },
    /// The program was compiled for a different layer geometry.
    ProgramMismatch {
        /// Input width the program was compiled for.
        program_n_in: usize,
        /// The layer's input width.
        layer_n_in: usize,
    },
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::Tensor(e) => write!(f, "{e}"),
            AccelError::GroupOutOfRange { group, groups } => {
                write!(
                    f,
                    "instruction references group {group}, layer has {groups}"
                )
            }
            AccelError::WindowOutOfRange { offset, len, n_in } => write!(
                f,
                "window [{offset}, {offset}+{len}) exceeds input width {n_in}"
            ),
            AccelError::TileMismatch { loaded, requested } => write!(
                f,
                "compute requested tile at {requested} but NBin holds tile at {loaded}"
            ),
            AccelError::MalformedGroup {
                group,
                expected,
                actual,
            } => write!(
                f,
                "group {group}: weight rows hold {actual} entries, index promises {expected}"
            ),
            AccelError::CodebookOverflow {
                group,
                index,
                entries,
            } => write!(
                f,
                "group {group}: dictionary index {index} exceeds codebook of {entries}"
            ),
            AccelError::OutputOverflow { needed, n_out } => {
                write!(f, "groups address {needed} outputs, layer declares {n_out}")
            }
            AccelError::ProgramMismatch {
                program_n_in,
                layer_n_in,
            } => write!(
                f,
                "program compiled for n_in={program_n_in}, layer has n_in={layer_n_in}"
            ),
        }
    }
}

impl std::error::Error for AccelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AccelError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for AccelError {
    fn from(e: TensorError) -> Self {
        AccelError::Tensor(e)
    }
}
