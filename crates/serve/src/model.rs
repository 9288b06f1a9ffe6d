//! Servable models and the registry the server dispatches against.
//!
//! A [`ServableModel`] is a network compressed into the accelerator's
//! shared-index format: the chain the paper's software stack produces
//! (materialize → coarse-grained prune → compact shared-index layout)
//! applied to every weighted layer. The [`ModelRegistry`] holds the
//! models a server starts with and validates each layer against the
//! executor's structural checks at registration time, so admission
//! control can reject malformed models before a single request queues.

use std::sync::Arc;

use cs_accel::exec::{validate_layer, SimScratch};
use cs_accel::pe::Activation;
use cs_compress::config::ModelCompressionConfig;
use cs_compress::engine::{BatchScratch, FcKernel};
use cs_compress::format::{BankBalancedFcLayer, FcLayerFormat, SharedIndexLayer};
use cs_compress::gate::GateStats;
use cs_compress::pipeline::prune_layer;
use cs_compress::CompressError;
use cs_nn::init::{self, ConvergenceProfile};
use cs_nn::spec::{LayerSpecKind, Model, NetworkSpec, Scale};
use cs_sim::SimStats;
use cs_sparsity::PruneMode;
use cs_tensor::{ops, Shape, Tensor};

use crate::error::ServeError;

/// Output-group width of the shared-index format (`T_n` in the paper).
const GROUP_SIZE: usize = 16;

/// A network compiled to the accelerator's compact format, ready to be
/// executed by a worker.
#[derive(Debug, Clone)]
pub struct ServableModel {
    /// Registry name clients address requests to.
    pub name: String,
    /// Compressed layers in execution order, each with its activation.
    /// The format follows the layer's pruning mode: shared-index for
    /// coarse pruning, bank-balanced (2:4 included) for the structured
    /// modes.
    pub layers: Vec<(FcLayerFormat, Activation)>,
    /// Input width of the first layer.
    pub n_in: usize,
    /// Output width of the last layer.
    pub n_out: usize,
}

impl ServableModel {
    /// Compresses every fully-connected layer of `spec` into the
    /// shared-index format, chaining them with ReLU activations (the
    /// last layer is pass-through, mirroring a logits head).
    ///
    /// Only FC-only networks are servable today: the functional
    /// executor's conv path expects per-window im2col inputs the
    /// serving path does not yet produce.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for non-FC layers or
    /// mismatched widths between consecutive layers, and propagates
    /// compression failures.
    pub fn from_spec(
        name: impl Into<String>,
        spec: &NetworkSpec,
        cfg: &ModelCompressionConfig,
        seed: u64,
    ) -> Result<Self, ServeError> {
        let name = name.into();
        let mut layers: Vec<(FcLayerFormat, Activation)> = Vec::new();
        let weighted: Vec<_> = spec.weighted_layers().collect();
        let count = weighted.len();
        for (i, layer) in weighted.into_iter().enumerate() {
            let n_in = match layer.kind() {
                LayerSpecKind::Fc { n_in, .. } => *n_in,
                _ => {
                    return Err(ServeError::InvalidConfig(format!(
                        "layer {:?} is not fully-connected; only FC networks are servable",
                        layer.name()
                    )))
                }
            };
            if let Some((prev, _)) = layers.last() {
                if prev.n_out() != n_in {
                    return Err(ServeError::InvalidConfig(format!(
                        "layer {:?} expects {} inputs but previous layer produces {}",
                        layer.name(),
                        n_in,
                        prev.n_out()
                    )));
                }
            }
            let lc = cfg.for_layer(layer);
            let profile = ConvergenceProfile::with_target_density(lc.target_density);
            let weights = init::materialize(layer, &profile, seed.wrapping_add(i as u64));
            let mask = prune_layer(&weights, lc)?;
            let format = match lc.mode.geometry() {
                None => FcLayerFormat::Shared(SharedIndexLayer::from_fc(
                    layer.name(),
                    &weights,
                    &mask,
                    GROUP_SIZE,
                    lc.quant_bits,
                )?),
                Some((bank, k)) => FcLayerFormat::BankBalanced(BankBalancedFcLayer::from_fc(
                    layer.name(),
                    &weights,
                    &mask,
                    bank,
                    k,
                )?),
            };
            let activation = if i + 1 == count {
                Activation::None
            } else {
                Activation::Relu
            };
            layers.push((format, activation));
        }
        let (n_in, n_out) = match (layers.first(), layers.last()) {
            (Some((first, _)), Some((last, _))) => (first.n_in(), last.n_out()),
            _ => {
                return Err(ServeError::InvalidConfig(format!(
                    "network {:?} has no weighted layers",
                    spec.name()
                )))
            }
        };
        Ok(ServableModel {
            name,
            layers,
            n_in,
            n_out,
        })
    }

    /// The paper's MLP (784-300-100-10 at full scale) compressed with
    /// its published per-layer settings — the stock serving workload.
    ///
    /// # Errors
    ///
    /// Propagates compression failures (none occur for the stock spec).
    pub fn mlp(scale: Scale, seed: u64) -> Result<Self, ServeError> {
        let spec = NetworkSpec::model(Model::Mlp, scale);
        let cfg = ModelCompressionConfig::paper(Model::Mlp);
        ServableModel::from_spec("mlp", &spec, &cfg, seed)
    }

    /// The stock MLP pruned with a structured mode on every FC layer
    /// instead of the paper's coarse blocks. The registry name carries
    /// the mode (`"mlp-two_four"`, `"mlp-bank_balanced"`).
    ///
    /// # Errors
    ///
    /// Propagates compression failures (e.g. invalid bank geometry).
    pub fn mlp_with_mode(mode: PruneMode, scale: Scale, seed: u64) -> Result<Self, ServeError> {
        let spec = NetworkSpec::model(Model::Mlp, scale);
        let mut cfg = ModelCompressionConfig::paper(Model::Mlp);
        cfg.fc.mode = mode;
        ServableModel::from_spec(format!("mlp-{}", mode.name()), &spec, &cfg, seed)
    }

    /// Assembles a servable model directly from compressed layers (the
    /// path a hot-load from a `CSMR` registry container takes: the
    /// artifact already holds [`FcLayerFormat`]s, no spec or seed is
    /// involved).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an empty layer stack
    /// or mismatched widths between consecutive layers.
    pub fn from_layers(
        name: impl Into<String>,
        layers: Vec<(FcLayerFormat, Activation)>,
    ) -> Result<Self, ServeError> {
        let name = name.into();
        for pair in layers.windows(2) {
            let (prev, next) = (&pair[0].0, &pair[1].0);
            if prev.n_out() != next.n_in() {
                return Err(ServeError::InvalidConfig(format!(
                    "layer {:?} expects {} inputs but previous layer produces {}",
                    next.name(),
                    next.n_in(),
                    prev.n_out()
                )));
            }
        }
        let (n_in, n_out) = match (layers.first(), layers.last()) {
            (Some((first, _)), Some((last, _))) => (first.n_in(), last.n_out()),
            _ => {
                return Err(ServeError::InvalidConfig(format!(
                    "model {name:?} has no layers"
                )))
            }
        };
        Ok(ServableModel {
            name,
            layers,
            n_in,
            n_out,
        })
    }

    /// Runs the executor's structural validation over every layer —
    /// what registration and every hot load apply before a model can
    /// receive traffic.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an empty name or layer
    /// stack, and propagates [`validate_layer`] failures.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.name.is_empty() {
            return Err(ServeError::InvalidConfig(
                "model name must not be empty".to_string(),
            ));
        }
        if self.layers.is_empty() {
            return Err(ServeError::InvalidConfig(format!(
                "model {:?} has no layers",
                self.name
            )));
        }
        for (layer, _) in &self.layers {
            // Structured formats validate through their exact
            // shared-index bridge, so one structural contract covers
            // every format.
            validate_layer(&layer.to_shared())?;
        }
        Ok(())
    }

    /// The layers bridged to the shared-index view the accelerator
    /// simulator executes (exact for structured formats — identity
    /// codebooks, no quantization loss). A simulator-backed load builds
    /// this once and compiles it with
    /// [`cs_accel::exec::Accelerator::compile_network`]; requests then
    /// run the compiled network.
    pub fn shared_layers(&self) -> Vec<(SharedIndexLayer, Activation)> {
        self.layers
            .iter()
            .map(|(format, act)| (format.to_shared(), *act))
            .collect()
    }

    /// Lowers the model onto the specialized sparse engines: one
    /// [`FcKernel`] per layer — block-CSR for shared-index layers,
    /// branch-free fixed-fan-in kernels for the structured formats.
    pub fn sparse_lane(&self) -> CompiledLane {
        let layers = self
            .layers
            .iter()
            .map(|(format, act)| LaneLayer {
                name: format.name().to_string(),
                kernel: LaneKernel::Sparse(FcKernel::compile(format), false),
                activation: *act,
            })
            .collect();
        CompiledLane { layers }
    }

    /// [`ServableModel::sparse_lane`] behind the activation gate: every
    /// layer prescans its input one bit per input and skips the weight
    /// rows of inputs that are bit-exact `+0.0` when few enough are
    /// active, walking every row otherwise (see [`cs_compress::gate`]).
    /// The prescan is paid on every layer, so on dense inputs this lane
    /// is slower than the sparse one. Outputs stay bit-identical to
    /// [`ServableModel::sparse_lane`] on every input, and so to
    /// [`ServableModel::dense_lane`] on finite ones: a skipped term
    /// contributes `+0.0 * w` to a `+0.0`-seeded accumulator.
    pub fn gated_lane(&self) -> CompiledLane {
        let layers = self
            .layers
            .iter()
            .map(|(format, act)| LaneLayer {
                name: format.name().to_string(),
                kernel: LaneKernel::Sparse(FcKernel::compile(format), true),
                activation: *act,
            })
            .collect();
        CompiledLane { layers }
    }

    /// The dense reference twin of [`ServableModel::sparse_lane`]: each
    /// layer's weights decoded to a full `n_in × n_out` tensor with
    /// pruned positions stored as explicit zeros. Because both lanes
    /// decode the same values, their outputs are bit-identical on
    /// finite inputs (see [`cs_compress::engine`] for the argument).
    /// No server runs it: it is the off-server oracle that conformance
    /// and the benchmark hold served replies to.
    pub fn dense_lane(&self) -> CompiledLane {
        let layers = self
            .layers
            .iter()
            .map(|(format, act)| LaneLayer {
                name: format.name().to_string(),
                kernel: LaneKernel::Dense(FcKernel::compile(format).to_dense()),
                activation: *act,
            })
            .collect();
        CompiledLane { layers }
    }
}

/// A kernel an engine-backed worker lane runs for one layer.
#[derive(Debug, Clone)]
pub enum LaneKernel {
    /// A sparse kernel over the surviving weights: block-CSR or the
    /// structured kernel, per the layer's format. When the flag is set
    /// it runs behind the prescan-and-skip gate, and every forward
    /// reports how many inputs the gate found at `+0.0`.
    Sparse(FcKernel, bool),
    /// Dense matmul over the decoded twin weights (`n_in × n_out`).
    Dense(Tensor),
}

impl LaneKernel {
    /// The telemetry `kernel` label: `"sparse"`, `"two_four"` or
    /// `"bank_balanced"` for ungated sparse kernels, `"gated"` for
    /// gated kernels, `"dense"` for the twin.
    pub fn kind(&self) -> &'static str {
        match self {
            LaneKernel::Sparse(_, true) => "gated",
            LaneKernel::Sparse(kernel, false) => kernel.kind(),
            LaneKernel::Dense(_) => "dense",
        }
    }

    /// Whether the layer runs behind the activation gate.
    pub(crate) fn gated(&self) -> bool {
        matches!(self, LaneKernel::Sparse(_, true))
    }

    /// Input width of the layer.
    pub(crate) fn n_in(&self) -> usize {
        match self {
            LaneKernel::Sparse(kernel, _) => kernel.n_in(),
            LaneKernel::Dense(weights) => weights.shape().dim(0),
        }
    }

    /// Output width of the layer.
    pub(crate) fn n_out(&self) -> usize {
        match self {
            LaneKernel::Sparse(kernel, _) => kernel.n_out(),
            LaneKernel::Dense(weights) => weights.shape().dim(1),
        }
    }

    /// Runs the kernel on one input vector (pre-activation outputs).
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] (labelled with [`Self::kind`])
    /// when `input` is not exactly `n_in` long, on every kernel kind.
    pub fn forward(&self, input: &[f32]) -> Result<Vec<f32>, ServeError> {
        self.forward_counted(input).map(|(out, _)| out)
    }

    /// [`Self::forward`] plus the gate occupancy stats when this layer
    /// is gated (`None` for ungated kernels).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_counted(
        &self,
        input: &[f32],
    ) -> Result<(Vec<f32>, Option<GateStats>), ServeError> {
        check_width(self.kind(), self.n_in(), input.len())?;
        let mut out = vec![0.0f32; self.n_out()];
        let mut scratch = BatchScratch::default();
        let stats = self.forward_batch(input, &mut out, &mut scratch)?;
        let stats = stats.first().copied();
        Ok((out, stats))
    }

    /// Runs the kernel over a whole batch: `inputs` holds `B` input
    /// vectors back to back, `outs` receives `B × n_out`
    /// pre-activation outputs. Returns one [`GateStats`] per column on
    /// gated layers and an empty slice otherwise; worker lanes feed
    /// them to the `serve_gate_blocks_total` hit/skip counters.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors from the dense path.
    pub(crate) fn forward_batch<'s>(
        &self,
        inputs: &[f32],
        outs: &mut [f32],
        scratch: &'s mut BatchScratch,
    ) -> Result<&'s [GateStats], ServeError> {
        match self {
            LaneKernel::Sparse(kernel, gated) => {
                Ok(kernel.forward_batch(inputs, outs, scratch, *gated))
            }
            LaneKernel::Dense(weights) => {
                // `ops::matmul` computes each row on its own, so the
                // batched product is the per-request one row by row.
                let b = outs.len() / self.n_out().max(1);
                let x = Tensor::from_vec(Shape::d2(b, self.n_in()), inputs.to_vec())
                    .map_err(CompressError::from)?;
                let out = ops::matmul(&x, weights).map_err(CompressError::from)?;
                outs.copy_from_slice(out.as_slice());
                Ok(&[])
            }
        }
    }
}

/// A lane or kernel called directly takes exactly one input of its
/// width, and anything else is a typed error whatever the kernel kind
/// (served requests are checked at admission already).
fn check_width(label: &str, expected: usize, actual: usize) -> Result<(), ServeError> {
    if actual == expected {
        return Ok(());
    }
    Err(ServeError::ShapeMismatch {
        model: label.to_string(),
        expected,
        actual,
    })
}

/// One layer of an engine-backed worker lane.
#[derive(Debug, Clone)]
pub struct LaneLayer {
    /// Layer name (the telemetry `layer` label).
    pub name: String,
    /// The compiled kernel.
    pub kernel: LaneKernel,
    /// Activation applied element-wise after the kernel.
    pub activation: Activation,
}

/// A model lowered for engine-backed workers: per-layer kernels in
/// execution order. Each load builds one, so the hot path never
/// touches the registry or re-decodes weights.
#[derive(Debug, Clone)]
pub struct CompiledLane {
    /// Layers in execution order.
    pub layers: Vec<LaneLayer>,
}

/// The buffers a worker walks a batch through. On an engine lane, layer
/// outputs ping-pong between two activation buffers and the kernels
/// share one [`BatchScratch`]; on the simulator, the batch's outputs
/// gather in the first buffer, each column's counters in `hw`, and the
/// network runs through one [`SimScratch`]. One per worker; nothing is
/// allocated once they have grown to the widest layer at the largest
/// batch.
#[derive(Debug, Default)]
pub(crate) struct LaneArena {
    front: Vec<f32>,
    back: Vec<f32>,
    scratch: BatchScratch,
    hw: Vec<SimStats>,
    sim: SimScratch,
}

impl LaneArena {
    /// The simulator's share: the batch's outputs, each column's
    /// counters, and the simulator scratch.
    pub(crate) fn sim_buffers(&mut self) -> (&mut Vec<f32>, &mut Vec<SimStats>, &mut SimScratch) {
        (&mut self.front, &mut self.hw, &mut self.sim)
    }
}

/// What the lane walk reports around each layer's kernel, so serving
/// telemetry can time it; `()` observes nothing.
pub(crate) trait KernelObserver {
    /// Layer `layer`'s kernel is about to run over the batch.
    fn kernel_start(&mut self, layer: usize);
    /// It returned, with one [`GateStats`] per column if it was gated.
    fn kernel_end(&mut self, layer: usize, gate: &[GateStats]);
}

impl KernelObserver for () {
    fn kernel_start(&mut self, _layer: usize) {}
    fn kernel_end(&mut self, _layer: usize, _gate: &[GateStats]) {}
}

impl CompiledLane {
    /// Runs the whole lane on one input: each layer's kernel followed
    /// by its activation.
    ///
    /// # Errors
    ///
    /// [`ServeError::ShapeMismatch`] (labelled with the first layer's
    /// name) when `input` is not exactly the first layer's width, on
    /// every lane kind.
    pub fn forward(&self, input: &[f32]) -> Result<Vec<f32>, ServeError> {
        if let Some(first) = self.layers.first() {
            check_width(&first.name, first.kernel.n_in(), input.len())?;
        }
        let mut arena = LaneArena::default();
        Ok(self.forward_batch(input, &mut arena, &mut ())?.to_vec())
    }

    /// Walks the layers once for a whole batch (`inputs` holds the
    /// input vectors back to back): every kernel runs over all columns
    /// at once, its activation is applied in place, and the result is
    /// the `B × n_out` outputs, borrowed from the arena. The activation
    /// runs after `kernel_end`, outside what the observer times.
    ///
    /// # Errors
    ///
    /// Propagates kernel errors (dense-path shape mismatches only).
    pub(crate) fn forward_batch<'a>(
        &self,
        inputs: &'a [f32],
        arena: &'a mut LaneArena,
        observer: &mut impl KernelObserver,
    ) -> Result<&'a [f32], ServeError> {
        let Some(first) = self.layers.first() else {
            return Ok(inputs);
        };
        let b = inputs.len() / first.kernel.n_in().max(1);
        let LaneArena {
            front,
            back,
            scratch,
            ..
        } = arena;
        for (li, layer) in self.layers.iter().enumerate() {
            let src: &[f32] = if li == 0 { inputs } else { front };
            back.resize(b * layer.kernel.n_out(), 0.0);
            observer.kernel_start(li);
            let gate = layer.kernel.forward_batch(src, back, scratch)?;
            observer.kernel_end(li, gate);
            for v in back.iter_mut() {
                *v = layer.activation.apply(*v);
            }
            std::mem::swap(front, back);
        }
        Ok(front)
    }
}

/// The models a server starts with, in registration order, under
/// distinct names.
///
/// Built once before the server starts; registration validates every
/// layer with the executor's [`validate_layer`] so a malformed artifact
/// is rejected here instead of failing requests later.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: Vec<Arc<ServableModel>>,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Adds a model, returning its dense index.
    ///
    /// # Errors
    ///
    /// Rejects duplicate names, empty models, and any layer that fails
    /// the executor's structural validation.
    pub fn register(&mut self, model: ServableModel) -> Result<usize, ServeError> {
        if self.models.iter().any(|m| m.name == model.name) {
            return Err(ServeError::InvalidConfig(format!(
                "model {:?} registered twice",
                model.name
            )));
        }
        model.validate()?;
        self.models.push(Arc::new(model));
        Ok(self.models.len() - 1)
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Registered model names in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.models.iter().map(|m| m.name.as_str()).collect()
    }

    /// All models in registration order (workers snapshot this once at
    /// startup so each owns its model set).
    pub fn models(&self) -> &[Arc<ServableModel>] {
        &self.models
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_accel::exec::Accelerator;
    use cs_accel::AccelConfig;

    #[test]
    fn mlp_compiles_and_runs_end_to_end() {
        let m = ServableModel::mlp(Scale::Reduced(8), 7).unwrap();
        assert_eq!(m.layers.len(), 3);
        assert_eq!(m.n_in, m.layers[0].0.n_in());
        assert_eq!(m.n_out, m.layers.last().unwrap().0.n_out());
        let accel = Accelerator::new(AccelConfig::paper_default());
        let input = vec![0.5f32; m.n_in];
        let run = accel.run_network(&m.shared_layers(), &input).unwrap();
        assert_eq!(run.outputs.len(), m.n_out);
        assert!(run.stats.cycles > 0);
    }

    #[test]
    fn structured_mlps_compile_serve_lanes_and_register() {
        for mode in [
            PruneMode::TwoFour,
            PruneMode::BankBalanced { bank: 8, k: 2 },
        ] {
            let m = ServableModel::mlp_with_mode(mode, Scale::Reduced(8), 7).unwrap();
            assert_eq!(m.name, format!("mlp-{}", mode.name()));
            for (format, _) in &m.layers {
                assert_eq!(format.kind(), mode.name());
            }
            let sparse = m.sparse_lane();
            assert!(sparse.layers.iter().all(|l| l.kernel.kind() == mode.name()));
            let dense = m.dense_lane();
            let input: Vec<f32> = (0..m.n_in)
                .map(|i| {
                    if i % 3 == 0 {
                        0.0
                    } else {
                        i as f32 * 0.01 - 0.4
                    }
                })
                .collect();
            let a = sparse.forward(&input).unwrap();
            let b = dense.forward(&input).unwrap();
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "mode {:?}", mode);
            // The shared-index bridge is exact (identity codebooks), so
            // the simulator path admits structured models and agrees
            // with the lanes up to accumulation-order rounding.
            let mut reg = ModelRegistry::new();
            reg.register(m.clone()).unwrap();
            let accel = Accelerator::new(AccelConfig::paper_default());
            let run = accel.run_network(&m.shared_layers(), &input).unwrap();
            assert_eq!(run.outputs.len(), a.len());
            for (x, y) in run.outputs.iter().zip(&a) {
                assert!((x - y).abs() <= 1e-4 * y.abs().max(1.0), "mode {:?}", mode);
            }
        }
    }

    #[test]
    fn registry_rejects_duplicates_and_resolves_names() {
        let m = ServableModel::mlp(Scale::Reduced(8), 7).unwrap();
        let mut reg = ModelRegistry::new();
        let idx = reg.register(m.clone()).unwrap();
        assert_eq!(idx, 0);
        assert!(matches!(reg.register(m), Err(ServeError::InvalidConfig(_))));
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.names(), vec!["mlp"]);
        assert_eq!(reg.models()[0].name, "mlp");
    }

    #[test]
    fn conv_networks_are_rejected_with_a_typed_error() {
        let spec = NetworkSpec::model(Model::AlexNet, Scale::Reduced(16));
        let cfg = ModelCompressionConfig::paper(Model::AlexNet);
        let err = ServableModel::from_spec("alex", &spec, &cfg, 1).unwrap_err();
        assert!(matches!(err, ServeError::InvalidConfig(_)));
    }

    #[test]
    fn sparse_and_dense_lanes_are_bit_identical() {
        let m = ServableModel::mlp(Scale::Reduced(8), 7).unwrap();
        let sparse = m.sparse_lane();
        let dense = m.dense_lane();
        assert_eq!(sparse.layers.len(), m.layers.len());
        for (lane_layer, (format, act)) in sparse.layers.iter().zip(&m.layers) {
            assert_eq!(lane_layer.name, format.name());
            assert_eq!(lane_layer.kernel.kind(), "sparse");
            assert_eq!(lane_layer.activation, *act);
        }
        assert!(dense.layers.iter().all(|l| l.kernel.kind() == "dense"));
        // Inputs mixing zeros, negatives and positives; both lanes must
        // agree bit-for-bit (same decoded weights, same term order).
        let input: Vec<f32> = (0..m.n_in)
            .map(|i| match i % 5 {
                0 => 0.0,
                1 => -0.75,
                2 => (i % 13) as f32 * 0.11,
                3 => -((i % 7) as f32) * 0.23,
                _ => 1.5,
            })
            .collect();
        let a = sparse.forward(&input).unwrap();
        let b = dense.forward(&input).unwrap();
        assert_eq!(a.len(), m.n_out);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert!(a.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn lanes_reject_a_wrong_width_input_with_a_typed_error() {
        let m = ServableModel::mlp(Scale::Reduced(8), 7).unwrap();
        let n = m.n_in;
        for lane in [m.sparse_lane(), m.gated_lane(), m.dense_lane()] {
            let kind = lane.layers[0].kernel.kind();
            for width in [n - 1, n + 1, 2 * n] {
                let input = vec![0.5f32; width];
                let shape_error = |r: Result<Vec<f32>, ServeError>| {
                    matches!(
                        r,
                        Err(ServeError::ShapeMismatch { expected, actual, .. })
                            if expected == n && actual == width
                    )
                };
                assert!(
                    shape_error(lane.forward(&input)),
                    "{kind} lane, width {width}"
                );
                let counted = lane.layers[0].kernel.forward_counted(&input);
                assert!(
                    shape_error(counted.map(|(out, _)| out)),
                    "{kind} kernel, width {width}"
                );
            }
            assert_eq!(lane.forward(&vec![0.5; n]).unwrap().len(), m.n_out);
        }
    }

    #[test]
    fn registration_runs_structural_validation() {
        let mut m = ServableModel::mlp(Scale::Reduced(8), 7).unwrap();
        // Corrupt a group's shared index so validation must trip.
        match &mut m.layers[0].0 {
            FcLayerFormat::Shared(sil) => {
                sil.groups[0].index.pop();
            }
            other => panic!("coarse MLP should compile to Shared, got {}", other.kind()),
        }
        let mut reg = ModelRegistry::new();
        assert!(matches!(reg.register(m), Err(ServeError::Accel(_))));
    }
}
