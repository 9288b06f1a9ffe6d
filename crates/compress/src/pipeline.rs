//! The compression pipeline: prune → quantize → entropy-code, with the
//! size accounting of the paper's Tables II, IV and V.
//!
//! [`compress_layer`] builds the layer the server loads — a
//! [`SharedIndexLayer`] quantized with one k-means codebook per output
//! group, or a structured 2:4 / bank-balanced layer — and reads the
//! report off it: `W_q` and `I` from the layer, `W_c` and `I_c` from the
//! byte lengths of the sections [`SharedIndexLayer::encode_streams`]
//! writes, the same bytes the model registry stores.
//!
//! Layers are processed one at a time — weights are materialized from the
//! network spec, compressed, measured and dropped — so even the full-scale
//! networks never need to be wholly resident.

use cs_coding::bilevel;
use cs_nn::init::{self, ConvergenceProfile};
use cs_nn::spec::{LayerClass, LayerSpec, Model, NetworkSpec};
use cs_sparsity::coarse::{self, CoarseConfig};
use cs_sparsity::{fine, stats, structured, Mask};
use cs_tensor::Tensor;

use crate::config::{LayerCompressionConfig, ModelCompressionConfig};
use crate::format::{BankBalancedFcLayer, FcLayerFormat, SharedIndexLayer};
use crate::CompressError;

/// Outputs that share one index and one codebook at most: the
/// accelerator's `T_n = 16` PEs behind one NSM.
pub const MAX_GROUP_SIZE: usize = 16;

/// Bytes per dense weight (fp32, the baseline the paper's compression
/// ratios are computed against).
pub const DENSE_WEIGHT_BYTES: usize = 4;

/// Bytes per pruned-but-unquantized weight (`W_p` stage, still fp32).
pub const PRUNED_WEIGHT_BYTES: usize = 4;

/// Size accounting for one compressed layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerReport {
    /// Layer name.
    pub name: String,
    /// Layer class (conv / fc / lstm).
    pub class: LayerClass,
    /// Dense synapse count.
    pub weight_count: usize,
    /// Surviving synapse count after pruning.
    pub surviving: usize,
    /// Post-pruning density (remaining / total).
    pub density: f64,
    /// Static neuron sparsity of the pruned layer.
    pub sns: f64,
    /// Dense size in bytes.
    pub dense_bytes: usize,
    /// `W_p`: pruned weights at fp32, in bytes.
    pub wp_bytes: usize,
    /// `I`: the stored index in bits — the shared-index image (one bit
    /// per input position per output group) or, for structured modes,
    /// the packed position metadata.
    pub coarse_index_bits: usize,
    /// Fine-grained (per-synapse) index size in bits, for comparison.
    pub fine_index_bits: usize,
    /// `W_q`: quantized weights (dictionary at `quant_bits` per index +
    /// 16-bit codebooks, `SharedIndexLayer::weight_bytes`), in bytes.
    pub wq_bytes: usize,
    /// `W_c`: the stored codebooks and weight section (entropy-coded
    /// dictionary), in bytes; never more than a byte above `W_q`.
    pub wc_bytes: usize,
    /// `I_c`: the stored index section (bilevel-coded shared indexes),
    /// in bytes.
    pub ic_bytes: usize,
    /// Entropy-coded fine-grained index at the same density, in bytes
    /// (the `JBIG(I_f)` term of the irregularity metric).
    pub if_bytes: usize,
    /// Quantization dictionary width in bits.
    pub quant_bits: u8,
}

impl LayerReport {
    /// Coarse index size in bytes (rounded up).
    pub fn coarse_index_bytes(&self) -> usize {
        self.coarse_index_bits.div_ceil(8)
    }
}

/// Full network compression report (one Table IV row).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelReport {
    /// Which model was compressed.
    pub model: Model,
    /// Per-layer accounting.
    pub layers: Vec<LayerReport>,
}

impl ModelReport {
    fn sum(&self, f: impl Fn(&LayerReport) -> usize) -> usize {
        self.layers.iter().map(f).sum()
    }

    /// Total dense bytes.
    pub fn dense_bytes(&self) -> usize {
        self.sum(|l| l.dense_bytes)
    }

    /// Total `W_p` bytes.
    pub fn wp_bytes(&self) -> usize {
        self.sum(|l| l.wp_bytes)
    }

    /// Total coarse index bytes (pre-entropy-coding).
    pub fn index_bytes(&self) -> usize {
        self.sum(LayerReport::coarse_index_bytes)
    }

    /// Total `W_q` bytes.
    pub fn wq_bytes(&self) -> usize {
        self.sum(|l| l.wq_bytes)
    }

    /// Total `W_c` bytes.
    pub fn wc_bytes(&self) -> usize {
        self.sum(|l| l.wc_bytes)
    }

    /// Total entropy-coded index bytes.
    pub fn ic_bytes(&self) -> usize {
        self.sum(|l| l.ic_bytes)
    }

    /// Total entropy-coded fine-grained index bytes.
    pub fn if_bytes(&self) -> usize {
        self.sum(|l| l.if_bytes)
    }

    /// `r_p`: compression from pruning alone.
    pub fn pruning_ratio(&self) -> f64 {
        self.dense_bytes() as f64 / (self.wp_bytes() + self.index_bytes()).max(1) as f64
    }

    /// `r_q`: compression from pruning + local quantization.
    pub fn quantized_ratio(&self) -> f64 {
        self.dense_bytes() as f64 / (self.wq_bytes() + self.index_bytes()).max(1) as f64
    }

    /// `r_c`: overall compression ratio after entropy coding.
    pub fn overall_ratio(&self) -> f64 {
        self.dense_bytes() as f64 / (self.wc_bytes() + self.ic_bytes()).max(1) as f64
    }

    /// `R(Irr)`: reduced irregularity (Eq. 1) — fine-grained index
    /// compressed size over coarse-grained index compressed size.
    pub fn reduced_irregularity(&self) -> f64 {
        self.if_bytes() as f64 / self.ic_bytes().max(1) as f64
    }

    /// Mean density over layers of a class, weighted by synapse count
    /// (the per-class "sparsity" percentages of Table IV).
    pub fn class_density(&self, class: LayerClass) -> Option<f64> {
        let layers: Vec<&LayerReport> = self.layers.iter().filter(|l| l.class == class).collect();
        if layers.is_empty() {
            return None;
        }
        let total: usize = layers.iter().map(|l| l.weight_count).sum();
        let surv: usize = layers.iter().map(|l| l.surviving).sum();
        Some(surv as f64 / total.max(1) as f64)
    }
}

/// Prunes a layer according to `cfg.mode`: the configured coarse block
/// to the target density, or a structured fixed-fan-in pattern (2:4 /
/// bank-balanced, FC layers only) whose density is set by its geometry.
///
/// # Errors
///
/// Propagates invalid-density errors, and rank/geometry errors for
/// structured modes on non-FC weights.
pub fn prune_layer(weights: &Tensor, cfg: &LayerCompressionConfig) -> Result<Mask, CompressError> {
    if cfg.mode.is_structured() {
        return Ok(structured::structured_mask(weights, &cfg.mode)?);
    }
    if cfg.target_density >= 1.0 {
        return Ok(Mask::ones_like(weights.shape().clone()));
    }
    Ok(coarse::prune_to_density(
        weights,
        &cfg.coarse,
        cfg.target_density,
    )?)
}

/// Runs the full flow on one layer's weights, returning the report, the
/// mask and the stored layer (conv layers lower to the shared-index
/// format). Coarse layers share one index and one codebook per output
/// group of the block's output extent, capped at [`MAX_GROUP_SIZE`].
///
/// # Errors
///
/// Returns [`CompressError`] when pruning removes everything or a
/// sub-codec fails.
pub fn compress_layer(
    layer: &LayerSpec,
    weights: &Tensor,
    cfg: &LayerCompressionConfig,
) -> Result<(LayerReport, Mask, FcLayerFormat), CompressError> {
    let mask = prune_layer(weights, cfg)?;
    let surviving = mask.ones();
    if surviving == 0 {
        return Err(CompressError::EmptyLayer(layer.name().to_string()));
    }
    let name = layer.name();
    let (stored, wq_bytes, wc_bytes, index_bits, ic_bytes) = match cfg.mode.geometry() {
        // Structured layers store `f32` values and their position
        // metadata as is: there is no quantization or entropy stage to
        // count.
        Some((bank, k)) => {
            let l = BankBalancedFcLayer::from_fc(name, weights, &mask, bank, k)?;
            let (values, bits) = (surviving * PRUNED_WEIGHT_BYTES, l.index_bits());
            let stored = FcLayerFormat::BankBalanced(l);
            (stored, values, values, bits, bits.div_ceil(8))
        }
        None => {
            let group = cfg.coarse.block().get(1).copied().unwrap_or(1);
            let group = group.clamp(1, MAX_GROUP_SIZE);
            let shared = if weights.shape().rank() == 4 {
                SharedIndexLayer::from_conv(name, weights, &mask, group, cfg.quant_bits)?
            } else {
                SharedIndexLayer::from_fc(name, weights, &mask, group, cfg.quant_bits)?
            };
            let streams = shared.encode_streams()?;
            let (wq, index_bits) = (shared.weight_bytes(), shared.index_bits());
            let wc = streams.weights.len() + shared.lut_bytes();
            (
                FcLayerFormat::Shared(shared),
                wq,
                wc,
                index_bits,
                streams.index.len(),
            )
        }
    };

    // Fine-grained comparison mask at the same density.
    let fine_mask = fine::prune_to_density(weights, mask.density().max(1e-6))?;
    let (_, fcols) = mask_2d_dims(weights);
    let fine_img = bilevel::BiLevelImage::from_bits(fine_mask.bits(), fcols)?;
    let if_bytes = bilevel::compressed_size(&fine_img);

    let report = LayerReport {
        name: name.to_string(),
        class: layer.class(),
        weight_count: weights.len(),
        surviving,
        density: stats::mode_synapse_sparsity(&cfg.mode, &mask),
        sns: stats::static_neuron_sparsity(&mask),
        dense_bytes: weights.len() * DENSE_WEIGHT_BYTES,
        wp_bytes: surviving * PRUNED_WEIGHT_BYTES,
        coarse_index_bits: index_bits,
        fine_index_bits: weights.len(),
        wq_bytes,
        wc_bytes,
        ic_bytes,
        if_bytes,
        quant_bits: cfg.quant_bits,
    };
    Ok((report, mask, stored))
}

/// Compresses a whole network spec, materializing each layer's weights
/// with the local-convergence generator calibrated to the layer's target
/// density.
///
/// # Errors
///
/// Propagates per-layer failures.
pub fn compress_model(
    spec: &NetworkSpec,
    cfg: &ModelCompressionConfig,
    seed: u64,
) -> Result<ModelReport, CompressError> {
    compress_model_with(spec, cfg, seed, |_, _| {})
}

/// [`compress_model`], handing each layer's report and stored layer to
/// `visit` before the layer is dropped.
///
/// # Errors
///
/// Propagates per-layer failures.
pub fn compress_model_with(
    spec: &NetworkSpec,
    cfg: &ModelCompressionConfig,
    seed: u64,
    mut visit: impl FnMut(&LayerReport, &FcLayerFormat),
) -> Result<ModelReport, CompressError> {
    let mut layers = Vec::new();
    for layer in spec.weighted_layers() {
        let lc = cfg.for_layer(layer);
        let profile = ConvergenceProfile::with_target_density(profile_density(lc))
            .with_block(dominant_block(&lc.coarse));
        let weights = init::materialize(layer, &profile, seed);
        let (report, _, stored) = compress_layer(layer, &weights, lc)?;
        visit(&report, &stored);
        layers.push(report);
    }
    Ok(ModelReport {
        model: spec.model_id(),
        layers,
    })
}

/// The 2-D view used when compressing a full-resolution mask as an image.
fn mask_2d_dims(weights: &Tensor) -> (usize, usize) {
    let s = weights.shape();
    match s.rank() {
        2 => (s.dim(0), s.dim(1)),
        4 => (s.dim(0) * s.dim(2) * s.dim(3), s.dim(1)),
        _ => (1, weights.len()),
    }
}

/// Density the weight generator should assume: the geometric pattern
/// density for structured modes, the configured target otherwise.
fn profile_density(cfg: &LayerCompressionConfig) -> f64 {
    match cfg.mode.geometry() {
        Some((bank, k)) => k as f64 / bank as f64,
        None => cfg.target_density,
    }
}

fn dominant_block(cfg: &CoarseConfig) -> usize {
    cfg.block().iter().copied().max().unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_nn::spec::Scale;

    #[test]
    fn mlp_compression_report_has_paper_shape() {
        let spec = NetworkSpec::model(Model::Mlp, Scale::Full);
        let cfg = ModelCompressionConfig::paper(Model::Mlp);
        let report = compress_model(&spec, &cfg, 7).unwrap();
        assert_eq!(report.layers.len(), 3);
        // Density close to the 9.87% target.
        let d = report.class_density(LayerClass::FullyConnected).unwrap();
        assert!((d - 0.0987).abs() < 0.02, "density {d}");
        // Ratios ordered rp < rq <= rc-ish, all substantial.
        let rp = report.pruning_ratio();
        let rq = report.quantized_ratio();
        let rc = report.overall_ratio();
        assert!(rp > 5.0 && rp < 15.0, "rp {rp}");
        assert!(rq > 3.0 * rp, "rq {rq} vs rp {rp}");
        assert!(rc > rq * 0.8, "rc {rc} vs rq {rq}");
        // Irregularity reduced.
        assert!(report.reduced_irregularity() > 2.0);
    }

    #[test]
    fn lenet_compression_runs() {
        let spec = NetworkSpec::model(Model::LeNet5, Scale::Full);
        let cfg = ModelCompressionConfig::paper(Model::LeNet5);
        let report = compress_model(&spec, &cfg, 3).unwrap();
        assert_eq!(report.layers.len(), 4);
        assert!(report.overall_ratio() > 20.0);
    }

    #[test]
    fn coarse_index_far_smaller_than_fine() {
        let spec = NetworkSpec::model(Model::Mlp, Scale::Full);
        let cfg = ModelCompressionConfig::paper(Model::Mlp);
        let report = compress_model(&spec, &cfg, 7).unwrap();
        let coarse: usize = report.layers.iter().map(|l| l.coarse_index_bits).sum();
        let fine: usize = report.layers.iter().map(|l| l.fine_index_bits).sum();
        // One index bit per input position per 16-output group => ~16x
        // reduction (edge groups round up).
        let ratio = fine / coarse;
        assert!((15..=16).contains(&ratio), "ratio {ratio}");
        // The stored index is the shared-index image, bilevel-coded.
        let ic: usize = report.layers.iter().map(|l| l.ic_bytes).sum();
        assert!(ic * 8 * 4 < coarse, "I_c {ic} B vs I {coarse} bits");
    }

    #[test]
    fn dense_layer_passthrough() {
        // density 1.0 -> everything survives, index all-ones.
        let spec = NetworkSpec::model(Model::Lstm, Scale::Reduced(8));
        let mut cfg = ModelCompressionConfig::paper(Model::Lstm);
        cfg.lstm.target_density = 1.0;
        let report = compress_model(&spec, &cfg, 1).unwrap();
        assert_eq!(report.layers[0].surviving, report.layers[0].weight_count);
    }

    #[test]
    fn compress_layer_returns_block_aligned_mask() {
        let spec = NetworkSpec::model(Model::Mlp, Scale::Reduced(4));
        let cfg = ModelCompressionConfig::paper(Model::Mlp);
        let layer = spec.weighted_layers().next().unwrap();
        let lc = cfg.for_layer(layer);
        let w = init::materialize(
            layer,
            &ConvergenceProfile::with_target_density(lc.target_density),
            5,
        );
        let (report, mask, stored) = compress_layer(layer, &w, lc).unwrap();
        assert!(coarse::is_block_aligned(&mask, &lc.coarse));
        let FcLayerFormat::Shared(shared) = stored else {
            panic!("coarse layers store the shared-index format");
        };
        assert_eq!(shared.surviving(), report.surviving);
        assert_eq!((shared.quant_bits, shared.group_size), (6, 16));
        assert_eq!(report.coarse_index_bits, shared.index_bits());
        let streams = shared.encode_streams().unwrap();
        assert_eq!(report.ic_bytes, streams.index.len());
        assert_eq!(report.wq_bytes, shared.weight_bytes());
        assert_eq!(report.wc_bytes, streams.weights.len() + shared.lut_bytes());
    }

    #[test]
    fn two_four_mode_flows_end_to_end() {
        use cs_sparsity::structured;

        let spec = NetworkSpec::model(Model::Mlp, Scale::Reduced(4));
        let cfg = ModelCompressionConfig::paper(Model::Mlp);
        let layer = spec.weighted_layers().next().unwrap();
        // target_density 1.0 would disable coarse pruning; structured
        // modes ignore it and prune to the pattern anyway.
        let lc = cfg.for_layer(layer).clone().with_density(1.0).two_four();
        let w = init::materialize(layer, &ConvergenceProfile::with_target_density(0.5), 5);
        let (report, mask, stored) = compress_layer(layer, &w, &lc).unwrap();
        assert!(structured::satisfies_pattern(&mask, 4, 2));
        // Two bits per surviving offset in a bank of 4.
        assert_eq!(report.coarse_index_bits, report.surviving * 2);
        assert_eq!(report.ic_bytes, report.coarse_index_bits.div_ceil(8));
        assert_eq!(
            report.density,
            stats::pattern_density(&lc.mode, w.shape()).unwrap()
        );
        let FcLayerFormat::BankBalanced(l) = stored else {
            panic!("2:4 layers store the bank-balanced format");
        };
        assert_eq!((l.bank, l.k), (4, 2));
        assert_eq!(l.values.len(), report.surviving);
        assert_eq!(report.wc_bytes, report.surviving * 4);
    }

    #[test]
    fn bank_balanced_mode_flows_end_to_end() {
        use cs_sparsity::structured;

        let spec = NetworkSpec::model(Model::Mlp, Scale::Reduced(4));
        let cfg = ModelCompressionConfig::paper(Model::Mlp);
        let layer = spec.weighted_layers().next().unwrap();
        let lc = cfg.for_layer(layer).clone().bank_balanced(8, 2);
        let w = init::materialize(layer, &ConvergenceProfile::with_target_density(0.25), 11);
        let (report, mask, _) = compress_layer(layer, &w, &lc).unwrap();
        assert!(structured::satisfies_pattern(&mask, 8, 2));
        // Three bits per surviving offset in a bank of 8.
        assert_eq!(report.coarse_index_bits, report.surviving * 3);
        assert_eq!(report.ic_bytes, report.coarse_index_bits.div_ceil(8));
        assert_eq!(
            report.density,
            stats::pattern_density(&lc.mode, w.shape()).unwrap()
        );
    }

    #[test]
    fn structured_modes_reject_conv_weights() {
        let spec = NetworkSpec::model(Model::LeNet5, Scale::Reduced(4));
        let cfg = ModelCompressionConfig::paper(Model::LeNet5);
        let layer = spec
            .weighted_layers()
            .find(|l| l.class() == LayerClass::Convolutional)
            .unwrap();
        let lc = cfg.for_layer(layer).clone().two_four();
        let w = init::materialize(layer, &ConvergenceProfile::with_target_density(0.5), 3);
        assert!(compress_layer(layer, &w, &lc).is_err());
    }

    /// `R(Irr)` of one `n`×`n` FC layer with locally converged weights
    /// (clusters of `cluster`), pruned to 10% in `block`×`block` blocks.
    fn fc_irregularity(n: usize, cluster: usize, block: usize, seed: u64) -> (f64, LayerReport) {
        use cs_nn::spec::LayerSpecKind;
        use cs_tensor::Shape;

        let layer = LayerSpec::new("fc", LayerSpecKind::Fc { n_in: n, n_out: n });
        let profile = ConvergenceProfile::with_target_density(0.1).with_block(cluster);
        let w = init::local_convergence(Shape::d2(n, n), &profile, seed);
        let cfg = LayerCompressionConfig::paper_fc(0.1, block);
        let (report, _, _) = compress_layer(&layer, &w, &cfg).unwrap();
        (report.if_bytes as f64 / report.ic_bytes as f64, report)
    }

    #[test]
    fn coarse_pruning_reduces_irregularity_substantially() {
        let (ratio, report) = fc_irregularity(256, 16, 16, 3);
        assert!(ratio > 5.0, "R(Irr) = {ratio}");
        assert!(report.ic_bytes < report.if_bytes);
    }

    #[test]
    fn block_size_one_gives_ratio_near_one() {
        // Block 1 keeps the fine-grained mask, one index row per output.
        let (ratio, _) = fc_irregularity(128, 16, 1, 5);
        assert!((ratio - 1.0).abs() < 0.2, "R(Irr) = {ratio}");
    }

    #[test]
    fn larger_blocks_reduce_more() {
        let (r8, _) = fc_irregularity(256, 32, 8, 7);
        let (r32, _) = fc_irregularity(256, 32, 32, 7);
        assert!(r32 > r8, "r32 {r32} <= r8 {r8}");
    }

    #[test]
    fn quantization_shrinks_and_coding_shrinks_further() {
        let spec = NetworkSpec::model(Model::Cifar10Quick, Scale::Reduced(2));
        let cfg = ModelCompressionConfig::paper(Model::Cifar10Quick);
        let report = compress_model(&spec, &cfg, 9).unwrap();
        for l in &report.layers {
            assert!(l.wq_bytes < l.wp_bytes, "layer {}", l.name);
            // The stored stream falls back to the fixed-width dictionary
            // when Huffman would not be shorter: at most a byte worse.
            assert!(l.wc_bytes <= l.wq_bytes + 1, "layer {}", l.name);
        }
    }
}
