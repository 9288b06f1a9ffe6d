//! Extension experiment: design-space exploration of the compression
//! parameters (the paper's "long-tuning process" discussion).
//!
//! The paper notes that finding the best block size, thresholds and
//! quantization widths is a DSE problem that needs a long tuning run,
//! then observes that `(1, 16, 1, 1)` blocks and 8-bit conv / 4-bit FC
//! quantization are good defaults. This driver performs that search on
//! representative layers: a grid over block size and dictionary widths,
//! with reconstruction error standing in for accuracy (we cannot
//! fine-tune ImageNet models), ranking feasible configurations by
//! compressed size.

use cs_compress::config::LayerCompressionConfig;
use cs_compress::format::FcLayerFormat;
use cs_compress::pipeline::compress_layer;
use cs_nn::init::{self, ConvergenceProfile};
use cs_nn::spec::{Model, NetworkSpec, Scale};
use cs_sparsity::coarse::{CoarseConfig, PruneMetric};

use crate::experiments::tab02::density_schedule;
use crate::render_table;

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DsePoint {
    /// Pruning block size `N`.
    pub n: usize,
    /// Conv dictionary width.
    pub conv_bits: u8,
    /// FC dictionary width.
    pub fc_bits: u8,
    /// Total compressed bytes (weights + indexes) over the probe layers.
    pub compressed_bytes: usize,
    /// Mean squared reconstruction error of the quantized weights,
    /// normalized by the per-config weight variance (accuracy proxy).
    pub nmse: f64,
    /// Whether the accuracy proxy stays under the feasibility bound.
    pub feasible: bool,
}

/// Result of the DSE sweep.
#[derive(Debug, Clone)]
pub struct ExtDseResult {
    /// All evaluated points, feasible-best first.
    pub points: Vec<DsePoint>,
    /// The feasibility bound applied to `nmse`.
    pub nmse_bound: f64,
}

impl ExtDseResult {
    /// The best feasible configuration.
    pub fn best(&self) -> Option<&DsePoint> {
        self.points.iter().find(|p| p.feasible)
    }

    /// Renders the ranked sweep.
    pub fn render(&self) -> String {
        let header = [
            "rank",
            "N",
            "conv bits",
            "fc bits",
            "size(KB)",
            "nmse",
            "feasible",
        ];
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                vec![
                    (i + 1).to_string(),
                    p.n.to_string(),
                    p.conv_bits.to_string(),
                    p.fc_bits.to_string(),
                    format!("{:.1}", p.compressed_bytes as f64 / 1e3),
                    format!("{:.4}", p.nmse),
                    if p.feasible { "yes" } else { "no" }.to_string(),
                ]
            })
            .collect();
        format!(
            "Extension: compression design-space exploration (nmse bound {:.3})\n{}",
            self.nmse_bound,
            render_table(&header, &rows)
        )
    }
}

fn evaluate(
    spec: &NetworkSpec,
    n: usize,
    conv_bits: u8,
    fc_bits: u8,
    seed: u64,
) -> Option<(usize, f64)> {
    let (cd, fd) = density_schedule(n);
    let mut total_bytes = 0usize;
    let mut mse_sum = 0.0f64;
    let mut var_sum = 0.0f64;
    for name in ["conv3", "fc6"] {
        let layer = spec.layers().iter().find(|l| l.name() == name)?;
        let is_conv = name.starts_with("conv");
        let cfg = LayerCompressionConfig {
            coarse: if is_conv {
                CoarseConfig::conv(1, n, 1, 1, PruneMetric::Average)
            } else {
                CoarseConfig::fc(n, n, PruneMetric::Average)
            },
            target_density: if is_conv { cd } else { fd },
            quant_bits: if is_conv { conv_bits } else { fc_bits },
            ..LayerCompressionConfig::paper_fc(fd, n)
        };
        let profile = ConvergenceProfile::with_target_density(cfg.target_density).with_block(n);
        let weights = init::materialize(layer, &profile, seed);
        let (report, mask, FcLayerFormat::Shared(stored)) =
            compress_layer(layer, &weights, &cfg).ok()?
        else {
            return None;
        };
        total_bytes += report.wc_bytes + report.ic_bytes;
        let surviving = mask.compact_values(&weights);
        let var: f64 = surviving
            .iter()
            .map(|v| f64::from(*v) * f64::from(*v))
            .sum::<f64>()
            / surviving.len().max(1) as f64;
        mse_sum += stored.squared_error(&weights) / surviving.len().max(1) as f64;
        var_sum += var;
    }
    Some((total_bytes, mse_sum / var_sum.max(1e-12)))
}

/// Runs the grid search on AlexNet's conv3 + fc6 probe layers.
pub fn run(scale: Scale, seed: u64) -> ExtDseResult {
    let spec = NetworkSpec::model(Model::AlexNet, scale);
    let mut points = Vec::new();
    for n in [4usize, 8, 16, 32] {
        for conv_bits in [4u8, 8] {
            for fc_bits in [2u8, 4, 6] {
                if let Some((bytes, nmse)) = evaluate(&spec, n, conv_bits, fc_bits, seed) {
                    points.push(DsePoint {
                        n,
                        conv_bits,
                        fc_bits,
                        compressed_bytes: bytes,
                        nmse,
                        feasible: false,
                    });
                }
            }
        }
    }
    // Feasibility: within 2x of the error at the paper's design point.
    let reference = points
        .iter()
        .find(|p| p.n == 16 && p.conv_bits == 8 && p.fc_bits == 4)
        .map(|p| p.nmse)
        .unwrap_or(0.05);
    let nmse_bound = reference * 2.0;
    for p in &mut points {
        p.feasible = p.nmse <= nmse_bound;
    }
    // Rank: feasible first, then by compressed size.
    points.sort_by(|a, b| {
        b.feasible
            .cmp(&a.feasible)
            .then(a.compressed_bytes.cmp(&b.compressed_bytes))
    });
    ExtDseResult { points, nmse_bound }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_finds_a_feasible_point_near_the_paper_design() {
        let r = run(Scale::Reduced(16), 3);
        assert_eq!(r.points.len(), 4 * 2 * 3);
        let best = r.best().expect("a feasible point exists");
        // The best feasible design uses a mid-size block, as the paper
        // found.
        assert!(
            (8..=32).contains(&best.n),
            "best N {} (points: {:?})",
            best.n,
            &r.points[..3]
        );
        assert!(r.render().contains("design-space"));
    }

    #[test]
    fn two_bit_fc_dictionaries_raise_reconstruction_error() {
        let r = run(Scale::Reduced(16), 3);
        let err_at = |fc_bits: u8| -> f64 {
            r.points
                .iter()
                .filter(|p| p.fc_bits == fc_bits && p.n == 16 && p.conv_bits == 8)
                .map(|p| p.nmse)
                .next()
                .unwrap()
        };
        assert!(err_at(2) > err_at(4));
        assert!(err_at(4) >= err_at(6));
    }
}
