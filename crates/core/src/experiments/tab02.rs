//! Table II — AlexNet compression vs. pruning block size `N`.
//!
//! The paper retrains AlexNet at every block size, accepting whatever
//! sparsity keeps top-1 accuracy at 42.8%: larger blocks force a *denser*
//! network to stay accurate. That accuracy-driven density schedule is an
//! input here (interpolated from Table II's readable anchors: at `N = 16`
//! conv keeps 35.25% / FC 10.05%, while `r_c` falls from 79× back to 65×
//! by `N = 64`); the pipeline then computes the resulting weight/index
//! sizes and compression ratio for each `N`.

use cs_compress::config::{LayerCompressionConfig, ModelCompressionConfig};
use cs_compress::gate::GatePolicy;
use cs_compress::pipeline::{compress_model, ModelReport};
use cs_nn::spec::{LayerClass, Model, NetworkSpec, Scale};
use cs_sparsity::coarse::{CoarseConfig, PruneMetric};
use cs_sparsity::PruneMode;

use crate::render_table;

/// One block-size data point.
#[derive(Debug, Clone)]
pub struct BlockSizePoint {
    /// Block size `N` (conv blocks `(1, N, 1, 1)`, FC blocks `(N, N)`).
    pub n: usize,
    /// Conv density required to hold accuracy.
    pub conv_density: f64,
    /// FC density required to hold accuracy.
    pub fc_density: f64,
    /// Full compression report at this block size.
    pub report: ModelReport,
}

/// Result of the Table II sweep.
#[derive(Debug, Clone)]
pub struct Tab02Result {
    /// Data points in increasing `N`.
    pub points: Vec<BlockSizePoint>,
}

impl Tab02Result {
    /// Renders the Table II rows.
    pub fn render(&self) -> String {
        let header = ["N", "C:W%", "F:W%", "W(MB)", "I(KB)", "r_p", "r_q", "r_c"];
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    p.n.to_string(),
                    format!("{:.2}", 100.0 * p.conv_density),
                    format!("{:.2}", 100.0 * p.fc_density),
                    format!("{:.2}", p.report.wc_bytes() as f64 / 1e6),
                    format!("{:.2}", p.report.ic_bytes() as f64 / 1e3),
                    format!("{:.0}x", p.report.pruning_ratio()),
                    format!("{:.0}x", p.report.quantized_ratio()),
                    format!("{:.0}x", p.report.overall_ratio()),
                ]
            })
            .collect();
        format!(
            "Table II: AlexNet compression vs pruning block size\n{}",
            render_table(&header, &rows)
        )
    }

    /// The block size with the best overall ratio (the paper picks 16).
    pub fn best_n(&self) -> usize {
        self.points
            .iter()
            .max_by(|a, b| {
                a.report
                    .overall_ratio()
                    .partial_cmp(&b.report.overall_ratio())
                    .expect("finite ratios")
            })
            .map(|p| p.n)
            .unwrap_or(16)
    }
}

/// Accuracy-preserving densities per block size (see module docs).
pub fn density_schedule(n: usize) -> (f64, f64) {
    // (conv density, fc density); anchored at N=16 -> (0.3525, 0.1005),
    // tightening slightly for small blocks and loosening fast past 16.
    match n {
        0..=1 => (0.330, 0.0920),
        2 => (0.335, 0.0935),
        4 => (0.340, 0.0955),
        8 => (0.346, 0.0980),
        16 => (0.3525, 0.1005),
        32 => (0.400, 0.1300),
        _ => (0.480, 0.2100),
    }
}

/// Runs the sweep over `N ∈ {1, 2, 4, 8, 16, 32, 64}`.
///
/// # Errors
///
/// Propagates compression-pipeline failures.
pub fn run(scale: Scale, seed: u64) -> Result<Tab02Result, cs_compress::CompressError> {
    let spec = NetworkSpec::model(Model::AlexNet, scale);
    let mut points = Vec::new();
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let (cd, fd) = density_schedule(n);
        let cfg = ModelCompressionConfig {
            conv: LayerCompressionConfig {
                mode: PruneMode::Coarse,
                coarse: CoarseConfig::conv(1, n, 1, 1, PruneMetric::Average),
                target_density: cd,
                quant_bits: 8,
                gate: GatePolicy::Auto,
            },
            fc: LayerCompressionConfig {
                mode: PruneMode::Coarse,
                coarse: CoarseConfig::fc(n, n, PruneMetric::Average),
                target_density: fd,
                quant_bits: 4,
                gate: GatePolicy::Auto,
            },
            lstm: ModelCompressionConfig::paper(Model::AlexNet).lstm,
            overrides: Vec::new(),
        };
        let report = compress_model(&spec, &cfg, seed)?;
        points.push(BlockSizePoint {
            n,
            conv_density: report
                .class_density(LayerClass::Convolutional)
                .unwrap_or(cd),
            fc_density: report
                .class_density(LayerClass::FullyConnected)
                .unwrap_or(fd),
            report,
        });
    }
    Ok(Tab02Result { points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_peaks_at_intermediate_block_size() {
        let r = run(Scale::Reduced(16), 3).unwrap();
        assert_eq!(r.points.len(), 7);
        let best = r.best_n();
        assert!(
            (8..=32).contains(&best),
            "best N {best}; ratios: {:?}",
            r.points
                .iter()
                .map(|p| (p.n, p.report.overall_ratio()))
                .collect::<Vec<_>>()
        );
        // N=16 clearly beats N=1 and N=64 (the paper's 79x vs 40x/65x).
        let ratio = |n: usize| {
            r.points
                .iter()
                .find(|p| p.n == n)
                .unwrap()
                .report
                .overall_ratio()
        };
        assert!(ratio(16) > ratio(1));
        assert!(ratio(16) > ratio(64));
    }

    #[test]
    fn index_size_shrinks_with_block_size() {
        let r = run(Scale::Reduced(16), 3).unwrap();
        let idx = |n: usize| {
            r.points
                .iter()
                .find(|p| p.n == n)
                .unwrap()
                .report
                .index_bytes()
        };
        let coded = |n: usize| {
            r.points
                .iter()
                .find(|p| p.n == n)
                .unwrap()
                .report
                .ic_bytes()
        };
        // The stored index holds one bit per input position per group of
        // min(N, 16) outputs: 16x fewer rows from N = 1 to 16 (edge
        // groups round up), and the bilevel coder compounds the blocks'
        // regularity on top.
        assert!(idx(1) >= 15 * idx(16), "{} vs {}", idx(1), idx(16));
        assert!(coded(1) > 16 * coded(16), "{} vs {}", coded(1), coded(16));
        assert!(r.render().contains("Table II"));
    }
}
