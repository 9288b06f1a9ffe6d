//! Extension experiment: Huffman vs. adaptive arithmetic coding in the
//! entropy stage.
//!
//! The paper names both coders (Section III-C) but only builds Huffman.
//! This extension runs the full pipeline once over all seven networks
//! and codes each stored weight-index stream both ways: Huffman is the
//! stored section itself (which falls back to the fixed-width dictionary
//! where Huffman would not be shorter), and the adaptive arithmetic coder
//! (`arith::encode_symbols`) re-codes the same stream, quantifying what
//! the alternative would have bought.

use cs_coding::arith;
use cs_compress::config::ModelCompressionConfig;
use cs_compress::format::FcLayerFormat;
use cs_compress::pipeline::compress_model_with;
use cs_nn::spec::{Model, NetworkSpec, Scale};

use crate::render_table;

/// One network's coder comparison.
#[derive(Debug, Clone)]
pub struct EntropyRow {
    /// The model.
    pub model: Model,
    /// `W_c` bytes with Huffman coding.
    pub huffman_wc: usize,
    /// `W_c` bytes with arithmetic coding.
    pub arith_wc: usize,
    /// Overall ratio with Huffman.
    pub huffman_rc: f64,
    /// Overall ratio with arithmetic coding.
    pub arith_rc: f64,
}

/// Result of the coder comparison.
#[derive(Debug, Clone)]
pub struct ExtEntropyResult {
    /// One row per model.
    pub rows: Vec<EntropyRow>,
}

impl ExtEntropyResult {
    /// Mean size advantage of arithmetic over Huffman (1.0 = parity).
    pub fn mean_advantage(&self) -> f64 {
        let s: f64 = self
            .rows
            .iter()
            .map(|r| r.huffman_wc as f64 / r.arith_wc.max(1) as f64)
            .sum();
        s / self.rows.len().max(1) as f64
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let header = [
            "model",
            "huffman Wc",
            "arith Wc",
            "huffman r_c",
            "arith r_c",
        ];
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                vec![
                    r.model.to_string(),
                    format!("{:.1}K", r.huffman_wc as f64 / 1e3),
                    format!("{:.1}K", r.arith_wc as f64 / 1e3),
                    format!("{:.0}x", r.huffman_rc),
                    format!("{:.0}x", r.arith_rc),
                ]
            })
            .collect();
        format!(
            "Extension: entropy-coder comparison (mean arith advantage {:.3}x)\n{}",
            self.mean_advantage(),
            render_table(&header, &rows)
        )
    }
}

/// Runs the comparison for all seven networks.
///
/// # Errors
///
/// Propagates compression failures.
pub fn run(scale: Scale, seed: u64) -> Result<ExtEntropyResult, cs_compress::CompressError> {
    let mut rows = Vec::new();
    for model in Model::all() {
        let spec = NetworkSpec::model(model, scale);
        let cfg = ModelCompressionConfig::paper(model);
        // `W_c` with each stored weight section swapped for the
        // arithmetic-coded stream.
        let mut arith_wc = 0usize;
        let report = compress_model_with(&spec, &cfg, seed, |layer, stored| {
            arith_wc += match stored {
                FcLayerFormat::Shared(l) => {
                    arith::encode_symbols(&l.weight_stream(), l.quant_bits).len() + l.lut_bytes()
                }
                _ => layer.wc_bytes,
            };
        })?;
        rows.push(EntropyRow {
            model,
            huffman_wc: report.wc_bytes(),
            arith_wc,
            huffman_rc: report.overall_ratio(),
            arith_rc: report.dense_bytes() as f64 / (arith_wc + report.ic_bytes()).max(1) as f64,
        });
    }
    Ok(ExtEntropyResult { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coders_are_within_a_few_percent_of_each_other() {
        let r = run(Scale::Reduced(16), 5).unwrap();
        assert_eq!(r.rows.len(), 7);
        for row in &r.rows {
            let ratio = row.huffman_wc as f64 / row.arith_wc.max(1) as f64;
            assert!(
                (0.7..1.5).contains(&ratio),
                "{}: huffman {} vs arith {}",
                row.model,
                row.huffman_wc,
                row.arith_wc
            );
        }
        assert!(r.render().contains("entropy-coder"));
    }
}
