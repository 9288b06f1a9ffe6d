//! Compression configuration with the paper's published settings.

use crate::gate::GatePolicy;
use cs_nn::spec::{LayerClass, LayerSpec, Model};
use cs_sparsity::coarse::{CoarseConfig, PruneMetric};
use cs_sparsity::PruneMode;

/// Settings applied to one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCompressionConfig {
    /// Pruning pattern: the paper's coarse blocks (default), or one of
    /// the structured fixed-fan-in modes (FC layers only). Structured
    /// modes ignore `coarse` and `target_density` — their density is
    /// fixed by the pattern geometry.
    pub mode: PruneMode,
    /// Coarse-grained pruning block and metric.
    pub coarse: CoarseConfig,
    /// Target post-pruning density (the paper's "sparsity": remaining /
    /// total). `1.0` disables pruning (ResNet-152 FC layers).
    pub target_density: f64,
    /// Bits per quantized-weight dictionary index (one k-means codebook
    /// of up to `2^quant_bits` entries per output group).
    pub quant_bits: u8,
    /// Dynamic activation gating for the compiled execution engine:
    /// whether the forward kernels prescan the input and skip
    /// all-`+0.0` blocks (see [`crate::gate`]). `Auto` (the default)
    /// lets the per-layer benefit model decide.
    pub gate: GatePolicy,
}

impl LayerCompressionConfig {
    /// The paper's convolutional-layer defaults: block `(1, 16, 1, 1)`,
    /// average pruning, 8-bit local quantization.
    pub fn paper_conv(density: f64) -> Self {
        LayerCompressionConfig {
            mode: PruneMode::Coarse,
            coarse: CoarseConfig::conv(1, 16, 1, 1, PruneMetric::Average),
            target_density: density,
            quant_bits: 8,
            gate: GatePolicy::Auto,
        }
    }

    /// The paper's fully-connected defaults: block `(B, B)`, average
    /// pruning, 4-bit local quantization.
    pub fn paper_fc(density: f64, block: usize) -> Self {
        LayerCompressionConfig {
            mode: PruneMode::Coarse,
            coarse: CoarseConfig::fc(block, block, PruneMetric::Average),
            target_density: density,
            quant_bits: 4,
            gate: GatePolicy::Auto,
        }
    }

    /// Overrides the quantization bit width.
    pub fn with_bits(mut self, bits: u8) -> Self {
        self.quant_bits = bits;
        self
    }

    /// Overrides the target density.
    pub fn with_density(mut self, density: f64) -> Self {
        self.target_density = density;
        self
    }

    /// Overrides the pruning mode.
    pub fn with_mode(mut self, mode: PruneMode) -> Self {
        self.mode = mode;
        self
    }

    /// Overrides the activation-gating policy.
    pub fn with_gate(mut self, gate: GatePolicy) -> Self {
        self.gate = gate;
        self
    }

    /// 2:4 semi-structured pruning (FC layers): top-2 of every group of
    /// 4 inputs per output lane, 2-bit position metadata.
    pub fn two_four(self) -> Self {
        self.with_mode(PruneMode::TwoFour)
    }

    /// Bank-balanced pruning (FC layers): exactly `k` survivors per bank
    /// of `bank` inputs in every output lane.
    pub fn bank_balanced(self, bank: usize, k: usize) -> Self {
        self.with_mode(PruneMode::BankBalanced { bank, k })
    }
}

/// Per-class settings for one network, with optional per-layer overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelCompressionConfig {
    /// Settings for convolutional layers.
    pub conv: LayerCompressionConfig,
    /// Settings for fully-connected layers.
    pub fc: LayerCompressionConfig,
    /// Settings for LSTM layers.
    pub lstm: LayerCompressionConfig,
    /// `(layer-name, config)` overrides (e.g. AlexNet's fc8 uses a 16×16
    /// block where fc6/fc7 use 32×32).
    pub overrides: Vec<(String, LayerCompressionConfig)>,
}

impl ModelCompressionConfig {
    /// Resolves the config for a specific layer.
    pub fn for_layer(&self, layer: &LayerSpec) -> &LayerCompressionConfig {
        if let Some((_, cfg)) = self.overrides.iter().find(|(name, _)| name == layer.name()) {
            return cfg;
        }
        match layer.class() {
            LayerClass::Convolutional => &self.conv,
            LayerClass::FullyConnected => &self.fc,
            LayerClass::Lstm => &self.lstm,
            LayerClass::Pooling => &self.conv, // unused; pools carry no weights
        }
    }

    /// The paper's published per-network settings (Table IV sparsities,
    /// Section III block sizes, Section V quantization bit widths).
    pub fn paper(model: Model) -> Self {
        let lstm_default = LayerCompressionConfig {
            mode: PruneMode::Coarse,
            coarse: CoarseConfig::fc(16, 16, PruneMetric::Average),
            target_density: 0.1256,
            quant_bits: 4,
            gate: GatePolicy::Auto,
        };
        match model {
            Model::AlexNet => ModelCompressionConfig {
                conv: LayerCompressionConfig::paper_conv(0.3525),
                fc: LayerCompressionConfig::paper_fc(0.1007, 32),
                lstm: lstm_default,
                overrides: vec![(
                    "fc8".to_string(),
                    LayerCompressionConfig::paper_fc(0.1007, 16),
                )],
            },
            Model::Vgg16 => ModelCompressionConfig {
                conv: LayerCompressionConfig::paper_conv(0.3517),
                fc: LayerCompressionConfig::paper_fc(0.0484, 32),
                lstm: lstm_default,
                overrides: vec![(
                    "fc8".to_string(),
                    LayerCompressionConfig::paper_fc(0.0484, 16),
                )],
            },
            Model::LeNet5 => ModelCompressionConfig {
                conv: LayerCompressionConfig::paper_conv(0.1102).with_bits(4),
                fc: LayerCompressionConfig::paper_fc(0.0853, 16),
                lstm: lstm_default,
                overrides: Vec::new(),
            },
            Model::Mlp => ModelCompressionConfig {
                conv: LayerCompressionConfig::paper_conv(1.0),
                fc: LayerCompressionConfig::paper_fc(0.0987, 16).with_bits(6),
                lstm: lstm_default,
                overrides: Vec::new(),
            },
            Model::Cifar10Quick => ModelCompressionConfig {
                conv: LayerCompressionConfig::paper_conv(0.0792),
                fc: LayerCompressionConfig::paper_fc(0.0601, 16),
                lstm: lstm_default,
                overrides: Vec::new(),
            },
            Model::ResNet152 => ModelCompressionConfig {
                conv: LayerCompressionConfig::paper_conv(0.5431),
                // ResNet's FC layer is left dense (Table III/IV: F 100%).
                fc: LayerCompressionConfig::paper_fc(1.0, 16).with_bits(8),
                lstm: lstm_default,
                overrides: Vec::new(),
            },
            Model::Lstm => ModelCompressionConfig {
                conv: LayerCompressionConfig::paper_conv(1.0),
                fc: LayerCompressionConfig::paper_fc(1.0, 16),
                lstm: lstm_default,
                overrides: Vec::new(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_nn::spec::{NetworkSpec, Scale};

    #[test]
    fn paper_configs_exist_for_all_models() {
        for m in Model::all() {
            let cfg = ModelCompressionConfig::paper(m);
            assert!(cfg.conv.target_density > 0.0);
            assert!(cfg.fc.target_density > 0.0);
        }
    }

    #[test]
    fn alexnet_fc8_override_applies() {
        let spec = NetworkSpec::model(Model::AlexNet, Scale::Full);
        let cfg = ModelCompressionConfig::paper(Model::AlexNet);
        let fc6 = spec.layers().iter().find(|l| l.name() == "fc6").unwrap();
        let fc8 = spec.layers().iter().find(|l| l.name() == "fc8").unwrap();
        assert_eq!(cfg.for_layer(fc6).coarse.block(), &[32, 32]);
        assert_eq!(cfg.for_layer(fc8).coarse.block(), &[16, 16]);
    }

    #[test]
    fn class_routing() {
        let spec = NetworkSpec::model(Model::AlexNet, Scale::Full);
        let cfg = ModelCompressionConfig::paper(Model::AlexNet);
        let conv1 = &spec.layers()[0];
        let resolved = cfg.for_layer(conv1);
        assert!((resolved.target_density - 0.3525).abs() < 1e-9);
        assert_eq!(resolved.quant_bits, 8);
    }

    #[test]
    fn resnet_fc_stays_dense() {
        let cfg = ModelCompressionConfig::paper(Model::ResNet152);
        assert_eq!(cfg.fc.target_density, 1.0);
    }

    #[test]
    fn mlp_uses_six_bit_quantization() {
        let cfg = ModelCompressionConfig::paper(Model::Mlp);
        assert_eq!(cfg.fc.quant_bits, 6);
    }
}
