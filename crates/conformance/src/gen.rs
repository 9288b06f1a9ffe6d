//! Deterministic case generator: `(seed, index) → Case`.
//!
//! One u64 seed drives the whole run; each case index forks its own
//! [`CaseRng`] stream, so any case can be regenerated in isolation with
//! `conformance replay --seed N --case K` — no corpus files, no state.
//!
//! The generator deliberately over-samples the configurations that have
//! historically broken sparse stacks:
//!
//! * widths that are **not** multiples of the 16-lane strip width;
//! * pruning blocks **larger than the matrix** and blocks that do not
//!   divide the layer shape;
//! * target densities at the edges — `≈0%` (the pruner keeps exactly
//!   its one guaranteed block) and `100%` (nothing pruned, but the
//!   whole compressed path still runs);
//! * all-zero weight layers (k-means over a single value);
//! * max- and average-metric pruning, 2/4/8-bit codebooks, and inputs
//!   with exact-zero stripes (dynamic sparsity for the NSM path).

use cs_sparsity::coarse::PruneMetric;
use cs_sparsity::PruneMode;

use crate::rng::CaseRng;

/// Density value standing in for the "0%" edge: the pruner rejects an
/// exact 0.0 target (and always keeps its best block), so this target
/// asks for the minimum it will ever grant.
pub const NEAR_ZERO_DENSITY: f64 = 1e-4;

/// One fully-connected layer's generated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct FcLayerCase {
    /// Input width.
    pub n_in: usize,
    /// Output width.
    pub n_out: usize,
    /// Pruning block along the input dimension.
    pub block_in: usize,
    /// Pruning block along the output dimension.
    pub block_out: usize,
    /// Shared-index groups per pruning block along the output
    /// dimension: a group is `min(block_out, n_out) / group_split`
    /// lanes wide when that divides, else the whole block, so the mask
    /// is shared within every group. Above 1, adjacent groups of one
    /// block share their runs, which the engine walks as pairs (fc6 and
    /// fc7 hold 32-wide blocks over 16-wide groups).
    pub group_split: usize,
    /// Block scoring metric.
    pub metric: PruneMetric,
    /// Target post-pruning density, including the 0%/100% edges.
    pub density: f64,
    /// Codebook index width in bits.
    pub quant_bits: u8,
    /// All-zero weights instead of the gaussian fill.
    pub zero_weights: bool,
    /// Seed for the weight fill.
    pub weight_seed: u64,
    /// Pruning pattern. `Coarse` uses `block_in`/`block_out`/`metric`/
    /// `density` above; the structured patterns ignore those fields and
    /// prune to their fixed geometry instead.
    pub pattern: PruneMode,
}

/// Deliberate poison written over the first input elements, aimed at
/// the activation gate's skip-eligibility rule (`+0.0` bits only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InputPoison {
    /// Plain generated input.
    None,
    /// `input[0] = -0.0`: finite (every differential leg still runs),
    /// but the gate must treat it as occupied, never skippable.
    NegZero,
    /// `input[0] = NaN`, `input[1] = +inf`: voids the dense-reference
    /// bit contract, so the executor drops the dense and simulator
    /// legs and instead holds the engine to the scalar walk over its
    /// survivors, and each batched column to its single-column run.
    NonFinite,
}

/// A generated FC network: layers chained `n_out[i] == n_in[i+1]`,
/// ReLU between layers, pass-through after the last.
#[derive(Debug, Clone, PartialEq)]
pub struct FcNetCase {
    /// The layers in execution order.
    pub layers: Vec<FcLayerCase>,
    /// Seed for the input fill.
    pub input_seed: u64,
    /// Every `zero_every`-th input is exactly `0.0` (0 = dense input).
    pub zero_every: usize,
    /// Poison written over the input after the fill.
    pub poison: InputPoison,
    /// A LIF spike frame (about 3% of inputs active, the rest exactly
    /// `+0.0`) instead of the `zero_every` fill: the active-input walk's
    /// home input.
    pub spikes: bool,
}

impl FcLayerCase {
    /// The shared-index group width (see [`Self::group_split`]).
    pub fn group_size(&self) -> usize {
        let (block, split) = (
            self.block_out.min(self.n_out).max(1),
            self.group_split.max(1),
        );
        if block.is_multiple_of(split) {
            block / split
        } else {
            block
        }
    }
}

/// A generated convolutional layer case.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvCase {
    /// Input feature maps.
    pub n_fin: usize,
    /// Output feature maps.
    pub n_fout: usize,
    /// Square kernel size.
    pub k: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Zero padding.
    pub pad: usize,
    /// Pruning block `(b_fin, b_fout, b_x, b_y)`.
    pub block: (usize, usize, usize, usize),
    /// Block scoring metric.
    pub metric: PruneMetric,
    /// Target post-pruning density.
    pub density: f64,
    /// Codebook index width in bits.
    pub quant_bits: u8,
    /// Seed for the weight fill.
    pub weight_seed: u64,
    /// Seed for the input fill.
    pub input_seed: u64,
}

/// A generated LSTM layer for the timing-model invariant checks (the
/// execution engines have no recurrent kernel, so LSTM cases exercise
/// the simulator/baseline timing stack only).
#[derive(Debug, Clone, PartialEq)]
pub struct LstmTimingCase {
    /// Input feature width.
    pub n_in: usize,
    /// Hidden state width.
    pub n_hidden: usize,
    /// Unrolled sequence length.
    pub seq_len: usize,
    /// Static synapse density.
    pub static_density: f64,
    /// Dynamic input density.
    pub dynamic_density: f64,
    /// Stored weight width in bits.
    pub weight_bits: u8,
}

/// What a case exercises.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseKind {
    /// Differential FC network (all backends).
    FcNet(FcNetCase),
    /// Differential conv layer (dense vs engine).
    Conv(ConvCase),
    /// Timing-model invariants only.
    LstmTiming(LstmTimingCase),
}

impl CaseKind {
    /// Short kind label for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CaseKind::FcNet(_) => "fc",
            CaseKind::Conv(_) => "conv",
            CaseKind::LstmTiming(_) => "lstm",
        }
    }

    /// Layer count (1 for single-layer kinds) — what the shrinker
    /// minimizes first.
    pub fn layer_count(&self) -> usize {
        match self {
            CaseKind::FcNet(c) => c.layers.len(),
            _ => 1,
        }
    }

    /// One-line human summary for reports and replay output.
    pub fn summary(&self) -> String {
        match self {
            CaseKind::FcNet(c) => {
                let dims: Vec<String> = std::iter::once(c.layers[0].n_in)
                    .chain(c.layers.iter().map(|l| l.n_out))
                    .map(|d| d.to_string())
                    .collect();
                let dens: Vec<String> = c
                    .layers
                    .iter()
                    .map(|l| format!("{:.3}", l.density))
                    .collect();
                let pats: Vec<String> =
                    c.layers.iter().map(|l| pattern_label(&l.pattern)).collect();
                let poison = match c.poison {
                    InputPoison::None => "",
                    InputPoison::NegZero => " poison -0.0",
                    InputPoison::NonFinite => " poison nan/inf",
                };
                let input = if c.spikes {
                    "spikes".to_string()
                } else {
                    format!("zero_every {}", c.zero_every)
                };
                format!(
                    "fc net {} densities [{}] blocks {:?} groups [{}] patterns [{}] {input}{poison}",
                    dims.join("x"),
                    dens.join(" "),
                    c.layers
                        .iter()
                        .map(|l| (l.block_in, l.block_out))
                        .collect::<Vec<_>>(),
                    c.layers
                        .iter()
                        .map(|l| l.group_size().to_string())
                        .collect::<Vec<_>>()
                        .join(" "),
                    pats.join(" "),
                )
            }
            CaseKind::Conv(c) => format!(
                "conv {}→{} k{} {}x{} pad {} block {:?} density {:.3}",
                c.n_fin, c.n_fout, c.k, c.h, c.w, c.pad, c.block, c.density
            ),
            CaseKind::LstmTiming(c) => format!(
                "lstm {}→{} seq {} static {:.3} dynamic {:.3} bits {}",
                c.n_in, c.n_hidden, c.seq_len, c.static_density, c.dynamic_density, c.weight_bits
            ),
        }
    }
}

/// Short label for a pruning pattern in case summaries.
fn pattern_label(p: &PruneMode) -> String {
    match p {
        PruneMode::BankBalanced { bank, k } => format!("bank{bank}:{k}"),
        other => other.name().to_string(),
    }
}

/// One generated conformance case.
#[derive(Debug, Clone, PartialEq)]
pub struct Case {
    /// Run seed the case was generated from.
    pub seed: u64,
    /// Case index within the run.
    pub index: u64,
    /// The generated configuration.
    pub kind: CaseKind,
}

/// Width pool: mixes strip-width multiples with awkward odd sizes.
const WIDTHS: [usize; 8] = [5, 8, 12, 16, 17, 24, 32, 48];
/// Block pool: includes 100 (always larger than any generated matrix)
/// and sizes that do not divide the widths above.
const BLOCKS: [usize; 8] = [1, 2, 3, 4, 8, 16, 24, 100];
const QUANT_BITS: [u8; 3] = [2, 4, 8];

fn density(rng: &mut CaseRng) -> f64 {
    let roll = rng.f64();
    if roll < 0.10 {
        NEAR_ZERO_DENSITY
    } else if roll < 0.25 {
        1.0
    } else {
        0.1 + 0.8 * rng.f64()
    }
}

fn metric(rng: &mut CaseRng) -> PruneMetric {
    if rng.chance(0.5) {
        PruneMetric::Average
    } else {
        PruneMetric::Max
    }
}

/// Generates case `index` of run `seed`. Pure: the same pair always
/// yields the same case on every platform.
pub fn generate(seed: u64, index: u64) -> Case {
    let mut rng = CaseRng::new(seed, index);
    let kind = match rng.range(0, 10) {
        0..=5 => CaseKind::FcNet(gen_fc(&mut rng)),
        6..=7 => CaseKind::Conv(gen_conv(&mut rng)),
        _ => CaseKind::LstmTiming(gen_lstm(&mut rng)),
    };
    Case { seed, index, kind }
}

fn gen_fc(rng: &mut CaseRng) -> FcNetCase {
    let depth = rng.range(1, 5) as usize;
    // Boundary widths: n_in of the first layer plus each layer's n_out.
    let widths: Vec<usize> = (0..=depth).map(|_| *rng.pick(&WIDTHS)).collect();
    let mut layers: Vec<FcLayerCase> = (0..depth)
        .map(|i| FcLayerCase {
            n_in: widths[i],
            n_out: widths[i + 1],
            block_in: *rng.pick(&BLOCKS),
            block_out: *rng.pick(&BLOCKS),
            group_split: 1,
            metric: metric(rng),
            density: density(rng),
            quant_bits: *rng.pick(&QUANT_BITS),
            zero_weights: {
                // The retired bias draw, discarded so that every pinned
                // `(seed, index)` pair replays the same layers.
                let _ = rng.chance(0.2);
                rng.chance(0.07)
            },
            weight_seed: rng.next_u64(),
            pattern: PruneMode::Coarse,
        })
        .collect();
    let input_seed = rng.next_u64();
    let zero_every = if rng.chance(0.4) {
        rng.range(2, 6) as usize
    } else {
        0
    };
    // Pattern draws come after every legacy draw so historical
    // `(seed, index)` pairs keep their width/block/density/seed values.
    for l in &mut layers {
        l.pattern = pattern(rng);
    }
    // Gate edge draws, again strictly after everything above.
    let poison = match rng.range(0, 10) {
        0 => InputPoison::NonFinite,
        1 => InputPoison::NegZero,
        _ => InputPoison::None,
    };
    // Degenerate-bank draw: sometimes force `k = bank`, so the
    // bank-balanced constraint is vacuous and the mask degrades to
    // fully dense (the format must normalize, not reject).
    if rng.chance(0.2) {
        for l in &mut layers {
            if let PruneMode::BankBalanced { bank, .. } = l.pattern {
                l.pattern = PruneMode::BankBalanced { bank, k: bank };
            }
        }
    }
    // Shared-run and spike-input draws, strictly after everything
    // above.
    for l in &mut layers {
        l.group_split = *rng.pick(&[1, 1, 2, 4]);
    }
    let spikes = rng.chance(0.2);
    FcNetCase {
        layers,
        input_seed,
        zero_every,
        poison,
        spikes,
    }
}

/// Bank pool for bank-balanced cases: divides some widths (8, 16),
/// leaves ragged tail banks on the odd ones (5, 12, 17, 24).
const BANKS: [usize; 3] = [4, 8, 16];

fn pattern(rng: &mut CaseRng) -> PruneMode {
    let roll = rng.f64();
    if roll < 0.6 {
        PruneMode::Coarse
    } else if roll < 0.8 {
        PruneMode::TwoFour
    } else {
        let bank = *rng.pick(&BANKS);
        let k = rng.range(1, bank as u64) as usize;
        PruneMode::BankBalanced { bank, k }
    }
}

fn gen_conv(rng: &mut CaseRng) -> ConvCase {
    let k: usize = if rng.chance(0.3) { 1 } else { 3 };
    let n_fin = rng.range(1, 4) as usize;
    let n_fout = *rng.pick(&[4usize, 8, 12, 16, 32]);
    let pad = rng.range(0, 2) as usize;
    // Output size must stay positive: h + 2·pad ≥ k.
    let min_hw = k.saturating_sub(2 * pad).max(1);
    let h = min_hw + rng.range(1, 8) as usize;
    let w = min_hw + rng.range(1, 8) as usize;
    let b_fout = *rng.pick(&[4usize, 8, 16, 100]);
    let b_fin = if rng.chance(0.5) { 1 } else { 100 };
    let b_x = if rng.chance(0.5) { 1 } else { k };
    let b_y = if rng.chance(0.5) { 1 } else { k };
    ConvCase {
        n_fin,
        n_fout,
        k,
        h,
        w,
        pad,
        block: (b_fin, b_fout, b_x, b_y),
        metric: metric(rng),
        density: density(rng),
        quant_bits: *rng.pick(&QUANT_BITS),
        weight_seed: {
            // The retired bias draw, discarded as in `gen_fc`.
            let _ = rng.chance(0.25);
            rng.next_u64()
        },
        input_seed: rng.next_u64(),
    }
}

fn gen_lstm(rng: &mut CaseRng) -> LstmTimingCase {
    LstmTimingCase {
        n_in: *rng.pick(&[8usize, 16, 32, 64]),
        n_hidden: *rng.pick(&[8usize, 16, 32, 64]),
        seq_len: rng.range(1, 8) as usize,
        static_density: 0.05 + 0.95 * rng.f64(),
        dynamic_density: 0.05 + 0.95 * rng.f64(),
        weight_bits: *rng.pick(&[4u8, 8, 16]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for k in 0..64 {
            assert_eq!(generate(42, k), generate(42, k));
        }
        assert_ne!(generate(42, 0), generate(42, 1));
        assert_ne!(generate(42, 0), generate(43, 0));
    }

    #[test]
    fn fc_layers_chain_widths() {
        for k in 0..256 {
            if let CaseKind::FcNet(c) = generate(7, k).kind {
                for pair in c.layers.windows(2) {
                    assert_eq!(pair[0].n_out, pair[1].n_in);
                }
            }
        }
    }

    #[test]
    fn generator_covers_the_edge_configurations() {
        let mut near_zero = 0usize;
        let mut full = 0usize;
        let mut oversize_block = 0usize;
        let mut zero_weights = 0usize;
        let mut two_four = 0usize;
        let mut bank_balanced = 0usize;
        let mut ragged_structured = 0usize;
        let mut zero_structured = 0usize;
        let mut degenerate_bank = 0usize;
        let mut neg_zero = 0usize;
        let mut non_finite = 0usize;
        let mut shared_runs = 0usize;
        let mut spikes = 0usize;
        let mut kinds = [0usize; 3];
        for k in 0..512 {
            match generate(42, k).kind {
                CaseKind::FcNet(c) => {
                    kinds[0] += 1;
                    match c.poison {
                        InputPoison::None => {}
                        InputPoison::NegZero => neg_zero += 1,
                        InputPoison::NonFinite => non_finite += 1,
                    }
                    spikes += usize::from(c.spikes);
                    for l in &c.layers {
                        if l.density == NEAR_ZERO_DENSITY {
                            near_zero += 1;
                        }
                        if l.density == 1.0 {
                            full += 1;
                        }
                        if l.block_in > l.n_in || l.block_out > l.n_out {
                            oversize_block += 1;
                        }
                        if l.zero_weights {
                            zero_weights += 1;
                        }
                        if l.pattern == PruneMode::Coarse
                            && l.group_size() < l.block_out.min(l.n_out)
                        {
                            shared_runs += 1;
                        }
                        let bank = match l.pattern {
                            PruneMode::TwoFour => {
                                two_four += 1;
                                Some(4)
                            }
                            PruneMode::BankBalanced { bank, k } => {
                                bank_balanced += 1;
                                if k == bank {
                                    degenerate_bank += 1;
                                }
                                Some(bank)
                            }
                            PruneMode::Coarse => None,
                        };
                        if let Some(bank) = bank {
                            if l.n_in % bank != 0 {
                                ragged_structured += 1;
                            }
                            if l.zero_weights {
                                zero_structured += 1;
                            }
                        }
                    }
                }
                CaseKind::Conv(_) => kinds[1] += 1,
                CaseKind::LstmTiming(_) => kinds[2] += 1,
            }
        }
        assert!(near_zero > 10, "near-zero densities: {near_zero}");
        assert!(full > 20, "full densities: {full}");
        assert!(oversize_block > 50, "oversize blocks: {oversize_block}");
        assert!(zero_weights > 5, "all-zero layers: {zero_weights}");
        assert!(two_four > 40, "2:4 layers: {two_four}");
        assert!(bank_balanced > 40, "bank-balanced layers: {bank_balanced}");
        assert!(
            ragged_structured > 20,
            "structured layers with ragged widths: {ragged_structured}"
        );
        assert!(
            zero_structured > 1,
            "structured layers with all-zero weights: {zero_structured}"
        );
        assert!(
            degenerate_bank > 5,
            "degenerate k=bank layers: {degenerate_bank}"
        );
        assert!(neg_zero > 10, "-0.0-poisoned nets: {neg_zero}");
        assert!(non_finite > 10, "nan/inf-poisoned nets: {non_finite}");
        assert!(
            shared_runs > 20,
            "coarse layers with several groups per block: {shared_runs}"
        );
        assert!(spikes > 20, "spike-fed nets: {spikes}");
        assert!(kinds.iter().all(|c| *c > 20), "kind mix: {kinds:?}");
    }

    #[test]
    fn conv_geometry_is_always_valid() {
        for k in 0..256 {
            if let CaseKind::Conv(c) = generate(11, k).kind {
                assert!(c.h + 2 * c.pad >= c.k);
                assert!(c.w + 2 * c.pad >= c.k);
            }
        }
    }
}
