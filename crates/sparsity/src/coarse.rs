//! Coarse-grained block pruning (the paper's Section III-A).
//!
//! Synapses are partitioned into aligned blocks; a whole block is pruned
//! when its *importance* — the maximum or the average absolute weight —
//! falls below a threshold. Because every synapse in a block shares its
//! fate, the surviving topology can be indexed per *block* instead of per
//! *synapse*: that is what shrinks AlexNet's index from 2.95 MB to
//! 29.38 KB (102.8×) and lets the hardware share one Neuron Selector
//! Module across all processing elements.
//!
//! Blocks are axis-aligned tiles of the weight tensor: `(B_in, B_out)`
//! over fully-connected matrices and `(B_fin, B_fout, B_x, B_y)` over
//! convolutional tensors. Edge blocks are clipped. Setting every block
//! dimension to 1 recovers element-wise fine-grained pruning.

use cs_tensor::{Shape, Tensor, TensorError};

use crate::mask::Mask;

/// Importance metric deciding whether a block is pruned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneMetric {
    /// A block survives if its largest-magnitude weight is large
    /// (the paper's *max pruning*).
    Max,
    /// A block survives if its mean absolute weight is large
    /// (the paper's *average pruning* — the variant the paper selects,
    /// since it is more accurate below ~15% sparsity, Fig. 8).
    Average,
}

/// Configuration of a coarse-grained pruning pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoarseConfig {
    block: Vec<usize>,
    metric: PruneMetric,
}

impl CoarseConfig {
    /// Creates a config with one block dimension per tensor dimension.
    ///
    /// # Panics
    ///
    /// Panics if any block dimension is zero.
    pub fn new(block: Vec<usize>, metric: PruneMetric) -> Self {
        assert!(
            block.iter().all(|b| *b > 0),
            "block dimensions must be positive"
        );
        CoarseConfig { block, metric }
    }

    /// Fully-connected block `(B_in, B_out)`.
    pub fn fc(b_in: usize, b_out: usize, metric: PruneMetric) -> Self {
        CoarseConfig::new(vec![b_in, b_out], metric)
    }

    /// Convolutional block `(B_fin, B_fout, B_x, B_y)`.
    pub fn conv(b_fin: usize, b_fout: usize, b_x: usize, b_y: usize, metric: PruneMetric) -> Self {
        CoarseConfig::new(vec![b_fin, b_fout, b_x, b_y], metric)
    }

    /// The paper's production settings: conv blocks `(1, N, 1, 1)` with
    /// `N = 16`, FC blocks `(N, N)` (Table II chooses 16–32; 16 keeps the
    /// hardware's `T_n = 16` PEs fully shared).
    pub fn paper_conv() -> Self {
        CoarseConfig::conv(1, 16, 1, 1, PruneMetric::Average)
    }

    /// The paper's FC setting (blocks of `(16, 16)`).
    pub fn paper_fc() -> Self {
        CoarseConfig::fc(16, 16, PruneMetric::Average)
    }

    /// Per-dimension block sizes.
    pub fn block(&self) -> &[usize] {
        &self.block
    }

    /// The importance metric.
    pub fn metric(&self) -> PruneMetric {
        self.metric
    }

    /// Block dimensions clipped/extended to a tensor's rank: missing
    /// trailing dimensions default to 1 (element granularity).
    fn block_for(&self, shape: &Shape) -> Vec<usize> {
        let mut b = self.block.clone();
        b.resize(shape.rank(), 1);
        for (bi, di) in b.iter_mut().zip(shape.dims()) {
            *bi = (*bi).min((*di).max(1));
        }
        b
    }
}

/// Per-block aggregate statistics computed in one pass over the tensor.
#[derive(Debug, Clone)]
pub struct BlockScores {
    /// Number of blocks along each dimension.
    pub grid: Vec<usize>,
    /// Per-block importance score under the configured metric.
    pub scores: Vec<f64>,
    /// Per-block element counts (edge blocks are smaller).
    pub counts: Vec<usize>,
    /// Per-block id of each element (row-major over the tensor).
    block_of: Vec<u32>,
}

/// Computes per-block importance scores for `w` under `cfg`.
pub fn block_scores(w: &Tensor, cfg: &CoarseConfig) -> BlockScores {
    let shape = w.shape();
    let block = cfg.block_for(shape);
    let grid: Vec<usize> = shape
        .dims()
        .iter()
        .zip(&block)
        .map(|(d, b)| d.div_ceil(*b))
        .collect();
    let nblocks: usize = grid.iter().product::<usize>().max(1);
    let mut sum_abs = vec![0.0f64; nblocks];
    let mut max_abs = vec![0.0f64; nblocks];
    let mut counts = vec![0usize; nblocks];
    let mut block_of = vec![0u32; w.len()];

    // Odometer over the element multi-index, tracking the block id
    // incrementally to avoid per-element division.
    let rank = shape.rank();
    let mut idx = vec![0usize; rank];
    let data = w.as_slice();
    for (flat, v) in data.iter().enumerate() {
        // block id from idx/block, mixed radix over grid
        let mut bid = 0usize;
        for d in 0..rank {
            bid = bid * grid[d] + idx[d] / block[d];
        }
        let a = f64::from(v.abs());
        sum_abs[bid] += a;
        if a > max_abs[bid] {
            max_abs[bid] = a;
        }
        counts[bid] += 1;
        block_of[flat] = bid as u32;
        // increment odometer
        for d in (0..rank).rev() {
            idx[d] += 1;
            if idx[d] < shape.dim(d) {
                break;
            }
            idx[d] = 0;
        }
    }
    let scores = match cfg.metric {
        PruneMetric::Max => max_abs,
        PruneMetric::Average => sum_abs
            .iter()
            .zip(&counts)
            .map(|(s, c)| if *c == 0 { 0.0 } else { s / *c as f64 })
            .collect(),
    };
    BlockScores {
        grid,
        scores,
        counts,
        block_of,
    }
}

/// Prunes every block whose score is below `threshold` (the paper's
/// `W_th`), returning the surviving-synapse mask.
pub fn prune_by_threshold(w: &Tensor, cfg: &CoarseConfig, threshold: f64) -> Mask {
    let bs = block_scores(w, cfg);
    let keep: Vec<bool> = bs.scores.iter().map(|s| *s >= threshold).collect();
    mask_from_block_keep(w.shape(), &bs, &keep)
}

/// Prunes the lowest-scoring blocks until at most `density` of the weights
/// survive (greedy, so the result is within one block of the target).
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] when `density` is outside
/// `(0, 1]`.
pub fn prune_to_density(w: &Tensor, cfg: &CoarseConfig, density: f64) -> Result<Mask, TensorError> {
    if !(0.0..=1.0).contains(&density) || density == 0.0 {
        return Err(TensorError::InvalidGeometry(format!(
            "target density {density} outside (0, 1]"
        )));
    }
    let bs = block_scores(w, cfg);
    let mut order: Vec<usize> = (0..bs.scores.len()).collect();
    order.sort_by(|a, b| {
        bs.scores[*a]
            .partial_cmp(&bs.scores[*b])
            .expect("scores are finite")
    });
    let total = w.len();
    let to_prune = total - ((density * total as f64).round() as usize).min(total);
    let mut keep = vec![true; bs.scores.len()];
    let mut pruned = 0usize;
    // The highest-scoring block is never pruned, so a layer always keeps
    // at least one block of synapses (tiny output layers would otherwise
    // be wiped out entirely at aggressive targets).
    for &bid in order.iter().take(order.len().saturating_sub(1)) {
        if pruned >= to_prune {
            break;
        }
        keep[bid] = false;
        pruned += bs.counts[bid];
    }
    Ok(mask_from_block_keep(w.shape(), &bs, &keep))
}

/// Number of index bits needed for the coarse representation: one bit per
/// block (shared across the block, versus one bit per *synapse* for
/// fine-grained direct indexing).
pub fn index_bits(shape: &Shape, cfg: &CoarseConfig) -> usize {
    let block = cfg.block_for(shape);
    shape
        .dims()
        .iter()
        .zip(&block)
        .map(|(d, b)| d.div_ceil(*b))
        .product()
}

fn mask_from_block_keep(shape: &Shape, bs: &BlockScores, keep: &[bool]) -> Mask {
    let bits: Vec<bool> = bs.block_of.iter().map(|bid| keep[*bid as usize]).collect();
    Mask::from_bits(shape.clone(), bits).expect("bits generated from shape")
}

/// The block-level index of a mask: one bit per block, `true` when any
/// synapse in the block survives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockKeep {
    /// Number of blocks along each dimension.
    pub grid: Vec<usize>,
    /// Per-block survival bit (row-major over the grid).
    pub keep: Vec<bool>,
}

impl BlockKeep {
    /// Views the block grid as a 2-D bitmap `(rows, cols)`: the last grid
    /// dimension becomes the columns. Used when compressing the index as
    /// a bilevel image.
    pub fn as_2d(&self) -> (usize, usize) {
        match self.grid.len() {
            0 => (1, 1),
            1 => (1, self.grid[0]),
            _ => {
                let cols = *self.grid.last().expect("non-empty grid");
                (self.keep.len() / cols.max(1), cols)
            }
        }
    }
}

/// Computes the block-level index bits of a mask under a block config
/// (a block is kept when any of its synapses survives).
pub fn block_keep(mask: &Mask, cfg: &CoarseConfig) -> BlockKeep {
    let shape = mask.shape();
    let block = cfg.block_for(shape);
    let grid: Vec<usize> = shape
        .dims()
        .iter()
        .zip(&block)
        .map(|(d, b)| d.div_ceil(*b))
        .collect();
    let nblocks: usize = grid.iter().product::<usize>().max(1);
    let mut keep = vec![false; nblocks];
    let rank = shape.rank();
    let mut idx = vec![0usize; rank];
    for bit in mask.bits() {
        if *bit {
            let mut bid = 0usize;
            for d in 0..rank {
                bid = bid * grid[d] + idx[d] / block[d];
            }
            keep[bid] = true;
        }
        for d in (0..rank).rev() {
            idx[d] += 1;
            if idx[d] < shape.dim(d) {
                break;
            }
            idx[d] = 0;
        }
    }
    BlockKeep { grid, keep }
}

/// Verifies the block invariant: the mask is constant inside every block.
/// Used by tests and by the compressed-format validator.
pub fn is_block_aligned(mask: &Mask, cfg: &CoarseConfig) -> bool {
    let shape = mask.shape();
    let block = cfg.block_for(shape);
    let grid: Vec<usize> = shape
        .dims()
        .iter()
        .zip(&block)
        .map(|(d, b)| d.div_ceil(*b))
        .collect();
    let nblocks: usize = grid.iter().product::<usize>().max(1);
    let mut seen: Vec<Option<bool>> = vec![None; nblocks];
    let rank = shape.rank();
    let mut idx = vec![0usize; rank];
    for bit in mask.bits() {
        let mut bid = 0usize;
        for d in 0..rank {
            bid = bid * grid[d] + idx[d] / block[d];
        }
        match seen[bid] {
            None => seen[bid] = Some(*bit),
            Some(prev) => {
                if prev != *bit {
                    return false;
                }
            }
        }
        for d in (0..rank).rev() {
            idx[d] += 1;
            if idx[d] < shape.dim(d) {
                break;
            }
            idx[d] = 0;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker(rows: usize, cols: usize) -> Tensor {
        // 4x4 blocks alternate between large and tiny weights.
        Tensor::from_fn(Shape::d2(rows, cols), |i| {
            let r = i / cols;
            let c = i % cols;
            if ((r / 4) + (c / 4)).is_multiple_of(2) {
                1.0
            } else {
                0.001
            }
        })
    }

    #[test]
    fn threshold_prunes_tiny_blocks() {
        let w = checker(8, 8);
        let cfg = CoarseConfig::fc(4, 4, PruneMetric::Average);
        let mask = prune_by_threshold(&w, &cfg, 0.5);
        assert!((mask.density() - 0.5).abs() < 1e-9);
        assert!(is_block_aligned(&mask, &cfg));
        // Top-left block is large -> kept.
        assert!(mask.bits()[0]);
        // Block at (0,4) is tiny -> pruned.
        assert!(!mask.bits()[4]);
    }

    #[test]
    fn density_target_hit_within_one_block() {
        let w = checker(16, 16);
        let cfg = CoarseConfig::fc(4, 4, PruneMetric::Average);
        for target in [0.25, 0.5, 0.75] {
            let mask = prune_to_density(&w, &cfg, target).unwrap();
            let got = mask.density();
            let block_frac = 16.0 / 256.0;
            assert!(
                (got - target).abs() <= block_frac + 1e-9,
                "target {target} got {got}"
            );
            assert!(is_block_aligned(&mask, &cfg));
        }
    }

    #[test]
    fn density_one_keeps_everything() {
        let w = checker(8, 8);
        let cfg = CoarseConfig::fc(4, 4, PruneMetric::Max);
        let mask = prune_to_density(&w, &cfg, 1.0).unwrap();
        assert_eq!(mask.ones(), 64);
    }

    #[test]
    fn invalid_density_rejected() {
        let w = checker(8, 8);
        let cfg = CoarseConfig::fc(4, 4, PruneMetric::Max);
        assert!(prune_to_density(&w, &cfg, 0.0).is_err());
        assert!(prune_to_density(&w, &cfg, 1.5).is_err());
    }

    #[test]
    fn max_vs_average_differ_on_outliers() {
        // A block that is tiny everywhere except one huge outlier:
        // max pruning keeps it, average pruning prunes it.
        let mut w = Tensor::full(Shape::d2(4, 8), 0.001);
        w.set(&[0, 0], 10.0); // left block has outlier
        for r in 0..4 {
            for c in 4..8 {
                w.set(&[r, c], 0.05); // right block is uniformly moderate
            }
        }
        let keep_half = 0.5;
        let max_mask =
            prune_to_density(&w, &CoarseConfig::fc(4, 4, PruneMetric::Max), keep_half).unwrap();
        let avg_mask =
            prune_to_density(&w, &CoarseConfig::fc(4, 4, PruneMetric::Average), keep_half).unwrap();
        // Max keeps the outlier block.
        assert!(max_mask.bits()[0]);
        assert!(!max_mask.bits()[4]);
        // Average keeps the uniformly-moderate block: avg(outlier block)
        // = (10 + 15*0.001)/16 = 0.626 vs right avg = 0.05... the outlier
        // actually dominates the average too; use a milder outlier.
        let _ = avg_mask;
    }

    #[test]
    fn average_prefers_uniform_blocks() {
        // Left block: single 0.4 outlier, rest ~0 (avg 0.025, max 0.4).
        // Right block: uniform 0.1 (avg 0.1, max 0.1).
        let mut w = Tensor::full(Shape::d2(4, 8), 0.0);
        w.set(&[0, 0], 0.4);
        for r in 0..4 {
            for c in 4..8 {
                w.set(&[r, c], 0.1);
            }
        }
        let cfg_avg = CoarseConfig::fc(4, 4, PruneMetric::Average);
        let cfg_max = CoarseConfig::fc(4, 4, PruneMetric::Max);
        let avg_mask = prune_to_density(&w, &cfg_avg, 0.5).unwrap();
        let max_mask = prune_to_density(&w, &cfg_max, 0.5).unwrap();
        assert!(!avg_mask.bits()[0] && avg_mask.bits()[4]);
        assert!(max_mask.bits()[0] && !max_mask.bits()[4]);
    }

    #[test]
    fn block_size_one_equals_fine_grained() {
        let w = Tensor::from_fn(Shape::d2(8, 8), |i| ((i * 31) % 64) as f32 / 64.0);
        let cfg = CoarseConfig::fc(1, 1, PruneMetric::Average);
        let mask = prune_to_density(&w, &cfg, 0.25).unwrap();
        assert_eq!(mask.ones(), 16);
        // The kept ones are exactly the 16 largest.
        let mut vals: Vec<f32> = w.as_slice().to_vec();
        vals.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let thr = vals[15];
        for (v, keep) in w.as_slice().iter().zip(mask.bits()) {
            if *v > thr {
                assert!(*keep);
            }
            if *v < thr {
                assert!(!*keep);
            }
        }
    }

    #[test]
    fn conv_blocks_along_fout() {
        // Conv weights (fi=2, fo=8, kx=1, ky=1); paper block (1,4,1,1):
        // each (fi, fo-group) of 4 output maps shares fate.
        let w = Tensor::from_fn(Shape::d4(2, 8, 1, 1), |i| {
            let fo = i % 8;
            if fo < 4 {
                1.0
            } else {
                0.01
            }
        });
        let cfg = CoarseConfig::conv(1, 4, 1, 1, PruneMetric::Average);
        let mask = prune_to_density(&w, &cfg, 0.5).unwrap();
        assert!(is_block_aligned(&mask, &cfg));
        for fi in 0..2 {
            for fo in 0..8 {
                let bit = mask.bits()[fi * 8 + fo];
                assert_eq!(bit, fo < 4, "fi={fi} fo={fo}");
            }
        }
    }

    #[test]
    fn index_bits_shrink_with_block_size() {
        let shape = Shape::d2(64, 64);
        let fine = index_bits(&shape, &CoarseConfig::fc(1, 1, PruneMetric::Average));
        let coarse = index_bits(&shape, &CoarseConfig::fc(16, 16, PruneMetric::Average));
        assert_eq!(fine, 4096);
        assert_eq!(coarse, 16);
        assert_eq!(fine / coarse, 256);
    }

    #[test]
    fn edge_blocks_are_clipped() {
        // 10x10 with 4x4 blocks -> 3x3 grid, edge blocks smaller.
        let w = Tensor::full(Shape::d2(10, 10), 1.0);
        let cfg = CoarseConfig::fc(4, 4, PruneMetric::Average);
        let bs = block_scores(&w, &cfg);
        assert_eq!(bs.grid, vec![3, 3]);
        assert_eq!(bs.counts.iter().sum::<usize>(), 100);
        assert_eq!(bs.counts[8], 4); // bottom-right 2x2
        assert_eq!(bs.counts[0], 16);
    }

    #[test]
    fn block_keep_matches_pruning() {
        let w = checker(8, 8);
        let cfg = CoarseConfig::fc(4, 4, PruneMetric::Average);
        let mask = prune_to_density(&w, &cfg, 0.5).unwrap();
        let bk = block_keep(&mask, &cfg);
        assert_eq!(bk.grid, vec![2, 2]);
        assert_eq!(bk.keep.iter().filter(|b| **b).count(), 2);
        assert_eq!(bk.as_2d(), (2, 2));
        // Fine-grained mask has no block structure at block=1.
        let fine_cfg = CoarseConfig::fc(1, 1, PruneMetric::Average);
        let bk_fine = block_keep(&mask, &fine_cfg);
        assert_eq!(bk_fine.keep.len(), 64);
        assert_eq!(bk_fine.keep.iter().filter(|b| **b).count(), mask.ones());
    }

    #[test]
    fn block_larger_than_tensor_is_clamped() {
        let w = Tensor::full(Shape::d2(3, 3), 1.0);
        let cfg = CoarseConfig::fc(16, 16, PruneMetric::Average);
        let mask = prune_to_density(&w, &cfg, 1.0).unwrap();
        assert_eq!(mask.ones(), 9);
        assert_eq!(index_bits(w.shape(), &cfg), 1);
    }
}
