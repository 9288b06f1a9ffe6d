//! Extension — dynamic activation sparsity under the prescan gate.
//!
//! The paper's Table III separates static (weight) sparsity from the
//! dynamic sparsity activations gain after ReLU; the hardware exploits
//! the former through pruning and the latter through neuron gating.
//! This experiment drives the software engine's prescan-and-skip gate
//! (`cs_compress::gate`) with LIF-style spike frames of rising drive
//! and measures what the gate actually delivers: the inputs the one-bit
//! prescan proved bit-exact `+0.0`, next to the frame's own active
//! fraction, and how many frames ran the active-input walk rather than
//! the full one. Every forward is checked bit-for-bit against the dense
//! matmul reference, so the table doubles as a correctness sweep:
//! skipping is a pure scheduling decision and must never change a
//! single output bit.

use cs_compress::engine::{BatchScratch, CompiledFcLayer, FcKernel, ACTIVE_WALK_MAX_SHARE};
use cs_compress::gate::GateStats;
use cs_compress::CompressError;
use cs_nn::data::lif_spike_train;
use cs_sparsity::coarse::{self, CoarseConfig, PruneMetric};
use cs_tensor::{ops, Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::render_table;

/// One spike-rate data point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActSparsityPoint {
    /// LIF drive (input-current ceiling); higher drive, more spikes.
    pub drive: f64,
    /// Fraction of input neurons that fired, averaged over the frames.
    pub active_fraction: f64,
    /// Merged gate stats over every frame at this drive (one block per
    /// input).
    pub stats: GateStats,
    /// Frames whose active share was at most [`ACTIVE_WALK_MAX_SHARE`],
    /// so the kernel visited only their active inputs.
    pub active_walks: usize,
    /// Frames at this drive.
    pub frames: usize,
    /// Output positions whose gated bits differed from the dense
    /// reference (must be 0; reported so the table shows it).
    pub bit_mismatches: usize,
}

/// Result of the activation-sparsity sweep.
#[derive(Debug, Clone)]
pub struct ExtActSparsityResult {
    /// Weight density of the pruned layer.
    pub density: f64,
    /// One point per drive, in the order of [`drives`].
    pub points: Vec<ActSparsityPoint>,
}

impl ExtActSparsityResult {
    /// Renders the drive/active/skip table.
    pub fn render(&self) -> String {
        let header = [
            "drive",
            "active%",
            "inputs",
            "skipped",
            "skip%",
            "active walk",
            "mismatch",
        ];
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:.2}", p.drive),
                    format!("{:.2}", 100.0 * p.active_fraction),
                    p.stats.blocks.to_string(),
                    p.stats.zero_blocks.to_string(),
                    format!("{:.1}", 100.0 * p.stats.skip_fraction()),
                    format!("{}/{}", p.active_walks, p.frames),
                    p.bit_mismatches.to_string(),
                ]
            })
            .collect();
        format!(
            "Ext: dynamic activation sparsity (one bit per input, active-input walk \
             at <= {:.0}% active, weight density {:.0}%)\n{}",
            100.0 * ACTIVE_WALK_MAX_SHARE,
            100.0 * self.density,
            render_table(&header, &rows)
        )
    }

    /// Highest skip fraction observed across the sweep.
    pub fn peak_skip_fraction(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.stats.skip_fraction())
            .fold(0.0, f64::max)
    }

    /// Total gated-vs-dense bit mismatches (must be 0).
    pub fn total_mismatches(&self) -> usize {
        self.points.iter().map(|p| p.bit_mismatches).sum()
    }
}

/// Experiment parameters (shrink for smoke tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtActSparsityParams {
    /// Layer input width.
    pub n_in: usize,
    /// Layer output width.
    pub n_out: usize,
    /// Weight density the layer is pruned to.
    pub density: f64,
    /// Spike frames per drive.
    pub frames: usize,
    /// LIF integration ticks per frame.
    pub steps: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ExtActSparsityParams {
    /// Full-size run (seconds in release builds).
    pub fn full() -> Self {
        ExtActSparsityParams {
            n_in: 1024,
            n_out: 512,
            density: 0.25,
            frames: 8,
            steps: 20,
            seed: 11,
        }
    }

    /// Tiny smoke-test configuration.
    pub fn smoke() -> Self {
        ExtActSparsityParams {
            n_in: 256,
            n_out: 128,
            density: 0.25,
            frames: 3,
            steps: 20,
            seed: 11,
        }
    }
}

/// The LIF drives every run sweeps, from near-silent to saturating.
pub fn drives() -> Vec<f64> {
    vec![0.21, 0.25, 0.4, 0.8, 2.0]
}

/// Runs the sweep.
///
/// # Errors
///
/// Propagates compression/shape failures from layer construction.
pub fn run(p: &ExtActSparsityParams) -> Result<ExtActSparsityResult, CompressError> {
    let mut rng = StdRng::seed_from_u64(p.seed);
    let w = Tensor::from_fn(Shape::d2(p.n_in, p.n_out), |_| rng.gen_range(-0.5..0.5f32));
    // 16-wide blocks so the mask is shared across each output group of
    // the shared-index format (the paper's `T_n = 16`).
    let mask = coarse::prune_to_density(
        &w,
        &CoarseConfig::fc(16, 16, PruneMetric::Average),
        p.density,
    )
    .map_err(CompressError::from)?;
    let layer = CompiledFcLayer::compile_fc("act", &w, &mask, 16, 8)?;
    let density = layer.density();
    let kernel = FcKernel::BlockCsr(layer);
    let dense = kernel.to_dense();

    let mut scratch = BatchScratch::default();
    let mut gated = vec![0.0f32; kernel.n_out()];
    let mut points = Vec::new();
    for (d, drive) in drives().into_iter().enumerate() {
        let mut stats = GateStats::default();
        let mut active = 0usize;
        let mut active_walks = 0usize;
        let mut mismatches = 0usize;
        for f in 0..p.frames {
            let frame = lif_spike_train(
                p.n_in,
                p.steps,
                drive,
                p.seed.wrapping_add(1 + (d * p.frames + f) as u64),
            );
            let input = frame.as_slice();
            let frame_stats = kernel.forward_batch(input, &mut gated, &mut scratch)[0];
            active += input.iter().filter(|v| **v != 0.0).count();
            if frame_stats.occupied_blocks() as f64 <= ACTIVE_WALK_MAX_SHARE * p.n_in as f64 {
                active_walks += 1;
            }
            stats.merge(frame_stats);
            let x = Tensor::from_vec(Shape::d2(1, input.len()), input.to_vec())?;
            let reference = ops::matmul(&x, &dense).map_err(CompressError::from)?;
            mismatches += gated
                .iter()
                .zip(reference.as_slice())
                .filter(|(g, r)| g.to_bits() != r.to_bits())
                .count();
        }
        points.push(ActSparsityPoint {
            drive,
            active_fraction: active as f64 / (p.frames * p.n_in) as f64,
            stats,
            active_walks,
            frames: p.frames,
            bit_mismatches: mismatches,
        });
    }
    Ok(ExtActSparsityResult { density, points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_sweep_skips_blocks_and_stays_bit_identical() {
        let r = run(&ExtActSparsityParams::smoke()).unwrap();
        assert_eq!(r.points.len(), drives().len());
        assert_eq!(r.total_mismatches(), 0);
        // Near-silent frames skip most inputs and take the active-input
        // walk; saturating drive skips fewer and walks every row.
        let first = r.points.first().unwrap().stats.skip_fraction();
        let last = r.points.last().unwrap().stats.skip_fraction();
        assert!(first > 0.5, "low drive skipped only {first}");
        assert!(first > last, "skip {first} should exceed {last}");
        let (quiet, loud) = (r.points.first().unwrap(), r.points.last().unwrap());
        assert_eq!(quiet.active_walks, quiet.frames);
        assert_eq!(loud.active_walks, 0);
        // Active fraction rises with drive.
        assert!(
            r.points.first().unwrap().active_fraction < r.points.last().unwrap().active_fraction
        );
        assert!(r.peak_skip_fraction() >= first);
        assert!(r.render().contains("dynamic activation sparsity"));
    }
}
