//! Dynamic activation sparsity: prescan-and-skip gating.
//!
//! Cambricon-S exploits neuron (activation) sparsity in hardware — the
//! NSM gates zero activations so the PE array never multiplies through
//! them. This module is the software twin of that gate: a cheap
//! *prescan* over the input vector produces a per-block occupancy
//! bitmap ([`PrescanBitmap`]; the kernels in [`crate::engine`] scan
//! into reused words), and a gated `forward_batch` consults it to skip
//! every surviving weight whose input block is entirely zero.
//!
//! # Skip eligibility: `bits == +0.0` only
//!
//! A block is skippable **iff every element's bit pattern is exactly
//! `+0.0`** (`f32::to_bits() == 0`). `-0.0`, NaN, and inf blocks are
//! *never* skipped. This is what keeps the gated kernels inside the
//! repo-wide bit-identity contract (`engine` module docs):
//!
//! * a skipped term is exactly `+0.0 * w = ±0.0` for finite `w`, and
//!   adding `±0.0` to any accumulator value `a` returns `a` bit-exactly
//!   — except `a == -0.0`, which the engine's accumulators can never
//!   be (they start at `+0.0` and a sum seeded with `+0.0` cannot round
//!   to `-0.0` under round-to-nearest);
//! * `-0.0` must stay occupied because `-0.0 * w = ∓0.0` has the
//!   *opposite* zero sign — dropping it is still bit-neutral for the
//!   accumulator, but keeping the rule "skipped inputs are `+0.0`"
//!   means eligibility is a pure bit test (`to_bits() == 0`), one
//!   integer compare per element, with no sign/NaN case analysis in the
//!   hot prescan loop;
//! * NaN/inf must stay occupied because `0.0 * NaN = NaN` — the dense
//!   reference would poison the output, so the gated kernel must
//!   multiply through them exactly like the ungated one.
//!
//! # Benefit model
//!
//! Gating is not free: the prescan touches every input element and the
//! gated inner loops carry a per-block branch. [`plan_fc`] /
//! [`plan_structured`] decide per layer — from geometry
//! (`n_in × n_out × density`) and the (optionally measured) prescan and
//! MAC costs in [`GateCostModel`] — whether gating can pay at all, and
//! if so which block size to prescan at. Tiny layers opt out entirely:
//! the work one skipped input saves must be a healthy multiple of the
//! compare spent classifying it.

use std::time::Instant;

/// Per-layer gating policy, carried by
/// `cs_compress::config::LayerCompressionConfig`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GatePolicy {
    /// Let the benefit model decide (gate when geometry says it pays,
    /// with an automatically chosen block size).
    #[default]
    Auto,
    /// Never gate this layer.
    Off,
    /// Always gate, prescanning at the given block size (clamped to the
    /// layer's input width; structured kernels gate at their bank width
    /// regardless). Used by benches and tests that need the gated path
    /// exercised deterministically.
    Force {
        /// Prescan block size in input elements.
        block: usize,
    },
}

/// The benefit model's verdict for one layer: gate, prescanning at
/// `block` input elements per occupancy bit. `None` from the planning
/// functions means "run ungated".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatePlan {
    /// Prescan block size in input elements.
    pub block: usize,
}

/// Per-block input occupancy, produced by one prescan pass.
///
/// Bit `g` is set iff block `g` (input elements
/// `[g * block, (g + 1) * block)`, the last block possibly shorter)
/// contains at least one element whose bits are not exactly `+0.0`.
/// Blocks with a clear bit are skip-eligible under the contract above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrescanBitmap {
    block: usize,
    blocks: usize,
    words: Vec<u64>,
    zero_blocks: usize,
}

impl PrescanBitmap {
    /// Scans `input` at `block` elements per occupancy bit.
    pub fn scan(input: &[f32], block: usize) -> PrescanBitmap {
        let block = block.max(1);
        let mut words = vec![0u64; scan_words(input.len(), block)];
        let stats = scan_into(input, block, &mut words);
        PrescanBitmap {
            block,
            blocks: stats.blocks,
            words,
            zero_blocks: stats.zero_blocks,
        }
    }

    /// Block size the scan ran at.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Number of blocks covered.
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Whether block `g` must be executed. Out-of-range blocks report
    /// occupied — the gate may only skip what the prescan proved zero.
    #[inline]
    pub fn occupied(&self, g: usize) -> bool {
        if g >= self.blocks {
            return true;
        }
        self.words[g / 64] & (1u64 << (g % 64)) != 0
    }

    /// Whether no block is skippable (the gated kernels fall through to
    /// their ungated inner loops).
    pub fn all_occupied(&self) -> bool {
        self.zero_blocks == 0
    }

    /// The skip counters this scan contributes, independent of which
    /// kernel consumes the bitmap.
    pub fn stats(&self) -> GateStats {
        GateStats {
            blocks: self.blocks,
            zero_blocks: self.zero_blocks,
        }
    }
}

/// Occupancy words a scan of `len` inputs at `block` elements per bit
/// fills — the size [`scan_into`] expects.
pub(crate) fn scan_words(len: usize, block: usize) -> usize {
    len.div_ceil(block.max(1)).div_ceil(64)
}

/// The prescan itself, writing into caller-owned `words` (exactly
/// [`scan_words`] of them) so a serving lane can reuse one buffer for
/// every column of every batch. Bits past the last block stay clear.
///
/// # Panics
///
/// Panics when `words.len() != scan_words(input.len(), block)`.
pub(crate) fn scan_into(input: &[f32], block: usize, words: &mut [u64]) -> GateStats {
    let block = block.max(1);
    assert_eq!(
        words.len(),
        scan_words(input.len(), block),
        "occupancy word count mismatch"
    );
    words.fill(0);
    let mut zero_blocks = 0usize;
    for (g, chunk) in input.chunks(block).enumerate() {
        // Occupied iff any element is not bit-exact +0.0: -0.0 (bits
        // 0x8000_0000), NaN, and inf all count as occupied.
        if chunk.iter().any(|v| v.to_bits() != 0) {
            words[g / 64] |= 1u64 << (g % 64);
        } else {
            zero_blocks += 1;
        }
    }
    GateStats {
        blocks: input.len().div_ceil(block),
        zero_blocks,
    }
}

/// Gate outcome counters for one forward pass: how many input blocks
/// the prescan saw, and how many it proved skippable. Derived from the
/// bitmap alone, so the scalar and vectorized kernels report the
/// same numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateStats {
    /// Input blocks the prescan covered.
    pub blocks: usize,
    /// Blocks proven all-`+0.0` (skipped by the gated kernels).
    pub zero_blocks: usize,
}

impl GateStats {
    /// Blocks that had to execute.
    pub fn occupied_blocks(&self) -> usize {
        self.blocks - self.zero_blocks
    }

    /// Fraction of blocks skipped (0 when nothing was scanned).
    pub fn skip_fraction(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.zero_blocks as f64 / self.blocks as f64
        }
    }

    /// Accumulates another pass's counters (per-layer totals over a
    /// batch or a whole network).
    pub fn merge(&mut self, other: GateStats) {
        self.blocks += other.blocks;
        self.zero_blocks += other.zero_blocks;
    }
}

/// Cost constants the benefit model weighs: nanoseconds per prescanned
/// input element, per dense MAC, and fixed per-block bookkeeping. The
/// defaults are conservative compile-time estimates; [`Self::measure`]
/// replaces them with numbers timed on the running host (used by the
/// benches, where the plan should reflect the machine being measured).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateCostModel {
    /// Cost of classifying one input element (`to_bits` + compare).
    pub prescan_ns: f64,
    /// Cost of one multiply-accumulate in the ungated inner loop.
    pub mac_ns: f64,
    /// Fixed per-block cost (bitmap word update, gate branch).
    pub block_overhead_ns: f64,
}

impl Default for GateCostModel {
    fn default() -> Self {
        GateCostModel {
            prescan_ns: 0.5,
            mac_ns: 1.0,
            block_overhead_ns: 2.0,
        }
    }
}

/// A layer must save at least this many prescan-compare-equivalents
/// per skipped input element, or `Auto` opts out.
const MIN_SKIP_RATIO: f64 = 8.0;
/// `Auto` opts out below this many weights outright: the prescan and
/// the per-block branches would be a measurable fraction of the whole
/// forward no matter the block size.
const TINY_LAYER_LIMIT: usize = 4096;
/// The prescan may cost at most this share of the work a fully-zero
/// block would skip.
const MAX_PRESCAN_SHARE: f64 = 0.25;
/// Block sizes `Auto` chooses among, finest first.
const BLOCK_CANDIDATES: [usize; 4] = [8, 16, 32, 64];

impl GateCostModel {
    /// Times the prescan compare and a dense MAC row on the running
    /// host. Deterministic planning paths (config, serving lanes) use
    /// [`Default`]; benches use this so the plan reflects the measured
    /// machine.
    pub fn measure() -> GateCostModel {
        const N: usize = 4096;
        const REPS: usize = 64;
        let input: Vec<f32> = (0..N).map(|i| (i as f32 * 0.37).sin()).collect();
        let weights: Vec<f32> = (0..N).map(|i| (i as f32 * 0.73).cos()).collect();

        let t0 = Instant::now();
        let mut occupied = 0usize;
        for _ in 0..REPS {
            occupied += input.iter().filter(|v| v.to_bits() != 0).count();
        }
        std::hint::black_box(occupied);
        let prescan_ns = t0.elapsed().as_nanos() as f64 / (N * REPS) as f64;

        let t1 = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..REPS {
            for (x, w) in input.iter().zip(&weights) {
                acc += x * w;
            }
        }
        std::hint::black_box(acc);
        let mac_ns = t1.elapsed().as_nanos() as f64 / (N * REPS) as f64;

        let d = GateCostModel::default();
        GateCostModel {
            // Floor at tiny positive values so degenerate timer
            // readings (coarse clocks) cannot produce a zero-cost plan.
            prescan_ns: prescan_ns.max(0.01),
            mac_ns: mac_ns.max(0.01),
            block_overhead_ns: d.block_overhead_ns,
        }
    }
}

/// Benefit model for the block-CSR FC and conv kernels, with explicit
/// costs. `density` is the layer's surviving-weight fraction: one
/// skipped input element saves `density * n_out` MACs on average.
pub fn plan_fc_with(
    model: &GateCostModel,
    policy: GatePolicy,
    n_in: usize,
    n_out: usize,
    density: f64,
) -> Option<GatePlan> {
    match policy {
        GatePolicy::Off => None,
        GatePolicy::Force { block } => Some(GatePlan {
            block: block.clamp(1, n_in.max(1)),
        }),
        GatePolicy::Auto => {
            if n_in * n_out < TINY_LAYER_LIMIT {
                return None;
            }
            // ns of inner-loop work one skipped input element saves.
            let skip_ns = density * n_out as f64 * model.mac_ns;
            if skip_ns < MIN_SKIP_RATIO * model.prescan_ns {
                return None;
            }
            // Finest block whose prescan + bookkeeping stays under the
            // share cap of the work a zero block saves; granularity is
            // free below the cap, and finer blocks skip more at partial
            // activation sparsity.
            let block = BLOCK_CANDIDATES
                .iter()
                .copied()
                .find(|&b| {
                    let cost = b as f64 * model.prescan_ns + model.block_overhead_ns;
                    cost <= MAX_PRESCAN_SHARE * b as f64 * skip_ns
                })?
                .min(n_in.max(1));
            Some(GatePlan { block })
        }
    }
}

/// [`plan_fc_with`] under the default cost model — the deterministic
/// path config and the serving lanes use.
pub fn plan_fc(policy: GatePolicy, n_in: usize, n_out: usize, density: f64) -> Option<GatePlan> {
    plan_fc_with(&GateCostModel::default(), policy, n_in, n_out, density)
}

/// Benefit model for the structured kernels, with explicit costs. The
/// skip granularity is the pattern's bank (a skipped bank saves exactly
/// `k * n_out` MACs), so the only decision is gate-or-not; the plan's
/// block is always `bank`.
pub fn plan_structured_with(
    model: &GateCostModel,
    policy: GatePolicy,
    n_in: usize,
    n_out: usize,
    bank: usize,
    k: usize,
) -> Option<GatePlan> {
    let bank = bank.max(1);
    match policy {
        GatePolicy::Off => None,
        GatePolicy::Force { .. } => Some(GatePlan { block: bank }),
        GatePolicy::Auto => {
            if n_in * n_out < TINY_LAYER_LIMIT {
                return None;
            }
            let skip_ns = k as f64 * n_out as f64 * model.mac_ns;
            let cost_ns = bank as f64 * model.prescan_ns + model.block_overhead_ns;
            (cost_ns <= MAX_PRESCAN_SHARE * skip_ns).then_some(GatePlan { block: bank })
        }
    }
}

/// [`plan_structured_with`] under the default cost model.
pub fn plan_structured(
    policy: GatePolicy,
    n_in: usize,
    n_out: usize,
    bank: usize,
    k: usize,
) -> Option<GatePlan> {
    plan_structured_with(&GateCostModel::default(), policy, n_in, n_out, bank, k)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prescan_marks_exactly_the_nonzero_blocks() {
        // Blocks of 4: [+0 run] [has value] [-0.0] [NaN] [short +0 tail]
        let mut input = vec![0.0f32; 18];
        input[5] = 1.5;
        input[8] = -0.0;
        input[13] = f32::NAN;
        let bm = PrescanBitmap::scan(&input, 4);
        assert_eq!(bm.blocks(), 5);
        assert!(!bm.occupied(0), "all +0.0 block must be skippable");
        assert!(bm.occupied(1));
        assert!(bm.occupied(2), "-0.0 is never skippable");
        assert!(bm.occupied(3), "NaN is never skippable");
        assert!(!bm.occupied(4), "short +0.0 tail block is skippable");
        assert!(bm.occupied(99), "out-of-range blocks report occupied");
        assert_eq!(
            bm.stats(),
            GateStats {
                blocks: 5,
                zero_blocks: 2
            }
        );
        assert!(!bm.all_occupied());
        assert!((bm.stats().skip_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn inf_and_negative_zero_keep_blocks_occupied() {
        for poison in [f32::INFINITY, f32::NEG_INFINITY, -0.0f32] {
            let input = vec![0.0, 0.0, poison, 0.0];
            let bm = PrescanBitmap::scan(&input, 4);
            assert!(bm.occupied(0), "{poison} must not be skipped");
        }
        let clean = PrescanBitmap::scan(&[0.0; 4], 4);
        assert!(!clean.occupied(0));
        assert!(clean.stats().skip_fraction() == 1.0);
    }

    #[test]
    fn empty_and_oversized_block_scans_are_well_formed() {
        let empty = PrescanBitmap::scan(&[], 8);
        assert_eq!(empty.blocks(), 0);
        assert!(empty.all_occupied());
        assert_eq!(empty.stats().skip_fraction(), 0.0);
        // A block wider than the input collapses to one block.
        let one = PrescanBitmap::scan(&[0.0, 1.0], 64);
        assert_eq!(one.blocks(), 1);
        assert!(one.occupied(0));
    }

    #[test]
    fn auto_opts_out_of_tiny_layers_and_gates_big_ones() {
        assert_eq!(plan_fc(GatePolicy::Auto, 16, 16, 1.0), None);
        let plan = plan_fc(GatePolicy::Auto, 1024, 1024, 0.25).expect("big layer gates");
        assert!(BLOCK_CANDIDATES.contains(&plan.block));
        // Near-empty layers save too little per skipped element.
        assert_eq!(plan_fc(GatePolicy::Auto, 4096, 4096, 0.0), None);
    }

    #[test]
    fn off_and_force_policies_are_respected() {
        assert_eq!(plan_fc(GatePolicy::Off, 1024, 1024, 0.25), None);
        assert_eq!(
            plan_fc(GatePolicy::Force { block: 8 }, 1024, 1024, 0.25),
            Some(GatePlan { block: 8 })
        );
        // Forced blocks clamp to the input width.
        assert_eq!(
            plan_fc(GatePolicy::Force { block: 512 }, 20, 4, 1.0),
            Some(GatePlan { block: 20 })
        );
        assert_eq!(
            plan_structured(GatePolicy::Force { block: 999 }, 64, 64, 16, 8),
            Some(GatePlan { block: 16 }),
            "structured gating is always bank-granular"
        );
        assert_eq!(plan_structured(GatePolicy::Off, 512, 512, 16, 8), None);
    }

    #[test]
    fn structured_auto_weighs_bank_against_fan_in() {
        // 16:8 over a wide layer clearly pays.
        assert_eq!(
            plan_structured(GatePolicy::Auto, 512, 512, 16, 8),
            Some(GatePlan { block: 16 })
        );
        // Tiny layer opts out even with a favorable pattern.
        assert_eq!(plan_structured(GatePolicy::Auto, 16, 16, 4, 2), None);
    }

    #[test]
    fn measured_cost_model_is_positive_and_usable() {
        let m = GateCostModel::measure();
        assert!(m.prescan_ns > 0.0 && m.mac_ns > 0.0);
        // Whatever the host measured, a big sparse layer must gate.
        assert!(plan_fc_with(&m, GatePolicy::Auto, 4096, 4096, 0.25).is_some());
    }
}
