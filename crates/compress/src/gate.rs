//! Dynamic activation sparsity: prescan-and-skip gating.
//!
//! Cambricon-S exploits neuron (activation) sparsity in hardware — the
//! NSM skips zero activations one at a time, so the PE array never
//! multiplies through them. This module is the software twin of that
//! gate: a cheap *prescan* sets one bit per input ([`mark_active`], into
//! words the kernels in [`crate::engine`] reuse), and a gated
//! `forward_batch` visits only the surviving weights whose input bit is
//! set.
//!
//! # Skip eligibility: `bits == +0.0` only
//!
//! An input is skippable **iff its bit pattern is exactly `+0.0`**
//! (`f32::to_bits() == 0`), and a block iff all of its inputs are.
//! `-0.0`, NaN, and inf are *never* skipped. This is what keeps the
//! gated kernels inside the repo-wide bit-identity contract (`engine`
//! module docs):
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
//! # Run-time rule
//!
//! There is no per-layer plan. A gated kernel counts every column's
//! `+0.0` inputs ([`count_inputs`]), marks one bit per input
//! ([`mark_active`]) for tiles that may skip, and decides per tile, at
//! run time, from what the bits say: the block-CSR walk visits only the
//! set bits of its runs when at most
//! [`ACTIVE_WALK_MAX_SHARE`](crate::engine::ACTIVE_WALK_MAX_SHARE) of
//! the tile's inputs are set, and every surviving input otherwise,
//! because past that share visiting a row by its bit costs more than
//! streaming past a zero (DESIGN §13 has the measurement). The
//! structured kernels skip a bank whose bits are all clear. A spike
//! frame and a ReLU output of the same width run different walks, which
//! no geometry-only plan could tell apart.
//!
//! [`PrescanBitmap`] counts all-zero blocks at any block width; the
//! serving ledger uses it to report how much of an input lies in them.

/// Per-block input occupancy counts, produced by one prescan pass.
///
/// Block `g` (input elements `[g * block, (g + 1) * block)`, the last
/// block possibly shorter) is occupied iff it contains at least one
/// element whose bits are not exactly `+0.0`; the other blocks are
/// skip-eligible under the contract above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrescanBitmap {
    stats: GateStats,
}

impl PrescanBitmap {
    /// Counts the blocks of `input`, `block` elements each, and the
    /// all-`+0.0` ones among them.
    pub fn scan(input: &[f32], block: usize) -> PrescanBitmap {
        let chunks = input.chunks(block.max(1));
        // Occupied iff any element is not bit-exact +0.0: -0.0 (bits
        // 0x8000_0000), NaN, and inf all count as occupied.
        let zero_blocks = chunks
            .clone()
            .filter(|c| c.iter().all(|v| v.to_bits() == 0))
            .count();
        PrescanBitmap {
            stats: GateStats {
                blocks: chunks.len(),
                zero_blocks,
            },
        }
    }

    /// The skip counters this scan contributes.
    pub fn stats(&self) -> GateStats {
        self.stats
    }
}

/// The gated kernels' counters for one column: one block per input,
/// zero where the input is bit-exact `+0.0`. One vectorizable pass, so
/// a column too dense for the active-input walk pays little more.
pub(crate) fn count_inputs(input: &[f32]) -> GateStats {
    GateStats {
        blocks: input.len(),
        zero_blocks: input.iter().filter(|v| v.to_bits() == 0).count(),
    }
}

/// The gated kernels' prescan: sets bit `i` of `words` unless
/// `input[i]` is bit-exact `+0.0`, ORing into what the words hold, so a
/// tile's columns mark one union. The words are caller-owned, so a
/// serving lane reuses one buffer for every tile of every batch.
pub(crate) fn mark_active(input: &[f32], words: &mut [u64]) {
    for (w, chunk) in words.iter_mut().zip(input.chunks(64)) {
        *w |= chunk
            .iter()
            .enumerate()
            .fold(0, |w, (k, v)| w | u64::from(v.to_bits() != 0) << k);
    }
}

/// Gate outcome counters for one forward pass: how many input blocks
/// the prescan saw, and how many it proved skippable. The gated kernels
/// scan one block per input, so theirs count inputs. Derived from the
/// bits alone, so every kernel body reports the same numbers.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The counters of one scan.
    fn scan(input: &[f32], block: usize) -> (usize, usize) {
        let s = PrescanBitmap::scan(input, block).stats();
        (s.blocks, s.zero_blocks)
    }

    #[test]
    fn prescan_marks_exactly_the_nonzero_blocks() {
        // Blocks of 4: [+0 run] [has value] [-0.0] [NaN] [short +0 tail]
        let mut input = vec![0.0f32; 18];
        input[5] = 1.5;
        input[8] = -0.0;
        input[13] = f32::NAN;
        // Only the leading +0.0 block and the short +0.0 tail skip.
        assert_eq!(scan(&input, 4), (5, 2));
        assert_eq!(scan(&input[..16], 4), (4, 1), "the tail was one");
        assert_eq!(scan(&input[4..], 4), (4, 1), "the head was one");
        let stats = PrescanBitmap::scan(&input, 4).stats();
        assert!((stats.skip_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn inf_and_negative_zero_keep_blocks_occupied() {
        for poison in [f32::INFINITY, f32::NEG_INFINITY, -0.0f32] {
            let input = vec![0.0, 0.0, poison, 0.0];
            assert_eq!(scan(&input, 4), (1, 0), "{poison} must not be skipped");
        }
        let clean = PrescanBitmap::scan(&[0.0; 4], 4);
        assert!(clean.stats().skip_fraction() == 1.0);
    }

    #[test]
    fn empty_and_oversized_block_scans_are_well_formed() {
        assert_eq!(scan(&[], 8), (0, 0));
        assert_eq!(PrescanBitmap::scan(&[], 8).stats().skip_fraction(), 0.0);
        // A block wider than the input collapses to one block.
        assert_eq!(scan(&[0.0, 1.0], 64), (1, 0));
    }

    #[test]
    fn one_bit_prescan_sets_every_input_but_plus_zero() {
        let mut input = vec![0.0f32; 130];
        for (i, v) in [
            (1, 2.0),
            (63, -0.0),
            (64, f32::NAN),
            (129, f32::NEG_INFINITY),
        ] {
            input[i] = v;
        }
        let mut words = [1 << 5, 0, 0];
        mark_active(&input, &mut words);
        assert_eq!(words, [1 << 1 | 1 << 5 | 1 << 63, 1, 1 << 1]);
        assert_eq!(
            count_inputs(&input),
            GateStats {
                blocks: 130,
                zero_blocks: 126
            }
        );
    }
}
