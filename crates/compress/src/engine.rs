//! Compiled sparse execution engine: block-CSR kernels over the shared
//! index format.
//!
//! [`SharedIndexLayer`] is a *storage* format — good for size accounting,
//! slow to execute (per-output gather through `Vec<bool>` indexes and
//! codebook lookups). This module compiles it into an execution-friendly
//! block-CSR layout:
//!
//! * outputs are grouped into *strips* of `strip_width` lanes (one strip
//!   per shared-index group, the hardware's `T_n = 16` PE cluster);
//! * each strip stores its surviving input positions as contiguous
//!   `[start, end)` *runs* derived from the coarse block grid (block
//!   pruning makes survivors naturally clumped);
//! * each strip stores its rows input-major, 16 lanes per row. When
//!   every codebook of the layer has at most 16 entries, a row is one
//!   `u64` of the 4-bit indices the storage format holds, next to the
//!   group's codebook, and the kernel looks it up in registers as it
//!   streams it, as each PE's WDM looks its index up in its LUT, so
//!   decoded weights never cross memory. Wider codebooks have no
//!   register lookup that costs less than a row load, so their strips
//!   hold the looked-up weights as `f32` rows.
//!
//! # Dense-vs-sparse equivalence contract
//!
//! On **finite** inputs, [`CompiledFcLayer::forward`] is bit-identical to
//! the dense reference `ops::matmul(x, self.to_dense())`. Two facts make
//! this exact rather than approximate:
//!
//! 1. the sparse kernel accumulates surviving terms in ascending input
//!    order — the same order the dense loop adds them in; and
//! 2. the terms it skips are exactly `x[i] * 0.0 = ±0.0`, and adding
//!    `±0.0` to an accumulator that started at `+0.0` never changes its
//!    bits: an `f32` sum starting from `+0.0` cannot become `-0.0`
//!    through addition (opposite-signed zero sums and exact cancellation
//!    both round to `+0.0` under round-to-nearest).
//!
//! Non-finite inputs void the contract — `0.0 * NaN` is `NaN` in the
//! dense kernel and silently dropped by the sparse one — which is why
//! the dense reference kernel in `cs-tensor` must never zero-skip.
//!
//! # One entry per kernel
//!
//! Every compiled FC kernel executes through one entry,
//! [`FcKernel::forward_batch`]`(inputs, outs, scratch, gated)`, and
//! `forward` is its ungated `B = 1` call; the scratch is the serving
//! worker's, reused across batches.
//!
//! # Activation gating
//!
//! Gated, `forward_batch` skips work across the **input** dimension,
//! as the NSM skips zero neurons: a prescan sets one bit per input
//! unless it is bit-exact `+0.0` ([`crate::gate`]), and a tile's bits
//! are the OR of its columns'. When at most [`ACTIVE_WALK_MAX_SHARE`]
//! of a tile's inputs are set, each block-CSR walk visits only the set
//! bits of its runs, in ascending order; otherwise it walks every
//! surviving input. The structured kernels skip a bank whose bits are
//! all clear. The skipped terms are exactly `+0.0 * w = ±0.0` for the
//! engine's finite weights, which is bit-neutral by fact 2 above — so
//! gated execution stays inside the bit-identity contract. `-0.0`,
//! NaN, and inf inputs are never skipped.
//!
//! # Batched execution
//!
//! The block-CSR format has one inner loop, a walk of one tile
//! ([`CompiledFcLayer::forward_batch`]): a 16-lane chunk of a strip
//! (`T_n`) times up to [`COLUMN_TILE`] batch columns accumulate in
//! registers (one `zmm` or two `ymm` per column), and each row of
//! indices is looked up once and applied to every column — the
//! neuron/synapse reuse the shared index exists for, with the batch
//! column as the reuse axis. Two adjacent chunks whose strips share
//! their runs (fc6/fc7's 32 × 32 blocks over 16-wide groups) walk those
//! runs once with one accumulator set each, as the NSM broadcasts one
//! shared index to every PE that uses it, when the tile is narrow
//! enough that both sets fit the `COLUMN_TILE` rows the registers
//! hold. At `B = 1` that is two independent add chains instead of one.
//! `forward` is the `B = 1` call of the same loop. The structured
//! kernels run their per-column loop over the batch.
//!
//! Every column is its own accumulator row, fed its own inputs in
//! ascending input order with a separate multiply and add (never FMA),
//! so a column's bits do not depend on what it is batched with, on its
//! position in the batch, on the strip it walks beside, or on how a
//! wide batch is cut into tiles — each stays bit-identical to the dense
//! reference. A tile's active walk visits an input some column has at
//! `+0.0` when another column needs it, which multiplies that zero
//! through: bit-neutral by the argument above.
//!
//! # Lookup bodies
//!
//! The block-CSR accumulate loop is built three times, and the builds
//! differ only in how a row becomes sixteen `f32` weights. The host runs
//! the best one it has:
//!
//! * **AVX-512** (`avx512f`): a nibble row is one `vpbroadcastq`, one
//!   `vpsrlvd` and one 16-entry `vpermps`; a weight row is one load.
//! * **AVX2**: per 8-lane half, a nibble row is `vpsrlvd`, two
//!   `vpermps` and a `blendv` on the index's bit 3; a weight row is two
//!   loads.
//! * **Portable**: a scalar lookup per lane, or the weight row itself.
//!
//! Every body reads the codebook's own `f32`, so all three produce the
//! dense reference's bits.

use cs_sparsity::{Mask, PruneMode};
use cs_tensor::ops::{self, Conv2dGeometry};
use cs_tensor::{Shape, Tensor, TensorError};

use std::sync::Arc;

use crate::format::{FcLayerFormat, OutputGroup, SharedIndexLayer};
use crate::gate::{self, GateStats};
use crate::CompressError;

/// Accumulator rows (batch columns × lane chunks) one walk of the
/// block-CSR kernel carries: 8 rows × 16 lanes fill the sixteen `ymm`
/// accumulators AVX2 has. Wider batches run as consecutive tiles, and
/// two chunks share a walk only in tiles of at most half this width.
pub const COLUMN_TILE: usize = 8;

/// The largest share of a gated tile's inputs that may be active (not
/// bit-exact `+0.0` in some column) for its walks to visit the active
/// inputs one bit at a time; above it they walk every surviving input.
/// Measured on the `fc_dense` layers (DESIGN §13).
pub const ACTIVE_WALK_MAX_SHARE: f64 = 0.55;

/// Output lanes per row of a strip — the paper's `T_n`, one `zmm` or
/// two `ymm` registers. Wider strips are stored and walked in chunks of
/// this many lanes.
const LANES: usize = 16;

/// Codebook entries a nibble row can address.
const NIBBLE_ENTRIES: usize = 16;

/// Bit offset of lane `l`'s index in a nibble row. Lanes alternate
/// between the row's low and high 32-bit words, so a row broadcast to
/// sixteen `u32` lanes holds lane `l`'s nibble in lane `l`, `4 * (l / 2)`
/// bits up: one variable shift per row lines all sixteen up.
const fn nibble_shift(lane: usize) -> u32 {
    (32 * (lane % 2) + 4 * (lane / 2)) as u32
}

/// The inputs one column tile visits: all of them, or only those whose
/// bit is set — bit `i` is clear when input `i` is bit-exact `+0.0` in
/// every column of the tile.
#[derive(Clone, Copy)]
struct Active<'a>(Option<&'a [u64]>);

impl Active<'_> {
    /// Every input, as the ungated kernels visit them.
    const ALL: Active<'static> = Active(None);

    /// Whether any input in `start..end` must be visited.
    fn any(self, start: usize, end: usize) -> bool {
        self.0
            .is_none_or(|bits| set_words(bits, start, end).any(|(_, w)| w != 0))
    }
}

/// The words of `bits` that cover inputs `start..end`, as `(index,
/// word)` with the bits outside the range cleared.
#[inline(always)]
fn set_words(bits: &[u64], start: usize, end: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
    let words = if start < end {
        start / 64..end.div_ceil(64)
    } else {
        0..0
    };
    words.map(move |k| {
        let mut w = bits[k];
        if k == start / 64 {
            w &= u64::MAX << (start % 64);
        }
        if k == (end - 1) / 64 {
            w &= u64::MAX >> (63 - (end - 1) % 64);
        }
        (k, w)
    })
}

/// The number of columns in a batch of `n_in`-wide inputs.
///
/// # Panics
///
/// Panics when `inputs` is not a whole number of `n_in`-vectors or
/// `outs` is not `n_out` per input.
fn batch_columns(inputs: &[f32], outs: &[f32], n_in: usize, n_out: usize) -> usize {
    let b = inputs.len() / n_in.max(1);
    assert_eq!(inputs.len(), b * n_in, "batch input length mismatch");
    assert_eq!(outs.len(), b * n_out, "batch output length mismatch");
    b
}

/// Where one column tile reads and writes. `xt` is the tile's inputs
/// transposed to input-major (`xt[i * B + j]` is input `i` of column
/// `j`); column `j`'s output lane `o` lands at `outs[j * stride + o]`.
struct TileIo<'a> {
    xt: &'a [f32],
    active: Active<'a>,
    outs: &'a mut [f32],
    stride: usize,
}

/// A strip's rows, chunk-major: the row of lane chunk `c` (lanes
/// `16c..16c + 16`) at the `pos`-th surviving input is row
/// `c * survivors + pos`. Lanes past the strip's edge hold index 0 or
/// weight `0.0`.
#[derive(Debug, Clone, PartialEq)]
enum Rows {
    /// Every codebook of the layer has at most 16 entries: the group's
    /// codebook and one `u64` of indices per row, lane `l`'s at bit
    /// [`nibble_shift`]`(l)`.
    Nibbles { codebook: Vec<f32>, rows: Vec<u64> },
    /// Some codebook of the layer has more than 16 entries: the weights
    /// its indices look up, sixteen `f32` per row. No lookup of a wider
    /// codebook (gather, `vpermt2ps` tree, scalar loads) comes near the
    /// cost of loading the row.
    Weights(Vec<f32>),
}

/// One strip of `strip_width` (or fewer, at the edge) output lanes
/// sharing a synapse index, compiled for execution: its surviving
/// inputs and the rows the kernel streams. The fields are private:
/// every nibble must address the codebook, or the kernels, which read
/// a zero-padded 16-entry table, and [`FcStrip::weight`] would
/// disagree. A strip whose runs equal the previous strip's holds the
/// same allocation, which is how the kernel knows the two may share a
/// walk.
#[derive(Debug, Clone, PartialEq)]
pub struct FcStrip {
    out_start: usize,
    out_end: usize,
    runs: Arc<[(u32, u32)]>,
    survivors: usize,
    rows: Rows,
}

/// Lane `l`'s index in a nibble row.
fn nibble(row: u64, l: usize) -> usize {
    (row >> nibble_shift(l)) as usize & 0xF
}

impl FcStrip {
    /// Compiles one output group into lanes `out_start..` with nibble
    /// or weight rows.
    ///
    /// # Panics
    ///
    /// Panics when a lane's row is not one index per surviving input or
    /// an index does not address the group's codebook.
    fn from_group(g: &OutputGroup, out_start: usize, nibbles: bool) -> FcStrip {
        let (width, survivors) = (g.weights.len(), g.survivors());
        let codebook = g.codebook.centroids();
        for lane in &g.weights {
            assert_eq!(lane.len(), survivors, "row length disagrees with the index");
            assert!(
                lane.iter().all(|&i| usize::from(i) < codebook.len()),
                "index outside its group's codebook"
            );
        }
        let slot = |c: usize, pos: usize, l: usize| g.weights.get(c * LANES + l).map(|w| w[pos]);
        let rows = (0..width.div_ceil(LANES)).flat_map(|c| (0..survivors).map(move |pos| (c, pos)));
        let rows = if nibbles {
            Rows::Nibbles {
                codebook: codebook.to_vec(),
                rows: rows
                    .map(|(c, pos)| {
                        (0..LANES).fold(0u64, |r, l| {
                            r | u64::from(slot(c, pos, l).unwrap_or(0)) << nibble_shift(l)
                        })
                    })
                    .collect(),
            }
        } else {
            let weight = move |c, pos, l| slot(c, pos, l).map_or(0.0, |i| codebook[usize::from(i)]);
            Rows::Weights(
                rows.flat_map(|(c, pos)| (0..LANES).map(move |l| weight(c, pos, l)))
                    .collect(),
            )
        };
        FcStrip {
            out_start,
            out_end: out_start + width,
            runs: runs_from_index(&g.index).into(),
            survivors,
            rows,
        }
    }

    /// First output lane of the strip.
    pub fn out_start(&self) -> usize {
        self.out_start
    }

    /// One past the last output lane.
    pub fn out_end(&self) -> usize {
        self.out_end
    }

    /// Surviving input positions as `[start, end)` runs, ascending.
    pub fn runs(&self) -> &[(u32, u32)] {
        &self.runs
    }

    /// The row holding lane `lane` (counted from `out_start`) at the
    /// `pos`-th surviving input.
    fn row(&self, pos: usize, lane: usize) -> usize {
        assert!(
            pos < self.survivors && lane < self.width(),
            "no such row slot"
        );
        lane / LANES * self.survivors + pos
    }

    /// The codebook a nibble strip looks lane `lane` up in at the
    /// `pos`-th surviving input — the WDM's LUT contents — and the slot
    /// it reads; `None` on a strip of weight rows, which looks nothing
    /// up.
    ///
    /// # Panics
    ///
    /// Panics when `pos >= survivors` or the lane is outside the strip.
    pub fn lookup(&self, pos: usize, lane: usize) -> Option<(&[f32], usize)> {
        let row = self.row(pos, lane);
        match &self.rows {
            Rows::Nibbles { codebook, rows } => Some((codebook, nibble(rows[row], lane % LANES))),
            Rows::Weights(_) => None,
        }
    }

    /// The weight lane `lane` applies at the `pos`-th surviving input:
    /// its index looked up in the codebook, or its stored weight.
    ///
    /// # Panics
    ///
    /// Panics when `pos >= survivors` or the lane is outside the strip.
    pub fn weight(&self, pos: usize, lane: usize) -> f32 {
        let row = self.row(pos, lane);
        match &self.rows {
            Rows::Nibbles { codebook, rows } => codebook[nibble(rows[row], lane % LANES)],
            Rows::Weights(w) => w[row * LANES + lane % LANES],
        }
    }

    fn width(&self) -> usize {
        self.out_end - self.out_start
    }
}

/// A nibble codebook zero-padded to sixteen entries, so that the lookup
/// table loads whole and a masked nibble needs no bounds check.
fn lut(cb: &[f32]) -> [f32; NIBBLE_ENTRIES] {
    let mut table = [0.0f32; NIBBLE_ENTRIES];
    table[..cb.len()].copy_from_slice(cb);
    table
}

/// One walk of a tile: `S` lane chunks (lanes `16c..16c + 16` of a
/// strip) that share `runs`, each with its own rows, over the tile's
/// inputs.
struct Walk<'a, const S: usize> {
    runs: &'a [(u32, u32)],
    rows: WalkRows<'a, S>,
    xt: &'a [f32],
    active: Active<'a>,
}

/// Each chunk's rows, one per surviving input, and for nibble rows
/// the codebook they index.
#[derive(Clone, Copy)]
enum WalkRows<'a, const S: usize> {
    Nibbles([(&'a [f32], &'a [u64]); S]),
    Weights([&'a [[f32; LANES]]; S]),
}

impl<'a, const S: usize> Walk<'a, S> {
    /// The walk of chunks `units` (strip, chunk index), which share the
    /// first one's runs.
    ///
    /// # Panics
    ///
    /// Panics when the chunks do not hold one representation; chunks
    /// that share runs come from one layer, which holds one.
    fn new(units: [(&'a FcStrip, usize); S], xt: &'a [f32], active: Active<'a>) -> Self {
        let span = |(strip, c): (&FcStrip, usize)| c * strip.survivors..(c + 1) * strip.survivors;
        let rows = match units[0].0.rows {
            Rows::Nibbles { .. } => WalkRows::Nibbles(units.map(|u| match &u.0.rows {
                Rows::Nibbles { codebook, rows } => (&codebook[..], &rows[span(u)]),
                Rows::Weights(_) => unreachable!("one layer holds one row representation"),
            })),
            Rows::Weights(_) => WalkRows::Weights(units.map(|u| match &u.0.rows {
                Rows::Weights(w) => &w.as_chunks().0[span(u)],
                Rows::Nibbles { .. } => unreachable!("one layer holds one row representation"),
            })),
        };
        Walk {
            runs: &units[0].0.runs,
            rows,
            xt,
            active,
        }
    }

    /// The accumulate loop every body shares: each chunk's lanes times
    /// the `B` columns of the tile, in registers. `row(u, pos)` turns
    /// chunk `u`'s `pos`-th row into a vector of sixteen weights, and
    /// `madd(acc, x, w)` is `acc + x * w` with the multiply and add kept
    /// separate. Each row is read once and applied to every column; per
    /// column the terms add in ascending input order, and the chunks'
    /// chains are independent. Under an active set, a run visits only
    /// its set bits and advances `pos` past the rest without touching
    /// the accumulators: the dropped terms are `+0.0 * w = ±0.0` into
    /// sums that can never be `-0.0`.
    #[inline(always)]
    fn accumulate<const B: usize, V: Copy>(
        &self,
        zero: V,
        row: impl Fn(usize, usize) -> V,
        madd: impl Fn(V, f32, V) -> V,
    ) -> [[V; B]; S] {
        let cols = self.xt.as_chunks::<B>().0;
        let mut acc = [[zero; B]; S];
        let mut term = |x: &[f32; B], pos: usize| {
            for (u, acc) in acc.iter_mut().enumerate() {
                let w = row(u, pos);
                for (a, &xj) in acc.iter_mut().zip(x) {
                    *a = madd(*a, xj, w);
                }
            }
        };
        let mut pos = 0usize;
        match self.active.0 {
            None => {
                for &(s, e) in self.runs {
                    for x in &cols[s as usize..e as usize] {
                        term(x, pos);
                        pos += 1;
                    }
                }
            }
            Some(bits) => {
                for &(s, e) in self.runs {
                    let (s, e) = (s as usize, e as usize);
                    for (k, mut w) in set_words(bits, s, e) {
                        while w != 0 {
                            let i = k * 64 + w.trailing_zeros() as usize;
                            term(&cols[i], pos + i - s);
                            w &= w - 1;
                        }
                    }
                    pos += e - s;
                }
            }
        }
        acc
    }
}

/// Stores one chunk's accumulators into the tile's outputs.
fn store<const B: usize>(
    io: &mut TileIo<'_>,
    (strip, c): (&FcStrip, usize),
    acc: &[[f32; LANES]; B],
) {
    let lanes = LANES.min(strip.width() - c * LANES);
    let first = strip.out_start + c * LANES;
    for (j, a) in acc.iter().enumerate() {
        io.outs[j * io.stride + first..][..lanes].copy_from_slice(&a[..lanes]);
    }
}

/// Runs every strip over one `B`-column tile and stores the sums:
/// `one` and `two` walk one chunk, or two that share their runs,
/// through a body's row reads and spill them to plain lanes. Adjacent
/// chunks pair when both accumulator sets fit [`COLUMN_TILE`] rows.
#[inline(always)]
fn run_strips<const B: usize>(
    strips: &[FcStrip],
    io: &mut TileIo<'_>,
    one: impl Fn(&Walk<'_, 1>) -> [[[f32; LANES]; B]; 1],
    two: impl Fn(&Walk<'_, 2>) -> [[[f32; LANES]; B]; 2],
) {
    let mut units = strips
        .iter()
        .flat_map(|s| (0..s.width().div_ceil(LANES)).map(move |c| (s, c)))
        .peekable();
    let (xt, active) = (io.xt, io.active);
    while let Some(a) = units.next() {
        match units.next_if(|b| 2 * B <= COLUMN_TILE && Arc::ptr_eq(&a.0.runs, &b.0.runs)) {
            Some(b) => {
                let [x, y] = two(&Walk::new([a, b], xt, active));
                store(io, a, &x);
                store(io, b, &y);
            }
            None => {
                let [x] = one(&Walk::new([a], xt, active));
                store(io, a, &x);
            }
        }
    }
}

/// `acc + x * w` over sixteen plain lanes.
#[inline(always)]
fn madd_lanes(mut acc: [f32; LANES], x: f32, w: [f32; LANES]) -> [f32; LANES] {
    for (a, w) in acc.iter_mut().zip(w) {
        *a += x * w;
    }
    acc
}

/// The portable body's walk: a scalar lookup per lane.
fn walk_portable<const B: usize, const S: usize>(k: &Walk<'_, S>) -> [[[f32; LANES]; B]; S] {
    let zero = [0.0f32; LANES];
    match k.rows {
        WalkRows::Nibbles(units) => {
            let tables = units.map(|(cb, _)| lut(cb));
            let lookup = |u: usize, pos: usize| {
                let r = units[u].1[pos];
                std::array::from_fn(|l| tables[u][nibble(r, l)])
            };
            k.accumulate(zero, lookup, madd_lanes)
        }
        WalkRows::Weights(units) => k.accumulate(zero, |u, pos| units[u][pos], madd_lanes),
    }
}

/// The portable body.
fn strips_portable<const B: usize>(strips: &[FcStrip], io: &mut TileIo<'_>) {
    run_strips::<B>(strips, io, walk_portable::<B, 1>, walk_portable::<B, 2>);
}

/// The AVX-512 and AVX2 bodies. Both are safe code under
/// `#[target_feature]`; the only `unsafe` is the raw loads and stores,
/// each over an array whose type fixes its length.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{lut, run_strips, FcStrip, TileIo, Walk, WalkRows, LANES};
    use std::arch::x86_64::*;

    /// Sixteen `f32` in one `zmm`.
    #[target_feature(enable = "avx512f")]
    fn load_zmm(v: &[f32; LANES]) -> __m512 {
        // SAFETY: `v` is a `[f32; 16]`, the 64 bytes of one unaligned
        // `zmm` load.
        unsafe { _mm512_loadu_ps(v.as_ptr()) }
    }

    /// A `zmm` accumulator spilled to plain lanes.
    #[target_feature(enable = "avx512f")]
    fn spill_zmm(v: __m512) -> [f32; LANES] {
        let mut out = [0.0f32; LANES];
        // SAFETY: `out` is a `[f32; 16]`, the 64 bytes of one unaligned
        // `zmm` store.
        unsafe { _mm512_storeu_ps(out.as_mut_ptr(), v) };
        out
    }

    /// The AVX-512 walk: one `zmm` accumulator per column and chunk.
    #[target_feature(enable = "avx512f")]
    fn walk_zmm<const B: usize, const S: usize>(k: &Walk<'_, S>) -> [[[f32; LANES]; B]; S] {
        let madd = |a, x, w| _mm512_add_ps(a, _mm512_mul_ps(_mm512_set1_ps(x), w));
        let zero = _mm512_setzero_ps();
        let acc: [[__m512; B]; S] = match k.rows {
            WalkRows::Nibbles(units) => {
                let tables = units.map(|(cb, _)| load_zmm(&lut(cb)));
                let shifts =
                    _mm512_setr_epi32(0, 0, 4, 4, 8, 8, 12, 12, 16, 16, 20, 20, 24, 24, 28, 28);
                // `vpermps` reads only the low four bits of each lane, so
                // the shifted row needs no mask.
                let lookup = |u: usize, pos: usize| {
                    let r = units[u].1[pos];
                    let idx = _mm512_srlv_epi32(_mm512_set1_epi64(r as i64), shifts);
                    _mm512_permutexvar_ps(idx, tables[u])
                };
                k.accumulate(zero, lookup, madd)
            }
            WalkRows::Weights(units) => k.accumulate(zero, |u, pos| load_zmm(&units[u][pos]), madd),
        };
        acc.map(|a| a.map(|v| spill_zmm(v)))
    }

    /// The AVX-512 body.
    #[target_feature(enable = "avx512f")]
    pub(super) fn strips_avx512<const B: usize>(strips: &[FcStrip], io: &mut TileIo<'_>) {
        run_strips::<B>(strips, io, |k| walk_zmm::<B, 1>(k), |k| walk_zmm::<B, 2>(k));
    }

    /// Eight `f32` in one `ymm`.
    #[target_feature(enable = "avx2")]
    fn load_ymm(v: &[f32; 8]) -> __m256 {
        // SAFETY: `v` is a `[f32; 8]`, the 32 bytes of one unaligned
        // `ymm` load.
        unsafe { _mm256_loadu_ps(v.as_ptr()) }
    }

    /// Sixteen `f32` in two `ymm`.
    #[target_feature(enable = "avx2")]
    fn load_ymm2(v: &[f32; LANES]) -> [__m256; 2] {
        let halves = v.as_chunks::<8>().0;
        [load_ymm(&halves[0]), load_ymm(&halves[1])]
    }

    /// A two-`ymm` accumulator spilled to plain lanes.
    #[target_feature(enable = "avx2")]
    fn spill_ymm(v: [__m256; 2]) -> [f32; LANES] {
        let mut out = [0.0f32; LANES];
        for (h, v) in out.as_chunks_mut::<8>().0.iter_mut().zip(v) {
            // SAFETY: `h` is a `[f32; 8]`, the 32 bytes of one unaligned
            // `ymm` store.
            unsafe { _mm256_storeu_ps(h.as_mut_ptr(), v) };
        }
        out
    }

    /// The AVX2 walk: two `ymm` accumulators per column and chunk.
    #[target_feature(enable = "avx2")]
    fn walk_ymm<const B: usize, const S: usize>(k: &Walk<'_, S>) -> [[[f32; LANES]; B]; S] {
        let madd = |a: [__m256; 2], x, w: [__m256; 2]| {
            let x = _mm256_set1_ps(x);
            [0, 1].map(|h| _mm256_add_ps(a[h], _mm256_mul_ps(x, w[h])))
        };
        let zero = [_mm256_setzero_ps(); 2];
        let acc: [[[__m256; 2]; B]; S] = match k.rows {
            WalkRows::Nibbles(units) => {
                let tables = units.map(|(cb, _)| load_ymm2(&lut(cb)));
                // Lanes 0-7 sit in bits 0-15 of both row words, lanes
                // 8-15 in bits 16-31. `down` brings a lane's nibble to
                // bit 0 for `vpermps`, which reads three bits; `up`
                // brings its bit 3 to the sign bit, which `blendv` reads.
                let down = [
                    _mm256_setr_epi32(0, 0, 4, 4, 8, 8, 12, 12),
                    _mm256_setr_epi32(16, 16, 20, 20, 24, 24, 28, 28),
                ];
                let up = [
                    _mm256_setr_epi32(28, 28, 24, 24, 20, 20, 16, 16),
                    _mm256_setr_epi32(12, 12, 8, 8, 4, 4, 0, 0),
                ];
                let lookup = |u: usize, pos: usize| {
                    let [lo, hi] = tables[u];
                    let r = _mm256_set1_epi64x(units[u].1[pos] as i64);
                    [0, 1].map(|h| {
                        let i = _mm256_srlv_epi32(r, down[h]);
                        let upper = _mm256_castsi256_ps(_mm256_sllv_epi32(r, up[h]));
                        let (a, b) = (
                            _mm256_permutevar8x32_ps(lo, i),
                            _mm256_permutevar8x32_ps(hi, i),
                        );
                        _mm256_blendv_ps(a, b, upper)
                    })
                };
                k.accumulate(zero, lookup, madd)
            }
            WalkRows::Weights(units) => {
                k.accumulate(zero, |u, pos| load_ymm2(&units[u][pos]), madd)
            }
        };
        acc.map(|a| a.map(|v| spill_ymm(v)))
    }

    /// The AVX2 body.
    #[target_feature(enable = "avx2")]
    pub(super) fn strips_avx2<const B: usize>(strips: &[FcStrip], io: &mut TileIo<'_>) {
        run_strips::<B>(strips, io, |k| walk_ymm::<B, 1>(k), |k| walk_ymm::<B, 2>(k));
    }
}

/// Calls `$body::<B>($args)` with the const column count `B` of a tile
/// of `$bt <= COLUMN_TILE` columns.
macro_rules! for_tile_width {
    ($bt:expr, $body:ident($($arg:expr),*)) => {
        match $bt {
            1 => $body::<1>($($arg),*),
            2 => $body::<2>($($arg),*),
            3 => $body::<3>($($arg),*),
            4 => $body::<4>($($arg),*),
            5 => $body::<5>($($arg),*),
            6 => $body::<6>($($arg),*),
            7 => $body::<7>($($arg),*),
            8 => $body::<8>($($arg),*),
            _ => unreachable!("column tile wider than COLUMN_TILE"),
        }
    };
}

/// Which build of the block-CSR kernel runs a tile (module docs,
/// "Lookup bodies").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Body {
    Avx512,
    Avx2,
    Portable,
}

impl Body {
    /// Whether the running CPU supports the body.
    fn runs_here(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            Body::Portable => true,
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The fastest body the running CPU supports.
    fn best() -> Body {
        [Body::Avx512, Body::Avx2]
            .into_iter()
            .find(|b| b.runs_here())
            .unwrap_or(Body::Portable)
    }
}

/// Reusable buffers for [`FcKernel::forward_batch`]: the transposed
/// tile, the active-input bits of a tile (or a structured kernel's
/// column), and the per-column gate counters. One per serving worker;
/// nothing is allocated once the buffers have grown to the largest
/// layer.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    xt: Vec<f32>,
    words: Vec<u64>,
    stats: Vec<GateStats>,
}

/// A fully-connected layer compiled to block-CSR strips.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledFcLayer {
    /// Layer name.
    pub name: String,
    /// Input width.
    pub n_in: usize,
    /// Output width.
    pub n_out: usize,
    /// Output lanes per strip (the last strip may be narrower).
    pub strip_width: usize,
    /// The strips in output order.
    pub strips: Vec<FcStrip>,
}

impl CompiledFcLayer {
    /// Compiles dense weights `(n_in, n_out)` plus a block-aligned mask
    /// directly, quantizing with the same per-group codebook parameters
    /// as [`SharedIndexLayer::from_fc`] (so both paths produce identical
    /// codebooks).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SharedIndexLayer::from_fc`].
    pub fn compile_fc(
        name: impl Into<String>,
        weights: &Tensor,
        mask: &Mask,
        strip_width: usize,
        quant_bits: u8,
    ) -> Result<Self, CompressError> {
        let shared = SharedIndexLayer::from_fc(name, weights, mask, strip_width, quant_bits)?;
        Ok(Self::from_shared(&shared))
    }

    /// Compiles an existing shared-index layer: each group keeps its
    /// stored indices and codebook as nibble rows when every codebook
    /// has at most 16 entries, and the weights they look up as `f32`
    /// rows otherwise.
    ///
    /// # Panics
    ///
    /// Panics when a stored index does not address its group's codebook
    /// or a lane's row disagrees with the group's shared index.
    pub fn from_shared(layer: &SharedIndexLayer) -> Self {
        let nibbles = layer
            .groups
            .iter()
            .all(|g| g.codebook.len() <= NIBBLE_ENTRIES);
        let mut strips: Vec<FcStrip> = Vec::with_capacity(layer.groups.len());
        for g in &layer.groups {
            let prev = strips.last();
            let mut strip = FcStrip::from_group(g, prev.map_or(0, |s| s.out_end), nibbles);
            if let Some(prev) = prev.filter(|p| p.runs == strip.runs) {
                strip.runs = Arc::clone(&prev.runs);
            }
            strips.push(strip);
        }
        CompiledFcLayer {
            name: layer.name.clone(),
            n_in: layer.n_in,
            n_out: layer.n_out,
            strip_width: layer.group_size,
            strips,
        }
    }

    /// Total surviving synapses.
    pub fn surviving(&self) -> usize {
        self.strips.iter().map(|s| s.survivors * s.width()).sum()
    }

    /// Fraction of surviving synapses.
    pub fn density(&self) -> f64 {
        let total = self.n_in * self.n_out;
        if total == 0 {
            return 0.0;
        }
        self.surviving() as f64 / total as f64
    }

    /// Sparse forward pass: `out = x · W_sparse` — the `B = 1`
    /// call of the batched kernel.
    ///
    /// Bit-identical to `ops::matmul` against [`Self::to_dense`] on
    /// finite inputs (see the module docs for the argument).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree with `n_in` / `n_out`.
    pub fn forward(&self, input: &[f32], out: &mut [f32]) {
        // Ungated, one column is its own transpose: the empty scratch
        // never allocates.
        self.forward_batch(input, out, &mut BatchScratch::default(), false);
    }

    /// Runs every strip over one tile of `bt` columns on `body`, which
    /// is [`Body::best`] outside tests, so tests can hold every body the
    /// host runs to the same bits.
    ///
    /// # Panics
    ///
    /// Panics when the host cannot run `body`.
    fn run_tile(&self, bt: usize, mut io: TileIo<'_>, body: Body) {
        debug_assert_eq!(io.xt.len(), self.n_in * bt);
        debug_assert_eq!(io.outs.len(), bt * io.stride);
        assert!(
            body.runs_here(),
            "{body:?} lookup body on a host without it"
        );
        let (strips, io) = (&self.strips[..], &mut io);
        match body {
            #[cfg(target_arch = "x86_64")]
            Body::Avx512 => {
                use x86::strips_avx512;
                // SAFETY: the body is safe code whose only requirement
                // is `avx512f`, which `runs_here` verified on this CPU
                // above.
                unsafe { for_tile_width!(bt, strips_avx512(strips, io)) }
            }
            #[cfg(target_arch = "x86_64")]
            Body::Avx2 => {
                use x86::strips_avx2;
                // SAFETY: as above, for `avx2`.
                unsafe { for_tile_width!(bt, strips_avx2(strips, io)) }
            }
            _ => for_tile_width!(bt, strips_portable(strips, io)),
        }
    }

    /// The whole batch as one sparse-W × dense-B product: `inputs` holds
    /// `B` input vectors back to back, `outs` receives `B × n_out`, and
    /// every strip's rows stream once per [`COLUMN_TILE`] columns.
    /// Column `j` of the result is bit-identical to [`Self::forward`]
    /// on input `j` alone, whatever it is batched with.
    ///
    /// Gated, every column is prescanned on its own and the returned
    /// slice holds one [`GateStats`] per column (empty when ungated); a
    /// tile whose active share is at most [`ACTIVE_WALK_MAX_SHARE`]
    /// visits only the inputs some column has active.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` is not a whole number of `n_in`-vectors or
    /// `outs` is not `n_out` per input.
    pub fn forward_batch<'s>(
        &self,
        inputs: &[f32],
        outs: &mut [f32],
        scratch: &'s mut BatchScratch,
        gated: bool,
    ) -> &'s [GateStats] {
        self.forward_batch_on(inputs, outs, scratch, gated, Body::best())
    }

    fn forward_batch_on<'s>(
        &self,
        inputs: &[f32],
        outs: &mut [f32],
        scratch: &'s mut BatchScratch,
        gated: bool,
        body: Body,
    ) -> &'s [GateStats] {
        let (n_in, n_out) = (self.n_in, self.n_out);
        let b = batch_columns(inputs, outs, n_in, n_out);
        let BatchScratch { xt, words, stats } = scratch;
        stats.clear();
        if gated {
            stats.extend(inputs.chunks_exact(n_in.max(1)).map(gate::count_inputs));
        }
        let few = |active: usize| active as f64 <= ACTIVE_WALK_MAX_SHARE * n_in as f64;
        for col0 in (0..b).step_by(COLUMN_TILE) {
            let bt = COLUMN_TILE.min(b - col0);
            let tile_in = &inputs[col0 * n_in..(col0 + bt) * n_in];
            // The tile's active set is the union of its columns', at
            // least as large as any one column's: mark it only when no
            // column alone is too dense for the active walk.
            let mut active = Active::ALL;
            if gated
                && stats[col0..col0 + bt]
                    .iter()
                    .all(|s| few(s.occupied_blocks()))
            {
                words.clear();
                words.resize(n_in.div_ceil(64), 0);
                for x in tile_in.chunks_exact(n_in) {
                    gate::mark_active(x, words);
                }
                let set: u32 = words.iter().map(|w| w.count_ones()).sum();
                if few(set as usize) {
                    active = Active(Some(&words[..]));
                }
            }
            // A single column is its own transpose.
            let xt: &[f32] = if bt == 1 {
                tile_in
            } else {
                xt.resize(n_in * bt, 0.0);
                for (i, row) in xt.chunks_exact_mut(bt).enumerate() {
                    for (j, slot) in row.iter_mut().enumerate() {
                        *slot = tile_in[j * n_in + i];
                    }
                }
                xt
            };
            let io = TileIo {
                xt,
                active,
                outs: &mut outs[col0 * n_out..(col0 + bt) * n_out],
                stride: n_out,
            };
            self.run_tile(bt, io, body);
        }
        stats
    }

    /// Reconstructs the dense `(n_in, n_out)` weight matrix the engine
    /// executes: every strip's weights ([`FcStrip::weight`]: nibbles
    /// looked up in the strip's codebook) at the surviving positions,
    /// zeros elsewhere. This is the dense-reference operand of the
    /// equivalence contract.
    pub fn to_dense(&self) -> Tensor {
        let mut dense = vec![0.0f32; self.n_in * self.n_out];
        for strip in &self.strips {
            let surviving = strip.runs.iter().flat_map(|&(s, e)| s as usize..e as usize);
            for (pos, i) in surviving.enumerate() {
                let row = &mut dense[i * self.n_out + strip.out_start..][..strip.width()];
                for (lane, w) in row.iter_mut().enumerate() {
                    *w = strip.weight(pos, lane);
                }
            }
        }
        Tensor::from_vec(Shape::d2(self.n_in, self.n_out), dense)
            .unwrap_or_else(|_| Tensor::zeros(Shape::d2(self.n_in, self.n_out)))
    }
}

/// A convolutional layer compiled for sparse execution: the standard
/// im2col lowering with the inner matmul replaced by the block-CSR FC
/// kernel over `(n_fin · kx · ky, n_fout)`.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledConvLayer {
    inner: CompiledFcLayer,
    geom: Conv2dGeometry,
    n_fin: usize,
    n_fout: usize,
}

impl CompiledConvLayer {
    /// Compiles conv weights `(n_fin, n_fout, kx, ky)` plus a mask that
    /// is coarse over `strip_width` output maps.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SharedIndexLayer::from_conv`], plus a
    /// geometry check against the weight kernel.
    pub fn compile_conv(
        name: impl Into<String>,
        weights: &Tensor,
        mask: &Mask,
        strip_width: usize,
        quant_bits: u8,
        geom: Conv2dGeometry,
    ) -> Result<Self, CompressError> {
        if weights.shape().rank() != 4 {
            return Err(CompressError::Tensor(TensorError::RankMismatch {
                expected: 4,
                actual: weights.shape().rank(),
                op: "compile conv",
            }));
        }
        let (kx, ky) = (weights.shape().dim(2), weights.shape().dim(3));
        if kx != geom.kx || ky != geom.ky {
            return Err(CompressError::Tensor(TensorError::InvalidGeometry(
                format!(
                    "weight kernel ({kx}x{ky}) disagrees with geometry ({}x{})",
                    geom.kx, geom.ky
                ),
            )));
        }
        let shared = SharedIndexLayer::from_conv(name, weights, mask, strip_width, quant_bits)?;
        Ok(Self::from_shared(&shared, weights.shape().dim(0), geom))
    }

    /// Wraps a shared-index conv layer (lowered over `(f·kx+x)·ky+y`
    /// input positions, as [`SharedIndexLayer::from_conv`] produces).
    pub fn from_shared(layer: &SharedIndexLayer, n_fin: usize, geom: Conv2dGeometry) -> Self {
        let inner = CompiledFcLayer::from_shared(layer);
        CompiledConvLayer {
            n_fout: inner.n_out,
            inner,
            geom,
            n_fin,
        }
    }

    /// Fraction of surviving synapses over the lowered window positions.
    pub fn density(&self) -> f64 {
        self.inner.density()
    }

    /// Sparse conv forward over a `(n_fin, h, w)` input, producing
    /// `(n_fout, oh, ow)`. Bit-identical to `ops::conv2d` against the
    /// densified lowered weights on finite inputs.
    ///
    /// # Errors
    ///
    /// Returns shape/geometry errors when the input is inconsistent.
    pub fn forward(&self, input: &Tensor) -> Result<Tensor, TensorError> {
        let cols = ops::im2col(input, &self.geom)?;
        if input.shape().dim(0) != self.n_fin {
            return Err(TensorError::ShapeMismatch {
                left: input.shape().clone(),
                right: Shape::d2(self.inner.n_in, self.n_fout),
                op: "sparse conv2d",
            });
        }
        let (h, w) = (input.shape().dim(1), input.shape().dim(2));
        let (oh, ow) = self.geom.output_size(h, w)?;
        let n_fout = self.n_fout;
        // Every output position's patch is one column of a batch through
        // the inner kernel, and a column's bits do not depend on the
        // batch it rides in.
        let mut prod = vec![0.0f32; oh * ow * n_fout];
        self.inner.forward_batch(
            cols.as_slice(),
            &mut prod,
            &mut BatchScratch::default(),
            false,
        );
        // Transpose (oh*ow, n_fout) -> (n_fout, oh, ow).
        Ok(Tensor::from_fn(Shape::d3(n_fout, oh, ow), |i| {
            prod[i % (oh * ow) * n_fout + i / (oh * ow)]
        }))
    }

    /// The densified lowered weight matrix `(n_fin · kx · ky, n_fout)`,
    /// i.e. the `wmat` operand the dense `conv2d` would multiply by.
    pub fn to_dense_lowered(&self) -> Tensor {
        self.inner.to_dense()
    }

    /// The densified 4-D weight tensor `(n_fin, n_fout, kx, ky)`.
    pub fn to_dense(&self) -> Tensor {
        let lowered = self.inner.to_dense();
        let lv = lowered.as_slice();
        let (kx, ky) = (self.geom.kx, self.geom.ky);
        let n_fout = self.n_fout;
        Tensor::from_fn(Shape::d4(self.n_fin, n_fout, kx, ky), |i| {
            let y = i % ky;
            let x = (i / ky) % kx;
            let fo = (i / (kx * ky)) % n_fout;
            let f = i / (n_fout * kx * ky);
            let p = (f * kx + x) * ky + y;
            lv[p * n_fout + fo]
        })
    }
}

/// A structured-sparsity FC layer compiled for execution: every lane
/// reads the same fixed number of (position, value) pairs per bank of
/// inputs — `(bank, k)`, `(4, 2)` for 2:4 — unpacked once from the
/// storage metadata at compile time. It runs through
/// [`FcKernel::BankBalanced`].
///
/// The layout is **group-major**: for every full bank of inputs, one
/// planar row of in-bank byte offsets and one of values per survivor
/// slot, both indexed `[g][j][o]`. Fixed fan-in makes the inner loops
/// branch-free (no run decoding, no per-lane survivor counts), and the
/// group-major order turns the hot loop into sequential streams over
/// `offsets`/`values`/`out` with the bank's input window held in
/// registers.
///
/// Per lane the accumulation order is banks ascending, offsets
/// ascending within a bank — exactly the ascending dense k-order, so
/// outputs are bit-identical to a dense matmul over
/// [`FcKernel::to_dense`] on finite inputs. On x86-64 with AVX2, banks
/// of 4, 8 or 16 select through `vpermvar8x32` lane shuffles (plain
/// `mul`+`add`, never FMA, and the same per-lane term order), so the
/// vector path produces the same bits as the portable scalar kernel
/// other bank widths run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStructuredFc {
    name: String,
    n_in: usize,
    n_out: usize,
    /// Bank (group) width along the input dimension; 4 for 2:4.
    bank: usize,
    /// Survivors per full bank per lane; 2 for 2:4.
    k: usize,
    /// Full banks (`n_in / bank`).
    full_groups: usize,
    /// In-bank survivor offsets, planar `[g][j][o]`, `full_groups * k *
    /// n_out` entries. `offsets[(g*k + j)*n_out + o]` is lane `o`'s
    /// `j`-th survivor within bank `g`, offsets ascending in `j`.
    offsets: Vec<u8>,
    /// Survivor values, same `[g][j][o]` layout.
    values: Vec<f32>,
    /// Inputs in the ragged tail bank (`n_in % bank`).
    tail_len: usize,
    /// Survivors in the tail bank (`min(k, tail_len)`).
    tail_spg: usize,
    /// Tail offsets, planar `[j][o]`, `tail_spg * n_out` entries.
    tail_offsets: Vec<u8>,
    /// Tail values, same layout.
    tail_values: Vec<f32>,
    /// 2:4 only (`bank == 4`, `k == 2`): both survivor offsets of a
    /// group re-packed into one byte per lane (`off0 | off1 << 2`, the
    /// two 2-bit offsets the storage format holds), planar `[g][o]`. Halves the
    /// hot loop's index traffic: one byte load feeds both shuffles.
    packed24: Option<Vec<u8>>,
}

impl CompiledStructuredFc {
    fn from_lanes(
        name: &str,
        n_in: usize,
        n_out: usize,
        bank: usize,
        k: usize,
        lane_positions: impl Fn(usize) -> Vec<u32>,
        lane_values: impl Fn(usize) -> Vec<f32>,
    ) -> Self {
        let full_groups = n_in / bank;
        let tail_len = n_in % bank;
        let tail_spg = tail_len.min(k);
        let mut offsets = vec![0u8; full_groups * k * n_out];
        let mut values = vec![0.0f32; full_groups * k * n_out];
        let mut tail_offsets = vec![0u8; tail_spg * n_out];
        let mut tail_values = vec![0.0f32; tail_spg * n_out];
        for o in 0..n_out {
            // Ascending lane positions land group-major: each full bank
            // contributes exactly `k` survivors, then the tail.
            let pos = lane_positions(o);
            let vals = lane_values(o);
            for g in 0..full_groups {
                for j in 0..k {
                    let s = g * k + j;
                    let e = s * n_out + o;
                    offsets[e] = (pos[s] as usize - g * bank) as u8;
                    values[e] = vals[s];
                }
            }
            for j in 0..tail_spg {
                let s = full_groups * k + j;
                let e = j * n_out + o;
                tail_offsets[e] = (pos[s] as usize - full_groups * bank) as u8;
                tail_values[e] = vals[s];
            }
        }
        let packed24 = (bank == 4 && k == 2 && full_groups > 0).then(|| {
            (0..full_groups * n_out)
                .map(|e| {
                    let (g, o) = (e / n_out, e % n_out);
                    offsets[(g * 2) * n_out + o] | (offsets[(g * 2 + 1) * n_out + o] << 2)
                })
                .collect()
        });
        CompiledStructuredFc {
            name: name.to_string(),
            n_in,
            n_out,
            bank,
            k,
            full_groups,
            offsets,
            values,
            tail_len,
            tail_spg,
            tail_offsets,
            tail_values,
            packed24,
        }
    }

    /// Exact pattern density: survivors per lane over the fan-in.
    fn density(&self) -> f64 {
        if self.n_in == 0 {
            return 0.0;
        }
        (self.full_groups * self.k + self.tail_spg) as f64 / self.n_in as f64
    }

    /// Accumulates one planar survivor row (`k_row` of bank `g`, or the
    /// tail row) into the output window: `out[oi] += window[off] * v`.
    #[inline]
    fn accumulate_row(window: &[f32], offs: &[u8], vals: &[f32], out: &mut [f32]) {
        for ((slot, off), v) in out.iter_mut().zip(offs).zip(vals) {
            *slot += window[*off as usize] * *v;
        }
    }

    /// Portable forward over lanes `out_start..out_start + out.len()`.
    /// Survivor groups whose input bank holds no active input are
    /// skipped — bit-neutral for the accumulators (the dropped terms
    /// are `+0.0 * w = ±0.0`), so gated and ungated outputs are
    /// identical.
    fn forward_range_scalar(
        &self,
        input: &[f32],
        out: &mut [f32],
        out_start: usize,
        active: Active<'_>,
    ) {
        let len = out.len();
        out.fill(0.0);
        for g in 0..self.full_groups {
            if !active.any(g * self.bank, (g + 1) * self.bank) {
                continue;
            }
            let window = &input[g * self.bank..(g + 1) * self.bank];
            for j in 0..self.k {
                let row = (g * self.k + j) * self.n_out + out_start;
                Self::accumulate_row(
                    window,
                    &self.offsets[row..row + len],
                    &self.values[row..row + len],
                    out,
                );
            }
        }
        let tail_base = self.full_groups * self.bank;
        if active.any(tail_base, self.n_in) {
            for j in 0..self.tail_spg {
                let row = j * self.n_out + out_start;
                Self::accumulate_row(
                    &input[tail_base..],
                    &self.tail_offsets[row..row + len],
                    &self.tail_values[row..row + len],
                    out,
                );
            }
        }
    }

    /// AVX2 forward: eight output lanes ride one register accumulator
    /// across *every* bank, selecting survivor inputs with `vpermps`
    /// shuffles of the bank's register-held window. Same per-lane term
    /// order (banks ascending, survivor slots ascending, then the tail)
    /// and the same separate `mul`/`add` arithmetic as the scalar path,
    /// so the output bits are identical.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, `BANK` must equal `self.bank` and be
    /// one of 4, 8 or 16 (so full-bank window loads stay in bounds and
    /// offsets fit the shuffle), `input.len()` must be `n_in`, and
    /// `out_start + out.len()` must not exceed `n_out`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn forward_range_avx2<const BANK: usize>(
        &self,
        input: &[f32],
        out: &mut [f32],
        out_start: usize,
        active: Active<'_>,
    ) {
        let chunks = out.len() / 8;
        // Strips of four 8-lane chunks: 32 accumulator lanes stay in
        // registers across every bank, and each survivor row is read as
        // 128 consecutive bytes (two cache lines) per visit.
        let strips = chunks / 4;
        for s in 0..strips {
            // SAFETY: this function's contract, and chunks
            // `s * 4..s * 4 + 4` end at or below `chunks = out.len() / 8`.
            self.avx2_strip::<BANK, 4>(input, out, out_start, s * 4, active);
        }
        for c in strips * 4..chunks {
            // SAFETY: as above, with the one chunk `c < chunks`.
            self.avx2_strip::<BANK, 1>(input, out, out_start, c, active);
        }
        // Remainder lanes (< 8) run the scalar kernel on their window:
        // identical per-lane term order, so the mix stays bit-identical.
        if chunks * 8 < out.len() {
            self.forward_range_scalar(
                input,
                &mut out[chunks * 8..],
                out_start + chunks * 8,
                active,
            );
        }
    }

    /// One `U`-chunk strip of the AVX2 forward: chunks
    /// `c0..c0 + U` of the window accumulate across all banks in `U`
    /// register accumulators.
    ///
    /// # Safety
    ///
    /// Same contract as [`Self::forward_range_avx2`], plus
    /// `(c0 + U) * 8 <= out.len()`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_strip<const BANK: usize, const U: usize>(
        &self,
        input: &[f32],
        out: &mut [f32],
        out_start: usize,
        c0: usize,
        active: Active<'_>,
    ) {
        use std::arch::x86_64::*;
        debug_assert_eq!(input.len(), self.n_in);
        debug_assert!((c0 + U) * 8 <= out.len());
        debug_assert!(out_start + out.len() <= self.n_out);
        // SAFETY (every raw load and store below): lanes `col..col +
        // U * 8` lie inside `0..n_out` by the two asserts above, so each
        // planar row read at `row + u * 8` stays inside its `n_out`-long
        // row of `offsets` / `values` / `packed24` / the tail arrays;
        // bank `g < full_groups` reads inputs `g * BANK..(g + 1) * BANK`,
        // at most `n_in = input.len()`; the tail reads a local 16-float
        // pad; the stores write chunks `c0..c0 + U` of `out`.
        let seven = _mm256_set1_epi32(7);
        let col = out_start + c0 * 8;
        // `vpermps` indexes mod 8; a 16-wide bank blends in the upper
        // half by the offset's bit 3.
        let select = |lo: __m256, hi: __m256, idx: __m256i| {
            let mut sel = _mm256_permutevar8x32_ps(lo, idx);
            if BANK == 16 {
                let sel_hi = _mm256_permutevar8x32_ps(hi, idx);
                let high = _mm256_cmpgt_epi32(idx, seven);
                sel = _mm256_blendv_ps(sel, sel_hi, _mm256_castsi256_ps(high));
            }
            sel
        };
        let mut acc = [_mm256_setzero_ps(); U];
        if let (4, Some(packed)) = (BANK, &self.packed24) {
            // 2:4 fast path: one packed byte per (group, lane) feeds
            // both shuffles — `off0` in bits 0-1, `off1` in bits 2-3 —
            // and both survivor terms add in slot order, exactly like
            // the generic loop below.
            let three = _mm256_set1_epi32(3);
            for g in 0..self.full_groups {
                if !active.any(g * 4, g * 4 + 4) {
                    continue;
                }
                let lo = _mm256_castps128_ps256(_mm_loadu_ps(input.as_ptr().add(g * 4)));
                let pbase = g * self.n_out + col;
                let row0 = (g * 2) * self.n_out + col;
                for (u, a) in acc.iter_mut().enumerate() {
                    let b = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                        packed.as_ptr().add(pbase + u * 8) as *const __m128i,
                    ));
                    let idx0 = _mm256_and_si256(b, three);
                    let idx1 = _mm256_and_si256(_mm256_srli_epi32(b, 2), three);
                    let v0 = _mm256_loadu_ps(self.values.as_ptr().add(row0 + u * 8));
                    let v1 = _mm256_loadu_ps(self.values.as_ptr().add(row0 + self.n_out + u * 8));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(_mm256_permutevar8x32_ps(lo, idx0), v0));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(_mm256_permutevar8x32_ps(lo, idx1), v1));
                }
            }
        } else {
            for g in 0..self.full_groups {
                if !active.any(g * BANK, (g + 1) * BANK) {
                    continue;
                }
                // Full banks load straight from the input — a 4-float
                // load fills the shuffle's low lanes, wider banks fill
                // one or both 8-float halves exactly.
                let wp = input.as_ptr().add(g * BANK);
                let lo = if BANK == 4 {
                    _mm256_castps128_ps256(_mm_loadu_ps(wp))
                } else {
                    _mm256_loadu_ps(wp)
                };
                let hi = if BANK == 16 {
                    _mm256_loadu_ps(wp.add(8))
                } else {
                    lo
                };
                for j in 0..self.k {
                    let row = (g * self.k + j) * self.n_out + col;
                    for (u, a) in acc.iter_mut().enumerate() {
                        let idx = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                            self.offsets.as_ptr().add(row + u * 8) as *const __m128i,
                        ));
                        let v = _mm256_loadu_ps(self.values.as_ptr().add(row + u * 8));
                        *a = _mm256_add_ps(*a, _mm256_mul_ps(select(lo, hi, idx), v));
                    }
                }
            }
        }
        if self.tail_spg > 0 && active.any(self.full_groups * BANK, self.n_in) {
            // Tail offsets are < tail_len < BANK; zero padding past the
            // tail is never selected.
            let mut tail_pad = [0.0f32; 16];
            tail_pad[..self.tail_len].copy_from_slice(&input[self.full_groups * BANK..]);
            let lo = _mm256_loadu_ps(tail_pad.as_ptr());
            let hi = _mm256_loadu_ps(tail_pad.as_ptr().add(8));
            for j in 0..self.tail_spg {
                let row = j * self.n_out + col;
                for (u, a) in acc.iter_mut().enumerate() {
                    let idx = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
                        self.tail_offsets.as_ptr().add(row + u * 8) as *const __m128i,
                    ));
                    let v = _mm256_loadu_ps(self.tail_values.as_ptr().add(row + u * 8));
                    *a = _mm256_add_ps(*a, _mm256_mul_ps(select(lo, hi, idx), v));
                }
            }
        }
        for (u, a) in acc.iter().enumerate() {
            _mm256_storeu_ps(out.as_mut_ptr().add((c0 + u) * 8), *a);
        }
    }

    /// One column, all `n_out` lanes, on the best path the host has.
    fn forward_column(&self, input: &[f32], out: &mut [f32], active: Active<'_>) {
        assert_eq!(input.len(), self.n_in, "input length mismatch");
        assert_eq!(out.len(), self.n_out, "output length mismatch");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") && matches!(self.bank, 4 | 8 | 16) {
            // SAFETY: AVX2 was detected on this CPU on the line above,
            // the const bank matches `self.bank` and is one of the
            // shuffle widths, and the asserts above hand over one whole
            // column: `input.len() == n_in`, `out.len() == n_out`.
            unsafe {
                match self.bank {
                    4 => self.forward_range_avx2::<4>(input, out, 0, active),
                    8 => self.forward_range_avx2::<8>(input, out, 0, active),
                    _ => self.forward_range_avx2::<16>(input, out, 0, active),
                }
            }
            return;
        }
        self.forward_range_scalar(input, out, 0, active);
    }

    /// Runs the batch one column at a time. Gated, each column is
    /// prescanned one bit per input, reports its counters, and skips
    /// the banks whose bits are all clear.
    fn forward_batch<'s>(
        &self,
        inputs: &[f32],
        outs: &mut [f32],
        scratch: &'s mut BatchScratch,
        gated: bool,
    ) -> &'s [GateStats] {
        let (n_in, n_out) = (self.n_in, self.n_out);
        let b = batch_columns(inputs, outs, n_in, n_out);
        let BatchScratch { words, stats, .. } = scratch;
        stats.clear();
        for j in 0..b {
            let x = &inputs[j * n_in..(j + 1) * n_in];
            let out = &mut outs[j * n_out..(j + 1) * n_out];
            let mut active = Active::ALL;
            if gated {
                let s = gate::count_inputs(x);
                stats.push(s);
                if s.zero_blocks > 0 {
                    words.clear();
                    words.resize(n_in.div_ceil(64), 0);
                    gate::mark_active(x, words);
                    active = Active(Some(&words[..]));
                }
            }
            self.forward_column(x, out, active);
        }
        stats
    }

    fn to_dense(&self) -> Tensor {
        let mut dense = vec![0.0f32; self.n_in * self.n_out];
        for o in 0..self.n_out {
            for g in 0..self.full_groups {
                for j in 0..self.k {
                    let e = (g * self.k + j) * self.n_out + o;
                    let i = g * self.bank + self.offsets[e] as usize;
                    dense[i * self.n_out + o] = self.values[e];
                }
            }
            for j in 0..self.tail_spg {
                let e = j * self.n_out + o;
                let i = self.full_groups * self.bank + self.tail_offsets[e] as usize;
                dense[i * self.n_out + o] = self.tail_values[e];
            }
        }
        Tensor::from_vec(Shape::d2(self.n_in, self.n_out), dense)
            .unwrap_or_else(|_| Tensor::zeros(Shape::d2(self.n_in, self.n_out)))
    }
}

/// Any compiled FC kernel: block-CSR for coarse layers, or the
/// structured fixed-fan-in kernel for bank-balanced layers, 2:4
/// included.
/// This is the dispatch point the serving lanes and the conformance
/// harness execute through; every variant honors the same
/// dense-equivalence contract.
#[derive(Debug, Clone, PartialEq)]
pub enum FcKernel {
    /// Block-CSR strips over a shared index ([`CompiledFcLayer`]).
    BlockCsr(CompiledFcLayer),
    /// Bank-balanced kernel, 2:4 included.
    BankBalanced(CompiledStructuredFc),
}

impl FcKernel {
    /// Compiles any storage format to its specialized kernel.
    pub fn compile(format: &FcLayerFormat) -> Self {
        match format {
            FcLayerFormat::Shared(l) => FcKernel::BlockCsr(CompiledFcLayer::from_shared(l)),
            FcLayerFormat::BankBalanced(l) => {
                FcKernel::BankBalanced(CompiledStructuredFc::from_lanes(
                    &l.name,
                    l.n_in,
                    l.n_out,
                    l.bank,
                    l.k,
                    |o| l.lane_positions(o),
                    |o| l.lane_values(o).to_vec(),
                ))
            }
        }
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        match self {
            FcKernel::BlockCsr(l) => &l.name,
            FcKernel::BankBalanced(s) => &s.name,
        }
    }

    /// The telemetry label of the kernel specialization.
    pub fn kind(&self) -> &'static str {
        match self {
            FcKernel::BlockCsr(_) => "sparse",
            FcKernel::BankBalanced(s) => PruneMode::structured(s.bank, s.k).name(),
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        match self {
            FcKernel::BlockCsr(l) => l.n_in,
            FcKernel::BankBalanced(s) => s.n_in,
        }
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        match self {
            FcKernel::BlockCsr(l) => l.n_out,
            FcKernel::BankBalanced(s) => s.n_out,
        }
    }

    /// Fraction of surviving synapses.
    pub fn density(&self) -> f64 {
        match self {
            FcKernel::BlockCsr(l) => l.density(),
            FcKernel::BankBalanced(s) => s.density(),
        }
    }

    /// Sparse forward through the specialized kernel: the ungated
    /// `B = 1` call of [`Self::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree with `n_in` / `n_out`.
    pub fn forward(&self, input: &[f32], out: &mut [f32]) {
        self.forward_batch(input, out, &mut BatchScratch::default(), false);
    }

    /// The one execution entry: `inputs` holds `B` input vectors back
    /// to back and `outs` receives `B × n_out`. Block-CSR layers run it
    /// as one sparse-W × dense-B product
    /// ([`CompiledFcLayer::forward_batch`]); the structured kernels run
    /// their branch-free loop column by column. Either way column `j`
    /// is bit-identical to the dense reference on input `j` alone, on
    /// finite inputs.
    ///
    /// Gated, the layer skips inputs that are bit-exact `+0.0` (module
    /// docs, "Activation gating") and the returned slice holds one
    /// [`GateStats`] per column, counting inputs; it is empty
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics when `inputs` is not a whole number of `n_in`-vectors or
    /// `outs` is not `n_out` per input.
    pub fn forward_batch<'s>(
        &self,
        inputs: &[f32],
        outs: &mut [f32],
        scratch: &'s mut BatchScratch,
        gated: bool,
    ) -> &'s [GateStats] {
        match self {
            FcKernel::BlockCsr(l) => l.forward_batch(inputs, outs, scratch, gated),
            FcKernel::BankBalanced(s) => s.forward_batch(inputs, outs, scratch, gated),
        }
    }

    /// The dense `(n_in, n_out)` twin of the equivalence contract.
    pub fn to_dense(&self) -> Tensor {
        match self {
            FcKernel::BlockCsr(l) => l.to_dense(),
            FcKernel::BankBalanced(s) => s.to_dense(),
        }
    }
}

/// Collapses a boolean survival index into ascending `[start, end)` runs.
fn runs_from_index(index: &[bool]) -> Vec<(u32, u32)> {
    let mut runs = Vec::new();
    let mut start: Option<u32> = None;
    for (i, b) in index.iter().enumerate() {
        match (b, start) {
            (true, None) => start = Some(i as u32),
            (false, Some(s)) => {
                runs.push((s, i as u32));
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        runs.push((s, index.len() as u32));
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_nn::init::{local_convergence, ConvergenceProfile};
    use cs_sparsity::coarse::{self, CoarseConfig, PruneMetric};
    use proptest::{prop_assert, prop_assert_eq};

    fn fc_layer(n_in: usize, n_out: usize, group: usize, density: f64) -> (Tensor, Mask) {
        let w = local_convergence(
            Shape::d2(n_in, n_out),
            &ConvergenceProfile::with_target_density(density).with_block(group),
            3,
        );
        let cfg = CoarseConfig::fc(group, group, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, density).unwrap();
        (w, mask)
    }

    fn bits_of(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `n_out` outputs written by `forward`, in a fresh vector.
    fn run(n_out: usize, forward: impl FnOnce(&mut [f32])) -> Vec<f32> {
        let mut out = vec![0.0f32; n_out];
        forward(&mut out);
        out
    }

    /// One column through the gated `forward_batch`: its outputs and its
    /// gate counters.
    fn gated(kernel: &FcKernel, x: &[f32]) -> (Vec<f32>, GateStats) {
        let mut out = vec![0.0f32; kernel.n_out()];
        let stats = kernel.forward_batch(x, &mut out, &mut BatchScratch::default(), true)[0];
        (out, stats)
    }

    fn bank_balanced(w: &Tensor, bank: usize, k: usize) -> FcKernel {
        let mask = cs_sparsity::structured::bank_balanced_mask(w, bank, k).unwrap();
        FcKernel::compile(&FcLayerFormat::BankBalanced(
            crate::format::BankBalancedFcLayer::from_fc("bb", w, &mask, bank, k).unwrap(),
        ))
    }

    #[test]
    fn fc_forward_is_bit_identical_to_dense_reference() {
        let (w, mask) = fc_layer(64, 32, 16, 0.25);
        let layer = CompiledFcLayer::compile_fc("fc", &w, &mask, 16, 8).unwrap();
        let dense = layer.to_dense();
        let input: Vec<f32> = (0..64)
            .map(|i| ((i * 13) % 29) as f32 * 0.1 - 1.0)
            .collect();
        let x = Tensor::from_vec(Shape::d2(1, 64), input.clone()).unwrap();
        let want = ops::matmul(&x, &dense).unwrap();
        let got = run(32, |o| layer.forward(&input, o));
        assert_eq!(bits_of(&got), bits_of(want.as_slice()));
    }

    #[test]
    fn fc_forward_handles_edge_shapes_and_full_pruning() {
        // n_out not a multiple of the strip width, and a fully-pruned
        // strip in the middle.
        let (w, _) = fc_layer(40, 24, 8, 0.9);
        let mut bits = vec![true; 40 * 24];
        for i in 0..40 {
            for o in 8..16 {
                bits[i * 24 + o] = false; // second strip fully pruned
            }
        }
        let mask = Mask::from_bits(Shape::d2(40, 24), bits).unwrap();
        let layer = CompiledFcLayer::compile_fc("edge", &w, &mask, 8, 8).unwrap();
        let dense = layer.to_dense();
        let input: Vec<f32> = (0..40).map(|i| (i as f32).sin()).collect();
        let x = Tensor::from_vec(Shape::d2(1, 40), input.clone()).unwrap();
        let want = ops::matmul(&x, &dense).unwrap();
        let got = run(24, |o| layer.forward(&input, o));
        assert_eq!(bits_of(&got), bits_of(want.as_slice()));
        assert_eq!(&got[8..16], &[0.0f32; 8]);
    }

    #[test]
    fn from_shared_equals_compile_fc() {
        let (w, mask) = fc_layer(64, 32, 16, 0.25);
        let shared = SharedIndexLayer::from_fc("fc", &w, &mask, 16, 8).unwrap();
        let via_shared = CompiledFcLayer::from_shared(&shared);
        let direct = CompiledFcLayer::compile_fc("fc", &w, &mask, 16, 8).unwrap();
        assert_eq!(via_shared, direct);
        assert_eq!(via_shared.surviving(), shared.surviving());
        assert!((via_shared.density() - shared.density()).abs() < 1e-12);
    }

    #[test]
    fn forward_matches_shared_index_reference_output() {
        let (w, mask) = fc_layer(64, 32, 16, 0.25);
        let shared = SharedIndexLayer::from_fc("fc", &w, &mask, 16, 8).unwrap();
        let layer = CompiledFcLayer::from_shared(&shared);
        let input: Vec<f32> = (0..64).map(|i| ((i * 3) % 11) as f32 * 0.2).collect();
        let want = shared.output(&input);
        let got = run(32, |o| layer.forward(&input, o));
        assert_eq!(bits_of(&got), bits_of(&want));
    }

    #[test]
    fn conv_forward_is_bit_identical_to_dense_conv2d() {
        let w = local_convergence(
            Shape::d4(2, 32, 3, 3),
            &ConvergenceProfile::with_target_density(0.3),
            9,
        );
        let cfg = CoarseConfig::conv(1, 16, 1, 1, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, 0.3).unwrap();
        let geom = Conv2dGeometry::square(3, 1, 1);
        let layer = CompiledConvLayer::compile_conv("conv", &w, &mask, 16, 8, geom).unwrap();
        let input = Tensor::from_fn(Shape::d3(2, 8, 8), |i| ((i * 17) % 31) as f32 * 0.06 - 0.9);
        let want = ops::conv2d(&input, &layer.to_dense(), None, &geom).unwrap();
        let got = layer.forward(&input).unwrap();
        assert_eq!(want.shape(), got.shape());
        assert_eq!(bits_of(want.as_slice()), bits_of(got.as_slice()));
    }

    #[test]
    fn runs_cover_exactly_the_survivors() {
        let index = vec![
            true, true, false, false, true, false, true, true, true, false,
        ];
        let runs = runs_from_index(&index);
        assert_eq!(runs, vec![(0, 2), (4, 5), (6, 9)]);
        assert_eq!(runs_from_index(&[]), vec![]);
        assert_eq!(runs_from_index(&[true]), vec![(0, 1)]);
        assert_eq!(runs_from_index(&[false]), vec![]);
    }

    fn rand_w(n_in: usize, n_out: usize, seed: u64) -> Tensor {
        let mut x = seed | 1;
        Tensor::from_fn(Shape::d2(n_in, n_out), |_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }

    #[test]
    fn two_four_forward_is_bit_identical_to_dense_reference() {
        for n_in in [16usize, 17, 64, 7] {
            let w = rand_w(n_in, 24, n_in as u64 * 3);
            let layer = bank_balanced(&w, 4, 2);
            let dense = layer.to_dense();
            let input: Vec<f32> = (0..n_in).map(|i| (i as f32 * 0.7).sin()).collect();
            let x = Tensor::from_vec(Shape::d2(1, n_in), input.clone()).unwrap();
            let want = ops::matmul(&x, &dense).unwrap();
            let got = run(24, |o| layer.forward(&input, o));
            assert_eq!(bits_of(&got), bits_of(want.as_slice()), "n_in {n_in}");
        }
    }

    #[test]
    fn bank_balanced_forward_is_bit_identical_to_dense_reference() {
        for (bank, k) in [(8usize, 2usize), (3, 1), (16, 7), (5, 5)] {
            let w = rand_w(29, 12, (bank * 13 + k) as u64);
            let layer = bank_balanced(&w, bank, k);
            let dense = layer.to_dense();
            let input: Vec<f32> = (0..29).map(|i| (i as f32 * 0.31).cos()).collect();
            let x = Tensor::from_vec(Shape::d2(1, 29), input.clone()).unwrap();
            let want = ops::matmul(&x, &dense).unwrap();
            let got = run(12, |o| layer.forward(&input, o));
            assert_eq!(bits_of(&got), bits_of(want.as_slice()), "bank {bank} k {k}");
        }
    }

    #[test]
    fn fc_kernel_dispatch_is_consistent() {
        let w = rand_w(16, 8, 9);
        let mask = cs_sparsity::structured::two_four_mask(&w).unwrap();
        let fmt = FcLayerFormat::BankBalanced(
            crate::format::BankBalancedFcLayer::from_fc("tf", &w, &mask, 4, 2).unwrap(),
        );
        let kernel = FcKernel::compile(&fmt);
        assert_eq!(kernel.kind(), "two_four");
        assert_eq!(kernel.kind(), fmt.kind());
        assert_eq!(kernel.n_in(), 16);
        assert_eq!(kernel.n_out(), 8);
        assert_eq!(kernel.density(), 0.5);
        let input: Vec<f32> = (0..16).map(|i| (i as f32 * 0.3).cos()).collect();
        // The kernel and the format densify to the same matrix, and the
        // shared-index bridge decodes the same values.
        let kd = kernel.to_dense();
        let fd = match &fmt {
            FcLayerFormat::BankBalanced(l) => l.to_dense(),
            _ => unreachable!(),
        };
        assert_eq!(bits_of(kd.as_slice()), bits_of(fd.as_slice()));
        let shared = fmt.to_shared();
        let bridge = CompiledFcLayer::from_shared(&shared);
        assert_eq!(
            bits_of(&run(8, |o| kernel.forward(&input, o))),
            bits_of(&run(8, |o| bridge.forward(&input, o)))
        );
    }

    #[test]
    fn to_dense_roundtrips_through_conv_lowering() {
        let w = local_convergence(
            Shape::d4(2, 16, 3, 3),
            &ConvergenceProfile::with_target_density(0.5),
            5,
        );
        let cfg = CoarseConfig::conv(1, 16, 1, 1, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, 0.5).unwrap();
        let geom = Conv2dGeometry::square(3, 1, 0);
        let layer = CompiledConvLayer::compile_conv("conv", &w, &mask, 16, 8, geom).unwrap();
        let dense4 = layer.to_dense();
        assert_eq!(dense4.shape(), &Shape::d4(2, 16, 3, 3));
        // Lowering the 4-D densification reproduces the lowered matrix.
        let lowered = layer.to_dense_lowered();
        let lv = lowered.as_slice();
        for f in 0..2 {
            for fo in 0..16 {
                for x in 0..3 {
                    for y in 0..3 {
                        let p = (f * 3 + x) * 3 + y;
                        assert_eq!(dense4.get(&[f, fo, x, y]), lv[p * 16 + fo]);
                    }
                }
            }
        }
    }

    /// Inputs exercising every skip-eligibility edge: whole blocks of
    /// exact `+0.0`, plus `-0.0` / NaN / inf poison that must defeat
    /// the gate without changing the output bits.
    fn gate_test_inputs(n: usize) -> Vec<(&'static str, Vec<f32>)> {
        let striped: Vec<f32> = (0..n)
            .map(|i| {
                if (i / 8) % 2 == 0 {
                    0.0
                } else {
                    (i as f32 * 0.29).sin()
                }
            })
            .collect();
        let mut neg_zero = striped.clone();
        neg_zero[0] = -0.0;
        let mut nan = striped.clone();
        nan[3] = f32::NAN;
        let mut inf = striped.clone();
        inf[5] = f32::NEG_INFINITY;
        let all_zero = vec![0.0f32; n];
        vec![
            ("zero_striped", striped),
            ("neg_zero_poison", neg_zero),
            ("nan_poison", nan),
            ("inf_poison", inf),
            ("all_zero", all_zero),
        ]
    }

    /// `n` inputs of which exactly `active` (spread by a seeded
    /// stride) are nonzero and the rest bit-exact `+0.0`.
    fn sparse_input(n: usize, active: usize, seed: u64) -> Vec<f32> {
        let mut x = vec![0.0f32; n];
        let step = [1usize, 3, 5, 7, 11, 13]
            .into_iter()
            .find(|s| !n.is_multiple_of(*s))
            .unwrap_or(1);
        for k in 0..active {
            let i = (k * step + seed as usize) % n;
            x[i] = ((i as f32) * 0.41 + seed as f32).sin() + 1.5;
        }
        x
    }

    /// Input families for the walks: active shares of 0, about 3 %, one
    /// below, at and one above the active-walk threshold, and 100 %;
    /// the same sparse input poisoned with `-0.0`, NaN or inf, which
    /// are never skipped; and block-striped inputs with whole 8-input
    /// runs of `+0.0`.
    fn walk_inputs(n: usize, seed: u64) -> Vec<(String, Vec<f32>)> {
        let at = (ACTIVE_WALK_MAX_SHARE * n as f64) as usize;
        let mut families: Vec<(String, Vec<f32>)> =
            [0, n.div_ceil(32), at.saturating_sub(1), at, at + 1, n]
                .into_iter()
                .map(|a| {
                    (
                        format!("{a} of {n} active"),
                        sparse_input(n, a.min(n), seed),
                    )
                })
                .collect();
        let sparse = sparse_input(n, n.div_ceil(32), seed);
        for (name, i, v) in [
            ("-0.0", 1, -0.0f32),
            ("nan", 2, f32::NAN),
            ("inf", 4, f32::INFINITY),
        ] {
            let mut x = sparse.clone();
            x[i % n] = v;
            families.push((format!("{name} poison"), x));
        }
        families.extend(
            gate_test_inputs(n)
                .into_iter()
                .map(|(name, x)| (name.to_string(), x)),
        );
        families
    }

    /// Each family's batch of `b` columns (rotations of the family
    /// input, so the tile's union differs from every column's bits, and
    /// column 0 alone zero at the first input the others keep) through
    /// the gated kernel on `body`: every column must carry the bits of
    /// its ungated single-column run, and on finite columns the dense
    /// reference's; its counters must count its `+0.0` inputs.
    fn check_gated_batches(layer: &CompiledFcLayer, b: usize, body: Body, seed: u64) {
        let (n_in, n_out) = (layer.n_in, layer.n_out);
        let dense = layer.to_dense();
        for (name, x) in walk_inputs(n_in, seed) {
            let mut columns: Vec<Vec<f32>> = (0..b)
                .map(|j| {
                    let mut c = x.clone();
                    c.rotate_left(j % n_in);
                    c
                })
                .collect();
            if let Some(first) = (b > 1)
                .then(|| x.iter().position(|v| v.to_bits() != 0))
                .flatten()
            {
                columns[0] = x.clone();
                columns[0][first] = 0.0;
                for c in &mut columns[1..] {
                    c[first] = 2.5;
                }
            }
            let mut outs = vec![f32::NAN; b * n_out];
            let mut scratch = BatchScratch::default();
            let stats = layer
                .forward_batch_on(&columns.concat(), &mut outs, &mut scratch, true, body)
                .to_vec();
            for (j, col) in columns.iter().enumerate() {
                let got = &outs[j * n_out..(j + 1) * n_out];
                let mut alone = vec![0.0f32; n_out];
                layer.forward_batch_on(col, &mut alone, &mut BatchScratch::default(), false, body);
                let finite = col.iter().all(|v| v.is_finite());
                assert!(
                    same_bits(got, &alone, !finite),
                    "{name}, column {j} of {b}, {body:?}"
                );
                let zeros = col.iter().filter(|v| v.to_bits() == 0).count();
                assert_eq!(stats[j].zero_blocks, zeros, "{name}, column {j}");
                assert_eq!(stats[j].blocks, n_in);
                if finite {
                    let xt = Tensor::from_vec(Shape::d2(1, n_in), col.clone()).unwrap();
                    let want = ops::matmul(&xt, &dense).unwrap();
                    assert!(
                        same_bits(got, want.as_slice(), false),
                        "{name}, column {j} vs dense"
                    );
                }
            }
        }
    }

    /// Whether some adjacent strips of the layer walk as a pair.
    fn has_pairs(layer: &CompiledFcLayer) -> bool {
        layer
            .strips
            .windows(2)
            .any(|w| Arc::ptr_eq(&w[0].runs, &w[1].runs))
    }

    #[test]
    fn gated_fc_is_bit_identical_across_block_sizes_and_poisons() {
        // 16 × 16 pruning blocks give every 16-wide group its own runs;
        // 32 × 32 blocks make every pair of groups share theirs (the
        // fc6/fc7 geometry), so both walks run.
        for block in [16usize, 32] {
            let (w, mask) = fc_layer(96, 64, block, 0.5);
            let layer = CompiledFcLayer::compile_fc("fc", &w, &mask, 16, 4).unwrap();
            assert_eq!(has_pairs(&layer), block > 16, "block {block}");
            for b in 1..=COLUMN_TILE + 1 {
                for body in BODIES.into_iter().filter(|b| b.runs_here()) {
                    check_gated_batches(&layer, b, body, block as u64);
                }
            }
        }
    }

    #[test]
    fn gated_fc_skips_only_exact_zero_blocks() {
        let (w, mask) = fc_layer(64, 32, 16, 0.5);
        let layer =
            FcKernel::BlockCsr(CompiledFcLayer::compile_fc("fc", &w, &mask, 16, 8).unwrap());

        // The gate counts single inputs: half of the striped input is
        // exact `+0.0`.
        let inputs = gate_test_inputs(64);
        let (_, stats) = gated(&layer, &inputs[0].1);
        assert_eq!(stats.zero_blocks, 32, "every even-indexed 8-block is zero");

        // -0.0 / NaN / inf in an otherwise-zero position stay active.
        for idx in [1usize, 2, 3] {
            let (_, stats) = gated(&layer, &inputs[idx].1);
            assert_eq!(stats.zero_blocks, 31, "{} defeats the gate", inputs[idx].0);
        }

        let (_, stats) = gated(&layer, &inputs[4].1);
        assert_eq!(stats.zero_blocks, 64);
        assert!((stats.skip_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gated_structured_is_bit_identical_for_avx2_and_scalar_banks() {
        // Banks 4/8/16 hit the AVX2 shuffle path on x86_64; 6 and the
        // 2:4 tail exercise the scalar kernel.
        let w = rand_w(67, 21, 7);
        for bank in [4usize, 6, 8, 16] {
            let kernel = bank_balanced(&w, bank, bank / 2);
            let kind = kernel.kind();
            for (name, input) in gate_test_inputs(67) {
                let ungated = run(21, |o| kernel.forward(&input, o));
                let (out, stats) = gated(&kernel, &input);
                assert_eq!(
                    bits_of(&ungated),
                    bits_of(&out),
                    "{kind} bank {bank} {name}"
                );
                assert_eq!(stats.blocks, 67, "{kind} {name}");
            }
        }
    }

    /// A block-CSR layer with hand-rolled coarse structure: every
    /// (`block_in` inputs × 16-lane strip) block survives with
    /// probability ~0.4, except strip 1, which is pruned outright
    /// (a zero-survivor strip). `n_out` need not be a multiple of 16.
    fn random_block_layer(
        n_in: usize,
        n_out: usize,
        block_in: usize,
        quant_bits: u8,
        seed: u64,
    ) -> CompiledFcLayer {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x >> 33
        };
        let strips = n_out.div_ceil(16);
        let blocks = n_in.div_ceil(block_in);
        let keep: Vec<bool> = (0..blocks * strips)
            .map(|k| k % strips != 1 && next() % 5 < 2)
            .collect();
        let bits = (0..n_in * n_out)
            .map(|e| keep[(e / n_out / block_in) * strips + (e % n_out) / 16])
            .collect();
        let mask = Mask::from_bits(Shape::d2(n_in, n_out), bits).unwrap();
        CompiledFcLayer::compile_fc("prop", &rand_w(n_in, n_out, seed), &mask, 16, quant_bits)
            .unwrap()
    }

    /// One batch column: whole 8-blocks of exact `+0.0` between blocks
    /// of values with scattered single zeros.
    fn column_input(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                let h = (seed ^ (i as u64 / 8)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
                if h < 8 || i % 5 == 0 {
                    0.0
                } else {
                    ((i as f32) * 0.37 + seed as f32).sin()
                }
            })
            .collect()
    }

    /// `to_bits` equality, identifying NaN encodings on `lenient`
    /// columns only (two NaN payloads meeting in one add may keep
    /// either, and differently-unrolled builds of one loop may differ
    /// there; everything else is exact).
    fn same_bits(a: &[f32], b: &[f32], lenient: bool) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.to_bits() == y.to_bits() || (lenient && x.is_nan() && y.is_nan()))
    }

    /// Every lookup body, fastest first.
    const BODIES: [Body; 3] = [Body::Avx512, Body::Avx2, Body::Portable];

    /// A shared-index layer built by hand in 16-lane groups: input `i`
    /// survives in group `g` when `keep(i, g)`, group `g` has a codebook
    /// of exactly `entries(g)` random values, and its random indices
    /// include its first and last slot.
    fn hand_layer(
        n_in: usize,
        n_out: usize,
        seed: u64,
        keep: impl Fn(usize, usize) -> bool,
        entries: impl Fn(usize) -> usize,
    ) -> SharedIndexLayer {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = move || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x >> 33
        };
        let groups = (0..n_out.div_ceil(16))
            .map(|g| {
                let (width, k) = (16.min(n_out - g * 16), entries(g));
                let index: Vec<bool> = (0..n_in).map(|i| keep(i, g)).collect();
                let survivors = index.iter().filter(|b| **b).count();
                let centroids = (0..k)
                    .map(|_| next() as f32 / (1u64 << 31) as f32 - 0.5)
                    .collect();
                let mut weights: Vec<Vec<u16>> = (0..width)
                    .map(|_| (0..survivors).map(|_| (next() % k as u64) as u16).collect())
                    .collect();
                if survivors > 0 {
                    weights[0][0] = (k - 1) as u16;
                    weights[width - 1][survivors - 1] = 0;
                }
                OutputGroup {
                    index,
                    weights,
                    codebook: cs_quant::Codebook::new(centroids),
                }
            })
            .collect();
        SharedIndexLayer {
            name: "hand".into(),
            n_in,
            n_out,
            group_size: 16,
            quant_bits: 12,
            groups,
        }
    }

    /// Blocks of four inputs, two in three kept; group `g`'s codebook
    /// has `sizes[g % sizes.len()]` entries. Paired, groups `2k` and
    /// `2k + 1` keep the same inputs, so they share their runs.
    fn codebook_layer(
        n_in: usize,
        n_out: usize,
        sizes: &[usize],
        seed: u64,
        paired: bool,
    ) -> SharedIndexLayer {
        let keep = move |i: usize, g: usize| {
            let g = if paired { g / 2 } else { g };
            !(i / 4 + g).is_multiple_of(3)
        };
        hand_layer(n_in, n_out, seed, keep, |g| sizes[g % sizes.len()])
    }

    #[test]
    fn every_lookup_body_matches_the_dense_reference_at_every_codebook_width() {
        const SIZES: [usize; 7] = [1, 2, 16, 17, 64, 65, 4096];
        let (n_in, n_out) = (40, 500);
        let mut layers: Vec<(String, SharedIndexLayer)> = Vec::new();
        for paired in [false, true] {
            for &k in &SIZES {
                layers.push((
                    format!("{k} entries, paired {paired}"),
                    codebook_layer(n_in, n_out, &[k], k as u64, paired),
                ));
            }
            let mixed = codebook_layer(n_in, n_out, &SIZES, 99, paired);
            layers.push((format!("mixed, paired {paired}"), mixed));
        }
        for (name, shared) in &layers {
            let layer = CompiledFcLayer::from_shared(shared);
            let nibbles = shared.groups.iter().all(|g| g.codebook.len() <= 16);
            assert_eq!(
                matches!(layer.strips[0].rows, Rows::Nibbles { .. }),
                nibbles,
                "{name}"
            );
            assert_eq!(has_pairs(&layer), name.ends_with("true"), "{name}");
            let dense = layer.to_dense();
            for b in 1..=COLUMN_TILE + 1 {
                // Block-striped columns, and ~3 %-active ones that take
                // the active-input walk when gated.
                let columns: Vec<Vec<f32>> = (0..b)
                    .map(|j| match j % 2 {
                        0 => column_input(n_in, j as u64 + 3),
                        _ => sparse_input(n_in, 2, j as u64),
                    })
                    .collect();
                let want: Vec<f32> = columns
                    .iter()
                    .flat_map(|x| {
                        let x = Tensor::from_vec(Shape::d2(1, n_in), x.clone()).unwrap();
                        ops::matmul(&x, &dense).unwrap().as_slice().to_vec()
                    })
                    .collect();
                // The storage format's own reference agrees: the rows
                // hold what its indices look up.
                assert_eq!(
                    bits_of(&want[..n_out]),
                    bits_of(&shared.output(&columns[0])),
                    "{name}"
                );
                for gated in [false, true] {
                    for body in BODIES.into_iter().filter(|b| b.runs_here()) {
                        let mut outs = vec![f32::NAN; b * n_out];
                        let mut scratch = BatchScratch::default();
                        layer.forward_batch_on(
                            &columns.concat(),
                            &mut outs,
                            &mut scratch,
                            gated,
                            body,
                        );
                        assert_eq!(
                            bits_of(&outs),
                            bits_of(&want),
                            "{name}, B = {b}, gated {gated}, {body:?}"
                        );
                    }
                }
            }
        }
    }

    /// Bytes of rows one column streams: 8 per nibble row, 64 per
    /// weight row.
    fn row_bytes(layer: &CompiledFcLayer) -> usize {
        layer
            .strips
            .iter()
            .map(|s| match &s.rows {
                Rows::Nibbles { rows, .. } => rows.len() * 8,
                Rows::Weights(w) => w.len() * 4,
            })
            .sum()
    }

    /// With every strip 16 lanes wide, a 4-bit layer holds exactly the
    /// `ceil(surviving × 4 / 8)`-byte dictionary the storage format
    /// counts (an edge strip narrower than 16 lanes would still fill a
    /// whole `u64` per row), and its rows plus LUTs are the `W_q` the
    /// compression pipeline reports.
    #[test]
    fn a_four_bit_lane_holds_the_dictionary_the_ledger_counts() {
        use crate::config::LayerCompressionConfig;
        use crate::pipeline::compress_layer;
        use cs_nn::spec::{LayerSpec, LayerSpecKind};

        let (w, _) = fc_layer(96, 64, 16, 0.25);
        let spec = LayerSpec::new(
            "fc",
            LayerSpecKind::Fc {
                n_in: 96,
                n_out: 64,
            },
        );
        let cfg = LayerCompressionConfig::paper_fc(0.25, 16);
        let (report, _, stored) = compress_layer(&spec, &w, &cfg).unwrap();
        let FcLayerFormat::Shared(shared) = stored else {
            panic!("coarse layers store the shared-index format");
        };
        assert_eq!((shared.quant_bits, shared.group_size), (4, 16));
        let layer = CompiledFcLayer::from_shared(&shared);
        assert!(layer.surviving() > 0);
        assert_eq!(row_bytes(&layer), (layer.surviving() * 4).div_ceil(8));
        assert_eq!(
            row_bytes(&layer) + shared.lut_bytes(),
            shared.weight_bytes()
        );
        assert_eq!(row_bytes(&layer) + shared.lut_bytes(), report.wq_bytes);
    }

    proptest::proptest! {
        /// Batch-composition invariance: column `j` of `forward_batch`
        /// carries the bits `forward` produces on input `j` alone —
        /// and, on finite inputs, the dense reference's — gated and
        /// ungated, on every lookup body the host runs, at every batch
        /// size up to one past a column tile, whatever the codebook
        /// width, and wherever in the batch the column sits. A NaN /
        /// inf / `-0.0` column leaves its neighbours' bits alone and is
        /// never gate-skipped.
        #[test]
        fn batch_columns_match_single_forward_whatever_they_ride_with(
            n_out in proptest::sample::select(vec![10usize, 16, 48, 300, 500]),
            n_in in proptest::sample::select(vec![23usize, 64, 100]),
            block_in in proptest::sample::select(vec![2usize, 8]),
            quant_bits in proptest::sample::select(vec![2u8, 4, 6, 8, 12]),
            b in 1usize..=COLUMN_TILE + 1,
            seed in 0u64..10_000,
            poison in 0usize..4,
        ) {
            let layer = random_block_layer(n_in, n_out, block_in, quant_bits, seed);
            let dense = layer.to_dense();
            let poison_col = (poison > 0).then_some(seed as usize % b);
            let columns: Vec<Vec<f32>> = (0..b)
                .map(|j| match (poison, poison_col == Some(j)) {
                    (1, true) => vec![f32::NAN; n_in],
                    (2, true) => vec![f32::INFINITY; n_in],
                    (3, true) => vec![-0.0f32; n_in],
                    _ => column_input(n_in, seed + j as u64),
                })
                .collect();
            // Rotate-and-reverse: every column moves, most change tile.
            let order: Vec<usize> = (0..b).rev().map(|k| (k + seed as usize) % b).collect();
            let flat = |order: &[usize]| -> Vec<f32> {
                order.iter().flat_map(|&j| columns[j].iter().copied()).collect()
            };
            let identity: Vec<usize> = (0..b).collect();
            let mut scratch = BatchScratch::default();
            for gated in [false, true] {
                for body in BODIES.into_iter().filter(|b| b.runs_here()) {
                    for order in [&identity, &order] {
                        let mut outs = vec![f32::NAN; b * n_out];
                        let stats = layer
                            .forward_batch_on(&flat(order), &mut outs, &mut scratch, gated, body)
                            .to_vec();
                        prop_assert_eq!(stats.len(), if gated { b } else { 0 });
                        for (k, &j) in order.iter().enumerate() {
                            let got = &outs[k * n_out..(k + 1) * n_out];
                            let non_finite = poison_col == Some(j) && poison < 3;
                            let mut alone = vec![0.0f32; n_out];
                            let mut one = BatchScratch::default();
                            if gated {
                                let s = layer.forward_batch(&columns[j], &mut alone, &mut one, true)[0];
                                prop_assert_eq!(stats[k], s);
                                if poison_col == Some(j) {
                                    prop_assert_eq!(s.zero_blocks, 0, "poison column skipped");
                                }
                            } else {
                                layer.forward(&columns[j], &mut alone);
                            }
                            prop_assert!(
                                same_bits(got, &alone, non_finite),
                                "column {} at slot {} of {} (gated {}, {:?})",
                                j, k, b, gated, body
                            );
                            if !non_finite {
                                let x = Tensor::from_vec(Shape::d2(1, n_in), columns[j].clone()).unwrap();
                                let want = ops::matmul(&x, &dense).unwrap();
                                prop_assert!(same_bits(got, want.as_slice(), false), "column {} vs dense", j);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fc_kernel_gated_dispatch_and_planning() {
        // Every kernel kind runs gated through the one entry, and its
        // walk is planned per call from the input alone: a spike-like
        // input takes the active walk, a dense one the full walk, and
        // both match the ungated kernel bit for bit.
        let w = rand_w(128, 64, 11);
        let (tf, bb) = (bank_balanced(&w, 4, 2), bank_balanced(&w, 8, 2));
        let (cw, cmask) = fc_layer(128, 64, 32, 0.25);
        let csr =
            FcKernel::BlockCsr(CompiledFcLayer::compile_fc("fc", &cw, &cmask, 16, 4).unwrap());
        for kernel in [&tf, &bb, &csr] {
            let mut inputs = gate_test_inputs(128);
            inputs.push(("spike", sparse_input(128, 4, 1)));
            inputs.push(("dense", sparse_input(128, 128, 1)));
            for (name, input) in inputs {
                let ungated = run(64, |o| kernel.forward(&input, o));
                let (out, stats) = gated(kernel, &input);
                assert_eq!(bits_of(&ungated), bits_of(&out), "{} {name}", kernel.kind());
                let active = input.iter().filter(|v| v.to_bits() != 0).count();
                assert_eq!(stats.occupied_blocks(), active, "{} {name}", kernel.kind());
            }
        }
    }
}
