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
//! * each strip stores its weights once, as pre-decoded `f32` values in
//!   input-major order — what the hot loop reads. The `u16` codebook
//!   indices the WDM would hold stay in the storage format.
//!
//! # Dense-vs-sparse equivalence contract
//!
//! On **finite** inputs, [`CompiledFcLayer::forward`] is bit-identical to
//! the dense reference `ops::matmul(x, self.to_dense())` (plus the same
//! bias addition). Two facts make this exact rather than approximate:
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
//! # Activation gating
//!
//! Every kernel also has a *gated* twin (`forward_gated*`) that skips
//! work across the **input** dimension: a [`PrescanBitmap`] proves
//! which input blocks are entirely bit-exact `+0.0`, and the gated
//! inner loops skip whole block-CSR run segments, im2col patch rows,
//! or structured survivor groups covered by a proven-zero block. The
//! skipped terms are exactly `+0.0 * w = ±0.0` for the engine's finite
//! weights, which is bit-neutral by the same argument as fact 2 above
//! — so the gated kernels stay inside the bit-identity contract.
//! `-0.0`, NaN, and inf inputs are never skipped (see the
//! [`crate::gate`] module docs for the eligibility rule).
//!
//! # Batched execution
//!
//! The block-CSR format has one inner loop, a `strip × B columns` tile
//! ([`CompiledFcLayer::forward_batch`]): the strip's `T_n = 16` lanes
//! times up to [`COLUMN_TILE`] batch columns accumulate in locals
//! (sixteen `ymm` registers under the runtime-detected AVX2 entry),
//! and each weight row is loaded once and applied to every column —
//! the neuron/synapse reuse the shared index exists for, with the
//! batch column as the reuse axis. `forward` and `forward_gated` are
//! the `B = 1` call of the same loop.
//!
//! Every column is its own accumulator row, fed its own inputs in
//! ascending input order with a separate multiply and add (never FMA),
//! so a column's bits do not depend on what it is batched with, on its
//! position in the batch, or on how a wide batch is cut into tiles —
//! each stays bit-identical to the dense reference. Gating is prescanned
//! per column; a tile skips a block only when *every* column of the
//! tile proved it `+0.0`, and otherwise multiplies the zero columns
//! through, which is bit-neutral by the argument above.

use cs_sparsity::Mask;
use cs_tensor::ops::{self, Conv2dGeometry};
use cs_tensor::{Shape, Tensor, TensorError};

use crate::format::{BankBalancedFcLayer, FcLayerFormat, SharedIndexLayer, TwoFourFcLayer};
use crate::gate::{self, GatePlan, GatePolicy, GateStats, PrescanBitmap};
use crate::CompressError;

/// Batch columns one tile of the block-CSR kernel carries: 8 columns ×
/// 16 lanes fill the sixteen `ymm` accumulators AVX2 has. Wider batches
/// run as consecutive tiles.
pub const COLUMN_TILE: usize = 8;

/// Output lanes per accumulator row — the paper's `T_n`, two `ymm`
/// registers. Wider strips are walked in chunks of this many lanes.
const LANES: usize = 16;

/// The occupancy one column tile runs under: bit `g` of `words` clear
/// means every column of the tile proved input block `g` all-`+0.0`.
#[derive(Clone, Copy)]
struct TileGate<'a> {
    block: usize,
    words: &'a [u64],
}

impl<'a> TileGate<'a> {
    /// No gate: a single unbounded block that is always occupied, so
    /// every run is one segment and the loop below is the ungated one.
    const OPEN: TileGate<'static> = TileGate {
        block: usize::MAX,
        words: &[],
    };

    /// The gate of a single column, or [`Self::OPEN`] when its prescan
    /// found nothing to skip.
    fn of(bitmap: &'a PrescanBitmap) -> Self {
        if bitmap.all_occupied() {
            return TileGate::OPEN;
        }
        TileGate {
            block: bitmap.block(),
            words: bitmap.words(),
        }
    }

    /// Blocks the prescan did not cover report occupied — the gate may
    /// only skip what was proven zero.
    #[inline(always)]
    fn occupied(&self, g: usize) -> bool {
        self.words
            .get(g / 64)
            .is_none_or(|w| w & (1u64 << (g % 64)) != 0)
    }
}

/// Where one column tile reads and writes. `xt` is the tile's inputs
/// transposed to input-major (`xt[i * B + j]` is input `i` of column
/// `j`); column `j`'s output lane `o` lands at
/// `outs[j * stride + o - base]`.
struct TileIo<'a> {
    xt: &'a [f32],
    gate: TileGate<'a>,
    outs: &'a mut [f32],
    stride: usize,
    base: usize,
}

/// One strip of `strip_width` (or fewer, at the edge) output lanes
/// sharing a synapse index, compiled for execution.
#[derive(Debug, Clone, PartialEq)]
pub struct FcStrip {
    /// First output lane of the strip.
    pub out_start: usize,
    /// One past the last output lane.
    pub out_end: usize,
    /// Surviving input positions as `[start, end)` runs, ascending.
    pub runs: Vec<(u32, u32)>,
    /// Pre-decoded weights, input-major: `values[pos * width + lane]`
    /// for the `pos`-th surviving input.
    pub values: Vec<f32>,
    /// Number of surviving input positions.
    pub survivors: usize,
}

impl FcStrip {
    fn width(&self) -> usize {
        self.out_end - self.out_start
    }

    /// The kernel: lanes `lane0..lane0 + lanes` of this strip times the
    /// `B` columns of one tile, accumulated in locals. Each weight row
    /// is read once and applied to every column; per column the terms
    /// add in ascending input order, multiply and add kept separate.
    /// Run segments under a block the whole tile proved `+0.0` advance
    /// `pos` without touching the accumulators: the dropped terms are
    /// `+0.0 * w = ±0.0` into sums that can never be `-0.0`.
    ///
    /// Inlined into every caller so that the full-width call
    /// (`lanes == LANES`) unrolls into register-resident accumulators
    /// and edge strips reuse the same body with a runtime width.
    #[inline(always)]
    fn accumulate_tile<const B: usize>(
        &self,
        lane0: usize,
        lanes: usize,
        xt: &[f32],
        gate: TileGate<'_>,
    ) -> [[f32; LANES]; B] {
        let width = self.width();
        let mut acc = [[0.0f32; LANES]; B];
        let mut pos = 0usize;
        for &(s, e) in &self.runs {
            let (mut i, e) = (s as usize, e as usize);
            let mut g = i / gate.block;
            while i < e {
                let seg_end = e.min((g + 1).saturating_mul(gate.block));
                if gate.occupied(g) {
                    for x in xt[i * B..seg_end * B].chunks_exact(B) {
                        let row = &self.values[pos * width + lane0..][..lanes];
                        for (a, &xj) in acc.iter_mut().zip(x) {
                            for (al, &w) in a[..lanes].iter_mut().zip(row) {
                                *al += xj * w;
                            }
                        }
                        pos += 1;
                    }
                } else {
                    pos += seg_end - i;
                }
                i = seg_end;
                g += 1;
            }
        }
        acc
    }
}

/// Runs `strips` over one `B`-column tile and stores `acc + bias`.
#[inline(always)]
fn run_strips<const B: usize>(strips: &[FcStrip], bias: Option<&[f32]>, io: &mut TileIo<'_>) {
    for strip in strips {
        let width = strip.width();
        debug_assert_eq!(strip.values.len(), strip.survivors * width);
        for lane0 in (0..width).step_by(LANES) {
            let lanes = LANES.min(width - lane0);
            // The same call twice: the literal lets the inlined body
            // unroll its lane loop for the full-width case.
            let acc = if lanes == LANES {
                strip.accumulate_tile::<B>(lane0, LANES, io.xt, io.gate)
            } else {
                strip.accumulate_tile::<B>(lane0, lanes, io.xt, io.gate)
            };
            let first = strip.out_start + lane0;
            for (j, a) in acc.iter().enumerate() {
                let out = &mut io.outs[j * io.stride + first - io.base..][..lanes];
                match bias {
                    Some(bias) => {
                        for ((o, a), b) in out.iter_mut().zip(a).zip(&bias[first..]) {
                            *o = *a + *b;
                        }
                    }
                    None => out.copy_from_slice(&a[..lanes]),
                }
            }
        }
    }
}

/// Picks the const column count for a tile of `bt <= COLUMN_TILE`.
#[inline(always)]
fn run_tile_body(strips: &[FcStrip], bias: Option<&[f32]>, bt: usize, io: &mut TileIo<'_>) {
    match bt {
        1 => run_strips::<1>(strips, bias, io),
        2 => run_strips::<2>(strips, bias, io),
        3 => run_strips::<3>(strips, bias, io),
        4 => run_strips::<4>(strips, bias, io),
        5 => run_strips::<5>(strips, bias, io),
        6 => run_strips::<6>(strips, bias, io),
        7 => run_strips::<7>(strips, bias, io),
        8 => run_strips::<8>(strips, bias, io),
        _ => unreachable!("column tile wider than COLUMN_TILE"),
    }
}

/// [`run_tile_body`] compiled with AVX2 enabled: the same safe code,
/// vectorized to two `ymm` operations per accumulator row.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_tile_avx2(strips: &[FcStrip], bias: Option<&[f32]>, bt: usize, io: &mut TileIo<'_>) {
    run_tile_body(strips, bias, bt, io);
}

/// Reusable buffers for [`FcKernel::forward_batch`]: the transposed
/// tile, the per-column occupancy words and their per-tile union, and
/// the per-column gate counters. One per serving worker; nothing is
/// allocated once the buffers have grown to the largest layer.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    xt: Vec<f32>,
    words: Vec<u64>,
    tile_words: Vec<u64>,
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
    /// Optional per-output bias, added after accumulation exactly like
    /// the dense pipeline's element-wise add.
    pub bias: Option<Vec<f32>>,
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

    /// Compiles an existing shared-index layer. Infallible: the storage
    /// format already carries everything the engine needs.
    pub fn from_shared(layer: &SharedIndexLayer) -> Self {
        let mut strips = Vec::with_capacity(layer.groups.len());
        let mut out_start = 0usize;
        for g in &layer.groups {
            let width = g.weights.len();
            let out_end = out_start + width;
            let survivors = g.survivors();
            let runs = runs_from_index(&g.index);
            // Transpose the group's output-major lanes to input-major,
            // decoding through the group's codebook on the way.
            let mut values = vec![0.0f32; survivors * width];
            for (lane, lw) in g.weights.iter().enumerate() {
                for (pos, &idx) in lw.iter().enumerate() {
                    values[pos * width + lane] = g.codebook.value(idx);
                }
            }
            strips.push(FcStrip {
                out_start,
                out_end,
                runs,
                values,
                survivors,
            });
            out_start = out_end;
        }
        CompiledFcLayer {
            name: layer.name.clone(),
            n_in: layer.n_in,
            n_out: layer.n_out,
            strip_width: layer.group_size,
            strips,
            bias: None,
        }
    }

    /// Attaches a per-output bias.
    ///
    /// # Panics
    ///
    /// Panics when `bias.len() != n_out`.
    #[must_use]
    pub fn with_bias(mut self, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), self.n_out, "bias length mismatch");
        self.bias = Some(bias);
        self
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

    /// Sparse forward pass: `out = x · W_sparse (+ bias)` — the `B = 1`
    /// call of the batched kernel.
    ///
    /// Bit-identical to `ops::matmul` against [`Self::to_dense`] on
    /// finite inputs (see the module docs for the argument).
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree with `n_in` / `n_out`.
    pub fn forward(&self, input: &[f32], out: &mut [f32]) {
        self.forward_one(input, out, TileGate::OPEN);
    }

    /// Allocating convenience wrapper around [`Self::forward`].
    pub fn forward_alloc(&self, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n_out];
        self.forward(input, &mut out);
        out
    }

    /// Parallel [`Self::forward`]: strips write disjoint output windows,
    /// so they fan out over the pool; per-strip arithmetic is unchanged
    /// and the result is bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_pooled(&self, input: &[f32], out: &mut [f32], pool: &cs_parallel::ThreadPool) {
        self.forward_one_pooled(input, out, TileGate::OPEN, pool);
    }

    /// Gated [`Self::forward`]: prescans the input at `plan.block`
    /// elements per occupancy bit and skips run segments whose block is
    /// entirely bit-exact `+0.0`. Bit-identical to the ungated kernel
    /// (and therefore to the dense reference) — see the module docs.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_gated(&self, input: &[f32], out: &mut [f32], plan: &GatePlan) -> GateStats {
        let bm = PrescanBitmap::scan(input, plan.block);
        self.forward_one(input, out, TileGate::of(&bm));
        bm.stats()
    }

    /// Parallel [`Self::forward_gated`]: one serial prescan, then the
    /// strips fan out exactly like [`Self::forward_pooled`]. The stats
    /// come from the bitmap alone, so they are identical at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_gated_pooled(
        &self,
        input: &[f32],
        out: &mut [f32],
        plan: &GatePlan,
        pool: &cs_parallel::ThreadPool,
    ) -> GateStats {
        let bm = PrescanBitmap::scan(input, plan.block);
        self.forward_one_pooled(input, out, TileGate::of(&bm), pool);
        bm.stats()
    }

    /// Runs strips `strips` over one tile of `bt` columns on the best
    /// path the host has. `portable` forces the generic build of the
    /// same body (what non-AVX2 hosts run), so tests can hold the two
    /// to the same bits.
    fn run_tile(
        &self,
        strips: std::ops::Range<usize>,
        bt: usize,
        mut io: TileIo<'_>,
        portable: bool,
    ) {
        debug_assert_eq!(io.xt.len(), self.n_in * bt);
        debug_assert_eq!(io.outs.len(), bt * io.stride);
        let (strips, bias) = (&self.strips[strips], self.bias.as_deref());
        #[cfg(target_arch = "x86_64")]
        if !portable && std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `run_tile_avx2` is safe code whose only
            // requirement is the `avx2` target feature, verified on
            // this CPU on the line above; every slice access inside is
            // bounds-checked against the lengths the safe callers
            // established (asserted above in debug builds).
            unsafe { run_tile_avx2(strips, bias, bt, &mut io) };
            return;
        }
        let _ = portable; // only read on x86-64
        run_tile_body(strips, bias, bt, &mut io);
    }

    /// One column through the tile kernel: a single input is its own
    /// transpose, so no scratch is needed.
    fn forward_one(&self, input: &[f32], out: &mut [f32], gate: TileGate<'_>) {
        assert_eq!(input.len(), self.n_in, "input length mismatch");
        assert_eq!(out.len(), self.n_out, "output length mismatch");
        let io = TileIo {
            xt: input,
            gate,
            outs: out,
            stride: self.n_out,
            base: 0,
        };
        self.run_tile(0..self.strips.len(), 1, io, false);
    }

    fn forward_one_pooled(
        &self,
        input: &[f32],
        out: &mut [f32],
        gate: TileGate<'_>,
        pool: &cs_parallel::ThreadPool,
    ) {
        assert_eq!(input.len(), self.n_in, "input length mismatch");
        assert_eq!(out.len(), self.n_out, "output length mismatch");
        if self.strips.is_empty() {
            out.fill(0.0);
            return;
        }
        pool.parallel_chunks_mut(out, self.strip_width.max(1), |si, window| {
            let io = TileIo {
                xt: input,
                gate,
                stride: window.len(),
                outs: window,
                base: self.strips[si].out_start,
            };
            self.run_tile(si..si + 1, 1, io, false);
        });
    }

    /// The whole batch as one sparse-W × dense-B product: `inputs` holds
    /// `B` input vectors back to back, `outs` receives `B × n_out`, and
    /// every strip's weights stream once per [`COLUMN_TILE`] columns.
    /// Column `j` of the result is bit-identical to [`Self::forward`]
    /// on input `j` alone, whatever it is batched with.
    ///
    /// With a `plan`, every column is prescanned on its own and the
    /// returned slice holds one [`GateStats`] per column (empty when
    /// ungated); a tile skips the blocks all of its columns proved
    /// `+0.0`.
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
        plan: Option<&GatePlan>,
    ) -> &'s [GateStats] {
        self.forward_batch_on(inputs, outs, scratch, plan, false)
    }

    fn forward_batch_on<'s>(
        &self,
        inputs: &[f32],
        outs: &mut [f32],
        scratch: &'s mut BatchScratch,
        plan: Option<&GatePlan>,
        portable: bool,
    ) -> &'s [GateStats] {
        let (n_in, n_out) = (self.n_in, self.n_out);
        let b = inputs.len() / n_in.max(1);
        assert_eq!(inputs.len(), b * n_in, "batch input length mismatch");
        assert_eq!(outs.len(), b * n_out, "batch output length mismatch");
        let BatchScratch {
            xt,
            words,
            tile_words,
            stats,
        } = scratch;
        stats.clear();
        let block = plan.map_or(1, |p| p.block.max(1));
        let per_col = gate::scan_words(n_in, block);
        if plan.is_some() {
            words.resize(b * per_col, 0);
            for j in 0..b {
                let x = &inputs[j * n_in..(j + 1) * n_in];
                let w = &mut words[j * per_col..(j + 1) * per_col];
                stats.push(gate::scan_into(x, block, w));
            }
        }
        for col0 in (0..b).step_by(COLUMN_TILE) {
            let bt = COLUMN_TILE.min(b - col0);
            let tile_in = &inputs[col0 * n_in..(col0 + bt) * n_in];
            let gate = if plan.is_none() {
                TileGate::OPEN
            } else {
                // A block is skippable for the tile only where every
                // column's bit is clear: union the occupancy.
                tile_words.clear();
                tile_words.resize(per_col, 0);
                for w in words[col0 * per_col..(col0 + bt) * per_col].chunks_exact(per_col) {
                    for (t, w) in tile_words.iter_mut().zip(w) {
                        *t |= *w;
                    }
                }
                let occupied: usize = tile_words.iter().map(|w| w.count_ones() as usize).sum();
                if occupied == stats[col0].blocks {
                    TileGate::OPEN
                } else {
                    TileGate {
                        block,
                        words: tile_words,
                    }
                }
            };
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
                gate,
                outs: &mut outs[col0 * n_out..(col0 + bt) * n_out],
                stride: n_out,
                base: 0,
            };
            self.run_tile(0..self.strips.len(), bt, io, portable);
        }
        stats
    }

    /// Reconstructs the dense `(n_in, n_out)` weight matrix the engine
    /// executes: decoded codebook values at surviving positions, zeros
    /// elsewhere. This is the dense-reference operand of the equivalence
    /// contract.
    pub fn to_dense(&self) -> Tensor {
        let mut dense = vec![0.0f32; self.n_in * self.n_out];
        for strip in &self.strips {
            let width = strip.width();
            let mut pos = 0usize;
            for &(s, e) in &strip.runs {
                for i in s..e {
                    for lane in 0..width {
                        dense[i as usize * self.n_out + strip.out_start + lane] =
                            strip.values[pos * width + lane];
                    }
                    pos += 1;
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
    bias: Option<Vec<f32>>,
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
            bias: None,
        }
    }

    /// Attaches a per-output-map bias.
    ///
    /// # Panics
    ///
    /// Panics when `bias.len() != n_fout`.
    #[must_use]
    pub fn with_bias(mut self, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), self.n_fout, "bias length mismatch");
        self.bias = Some(bias);
        self
    }

    /// The inner block-CSR FC layer over lowered window positions.
    pub fn inner(&self) -> &CompiledFcLayer {
        &self.inner
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
        self.finish_forward(input, &cols, None, None)
    }

    /// Parallel [`Self::forward`], bit-identical to the serial version.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_pooled(
        &self,
        input: &Tensor,
        pool: &cs_parallel::ThreadPool,
    ) -> Result<Tensor, TensorError> {
        let cols = ops::im2col_pooled(input, &self.geom, pool)?;
        self.finish_forward(input, &cols, Some(pool), None)
    }

    /// Gated [`Self::forward`]: every im2col patch row is prescanned
    /// (with early exit on the first non-`+0.0` element) and rows
    /// proven entirely zero skip the inner FC kernel, leaving the
    /// pre-zeroed product row — exactly the bits the ungated kernel
    /// would have produced, since its accumulators would only ever add
    /// `+0.0 * w` terms. The gate granularity is the conv patch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_gated(&self, input: &Tensor) -> Result<(Tensor, GateStats), TensorError> {
        let cols = ops::im2col(input, &self.geom)?;
        let (occ, stats) = self.scan_patches(&cols);
        let out = self.finish_forward(input, &cols, None, Some(&occ))?;
        Ok((out, stats))
    }

    /// Parallel [`Self::forward_gated`]: the patch prescan runs
    /// serially (it is one early-exit sweep over the im2col buffer),
    /// then the product rows fan out like [`Self::forward_pooled`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_gated_pooled(
        &self,
        input: &Tensor,
        pool: &cs_parallel::ThreadPool,
    ) -> Result<(Tensor, GateStats), TensorError> {
        let cols = ops::im2col_pooled(input, &self.geom, pool)?;
        let (occ, stats) = self.scan_patches(&cols);
        let out = self.finish_forward(input, &cols, Some(pool), Some(&occ))?;
        Ok((out, stats))
    }

    /// Per-patch occupancy over the lowered input: row `r` is occupied
    /// iff any element of patch `r` is not bit-exact `+0.0`.
    fn scan_patches(&self, cols: &Tensor) -> (Vec<bool>, GateStats) {
        let n_in = self.inner.n_in;
        let cv = cols.as_slice();
        let positions = cv.len().checked_div(n_in).unwrap_or(0);
        let mut occ = Vec::with_capacity(positions);
        let mut zero_blocks = 0usize;
        for r in 0..positions {
            let occupied = cv[r * n_in..(r + 1) * n_in]
                .iter()
                .any(|v| v.to_bits() != 0);
            if !occupied {
                zero_blocks += 1;
            }
            occ.push(occupied);
        }
        (
            occ,
            GateStats {
                blocks: positions,
                zero_blocks,
            },
        )
    }

    fn finish_forward(
        &self,
        input: &Tensor,
        cols: &Tensor,
        pool: Option<&cs_parallel::ThreadPool>,
        occupancy: Option<&[bool]>,
    ) -> Result<Tensor, TensorError> {
        if input.shape().dim(0) != self.n_fin {
            return Err(TensorError::ShapeMismatch {
                left: input.shape().clone(),
                right: Shape::d2(self.inner.n_in, self.n_fout),
                op: "sparse conv2d",
            });
        }
        let (h, w) = (input.shape().dim(1), input.shape().dim(2));
        let (oh, ow) = self.geom.output_size(h, w)?;
        let positions = oh * ow;
        let n_fout = self.n_fout;
        let n_in = self.inner.n_in;
        let cv = cols.as_slice();
        let mut prod = vec![0.0f32; positions * n_fout];
        // A patch row gated off stays all-zero from the `prod`
        // initialization above — bit-identical to running the inner
        // kernel over an all-`+0.0` patch.
        let run_row = |r: usize| occupancy.is_none_or(|occ| occ[r]);
        match pool {
            Some(p) => {
                let rows_per = p.default_chunk(positions);
                p.parallel_chunks_mut(&mut prod, rows_per * n_fout, |ci, window| {
                    let row0 = ci * rows_per;
                    for (ri, orow) in window.chunks_mut(n_fout).enumerate() {
                        let r = row0 + ri;
                        if run_row(r) {
                            self.inner.forward(&cv[r * n_in..(r + 1) * n_in], orow);
                        }
                    }
                });
            }
            None => {
                for (r, orow) in prod.chunks_mut(n_fout).enumerate() {
                    if run_row(r) {
                        self.inner.forward(&cv[r * n_in..(r + 1) * n_in], orow);
                    }
                }
            }
        }
        // Transpose (oh*ow, n_fout) -> (n_fout, oh, ow), adding bias —
        // the exact element order of the dense conv2d epilogue.
        let bias = self.bias.as_deref();
        Ok(Tensor::from_fn(Shape::d3(n_fout, oh, ow), |i| {
            let fo = i / (oh * ow);
            let pos = i % (oh * ow);
            let b = bias.map_or(0.0, |bs| bs[fo]);
            prod[pos * n_fout + fo] + b
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

/// Shared layout of the two structured kernels, **group-major**: for
/// every full bank of inputs, one planar row of in-bank byte offsets
/// and one of values per survivor slot, both indexed `[g][j][o]`. Fixed
/// fan-in makes the inner loops branch-free (no run decoding, no
/// per-lane survivor counts), and the group-major order turns the hot
/// loop into sequential streams over `offsets`/`values`/`out` with the
/// bank's input window held in registers.
///
/// Per lane the accumulation order is banks ascending, offsets
/// ascending within a bank — exactly the ascending dense k-order, so
/// outputs are bit-identical to a dense matmul over [`Self::to_dense`]
/// on finite inputs. On x86-64 with AVX2 the per-bank select runs
/// through `vpermvar8x32` lane shuffles (plain `mul`+`add`, never FMA,
/// and the same per-lane term order), so the vector path produces the
/// same bits as the scalar fallback.
#[derive(Debug, Clone, PartialEq)]
struct StructuredLanes {
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
    /// storage format's 2-bit metadata), planar `[g][o]`. Halves the
    /// hot loop's index traffic: one byte load feeds both shuffles.
    packed24: Option<Vec<u8>>,
    bias: Option<Vec<f32>>,
}

impl StructuredLanes {
    fn from_lanes(
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
        StructuredLanes {
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
            bias: None,
        }
    }

    /// Survivors per lane.
    fn stride(&self) -> usize {
        self.full_groups * self.k + self.tail_spg
    }

    /// Accumulates one planar survivor row (`k_row` of bank `g`, or the
    /// tail row) into the output window: `out[oi] += window[off] * v`.
    #[inline]
    fn accumulate_row(window: &[f32], offs: &[u8], vals: &[f32], out: &mut [f32]) {
        for ((slot, off), v) in out.iter_mut().zip(offs).zip(vals) {
            *slot += window[*off as usize] * *v;
        }
    }

    /// Portable forward over `out_start..out_start + out.len()`. With a
    /// gate, survivor groups whose input bank the prescan proved
    /// all-`+0.0` are skipped — bit-neutral for the accumulators (the
    /// dropped terms are `+0.0 * w = ±0.0`), so gated and ungated
    /// outputs are identical.
    fn forward_range_scalar(
        &self,
        input: &[f32],
        out: &mut [f32],
        out_start: usize,
        gate: Option<&PrescanBitmap>,
    ) {
        let len = out.len();
        out.fill(0.0);
        for g in 0..self.full_groups {
            if let Some(bm) = gate {
                if !bm.occupied(g) {
                    continue;
                }
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
        if gate.is_none_or(|bm| bm.occupied(self.full_groups)) {
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
    /// Safety: caller must have verified AVX2 support and
    /// `BANK == self.bank` with `BANK` one of 4, 8, or 16 (so window
    /// loads of full banks stay in bounds and offsets fit the shuffle).
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn forward_range_avx2<const BANK: usize>(
        &self,
        input: &[f32],
        out: &mut [f32],
        out_start: usize,
        gate: Option<&PrescanBitmap>,
    ) {
        let chunks = out.len() / 8;
        // Strips of four 8-lane chunks: 32 accumulator lanes stay in
        // registers across every bank, and each survivor row is read as
        // 128 consecutive bytes (two cache lines) per visit.
        let strips = chunks / 4;
        for s in 0..strips {
            self.avx2_strip::<BANK, 4>(input, out, out_start, s * 4, gate);
        }
        for c in strips * 4..chunks {
            self.avx2_strip::<BANK, 1>(input, out, out_start, c, gate);
        }
        // Remainder lanes (< 8) run the scalar kernel on their window:
        // identical per-lane term order, so the mix stays bit-identical.
        if chunks * 8 < out.len() {
            self.forward_range_scalar(input, &mut out[chunks * 8..], out_start + chunks * 8, gate);
        }
    }

    /// One `U`-chunk strip of the AVX2 forward: chunks
    /// `c0..c0 + U` of the window accumulate across all banks in `U`
    /// register accumulators.
    ///
    /// Safety: same contract as [`Self::forward_range_avx2`], plus
    /// `(c0 + U) * 8 <= out.len()`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn avx2_strip<const BANK: usize, const U: usize>(
        &self,
        input: &[f32],
        out: &mut [f32],
        out_start: usize,
        c0: usize,
        gate: Option<&PrescanBitmap>,
    ) {
        use std::arch::x86_64::*;
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
                if let Some(bm) = gate {
                    if !bm.occupied(g) {
                        continue;
                    }
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
                if let Some(bm) = gate {
                    if !bm.occupied(g) {
                        continue;
                    }
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
        if self.tail_spg > 0 && gate.is_none_or(|bm| bm.occupied(self.full_groups)) {
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

    fn forward_range(
        &self,
        input: &[f32],
        out: &mut [f32],
        out_start: usize,
        gate: Option<&PrescanBitmap>,
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // Safety: AVX2 verified at runtime; the const bank
                // matches self.bank and is a supported shuffle width.
                match self.bank {
                    4 => {
                        unsafe { self.forward_range_avx2::<4>(input, out, out_start, gate) };
                        self.add_bias(out, out_start);
                        return;
                    }
                    8 => {
                        unsafe { self.forward_range_avx2::<8>(input, out, out_start, gate) };
                        self.add_bias(out, out_start);
                        return;
                    }
                    16 => {
                        unsafe { self.forward_range_avx2::<16>(input, out, out_start, gate) };
                        self.add_bias(out, out_start);
                        return;
                    }
                    _ => {}
                }
            }
        }
        self.forward_range_scalar(input, out, out_start, gate);
        self.add_bias(out, out_start);
    }

    fn add_bias(&self, out: &mut [f32], out_start: usize) {
        if let Some(bias) = &self.bias {
            let window = &bias[out_start..out_start + out.len()];
            for (o, b) in out.iter_mut().zip(window) {
                *o += *b;
            }
        }
    }

    fn forward(&self, input: &[f32], out: &mut [f32]) {
        assert_eq!(input.len(), self.n_in, "input length mismatch");
        assert_eq!(out.len(), self.n_out, "output length mismatch");
        self.forward_range(input, out, 0, None);
    }

    /// Parallel forward: lanes are independent pure functions of the
    /// input, so chunking the output is bit-identical at any thread
    /// count.
    fn forward_pooled(&self, input: &[f32], out: &mut [f32], pool: &cs_parallel::ThreadPool) {
        assert_eq!(input.len(), self.n_in, "input length mismatch");
        assert_eq!(out.len(), self.n_out, "output length mismatch");
        let chunk = pool.default_chunk(self.n_out).max(1);
        pool.parallel_chunks_mut(out, chunk, |ci, window| {
            self.forward_range(input, window, ci * chunk, None);
        });
    }

    /// Gated forward: one prescan at the pattern's bank width, then
    /// survivor groups of proven-zero banks are skipped (the tail bank
    /// is block `full_groups`). Falls through to the ungated loops when
    /// no bank is skippable.
    fn forward_gated(&self, input: &[f32], out: &mut [f32]) -> GateStats {
        assert_eq!(input.len(), self.n_in, "input length mismatch");
        assert_eq!(out.len(), self.n_out, "output length mismatch");
        let bm = PrescanBitmap::scan(input, self.bank.max(1));
        let stats = bm.stats();
        let gate = (!bm.all_occupied()).then_some(&bm);
        self.forward_range(input, out, 0, gate);
        stats
    }

    /// Parallel [`Self::forward_gated`]: serial prescan, pooled lanes;
    /// bit-identical at any thread count and the stats come from the
    /// bitmap alone.
    fn forward_gated_pooled(
        &self,
        input: &[f32],
        out: &mut [f32],
        pool: &cs_parallel::ThreadPool,
    ) -> GateStats {
        assert_eq!(input.len(), self.n_in, "input length mismatch");
        assert_eq!(out.len(), self.n_out, "output length mismatch");
        let bm = PrescanBitmap::scan(input, self.bank.max(1));
        let stats = bm.stats();
        let gate = (!bm.all_occupied()).then_some(&bm);
        let chunk = pool.default_chunk(self.n_out).max(1);
        pool.parallel_chunks_mut(out, chunk, |ci, window| {
            self.forward_range(input, window, ci * chunk, gate);
        });
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

/// The 2:4 layer compiled for execution: every lane reads exactly
/// `n_in / 2` (position, value) pairs, unpacked once from the 2-bit
/// metadata at compile time. The hot loop is a flat gather over that
/// fixed fan-in — no branches, no run decoding, no per-lane counts.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTwoFourFc {
    /// Layer name.
    pub name: String,
    lanes: StructuredLanes,
}

impl CompiledTwoFourFc {
    /// Compiles the packed storage format.
    pub fn from_format(layer: &TwoFourFcLayer) -> Self {
        CompiledTwoFourFc {
            name: layer.name.clone(),
            lanes: StructuredLanes::from_lanes(
                layer.n_in,
                layer.n_out,
                4,
                2,
                |o| layer.lane_positions(o),
                |o| layer.lane_values(o).to_vec(),
            ),
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.lanes.n_in
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.lanes.n_out
    }

    /// Exact pattern density.
    pub fn density(&self) -> f64 {
        if self.lanes.n_in == 0 {
            return 0.0;
        }
        self.lanes.stride() as f64 / self.lanes.n_in as f64
    }

    /// Attaches a per-output bias.
    ///
    /// # Panics
    ///
    /// Panics when `bias.len() != n_out`.
    #[must_use]
    pub fn with_bias(mut self, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), self.lanes.n_out, "bias length mismatch");
        self.lanes.bias = Some(bias);
        self
    }

    /// Branch-free sparse forward, bit-identical to `ops::matmul`
    /// against [`Self::to_dense`] on finite inputs.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree with `n_in` / `n_out`.
    pub fn forward(&self, input: &[f32], out: &mut [f32]) {
        self.lanes.forward(input, out);
    }

    /// Allocating convenience wrapper around [`Self::forward`].
    pub fn forward_alloc(&self, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.lanes.n_out];
        self.forward(input, &mut out);
        out
    }

    /// Parallel [`Self::forward`], bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_pooled(&self, input: &[f32], out: &mut [f32], pool: &cs_parallel::ThreadPool) {
        self.lanes.forward_pooled(input, out, pool);
    }

    /// Gated [`Self::forward`]: prescans the input at the pattern bank
    /// width (4) and skips survivor groups whose bank is all `+0.0`.
    /// Bit-identical to the ungated path on any input.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_gated(&self, input: &[f32], out: &mut [f32]) -> GateStats {
        self.lanes.forward_gated(input, out)
    }

    /// Parallel [`Self::forward_gated`], bit-identical at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_gated_pooled(
        &self,
        input: &[f32],
        out: &mut [f32],
        pool: &cs_parallel::ThreadPool,
    ) -> GateStats {
        self.lanes.forward_gated_pooled(input, out, pool)
    }

    /// The dense `(n_in, n_out)` twin of the equivalence contract.
    pub fn to_dense(&self) -> Tensor {
        self.lanes.to_dense()
    }
}

/// The bank-balanced layer compiled for execution: every lane reads the
/// same fixed number of (position, value) pairs per bank, so the inner
/// loop is a flat branch-free gather exactly like the 2:4 kernel, with
/// the fan-in determined by `(bank, k)` instead of `(4, 2)`. Banks of
/// 4, 8, or 16 take the AVX2 shuffle path; other widths fall back to
/// the portable scalar kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledBankBalancedFc {
    /// Layer name.
    pub name: String,
    /// Bank width.
    pub bank: usize,
    /// Survivors per bank.
    pub k: usize,
    lanes: StructuredLanes,
}

impl CompiledBankBalancedFc {
    /// Compiles the offset-based storage format.
    pub fn from_format(layer: &BankBalancedFcLayer) -> Self {
        CompiledBankBalancedFc {
            name: layer.name.clone(),
            bank: layer.bank,
            k: layer.k,
            lanes: StructuredLanes::from_lanes(
                layer.n_in,
                layer.n_out,
                layer.bank,
                layer.k,
                |o| layer.lane_positions(o),
                |o| layer.lane_values(o).to_vec(),
            ),
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        self.lanes.n_in
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        self.lanes.n_out
    }

    /// Exact pattern density.
    pub fn density(&self) -> f64 {
        if self.lanes.n_in == 0 {
            return 0.0;
        }
        self.lanes.stride() as f64 / self.lanes.n_in as f64
    }

    /// Attaches a per-output bias.
    ///
    /// # Panics
    ///
    /// Panics when `bias.len() != n_out`.
    #[must_use]
    pub fn with_bias(mut self, bias: Vec<f32>) -> Self {
        assert_eq!(bias.len(), self.lanes.n_out, "bias length mismatch");
        self.lanes.bias = Some(bias);
        self
    }

    /// Branch-free sparse forward, bit-identical to `ops::matmul`
    /// against [`Self::to_dense`] on finite inputs.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree with `n_in` / `n_out`.
    pub fn forward(&self, input: &[f32], out: &mut [f32]) {
        self.lanes.forward(input, out);
    }

    /// Allocating convenience wrapper around [`Self::forward`].
    pub fn forward_alloc(&self, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.lanes.n_out];
        self.forward(input, &mut out);
        out
    }

    /// Parallel [`Self::forward`], bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_pooled(&self, input: &[f32], out: &mut [f32], pool: &cs_parallel::ThreadPool) {
        self.lanes.forward_pooled(input, out, pool);
    }

    /// Gated [`Self::forward`]: prescans the input at the pattern bank
    /// width and skips survivor groups whose bank is all `+0.0`.
    /// Bit-identical to the ungated path on any input.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_gated(&self, input: &[f32], out: &mut [f32]) -> GateStats {
        self.lanes.forward_gated(input, out)
    }

    /// Parallel [`Self::forward_gated`], bit-identical at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_gated_pooled(
        &self,
        input: &[f32],
        out: &mut [f32],
        pool: &cs_parallel::ThreadPool,
    ) -> GateStats {
        self.lanes.forward_gated_pooled(input, out, pool)
    }

    /// The dense `(n_in, n_out)` twin of the equivalence contract.
    pub fn to_dense(&self) -> Tensor {
        self.lanes.to_dense()
    }
}

/// Any compiled FC kernel: block-CSR for coarse layers, or one of the
/// structured fixed-fan-in kernels. This is the dispatch point the
/// serving lanes and the conformance harness execute through; every
/// variant honors the same dense-equivalence contract.
#[derive(Debug, Clone, PartialEq)]
pub enum FcKernel {
    /// Block-CSR strips over a shared index ([`CompiledFcLayer`]).
    BlockCsr(CompiledFcLayer),
    /// 2:4 semi-structured kernel.
    TwoFour(CompiledTwoFourFc),
    /// Bank-balanced kernel.
    BankBalanced(CompiledBankBalancedFc),
}

impl FcKernel {
    /// Compiles any storage format to its specialized kernel.
    pub fn compile(format: &FcLayerFormat) -> Self {
        match format {
            FcLayerFormat::Shared(l) => FcKernel::BlockCsr(CompiledFcLayer::from_shared(l)),
            FcLayerFormat::TwoFour(l) => FcKernel::TwoFour(CompiledTwoFourFc::from_format(l)),
            FcLayerFormat::BankBalanced(l) => {
                FcKernel::BankBalanced(CompiledBankBalancedFc::from_format(l))
            }
        }
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        match self {
            FcKernel::BlockCsr(l) => &l.name,
            FcKernel::TwoFour(l) => &l.name,
            FcKernel::BankBalanced(l) => &l.name,
        }
    }

    /// The telemetry label of the kernel specialization.
    pub fn kind(&self) -> &'static str {
        match self {
            FcKernel::BlockCsr(_) => "sparse",
            FcKernel::TwoFour(_) => "two_four",
            FcKernel::BankBalanced(_) => "bank_balanced",
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        match self {
            FcKernel::BlockCsr(l) => l.n_in,
            FcKernel::TwoFour(l) => l.n_in(),
            FcKernel::BankBalanced(l) => l.n_in(),
        }
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        match self {
            FcKernel::BlockCsr(l) => l.n_out,
            FcKernel::TwoFour(l) => l.n_out(),
            FcKernel::BankBalanced(l) => l.n_out(),
        }
    }

    /// Fraction of surviving synapses.
    pub fn density(&self) -> f64 {
        match self {
            FcKernel::BlockCsr(l) => l.density(),
            FcKernel::TwoFour(l) => l.density(),
            FcKernel::BankBalanced(l) => l.density(),
        }
    }

    /// Attaches a per-output bias.
    ///
    /// # Panics
    ///
    /// Panics when `bias.len() != n_out`.
    #[must_use]
    pub fn with_bias(self, bias: Vec<f32>) -> Self {
        match self {
            FcKernel::BlockCsr(l) => FcKernel::BlockCsr(l.with_bias(bias)),
            FcKernel::TwoFour(l) => FcKernel::TwoFour(l.with_bias(bias)),
            FcKernel::BankBalanced(l) => FcKernel::BankBalanced(l.with_bias(bias)),
        }
    }

    /// Sparse forward through the specialized kernel.
    ///
    /// # Panics
    ///
    /// Panics when the slice lengths disagree with `n_in` / `n_out`.
    pub fn forward(&self, input: &[f32], out: &mut [f32]) {
        match self {
            FcKernel::BlockCsr(l) => l.forward(input, out),
            FcKernel::TwoFour(l) => l.forward(input, out),
            FcKernel::BankBalanced(l) => l.forward(input, out),
        }
    }

    /// Allocating convenience wrapper around [`Self::forward`].
    pub fn forward_alloc(&self, input: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.n_out()];
        self.forward(input, &mut out);
        out
    }

    /// Parallel [`Self::forward`], bit-identical at any thread count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_pooled(&self, input: &[f32], out: &mut [f32], pool: &cs_parallel::ThreadPool) {
        match self {
            FcKernel::BlockCsr(l) => l.forward_pooled(input, out, pool),
            FcKernel::TwoFour(l) => l.forward_pooled(input, out, pool),
            FcKernel::BankBalanced(l) => l.forward_pooled(input, out, pool),
        }
    }

    /// Runs the benefit model for this kernel's geometry: `Some(plan)`
    /// when activation gating is expected to pay for its prescan,
    /// `None` when the layer should stay on the ungated path.
    ///
    /// Structured kernels gate at their pattern bank width; block-CSR
    /// picks a block size from the candidate ladder (see
    /// [`crate::gate`]).
    pub fn plan_gate(&self, policy: GatePolicy) -> Option<GatePlan> {
        match self {
            FcKernel::BlockCsr(l) => gate::plan_fc(policy, l.n_in, l.n_out, l.density()),
            FcKernel::TwoFour(l) => gate::plan_structured(policy, l.n_in(), l.n_out(), 4, 2),
            FcKernel::BankBalanced(l) => {
                gate::plan_structured(policy, l.n_in(), l.n_out(), l.bank, l.k)
            }
        }
    }

    /// Gated [`Self::forward`]: prescan-and-skip over input blocks,
    /// bit-identical to the ungated path on any input. Structured
    /// kernels always gate at the pattern bank width and ignore
    /// `plan.block`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_gated(&self, input: &[f32], out: &mut [f32], plan: &GatePlan) -> GateStats {
        match self {
            FcKernel::BlockCsr(l) => l.forward_gated(input, out, plan),
            FcKernel::TwoFour(l) => l.forward_gated(input, out),
            FcKernel::BankBalanced(l) => l.forward_gated(input, out),
        }
    }

    /// Parallel [`Self::forward_gated`], bit-identical at any thread
    /// count.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::forward`].
    pub fn forward_gated_pooled(
        &self,
        input: &[f32],
        out: &mut [f32],
        plan: &GatePlan,
        pool: &cs_parallel::ThreadPool,
    ) -> GateStats {
        match self {
            FcKernel::BlockCsr(l) => l.forward_gated_pooled(input, out, plan, pool),
            FcKernel::TwoFour(l) => l.forward_gated_pooled(input, out, pool),
            FcKernel::BankBalanced(l) => l.forward_gated_pooled(input, out, pool),
        }
    }

    /// Runs a whole batch: `inputs` holds `B` input vectors back to
    /// back and `outs` receives `B × n_out`. Block-CSR layers execute
    /// it as one sparse-W × dense-B product
    /// ([`CompiledFcLayer::forward_batch`]); the structured kernels
    /// loop their single-column `forward` / `forward_gated` over the
    /// columns. Either way column `j` is bit-identical to
    /// [`Self::forward`] on input `j` alone. With a `plan` the layer
    /// runs gated and the returned slice holds one [`GateStats`] per
    /// column; it is empty otherwise.
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
        plan: Option<&GatePlan>,
    ) -> &'s [GateStats] {
        if let FcKernel::BlockCsr(l) = self {
            return l.forward_batch(inputs, outs, scratch, plan);
        }
        let (n_in, n_out) = (self.n_in(), self.n_out());
        let b = inputs.len() / n_in.max(1);
        assert_eq!(inputs.len(), b * n_in, "batch input length mismatch");
        assert_eq!(outs.len(), b * n_out, "batch output length mismatch");
        scratch.stats.clear();
        for j in 0..b {
            let x = &inputs[j * n_in..(j + 1) * n_in];
            let out = &mut outs[j * n_out..(j + 1) * n_out];
            match plan {
                Some(plan) => scratch.stats.push(self.forward_gated(x, out, plan)),
                None => self.forward(x, out),
            }
        }
        &scratch.stats
    }

    /// The dense `(n_in, n_out)` twin of the equivalence contract.
    pub fn to_dense(&self) -> Tensor {
        match self {
            FcKernel::BlockCsr(l) => l.to_dense(),
            FcKernel::TwoFour(l) => l.to_dense(),
            FcKernel::BankBalanced(l) => l.to_dense(),
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
        let got = layer.forward_alloc(&input);
        assert_eq!(bits_of(&got), bits_of(want.as_slice()));
    }

    #[test]
    fn fc_forward_with_bias_matches_dense_add() {
        let (w, mask) = fc_layer(48, 24, 8, 0.5);
        let bias: Vec<f32> = (0..24).map(|i| (i as f32) * 0.01 - 0.1).collect();
        let layer = CompiledFcLayer::compile_fc("fc", &w, &mask, 8, 8)
            .unwrap()
            .with_bias(bias.clone());
        let dense = layer.to_dense();
        let input: Vec<f32> = (0..48).map(|i| ((i * 7) % 23) as f32 * 0.05).collect();
        let x = Tensor::from_vec(Shape::d2(1, 48), input.clone()).unwrap();
        let mm = ops::matmul(&x, &dense).unwrap();
        let bt = Tensor::from_vec(Shape::d2(1, 24), bias).unwrap();
        let want = ops::add(&mm, &bt).unwrap();
        let got = layer.forward_alloc(&input);
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
        let got = layer.forward_alloc(&input);
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
        let got = layer.forward_alloc(&input);
        assert_eq!(bits_of(&got), bits_of(&want));
    }

    #[test]
    fn pooled_fc_forward_is_bit_identical() {
        let pool = cs_parallel::ThreadPool::new(4);
        let (w, mask) = fc_layer(128, 64, 16, 0.25);
        let bias: Vec<f32> = (0..64).map(|i| (i as f32) * 0.001).collect();
        let layer = CompiledFcLayer::compile_fc("fc", &w, &mask, 16, 8)
            .unwrap()
            .with_bias(bias);
        let input: Vec<f32> = (0..128).map(|i| (i as f32 * 0.37).cos()).collect();
        let serial = layer.forward_alloc(&input);
        let mut pooled = vec![0.0f32; 64];
        layer.forward_pooled(&input, &mut pooled, &pool);
        assert_eq!(bits_of(&serial), bits_of(&pooled));
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
        let bias: Vec<f32> = (0..32).map(|i| (i as f32) * 0.01 - 0.15).collect();
        let layer = CompiledConvLayer::compile_conv("conv", &w, &mask, 16, 8, geom)
            .unwrap()
            .with_bias(bias.clone());
        let input = Tensor::from_fn(Shape::d3(2, 8, 8), |i| ((i * 17) % 31) as f32 * 0.06 - 0.9);
        let want = ops::conv2d(&input, &layer.to_dense(), Some(&bias), &geom).unwrap();
        let got = layer.forward(&input).unwrap();
        assert_eq!(want.shape(), got.shape());
        assert_eq!(bits_of(want.as_slice()), bits_of(got.as_slice()));
    }

    #[test]
    fn pooled_conv_forward_is_bit_identical() {
        let pool = cs_parallel::ThreadPool::new(3);
        let w = local_convergence(
            Shape::d4(2, 32, 3, 3),
            &ConvergenceProfile::with_target_density(0.3),
            11,
        );
        let cfg = CoarseConfig::conv(1, 16, 1, 1, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, 0.3).unwrap();
        let geom = Conv2dGeometry::square(3, 1, 1);
        let layer = CompiledConvLayer::compile_conv("conv", &w, &mask, 16, 8, geom).unwrap();
        let input = Tensor::from_fn(Shape::d3(2, 9, 7), |i| ((i * 29) % 41) as f32 * 0.04 - 0.8);
        let serial = layer.forward(&input).unwrap();
        let pooled = layer.forward_pooled(&input, &pool).unwrap();
        assert_eq!(bits_of(serial.as_slice()), bits_of(pooled.as_slice()));
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
            let mask = cs_sparsity::structured::two_four_mask(&w).unwrap();
            let fmt = crate::format::TwoFourFcLayer::from_fc("tf", &w, &mask).unwrap();
            let bias: Vec<f32> = (0..24).map(|i| (i as f32) * 0.01 - 0.1).collect();
            let layer = CompiledTwoFourFc::from_format(&fmt).with_bias(bias.clone());
            let dense = layer.to_dense();
            let input: Vec<f32> = (0..n_in).map(|i| (i as f32 * 0.7).sin()).collect();
            let x = Tensor::from_vec(Shape::d2(1, n_in), input.clone()).unwrap();
            let mm = ops::matmul(&x, &dense).unwrap();
            let bt = Tensor::from_vec(Shape::d2(1, 24), bias.clone()).unwrap();
            let want = ops::add(&mm, &bt).unwrap();
            let got = layer.forward_alloc(&input);
            assert_eq!(bits_of(&got), bits_of(want.as_slice()), "n_in {n_in}");
        }
    }

    #[test]
    fn bank_balanced_forward_is_bit_identical_to_dense_reference() {
        for (bank, k) in [(8usize, 2usize), (3, 1), (16, 7), (5, 5)] {
            let w = rand_w(29, 12, (bank * 13 + k) as u64);
            let mask = cs_sparsity::structured::bank_balanced_mask(&w, bank, k).unwrap();
            let fmt =
                crate::format::BankBalancedFcLayer::from_fc("bb", &w, &mask, bank, k).unwrap();
            let layer = CompiledBankBalancedFc::from_format(&fmt);
            let dense = layer.to_dense();
            let input: Vec<f32> = (0..29).map(|i| (i as f32 * 0.31).cos()).collect();
            let x = Tensor::from_vec(Shape::d2(1, 29), input.clone()).unwrap();
            let want = ops::matmul(&x, &dense).unwrap();
            let got = layer.forward_alloc(&input);
            assert_eq!(bits_of(&got), bits_of(want.as_slice()), "bank {bank} k {k}");
        }
    }

    #[test]
    fn structured_pooled_forward_is_bit_identical() {
        for threads in [1usize, 2, 4] {
            let pool = cs_parallel::ThreadPool::new(threads);
            let w = rand_w(33, 21, 5);
            let mask = cs_sparsity::structured::two_four_mask(&w).unwrap();
            let fmt = crate::format::TwoFourFcLayer::from_fc("tf", &w, &mask).unwrap();
            let bias: Vec<f32> = (0..21).map(|i| (i as f32) * 0.002).collect();
            let layer = CompiledTwoFourFc::from_format(&fmt).with_bias(bias);
            let input: Vec<f32> = (0..33).map(|i| (i as f32 * 0.13).sin()).collect();
            let serial = layer.forward_alloc(&input);
            let mut pooled = vec![0.0f32; 21];
            layer.forward_pooled(&input, &mut pooled, &pool);
            assert_eq!(bits_of(&serial), bits_of(&pooled), "threads {threads}");

            let bmask = cs_sparsity::structured::bank_balanced_mask(&w, 6, 2).unwrap();
            let bfmt = crate::format::BankBalancedFcLayer::from_fc("bb", &w, &bmask, 6, 2).unwrap();
            let blayer = CompiledBankBalancedFc::from_format(&bfmt);
            let bserial = blayer.forward_alloc(&input);
            let mut bpooled = vec![0.0f32; 21];
            blayer.forward_pooled(&input, &mut bpooled, &pool);
            assert_eq!(bits_of(&bserial), bits_of(&bpooled), "threads {threads}");
        }
    }

    #[test]
    fn fc_kernel_dispatch_is_consistent() {
        let w = rand_w(16, 8, 9);
        let mask = cs_sparsity::structured::two_four_mask(&w).unwrap();
        let fmt = crate::format::FcLayerFormat::TwoFour(
            crate::format::TwoFourFcLayer::from_fc("tf", &w, &mask).unwrap(),
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
            crate::format::FcLayerFormat::TwoFour(l) => l.to_dense(),
            _ => unreachable!(),
        };
        assert_eq!(bits_of(kd.as_slice()), bits_of(fd.as_slice()));
        let shared = fmt.to_shared();
        let bridge = CompiledFcLayer::from_shared(&shared);
        assert_eq!(
            bits_of(&kernel.forward_alloc(&input)),
            bits_of(&bridge.forward_alloc(&input))
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

    #[test]
    fn gated_fc_is_bit_identical_across_block_sizes_and_poisons() {
        let (w, mask) = fc_layer(64, 32, 16, 0.25);
        let bias: Vec<f32> = (0..32).map(|i| (i as f32) * 0.01 - 0.2).collect();
        let layer = CompiledFcLayer::compile_fc("fc", &w, &mask, 16, 8)
            .unwrap()
            .with_bias(bias);
        for (name, input) in gate_test_inputs(64) {
            let ungated = layer.forward_alloc(&input);
            for block in [1usize, 4, 8, 16, 64, 100] {
                let plan = GatePlan { block };
                let mut gated = vec![0.0f32; 32];
                let stats = layer.forward_gated(&input, &mut gated, &plan);
                assert_eq!(bits_of(&gated), bits_of(&ungated), "{name} block {block}");
                assert_eq!(
                    stats.blocks,
                    64usize.div_ceil(block),
                    "{name} block {block}"
                );
            }
        }
    }

    #[test]
    fn gated_fc_pooled_matches_serial_at_multiple_thread_counts() {
        let (w, mask) = fc_layer(96, 48, 16, 0.3);
        let layer = CompiledFcLayer::compile_fc("fc", &w, &mask, 16, 8).unwrap();
        let plan = GatePlan { block: 8 };
        for threads in [1usize, 2, 4] {
            let pool = cs_parallel::ThreadPool::new(threads);
            for (name, input) in gate_test_inputs(96) {
                let mut serial = vec![0.0f32; 48];
                let s_stats = layer.forward_gated(&input, &mut serial, &plan);
                let mut pooled = vec![0.0f32; 48];
                let p_stats = layer.forward_gated_pooled(&input, &mut pooled, &plan, &pool);
                assert_eq!(
                    bits_of(&serial),
                    bits_of(&pooled),
                    "{name} threads {threads}"
                );
                // Stats come from the bitmap alone, so they are
                // deterministic at any thread count.
                assert_eq!(s_stats, p_stats, "{name} threads {threads}");
            }
        }
    }

    #[test]
    fn gated_fc_skips_only_exact_zero_blocks() {
        let (w, mask) = fc_layer(64, 32, 16, 0.5);
        let layer = CompiledFcLayer::compile_fc("fc", &w, &mask, 16, 8).unwrap();
        let plan = GatePlan { block: 8 };
        let mut out = vec![0.0f32; 32];

        let inputs = gate_test_inputs(64);
        let striped = &inputs[0].1;
        let stats = layer.forward_gated(striped, &mut out, &plan);
        assert_eq!(stats.zero_blocks, 4, "every even-indexed block skips");

        // -0.0 / NaN / inf in an otherwise-zero block keep it occupied.
        for idx in [1usize, 2, 3] {
            let stats = layer.forward_gated(&inputs[idx].1, &mut out, &plan);
            assert_eq!(stats.zero_blocks, 3, "{} defeats the gate", inputs[idx].0);
        }

        let all_zero = &inputs[4].1;
        let stats = layer.forward_gated(all_zero, &mut out, &plan);
        assert_eq!(stats.zero_blocks, 8);
        assert!((stats.skip_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gated_conv_is_bit_identical_and_counts_skipped_patches() {
        let pool = cs_parallel::ThreadPool::new(3);
        let w = local_convergence(
            Shape::d4(2, 32, 3, 3),
            &ConvergenceProfile::with_target_density(0.3),
            13,
        );
        let cfg = CoarseConfig::conv(1, 16, 1, 1, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, 0.3).unwrap();
        let geom = Conv2dGeometry::square(3, 1, 1);
        let layer = CompiledConvLayer::compile_conv("conv", &w, &mask, 16, 8, geom).unwrap();
        // Zero out one channel-row stripe so several im2col patches are
        // all-zero, and poison one pixel with -0.0 and another with NaN.
        let mut input = Tensor::from_fn(Shape::d3(2, 8, 8), |i| {
            if (i / 16) % 2 == 0 {
                0.0
            } else {
                ((i * 17) % 31) as f32 * 0.06 - 0.9
            }
        });
        let s = input.as_mut_slice();
        s[0] = -0.0;
        s[33] = f32::NAN;
        let ungated = layer.forward(&input).unwrap();
        let (gated, stats) = layer.forward_gated(&input).unwrap();
        assert_eq!(bits_of(ungated.as_slice()), bits_of(gated.as_slice()));
        assert!(stats.zero_blocks > 0, "striped input must skip patches");
        assert_eq!(stats.blocks, 64, "one block per output position");
        let (gated_pooled, pooled_stats) = layer.forward_gated_pooled(&input, &pool).unwrap();
        assert_eq!(
            bits_of(ungated.as_slice()),
            bits_of(gated_pooled.as_slice())
        );
        assert_eq!(stats, pooled_stats);
    }

    #[test]
    fn gated_structured_is_bit_identical_for_avx2_and_scalar_banks() {
        let pool = cs_parallel::ThreadPool::new(2);
        // Banks 4/8/16 hit the AVX2 shuffle path on x86_64; 6 and the
        // 2:4 tail exercise the scalar kernel.
        let w = rand_w(67, 21, 7);
        let tf_mask = cs_sparsity::structured::two_four_mask(&w).unwrap();
        let tf_fmt = crate::format::TwoFourFcLayer::from_fc("tf", &w, &tf_mask).unwrap();
        let bias: Vec<f32> = (0..21).map(|i| (i as f32) * 0.002 - 0.01).collect();
        let tf = CompiledTwoFourFc::from_format(&tf_fmt).with_bias(bias);
        for (name, input) in gate_test_inputs(67) {
            let ungated = tf.forward_alloc(&input);
            let mut gated = vec![0.0f32; 21];
            let stats = tf.forward_gated(&input, &mut gated);
            assert_eq!(bits_of(&ungated), bits_of(&gated), "two_four {name}");
            assert_eq!(stats.blocks, 67usize.div_ceil(4), "two_four {name}");
            let mut pooled = vec![0.0f32; 21];
            let p_stats = tf.forward_gated_pooled(&input, &mut pooled, &pool);
            assert_eq!(
                bits_of(&ungated),
                bits_of(&pooled),
                "two_four pooled {name}"
            );
            assert_eq!(stats, p_stats, "two_four {name}");
        }
        for bank in [4usize, 6, 8, 16] {
            let k = bank / 2;
            let mask = cs_sparsity::structured::bank_balanced_mask(&w, bank, k).unwrap();
            let fmt =
                crate::format::BankBalancedFcLayer::from_fc("bb", &w, &mask, bank, k).unwrap();
            let layer = CompiledBankBalancedFc::from_format(&fmt);
            for (name, input) in gate_test_inputs(67) {
                let ungated = layer.forward_alloc(&input);
                let mut gated = vec![0.0f32; 21];
                layer.forward_gated(&input, &mut gated);
                assert_eq!(bits_of(&ungated), bits_of(&gated), "bank {bank} {name}");
                let mut pooled = vec![0.0f32; 21];
                layer.forward_gated_pooled(&input, &mut pooled, &pool);
                assert_eq!(
                    bits_of(&ungated),
                    bits_of(&pooled),
                    "bank {bank} pooled {name}"
                );
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
        seed: u64,
        bias: bool,
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
        let layer =
            CompiledFcLayer::compile_fc("prop", &rand_w(n_in, n_out, seed), &mask, 16, 8).unwrap();
        if bias {
            layer.with_bias((0..n_out).map(|o| o as f32 * 0.01 - 0.3).collect())
        } else {
            layer
        }
    }

    /// One batch column: whole 8-blocks of exact `+0.0` (what the gate
    /// skips) between blocks of values with scattered single zeros.
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

    proptest::proptest! {
        /// Batch-composition invariance: column `j` of `forward_batch`
        /// carries the bits `forward` produces on input `j` alone —
        /// and, on finite inputs, the dense reference's — gated and
        /// ungated, on the AVX2 entry and on the portable build of the
        /// same loop, at every batch size up to one past a column tile,
        /// and wherever in the batch the column sits. A NaN / inf /
        /// `-0.0` column leaves its neighbours' bits alone and is
        /// never gate-skipped.
        #[test]
        fn batch_columns_match_single_forward_whatever_they_ride_with(
            n_out in proptest::sample::select(vec![10usize, 16, 48, 300, 500]),
            n_in in proptest::sample::select(vec![23usize, 64, 100]),
            block_in in proptest::sample::select(vec![2usize, 8]),
            gate_block in proptest::sample::select(vec![3usize, 8, 16]),
            b in 1usize..=COLUMN_TILE + 1,
            seed in 0u64..10_000,
            bias in proptest::arbitrary::any::<bool>(),
            poison in 0usize..4,
        ) {
            let layer = random_block_layer(n_in, n_out, block_in, seed, bias);
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
            let plan = GatePlan { block: gate_block };
            let mut scratch = BatchScratch::default();
            for plan in [None, Some(&plan)] {
                for portable in [false, true] {
                    for order in [&identity, &order] {
                        let mut outs = vec![f32::NAN; b * n_out];
                        let stats = layer
                            .forward_batch_on(&flat(order), &mut outs, &mut scratch, plan, portable)
                            .to_vec();
                        prop_assert_eq!(stats.len(), if plan.is_some() { b } else { 0 });
                        for (k, &j) in order.iter().enumerate() {
                            let got = &outs[k * n_out..(k + 1) * n_out];
                            let non_finite = poison_col == Some(j) && poison < 3;
                            let mut alone = vec![0.0f32; n_out];
                            match plan {
                                Some(plan) => {
                                    let s = layer.forward_gated(&columns[j], &mut alone, plan);
                                    prop_assert_eq!(stats[k], s);
                                    if poison_col == Some(j) {
                                        prop_assert_eq!(s.zero_blocks, 0, "poison column skipped");
                                    }
                                }
                                None => layer.forward(&columns[j], &mut alone),
                            }
                            prop_assert!(
                                same_bits(got, &alone, non_finite),
                                "column {} at slot {} of {} (gated {}, portable {})",
                                j, k, b, plan.is_some(), portable
                            );
                            if !non_finite {
                                let x = Tensor::from_vec(Shape::d2(1, n_in), columns[j].clone()).unwrap();
                                let mut want = ops::matmul(&x, &dense).unwrap().as_slice().to_vec();
                                if let Some(bias) = &layer.bias {
                                    for (w, b) in want.iter_mut().zip(bias) {
                                        *w += *b;
                                    }
                                }
                                prop_assert!(same_bits(got, &want, false), "column {} vs dense", j);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fc_kernel_gated_dispatch_and_planning() {
        let w = rand_w(128, 64, 11);
        let tf_mask = cs_sparsity::structured::two_four_mask(&w).unwrap();
        let tf = FcKernel::compile(&crate::format::FcLayerFormat::TwoFour(
            crate::format::TwoFourFcLayer::from_fc("tf", &w, &tf_mask).unwrap(),
        ));
        let bb_mask = cs_sparsity::structured::bank_balanced_mask(&w, 8, 2).unwrap();
        let bb = FcKernel::compile(&crate::format::FcLayerFormat::BankBalanced(
            crate::format::BankBalancedFcLayer::from_fc("bb", &w, &bb_mask, 8, 2).unwrap(),
        ));
        let (cw, cmask) = fc_layer(128, 64, 16, 0.25);
        let csr =
            FcKernel::BlockCsr(CompiledFcLayer::compile_fc("fc", &cw, &cmask, 16, 8).unwrap());
        let pool = cs_parallel::ThreadPool::new(2);
        for kernel in [&tf, &bb, &csr] {
            assert!(
                kernel.plan_gate(GatePolicy::Off).is_none(),
                "{}",
                kernel.kind()
            );
            let forced = kernel
                .plan_gate(GatePolicy::Force { block: 16 })
                .unwrap_or_else(|| panic!("force must gate {}", kernel.kind()));
            let plan = kernel.plan_gate(GatePolicy::Auto).unwrap_or(forced);
            for (name, input) in gate_test_inputs(128) {
                let ungated = kernel.forward_alloc(&input);
                let mut gated = vec![0.0f32; 64];
                kernel.forward_gated(&input, &mut gated, &plan);
                assert_eq!(
                    bits_of(&ungated),
                    bits_of(&gated),
                    "{} {name}",
                    kernel.kind()
                );
                let mut pooled = vec![0.0f32; 64];
                kernel.forward_gated_pooled(&input, &mut pooled, &plan, &pool);
                assert_eq!(
                    bits_of(&ungated),
                    bits_of(&pooled),
                    "{} pooled {name}",
                    kernel.kind()
                );
            }
        }
    }
}
