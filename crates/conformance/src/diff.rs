//! Differential executor: one generated case, every backend, one
//! verdict.
//!
//! Each case is materialized once into [`FcArtifacts`] / conv artifacts
//! (weights → coarse mask → shared-index layer → compiled engine layer →
//! densified twin) and then pushed through every execution path the repo
//! has. The equivalence contract (`DESIGN.md` §9):
//!
//! * dense reference vs sparse engine: **bit-identical** on finite
//!   inputs — the engine accumulates surviving terms in the same
//!   ascending order and skipped terms are exact `±0.0`;
//! * gated engine vs the dense reference on finite inputs, and vs the
//!   ungated engine on poisoned ones: **bit-identical** — the gate
//!   skips only exact `+0.0` blocks;
//! * batched engine (`forward_batch`, gated and ungated) vs the dense
//!   reference, column by column: **bit-identical** — a request's bits
//!   do not depend on what it is batched with; on non-finite (poisoned)
//!   inputs the comparison is against the column run alone and
//!   identifies all NaN encodings, since NaN payload propagation across
//!   distinct kernel paths is unspecified by IEEE 754 and LLVM alike;
//! * dense conv2d vs sparse conv: **bit-identical**;
//! * functional simulator vs dense chain: **tolerance-bounded** — the
//!   simulator accumulates per (tile, group) in hardware order, which is
//!   a different (still deterministic) float summation order;
//! * compiled simulator network vs `run_layer` chained layer by layer:
//!   **bit-identical** outputs (NaN encodings identified) and **equal**
//!   activity counters, also when the scratch last ran a wider network;
//! * compiled simulator network vs [`sim_ref`], the
//!   lane-major walk each PE's sum is defined by: **bit-identical**
//!   outputs (NaN encodings identified) and **equal** activity counters.
//!
//! [`Fault::ReverseAccumulation`] swaps the ungated engine kernel for
//! [`forward_reversed`], which adds the same terms in *descending* input
//! order — a deliberately planted defect the harness must catch. The
//! planted kernel targets coarse block-CSR layers; structured
//! (bank-balanced, 2:4 included) layers always run their production
//! kernels.
//! [`Fault::CodebookOffByOne`] plants [`forward_codebook_shifted`] in
//! the same place: the right order, but every looked-up weight read one
//! codebook slot up. [`Fault::PairCodebookSwap`] plants
//! [`forward_pair_codebook_swapped`] there too: the second strip of a
//! shared-run pair looks its indices up in its partner's codebook.
//! [`Fault::SwapBatchColumns`] plants [`forward_batch_swapped`] in the
//! batched leg instead: every column is computed correctly and two of
//! them are delivered to each other's slot.

use cs_accel::config::AccelConfig;
use cs_accel::exec::{Accelerator, SimScratch};
use cs_accel::pe::Activation;
use cs_compress::engine::{
    BatchScratch, CompiledConvLayer, CompiledFcLayer, FcKernel, COLUMN_TILE,
};
use cs_compress::format::{BankBalancedFcLayer, FcLayerFormat, SharedIndexLayer};
use cs_compress::gate::GateStats;
use cs_nn::data::lif_spike_train;
use cs_sim::SimStats;
use cs_sparsity::coarse::{self, CoarseConfig};
use cs_sparsity::{structured, Mask, PruneMode};
use cs_tensor::ops::{self, Conv2dGeometry};
use cs_tensor::{Shape, Tensor};

use crate::gen::{Case, CaseKind, ConvCase, FcLayerCase, FcNetCase, InputPoison};
use crate::rng::CaseRng;
use crate::{sim_ref, Fault, Mismatch};

/// Everything built for one FC layer of a case.
#[derive(Debug, Clone)]
pub struct FcLayerArtifacts {
    /// The compiled storage format (coarse shared-index, or
    /// bank-balanced for 2:4 and the bank patterns) — what the serving
    /// registry ingests.
    pub format: FcLayerFormat,
    /// Shared-index view of `format` (simulator input; for structured
    /// patterns this is the exact identity-codebook bridge).
    pub shared: SharedIndexLayer,
    /// The compiled engine kernel for the pattern.
    pub engine: FcKernel,
    /// Densified twin of the engine layer (the dense-reference operand).
    pub dense: Tensor,
    /// The pruning mask.
    pub mask: Mask,
    /// Activation after this layer (ReLU between layers, None last).
    pub activation: Activation,
}

/// A whole FC case materialized for execution.
#[derive(Debug, Clone)]
pub struct FcArtifacts {
    /// The layers in execution order.
    pub layers: Vec<FcLayerArtifacts>,
    /// The case's input vector.
    pub input: Vec<f32>,
}

fn first_diff(a: &[f32], b: &[f32]) -> Option<(usize, f32, f32)> {
    a.iter()
        .zip(b)
        .enumerate()
        .find(|(_, (x, y))| x.to_bits() != y.to_bits())
        .map(|(i, (x, y))| (i, *x, *y))
}

/// Bit equality with every NaN encoding identified. IEEE 754 leaves NaN
/// payload/sign propagation unspecified and LLVM exploits that freedom
/// (commuting `fadd`/`fmul` operands, whose order decides which NaN x86
/// keeps), so two kernel paths adding the *same terms in the same
/// order* — say the AVX2 strip and the scalar remainder — can return
/// different NaN bits when two distinct NaNs meet in one add (an input
/// NaN and the 0xFFC00000 indefinite from `inf * 0.0`). NaN-ness must
/// still match positionally, and every non-NaN value stays exact-bit.
fn first_diff_nan_canonical(a: &[f32], b: &[f32]) -> Option<(usize, f32, f32)> {
    a.iter()
        .zip(b)
        .enumerate()
        .find(|(_, (x, y))| x.to_bits() != y.to_bits() && !(x.is_nan() && y.is_nan()))
        .map(|(i, (x, y))| (i, *x, *y))
}

/// Materializes one FC layer case.
///
/// # Errors
///
/// Any build failure (pruner rejection, non-shared mask) is itself a
/// conformance finding and comes back as a [`Mismatch`].
pub fn build_fc_layer(
    case: &FcLayerCase,
    li: usize,
    last: bool,
) -> Result<FcLayerArtifacts, Mismatch> {
    let n = case.n_in * case.n_out;
    let data = if case.zero_weights {
        vec![0.0f32; n]
    } else {
        CaseRng::from_seed(case.weight_seed).fill_f32(n, 0)
    };
    let w = Tensor::from_vec(Shape::d2(case.n_in, case.n_out), data)
        .map_err(|e| Mismatch::new("build-weights", format!("layer {li}: {e:?}")))?;
    let name = format!("fc{li}");
    let (mask, format) = match case.pattern.geometry() {
        None => {
            let cfg = CoarseConfig::fc(case.block_in, case.block_out, case.metric);
            let mask = coarse::prune_to_density(&w, &cfg, case.density)
                .map_err(|e| Mismatch::new("build-prune", format!("layer {li}: {e:?}")))?;
            // The shared-index group width must divide the (clamped)
            // pruning block along the output dimension, or the mask is
            // not shared.
            let shared = SharedIndexLayer::from_fc(
                name.as_str(),
                &w,
                &mask,
                case.group_size(),
                case.quant_bits,
            )
            .map_err(|e| {
                Mismatch::new(
                    "build-shared-index",
                    format!("layer {li}: coarse mask rejected by the format: {e:?}"),
                )
            })?;
            (mask, FcLayerFormat::Shared(shared))
        }
        Some((bank, k)) => {
            let mask = structured::bank_balanced_mask(&w, bank, k)
                .map_err(|e| Mismatch::new("build-prune", format!("layer {li}: {e:?}")))?;
            let layer =
                BankBalancedFcLayer::from_fc(name.as_str(), &w, &mask, bank, k).map_err(|e| {
                    Mismatch::new(
                        "build-bank-balanced",
                        format!("layer {li}: bank-balanced mask rejected by the format: {e:?}"),
                    )
                })?;
            (mask, FcLayerFormat::BankBalanced(layer))
        }
    };
    let shared = format.to_shared();
    let engine = FcKernel::compile(&format);
    let dense = engine.to_dense();
    Ok(FcLayerArtifacts {
        format,
        shared,
        engine,
        dense,
        mask,
        activation: if last {
            Activation::None
        } else {
            Activation::Relu
        },
    })
}

/// Materializes a whole FC case.
///
/// # Errors
///
/// Propagates the first layer build failure as a [`Mismatch`].
pub fn build_fc(case: &FcNetCase) -> Result<FcArtifacts, Mismatch> {
    let count = case.layers.len();
    let layers = case
        .layers
        .iter()
        .enumerate()
        .map(|(li, l)| build_fc_layer(l, li, li + 1 == count))
        .collect::<Result<Vec<_>, _>>()?;
    let n_in = layers[0].engine.n_in();
    let mut input = if case.spikes {
        lif_spike_train(n_in, 20, 0.25, case.input_seed)
            .as_slice()
            .to_vec()
    } else {
        CaseRng::from_seed(case.input_seed).fill_f32(n_in, case.zero_every)
    };
    match case.poison {
        InputPoison::None => {}
        InputPoison::NegZero => input[0] = -0.0,
        InputPoison::NonFinite => {
            input[0] = f32::NAN;
            if let Some(v) = input.get_mut(1) {
                *v = f32::INFINITY;
            }
        }
    }
    Ok(FcArtifacts { layers, input })
}

/// The planted [`Fault::ReverseAccumulation`] kernel: same strips, same
/// terms, but each strip accumulates in *descending* input order, so the
/// float rounding disagrees with the dense reference on almost any case
/// with two or more surviving inputs per strip.
pub fn forward_reversed(layer: &CompiledFcLayer, input: &[f32], out: &mut [f32]) {
    forward_planted(layer, input, out, true, |k, pos, lane| {
        layer.strips[k].weight(pos, lane)
    });
}

/// The planted [`Fault::CodebookOffByOne`] kernel: terms added in the
/// production order, but every looked-up weight read from slot
/// `idx + 1 (mod len)` of its strip's codebook, so any nibble strip
/// whose codebook has two or more distinct entries computes with the
/// wrong weights. Strips of weight rows look nothing up and keep their
/// weights.
pub fn forward_codebook_shifted(layer: &CompiledFcLayer, input: &[f32], out: &mut [f32]) {
    forward_planted(layer, input, out, false, |k, pos, lane| {
        let strip = &layer.strips[k];
        match strip.lookup(pos, lane) {
            Some((codebook, slot)) => codebook[(slot + 1) % codebook.len()],
            None => strip.weight(pos, lane),
        }
    });
}

/// The planted [`Fault::PairCodebookSwap`] kernel: terms added in the
/// production order, but wherever two adjacent strips share their runs
/// (taken in pairs from the left, as the engine walks them), the second
/// strip looks its indices up in the first strip's codebook, reading
/// `0.0` past its end as the zero-padded lookup table would. Any pair
/// whose codebooks differ at a slot the second strip uses computes with
/// the wrong weights; strips of weight rows look nothing up.
pub fn forward_pair_codebook_swapped(layer: &CompiledFcLayer, input: &[f32], out: &mut [f32]) {
    let strips = &layer.strips;
    let mut partner: Vec<Option<usize>> = vec![None; strips.len()];
    let mut k = 1;
    while k < strips.len() {
        if strips[k].runs() == strips[k - 1].runs() {
            partner[k] = Some(k - 1);
            k += 1;
        }
        k += 1;
    }
    forward_planted(layer, input, out, false, |k, pos, lane| {
        let strip = &strips[k];
        let codebook = partner[k].and_then(|p| strips[p].lookup(pos, 0));
        match (strip.lookup(pos, lane), codebook) {
            (Some((_, slot)), Some((codebook, _))) => codebook.get(slot).copied().unwrap_or(0.0),
            _ => strip.weight(pos, lane),
        }
    });
}

/// A scalar block-CSR kernel for the planted faults: each strip `k`'s
/// terms `input[i] * weight(k, pos, lane)` added in ascending or
/// (`descending`) reversed input order.
fn forward_planted(
    layer: &CompiledFcLayer,
    input: &[f32],
    out: &mut [f32],
    descending: bool,
    weight: impl Fn(usize, usize, usize) -> f32,
) {
    assert_eq!(input.len(), layer.n_in, "input length mismatch");
    assert_eq!(out.len(), layer.n_out, "output length mismatch");
    out.fill(0.0);
    for (k, strip) in layer.strips.iter().enumerate() {
        let window = &mut out[strip.out_start()..strip.out_end()];
        let surviving = strip
            .runs()
            .iter()
            .flat_map(|&(s, e)| s as usize..e as usize);
        let mut terms: Vec<(usize, usize)> = surviving.enumerate().collect();
        if descending {
            terms.reverse();
        }
        for (pos, i) in terms {
            for (lane, o) in window.iter_mut().enumerate() {
                *o += input[i] * weight(k, pos, lane);
            }
        }
    }
}

/// Every differential leg [`check_fc`] can report, in the order it
/// runs them (the `fc-sim-error` leg aside, which reports a simulator
/// failure rather than a disagreement). The sweep report prints this
/// list so a run's log says which legs were armed.
pub const FC_LEGS: [&str; 9] = [
    "fc-dense-vs-sparse-bits",
    "fc-gated-vs-dense-bits",
    "fc-gated-vs-engine-bits",
    "fc-gated-stats",
    "fc-batched-vs-dense-bits",
    "fc-batched-vs-engine-bits",
    "fc-sim-vs-dense-tolerance",
    "fc-sim-compiled-vs-program-bits",
    "fc-sim-vs-reference-bits",
];

/// The co-batched inputs of the batched leg: one more column than a
/// kernel tile holds, so the batch is cut into two tiles. Column 0 is
/// the case's own input; column `k` is it rotated left by `k`, negated
/// for odd `k`; the last column is all `+0.0` (a column the gate could
/// skip outright riding with columns it cannot).
fn batch_columns(x: &[f32]) -> Vec<Vec<f32>> {
    let mut cols: Vec<Vec<f32>> = (0..COLUMN_TILE)
        .map(|k| {
            let mut c = x.to_vec();
            c.rotate_left(k % x.len().max(1));
            if k % 2 == 1 {
                for v in &mut c {
                    *v = -*v;
                }
            }
            c
        })
        .collect();
    cols.push(vec![0.0; x.len()]);
    cols
}

/// The planted [`Fault::SwapBatchColumns`] kernel: the production
/// batched kernel, with the outputs (and gate counters) of columns 0
/// and 1 exchanged afterwards.
pub fn forward_batch_swapped(
    engine: &FcKernel,
    inputs: &[f32],
    outs: &mut [f32],
    scratch: &mut BatchScratch,
    gated: bool,
) -> Vec<GateStats> {
    let n_out = engine.n_out();
    let mut stats = engine.forward_batch(inputs, outs, scratch, gated).to_vec();
    if outs.len() >= 2 * n_out {
        let (c0, rest) = outs.split_at_mut(n_out);
        c0.swap_with_slice(&mut rest[..n_out]);
    }
    if stats.len() >= 2 {
        stats.swap(0, 1);
    }
    stats
}

/// Runs an FC case through every backend and collects contract
/// violations.
pub fn check_fc(art: &FcArtifacts, fault: Fault) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let accel = Accelerator::new(AccelConfig::paper_default());
    let mut x = art.input.clone();
    for (li, la) in art.layers.iter().enumerate() {
        let n_out = la.engine.n_out();
        // Non-finite inputs void the dense bit contract (the dense twin
        // multiplies poison through explicitly-zeroed pruned weights the
        // sparse kernels never touch), so poisoned layers drop the
        // dense and simulator legs and hold the engine paths — ungated,
        // gated, batched — to each other instead.
        let finite = x.iter().all(|v| v.is_finite());
        // Dense reference: the matmul of the dense twin (the oracle).
        let dense_out = match dense_forward(&la.dense, &x) {
            Ok(v) => v,
            Err(m) => {
                out.push(m);
                return out;
            }
        };

        let mut sparse = vec![0.0f32; n_out];
        match (fault, &la.engine) {
            (Fault::ReverseAccumulation, FcKernel::BlockCsr(l)) => {
                forward_reversed(l, &x, &mut sparse);
            }
            (Fault::CodebookOffByOne, FcKernel::BlockCsr(l)) => {
                forward_codebook_shifted(l, &x, &mut sparse);
            }
            (Fault::PairCodebookSwap, FcKernel::BlockCsr(l)) => {
                forward_pair_codebook_swapped(l, &x, &mut sparse);
            }
            _ => la.engine.forward(&x, &mut sparse),
        }
        if finite {
            if let Some((i, s, d)) = first_diff(&sparse, &dense_out) {
                out.push(Mismatch::new(
                    "fc-dense-vs-sparse-bits",
                    format!(
                        "layer {li} output {i}: sparse {s:e} ({:#010x}) vs dense {d:e} ({:#010x})",
                        s.to_bits(),
                        d.to_bits()
                    ),
                ));
            }
        }

        // Gated engine legs: the prescan gate is a pure scheduling
        // decision, so the gated kernel must match the dense reference
        // bit-for-bit on finite inputs and the ungated engine output
        // above on poisoned ones — `-0.0`/NaN/inf inputs are never
        // skipped.
        let mut scratch = BatchScratch::default();
        let mut gated = vec![0.0f32; n_out];
        la.engine.forward_batch(&x, &mut gated, &mut scratch, true);
        let (gate_ref, gate_leg): (&[f32], &str) = if finite {
            (&dense_out, "fc-gated-vs-dense-bits")
        } else {
            (&sparse, "fc-gated-vs-engine-bits")
        };
        if let Some((i, g, r)) = first_diff(&gated, gate_ref) {
            out.push(Mismatch::new(
                gate_leg,
                format!(
                    "layer {li} output {i}: gated {g:e} ({:#010x}) vs reference {r:e} \
                     ({:#010x})",
                    g.to_bits(),
                    r.to_bits()
                ),
            ));
        }
        // Batched leg: the layer's input rides with eight variants of
        // itself (two kernel tiles), gated and ungated, and every
        // column must carry the dense reference's bits for that column
        // alone — the engine's single-column run on poisoned input —
        // with the gate counters of its own single-column prescan.
        let cols = batch_columns(&x);
        let flat: Vec<f32> = cols.iter().flatten().copied().collect();
        for gated in [false, true] {
            let mut outs = vec![0.0f32; cols.len() * n_out];
            let stats = match fault {
                Fault::SwapBatchColumns => {
                    forward_batch_swapped(&la.engine, &flat, &mut outs, &mut scratch, gated)
                }
                _ => la
                    .engine
                    .forward_batch(&flat, &mut outs, &mut scratch, gated)
                    .to_vec(),
            };
            for (j, col) in cols.iter().enumerate() {
                let got = &outs[j * n_out..(j + 1) * n_out];
                let mut alone = vec![0.0f32; n_out];
                let alone_stats = la
                    .engine
                    .forward_batch(col, &mut alone, &mut scratch, gated)
                    .first()
                    .copied();
                let (diff, leg) = if finite {
                    match dense_forward(&la.dense, col) {
                        Ok(want) => (first_diff(got, &want), "fc-batched-vs-dense-bits"),
                        Err(m) => {
                            out.push(m);
                            return out;
                        }
                    }
                } else {
                    (
                        first_diff_nan_canonical(got, &alone),
                        "fc-batched-vs-engine-bits",
                    )
                };
                if let Some((i, g, r)) = diff {
                    out.push(Mismatch::new(
                        leg,
                        format!(
                            "layer {li} column {j} of {} output {i} ({}): batched {g:e} \
                             ({:#010x}) vs reference {r:e} ({:#010x})",
                            cols.len(),
                            if gated { "gated" } else { "ungated" },
                            g.to_bits(),
                            r.to_bits()
                        ),
                    ));
                }
                if alone_stats.is_some_and(|s| stats.get(j) != Some(&s)) {
                    out.push(Mismatch::new(
                        "fc-gated-stats",
                        format!(
                            "layer {li} column {j}: batched gate stats {:?} vs \
                             single-column {alone_stats:?}",
                            stats.get(j)
                        ),
                    ));
                }
            }
        }

        // Next layer's input on every leg: activation over the dense
        // reference when the contract holds, over the engine output on
        // poisoned layers (ReLU then washes the poison out downstream).
        let next: Vec<f32> = if finite {
            dense_out.iter().map(|v| la.activation.apply(*v)).collect()
        } else {
            sparse.iter().map(|v| la.activation.apply(*v)).collect()
        };

        // Simulator leg: tolerance-bounded, and only on finite inputs
        // (the tolerance is meaningless against NaN).
        if finite {
            match accel.run_layer(&la.shared, &x, la.activation) {
                Ok(run) => {
                    let scale = next.iter().fold(1.0f32, |m, v| m.max(v.abs()));
                    let tol = 1e-3 * scale;
                    if let Some((i, s, d)) = run
                        .outputs
                        .iter()
                        .zip(&next)
                        .enumerate()
                        .find(|(_, (s, d))| (*s - *d).abs() > tol)
                        .map(|(i, (s, d))| (i, *s, *d))
                    {
                        out.push(Mismatch::new(
                            "fc-sim-vs-dense-tolerance",
                            format!("layer {li} output {i}: sim {s} vs dense {d} (tol {tol:e})"),
                        ));
                    }
                }
                Err(e) => out.push(Mismatch::new("fc-sim-error", format!("layer {li}: {e:?}"))),
            }
        }

        x = next;
    }
    out.extend(check_sim_compiled(art, &accel));
    out
}

/// The simulator's view of a case: each layer's shared-index bridge
/// with its activation.
fn sim_layers(art: &FcArtifacts) -> Vec<(SharedIndexLayer, Activation)> {
    art.layers
        .iter()
        .map(|la| (la.shared.clone(), la.activation))
        .collect()
}

/// A case wider than any generated one (64 against the generator's
/// widest 48), fully dense on a dense input, so its simulator run leaves
/// values in every scratch position a generated case's run will use.
fn wide_sim_case() -> Result<FcArtifacts, Mismatch> {
    let layer = |weight_seed| FcLayerCase {
        n_in: 64,
        n_out: 64,
        block_in: 4,
        block_out: 16,
        group_split: 1,
        metric: coarse::PruneMetric::Average,
        density: 1.0,
        quant_bits: 8,
        zero_weights: false,
        weight_seed,
        pattern: PruneMode::Coarse,
    };
    build_fc(&FcNetCase {
        layers: vec![layer(1), layer(2)],
        input_seed: 3,
        zero_every: 0,
        spikes: false,
        poison: InputPoison::None,
    })
}

/// The compiled-simulator leg: the case's layer chain, compiled once,
/// must give what [`Accelerator::run_layer`] chained layer by layer
/// gives — outputs up to NaN encoding (the one interpreter may be
/// inlined differently into its two callers) and every [`SimStats`]
/// field exactly. It runs twice through one [`SimScratch`], the second
/// time after a wider network, so stale buffer contents would show.
/// The first run must also give the lane-major reference walk's
/// outputs and statistics (`fc-sim-vs-reference-bits`).
fn check_sim_compiled(art: &FcArtifacts, accel: &Accelerator) -> Vec<Mismatch> {
    const LEG: &str = "fc-sim-compiled-vs-program-bits";
    let error = |what: String| vec![Mismatch::new("fc-sim-error", what)];
    let layers = sim_layers(art);
    let mut want = art.input.clone();
    let mut want_stats = SimStats::new();
    for (li, (layer, activation)) in layers.iter().enumerate() {
        match accel.run_layer(layer, &want, *activation) {
            Ok(run) => {
                want_stats += run.stats;
                want = run.outputs;
            }
            Err(e) => return error(format!("layer {li}: {e:?}")),
        }
    }
    let wide = match wide_sim_case() {
        Ok(w) => w,
        Err(m) => return vec![m],
    };
    let (reference, reference_stats) = sim_ref::run_network(accel.config(), &layers, &art.input);
    let (net, wide_net) = match (
        accel.compile_network(layers),
        accel.compile_network(sim_layers(&wide)),
    ) {
        (Ok(net), Ok(wide_net)) => (net, wide_net),
        (Err(e), _) | (_, Err(e)) => return error(format!("compile: {e:?}")),
    };
    let mut scratch = SimScratch::default();
    let mut out = Vec::new();
    for pass in ["first run", "run after a wider network"] {
        if pass != "first run" {
            if let Err(e) = accel.run_compiled(&wide_net, &wide.input, &mut scratch) {
                return error(format!("wide network: {e:?}"));
            }
        }
        let (got, stats) = match accel.run_compiled(&net, &art.input, &mut scratch) {
            Ok(run) => run,
            Err(e) => return error(format!("{pass}: {e:?}")),
        };
        if got.len() != want.len() {
            out.push(Mismatch::new(
                LEG,
                format!("{pass}: {} outputs vs {}", got.len(), want.len()),
            ));
        } else if let Some((i, g, w)) = first_diff_nan_canonical(got, &want) {
            out.push(Mismatch::new(
                LEG,
                format!(
                    "{pass}: output {i}: compiled {g:e} ({:#010x}) vs chained run_layer \
                     {w:e} ({:#010x})",
                    g.to_bits(),
                    w.to_bits()
                ),
            ));
        }
        if stats != want_stats {
            out.push(Mismatch::new(
                LEG,
                format!("{pass}: compiled stats {stats:?} vs chained run_layer {want_stats:?}"),
            ));
        }
        if pass == "first run" {
            out.extend(reference_mismatch(
                got,
                &stats,
                &reference,
                &reference_stats,
            ));
        }
    }
    out
}

/// The `fc-sim-vs-reference-bits` findings of one compiled run.
fn reference_mismatch(
    got: &[f32],
    stats: &SimStats,
    want: &[f32],
    want_stats: &SimStats,
) -> Vec<Mismatch> {
    const LEG: &str = "fc-sim-vs-reference-bits";
    let mut out = Vec::new();
    if got.len() != want.len() {
        out.push(Mismatch::new(
            LEG,
            format!("{} outputs vs {}", got.len(), want.len()),
        ));
    } else if let Some((i, g, w)) = first_diff_nan_canonical(got, want) {
        out.push(Mismatch::new(
            LEG,
            format!(
                "output {i}: compiled {g:e} ({:#010x}) vs lane-major reference {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            ),
        ));
    }
    if stats != want_stats {
        out.push(Mismatch::new(
            LEG,
            format!("compiled stats {stats:?} vs lane-major reference {want_stats:?}"),
        ));
    }
    out
}

fn dense_forward(weights: &Tensor, x: &[f32]) -> Result<Vec<f32>, Mismatch> {
    let xt = Tensor::from_vec(Shape::d2(1, x.len()), x.to_vec())
        .map_err(|e| Mismatch::new("dense-ref-error", format!("{e:?}")))?;
    let mm = ops::matmul(&xt, weights)
        .map_err(|e| Mismatch::new("dense-ref-error", format!("{e:?}")))?;
    Ok(mm.as_slice().to_vec())
}

/// Artifacts for one conv case.
#[derive(Debug, Clone)]
pub struct ConvArtifacts {
    /// The compiled sparse conv layer.
    pub layer: CompiledConvLayer,
    /// The coarse pruning mask over `(n_fin, n_fout, kx, ky)`.
    pub mask: Mask,
    /// The `(n_fin, h, w)` input tensor.
    pub input: Tensor,
    /// Convolution geometry.
    pub geom: Conv2dGeometry,
}

/// Materializes a conv case.
///
/// # Errors
///
/// Build failures come back as [`Mismatch`] findings.
pub fn build_conv(case: &ConvCase) -> Result<ConvArtifacts, Mismatch> {
    let n = case.n_fin * case.n_fout * case.k * case.k;
    let data = CaseRng::from_seed(case.weight_seed).fill_f32(n, 0);
    let w = Tensor::from_vec(Shape::d4(case.n_fin, case.n_fout, case.k, case.k), data)
        .map_err(|e| Mismatch::new("build-weights", format!("{e:?}")))?;
    let (bf, bo, bx, by) = case.block;
    let cfg = CoarseConfig::conv(bf, bo, bx, by, case.metric);
    let mask = coarse::prune_to_density(&w, &cfg, case.density)
        .map_err(|e| Mismatch::new("build-prune", format!("{e:?}")))?;
    let geom = Conv2dGeometry::square(case.k, 1, case.pad);
    let group_size = bo.min(case.n_fout).max(1);
    let layer =
        CompiledConvLayer::compile_conv("conv", &w, &mask, group_size, case.quant_bits, geom)
            .map_err(|e| {
                Mismatch::new(
                    "build-shared-index",
                    format!("coarse conv mask rejected by the format: {e:?}"),
                )
            })?;
    let input = Tensor::from_vec(
        Shape::d3(case.n_fin, case.h, case.w),
        CaseRng::from_seed(case.input_seed).fill_f32(case.n_fin * case.h * case.w, 3),
    )
    .map_err(|e| Mismatch::new("build-input", format!("{e:?}")))?;
    Ok(ConvArtifacts {
        layer,
        mask,
        input,
        geom,
    })
}

/// Runs a conv case: dense `conv2d` vs the sparse conv engine,
/// bit-identical. (The planted faults target the FC kernels, so conv
/// cases always run the production kernels.)
pub fn check_conv(art: &ConvArtifacts) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let dense4 = art.layer.to_dense();
    let want = match ops::conv2d(&art.input, &dense4, None, &art.geom) {
        Ok(t) => t,
        Err(e) => {
            out.push(Mismatch::new("dense-ref-error", format!("{e:?}")));
            return out;
        }
    };
    match art.layer.forward(&art.input) {
        Ok(got) => {
            if got.shape() != want.shape() {
                out.push(Mismatch::new(
                    "conv-shape",
                    format!("sparse {:?} vs dense {:?}", got.shape(), want.shape()),
                ));
            } else if let Some((i, s, d)) = first_diff(got.as_slice(), want.as_slice()) {
                out.push(Mismatch::new(
                    "conv-dense-vs-sparse-bits",
                    format!("element {i}: sparse {s:e} vs dense {d:e}"),
                ));
            }
        }
        Err(e) => out.push(Mismatch::new("conv-engine-error", format!("{e:?}"))),
    }
    out
}

/// Runs every check that applies to `case` — differential legs plus the
/// structural invariants — and returns all violations found. This is the
/// single predicate the runner, the shrinker, and `replay` share.
pub fn check_case(case: &Case, fault: Fault) -> Vec<Mismatch> {
    match &case.kind {
        CaseKind::FcNet(c) => match build_fc(c) {
            Ok(art) => {
                let mut m = check_fc(&art, fault);
                m.extend(crate::invariants::check_fc(c, &art));
                m
            }
            Err(m) => vec![m],
        },
        CaseKind::Conv(c) => match build_conv(c) {
            Ok(art) => {
                let mut m = check_conv(&art);
                m.extend(crate::invariants::check_conv(c, &art));
                m
            }
            Err(m) => vec![m],
        },
        CaseKind::LstmTiming(c) => crate::invariants::check_lstm(c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn production_kernels_pass_a_case_batch() {
        for k in 0..24 {
            let case = gen::generate(20180601, k);
            let m = check_case(&case, Fault::None);
            assert!(
                m.is_empty(),
                "case {k} ({}) failed: {:?}",
                case.kind.summary(),
                m
            );
        }
    }

    #[test]
    fn reversed_accumulation_differs_from_forward() {
        // A case with enough survivors per strip for summation order to
        // matter.
        let case = FcLayerCase {
            n_in: 32,
            n_out: 16,
            block_in: 4,
            block_out: 16,
            group_split: 1,
            metric: cs_sparsity::coarse::PruneMetric::Average,
            density: 0.8,
            quant_bits: 8,
            zero_weights: false,
            weight_seed: 7,
            pattern: PruneMode::Coarse,
        };
        let la = build_fc_layer(&case, 0, true).unwrap();
        let x = CaseRng::from_seed(11).fill_f32(32, 0);
        let mut fwd = vec![0.0f32; 16];
        la.engine.forward(&x, &mut fwd);
        let FcKernel::BlockCsr(csr) = &la.engine else {
            panic!("coarse case compiled to a non-block-CSR kernel");
        };
        let mut rev = vec![0.0f32; 16];
        forward_reversed(csr, &x, &mut rev);
        // Same value to float tolerance, different bits somewhere.
        for (a, b) in fwd.iter().zip(&rev) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!(
            first_diff(&fwd, &rev).is_some(),
            "reversal changed no rounding"
        );
    }

    #[test]
    fn swapped_batch_columns_are_caught_by_the_batched_leg_only() {
        let case = FcLayerCase {
            n_in: 32,
            n_out: 24,
            block_in: 4,
            block_out: 16,
            group_split: 1,
            metric: cs_sparsity::coarse::PruneMetric::Average,
            density: 0.8,
            quant_bits: 8,
            zero_weights: false,
            weight_seed: 7,
            pattern: PruneMode::Coarse,
        };
        let net = FcNetCase {
            layers: vec![case],
            input_seed: 11,
            zero_every: 3,
            spikes: false,
            poison: InputPoison::None,
        };
        let art = build_fc(&net).unwrap();
        assert!(check_fc(&art, Fault::None).is_empty());
        let caught = check_fc(&art, Fault::SwapBatchColumns);
        assert!(!caught.is_empty(), "swapped columns escaped");
        assert!(
            caught
                .iter()
                .all(|m| m.check == "fc-batched-vs-dense-bits" || m.check == "fc-gated-stats"),
            "{caught:?}"
        );
        // Exactly the two exchanged columns disagree, gated and ungated.
        let bits = caught
            .iter()
            .filter(|m| m.check == "fc-batched-vs-dense-bits")
            .count();
        assert_eq!(bits, 4, "{caught:?}");
    }

    #[test]
    fn structured_patterns_pass_every_differential_leg() {
        // Hand-built nets covering both structured patterns on ragged
        // widths, with an all-zero layer mixed in.
        for (pattern, zero) in [
            (PruneMode::TwoFour, false),
            (PruneMode::TwoFour, true),
            (PruneMode::BankBalanced { bank: 8, k: 3 }, false),
            (PruneMode::BankBalanced { bank: 4, k: 1 }, false),
        ] {
            let net = FcNetCase {
                layers: vec![
                    FcLayerCase {
                        n_in: 17,
                        n_out: 24,
                        block_in: 4,
                        block_out: 8,
                        group_split: 1,
                        metric: cs_sparsity::coarse::PruneMetric::Average,
                        density: 0.5,
                        quant_bits: 8,
                        zero_weights: zero,
                        weight_seed: 19,
                        pattern,
                    },
                    FcLayerCase {
                        n_in: 24,
                        n_out: 5,
                        block_in: 2,
                        block_out: 2,
                        group_split: 1,
                        metric: cs_sparsity::coarse::PruneMetric::Max,
                        density: 0.4,
                        quant_bits: 4,
                        zero_weights: false,
                        weight_seed: 23,
                        pattern: PruneMode::Coarse,
                    },
                ],
                input_seed: 31,
                zero_every: 3,
                spikes: false,
                poison: InputPoison::None,
            };
            let art = build_fc(&net).unwrap();
            assert_eq!(art.layers[0].engine.kind(), pattern.name());
            let m = check_fc(&art, Fault::None);
            assert!(m.is_empty(), "{pattern:?} zero {zero}: {m:?}");
        }
    }

    #[test]
    fn poisoned_inputs_pass_the_engine_only_legs() {
        // NaN/inf inputs void the dense contract; the executor must
        // fall back to engine-vs-engine legs (ungated/gated/batched)
        // and still come back green — and the planted fault must still
        // be caught on the poisoned path.
        for poison in [InputPoison::NegZero, InputPoison::NonFinite] {
            let net = FcNetCase {
                layers: vec![FcLayerCase {
                    n_in: 24,
                    n_out: 16,
                    block_in: 4,
                    block_out: 16,
                    group_split: 1,
                    metric: cs_sparsity::coarse::PruneMetric::Average,
                    density: 0.6,
                    quant_bits: 8,
                    zero_weights: false,
                    weight_seed: 41,
                    pattern: PruneMode::Coarse,
                }],
                input_seed: 43,
                zero_every: 2,
                spikes: false,
                poison,
            };
            let art = build_fc(&net).unwrap();
            match poison {
                InputPoison::NegZero => {
                    assert_eq!(art.input[0].to_bits(), (-0.0f32).to_bits());
                }
                _ => assert!(art.input[0].is_nan() && art.input[1].is_infinite()),
            }
            let m = check_fc(&art, Fault::None);
            assert!(m.is_empty(), "{poison:?}: {m:?}");
            // The planted fault must still be caught on the finite
            // poison. (NaN/inf can saturate every output with the same
            // poison bits, where reversal legitimately has nothing to
            // change — so NonFinite makes no catch promise.)
            if poison == InputPoison::NegZero {
                let caught = check_fc(&art, Fault::ReverseAccumulation);
                assert!(
                    !caught.is_empty(),
                    "planted fault escaped on {poison:?} input"
                );
            }
        }
    }

    #[test]
    fn two_nan_payloads_across_kernel_paths_are_identified() {
        // Regression (seed 42 case 396): a 2:4 layer whose survivors
        // all carry exact-zero weights turns the poisoned input's inf
        // into a second NaN payload (`inf * 0.0` = 0xFFC00000 vs the
        // input's 0x7FC00000), and two kernel paths adding the same
        // terms (the AVX2 strip and the scalar remainder, say) may keep
        // different payloads. The engine-vs-engine legs must treat
        // every NaN encoding as equal rather than comparing payload
        // bits.
        let net = FcNetCase {
            layers: vec![FcLayerCase {
                n_in: 4,
                n_out: 8,
                block_in: 16,
                block_out: 16,
                group_split: 1,
                metric: cs_sparsity::coarse::PruneMetric::Average,
                density: 1.0,
                quant_bits: 8,
                zero_weights: true,
                weight_seed: 3,
                pattern: PruneMode::TwoFour,
            }],
            input_seed: 5,
            zero_every: 0,
            spikes: false,
            poison: InputPoison::NonFinite,
        };
        let art = build_fc(&net).unwrap();
        let m = check_fc(&art, Fault::None);
        assert!(m.is_empty(), "{m:?}");
    }
}
