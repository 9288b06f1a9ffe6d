//! Structural invariants over simulator, timing-model, and baseline
//! outputs.
//!
//! Unlike the differential legs (which compare *values* across
//! backends), these checks assert properties every run must satisfy
//! regardless of the case drawn:
//!
//! * functional simulator: cycles are positive, the busy/stall split
//!   covers the elapsed cycles exactly, and the MAC count equals the
//!   NSM's selection count (static survivors that are dynamically
//!   non-zero) times the group's lane count — exactly;
//! * timing model: cycles are monotone in work (halving static density
//!   or sequence length never costs more), and sparse DRAM traffic
//!   stays under the dense configuration's traffic plus the codebook
//!   LUTs the dense run does not ship;
//! * Cambricon-X baseline: its MAC count is `round(dense_macs ×
//!   static_density)` and its cycles ignore dynamic sparsity;
//! * EIE baseline: its reported latency is consistent with the layer's
//!   sparse MAC count under the published 64-PE / 800 MHz / 0.8
//!   efficiency parameters;
//! * `StepIndex` round-trips every compiled layer's mask at 4- and
//!   8-bit step widths, placeholders included.

use cs_accel::config::AccelConfig;
use cs_accel::exec::Accelerator;
use cs_accel::pe::Activation;
use cs_accel::timing::{simulate_layer, simulate_layer_dense, LayerTiming, TimingRun};
use cs_baselines::{cambricon_x, eie::EieModel};
use cs_nn::spec::{LayerSpec, LayerSpecKind};
use cs_sparsity::indexing::StepIndex;
use cs_sparsity::Mask;

use crate::diff::{ConvArtifacts, FcArtifacts};
use crate::gen::{ConvCase, FcNetCase, LstmTimingCase};
use crate::Mismatch;

fn check_step_index(mask: &Mask, what: &str, out: &mut Vec<Mismatch>) {
    let expected: Vec<usize> = mask
        .bits()
        .iter()
        .enumerate()
        .filter(|(_, b)| **b)
        .map(|(i, _)| i)
        .collect();
    for bits in [4u8, 8] {
        let enc = StepIndex::encode(mask, bits);
        if enc.positions() != expected {
            out.push(Mismatch::new(
                "step-index-roundtrip",
                format!(
                    "{what}: {bits}-bit decode yields {} positions, mask has {}",
                    enc.positions().len(),
                    expected.len()
                ),
            ));
        }
        if enc.stored_entries() != expected.len() + enc.placeholders() {
            out.push(Mismatch::new(
                "step-index-entries",
                format!(
                    "{what}: {} stored entries vs {} survivors + {} placeholders",
                    enc.stored_entries(),
                    expected.len(),
                    enc.placeholders()
                ),
            ));
        }
    }
}

/// Codebook LUT bytes the timing model charges a quantized run (the
/// dense 16-bit configuration ships none), mirroring
/// [`cs_accel::timing::simulate_layer`].
fn lut_bytes(surviving: u64, weight_bits: u8) -> u64 {
    if weight_bits >= 16 {
        return 0;
    }
    surviving.div_ceil(16_384).max(1) * (1u64 << weight_bits.min(12)) * 2
}

fn check_timing(lt: &LayerTiming, what: &str, out: &mut Vec<Mismatch>) {
    let cfg = AccelConfig::paper_default();
    let run = simulate_layer(&cfg, lt);
    check_timing_run(&run, what, out);

    // Monotone in work: half the static density never costs more.
    let half = LayerTiming {
        static_density: lt.static_density / 2.0,
        ..lt.clone()
    };
    let half_run = simulate_layer(&cfg, &half);
    if half_run.stats.cycles > run.stats.cycles {
        out.push(Mismatch::new(
            "timing-monotone-density",
            format!(
                "{what}: density {:.4} costs {} cycles but {:.4} costs {}",
                half.static_density, half_run.stats.cycles, lt.static_density, run.stats.cycles
            ),
        ));
    }

    // Sparse DRAM traffic bounded by the dense configuration's traffic
    // plus the codebook LUTs the dense run does not ship.
    let dense = simulate_layer_dense(&cfg, lt);
    let bound = dense.stats.dram_read_bytes + lut_bytes(lt.surviving_weights(), lt.weight_bits);
    if run.stats.dram_read_bytes > bound {
        out.push(Mismatch::new(
            "timing-dram-bound",
            format!(
                "{what}: sparse reads {} B exceed dense {} B + LUT bound",
                run.stats.dram_read_bytes, dense.stats.dram_read_bytes
            ),
        ));
    }
    if run.stats.cycles > dense.stats.cycles {
        out.push(Mismatch::new(
            "timing-dense-bound",
            format!(
                "{what}: sparse {} cycles exceed dense {} cycles",
                run.stats.cycles, dense.stats.cycles
            ),
        ));
    }

    // Cambricon-X: MACs follow static density exactly; dynamic sparsity
    // must not change its cycle count.
    let x = cambricon_x::simulate_layer(lt);
    let x_macs = (lt.dense_macs() as f64 * lt.static_density).round() as u64;
    if x.stats.macs != x_macs {
        out.push(Mismatch::new(
            "cambricon-x-macs",
            format!(
                "{what}: model reports {} MACs, expected {x_macs}",
                x.stats.macs
            ),
        ));
    }
    let dyn_flip = LayerTiming {
        dynamic_density: (lt.dynamic_density * 0.5).max(0.01),
        ..lt.clone()
    };
    let x2 = cambricon_x::simulate_layer(&dyn_flip);
    if x2.stats.cycles != x.stats.cycles {
        out.push(Mismatch::new(
            "cambricon-x-dynamic",
            format!(
                "{what}: cycles moved from {} to {} with dynamic density — X has no NSM",
                x.stats.cycles, x2.stats.cycles
            ),
        ));
    }

    // EIE: latency consistent with the sparse MAC count under its
    // published parameters.
    let e = EieModel::paper_default();
    let micros = e.fc_micros(lt);
    let implied = micros * e.pes as f64 * e.efficiency * e.freq_ghz * 1000.0;
    let macs = lt.sparse_macs() as f64;
    if (implied - macs).abs() > 1e-6 * macs.max(1.0) {
        out.push(Mismatch::new(
            "eie-macs",
            format!("{what}: {micros}us implies {implied} MACs, layer has {macs}"),
        ));
    }
}

fn check_timing_run(run: &TimingRun, what: &str, out: &mut Vec<Mismatch>) {
    let s = &run.stats;
    if s.cycles == 0 {
        out.push(Mismatch::new("timing-zero-cycles", what.to_string()));
    }
    if s.compute_busy_cycles + s.dram_stall_cycles != s.cycles {
        out.push(Mismatch::new(
            "timing-busy-stall-split",
            format!(
                "{what}: busy {} + stall {} != cycles {}",
                s.compute_busy_cycles, s.dram_stall_cycles, s.cycles
            ),
        ));
    }
}

/// Invariants for a materialized FC case.
pub fn check_fc(case: &FcNetCase, art: &FcArtifacts) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let accel = Accelerator::new(AccelConfig::paper_default());
    for (li, la) in art.layers.iter().enumerate() {
        let what = format!("fc layer {li}");
        if (la.shared.density() - la.mask.density()).abs() > 1e-9 {
            out.push(Mismatch::new(
                "density-consistency",
                format!(
                    "{what}: shared-index density {:.6} vs mask density {:.6}",
                    la.shared.density(),
                    la.mask.density()
                ),
            ));
        }
        check_step_index(&la.mask, &what, &mut out);

        // Functional-simulator activity invariants on the case input
        // (layer 0 only: later layers' inputs depend on float rounding,
        // so their dynamic-zero sets are not case-determined).
        if li == 0 {
            match accel.run_layer(&la.shared, &art.input, Activation::None) {
                Ok(run) => {
                    let s = &run.stats;
                    if s.cycles == 0 {
                        out.push(Mismatch::new("sim-zero-cycles", what.clone()));
                    }
                    if s.compute_busy_cycles + s.dram_stall_cycles != s.cycles {
                        out.push(Mismatch::new(
                            "sim-busy-stall-split",
                            format!(
                                "{what}: busy {} + stall {} != cycles {}",
                                s.compute_busy_cycles, s.dram_stall_cycles, s.cycles
                            ),
                        ));
                    }
                    let expected_macs: u64 = la
                        .shared
                        .groups
                        .iter()
                        .map(|g| {
                            let selected = g
                                .index
                                .iter()
                                .zip(&art.input)
                                .filter(|(b, x)| **b && **x != 0.0)
                                .count();
                            (selected * g.weights.len()) as u64
                        })
                        .sum();
                    if s.macs != expected_macs {
                        out.push(Mismatch::new(
                            "sim-mac-count",
                            format!(
                                "{what}: simulator executed {} MACs, survivors imply {expected_macs}",
                                s.macs
                            ),
                        ));
                    }
                    let nbin_bound = (la.shared.n_in * accel.config().neuron_bytes) as u64;
                    if s.nbin_peak_bytes > nbin_bound {
                        out.push(Mismatch::new(
                            "sim-nbin-peak",
                            format!(
                                "{what}: NBin peak {} B exceeds whole-input bound {} B",
                                s.nbin_peak_bytes, nbin_bound
                            ),
                        ));
                    }
                }
                Err(e) => out.push(Mismatch::new("sim-error", format!("{what}: {e:?}"))),
            }
        }

        let dynamic = if li == 0 {
            let nz = art.input.iter().filter(|x| **x != 0.0).count();
            (nz as f64 / art.input.len().max(1) as f64).max(0.01)
        } else {
            1.0
        };
        let lt = LayerTiming::fc(
            la.shared.n_in,
            la.shared.n_out,
            la.mask.density().max(1e-6),
            dynamic,
            case.layers[li].quant_bits,
        );
        check_timing(&lt, &what, &mut out);
    }
    out
}

/// Invariants for a materialized conv case.
pub fn check_conv(case: &ConvCase, art: &ConvArtifacts) -> Vec<Mismatch> {
    let mut out = Vec::new();
    check_step_index(&art.mask, "conv", &mut out);
    if (art.layer.density() - art.mask.density()).abs() > 1e-9 {
        out.push(Mismatch::new(
            "density-consistency",
            format!(
                "conv: engine density {:.6} vs mask density {:.6}",
                art.layer.density(),
                art.mask.density()
            ),
        ));
    }
    let (oh, ow) = match art.geom.output_size(case.h, case.w) {
        Ok(v) => v,
        Err(e) => {
            out.push(Mismatch::new("conv-geometry", format!("{e:?}")));
            return out;
        }
    };
    let lt = LayerTiming::conv(
        case.n_fin,
        case.n_fout,
        case.k,
        oh,
        ow,
        case.h,
        case.w,
        art.mask.density().max(1e-6),
        0.7,
        case.quant_bits,
    );
    // The EIE consistency check is FC-specific but harmless here: it
    // only relates fc_micros to sparse_macs, both defined for any shape.
    check_timing(&lt, "conv", &mut out);
    out
}

/// Invariants for an LSTM timing case (the engines have no recurrent
/// kernel, so these cases exercise the timing stack only).
pub fn check_lstm(case: &LstmTimingCase) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let spec = LayerSpec::new(
        "lstm",
        LayerSpecKind::Lstm {
            n_in: case.n_in,
            n_hidden: case.n_hidden,
            seq_len: case.seq_len,
        },
    );
    let lt = LayerTiming::from_spec(
        &spec,
        case.static_density,
        case.dynamic_density,
        case.weight_bits,
    );
    if lt.n_in != case.n_in + case.n_hidden
        || lt.n_out != 4 * case.n_hidden
        || lt.positions != case.seq_len
    {
        out.push(Mismatch::new(
            "lstm-spec-lowering",
            format!(
                "({}, {}, {}) lowered to n_in {} n_out {} positions {}",
                case.n_in, case.n_hidden, case.seq_len, lt.n_in, lt.n_out, lt.positions
            ),
        ));
    }
    check_timing(&lt, "lstm", &mut out);

    // Monotone in sequence length: half the timesteps never cost more.
    let cfg = AccelConfig::paper_default();
    let full = simulate_layer(&cfg, &lt);
    let short = LayerTiming {
        positions: (lt.positions / 2).max(1),
        input_neurons: lt.input_neurons / 2,
        output_neurons: lt.output_neurons / 2,
        ..lt.clone()
    };
    let short_run = simulate_layer(&cfg, &short);
    if short_run.stats.cycles > full.stats.cycles {
        out.push(Mismatch::new(
            "timing-monotone-seq",
            format!(
                "lstm: {} steps cost {} cycles but {} steps cost {}",
                short.positions, short_run.stats.cycles, lt.positions, full.stats.cycles
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, CaseKind};

    #[test]
    fn lstm_invariants_hold_on_generated_cases() {
        let mut seen = 0;
        for k in 0..128 {
            if let CaseKind::LstmTiming(c) = gen::generate(3, k).kind {
                let m = check_lstm(&c);
                assert!(m.is_empty(), "case {k}: {m:?}");
                seen += 1;
            }
        }
        assert!(seen > 4, "too few LSTM cases: {seen}");
    }

    #[test]
    fn step_index_check_flags_a_corrupted_decode() {
        // Sanity: the checker itself detects a broken mask/positions
        // pairing by construction (encode/decode of a valid mask always
        // agrees, so run it on a real mask and expect silence).
        let mask = Mask::from_bits(
            cs_tensor::Shape::d1(10),
            vec![
                true, false, false, true, true, false, false, false, false, true,
            ],
        )
        .unwrap();
        let mut out = Vec::new();
        check_step_index(&mask, "test", &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}
