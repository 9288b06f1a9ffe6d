//! Backend-agreement check on *served* outputs.
//!
//! The differential executor exercises the kernels directly; this module
//! closes the loop through `cs-serve`: the same compiled layer formats
//! (coarse shared-index, packed 2:4, or bank-balanced) are registered as
//! a [`ServableModel`], started under the Sparse and Dense engine
//! backends and the default Simulator backend, and queried with
//! identical inputs. The contract:
//!
//! * Sparse-served and Dense-served outputs are **bit-identical** to
//!   each other (on finite probes — a poisoned case input voids the
//!   dense contract, as in the direct legs) and to a direct (unserved)
//!   lane forward — batching, queuing, and worker scheduling must
//!   never perturb arithmetic;
//! * engine-lane responses report `cycles == 0` (no hardware model ran),
//!   which is exactly why the server's snapshot counts `hw_completed`
//!   from the per-request hardware histogram and keeps them out of the
//!   hardware-side throughput figures;
//! * Simulator-served responses equal a direct
//!   [`Accelerator::run_network`] on the same layers: outputs bit for
//!   bit (NaN encodings identified), `cycles`, and `energy_pj` as the
//!   energy model prices the direct run's counters.

use cs_accel::exec::Accelerator;
use cs_accel::AccelConfig;
use cs_energy::energy::energy_cambricon_s;
use cs_energy::EnergyModel;
use cs_serve::{
    outputs_equivalent, ExecBackend, InferRequest, ModelRegistry, ServableModel, ServeConfig,
    Server,
};

use crate::diff::FcArtifacts;
use crate::rng::CaseRng;
use crate::Mismatch;

pub(crate) const MODEL: &str = "conformance";
const PROBES: usize = 4;

pub(crate) fn model_from(art: &FcArtifacts) -> ServableModel {
    let layers: Vec<_> = art
        .layers
        .iter()
        .map(|la| (la.format.clone(), la.activation))
        .collect();
    let n_in = layers[0].0.n_in();
    let n_out = layers[layers.len() - 1].0.n_out();
    ServableModel {
        name: MODEL.to_string(),
        layers,
        n_in,
        n_out,
    }
}

/// One served reply: `(outputs, cycles, energy_pj)`.
type Served = (Vec<f32>, u64, f64);

fn serve_outputs(
    art: &FcArtifacts,
    backend: ExecBackend,
    probes: &[Vec<f32>],
) -> Result<Vec<Served>, Mismatch> {
    let mut registry = ModelRegistry::new();
    registry.register(model_from(art)).map_err(|e| {
        Mismatch::new(
            "serve-admission",
            format!("registry rejected the case's layers: {e:?}"),
        )
    })?;
    let cfg = ServeConfig {
        workers: 2,
        backend,
        ..ServeConfig::default()
    };
    let server = Server::start(registry, cfg)
        .map_err(|e| Mismatch::new("serve-start", format!("{backend:?}: {e:?}")))?;
    let mut out = Vec::with_capacity(probes.len());
    for p in probes {
        let resp = server
            .infer(InferRequest::new(MODEL, p.clone()))
            .map_err(|e| Mismatch::new("serve-infer", format!("{backend:?}: {e:?}")))?;
        out.push((resp.outputs, resp.cycles, resp.energy_pj));
    }
    server.shutdown();
    Ok(out)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Serves the case's layers under both engine backends and the
/// simulator and checks agreement.
pub fn check_serve(art: &FcArtifacts, probe_seed: u64) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let n_in = art.layers[0].shared.n_in;
    let mut rng = CaseRng::from_seed(probe_seed);
    let mut probes: Vec<Vec<f32>> = (0..PROBES - 1)
        .map(|i| rng.fill_f32(n_in, i + 1)) // varying dynamic sparsity
        .collect();
    probes.push(art.input.clone());

    let serve = |backend| serve_outputs(art, backend, &probes);
    let (sparse, dense, sim) = match (
        serve(ExecBackend::Sparse),
        serve(ExecBackend::Dense),
        serve(ExecBackend::Simulator),
    ) {
        (Ok(sparse), Ok(dense), Ok(sim)) => (sparse, dense, sim),
        (Err(m), _, _) | (_, Err(m), _) | (_, _, Err(m)) => return vec![m],
    };

    // Unserved references: the sparse lane and the simulator run
    // directly on this thread.
    let model = model_from(art);
    let lane = model.sparse_lane();
    let layers = model.shared_layers();
    let accel = Accelerator::new(AccelConfig::paper_default());
    let energy_model = EnergyModel::default_65nm();
    for (pi, probe) in probes.iter().enumerate() {
        let want = match lane.forward(probe) {
            Ok(v) => v,
            Err(e) => {
                out.push(Mismatch::new("serve-lane-error", format!("{e:?}")));
                return out;
            }
        };
        let (sp, sp_cycles, _) = &sparse[pi];
        let (de, de_cycles, _) = &dense[pi];
        // A non-finite probe (the case's poisoned input) voids the
        // dense contract — the dense lane multiplies NaN/inf through
        // explicitly-zeroed pruned weights the sparse kernels never
        // touch — exactly like the direct dense leg in `diff`.
        if probe.iter().all(|v| v.is_finite()) && bits(sp) != bits(de) {
            out.push(Mismatch::new(
                "serve-sparse-vs-dense-bits",
                format!("probe {pi}: served sparse and dense outputs differ"),
            ));
        }
        if bits(sp) != bits(&want) {
            out.push(Mismatch::new(
                "serve-vs-direct-bits",
                format!("probe {pi}: served output differs from direct lane forward"),
            ));
        }
        if *sp_cycles != 0 || *de_cycles != 0 {
            out.push(Mismatch::new(
                "serve-engine-cycles",
                format!(
                    "probe {pi}: engine lanes must report 0 cycles, got sparse {sp_cycles} / dense {de_cycles}"
                ),
            ));
        }

        let direct = match accel.run_network(&layers, probe) {
            Ok(run) => run,
            Err(e) => {
                out.push(Mismatch::new("serve-sim-error", format!("{e:?}")));
                return out;
            }
        };
        let want_energy = energy_cambricon_s(&direct.stats, &energy_model).total_pj();
        let (si, si_cycles, si_energy) = &sim[pi];
        if !outputs_equivalent(si, &direct.outputs) {
            out.push(Mismatch::new(
                "serve-sim-vs-direct-bits",
                format!("probe {pi}: served simulator output differs from direct run_network"),
            ));
        }
        if *si_cycles != direct.stats.cycles || si_energy.to_bits() != want_energy.to_bits() {
            out.push(Mismatch::new(
                "serve-sim-vs-direct-cost",
                format!(
                    "probe {pi}: served simulator reply costs {si_cycles} cycles / \
                     {si_energy} pJ, direct run_network {} cycles / {want_energy} pJ",
                    direct.stats.cycles
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::build_fc;
    use crate::gen::{self, CaseKind};

    #[test]
    fn served_backends_agree_on_generated_cases() {
        let mut checked = 0;
        for k in 0..32 {
            if let CaseKind::FcNet(c) = gen::generate(20180601, k).kind {
                let art = build_fc(&c).unwrap();
                let m = check_serve(&art, 0xC0FFEE ^ k);
                assert!(m.is_empty(), "case {k}: {m:?}");
                checked += 1;
                if checked == 3 {
                    break; // three cases keep the test fast
                }
            }
        }
        assert_eq!(checked, 3);
    }

    #[test]
    fn poisoned_case_input_voids_only_the_dense_probe() {
        // Regression (seed 777 case 100): the last probe is the case's
        // own input, which may be NaN/inf-poisoned — the served
        // sparse-vs-dense comparison must skip it (dense-contract
        // void), while serve-vs-direct stays exact on every probe.
        use crate::gen::{FcLayerCase, FcNetCase, InputPoison};
        use cs_sparsity::PruneMode;
        let net = FcNetCase {
            layers: vec![FcLayerCase {
                n_in: 16,
                n_out: 8,
                block_in: 4,
                block_out: 8,
                group_split: 1,
                metric: cs_sparsity::coarse::PruneMetric::Average,
                density: 0.5,
                quant_bits: 8,
                zero_weights: false,
                weight_seed: 9,
                pattern: PruneMode::Coarse,
            }],
            input_seed: 17,
            zero_every: 0,
            spikes: false,
            poison: InputPoison::NonFinite,
        };
        let art = build_fc(&net).unwrap();
        assert!(art.input[0].is_nan());
        let m = check_serve(&art, 0xBAD_F00D);
        assert!(m.is_empty(), "{m:?}");
    }
}
