//! Served-output conformance: every serving front held to the direct
//! lane and the off-server oracle.
//!
//! The case's compiled layers (coarse shared-index or bank-balanced) are
//! registered as a [`ServableModel`] and queried through a *front*: an
//! in-process [`Server`] here, loopback TCP in [`crate::net_check`], a
//! two-node cluster in [`crate::cluster_check`]. A front supplies only
//! how to start, send a probe and stop (`Front`); one routine,
//! `check_front`, owns the probes, the expected outputs and the
//! comparison. Every reply must be:
//!
//! * bit-identical to the direct engine lane
//!   ([`ServableModel::sparse_lane`]) on every probe — batching, queuing,
//!   scheduling, the wire and the router must never perturb arithmetic;
//! * bit-identical to the off-server oracle
//!   ([`ServableModel::dense_lane`], `matmul` over the decoded twin) on
//!   finite probes — a poisoned case input voids the dense contract, as
//!   in the direct legs;
//! * free of hardware cost (`cycles == 0`, `energy_pj == 0.0`: engine
//!   lanes model none, which is why the server's snapshot keeps them out
//!   of the hardware-side figures) and stamped with the front's node.
//!
//! [`check_serve`] runs the routine on an in-process Sparse server (the
//! engine lane, which always gates), then holds the default Simulator backend to a direct
//! [`Accelerator::run_network`]: outputs bit for bit (NaN encodings
//! identified), `cycles`, and `energy_pj` as the energy model prices the
//! direct run's counters.

use cs_accel::exec::Accelerator;
use cs_accel::AccelConfig;
use cs_energy::energy::energy_cambricon_s;
use cs_energy::EnergyModel;
use cs_net::NetResponse;
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

/// A registry holding only the case's model.
pub(crate) fn registry_of(model: &ServableModel) -> Result<ModelRegistry, cs_serve::ServeError> {
    let mut registry = ModelRegistry::new();
    registry.register(model.clone())?;
    Ok(registry)
}

/// Random inputs of varying dynamic sparsity, then the case's own
/// (possibly poisoned) input.
fn probes(art: &FcArtifacts, probe_seed: u64) -> Vec<Vec<f32>> {
    let n_in = art.layers[0].shared.n_in;
    let mut rng = CaseRng::from_seed(probe_seed);
    let mut probes: Vec<Vec<f32>> = (0..PROBES - 1).map(|i| rng.fill_f32(n_in, i + 1)).collect();
    probes.push(art.input.clone());
    probes
}

/// One served reply: `(outputs, cycles, energy_pj, node)`.
pub(crate) type Reply = (Vec<f32>, u64, f64, String);

/// A reply as it came off the wire.
pub(crate) fn reply_of(r: NetResponse) -> Reply {
    (r.outputs, r.cycles, r.energy_pj, r.node)
}

/// A way of serving the case's model, started by the closure given to
/// `check_front`.
pub(crate) trait Front {
    /// What every reply's node identity must start with.
    const NODE: &'static str;
    fn send(&mut self, probe: &[f32]) -> Result<Reply, String>;
    fn stop(self) -> Result<(), String>;
}

/// An in-process [`Server`] with two workers.
struct InProcess(Server);

impl InProcess {
    fn start(model: &ServableModel, backend: ExecBackend) -> Result<Self, String> {
        let cfg = ServeConfig {
            workers: 2,
            backend,
            ..ServeConfig::default()
        };
        let registry = registry_of(model).map_err(|e| format!("{e:?}"))?;
        Server::start(registry, cfg)
            .map(InProcess)
            .map_err(|e| format!("{e:?}"))
    }
}

impl Front for InProcess {
    const NODE: &'static str = "local";

    fn send(&mut self, probe: &[f32]) -> Result<Reply, String> {
        let r = (self.0)
            .infer(InferRequest::new(MODEL, probe.to_vec()))
            .map_err(|e| format!("{e:?}"))?;
        Ok((r.outputs, r.cycles, r.energy_pj, r.node))
    }

    fn stop(self) -> Result<(), String> {
        self.0.shutdown();
        Ok(())
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Serves the case's model through the front `start` returns and holds
/// every reply to the direct engine lane and the off-server oracle (see
/// the module doc). Mismatch ids start with `check`.
pub(crate) fn check_front<F: Front>(
    art: &FcArtifacts,
    probe_seed: u64,
    check: &str,
    start: impl FnOnce(&ServableModel) -> Result<F, String>,
) -> Vec<Mismatch> {
    let model = model_from(art);
    let (lane, oracle) = (model.sparse_lane(), model.dense_lane());
    let mut front = match start(&model) {
        Ok(f) => f,
        Err(e) => return vec![Mismatch::new(format!("{check}-start"), e)],
    };
    let mut out = Vec::new();
    let mut fail = |what: &str, detail: String| {
        out.push(Mismatch::new(format!("{check}-{what}"), detail));
    };
    for (pi, probe) in probes(art, probe_seed).iter().enumerate() {
        let (direct, dense) = match (lane.forward(probe), oracle.forward(probe)) {
            (Ok(direct), Ok(dense)) => (direct, dense),
            (Err(e), _) | (_, Err(e)) => {
                fail("lane-error", format!("probe {pi}: {e:?}"));
                break;
            }
        };
        let (outputs, cycles, energy_pj, node) = match front.send(probe) {
            Ok(r) => r,
            Err(e) => {
                fail("request", format!("probe {pi}: {e}"));
                continue;
            }
        };
        if bits(&outputs) != bits(&direct) {
            fail(
                "vs-direct-bits",
                format!("probe {pi}: served output differs from the direct lane"),
            );
        }
        // A non-finite probe (the case's poisoned input) voids the dense
        // contract: the oracle multiplies NaN/inf through the explicitly
        // zeroed pruned weights the engine never touches, exactly like
        // the direct dense leg in `diff`.
        if probe.iter().all(|v| v.is_finite()) && bits(&outputs) != bits(&dense) {
            fail(
                "vs-dense-bits",
                format!("probe {pi}: served output differs from the dense oracle"),
            );
        }
        if cycles != 0 || energy_pj != 0.0 {
            fail(
                "engine-cost",
                format!("probe {pi}: engine lane reports {cycles} cycles / {energy_pj} pJ"),
            );
        }
        if !node.starts_with(F::NODE) {
            fail(
                "node-identity",
                format!(
                    "probe {pi}: reply from node {node:?}, expected {:?}…",
                    F::NODE
                ),
            );
        }
    }
    if let Err(e) = front.stop() {
        fail("stop", e);
    }
    out
}

/// Serves the case's layers in process: the Sparse backend through
/// `check_front`, then the Simulator backend against a direct
/// `run_network` (outputs, cycles and energy).
pub fn check_serve(art: &FcArtifacts, probe_seed: u64) -> Vec<Mismatch> {
    let mut out = check_front(art, probe_seed, "serve-sparse", |m| {
        InProcess::start(m, ExecBackend::Sparse)
    });
    let model = model_from(art);
    let mut server = match InProcess::start(&model, ExecBackend::Simulator) {
        Ok(s) => s,
        Err(e) => {
            out.push(Mismatch::new("serve-sim-start", e));
            return out;
        }
    };
    let layers = model.shared_layers();
    let accel = Accelerator::new(AccelConfig::paper_default());
    let energy_model = EnergyModel::default_65nm();
    for (pi, probe) in probes(art, probe_seed).iter().enumerate() {
        let direct = match accel.run_network(&layers, probe) {
            Ok(run) => run,
            Err(e) => {
                out.push(Mismatch::new("serve-sim-error", format!("{e:?}")));
                break;
            }
        };
        let (outputs, cycles, energy_pj, _) = match server.send(probe) {
            Ok(r) => r,
            Err(e) => {
                out.push(Mismatch::new(
                    "serve-sim-request",
                    format!("probe {pi}: {e}"),
                ));
                continue;
            }
        };
        let want_energy = energy_cambricon_s(&direct.stats, &energy_model).total_pj();
        if !outputs_equivalent(&outputs, &direct.outputs) {
            out.push(Mismatch::new(
                "serve-sim-vs-direct-bits",
                format!("probe {pi}: served simulator output differs from direct run_network"),
            ));
        }
        if cycles != direct.stats.cycles || energy_pj.to_bits() != want_energy.to_bits() {
            out.push(Mismatch::new(
                "serve-sim-vs-direct-cost",
                format!(
                    "probe {pi}: served simulator reply costs {cycles} cycles / {energy_pj} pJ, \
                     direct run_network {} cycles / {want_energy} pJ",
                    direct.stats.cycles
                ),
            ));
        }
    }
    server.0.shutdown();
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

    /// The case of `poisoned_case_input_voids_only_the_dense_probe`: one
    /// coarse layer, and a case input whose first element is NaN.
    fn poisoned_case() -> FcArtifacts {
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
        art
    }

    #[test]
    fn poisoned_case_input_voids_only_the_dense_probe() {
        // Regression (seed 777 case 100): the last probe is the case's
        // own input, which may be NaN/inf-poisoned — the comparison
        // with the dense oracle must skip it (dense-contract void),
        // while serve-vs-direct stays exact on every probe.
        let m = check_serve(&poisoned_case(), 0xBAD_F00D);
        assert!(m.is_empty(), "{m:?}");
    }

    /// A front that answers from the direct lane with the sign bit of
    /// its first output flipped.
    struct OneBitOff(cs_serve::CompiledLane);

    impl Front for OneBitOff {
        const NODE: &'static str = "local";

        fn send(&mut self, probe: &[f32]) -> Result<Reply, String> {
            let mut outputs = self.0.forward(probe).map_err(|e| format!("{e:?}"))?;
            outputs[0] = f32::from_bits(outputs[0].to_bits() ^ 0x8000_0000);
            Ok((outputs, 0, 0.0, "local".to_string()))
        }

        fn stop(self) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn a_flipped_output_bit_fails_both_references() {
        let art = poisoned_case();
        let m = check_front(&art, 0xBAD_F00D, "flip", |model| {
            Ok(OneBitOff(model.sparse_lane()))
        });
        let at = |check: &str| -> Vec<String> {
            m.iter()
                .filter(|x| x.check == check)
                .map(|x| x.detail.clone())
                .collect()
        };
        // Every probe misses the direct lane; only the three finite
        // ones reach the oracle (the fourth is the NaN case input).
        let direct = at("flip-vs-direct-bits");
        let dense = at("flip-vs-dense-bits");
        assert_eq!(direct.len(), PROBES, "{m:?}");
        assert_eq!(dense.len(), PROBES - 1, "{m:?}");
        assert!(dense.iter().all(|d| !d.starts_with("probe 3:")), "{m:?}");
        assert_eq!(m.len(), direct.len() + dense.len(), "{m:?}");
    }
}
