//! Cluster-path conformance: orchestrator-routed vs direct execution.
//!
//! [`check_serve_cluster`] extends the socket differential of
//! [`crate::net_check`] one more hop: the case's model is replicated
//! across a two-node in-process cluster ([`cs_cluster::LocalCluster`] —
//! real TCP, real worker agents, real routing), the same probes are
//! submitted through the **orchestrator**, and the routed outputs must
//! be bit-identical to a direct in-process lane forward on both the
//! Sparse and Dense backends. Replicas are built from the same
//! deterministic artifacts, so whichever node the router picks, the
//! bits must match — which is exactly the property that makes failover
//! transparent to clients.

use cs_cluster::{LocalCluster, LocalClusterConfig};
use cs_net::Client;
use cs_serve::{ExecBackend, ModelRegistry};

use crate::diff::FcArtifacts;
use crate::rng::CaseRng;
use crate::serve_check::{model_from, MODEL};
use crate::Mismatch;

/// Probes per backend for the cluster differential.
const CLUSTER_PROBES: usize = 4;

/// Nodes in the differential cluster (two, so routing has a real
/// choice to make).
const CLUSTER_NODES: usize = 2;

/// Serves the case's layers through a two-node loopback cluster under
/// both engine backends and checks that orchestrator-routed outputs are
/// bit-identical to a direct in-process lane forward.
pub fn check_serve_cluster(art: &FcArtifacts, probe_seed: u64) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let n_in = art.layers[0].shared.n_in;
    let mut rng = CaseRng::from_seed(probe_seed);
    let mut probes: Vec<Vec<f32>> = (0..CLUSTER_PROBES - 1)
        .map(|i| rng.fill_f32(n_in, i + 1))
        .collect();
    probes.push(art.input.clone());

    let lane = model_from(art).sparse_lane();
    for backend in [ExecBackend::Sparse, ExecBackend::Dense] {
        let cluster = match LocalCluster::start(
            &LocalClusterConfig {
                nodes: CLUSTER_NODES,
                backend,
                ..LocalClusterConfig::default()
            },
            std::sync::Arc::new(cs_telemetry::NoopRecorder),
            &|_node| {
                let mut registry = ModelRegistry::new();
                registry.register(model_from(art))?;
                Ok(registry)
            },
        ) {
            Ok(c) => c,
            Err(e) => return vec![Mismatch::new("cluster-start", format!("{backend:?}: {e}"))],
        };
        let mut client = match Client::connect(&cluster.orch_addr()) {
            Ok(c) => c,
            Err(e) => {
                return vec![Mismatch::new(
                    "cluster-connect",
                    format!("{backend:?}: {e}"),
                )]
            }
        };
        for (pi, probe) in probes.iter().enumerate() {
            let want = match lane.forward(probe) {
                Ok(v) => v,
                Err(e) => {
                    out.push(Mismatch::new("cluster-lane-error", format!("{e:?}")));
                    return out;
                }
            };
            match client.request(MODEL, probe) {
                Ok(resp) => {
                    let got: Vec<u32> = resp.outputs.iter().map(|v| v.to_bits()).collect();
                    let exp: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
                    if got != exp {
                        out.push(Mismatch::new(
                            "cluster-vs-direct-bits",
                            format!(
                                "{backend:?} probe {pi}: orchestrator-routed \
                                 output differs from direct lane forward (node {:?})",
                                resp.node
                            ),
                        ));
                    }
                    if !resp.node.starts_with("node-") {
                        out.push(Mismatch::new(
                            "cluster-node-identity",
                            format!(
                                "{backend:?} probe {pi}: response carries \
                                 node {:?}, expected a registered cluster identity",
                                resp.node
                            ),
                        ));
                    }
                }
                Err(e) => out.push(Mismatch::new(
                    "cluster-request",
                    format!("{backend:?} probe {pi}: {e}"),
                )),
            }
        }
        if let Err(e) = cluster.stop() {
            out.push(Mismatch::new("cluster-stop", format!("{backend:?}: {e}")));
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
    fn cluster_differential_agrees_on_a_generated_case() {
        let fc = (0..32)
            .find_map(|k| match gen::generate(20180601, k).kind {
                CaseKind::FcNet(c) => Some(c),
                _ => None,
            })
            .expect("no FC case in 32 draws");
        let art = build_fc(&fc).unwrap();
        let m = check_serve_cluster(&art, 0xBEEF);
        assert!(m.is_empty(), "{m:?}");
    }
}
