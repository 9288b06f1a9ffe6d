//! Cluster-path conformance: orchestrator-routed vs direct execution.
//!
//! [`check_serve_cluster`] extends the socket comparison of
//! [`crate::net_check`] one more hop: the case's model is replicated
//! across a two-node in-process cluster ([`cs_cluster::LocalCluster`] —
//! real TCP, real worker agents, real routing) on the Sparse backend,
//! the probes are submitted through the **orchestrator**, and
//! `serve_check::check_front` holds the routed outputs bit for bit to a
//! direct in-process lane forward and, on finite probes, to the dense
//! oracle. Replicas are built from the same deterministic artifacts, so
//! whichever node the router picks, the bits must match — which is
//! exactly the property that makes failover transparent to clients.

use cs_cluster::{LocalCluster, LocalClusterConfig};
use cs_net::Client;
use cs_serve::{ExecBackend, ServableModel};

use crate::diff::FcArtifacts;
use crate::serve_check::{check_front, registry_of, reply_of, Front, Reply, MODEL};
use crate::Mismatch;

/// Nodes in the differential cluster (two, so routing has a real
/// choice to make).
const CLUSTER_NODES: usize = 2;

/// A two-node loopback cluster and one client connection to its
/// orchestrator.
struct Cluster {
    cluster: LocalCluster,
    client: Client,
}

impl Cluster {
    fn start(model: &ServableModel) -> Result<Self, String> {
        let cluster = LocalCluster::start(
            &LocalClusterConfig {
                nodes: CLUSTER_NODES,
                backend: ExecBackend::Sparse,
                ..LocalClusterConfig::default()
            },
            std::sync::Arc::new(cs_telemetry::NoopRecorder),
            &|_node| registry_of(model),
        )
        .map_err(|e| e.to_string())?;
        match Client::connect(&cluster.orch_addr()) {
            Ok(client) => Ok(Cluster { cluster, client }),
            Err(e) => {
                let _ = cluster.stop();
                Err(e.to_string())
            }
        }
    }
}

impl Front for Cluster {
    /// Worker nodes register as `node-0` … `node-{N-1}`.
    const NODE: &'static str = "node-";

    fn send(&mut self, probe: &[f32]) -> Result<Reply, String> {
        self.client
            .request(MODEL, probe)
            .map(reply_of)
            .map_err(|e| e.to_string())
    }

    fn stop(self) -> Result<(), String> {
        self.cluster.stop().map(drop).map_err(|e| e.to_string())
    }
}

/// Serves the case's layers through a two-node loopback cluster and
/// holds the orchestrator-routed outputs to the direct lane and the
/// dense oracle (`serve_check::check_front`).
pub fn check_serve_cluster(art: &FcArtifacts, probe_seed: u64) -> Vec<Mismatch> {
    check_front(art, probe_seed, "cluster", Cluster::start)
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
