//! Cluster-mode load sweep: drive an in-process [`LocalCluster`] at
//! 1→N nodes and measure aggregate hardware throughput scaling.
//!
//! Every point stands up a fresh cluster replicating the same
//! compressed MLP across all nodes, runs the same seeded closed-loop
//! load against the orchestrator through [`cs_net::load`] (one thread
//! drives every connection, and request shapes come from
//! [`cs_serve::loadgen::request_input`], so a sweep is replayable from
//! its seed), and reads each node's final serving snapshot.
//!
//! The scaling metric is **aggregate hw-throughput**: total
//! hardware-completed requests divided by the *slowest* node's
//! simulated makespan —
//! `Σ hw_completed × freq / max(makespan_cycles)` — the honest
//! cluster number, because nodes run concurrently and the stragglers
//! bound the finish line. Perfectly balanced routing scales it by the
//! node count; imbalance shows up directly as a sub-linear curve.

use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use cs_net::load::{run_closed_loop, LoadPlan};
use cs_nn::spec::Scale;
use cs_serve::{ExecBackend, ModelRegistry, ServableModel, ServeConfig};

use crate::error::ClusterError;
use crate::local::{LocalCluster, LocalClusterConfig};

/// Sweep shape.
#[derive(Debug, Clone)]
pub struct ClusterSweepConfig {
    /// Cluster sizes to sweep (each point is a fresh cluster).
    pub node_counts: Vec<usize>,
    /// Concurrent client connections per point.
    pub conns: usize,
    /// Requests each connection issues.
    pub requests_per_conn: usize,
    /// Seed for request shapes, model weights, and backoff jitter.
    pub seed: u64,
    /// Reduced model scale (as `cs-serve`'s loadgen).
    pub scale: usize,
    /// Serving lanes per node.
    pub workers_per_node: usize,
    /// Execution backend for every node.
    pub backend: ExecBackend,
}

impl Default for ClusterSweepConfig {
    fn default() -> Self {
        ClusterSweepConfig {
            node_counts: vec![1, 2, 4],
            conns: 8,
            requests_per_conn: 40,
            seed: 42,
            scale: 8,
            workers_per_node: 2,
            backend: ExecBackend::Simulator,
        }
    }
}

/// One measured cluster size.
#[derive(Debug, Clone)]
pub struct ClusterSweepPoint {
    /// Nodes in this point's cluster.
    pub nodes: usize,
    /// Requests answered with a routed response.
    pub completed: u64,
    /// Requests answered with a typed non-overload error.
    pub errors: u64,
    /// Responses grouped by the node identity stamped in the reply
    /// (sorted by node name).
    pub per_node_completed: Vec<(String, u64)>,
    /// Total hardware-completed requests across all nodes.
    pub hw_completed: u64,
    /// Slowest node's simulated makespan.
    pub max_makespan_cycles: u64,
    /// Aggregate hardware throughput, requests/second.
    pub aggregate_hw_rps: f64,
}

/// A full sweep, replayable from its config.
#[derive(Debug, Clone)]
pub struct ClusterSweepReport {
    /// The configuration that produced the points.
    pub cfg: ClusterSweepConfig,
    /// Simulated clock frequency used for the throughput conversion.
    pub freq_ghz: f64,
    /// One point per cluster size, in sweep order.
    pub points: Vec<ClusterSweepPoint>,
}

impl ClusterSweepReport {
    /// Aggregate hw-throughput of the last point over the first — the
    /// sweep's scaling factor (e.g. 1→4 nodes ideally approaches 4.0).
    pub fn scaling(&self) -> f64 {
        match (self.points.first(), self.points.last()) {
            (Some(first), Some(last)) if first.aggregate_hw_rps > 0.0 => {
                last.aggregate_hw_rps / first.aggregate_hw_rps
            }
            _ => 0.0,
        }
    }

    /// One JSONL record per point plus a trailing summary record.
    pub fn jsonl_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                let per_node: Vec<String> = p
                    .per_node_completed
                    .iter()
                    .map(|(n, c)| format!("{{\"node\":{:?},\"completed\":{c}}}", n))
                    .collect();
                format!(
                    "{{\"type\":\"cluster_sweep_point\",\"nodes\":{},\"completed\":{},\
                     \"errors\":{},\"hw_completed\":{},\"max_makespan_cycles\":{},\
                     \"aggregate_hw_rps\":{:.3},\"per_node\":[{}]}}",
                    p.nodes,
                    p.completed,
                    p.errors,
                    p.hw_completed,
                    p.max_makespan_cycles,
                    p.aggregate_hw_rps,
                    per_node.join(",")
                )
            })
            .collect();
        lines.push(format!(
            "{{\"type\":\"cluster_sweep_summary\",\"seed\":{},\"conns\":{},\
             \"requests_per_conn\":{},\"scale\":{},\"workers_per_node\":{},\
             \"points\":{},\"scaling\":{:.3}}}",
            self.cfg.seed,
            self.cfg.conns,
            self.cfg.requests_per_conn,
            self.cfg.scale,
            self.cfg.workers_per_node,
            self.points.len(),
            self.scaling()
        ));
        lines
    }
}

/// Runs the sweep. Each point is an independent cluster; the load is
/// closed-loop (every connection keeps exactly one request in flight)
/// and backs off and reissues on overload, so admission control shapes
/// the curve instead of failing it.
///
/// # Errors
///
/// Cluster startup failures, or a client connection that ended early
/// (transport, protocol or connection-level error).
pub fn run_cluster_sweep(cfg: &ClusterSweepConfig) -> Result<ClusterSweepReport, ClusterError> {
    if cfg.node_counts.is_empty() || cfg.conns == 0 || cfg.requests_per_conn == 0 {
        return Err(ClusterError::InvalidConfig(
            "sweep needs node counts, connections, and requests".to_string(),
        ));
    }
    let freq_ghz = ServeConfig::default().freq_ghz;
    // Probe the model shape once; every node replicates this model.
    let n_in = ServableModel::mlp(Scale::Reduced(cfg.scale), cfg.seed)?.n_in;
    let mut points = Vec::with_capacity(cfg.node_counts.len());
    for &nodes in &cfg.node_counts {
        points.push(run_point(cfg, nodes, n_in, freq_ghz)?);
    }
    Ok(ClusterSweepReport {
        cfg: cfg.clone(),
        freq_ghz,
        points,
    })
}

fn run_point(
    cfg: &ClusterSweepConfig,
    nodes: usize,
    n_in: usize,
    freq_ghz: f64,
) -> Result<ClusterSweepPoint, ClusterError> {
    let scale = cfg.scale;
    let seed = cfg.seed;
    let cluster = LocalCluster::start(
        &LocalClusterConfig {
            nodes,
            workers_per_node: cfg.workers_per_node,
            backend: cfg.backend,
            ..LocalClusterConfig::default()
        },
        Arc::new(cs_telemetry::NoopRecorder),
        &move |_i| {
            let mut registry = ModelRegistry::new();
            registry.register(ServableModel::mlp(Scale::Reduced(scale), seed)?)?;
            Ok(registry)
        },
    )?;
    let plan = LoadPlan {
        addr: cluster.orch_addr(),
        model: "mlp".to_string(),
        n_in,
        seed,
        requests: cfg.requests_per_conn as u64,
        warmup: 0,
        think_ms: 0,
        tenants: vec![String::new(); cfg.conns],
    };
    let mut per_node: BTreeMap<String, u64> = BTreeMap::new();
    let mut completed = 0u64;
    let mut errors = 0u64;
    for result in run_closed_loop(&plan, &AtomicU64::new(0))? {
        if let Some(e) = result.error {
            return Err(ClusterError::Net(e));
        }
        completed += result.completed;
        errors += result.failed.len() as u64;
        for (node, count) in result.by_node {
            *per_node.entry(node).or_default() += count;
        }
    }
    let snapshots = cluster.stop()?;
    let hw_completed: u64 = snapshots.iter().map(|(_, s)| s.hw_completed).sum();
    let max_makespan_cycles = snapshots
        .iter()
        .map(|(_, s)| s.makespan_cycles())
        .max()
        .unwrap_or(0);
    let aggregate_hw_rps = if max_makespan_cycles == 0 {
        0.0
    } else {
        hw_completed as f64 * freq_ghz * 1e9 / max_makespan_cycles as f64
    };
    Ok(ClusterSweepPoint {
        nodes,
        completed,
        errors,
        per_node_completed: per_node.into_iter().collect(),
        hw_completed,
        max_makespan_cycles,
        aggregate_hw_rps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(nodes: usize, rps: f64) -> ClusterSweepPoint {
        ClusterSweepPoint {
            nodes,
            completed: 100,
            errors: 0,
            per_node_completed: vec![("node-0".to_string(), 100)],
            hw_completed: 100,
            max_makespan_cycles: 1000,
            aggregate_hw_rps: rps,
        }
    }

    #[test]
    fn scaling_is_last_over_first() {
        let report = ClusterSweepReport {
            cfg: ClusterSweepConfig::default(),
            freq_ghz: 1.0,
            points: vec![point(1, 250.0), point(2, 480.0), point(4, 900.0)],
        };
        assert!((report.scaling() - 3.6).abs() < 1e-9);
    }

    #[test]
    fn empty_or_zero_reports_scale_zero() {
        let report = ClusterSweepReport {
            cfg: ClusterSweepConfig::default(),
            freq_ghz: 1.0,
            points: Vec::new(),
        };
        assert_eq!(report.scaling(), 0.0);
        let report = ClusterSweepReport {
            cfg: ClusterSweepConfig::default(),
            freq_ghz: 1.0,
            points: vec![point(1, 0.0), point(4, 10.0)],
        };
        assert_eq!(report.scaling(), 0.0);
    }

    #[test]
    fn jsonl_has_one_record_per_point_plus_summary() {
        let report = ClusterSweepReport {
            cfg: ClusterSweepConfig::default(),
            freq_ghz: 1.0,
            points: vec![point(1, 250.0), point(4, 900.0)],
        };
        let lines = report.jsonl_lines();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"type\":\"cluster_sweep_point\""));
        assert!(lines[0].contains("\"nodes\":1"));
        assert!(lines[2].contains("\"type\":\"cluster_sweep_summary\""));
        assert!(lines[2].contains("\"scaling\":3.600"));
    }
}
