//! In-process cluster harness: one orchestrator plus N worker nodes on
//! loopback, all inside the calling process.
//!
//! Each node is a full production stack — a [`cs_serve::Server`] with
//! its own worker lanes, a [`cs_net::NetServer`] request plane (the
//! same event loop `cs-netserve` runs and the ledger measures), and a
//! [`cs_net::WorkerAgent`] control plane — joined to a real
//! [`Orchestrator`] over real TCP. Nothing is mocked, so the failover
//! tests, the conformance cluster leg, and the `cs-netload --cluster`
//! sweep all exercise exactly the frames and threads production uses.
//! (The orchestrator's own listener is thread-per-connection: it holds
//! a few long-lived agent connections, not a fan-in of clients.)
//!
//! Telemetry layout: the **cluster** series (membership gauges, router
//! counters) land on the recorder passed to [`LocalCluster::start`];
//! each node's **serve/net** series land on a private per-node
//! [`Registry`]. Sharing one recorder across nodes would merge
//! same-named per-lane series from different nodes into one counter
//! and corrupt every per-node statistic.

use std::sync::Arc;

use cs_net::{AgentConfig, Client, NetConfig, NetServer, WorkerAgent};
use cs_serve::{ExecBackend, ModelRegistry, ServeConfig, ServeSnapshot, Server};
use cs_telemetry::{MonotonicClock, Recorder, Registry};

use crate::error::ClusterError;
use crate::orchestrator::{Orchestrator, OrchestratorConfig};

/// Shape of an in-process cluster.
#[derive(Debug, Clone)]
pub struct LocalClusterConfig {
    /// Worker nodes to stand up (named `node-0` … `node-{N-1}`).
    pub nodes: usize,
    /// Serving lanes per node.
    pub workers_per_node: usize,
    /// Execution backend for every node.
    pub backend: ExecBackend,
    /// Whether nodes sleep out simulated hardware time (off for fast
    /// CI sweeps; the hw-cycle accounting is identical either way).
    pub emulate_hw_time: bool,
    /// Heartbeat interval the orchestrator dictates.
    pub heartbeat_ms: u32,
    /// Heartbeat eviction deadline.
    pub heartbeat_timeout_ms: u32,
}

impl Default for LocalClusterConfig {
    fn default() -> Self {
        LocalClusterConfig {
            nodes: 2,
            workers_per_node: 2,
            backend: ExecBackend::Simulator,
            emulate_hw_time: false,
            heartbeat_ms: 50,
            heartbeat_timeout_ms: 200,
        }
    }
}

/// One live node: request plane + control plane.
struct NodeHandle {
    name: String,
    net: NetServer,
    agent: WorkerAgent,
}

/// The running in-process cluster.
pub struct LocalCluster {
    orch: Option<Orchestrator>,
    nodes: Vec<Option<NodeHandle>>,
}

impl std::fmt::Debug for LocalCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalCluster")
            .field("nodes", &self.nodes.len())
            .finish_non_exhaustive()
    }
}

impl LocalCluster {
    /// Stands the cluster up: orchestrator first, then every node
    /// (serve runtime → net frontend → agent join). `make_registry`
    /// builds node `i`'s model registry — return identical registries
    /// to replicate one model across all nodes, or different ones to
    /// place distinct models on distinct nodes. Cluster-level telemetry
    /// lands on `recorder`.
    ///
    /// # Errors
    ///
    /// Config validation, model build, bind, or registration failures;
    /// on error everything already started is torn down by drop.
    pub fn start(
        cfg: &LocalClusterConfig,
        recorder: Arc<dyn Recorder>,
        make_registry: &dyn Fn(usize) -> Result<ModelRegistry, cs_serve::ServeError>,
    ) -> Result<LocalCluster, ClusterError> {
        if cfg.nodes == 0 {
            return Err(ClusterError::InvalidConfig(
                "cluster needs at least one node".to_string(),
            ));
        }
        let orch = Orchestrator::start_with_recorder(
            OrchestratorConfig {
                heartbeat_ms: cfg.heartbeat_ms,
                heartbeat_timeout_ms: cfg.heartbeat_timeout_ms,
                ..OrchestratorConfig::default()
            },
            recorder,
        )?;
        let orch_addr = orch.local_addr().to_string();
        let mut nodes = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes {
            let name = format!("node-{i}");
            let models = make_registry(i)?;
            let model_names: Vec<String> =
                models.names().iter().map(|n| (*n).to_string()).collect();
            // Per-node registry: serve/net series must not merge across
            // nodes (see module docs).
            let node_registry = Arc::new(Registry::new());
            let serve = Server::start_with_recorder(
                models,
                ServeConfig {
                    workers: cfg.workers_per_node,
                    backend: cfg.backend,
                    emulate_hw_time: cfg.emulate_hw_time,
                    node: name.clone(),
                    ..ServeConfig::default()
                },
                Arc::new(MonotonicClock::new()),
                node_registry.clone(),
            )?;
            let net = NetServer::start_with_recorder(serve, NetConfig::default(), node_registry)?;
            let agent = WorkerAgent::join(
                AgentConfig::new(
                    orch_addr.clone(),
                    name.clone(),
                    net.local_addr().to_string(),
                    model_names,
                ),
                net.shutdown_handle(),
            )?;
            nodes.push(Some(NodeHandle { name, net, agent }));
        }
        Ok(LocalCluster {
            orch: Some(orch),
            nodes,
        })
    }

    /// The orchestrator's client-facing address.
    pub fn orch_addr(&self) -> String {
        match &self.orch {
            Some(o) => o.local_addr().to_string(),
            None => String::new(),
        }
    }

    /// The orchestrator handle (tests inspect membership through it).
    pub fn orchestrator(&self) -> Option<&Orchestrator> {
        self.orch.as_ref()
    }

    /// Kills node `i` the way a crashed process dies: the control
    /// connection drops without a deregister and the request plane
    /// stops answering. Returns the node's final serving snapshot, or
    /// `None` if it was already gone.
    pub fn kill(&mut self, i: usize) -> Option<(String, ServeSnapshot)> {
        let node = self.nodes.get_mut(i)?.take()?;
        node.agent.crash();
        let snapshot = node.net.shutdown();
        Some((node.name, snapshot))
    }

    /// Gracefully drains the whole cluster through the protocol — a
    /// client shutdown frame to the orchestrator cascades to every
    /// worker — then collects each surviving node's final snapshot.
    ///
    /// # Errors
    ///
    /// Transport errors reaching the orchestrator.
    pub fn stop(mut self) -> Result<Vec<(String, ServeSnapshot)>, ClusterError> {
        if let Some(orch) = &self.orch {
            let mut client = Client::connect(&orch.local_addr().to_string())?;
            client.shutdown_server()?;
        }
        let mut snapshots = Vec::new();
        for slot in &mut self.nodes {
            if let Some(node) = slot.take() {
                // The cascade already drained the node; the agent's
                // control loop ended on its shutdown ack.
                node.agent.leave();
                node.net.wait_for_shutdown();
                snapshots.push((node.name, node.net.shutdown()));
            }
        }
        if let Some(orch) = self.orch.take() {
            orch.shutdown();
        }
        Ok(snapshots)
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        for slot in &mut self.nodes {
            if let Some(node) = slot.take() {
                node.agent.crash();
                let _ = node.net.shutdown();
            }
        }
        if let Some(orch) = self.orch.take() {
            orch.shutdown();
        }
    }
}
