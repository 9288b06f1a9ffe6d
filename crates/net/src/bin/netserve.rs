//! `cs-netserve` — stand up a TCP serving endpoint.
//!
//! Starts a `cs_serve::Server` over the paper's compressed MLP, wraps
//! it in a `cs_net::NetServer`, prints the bound address, and blocks
//! until a client sends the shutdown control frame (which drains every
//! in-flight request before the listener stops). No signal handling:
//! termination is part of the protocol, so CI can stop the server the
//! same way production would.
//!
//! ```text
//! cs-netserve --addr 127.0.0.1:0 --workers 2 --backend sparse \
//!             --addr-file /tmp/addr --metrics-out /tmp/net.jsonl
//! ```
//!
//! **Worker mode** (`--join ORCH_ADDR`): after the listener is up, the
//! process registers with a `cs-orchestrate` control plane under
//! `--worker-id` (responses it serves are stamped with that identity),
//! heartbeats on the orchestrator's schedule, and drains when the
//! orchestrator cascades a cluster shutdown — so stopping the cluster
//! stops every worker through the same protocol.
//!
//! **Model lifecycle** (`--registry DIR`): points the server at an
//! on-disk `cs-registry` store so clients can hot-load versions over
//! the wire (`LoadModel` frames). `--empty` skips the built-in MLP —
//! the server starts with nothing resident and serves only what is
//! loaded at runtime, which is how the registry-smoke job proves cold
//! bring-up. `--memory-budget` bounds resident model bytes (LRU
//! eviction of drained idle versions), `--tenant-quota` caps any one
//! tenant's share of the admission queue.
//!
//! Exit codes: `0` clean shutdown, `1` startup/config failure,
//! `3` clean shutdown but the decode-error counter was nonzero (the CI
//! smoke job fails on any malformed traffic).

use std::sync::Arc;

use cs_net::{AgentConfig, NetConfig, NetServer, WorkerAgent};
use cs_nn::spec::Scale;
use cs_serve::{
    ExecBackend, ModelRegistry, Recorder, Registry, ServableModel, ServeConfig, Server,
};
use cs_telemetry::MonotonicClock;

struct Args {
    addr: String,
    addr_file: Option<String>,
    metrics_out: Option<String>,
    workers: usize,
    scale: usize,
    seed: u64,
    backend: ExecBackend,
    max_connections: usize,
    queue_depth: usize,
    max_batch: usize,
    join: Option<String>,
    worker_id: String,
    registry_dir: Option<String>,
    empty: bool,
    memory_budget: usize,
    tenant_quota: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: cs-netserve [--addr HOST:PORT] [--addr-file PATH] [--metrics-out PATH]\n\
         \x20                 [--workers N] [--scale N] [--seed N]\n\
         \x20                 [--backend simulator|sparse] [--max-connections N]\n\
         \x20                 [--queue-depth N] [--max-batch N]\n\
         \x20                 [--join ORCH_ADDR] [--worker-id NAME]\n\
         \x20                 [--registry DIR] [--empty] [--memory-budget BYTES]\n\
         \x20                 [--tenant-quota N]"
    );
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: "127.0.0.1:0".to_string(),
        addr_file: None,
        metrics_out: None,
        workers: 2,
        scale: 8,
        seed: 7,
        backend: ExecBackend::Sparse,
        max_connections: 64,
        queue_depth: 64,
        max_batch: 8,
        join: None,
        worker_id: "local".to_string(),
        registry_dir: None,
        empty: false,
        memory_budget: 0,
        tenant_quota: 0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| match args.next() {
            Some(v) => v,
            None => {
                eprintln!("error: {flag} requires a value");
                usage();
            }
        };
        match a.as_str() {
            "--addr" => out.addr = value("--addr"),
            "--addr-file" => out.addr_file = Some(value("--addr-file")),
            "--metrics-out" => out.metrics_out = Some(value("--metrics-out")),
            "--workers" => out.workers = parse_num(&value("--workers"), "--workers"),
            "--scale" => out.scale = parse_num(&value("--scale"), "--scale"),
            "--seed" => out.seed = parse_num(&value("--seed"), "--seed") as u64,
            "--max-connections" => {
                out.max_connections = parse_num(&value("--max-connections"), "--max-connections")
            }
            "--queue-depth" => {
                out.queue_depth = parse_num(&value("--queue-depth"), "--queue-depth")
            }
            "--max-batch" => out.max_batch = parse_num(&value("--max-batch"), "--max-batch"),
            "--join" => out.join = Some(value("--join")),
            "--worker-id" => out.worker_id = value("--worker-id"),
            "--registry" => out.registry_dir = Some(value("--registry")),
            "--empty" => out.empty = true,
            "--memory-budget" => {
                out.memory_budget = parse_num(&value("--memory-budget"), "--memory-budget")
            }
            "--tenant-quota" => {
                out.tenant_quota = parse_num(&value("--tenant-quota"), "--tenant-quota")
            }
            "--backend" => {
                out.backend = match value("--backend").as_str() {
                    "simulator" | "sim" => ExecBackend::Simulator,
                    "sparse" => ExecBackend::Sparse,
                    other => {
                        eprintln!("error: unknown backend {other:?}");
                        usage();
                    }
                }
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }
    out
}

fn parse_num(s: &str, flag: &str) -> usize {
    match s.parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("error: {flag} expects a number, got {s:?}");
            usage();
        }
    }
}

fn main() {
    let args = parse_args();
    let registry = Arc::new(Registry::new());

    let mut models = ModelRegistry::new();
    if args.empty {
        // Cold bring-up: nothing resident until a client hot-loads a
        // version out of the on-disk registry over the wire.
        if args.registry_dir.is_none() {
            eprintln!("error: --empty without --registry serves nothing forever");
            std::process::exit(1);
        }
    } else {
        let model = match ServableModel::mlp(Scale::Reduced(args.scale), args.seed) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("building model failed: {e}");
                std::process::exit(1);
            }
        };
        if let Err(e) = models.register(model) {
            eprintln!("registering model failed: {e}");
            std::process::exit(1);
        }
    }
    let serve_cfg = ServeConfig {
        workers: args.workers,
        backend: args.backend,
        node: args.worker_id.clone(),
        queue_depth: args.queue_depth,
        max_batch: args.max_batch,
        memory_budget_bytes: args.memory_budget as u64,
        tenant_quota: args.tenant_quota,
        ..ServeConfig::default()
    };
    let serve = match Server::start_with_recorder(
        models,
        serve_cfg,
        Arc::new(MonotonicClock::new()),
        registry.clone(),
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("starting server failed: {e}");
            std::process::exit(1);
        }
    };
    let served = serve.model_names();
    let net_cfg = NetConfig {
        addr: args.addr.clone(),
        max_connections: args.max_connections,
        registry_dir: args.registry_dir.clone(),
        ..NetConfig::default()
    };
    let net = match NetServer::start_with_recorder(serve, net_cfg, registry.clone()) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("starting network frontend failed: {e}");
            std::process::exit(1);
        }
    };

    let addr = net.local_addr();
    println!(
        "cs-netserve listening on {addr} (models {served:?}, {} workers)",
        args.workers
    );
    if let Some(path) = &args.addr_file {
        // The load generator discovers the ephemeral port through this
        // file, so write it atomically (write tmp, rename).
        let tmp = format!("{path}.tmp");
        let write =
            std::fs::write(&tmp, addr.to_string()).and_then(|()| std::fs::rename(&tmp, path));
        if let Err(e) = write {
            eprintln!("writing {path} failed: {e}");
            std::process::exit(1);
        }
    }

    // Worker mode: enroll with the orchestrator. The agent owns the
    // control connection; an orchestrator-cascaded shutdown drains the
    // local runtime and unblocks wait_for_shutdown below, exactly like
    // a direct client shutdown frame.
    let _agent = match &args.join {
        Some(orch_addr) => {
            match WorkerAgent::join(
                AgentConfig::new(
                    orch_addr.clone(),
                    args.worker_id.clone(),
                    addr.to_string(),
                    served.clone(),
                ),
                net.shutdown_handle(),
            ) {
                Ok(agent) => {
                    println!("joined orchestrator {orch_addr} as {:?}", args.worker_id);
                    Some(agent)
                }
                Err(e) => {
                    eprintln!("joining orchestrator {orch_addr} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        None => None,
    };

    net.wait_for_shutdown();
    let snapshot = net.shutdown();
    println!(
        "shutdown: {} submitted, {} completed, {} rejected",
        snapshot.submitted, snapshot.completed, snapshot.rejected
    );

    if let Some(path) = &args.metrics_out {
        let jsonl = registry.jsonl().unwrap_or_default();
        if let Err(e) = std::fs::write(path, jsonl) {
            eprintln!("writing {path} failed: {e}");
            std::process::exit(1);
        }
        println!("telemetry written to {path}");
    }

    let decode_errors = registry
        .find_counter("net_decode_errors_total", &[])
        .map(|c| c.get())
        .unwrap_or(0);
    if decode_errors > 0 {
        eprintln!("error: {decode_errors} decode errors observed");
        std::process::exit(3);
    }
}
