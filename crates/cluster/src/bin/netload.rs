//! `cs-netload` — closed-loop load generator for single servers and
//! clusters.
//!
//! **Server mode** (default): opens `--conns` TCP connections to a
//! running `cs-netserve` *or* `cs-orchestrate` endpoint (they speak the
//! same protocol), asks for the model's input width, then drives
//! `--requests` inferences per connection closed-loop, reusing the
//! deterministic request shapes the in-process load generator uses
//! (`cs_serve::loadgen::request_input`), so a network sweep is
//! replayable by seed. An overload rejection backs off 1–5 ms and
//! reissues the same request, counted, not failed. `--think-ms` inserts
//! pacing between a connection's requests
//! so high connection counts measure concurrency, not queueing from a
//! saturating closed loop; the pause is jittered per connection from
//! the seed (uniform in `[0.5, 1.5] × think`, plus a random initial
//! offset), because a thousand connections pacing in lock-step would
//! arrive as synchronized waves and measure the wave, not the server.
//!
//! **Connection sweep** (`--conns-sweep N1,N2,..`): repeats the server
//! mode run at each connection count against the same endpoint and
//! emits one `conn_sweep_point` JSONL record per count. A thousand
//! connections still cost one client thread, so the tail latency
//! measures the server, not the client's own run queue.
//! The gated latency is the **server-reported** `latency_us` stamped in
//! every response (decode→reply time on the server). `--max-p99-ratio F`
//! turns the sweep into a CI gate: the last point's server-side p99 must stay
//! within `F ×` the first point's — or within `F ×`
//! [`P99_BASELINE_FLOOR_US`] when the first point reads below that
//! floor, so that an idle-fast server is judged on how slow the loaded
//! end got rather than on how quick the unloaded end was.
//!
//! **Cluster mode** (`--cluster`): ignores `--addr` and instead stands
//! up fresh in-process clusters at each `--nodes` count (orchestrator +
//! N full worker nodes on loopback),
//! drives the same seeded load through the orchestrator, and reports
//! aggregate hw-throughput scaling as JSONL. `--min-scaling F` turns
//! the scaling factor into an exit-code gate for CI.
//!
//! One client, one thread: every mode drives its connections through
//! [`cs_net::load::run_closed_loop`], so no mode spawns a thread per
//! connection.
//!
//! ```text
//! cs-netload --addr 127.0.0.1:4885 --conns 4 --requests 64 --shutdown
//! cs-netload --addr 127.0.0.1:4885 --conns-sweep 64,1000 --requests 10 \
//!            --think-ms 50 --max-p99-ratio 2.0 --out sweep.jsonl
//! cs-netload --cluster --nodes 1,2,4 --out sweep.jsonl --min-scaling 3.0
//! ```
//!
//! **Lifecycle driving**: `--load NAME@VERSION[:PCT]` (repeatable)
//! sends `LoadModel` control frames before the sweep starts — how a
//! registry-backed server started `--empty` gets its models, and how a
//! canary is opened (`:25` routes 25% of the model's traffic to the
//! new version). `--mid-load NAME@VERSION[:PCT]` (repeatable, plain
//! server mode only) fires its loads from a side connection once half
//! the sweep's requests have completed, so promotion, budget-driven
//! eviction and reload all land *under* live traffic.
//!
//! Exit codes: `0` success, `1` bad usage or connect failure, `2` any
//! request failed with a non-overload error or any connection ended
//! early (or a scaling / p99 gate failed).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use cs_cluster::{run_cluster_sweep, ClusterSweepConfig};
use cs_net::load::{run_closed_loop, ConnResult, LoadPlan};
use cs_net::Client;
use cs_serve::ExecBackend;
use cs_telemetry::percentile_of_sorted as percentile;

struct Args {
    addr: String,
    conns: usize,
    conns_sweep: Vec<usize>,
    requests: u64,
    seed: u64,
    model: String,
    out: Option<String>,
    shutdown: bool,
    wait_ready_secs: u64,
    think_ms: u64,
    warmup: u64,
    max_p99_ratio: f64,
    cluster: bool,
    nodes: Vec<usize>,
    scale: usize,
    workers_per_node: usize,
    backend: ExecBackend,
    min_scaling: f64,
    /// Number of synthetic tenants to spread connections across
    /// (`tenant-0..tenant-N-1`); 0 sends untenanted traffic.
    tenants: usize,
    /// Relative connection share per tenant; empty means equal shares.
    tenant_weights: Vec<u64>,
    /// Lifecycle loads applied before the sweep starts.
    loads: Vec<LoadSpec>,
    /// Lifecycle loads fired once half the sweep's requests completed.
    mid_loads: Vec<LoadSpec>,
}

/// One `--load`/`--mid-load` directive: `name@version[:canary_pct]`.
#[derive(Clone)]
struct LoadSpec {
    model: String,
    version: u32,
    canary_pct: u8,
}

fn parse_load_spec(s: &str, flag: &str) -> LoadSpec {
    let bad = || -> ! {
        eprintln!("error: {flag} expects NAME@VERSION[:PCT], got {s:?}");
        usage();
    };
    let (model, rest) = match s.split_once('@') {
        Some((m, r)) if !m.is_empty() => (m.to_string(), r),
        _ => bad(),
    };
    let (version, pct) = match rest.split_once(':') {
        Some((v, p)) => (v, p.parse().unwrap_or_else(|_| bad())),
        None => (rest, 0u8),
    };
    if pct > 100 {
        bad();
    }
    LoadSpec {
        model,
        version: version.parse().unwrap_or_else(|_| bad()),
        canary_pct: pct,
    }
}

/// Lowest server-side p99 (µs) the `--max-p99-ratio` gate accepts as
/// its baseline. Until batches stopped waiting out a 200 µs deadline,
/// every request at both ends of the sweep sat on that deadline and the
/// 64-connection p99 read 400–700 µs whatever the server was doing, so
/// "within 2× of the baseline" meant "under about a millisecond". An
/// idle server now answers in tens of microseconds; against that
/// baseline a perfectly healthy 100 → 300 µs would fail as "3× growth".
/// The floor keeps the gate where it was in absolute terms: it still
/// fails when the loaded end reaches milliseconds.
const P99_BASELINE_FLOOR_US: u64 = 650;

/// Completed requests across every connection; the mid-sweep
/// loader watches it to fire at the halfway mark.
static PROGRESS: AtomicU64 = AtomicU64::new(0);
/// Set when the sweep finishes, so the mid-sweep loader can never hang
/// waiting for a halfway mark that errors prevented.
static SWEEP_DONE: AtomicBool = AtomicBool::new(false);

/// Tenant label for one connection. Connections are dealt round-robin
/// across a weight-expanded pattern (weights `2,1` → `t0,t0,t1`
/// repeating), so the traffic mix tracks the weights at any connection
/// count with no randomness to un-replay.
fn tenant_of(args: &Args, conn: usize) -> String {
    if args.tenants == 0 {
        return String::new();
    }
    let mut pattern: Vec<usize> = Vec::new();
    for (t, &w) in args.tenant_weights.iter().enumerate() {
        pattern.extend(std::iter::repeat_n(t, w as usize));
    }
    if pattern.is_empty() {
        pattern = (0..args.tenants).collect();
    }
    format!("tenant-{}", pattern[conn % pattern.len()])
}

fn usage() -> ! {
    eprintln!(
        "usage: cs-netload --addr HOST:PORT [--conns N | --conns-sweep N,N,..]\n\
         \x20                [--requests N] [--seed N] [--model NAME] [--out PATH]\n\
         \x20                [--think-ms N] [--warmup N] [--max-p99-ratio F] [--shutdown]\n\
         \x20                [--wait-ready SECS] [--tenants N] [--tenant-weights W,W,..]\n\
         \x20                [--load NAME@VER[:PCT]]... [--mid-load NAME@VER[:PCT]]...\n\
         \x20      cs-netload --cluster [--nodes N,N,..] [--conns N] [--requests N]\n\
         \x20                [--seed N] [--scale N] [--workers N]\n\
         \x20                [--backend simulator|sparse] [--out PATH]\n\
         \x20                [--min-scaling F]"
    );
    std::process::exit(1);
}

fn parse_args() -> Args {
    let mut out = Args {
        addr: String::new(),
        conns: 4,
        conns_sweep: Vec::new(),
        requests: 64,
        seed: 7,
        model: "mlp".to_string(),
        out: None,
        shutdown: false,
        wait_ready_secs: 0,
        think_ms: 0,
        warmup: 0,
        max_p99_ratio: 0.0,
        cluster: false,
        nodes: vec![1, 2, 4],
        scale: 8,
        workers_per_node: 2,
        backend: ExecBackend::Simulator,
        min_scaling: 0.0,
        tenants: 0,
        tenant_weights: Vec::new(),
        loads: Vec::new(),
        mid_loads: Vec::new(),
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
            "--load" => out.loads.push(parse_load_spec(&value("--load"), "--load")),
            "--mid-load" => out
                .mid_loads
                .push(parse_load_spec(&value("--mid-load"), "--mid-load")),
            "--conns" => out.conns = parse_num(&value("--conns"), "--conns") as usize,
            "--conns-sweep" => {
                out.conns_sweep = value("--conns-sweep")
                    .split(',')
                    .map(|s| parse_num(s, "--conns-sweep") as usize)
                    .collect();
            }
            "--requests" => out.requests = parse_num(&value("--requests"), "--requests"),
            "--seed" => out.seed = parse_num(&value("--seed"), "--seed"),
            "--model" => out.model = value("--model"),
            "--out" => out.out = Some(value("--out")),
            "--shutdown" => out.shutdown = true,
            "--wait-ready" => {
                out.wait_ready_secs = parse_num(&value("--wait-ready"), "--wait-ready")
            }
            "--think-ms" => out.think_ms = parse_num(&value("--think-ms"), "--think-ms"),
            "--warmup" => out.warmup = parse_num(&value("--warmup"), "--warmup"),
            "--max-p99-ratio" => {
                out.max_p99_ratio = parse_ratio(&value("--max-p99-ratio"), "--max-p99-ratio")
            }
            "--cluster" => out.cluster = true,
            "--nodes" => {
                out.nodes = value("--nodes")
                    .split(',')
                    .map(|s| parse_num(s, "--nodes") as usize)
                    .collect();
            }
            "--scale" => out.scale = parse_num(&value("--scale"), "--scale") as usize,
            "--workers" => {
                out.workers_per_node = parse_num(&value("--workers"), "--workers") as usize
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
            "--tenants" => out.tenants = parse_num(&value("--tenants"), "--tenants") as usize,
            "--tenant-weights" => {
                out.tenant_weights = value("--tenant-weights")
                    .split(',')
                    .map(|s| parse_num(s, "--tenant-weights"))
                    .collect();
            }
            "--min-scaling" => {
                out.min_scaling = parse_ratio(&value("--min-scaling"), "--min-scaling")
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("error: unknown argument {other:?}");
                usage();
            }
        }
    }
    if !out.cluster && out.addr.is_empty() {
        eprintln!("error: --addr is required (or use --cluster)");
        usage();
    }
    if out.conns == 0 || out.requests == 0 {
        eprintln!("error: --conns and --requests must be at least 1");
        usage();
    }
    if out.conns_sweep.contains(&0) {
        eprintln!("error: --conns-sweep needs positive counts");
        usage();
    }
    if out.cluster && (out.nodes.is_empty() || out.nodes.contains(&0)) {
        eprintln!("error: --nodes needs positive counts");
        usage();
    }
    if !out.tenant_weights.is_empty() {
        if out.tenant_weights.len() != out.tenants {
            eprintln!("error: --tenant-weights needs one weight per tenant");
            usage();
        }
        if out.tenant_weights.contains(&0) {
            eprintln!("error: --tenant-weights needs positive weights");
            usage();
        }
    }
    out
}

fn parse_num(s: &str, flag: &str) -> u64 {
    match s.parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("error: {flag} expects a number, got {s:?}");
            usage();
        }
    }
}

fn parse_ratio(s: &str, flag: &str) -> f64 {
    s.parse().unwrap_or_else(|_| {
        eprintln!("error: {flag} expects a number");
        usage();
    })
}

/// Runs `conns` closed-loop connections; exits 1 when they cannot be
/// set up.
fn run(args: &Args, conns: usize, n_in: usize) -> Vec<ConnResult> {
    let plan = LoadPlan {
        addr: args.addr.clone(),
        model: args.model.clone(),
        n_in,
        seed: args.seed,
        requests: args.requests,
        warmup: args.warmup,
        think_ms: args.think_ms,
        tenants: (0..conns).map(|conn| tenant_of(args, conn)).collect(),
    };
    run_closed_loop(&plan, &PROGRESS).unwrap_or_else(|e| {
        eprintln!("error: {conns} connections to {} failed: {e}", args.addr);
        std::process::exit(1);
    })
}

/// Asks the endpoint for the model's input width, which every
/// connection reuses, polling until the model resolves or
/// `--wait-ready` seconds pass. Against an orchestrator this waits out
/// the window between "listener up" and "first worker registered", so
/// scripted multi-process bring-up doesn't race worker registration.
/// Exits 1 when the endpoint never answers.
fn model_width(args: &Args) -> usize {
    let deadline = Instant::now() + std::time::Duration::from_secs(args.wait_ready_secs);
    loop {
        match Client::connect(&args.addr).and_then(|mut c| c.model_info(&args.model)) {
            Ok((n_in, _)) => return n_in as usize,
            Err(e) if Instant::now() >= deadline => {
                eprintln!(
                    "error: {} did not serve model {:?} within {}s: {e}",
                    args.addr, args.model, args.wait_ready_secs
                );
                std::process::exit(1);
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(50)),
        }
    }
}

/// Failed requests plus, when the connection ended early, one for that.
fn error_count(r: &ConnResult) -> u64 {
    r.failed.len() as u64 + u64::from(r.error.is_some())
}

/// Prints every failed request and every connection that ended early.
fn report_failures(results: &[ConnResult], prefix: &str) {
    for r in results {
        for (request, e) in &r.failed {
            eprintln!("{prefix}conn {} request {request} failed: {e}", r.conn);
        }
        if let Some(e) = &r.error {
            eprintln!("{prefix}conn {} failed: {e}", r.conn);
        }
    }
}

/// Writes `lines` as JSONL to `--out`, when given; exits 2 if the
/// write fails.
fn write_out(args: &Args, lines: &[String]) {
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, lines.join("\n") + "\n") {
            eprintln!("writing {path} failed: {e}");
            std::process::exit(2);
        }
        println!("results written to {path}");
    }
}

/// With `--shutdown`, drains and stops the server; exits 2 if it
/// cannot.
fn shutdown_if_asked(args: &Args) {
    if args.shutdown {
        match Client::connect(&args.addr).and_then(|mut c| c.shutdown_server()) {
            Ok(()) => println!("server drained and stopped"),
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                std::process::exit(2);
            }
        }
    }
}

fn sorted_all<'a>(
    results: impl IntoIterator<Item = &'a ConnResult>,
    pick: impl Fn(&ConnResult) -> &[u64],
) -> Vec<u64> {
    let mut all: Vec<u64> = results
        .into_iter()
        .flat_map(|r| pick(r).iter().copied())
        .collect();
    all.sort_unstable();
    all
}

fn jsonl_line(r: &ConnResult) -> String {
    let mut sorted = r.latencies_us.clone();
    sorted.sort_unstable();
    format!(
        "{{\"conn\":{},\"tenant\":{:?},\"completed\":{},\"failed\":{},\"overload_rounds\":{},\"mislabeled_overloads\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"error\":{}}}",
        r.conn,
        r.tenant,
        r.completed,
        r.failed.len(),
        r.overload_rounds,
        r.mislabeled_overloads,
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.95),
        percentile(&sorted, 0.99),
        match &r.error {
            Some(e) => format!("{:?}", e.to_string()),
            None => "null".to_string(),
        }
    )
}

/// One `tenant_aggregate` JSONL record per tenant: completions,
/// shedding, and latency percentiles pooled over that tenant's
/// connections — the record the registry-smoke job reconciles against
/// the server's per-tenant telemetry.
fn tenant_aggregate_lines(results: &[ConnResult]) -> Vec<String> {
    let mut tenants: Vec<&str> = results.iter().map(|r| r.tenant.as_str()).collect();
    tenants.sort_unstable();
    tenants.dedup();
    tenants
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| {
            let of_tenant: Vec<&ConnResult> =
                results.iter().filter(|r| r.tenant == *t).collect();
            let all = sorted_all(of_tenant.iter().copied(), |r| &r.latencies_us);
            format!(
                "{{\"type\":\"tenant_aggregate\",\"tenant\":{:?},\"conns\":{},\"completed\":{},\"overload_rounds\":{},\"mislabeled_overloads\":{},\"p50_us\":{},\"p99_us\":{}}}",
                t,
                of_tenant.len(),
                of_tenant.iter().map(|r| r.completed).sum::<u64>(),
                of_tenant.iter().map(|r| r.overload_rounds).sum::<u64>(),
                of_tenant.iter().map(|r| r.mislabeled_overloads).sum::<u64>(),
                percentile(&all, 0.50),
                percentile(&all, 0.99),
            )
        })
        .collect()
}

fn run_cluster_mode(args: &Args) -> ! {
    let cfg = ClusterSweepConfig {
        node_counts: args.nodes.clone(),
        conns: args.conns,
        requests_per_conn: args.requests as usize,
        seed: args.seed,
        scale: args.scale,
        workers_per_node: args.workers_per_node,
        backend: args.backend,
    };
    println!(
        "cs-netload --cluster: nodes {:?}, {} conns x {} requests, seed {}",
        cfg.node_counts, cfg.conns, cfg.requests_per_conn, cfg.seed
    );
    let report = match run_cluster_sweep(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cluster sweep failed: {e}");
            std::process::exit(1);
        }
    };
    for p in &report.points {
        let per_node: Vec<String> = p
            .per_node_completed
            .iter()
            .map(|(n, c)| format!("{n}={c}"))
            .collect();
        println!(
            "  {} node(s): {} completed, {} errors, aggregate hw {:.0} req/s ({})",
            p.nodes,
            p.completed,
            p.errors,
            p.aggregate_hw_rps,
            per_node.join(", ")
        );
    }
    let scaling = report.scaling();
    println!(
        "scaling {:.2}x across {} -> {} nodes",
        scaling,
        report.points.first().map_or(0, |p| p.nodes),
        report.points.last().map_or(0, |p| p.nodes)
    );
    write_out(args, &report.jsonl_lines());
    let mut failed = false;
    for p in report.points.iter().filter(|p| p.errors > 0) {
        eprintln!(
            "error: {} request(s) failed at {} node(s)",
            p.errors, p.nodes
        );
        failed = true;
    }
    if args.min_scaling > 0.0 && scaling < args.min_scaling {
        eprintln!(
            "error: scaling {scaling:.2}x is below the required {:.2}x",
            args.min_scaling
        );
        failed = true;
    }
    std::process::exit(if failed { 2 } else { 0 });
}

/// One measured connection count in a `--conns-sweep` run.
struct ConnSweepPoint {
    conns: usize,
    completed: u64,
    overload_rounds: u64,
    errors: u64,
    client_p99_us: u64,
    server_p50_us: u64,
    server_p95_us: u64,
    server_p99_us: u64,
}

impl ConnSweepPoint {
    fn jsonl(&self) -> String {
        format!(
            "{{\"type\":\"conn_sweep_point\",\"conns\":{},\"completed\":{},\
             \"overload_rounds\":{},\"errors\":{},\"client_p99_us\":{},\
             \"server_p50_us\":{},\"server_p95_us\":{},\"server_p99_us\":{}}}",
            self.conns,
            self.completed,
            self.overload_rounds,
            self.errors,
            self.client_p99_us,
            self.server_p50_us,
            self.server_p95_us,
            self.server_p99_us,
        )
    }
}

/// Repeats the closed-loop run at each `--conns-sweep` count and gates
/// on the server-side p99 growth from the first point to the last.
fn run_conn_sweep(args: &Args) -> ! {
    println!(
        "cs-netload: sweeping {:?} conns x {} requests against {} (model \"{}\", seed {}, think {} ms)",
        args.conns_sweep, args.requests, args.addr, args.model, args.seed, args.think_ms
    );
    let n_in = model_width(args);
    let mut points: Vec<ConnSweepPoint> = Vec::new();
    let mut failed = 0u64;
    for &conns in &args.conns_sweep {
        let results = run(args, conns, n_in);
        let client_all = sorted_all(&results, |r| &r.latencies_us);
        let server_all = sorted_all(&results, |r| &r.server_latencies_us);
        let point = ConnSweepPoint {
            conns,
            completed: results.iter().map(|r| r.completed).sum(),
            overload_rounds: results.iter().map(|r| r.overload_rounds).sum(),
            errors: results.iter().map(error_count).sum(),
            client_p99_us: percentile(&client_all, 0.99),
            server_p50_us: percentile(&server_all, 0.50),
            server_p95_us: percentile(&server_all, 0.95),
            server_p99_us: percentile(&server_all, 0.99),
        };
        report_failures(&results, &format!("  conns={conns} "));
        println!(
            "  {} conns: {} completed, {} errors, server p50 {} us / p95 {} us / p99 {} us, client p99 {} us",
            point.conns,
            point.completed,
            point.errors,
            point.server_p50_us,
            point.server_p95_us,
            point.server_p99_us,
            point.client_p99_us,
        );
        failed += point.errors;
        points.push(point);
    }

    write_out(
        args,
        &points.iter().map(ConnSweepPoint::jsonl).collect::<Vec<_>>(),
    );

    let mut gate_failed = false;
    if args.max_p99_ratio > 0.0 {
        if let (Some(first), Some(last)) = (points.first(), points.last()) {
            let base = first.server_p99_us.max(P99_BASELINE_FLOOR_US);
            let ratio = last.server_p99_us as f64 / base as f64;
            println!(
                "server p99 growth {} -> {} conns: {:.2}x of max({} us, {} us floor) (gate {:.2}x)",
                first.conns,
                last.conns,
                ratio,
                first.server_p99_us,
                P99_BASELINE_FLOOR_US,
                args.max_p99_ratio
            );
            if ratio > args.max_p99_ratio {
                eprintln!(
                    "error: server-side p99 grew {ratio:.2}x across the sweep, \
                     above the allowed {:.2}x",
                    args.max_p99_ratio
                );
                gate_failed = true;
            }
        }
    }

    shutdown_if_asked(args);

    if failed > 0 || gate_failed {
        std::process::exit(2);
    }
    std::process::exit(0);
}

/// Sends one `LoadModel` per spec over a fresh control connection,
/// retrying the connect until `deadline` (the server may still be
/// binding); a load *rejection* is fatal immediately — a typed
/// registry error is an answer, not a bring-up race.
fn apply_loads(addr: &str, specs: &[LoadSpec], what: &str, deadline: Instant) {
    let mut client = loop {
        match Client::connect(addr) {
            Ok(c) => break c,
            Err(e) => {
                if Instant::now() >= deadline {
                    eprintln!("error: {what} connect to {addr} failed: {e}");
                    std::process::exit(1);
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
    };
    for spec in specs {
        match client.load_model(&spec.model, spec.version, spec.canary_pct) {
            Ok(models) => {
                let canary = if spec.canary_pct > 0 {
                    format!(" (canary {}%)", spec.canary_pct)
                } else {
                    String::new()
                };
                println!(
                    "{what}: loaded {}@v{}{canary}; {} version(s) resident",
                    spec.model,
                    spec.version,
                    models.len()
                );
            }
            Err(e) => {
                eprintln!(
                    "error: {what} of {}@v{} failed: {e}",
                    spec.model, spec.version
                );
                std::process::exit(1);
            }
        }
    }
}

fn main() {
    let args = parse_args();
    if args.cluster {
        run_cluster_mode(&args);
    }
    if !args.mid_loads.is_empty() && (args.cluster || !args.conns_sweep.is_empty()) {
        eprintln!("error: --mid-load is only meaningful in plain server mode");
        usage();
    }
    let bringup_deadline =
        Instant::now() + std::time::Duration::from_secs(args.wait_ready_secs.max(5));
    if !args.loads.is_empty() {
        apply_loads(&args.addr, &args.loads, "load", bringup_deadline);
    }
    if !args.conns_sweep.is_empty() {
        run_conn_sweep(&args);
    }

    let n_in = model_width(&args);
    // The mid-sweep loader: fire the lifecycle frames from a side
    // connection once half the expected requests have completed, so
    // promotion/eviction/reload land under live traffic. The done flag
    // guarantees it still fires (and the run still checks the loads
    // succeed) even if errors kept the halfway mark out of reach.
    let halfway = (args.conns as u64).saturating_mul(args.requests) / 2;
    let mid_loader = (!args.mid_loads.is_empty()).then(|| {
        let addr = args.addr.clone();
        let specs = args.mid_loads.clone();
        std::thread::spawn(move || {
            while PROGRESS.load(Ordering::Relaxed) < halfway && !SWEEP_DONE.load(Ordering::Relaxed)
            {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            apply_loads(
                &addr,
                &specs,
                "mid-sweep load",
                Instant::now() + std::time::Duration::from_secs(5),
            );
        })
    });

    let results = run(&args, args.conns, n_in);
    SWEEP_DONE.store(true, Ordering::Relaxed);
    if let Some(h) = mid_loader {
        if h.join().is_err() {
            eprintln!("error: mid-sweep loader panicked");
            std::process::exit(2);
        }
    }

    let all = sorted_all(&results, |r| &r.latencies_us);
    let completed: u64 = results.iter().map(|r| r.completed).sum();
    let retries: u64 = results.iter().map(|r| r.overload_rounds).sum();
    let mislabeled: u64 = results.iter().map(|r| r.mislabeled_overloads).sum();
    let failed: u64 = results.iter().map(error_count).sum();

    println!(
        "cs-netload: {} conns x {} requests against {} (model \"{}\", seed {})",
        args.conns, args.requests, args.addr, args.model, args.seed
    );
    println!(
        "completed {completed}, overload rounds {retries}, socket latency p50 {} us, p95 {} us, p99 {} us",
        percentile(&all, 0.50),
        percentile(&all, 0.95),
        percentile(&all, 0.99),
    );
    if args.tenants > 0 {
        for line in tenant_aggregate_lines(&results) {
            println!("  {line}");
        }
        if mislabeled > 0 {
            eprintln!("error: {mislabeled} overload rejections echoed the wrong tenant label");
        }
    }
    report_failures(&results, "");

    if args.out.is_some() {
        let mut lines: Vec<String> = results.iter().map(jsonl_line).collect();
        lines.extend(tenant_aggregate_lines(&results));
        lines.push(format!(
            "{{\"aggregate\":true,\"conns\":{},\"completed\":{},\"overload_rounds\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{}}}",
            args.conns,
            completed,
            retries,
            percentile(&all, 0.50),
            percentile(&all, 0.95),
            percentile(&all, 0.99),
        ));
        write_out(&args, &lines);
    }

    shutdown_if_asked(&args);

    if failed > 0 || mislabeled > 0 {
        std::process::exit(2);
    }
}
