//! `cs-netload` — closed-loop load generator for single servers and
//! clusters.
//!
//! **Server mode** (default): opens `--conns` TCP connections to a
//! running `cs-netserve` *or* `cs-orchestrate` endpoint (they speak the
//! same protocol), asks for the model's input width, then drives
//! `--requests` inferences per connection closed-loop, reusing the
//! deterministic request shapes the in-process load generator uses
//! (`cs_serve::loadgen::request_input`), so a network sweep is
//! replayable by seed. Overload rejections are retried through
//! `cs-net`'s seeded exponential-backoff policy and counted, not
//! failed. `--think-ms` inserts pacing between a connection's requests
//! so high connection counts measure concurrency, not queueing from a
//! saturating closed loop; the pause is jittered per connection from
//! the seed (uniform in `[0.5, 1.5] × think`, plus a random initial
//! offset), because a thousand connections pacing in lock-step would
//! arrive as synchronized waves and measure the wave, not the server.
//!
//! **Connection sweep** (`--conns-sweep N1,N2,..`): repeats the server
//! mode run at each connection count against the same endpoint and
//! emits one `conn_sweep_point` JSONL record per count. The sweep
//! client is itself event-driven: one thread multiplexes every
//! connection through the same `cs_net::poll` epoll shim and
//! `FrameAssembler` the server uses, because a thousand loadgen
//! *threads* would swamp the scheduler of a small CI host and the tail
//! latency would measure the client's own run queue, not the server.
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
//! request failed with a non-overload error (or a scaling / p99 gate
//! failed).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use cs_cluster::{run_cluster_sweep, ClusterSweepConfig};
use cs_net::{Client, RetryPolicy};
use cs_serve::loadgen::request_input;
use cs_serve::ExecBackend;

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

/// Completed requests across every connection thread; the mid-sweep
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
         \x20                [--backend simulator|sparse|dense] [--out PATH]\n\
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
                out.max_p99_ratio = match value("--max-p99-ratio").parse() {
                    Ok(f) => f,
                    Err(_) => {
                        eprintln!("error: --max-p99-ratio expects a number");
                        usage();
                    }
                }
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
                    "dense" => ExecBackend::Dense,
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
                out.min_scaling = match value("--min-scaling").parse() {
                    Ok(f) => f,
                    Err(_) => {
                        eprintln!("error: --min-scaling expects a number");
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

/// SplitMix64 for think-time jitter: deterministic per seed, so a
/// sweep's arrival process replays exactly.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Per-connection sweep outcome.
struct ConnResult {
    conn: usize,
    /// Tenant this connection billed its traffic to (empty when
    /// `--tenants` is off).
    tenant: String,
    completed: u64,
    overload_rounds: u64,
    /// Overload rejections whose error frame echoed a different tenant
    /// than this connection sent — any nonzero count means the tenant
    /// label was lost somewhere between admission and the wire.
    mislabeled_overloads: u64,
    /// Client-observed round-trip latencies.
    latencies_us: Vec<u64>,
    /// Server-reported per-request latencies (`latency_us` in each
    /// response frame): decode→reply time on the server, free of
    /// client-side scheduling noise.
    server_latencies_us: Vec<u64>,
    error: Option<String>,
}

fn run_connection(args: &Args, conn: usize) -> ConnResult {
    let mut result = ConnResult {
        conn,
        tenant: tenant_of(args, conn),
        completed: 0,
        overload_rounds: 0,
        mislabeled_overloads: 0,
        latencies_us: Vec::with_capacity(args.requests as usize),
        server_latencies_us: Vec::with_capacity(args.requests as usize),
        error: None,
    };
    let mut client = match Client::connect(&args.addr) {
        Ok(c) => c,
        Err(e) => {
            result.error = Some(format!("connect: {e}"));
            return result;
        }
    };
    let n_in = match client.model_info(&args.model) {
        Ok((n_in, _)) => n_in as usize,
        Err(e) => {
            result.error = Some(format!("model query: {e}"));
            return result;
        }
    };
    let policy = RetryPolicy {
        seed: args.seed ^ conn as u64,
        ..RetryPolicy::default()
    };
    let mut jitter = SplitMix64(args.seed.wrapping_mul(0x9E37).wrapping_add(conn as u64));
    if args.think_ms > 0 {
        // Random initial offset in [0, think): without it every
        // connection fires its first request at the same instant and
        // the opening wave dominates a short run's tail latency.
        let offset = jitter.next() % (args.think_ms * 1000);
        std::thread::sleep(std::time::Duration::from_micros(offset));
    }
    for i in 0..args.requests {
        // Globally unique request id -> unique deterministic input,
        // exactly as the in-process loadgen shapes its traffic.
        let request_id = (conn as u64) * args.requests + i;
        let input = request_input(n_in, request_id, args.seed);
        loop {
            let t0 = Instant::now();
            match client.request_with_retry_as(&args.model, &result.tenant, &input, &policy) {
                Ok(resp) => {
                    // Warmup requests complete but don't enter the
                    // latency stats: the opening connect storm (every
                    // connection dials at t=0) is a start transient,
                    // not the steady state the percentiles describe.
                    if i >= args.warmup {
                        result.latencies_us.push(t0.elapsed().as_micros() as u64);
                        result.server_latencies_us.push(resp.latency_us);
                    }
                    result.completed += 1;
                    PROGRESS.fetch_add(1, Ordering::Relaxed);
                    break;
                }
                Err(e) if e.is_overloaded() => {
                    // The whole retry budget drained and the server is
                    // still shedding: stay closed-loop and go again.
                    if let cs_net::NetError::Remote { tenant, .. } = &e {
                        if !result.tenant.is_empty() && *tenant != result.tenant {
                            result.mislabeled_overloads += 1;
                        }
                    }
                    result.overload_rounds += 1;
                }
                Err(e) => {
                    result.error = Some(format!("request {request_id}: {e}"));
                    return result;
                }
            }
        }
        if args.think_ms > 0 {
            // Uniform in [0.5, 1.5] × think: same mean rate, no waves.
            let us = args.think_ms * 500 + jitter.next() % (args.think_ms * 1000);
            std::thread::sleep(std::time::Duration::from_micros(us));
        }
    }
    result
}

/// Drives `conns` concurrent closed-loop connections to completion.
fn run_load(args: &Args, conns: usize) -> Vec<ConnResult> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| {
                scope.spawn({
                    let args = &args;
                    move || run_connection(args, conn)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(conn, h)| {
                h.join().unwrap_or_else(|_| ConnResult {
                    conn,
                    tenant: tenant_of(args, conn),
                    completed: 0,
                    overload_rounds: 0,
                    mislabeled_overloads: 0,
                    latencies_us: Vec::new(),
                    server_latencies_us: Vec::new(),
                    error: Some("connection thread panicked".to_string()),
                })
            })
            .collect()
    })
}

/// Event-driven sweep client: one thread multiplexes every connection
/// through the server's own readiness shim
/// ([`cs_net::poll`]) and incremental codec ([`cs_net::FrameAssembler`]
/// / [`cs_net::WriteBuffer`]). A thousand closed-loop connections cost
/// one runnable thread instead of a thousand, so on a small host the
/// measured tail belongs to the server under test, not to the load
/// generator's own scheduler queue.
mod evloop {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::io::Read;
    use std::net::TcpStream;
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    use cs_net::poll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
    use cs_net::{ErrorCode, Frame, FrameAssembler, WriteBuffer, DEFAULT_MAX_PAYLOAD};
    use cs_serve::loadgen::request_input;

    use super::{Args, ConnResult, SplitMix64};

    /// Closed-loop state of one multiplexed connection.
    enum Phase {
        /// Waiting out a pacing pause before (re)issuing request `index`.
        Thinking,
        /// Request `index` is on the wire awaiting its reply.
        InFlight,
        /// All requests answered, or the connection errored out.
        Done,
    }

    struct Conn {
        stream: TcpStream,
        asm: FrameAssembler,
        wbuf: WriteBuffer,
        jitter: SplitMix64,
        phase: Phase,
        /// When `Thinking` ends and the next request goes out.
        next_send_at: Instant,
        /// Current request number in `0..requests`; overload retries
        /// reuse it, so the request id and input replay deterministically.
        index: u64,
        /// Send instant of the in-flight request (client-side latency).
        sent_at: Instant,
        /// Whether `EPOLLOUT` interest is currently registered.
        want_write: bool,
        result: ConnResult,
    }

    fn failed_result(args: &Args, conn: usize, err: String) -> ConnResult {
        ConnResult {
            conn,
            tenant: super::tenant_of(args, conn),
            completed: 0,
            overload_rounds: 0,
            mislabeled_overloads: 0,
            latencies_us: Vec::new(),
            server_latencies_us: Vec::new(),
            error: Some(err),
        }
    }

    /// Drives `conns` closed-loop connections to completion on one
    /// thread. A setup failure (epoll, connect, register) fails the
    /// whole point: every connection reports the error.
    pub fn run_load_event(args: &Args, conns: usize, n_in: usize) -> Vec<ConnResult> {
        match drive(args, conns, n_in) {
            Ok(results) => results,
            Err(e) => (0..conns)
                .map(|conn| failed_result(args, conn, format!("event loop: {e}")))
                .collect(),
        }
    }

    fn drive(args: &Args, conns: usize, n_in: usize) -> std::io::Result<Vec<ConnResult>> {
        let epoll = Epoll::new()?;
        let start = Instant::now();
        let mut heap: BinaryHeap<Reverse<(Instant, usize)>> = BinaryHeap::new();
        let mut table: Vec<Conn> = Vec::with_capacity(conns);
        for conn in 0..conns {
            let mut jitter = SplitMix64(args.seed.wrapping_mul(0x9E37).wrapping_add(conn as u64));
            // Random initial offset in [0, think): same de-synchronized
            // arrival process as the threaded path.
            let offset_us = if args.think_ms > 0 {
                jitter.next() % (args.think_ms * 1000)
            } else {
                0
            };
            let stream = TcpStream::connect(&args.addr)?;
            let _ = stream.set_nodelay(true);
            stream.set_nonblocking(true)?;
            epoll.add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, conn as u64)?;
            let next_send_at = start + Duration::from_micros(offset_us);
            heap.push(Reverse((next_send_at, conn)));
            table.push(Conn {
                stream,
                asm: FrameAssembler::new(DEFAULT_MAX_PAYLOAD),
                wbuf: WriteBuffer::new(),
                jitter,
                phase: Phase::Thinking,
                next_send_at,
                index: 0,
                sent_at: start,
                want_write: false,
                result: ConnResult {
                    conn,
                    tenant: super::tenant_of(args, conn),
                    completed: 0,
                    overload_rounds: 0,
                    mislabeled_overloads: 0,
                    latencies_us: Vec::with_capacity(args.requests as usize),
                    server_latencies_us: Vec::with_capacity(args.requests as usize),
                    error: None,
                },
            });
        }
        let mut active = conns;
        let mut events = vec![EpollEvent::zeroed(); 256];
        let mut scratch = vec![0u8; 64 * 1024];
        while active > 0 {
            let now = Instant::now();
            while let Some(&Reverse((t, id))) = heap.peek() {
                if t > now {
                    break;
                }
                heap.pop();
                let c = &mut table[id];
                // Stale entries (the conn advanced past this deadline)
                // just fall out of the heap.
                if !matches!(c.phase, Phase::Thinking) || c.next_send_at != t {
                    continue;
                }
                if let Err(e) = send_request(c, id, args, n_in, &epoll) {
                    fail(c, e, &epoll, &mut active);
                }
            }
            let timeout_ms = match heap.peek() {
                Some(&Reverse((t, _))) => {
                    let dur = t.saturating_duration_since(Instant::now());
                    (dur.as_millis() as i64 + 1).min(1_000) as i32
                }
                None => 1_000,
            };
            let n = epoll.wait(&mut events, timeout_ms)?;
            for ev in events.iter().take(n) {
                let id = ev.token() as usize;
                let mask = ev.events();
                if matches!(table[id].phase, Phase::Done) {
                    continue;
                }
                if mask & (EPOLLERR | EPOLLHUP) != 0 {
                    let err = "socket error/hangup".to_string();
                    fail(&mut table[id], err, &epoll, &mut active);
                    continue;
                }
                if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
                    match on_readable(&mut table[id], id, args, &mut scratch, &mut heap) {
                        Ok(()) => {
                            if matches!(table[id].phase, Phase::Done) {
                                let _ = epoll.delete(table[id].stream.as_raw_fd());
                                active -= 1;
                            }
                        }
                        Err(e) => fail(&mut table[id], e, &epoll, &mut active),
                    }
                }
                if mask & EPOLLOUT != 0 && !matches!(table[id].phase, Phase::Done) {
                    if let Err(e) = flush(&mut table[id], id, &epoll) {
                        fail(&mut table[id], e, &epoll, &mut active);
                    }
                }
            }
        }
        Ok(table.into_iter().map(|c| c.result).collect())
    }

    /// Marks a connection failed and drops it from the loop.
    fn fail(c: &mut Conn, err: String, epoll: &Epoll, active: &mut usize) {
        if !matches!(c.phase, Phase::Done) {
            let _ = epoll.delete(c.stream.as_raw_fd());
            *active -= 1;
        }
        c.phase = Phase::Done;
        if c.result.error.is_none() {
            c.result.error = Some(err);
        }
    }

    /// Issues request `index` for connection `id` and flushes.
    fn send_request(
        c: &mut Conn,
        id: usize,
        args: &Args,
        n_in: usize,
        epoll: &Epoll,
    ) -> Result<(), String> {
        let rid = (id as u64) * args.requests + c.index;
        let input = request_input(n_in, rid, args.seed);
        let frame = Frame::Request {
            id: rid,
            model: args.model.clone(),
            tenant: c.result.tenant.clone(),
            input,
        };
        c.wbuf.push(&frame.encode());
        c.sent_at = Instant::now();
        c.phase = Phase::InFlight;
        flush(c, id, epoll)
    }

    /// Flushes as much as the socket accepts and keeps `EPOLLOUT`
    /// interest in sync with whether bytes remain.
    fn flush(c: &mut Conn, id: usize, epoll: &Epoll) -> Result<(), String> {
        let mut w = &c.stream;
        if let Err(e) = c.wbuf.flush_to(&mut w) {
            return Err(format!("write: {e}"));
        }
        let pending = !c.wbuf.is_empty();
        if pending != c.want_write {
            let interest = if pending {
                EPOLLIN | EPOLLOUT | EPOLLRDHUP
            } else {
                EPOLLIN | EPOLLRDHUP
            };
            epoll
                .modify(c.stream.as_raw_fd(), interest, id as u64)
                .map_err(|e| format!("epoll: {e}"))?;
            c.want_write = pending;
        }
        Ok(())
    }

    /// Reads until `WouldBlock`, feeding the assembler and handling
    /// every completed frame.
    fn on_readable(
        c: &mut Conn,
        id: usize,
        args: &Args,
        scratch: &mut [u8],
        heap: &mut BinaryHeap<Reverse<(Instant, usize)>>,
    ) -> Result<(), String> {
        loop {
            let n = {
                let mut r = &c.stream;
                match r.read(scratch) {
                    Ok(0) => return Err("server closed the connection".to_string()),
                    Ok(n) => n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(format!("read: {e}")),
                }
            };
            c.asm.push(&scratch[..n]);
            loop {
                match c.asm.next_frame() {
                    Ok(Some(frame)) => on_frame(c, id, frame, args, heap)?,
                    Ok(None) => break,
                    Err(e) => return Err(format!("decode: {e}")),
                }
            }
            if matches!(c.phase, Phase::Done) {
                return Ok(());
            }
        }
        Ok(())
    }

    /// Advances the closed loop on one reply frame.
    fn on_frame(
        c: &mut Conn,
        id: usize,
        frame: Frame,
        args: &Args,
        heap: &mut BinaryHeap<Reverse<(Instant, usize)>>,
    ) -> Result<(), String> {
        let rid = (id as u64) * args.requests + c.index;
        match frame {
            Frame::Response {
                id: got,
                latency_us,
                ..
            } => {
                if !matches!(c.phase, Phase::InFlight) || got != rid {
                    return Err(format!("unexpected response id {got} (expected {rid})"));
                }
                let now = Instant::now();
                // Warmup requests complete but stay out of the stats
                // (start transient, not steady state).
                if c.index >= args.warmup {
                    c.result
                        .latencies_us
                        .push(now.duration_since(c.sent_at).as_micros() as u64);
                    c.result.server_latencies_us.push(latency_us);
                }
                c.result.completed += 1;
                c.index += 1;
                if c.index == args.requests {
                    c.phase = Phase::Done;
                } else {
                    // Uniform in [0.5, 1.5] × think: the same pacing law
                    // as the threaded path, so sweeps are comparable.
                    let pause_us = if args.think_ms > 0 {
                        args.think_ms * 500 + c.jitter.next() % (args.think_ms * 1000)
                    } else {
                        0
                    };
                    c.phase = Phase::Thinking;
                    c.next_send_at = now + Duration::from_micros(pause_us);
                    heap.push(Reverse((c.next_send_at, id)));
                }
                Ok(())
            }
            Frame::Error {
                id: got,
                code: ErrorCode::Overloaded,
                tenant,
                ..
            } if got == rid => {
                // Stay closed-loop: jittered backoff, then reissue the
                // same request (the blocking client's retry, event-shaped).
                if !c.result.tenant.is_empty() && tenant != c.result.tenant {
                    c.result.mislabeled_overloads += 1;
                }
                c.result.overload_rounds += 1;
                c.phase = Phase::Thinking;
                c.next_send_at =
                    Instant::now() + Duration::from_micros(1_000 + c.jitter.next() % 4_000);
                heap.push(Reverse((c.next_send_at, id)));
                Ok(())
            }
            Frame::Error { code, detail, .. } => Err(format!("server error {code:?}: {detail}")),
            other => Err(format!("unexpected frame {other:?}")),
        }
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted_all(results: &[ConnResult], pick: impl Fn(&ConnResult) -> &[u64]) -> Vec<u64> {
    let mut all: Vec<u64> = results
        .iter()
        .flat_map(|r| pick(r).iter().copied())
        .collect();
    all.sort_unstable();
    all
}

fn jsonl_line(r: &ConnResult) -> String {
    let mut sorted = r.latencies_us.clone();
    sorted.sort_unstable();
    format!(
        "{{\"conn\":{},\"tenant\":{:?},\"completed\":{},\"overload_rounds\":{},\"mislabeled_overloads\":{},\"p50_us\":{},\"p95_us\":{},\"p99_us\":{},\"error\":{}}}",
        r.conn,
        r.tenant,
        r.completed,
        r.overload_rounds,
        r.mislabeled_overloads,
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.95),
        percentile(&sorted, 0.99),
        match &r.error {
            Some(e) => format!("{:?}", e),
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
            let mut all: Vec<u64> = of_tenant
                .iter()
                .flat_map(|r| r.latencies_us.iter().copied())
                .collect();
            all.sort_unstable();
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
    if let Some(path) = &args.out {
        let body = report.jsonl_lines().join("\n") + "\n";
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("writing {path} failed: {e}");
            std::process::exit(2);
        }
        println!("results written to {path}");
    }
    if args.min_scaling > 0.0 && scaling < args.min_scaling {
        eprintln!(
            "error: scaling {scaling:.2}x is below the required {:.2}x",
            args.min_scaling
        );
        std::process::exit(2);
    }
    std::process::exit(0);
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
    // Probe the model shape once; every connection reuses it.
    let n_in = match Client::connect(&args.addr).and_then(|mut c| c.model_info(&args.model)) {
        Ok((n_in, _)) => n_in as usize,
        Err(e) => {
            eprintln!("error: model query against {} failed: {e}", args.addr);
            std::process::exit(1);
        }
    };
    let mut points: Vec<ConnSweepPoint> = Vec::new();
    let mut failed = 0u64;
    for &conns in &args.conns_sweep {
        let results = evloop::run_load_event(args, conns, n_in);
        let client_all = sorted_all(&results, |r| &r.latencies_us);
        let server_all = sorted_all(&results, |r| &r.server_latencies_us);
        let point = ConnSweepPoint {
            conns,
            completed: results.iter().map(|r| r.completed).sum(),
            overload_rounds: results.iter().map(|r| r.overload_rounds).sum(),
            errors: results.iter().filter(|r| r.error.is_some()).count() as u64,
            client_p99_us: percentile(&client_all, 0.99),
            server_p50_us: percentile(&server_all, 0.50),
            server_p95_us: percentile(&server_all, 0.95),
            server_p99_us: percentile(&server_all, 0.99),
        };
        for r in results.iter().filter(|r| r.error.is_some()) {
            eprintln!(
                "  conns={conns} conn {} failed: {}",
                r.conn,
                r.error.as_deref().unwrap_or("")
            );
        }
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

    if let Some(path) = &args.out {
        let body = points
            .iter()
            .map(ConnSweepPoint::jsonl)
            .collect::<Vec<_>>()
            .join("\n")
            + "\n";
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("writing {path} failed: {e}");
            std::process::exit(2);
        }
        println!("results written to {path}");
    }

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

    if args.shutdown {
        match Client::connect(&args.addr).and_then(|mut c| c.shutdown_server()) {
            Ok(()) => println!("server drained and stopped"),
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                std::process::exit(2);
            }
        }
    }

    if failed > 0 || gate_failed {
        std::process::exit(2);
    }
    std::process::exit(0);
}

/// Polls the endpoint until the target model resolves (or the deadline
/// passes). Against an orchestrator this waits out the window between
/// "listener up" and "first worker registered", so scripted multi-process
/// bring-up doesn't race worker registration.
fn wait_ready(args: &Args) {
    let deadline = Instant::now() + std::time::Duration::from_secs(args.wait_ready_secs);
    loop {
        let ready = Client::connect(&args.addr)
            .and_then(|mut c| c.model_info(&args.model))
            .is_ok();
        if ready {
            return;
        }
        if Instant::now() >= deadline {
            eprintln!(
                "error: {} did not serve model {:?} within {}s",
                args.addr, args.model, args.wait_ready_secs
            );
            std::process::exit(1);
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
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
    if args.wait_ready_secs > 0 {
        wait_ready(&args);
    }
    if !args.conns_sweep.is_empty() {
        run_conn_sweep(&args);
    }

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

    let results = run_load(&args, args.conns);
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
    let failed: Vec<&ConnResult> = results.iter().filter(|r| r.error.is_some()).collect();

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
    for r in &failed {
        eprintln!(
            "conn {} failed: {}",
            r.conn,
            r.error.as_deref().unwrap_or("")
        );
    }

    if let Some(path) = &args.out {
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
        let body = lines.join("\n") + "\n";
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("writing {path} failed: {e}");
            std::process::exit(2);
        }
        println!("results written to {path}");
    }

    if args.shutdown {
        match Client::connect(&args.addr).and_then(|mut c| c.shutdown_server()) {
            Ok(()) => println!("server drained and stopped"),
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                std::process::exit(2);
            }
        }
    }

    if !failed.is_empty() || mislabeled > 0 {
        std::process::exit(2);
    }
}
