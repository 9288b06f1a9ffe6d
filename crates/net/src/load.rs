//! Closed-loop socket load: many connections, one thread.
//!
//! [`run_closed_loop`] is the load client of `cs-netload` and of
//! `cs-cluster`'s scaling sweep. One thread multiplexes every
//! connection through the server's own readiness shim ([`crate::poll`])
//! and incremental codec ([`FrameAssembler`] / [`WriteBuffer`]), so on
//! a small host the measured tail belongs to the server under test,
//! not to the load generator's own scheduler queue.
//!
//! Each connection keeps one request in flight. Request `i` of
//! connection `c` is number `r = c × requests + i`, with input
//! [`request_input`]`(n_in, r, seed)`, so a run replays by seed; its
//! wire id is `r + 1`, because id 0 marks connection-level errors.
//! * A response completes the request.
//! * `Overloaded` for the in-flight id backs off 1–5 ms (seeded jitter)
//!   and reissues the same request.
//! * Any other typed error for the in-flight id fails that request, and
//!   the connection goes on to its next one.
//! * An id-0 error (the connection cap), a transport or protocol error,
//!   or no reply within [`ClientConfig::read_timeout`] ends the
//!   connection.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::Read;
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cs_serve::loadgen::request_input;

use crate::assembler::{FrameAssembler, WriteBuffer};
use crate::client::{dial, ClientConfig};
use crate::error::NetError;
use crate::poll::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::wire::{ErrorCode, Frame, DEFAULT_MAX_PAYLOAD};

/// What [`run_closed_loop`] drives.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// Server or orchestrator endpoint, `host:port`.
    pub addr: String,
    /// Model every request names.
    pub model: String,
    /// The model's input width.
    pub n_in: usize,
    /// Seed for request inputs, think-time and backoff jitter.
    pub seed: u64,
    /// Requests each connection completes or fails.
    pub requests: u64,
    /// Leading requests per connection left out of the latency samples
    /// (the opening connect storm is a start transient).
    pub warmup: u64,
    /// Mean pause between a connection's requests, milliseconds: each
    /// pause is uniform in `[0.5, 1.5] × think`, and the first request
    /// waits a uniform offset in `[0, think)`, so connections never
    /// pace in lock-step. 0 runs the loop saturated.
    pub think_ms: u64,
    /// One tenant label per connection (empty bills the default lane);
    /// its length is the connection count.
    pub tenants: Vec<String>,
}

/// What one connection did.
#[derive(Debug, Clone, Default)]
pub struct ConnResult {
    /// Connection index.
    pub conn: usize,
    /// Tenant this connection billed its traffic to.
    pub tenant: String,
    /// Requests answered with a response.
    pub completed: u64,
    /// `Overloaded` rejections; each one reissued the same request.
    pub overload_rounds: u64,
    /// Overload rejections whose error frame echoed a different tenant
    /// than this connection sent: any nonzero count means the tenant
    /// label was lost between admission and the wire.
    pub mislabeled_overloads: u64,
    /// Client-observed round trips of the post-warmup requests, µs.
    pub latencies_us: Vec<u64>,
    /// Server-reported `latency_us` of the same requests: decode→reply
    /// time on the server, free of client-side scheduling noise.
    pub server_latencies_us: Vec<u64>,
    /// Responses per serving node (the response's `node` field).
    pub by_node: BTreeMap<String, u64>,
    /// Requests answered with a typed non-overload error, by request
    /// number.
    pub failed: Vec<(u64, NetError)>,
    /// Why the connection ended early, if it did.
    pub error: Option<NetError>,
}

/// SplitMix64 for think-time and backoff jitter: deterministic per
/// seed, so a run's arrival process replays exactly.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, span)`; 0 when `span` is 0.
    fn below(&mut self, span: u64) -> u64 {
        self.next().checked_rem(span).unwrap_or(0)
    }
}

/// Closed-loop state of one multiplexed connection.
enum Phase {
    /// Waiting out a pacing pause or a backoff before (re)issuing
    /// request `index`.
    Thinking,
    /// Request `index` is on the wire awaiting its reply.
    InFlight,
    /// All requests answered, or the connection ended early.
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
    /// Send instant of the in-flight request (client-side latency and
    /// the reply deadline).
    sent_at: Instant,
    /// Whether `EPOLLOUT` interest is currently registered.
    want_write: bool,
    result: ConnResult,
}

/// Pacing timers: `(when, connection)`, earliest first.
type Timers = BinaryHeap<Reverse<(Instant, usize)>>;

/// Drives `plan.tenants.len()` closed-loop connections to completion
/// on the calling thread and returns one result per connection, in
/// connection order. `progress` counts completed requests as they land,
/// so another thread can act partway through the run.
///
/// # Errors
///
/// A setup failure (epoll, dialing a connection) fails the whole run;
/// everything after setup is reported per connection.
pub fn run_closed_loop(plan: &LoadPlan, progress: &AtomicU64) -> Result<Vec<ConnResult>, NetError> {
    let cfg = ClientConfig::default();
    let epoll = Epoll::new().map_err(|e| NetError::from_io("epoll", &e))?;
    let start = Instant::now();
    let mut timers = Timers::new();
    let mut table: Vec<Conn> = Vec::with_capacity(plan.tenants.len());
    for (conn, tenant) in plan.tenants.iter().enumerate() {
        let mut jitter = SplitMix64(plan.seed.wrapping_mul(0x9E37).wrapping_add(conn as u64));
        let offset_us = jitter.below(plan.think_ms * 1000);
        let stream = dial(&plan.addr, cfg.connect_timeout)?;
        stream
            .set_nonblocking(true)
            .map_err(|e| NetError::from_io("set nonblocking", &e))?;
        epoll
            .add(stream.as_raw_fd(), EPOLLIN | EPOLLRDHUP, conn as u64)
            .map_err(|e| NetError::from_io("epoll", &e))?;
        let next_send_at = start + Duration::from_micros(offset_us);
        timers.push(Reverse((next_send_at, conn)));
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
                tenant: tenant.clone(),
                latencies_us: Vec::with_capacity(plan.requests as usize),
                server_latencies_us: Vec::with_capacity(plan.requests as usize),
                ..ConnResult::default()
            },
        });
    }
    let read_timeout = cfg.read_timeout.unwrap_or(Duration::MAX);
    let mut next_deadline_scan = start + Duration::from_secs(1);
    let mut active = table.len();
    let mut events = vec![EpollEvent::zeroed(); 256];
    let mut scratch = vec![0u8; 64 * 1024];
    while active > 0 {
        let now = Instant::now();
        while let Some(&Reverse((t, id))) = timers.peek() {
            if t > now {
                break;
            }
            timers.pop();
            let c = &mut table[id];
            // Stale entries (the conn advanced past this timer) just
            // fall out of the heap.
            if !matches!(c.phase, Phase::Thinking) || c.next_send_at != t {
                continue;
            }
            if let Err(e) = send_request(c, plan, &epoll) {
                fail(c, e);
                retire(c, &epoll, &mut active);
            }
        }
        // Reply deadlines are seconds long, so one pass a second over
        // the in-flight connections enforces them without a timer per
        // request.
        if now >= next_deadline_scan {
            next_deadline_scan = now + Duration::from_secs(1);
            for c in table.iter_mut() {
                let waited = now.saturating_duration_since(c.sent_at);
                if matches!(c.phase, Phase::InFlight) && waited >= read_timeout {
                    let late = NetError::Timeout {
                        context: "read reply",
                    };
                    fail(c, late);
                    retire(c, &epoll, &mut active);
                }
            }
        }
        let timeout_ms = match timers.peek() {
            Some(&Reverse((t, _))) => {
                let dur = t.saturating_duration_since(Instant::now());
                (dur.as_millis() as i64 + 1).min(1_000) as i32
            }
            None => 1_000,
        };
        let n = epoll
            .wait(&mut events, timeout_ms)
            .map_err(|e| NetError::from_io("epoll", &e))?;
        for ev in events.iter().take(n) {
            let id = ev.token() as usize;
            let mask = ev.events();
            let c = &mut table[id];
            if matches!(c.phase, Phase::Done) {
                continue;
            }
            // Read before judging a hangup: a refused connection's
            // typed error frame is still queued ahead of the EOF.
            if mask & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
                if let Err(e) = on_readable(c, plan, &mut scratch, &mut timers, progress) {
                    fail(c, e);
                }
                if mask & (EPOLLERR | EPOLLHUP) != 0 {
                    fail(c, NetError::ConnectionClosed);
                }
            }
            if mask & EPOLLOUT != 0 && !matches!(c.phase, Phase::Done) {
                if let Err(e) = flush(c, &epoll) {
                    fail(c, e);
                }
            }
            if matches!(c.phase, Phase::Done) {
                retire(c, &epoll, &mut active);
            }
        }
    }
    Ok(table.into_iter().map(|c| c.result).collect())
}

/// Ends a live connection with `err`; one already done keeps its
/// outcome.
fn fail(c: &mut Conn, err: NetError) {
    if !matches!(c.phase, Phase::Done) {
        c.phase = Phase::Done;
        c.result.error = Some(err);
    }
}

/// Drops a connection that just reached `Done` from the loop.
fn retire(c: &Conn, epoll: &Epoll, active: &mut usize) {
    let _ = epoll.delete(c.stream.as_raw_fd());
    *active -= 1;
}

/// Issues the connection's current request and flushes.
fn send_request(c: &mut Conn, plan: &LoadPlan, epoll: &Epoll) -> Result<(), NetError> {
    let request = c.result.conn as u64 * plan.requests + c.index;
    let frame = Frame::Request {
        id: request + 1,
        model: plan.model.clone(),
        tenant: c.result.tenant.clone(),
        input: request_input(plan.n_in, request, plan.seed),
    };
    c.wbuf.push_frame(&frame);
    c.sent_at = Instant::now();
    c.phase = Phase::InFlight;
    flush(c, epoll)
}

/// Flushes as much as the socket accepts and keeps `EPOLLOUT`
/// interest in sync with whether bytes remain.
fn flush(c: &mut Conn, epoll: &Epoll) -> Result<(), NetError> {
    let mut w = &c.stream;
    c.wbuf
        .flush_to(&mut w)
        .map_err(|e| NetError::from_io("write request", &e))?;
    let pending = !c.wbuf.is_empty();
    if pending != c.want_write {
        let interest = if pending {
            EPOLLIN | EPOLLOUT | EPOLLRDHUP
        } else {
            EPOLLIN | EPOLLRDHUP
        };
        epoll
            .modify(c.stream.as_raw_fd(), interest, c.result.conn as u64)
            .map_err(|e| NetError::from_io("epoll", &e))?;
        c.want_write = pending;
    }
    Ok(())
}

/// Reads until `WouldBlock`, feeding the assembler and handling every
/// completed frame.
fn on_readable(
    c: &mut Conn,
    plan: &LoadPlan,
    scratch: &mut [u8],
    timers: &mut Timers,
    progress: &AtomicU64,
) -> Result<(), NetError> {
    loop {
        let n = {
            let mut r = &c.stream;
            match r.read(scratch) {
                Ok(0) => return Err(NetError::ConnectionClosed),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(NetError::from_io("read reply", &e)),
            }
        };
        c.asm.push(&scratch[..n]);
        while let Some(frame) = c.asm.next_frame()? {
            on_frame(c, frame, plan, timers, progress)?;
        }
        if matches!(c.phase, Phase::Done) {
            return Ok(());
        }
    }
}

/// Advances the closed loop on one reply frame.
fn on_frame(
    c: &mut Conn,
    frame: Frame,
    plan: &LoadPlan,
    timers: &mut Timers,
    progress: &AtomicU64,
) -> Result<(), NetError> {
    let request = c.result.conn as u64 * plan.requests + c.index;
    let rid = request + 1;
    let in_flight = matches!(c.phase, Phase::InFlight);
    match frame {
        Frame::Response {
            id: got,
            latency_us,
            node,
            ..
        } if in_flight && got == rid => {
            let now = Instant::now();
            if c.index >= plan.warmup {
                c.result
                    .latencies_us
                    .push(now.duration_since(c.sent_at).as_micros() as u64);
                c.result.server_latencies_us.push(latency_us);
            }
            c.result.completed += 1;
            *c.result.by_node.entry(node).or_default() += 1;
            progress.fetch_add(1, Ordering::Relaxed);
            next_request(c, plan, now, timers);
            Ok(())
        }
        Frame::Error {
            id: got,
            code: ErrorCode::Overloaded,
            tenant,
            ..
        } if in_flight && got == rid => {
            // Stay closed-loop: jittered backoff, then reissue the
            // same request.
            if !c.result.tenant.is_empty() && tenant != c.result.tenant {
                c.result.mislabeled_overloads += 1;
            }
            c.result.overload_rounds += 1;
            let backoff = Duration::from_micros(1_000 + c.jitter.below(4_000));
            think(c, Instant::now() + backoff, timers);
            Ok(())
        }
        Frame::Error {
            id: got,
            code,
            tenant,
            detail,
        } if (in_flight && got == rid) || got == 0 => {
            let err = NetError::Remote {
                code,
                tenant,
                detail,
            };
            if got == 0 {
                // Answers the whole connection, not one request.
                return Err(err);
            }
            c.result.failed.push((request, err));
            next_request(c, plan, Instant::now(), timers);
            Ok(())
        }
        Frame::Response { id: got, .. } | Frame::Error { id: got, .. } => Err(NetError::Protocol(
            format!("unexpected reply id {got} (expected {rid})"),
        )),
        other => Err(NetError::Protocol(format!(
            "expected response or error, got {:?}",
            other.frame_type()
        ))),
    }
}

/// Moves past the answered request: done after the last one, else a
/// pacing pause uniform in `[0.5, 1.5] × think`.
fn next_request(c: &mut Conn, plan: &LoadPlan, now: Instant, timers: &mut Timers) {
    c.index += 1;
    if c.index == plan.requests {
        c.phase = Phase::Done;
        return;
    }
    let pause_us = plan.think_ms * 500 + c.jitter.below(plan.think_ms * 1000);
    think(c, now + Duration::from_micros(pause_us), timers);
}

/// Parks the connection until `at`, when its current request goes out.
fn think(c: &mut Conn, at: Instant, timers: &mut Timers) {
    c.phase = Phase::Thinking;
    c.next_send_at = at;
    timers.push(Reverse((at, c.result.conn)));
}
