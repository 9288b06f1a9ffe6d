//! The event loop behind [`crate::NetServer`].
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!  clients ──TCP──▶  │ event loop: epoll { listener, wake pipe,   │
//!                    │   N nonblocking conns }                    │
//!                    │  · FrameAssembler per conn (incremental    │
//!                    │    decode)                                 │
//!                    │  · pending VecDeque per conn (FIFO reply   │
//!                    │    order under pipelining)                 │
//!                    │  · WriteBuffer per conn (coalesced,        │
//!                    │    backpressure-aware flush)               │
//!                    └───────▲────────────────────┬───────────────┘
//!                            │ wake byte, on the  │ submit_rung
//!                            │ idle→pending edge  │ → Ticket
//!                    ┌───────┴────────┐   ┌───────▼───────────────┐
//!                    │ mailbox of     │◀──│ cs_serve worker lanes │
//!                    │ rung tokens    │   │ (a dropped job rings) │
//!                    └────────────────┘   └───────────────────────┘
//! ```
//!
//! One thread owns every socket. A request is submitted with a
//! [`Doorbell`] carrying its connection's token and its [`Ticket`] is
//! parked in the connection's `pending` queue. The worker that finishes
//! the job sends the reply and drops the job, which rings: the token
//! goes into the [`Mailbox`], and the wake pipe gets a byte only when
//! the mailbox goes from idle to pending, so a burst of replies costs
//! one wakeup. The loop then resolves each rung connection's queue from
//! the front with [`Ticket::try_wait`] until the first slot still in
//! flight, and encodes only from the front, so pipelined replies leave
//! in submission order even when batches complete out of order.
//!
//! `LoadModel` / `UnloadModel` can wait out a victim's in-flight drain,
//! so each runs on a short-lived thread that rings the same mailbox
//! when its ack is ready; reads on that connection pause meanwhile (a
//! request pipelined behind a load sees the loaded model), and every
//! other connection keeps being served.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use cs_serve::{Doorbell, InferRequest, Ticket};

use crate::assembler::{FrameAssembler, WriteBuffer};
use crate::error::NetError;
use crate::poll::{
    Epoll, EpollEvent, WakePipe, Waker, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};
use crate::server::{lifecycle_reply, query_reply, Shared};
use crate::wire::{ErrorCode, Frame};

/// epoll token for the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// epoll token for the wake pipe's read end.
const TOKEN_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const TOKEN_BASE: u64 = 2;

/// Loop tick: upper bound on deadline-check latency.
const TICK_MS: i32 = 25;
/// Read chunk size per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;
/// Events drained per `epoll_wait`.
const EVENTS_CAP: usize = 256;

/// Where finished work rings the loop: the tokens of connections that
/// have something to look at, plus the wake pipe. It owns both ends of
/// the pipe, so a job that rings after the loop has exited writes into
/// a live pipe nobody reads rather than a closed one.
pub(crate) struct Mailbox {
    rung: Mutex<Vec<u64>>,
    /// Set by the first ring after the loop last emptied the mailbox;
    /// only that ring writes the pipe.
    pending: AtomicBool,
    pipe: WakePipe,
    waker: Waker,
}

impl Mailbox {
    pub(crate) fn new() -> io::Result<Mailbox> {
        let pipe = WakePipe::new()?;
        let waker = pipe.waker();
        Ok(Mailbox {
            rung: Mutex::new(Vec::new()),
            pending: AtomicBool::new(false),
            pipe,
            waker,
        })
    }

    /// Posts `token` and wakes the loop on the idle→pending edge.
    fn ring(&self, token: u64) {
        self.rung
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .push(token);
        if !self.pending.swap(true, Ordering::SeqCst) {
            self.waker.wake();
        }
    }

    /// Wakes the loop without posting anything (stop requests).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    /// Moves every posted token into `into`. The edge is re-armed
    /// before the take, so a ring that misses this take wakes the loop
    /// again.
    fn take(&self, into: &mut Vec<u64>) {
        if self.pending.swap(false, Ordering::SeqCst) {
            into.append(
                &mut self
                    .rung
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
            );
        }
    }
}

/// One slot in a connection's FIFO reply queue.
enum Slot {
    /// Admitted to the serve runtime; the job rings when `ticket`
    /// resolves.
    Waiting { id: u64, t0_us: u64, ticket: Ticket },
    /// A lifecycle frame running on its own thread, which rings once
    /// the ack is in `ack`.
    Control { id: u64, ack: Receiver<Frame> },
    /// Ready to encode and flush.
    Done(Frame),
}

impl Slot {
    /// Encodes the reply into `out` once the slot has resolved; `None`
    /// while it is in flight. A served response is encoded straight
    /// from its `InferResponse` and yields `Some(Some(t0_us))` for the
    /// latency histogram; every other reply yields `Some(None)`.
    fn encode_into(&self, out: &mut WriteBuffer) -> Option<Option<u64>> {
        match self {
            Slot::Done(frame) => out.push_frame(frame),
            Slot::Waiting { id, t0_us, ticket } => match ticket.try_wait()? {
                Ok(resp) => {
                    out.push_response(*id, &resp);
                    return Some(Some(*t0_us));
                }
                Err(e) => out.push_frame(&Frame::from_serve_error(*id, &e)),
            },
            Slot::Control { id, ack } => match ack.try_recv() {
                Err(TryRecvError::Empty) => return None,
                Ok(frame) => out.push_frame(&frame),
                Err(TryRecvError::Disconnected) => out.push_frame(&Frame::Error {
                    id: *id,
                    code: ErrorCode::Internal,
                    tenant: String::new(),
                    detail: "lifecycle operation died without an answer".to_string(),
                }),
            },
        }
        Some(None)
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum ConnState {
    /// Reading and serving.
    Open,
    /// No further reads; flush outstanding replies, then close. Entered
    /// on clean EOF, decode errors, protocol violations, read
    /// deadlines, and the shutdown control frame.
    Draining,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    asm: FrameAssembler,
    out: WriteBuffer,
    /// `(cumulative out-stream offset where a frame ends, request t0)`;
    /// popped as `total_flushed` passes each end — the exact moment the
    /// frames-out counter and the latency histogram observe.
    frame_ends: VecDeque<(u64, Option<u64>)>,
    pending: VecDeque<Slot>,
    state: ConnState,
    /// Reply queue at capacity: reads are paused (backpressure) until
    /// replies free a slot — or the slow-consumer grace expires.
    reads_paused: bool,
    paused_since_us: Option<u64>,
    /// A lifecycle frame is in flight: no frame after it is decoded
    /// until its ack is queued.
    awaiting_ack: bool,
    last_in_us: u64,
    last_write_progress_us: u64,
    /// The currently registered epoll interest mask.
    interest: u32,
    /// This connection carried the shutdown control frame; once its ack
    /// flushes (or it dies), the whole frontend stops.
    carried_shutdown: bool,
}

impl Conn {
    fn reading(&self) -> bool {
        self.state == ConnState::Open && !self.reads_paused && !self.awaiting_ack
    }

    fn desired_interest(&self) -> u32 {
        let mut mask = 0;
        if self.reading() {
            mask |= EPOLLIN | EPOLLRDHUP;
        }
        if !self.out.is_empty() {
            mask |= EPOLLOUT;
        }
        mask
    }

    fn done_draining(&self) -> bool {
        self.state == ConnState::Draining && self.pending.is_empty() && self.out.is_empty()
    }
}

/// Registers the listener and the mailbox's pipe with a fresh epoll
/// instance and spawns the loop thread.
pub(crate) fn spawn(
    shared: Arc<Shared>,
    listener: TcpListener,
) -> Result<JoinHandle<()>, NetError> {
    listener
        .set_nonblocking(true)
        .map_err(|e| NetError::from_io("set listener nonblocking", &e))?;
    let epoll = Epoll::new().map_err(|e| NetError::from_io("epoll_create1", &e))?;
    epoll
        .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
        .map_err(|e| NetError::from_io("register listener", &e))?;
    epoll
        .add(shared.mailbox.pipe.read_fd(), EPOLLIN, TOKEN_WAKE)
        .map_err(|e| NetError::from_io("register wake pipe", &e))?;
    // The bell holds the mailbox alone, never `shared` (see `Doorbell`).
    let mailbox = Arc::clone(&shared.mailbox);
    let bell: Arc<dyn Fn(u64) + Send + Sync> = Arc::new(move |token| mailbox.ring(token));
    std::thread::Builder::new()
        .name("cs-net-reactor".to_string())
        .spawn(move || {
            EventLoop {
                shared,
                listener,
                epoll,
                bell,
                conns: HashMap::new(),
                next_token: TOKEN_BASE,
                stop_when_flushed: None,
                lifecycle: Vec::new(),
            }
            .run();
        })
        .map_err(|e| NetError::InvalidConfig(format!("spawning reactor thread: {e}")))
}

struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    epoll: Epoll,
    bell: Arc<dyn Fn(u64) + Send + Sync>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Set when a shutdown ack is queued: the frontend stops as soon as
    /// that connection finishes flushing (or dies).
    stop_when_flushed: Option<u64>,
    /// Lifecycle threads, joined when the loop exits.
    lifecycle: Vec<JoinHandle<()>>,
}

impl EventLoop {
    fn run(&mut self) {
        let mut events = [EpollEvent::zeroed(); EVENTS_CAP];
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut rung = Vec::new();
        while let Ok(n) = self.epoll.wait(&mut events, TICK_MS) {
            for ev in &events[..n] {
                match ev.token() {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_WAKE => self.shared.mailbox.pipe.drain(),
                    token => self.handle_conn_event(token, ev.events(), &mut scratch),
                }
            }
            self.shared.mailbox.take(&mut rung);
            rung.sort_unstable();
            rung.dedup();
            for token in rung.drain(..) {
                self.service_conn(token);
            }
            self.check_deadlines();
            self.check_stop_when_flushed();
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        for t in self.lifecycle.drain(..) {
            let _ = t.join();
        }
        // Best-effort final flush so replies already available (e.g. a
        // shutdown ack racing a force-stop) reach the wire.
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            self.service_conn(token);
        }
        for (_, conn) in self.conns.drain() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.shared.metrics.connections.sub(1);
        }
        self.shared.begin_stop();
    }

    fn now_us(&self) -> u64 {
        self.shared.clock.now_us()
    }

    fn accept_burst(&mut self) {
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            if self.shared.stop.load(Ordering::SeqCst) {
                break;
            }
            let _ = stream.set_nodelay(true);
            if self.conns.len() >= self.shared.cfg.max_connections {
                self.shared.metrics.rejected.inc();
                let mut stream = stream;
                // The accepted socket is still blocking here; bound the
                // courtesy write so a hostile peer cannot wedge the
                // loop.
                let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                let frame = Frame::Error {
                    id: 0,
                    code: ErrorCode::ConnectionLimit,
                    tenant: String::new(),
                    detail: format!(
                        "connection cap {} reached, try later",
                        self.shared.cfg.max_connections
                    ),
                };
                if stream.write_all(&frame.encode()).is_ok() {
                    self.shared.metrics.frames_out.inc();
                }
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            let now = self.now_us();
            let interest = EPOLLIN | EPOLLRDHUP;
            if self.epoll.add(stream.as_raw_fd(), interest, token).is_err() {
                continue;
            }
            self.shared.metrics.accepted.inc();
            self.shared.metrics.connections.add(1);
            self.conns.insert(
                token,
                Conn {
                    stream,
                    token,
                    asm: FrameAssembler::new(self.shared.cfg.max_payload),
                    out: WriteBuffer::new(),
                    frame_ends: VecDeque::new(),
                    pending: VecDeque::new(),
                    state: ConnState::Open,
                    reads_paused: false,
                    paused_since_us: None,
                    awaiting_ack: false,
                    last_in_us: now,
                    last_write_progress_us: now,
                    interest,
                    carried_shutdown: false,
                },
            );
        }
    }

    fn handle_conn_event(&mut self, token: u64, events: u32, scratch: &mut [u8]) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        // Hangups and errors surface as EOF / errors on the read path.
        // A connection that is not reading would be reported again on
        // every wait (epoll always reports them), so it closes here.
        if events & (EPOLLERR | EPOLLHUP) != 0 && !conn.reading() {
            self.close_conn(token);
            return;
        }
        // Pure write readiness skips the read attempt.
        if events & (EPOLLIN | EPOLLRDHUP | EPOLLERR | EPOLLHUP) != 0 {
            self.read_conn(token, scratch);
        }
        self.service_conn(token);
    }

    fn read_conn(&mut self, token: u64, scratch: &mut [u8]) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.reading() {
                return;
            }
            match conn.stream.read(scratch) {
                Ok(0) => {
                    // Clean close (or half-close): stop reading, flush
                    // what is owed, then drop.
                    conn.state = ConnState::Draining;
                    return;
                }
                Ok(n) => {
                    conn.last_in_us = self.shared.clock.now_us();
                    conn.asm.push(&scratch[..n]);
                    self.drain_frames(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
    }

    /// Decodes every complete frame buffered in the connection's
    /// assembler, dispatching each; pauses reads at the pipelining cap
    /// and behind a lifecycle frame.
    fn drain_frames(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.state != ConnState::Open || conn.awaiting_ack {
                return;
            }
            if conn.pending.len() >= self.shared.cfg.max_pending_replies {
                if !conn.reads_paused {
                    conn.reads_paused = true;
                    conn.paused_since_us = Some(self.shared.clock.now_us());
                }
                return;
            }
            match conn.asm.next_frame() {
                Ok(Some(frame)) => {
                    self.shared.metrics.frames_in.inc();
                    self.dispatch_frame(token, frame);
                }
                Ok(None) => return,
                Err(e) => {
                    self.shared.metrics.decode_errors.inc();
                    conn.state = ConnState::Draining;
                    conn.pending.push_back(Slot::Done(Frame::Error {
                        id: 0,
                        code: ErrorCode::Malformed,
                        tenant: String::new(),
                        detail: e.to_string(),
                    }));
                    return;
                }
            }
        }
    }

    fn dispatch_frame(&mut self, token: u64, frame: Frame) {
        match frame {
            Frame::Request {
                id,
                model,
                tenant,
                input,
            } => {
                let t0_us = self.now_us();
                self.shared.metrics.requests.inc();
                let submitted = self.shared.serve.submit_rung(
                    InferRequest::new(model, input).with_tenant(tenant),
                    Doorbell::new(Arc::clone(&self.bell), token),
                );
                let slot = match submitted {
                    Ok(ticket) => Slot::Waiting { id, t0_us, ticket },
                    Err(e) => Slot::Done(Frame::from_serve_error(id, &e)),
                };
                self.push_slot(token, slot);
            }
            Frame::Ping { id } => self.push_done(token, Frame::Pong { id }),
            Frame::Query { id, model } => {
                let reply = query_reply(&self.shared.serve, id, model);
                self.push_done(token, reply);
            }
            frame @ (Frame::LoadModel { .. } | Frame::UnloadModel { .. }) => {
                self.spawn_lifecycle(token, frame);
            }
            frame @ Frame::ListModels { .. } => {
                let reply =
                    lifecycle_reply(&self.shared.serve, self.shared.registry.as_ref(), &frame);
                self.push_done(token, reply);
            }
            Frame::Shutdown { id } => {
                // Drain first — every in-flight request on every
                // connection is answered before the ack goes out. The
                // loop blocks here by design: workers answer and ring
                // meanwhile, the loop picks the rings up afterwards, and
                // the pending queue preserves per-connection FIFO, so
                // the ack cannot overtake this connection's earlier
                // replies.
                self.shared.drain.shutdown_and_drain();
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Draining;
                    conn.carried_shutdown = true;
                    conn.pending
                        .push_back(Slot::Done(Frame::ShutdownAck { id }));
                    self.stop_when_flushed = Some(token);
                }
            }
            // Server-to-client frame types arriving at the server are a
            // protocol violation, as are the cluster control frames;
            // answer once and cut the connection.
            Frame::Response { id, .. }
            | Frame::Error { id, .. }
            | Frame::Pong { id }
            | Frame::ShutdownAck { id }
            | Frame::Info { id, .. }
            | Frame::Register { id, .. }
            | Frame::RegisterAck { id, .. }
            | Frame::Heartbeat { id, .. }
            | Frame::Deregister { id, .. }
            | Frame::DeregisterAck { id }
            | Frame::ModelList { id, .. } => {
                self.shared.metrics.decode_errors.inc();
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = ConnState::Draining;
                    conn.pending.push_back(Slot::Done(Frame::Error {
                        id,
                        code: ErrorCode::Malformed,
                        tenant: String::new(),
                        detail: "frame type is not client-to-server".to_string(),
                    }));
                }
            }
        }
    }

    /// Runs a load or unload off the loop: container decode, kernel
    /// builds and victim drains would otherwise stall every connection.
    fn spawn_lifecycle(&mut self, token: u64, frame: Frame) {
        let id = frame.id();
        let (tx, ack) = mpsc::sync_channel(1);
        let shared = Arc::clone(&self.shared);
        let bell = Doorbell::new(Arc::clone(&self.bell), token);
        let spawned = std::thread::Builder::new()
            .name("cs-net-lifecycle".to_string())
            .spawn(move || {
                // Declared first, dropped last — also on unwind — so the
                // ring comes after the ack is sent or the sender is gone.
                let _bell = bell;
                let tx = tx;
                let _ = tx.send(lifecycle_reply(
                    &shared.serve,
                    shared.registry.as_ref(),
                    &frame,
                ));
            });
        match spawned {
            Ok(handle) => {
                self.lifecycle.retain(|t| !t.is_finished());
                self.lifecycle.push(handle);
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.awaiting_ack = true;
                    conn.pending.push_back(Slot::Control { id, ack });
                }
            }
            Err(e) => self.push_done(
                token,
                Frame::Error {
                    id,
                    code: ErrorCode::Internal,
                    tenant: String::new(),
                    detail: format!("spawning lifecycle thread: {e}"),
                },
            ),
        }
    }

    fn push_slot(&mut self, token: u64, slot: Slot) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.pending.push_back(slot);
        }
    }

    fn push_done(&mut self, token: u64, frame: Frame) {
        self.push_slot(token, Slot::Done(frame));
    }

    /// Resolves and serializes replies from the front of the FIFO,
    /// flushes, updates epoll interest, and closes the connection if it
    /// is done draining. The single maintenance entry point after any
    /// state change, rings included.
    fn service_conn(&mut self, token: u64) {
        loop {
            let now = self.now_us();
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let was_empty = conn.out.is_empty();
            let mut pushed = false;
            let mut acked = false;
            while let Some(slot) = conn.pending.front() {
                let control = matches!(slot, Slot::Control { .. });
                let Some(t0_us) = slot.encode_into(&mut conn.out) else {
                    break;
                };
                conn.pending.pop_front();
                conn.frame_ends.push_back((conn.out.total_pushed(), t0_us));
                pushed = true;
                acked |= control;
            }
            if acked {
                // The ack is queued: frames behind it may be decoded,
                // and the idle clock restarts from here.
                conn.awaiting_ack = false;
                conn.last_in_us = now;
            }
            if was_empty && pushed {
                // The stall clock measures lack of progress on a
                // non-empty buffer; restart it on the empty→non-empty
                // transition.
                conn.last_write_progress_us = now;
            }
            match conn.out.flush_to(&mut conn.stream) {
                Ok(wrote) => {
                    if wrote {
                        conn.last_write_progress_us = now;
                    }
                    while let Some(&(end, t0)) = conn.frame_ends.front() {
                        if end > conn.out.total_flushed() {
                            break;
                        }
                        conn.frame_ends.pop_front();
                        self.shared.metrics.frames_out.inc();
                        if let Some(t0) = t0 {
                            self.shared.metrics.latency.observe(now.saturating_sub(t0));
                        }
                    }
                }
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            // A freed reply slot or a queued ack resumes decoding — and
            // whole frames may already sit in the assembler from before
            // the pause; loop so they are served and flushed in this
            // same pass.
            let window_open = conn.pending.len() < self.shared.cfg.max_pending_replies;
            if conn.state == ConnState::Open && (acked || (conn.reads_paused && window_open)) {
                if window_open {
                    conn.reads_paused = false;
                    conn.paused_since_us = None;
                }
                self.drain_frames(token);
                continue;
            }
            if conn.done_draining() {
                self.close_conn(token);
                return;
            }
            let desired = conn.desired_interest();
            if desired != conn.interest {
                conn.interest = desired;
                let _ = self
                    .epoll
                    .modify(conn.stream.as_raw_fd(), desired, conn.token);
            }
            return;
        }
    }

    fn check_deadlines(&mut self) {
        let now = self.now_us();
        let read_us = self.shared.cfg.read_timeout.map(|d| d.as_micros() as u64);
        let write_us = self.shared.cfg.write_timeout.map(|d| d.as_micros() as u64);
        let grace_us = self
            .shared
            .cfg
            .slow_consumer_grace
            .map(|d| d.as_micros() as u64);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            let Some(conn) = self.conns.get_mut(&token) else {
                continue;
            };
            // Idle read deadline — only while we actually want bytes.
            if conn.reading() {
                if let Some(limit) = read_us {
                    if now.saturating_sub(conn.last_in_us) > limit {
                        conn.state = ConnState::Draining;
                        self.service_conn(token);
                        continue;
                    }
                }
            }
            // Slow consumer, flavor 1: the reply queue has been full
            // past the grace period.
            if let (Some(since), Some(limit)) = (conn.paused_since_us, grace_us) {
                if now.saturating_sub(since) > limit {
                    self.shared.metrics.slow_consumer.inc();
                    self.close_conn(token);
                    continue;
                }
            }
            // Slow consumer, flavor 2: bytes owed but no write progress
            // past the write deadline.
            if !conn.out.is_empty() {
                if let Some(limit) = write_us {
                    if now.saturating_sub(conn.last_write_progress_us) > limit {
                        self.shared.metrics.slow_consumer.inc();
                        self.close_conn(token);
                        continue;
                    }
                }
            }
        }
    }

    fn check_stop_when_flushed(&mut self) {
        let Some(token) = self.stop_when_flushed else {
            return;
        };
        let flushed = match self.conns.get(&token) {
            Some(conn) => conn.pending.is_empty() && conn.out.is_empty(),
            None => true, // died before the ack left; stop regardless
        };
        if flushed {
            self.stop_when_flushed = None;
            self.shared.begin_stop();
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let carried = conn.carried_shutdown;
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.shared.metrics.connections.sub(1);
            drop(conn);
            if carried {
                self.shared.begin_stop();
            }
        }
    }
}
