//! Loopback TCP integration tests: every test binds an ephemeral port
//! so runs are parallel-safe and deterministic, and output checks are
//! bit-exact (`f32::to_bits`) — the network path must not perturb a
//! single mantissa bit relative to an in-process submission.
//!
//! Every test that stands up a [`NetServer`] gets a fresh server and
//! telemetry registry, so exact counter assertions hold per test.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cs_net::load::{run_closed_loop, LoadPlan};
use cs_net::transport::{read_frame, write_frame};
use cs_net::wire::{ErrorCode, Frame};
use cs_net::{Client, ClientConfig, NetConfig, NetError, NetServer};
use cs_nn::spec::Scale;
use cs_serve::loadgen::request_input;
use cs_serve::{
    Clock, ExecBackend, InferRequest, ModelRegistry, ServableModel, ServeConfig, Server,
};
use cs_telemetry::{MonotonicClock, Registry};

fn start_net(backend: ExecBackend, workers: usize) -> (NetServer, usize) {
    let (net, n_in, _) = start_net_with_registry(backend, workers, NetConfig::default());
    (net, n_in)
}

fn start_net_with_registry(
    backend: ExecBackend,
    workers: usize,
    net_cfg: NetConfig,
) -> (NetServer, usize, Arc<Registry>) {
    let serve_cfg = ServeConfig {
        workers,
        backend,
        ..ServeConfig::default()
    };
    start_net_custom(serve_cfg, net_cfg)
}

/// Full-control variant: explicit serve config (slow emulated workers,
/// tiny queues) plus the net config.
fn start_net_custom(
    serve_cfg: ServeConfig,
    net_cfg: NetConfig,
) -> (NetServer, usize, Arc<Registry>) {
    start_net_clocked(serve_cfg, net_cfg, Arc::new(MonotonicClock::new()))
}

/// [`start_net_custom`] with the serving runtime on an injected clock.
fn start_net_clocked(
    serve_cfg: ServeConfig,
    net_cfg: NetConfig,
    clock: Arc<dyn Clock>,
) -> (NetServer, usize, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let model = ServableModel::mlp(Scale::Reduced(8), 7).expect("model");
    let n_in = model.n_in;
    let mut models = ModelRegistry::new();
    models.register(model).expect("register");
    let serve = Server::start_with_recorder(models, serve_cfg, clock, registry.clone())
        .expect("serve start");
    let net = NetServer::start_with_recorder(serve, net_cfg, registry.clone()).expect("net start");
    (net, n_in, registry)
}

/// Reads a counter, waiting up to `deadline` for it to reach `want`
/// (bookkeeping runs on the loop thread), then returns the settled
/// value for an exact assertion.
fn settle_counter(registry: &Registry, name: &'static str, want: u64, deadline: Duration) -> u64 {
    let ctr = registry.find_counter(name, &[]).expect("counter");
    let until = std::time::Instant::now() + deadline;
    while ctr.get() < want && std::time::Instant::now() < until {
        std::thread::sleep(Duration::from_millis(1));
    }
    ctr.get()
}

#[test]
fn network_outputs_are_bit_identical_to_direct_submission() {
    for backend in [ExecBackend::Sparse, ExecBackend::Gated] {
        let (net, n_in) = start_net(backend, 2);
        let addr = net.local_addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        for request_id in 0..8u64 {
            let input = request_input(n_in, request_id, 42);
            let direct = net
                .server()
                .submit(InferRequest::new("mlp", input.clone()))
                .expect("submit")
                .wait()
                .expect("direct response");
            let over_wire = client.request("mlp", &input).expect("net response");
            let direct_bits: Vec<u32> = direct.outputs.iter().map(|v| v.to_bits()).collect();
            let wire_bits: Vec<u32> = over_wire.outputs.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                direct_bits, wire_bits,
                "backend {backend:?} request {request_id}: \
                 network and direct outputs diverge"
            );
            assert_eq!(over_wire.model, "mlp");
            assert!(over_wire.batch_size >= 1);
        }
        net.shutdown();
    }
}

#[test]
fn pipelined_requests_come_back_in_fifo_order() {
    let (net, n_in) = start_net(ExecBackend::Sparse, 2);
    let addr = net.local_addr();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");

    // Write a burst of requests without reading a single reply, then
    // read all replies: ids must come back in submission order even
    // though batching executes them together and across workers.
    let ids: Vec<u64> = (10..26).collect();
    for &id in &ids {
        let frame = Frame::Request {
            id,
            model: "mlp".to_string(),
            tenant: String::new(),
            input: request_input(n_in, id, 7),
        };
        write_frame(&mut stream, &frame).expect("write");
    }
    for &id in &ids {
        let reply = read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD)
            .expect("read")
            .expect("frame");
        match reply {
            Frame::Response { id: rid, .. } => {
                assert_eq!(rid, id, "reply out of order");
            }
            other => panic!("expected response for {id}, got {other:?}"),
        }
    }
    net.shutdown();
}

#[test]
fn server_errors_arrive_as_typed_codes() {
    let (net, n_in) = start_net(ExecBackend::Sparse, 1);
    let addr = net.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    let err = client
        .request("nope", &[0.0; 4])
        .expect_err("unknown model");
    assert!(matches!(
        err,
        NetError::Remote {
            code: ErrorCode::UnknownModel,
            ..
        }
    ));

    let err = client
        .request("mlp", &vec![0.0; n_in + 1])
        .expect_err("shape mismatch");
    assert!(matches!(
        err,
        NetError::Remote {
            code: ErrorCode::ShapeMismatch,
            ..
        }
    ));

    // The connection survives typed errors: a well-formed request
    // afterwards still succeeds.
    let out = client
        .request("mlp", &request_input(n_in, 1, 7))
        .expect("recovery");
    assert!(!out.outputs.is_empty());
    net.shutdown();
}

#[test]
fn ping_and_model_query_work() {
    let (net, n_in) = start_net(ExecBackend::Sparse, 1);
    let mut client = Client::connect(&net.local_addr().to_string()).expect("connect");
    client.ping().expect("ping");
    let (qn_in, qn_out) = client.model_info("mlp").expect("info");
    assert_eq!(qn_in as usize, n_in);
    assert!(qn_out > 0);
    let err = client.model_info("ghost").expect_err("unknown");
    assert!(matches!(
        err,
        NetError::Remote {
            code: ErrorCode::UnknownModel,
            ..
        }
    ));
    net.shutdown();
}

#[test]
fn connection_cap_rejects_with_a_typed_frame() {
    let (net, _n_in, registry) = start_net_with_registry(
        ExecBackend::Sparse,
        1,
        NetConfig {
            max_connections: 2,
            ..NetConfig::default()
        },
    );
    let addr = net.local_addr().to_string();
    let _a = Client::connect(&addr).expect("conn 1");
    let mut b = Client::connect(&addr).expect("conn 2");
    // Make sure both connections are fully admitted before probing
    // the cap (accept bookkeeping runs off the connecting thread).
    b.ping().expect("ping");

    // The refusal is a connection-level error frame (id 0); the client
    // surfaces it as the typed code, not as a mismatched reply id.
    let mut over = Client::connect(&addr).expect("tcp connect");
    let err = over.request("mlp", &[0.0; 4]).expect_err("over the cap");
    assert!(
        matches!(
            err,
            NetError::Remote {
                code: ErrorCode::ConnectionLimit,
                ..
            }
        ),
        "expected ConnectionLimit, got {err:?}"
    );
    let rejected = registry
        .find_counter("net_connections_rejected_total", &[])
        .expect("metric")
        .get();
    assert_eq!(rejected, 1);
    // A capped-out connection must count ONLY as rejected: the
    // accepted counter stays at the two admitted connections, so
    // accepted - rejected is always the number actually served.
    let accepted = registry
        .find_counter("net_connections_accepted_total", &[])
        .expect("accepted metric")
        .get();
    assert_eq!(
        accepted, 2,
        "cap rejection leaked into net_connections_accepted_total"
    );
    net.shutdown();
}

#[test]
fn malformed_bytes_bump_the_decode_counter_and_close_the_connection() {
    let (net, _n_in, registry) =
        start_net_with_registry(ExecBackend::Sparse, 1, NetConfig::default());
    let mut stream = std::net::TcpStream::connect(net.local_addr()).expect("connect");

    use std::io::Write;
    // Valid magic, hostile 4 GiB length prefix.
    let mut bytes = Frame::Ping { id: 1 }.encode();
    bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    stream.write_all(&bytes).expect("write");

    let reply = read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD)
        .expect("read")
        .expect("frame");
    assert!(
        matches!(
            reply,
            Frame::Error {
                id: 0,
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "expected Malformed, got {reply:?}"
    );
    // The server hangs up after a protocol violation.
    assert_eq!(
        read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD).expect("eof"),
        None
    );
    assert_eq!(
        registry
            .find_counter("net_decode_errors_total", &[])
            .expect("metric")
            .get(),
        1
    );
    net.shutdown();
}

#[test]
fn client_to_server_frame_direction_is_enforced() {
    let (net, _n_in) = start_net(ExecBackend::Sparse, 1);
    let mut stream = std::net::TcpStream::connect(net.local_addr()).expect("connect");
    write_frame(&mut stream, &Frame::Pong { id: 9 }).expect("write");
    let reply = read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD)
        .expect("read")
        .expect("frame");
    assert!(
        matches!(
            reply,
            Frame::Error {
                id: 9,
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "expected Malformed for id 9, got {reply:?}"
    );
    net.shutdown();
}

#[test]
fn shutdown_control_frame_drains_and_stops_the_server() {
    let (net, n_in) = start_net(ExecBackend::Sparse, 2);
    let addr = net.local_addr().to_string();

    // Park some requests in flight on a second connection, then
    // issue the control-frame shutdown; the ack must arrive only
    // after every parked request is answered.
    let worker = {
        // Connected before the thread starts: a connect racing the
        // shutdown below could find the listener already gone.
        let mut c = Client::connect(&addr).expect("connect");
        std::thread::spawn(move || {
            let mut ok = 0u32;
            for i in 0..16u64 {
                if c.request("mlp", &request_input(n_in, i, 5)).is_ok() {
                    ok += 1;
                }
            }
            ok
        })
    };

    let mut controller = Client::connect(&addr).expect("connect");
    controller.shutdown_server().expect("shutdown ack");

    net.wait_for_shutdown();
    let snapshot = net.shutdown();
    assert_eq!(
        snapshot.submitted,
        snapshot.completed + snapshot.failed,
        "drain left requests unanswered"
    );
    // The parked client either completed requests or saw clean typed
    // shutdown errors — never a protocol failure.
    let ok = worker.join().expect("worker");
    assert!(ok <= 16);

    // The listener is gone: new connections fail or are immediately
    // closed without a reply.
    match Client::connect(&addr) {
        Err(_) => {}
        Ok(mut c) => assert!(c.ping().is_err(), "server still answering after shutdown"),
    }
}

#[test]
fn oversized_client_payload_is_rejected_before_allocation() {
    let (net, _n_in, registry) = start_net_with_registry(
        ExecBackend::Sparse,
        1,
        NetConfig {
            max_payload: 128,
            ..NetConfig::default()
        },
    );
    let mut stream = std::net::TcpStream::connect(net.local_addr()).expect("connect");
    // A syntactically valid request whose payload exceeds the
    // server's cap: rejected from the header alone.
    let frame = Frame::Request {
        id: 3,
        model: "mlp".to_string(),
        tenant: String::new(),
        input: vec![1.0; 256],
    };
    write_frame(&mut stream, &frame).expect("write");
    let reply = read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD)
        .expect("read")
        .expect("frame");
    assert!(
        matches!(
            reply,
            Frame::Error {
                code: ErrorCode::Malformed,
                ..
            }
        ),
        "expected Malformed, got {reply:?}"
    );
    assert_eq!(
        registry
            .find_counter("net_decode_errors_total", &[])
            .expect("metric")
            .get(),
        1
    );
    net.shutdown();
}

#[test]
fn overload_surfaces_as_the_backpressure_code() {
    // A tiny queue and one slow worker: a pipelined burst must trip
    // admission control, and the typed code must round-trip.
    let (net, n_in, _registry) = start_net_custom(
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            max_batch: 1,
            emulate_hw_time: true,
            freq_ghz: 0.001,
            backend: ExecBackend::Simulator,
            ..ServeConfig::default()
        },
        NetConfig::default(),
    );
    let mut stream = std::net::TcpStream::connect(net.local_addr()).expect("connect");
    for id in 0..24u64 {
        let frame = Frame::Request {
            id,
            model: "mlp".to_string(),
            tenant: String::new(),
            input: request_input(n_in, id, 3),
        };
        write_frame(&mut stream, &frame).expect("write");
    }
    let mut overloaded = 0u32;
    for _ in 0..24 {
        match read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD)
            .expect("read")
            .expect("frame")
        {
            Frame::Error {
                code: ErrorCode::Overloaded,
                ..
            } => overloaded += 1,
            Frame::Response { .. } => {}
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(overloaded > 0, "burst never tripped admission control");
    net.shutdown();
}

#[test]
fn pipelining_beyond_the_reply_window_backpressures_without_disconnect() {
    // A burst deeper than `max_pending_replies` must NOT trip the
    // slow-consumer guard while the client is (eventually) reading:
    // the server stops decoding until replies drain, then resumes, and
    // every reply still arrives in FIFO order.
    let (net, n_in, registry) = start_net_with_registry(
        ExecBackend::Sparse,
        2,
        NetConfig {
            max_pending_replies: 4,
            slow_consumer_grace: Some(Duration::from_secs(10)),
            ..NetConfig::default()
        },
    );
    let mut stream = std::net::TcpStream::connect(net.local_addr()).expect("connect");
    let ids: Vec<u64> = (0..32).collect();
    for &id in &ids {
        let frame = Frame::Request {
            id,
            model: "mlp".to_string(),
            tenant: String::new(),
            input: request_input(n_in, id, 13),
        };
        write_frame(&mut stream, &frame).expect("write");
    }
    for &id in &ids {
        let reply = read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD)
            .expect("read")
            .expect("frame");
        match reply {
            Frame::Response { id: rid, .. } => {
                assert_eq!(rid, id, "reply out of order under backpressure");
            }
            other => panic!("expected response for {id}, got {other:?}"),
        }
    }
    assert_eq!(
        registry
            .find_counter("net_slow_consumer_disconnects_total", &[])
            .expect("metric")
            .get(),
        0,
        "backpressured pipelining misdiagnosed as a slow consumer"
    );
    net.shutdown();
}

#[test]
fn slow_consumer_is_disconnected_and_counted() {
    // A client that pipelines requests but never reads replies must be
    // disconnected once its reply window stays full past the grace
    // period, and counted exactly once.
    //
    // Service time is pinned well above the grace so the window cannot
    // drain in time: the calibration model costs 324 simulated cycles
    // per request, so freq 2e-6 GHz emulates ~160 ms per request
    // against a 40 ms grace.
    let (net, n_in, registry) = start_net_custom(
        ServeConfig {
            workers: 1,
            queue_depth: 32,
            max_batch: 1,
            emulate_hw_time: true,
            freq_ghz: 2e-6,
            backend: ExecBackend::Simulator,
            ..ServeConfig::default()
        },
        NetConfig {
            max_pending_replies: 2,
            slow_consumer_grace: Some(Duration::from_millis(40)),
            ..NetConfig::default()
        },
    );
    let mut stream = std::net::TcpStream::connect(net.local_addr()).expect("connect");
    for id in 0..6u64 {
        let frame = Frame::Request {
            id,
            model: "mlp".to_string(),
            tenant: String::new(),
            input: request_input(n_in, id, 17),
        };
        write_frame(&mut stream, &frame).expect("write");
    }
    // Never read. The server must hang up on its own.
    let disconnects = settle_counter(
        &registry,
        "net_slow_consumer_disconnects_total",
        1,
        Duration::from_secs(5),
    );
    assert_eq!(disconnects, 1);

    // The socket is actually dead: reading drains any replies that
    // raced out, then hits EOF or a reset — never a hang.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    while let Ok(Some(_)) = read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD) {}
    net.shutdown();
}

#[test]
fn slow_loris_partial_header_hits_the_read_deadline() {
    // A connection that sends half a frame header and stalls must be
    // closed by the read deadline without counting as a decode error
    // (the bytes were not malformed, just absent) and without
    // unbounded buffering.
    let (net, _n_in, registry) = start_net_with_registry(
        ExecBackend::Sparse,
        1,
        NetConfig {
            read_timeout: Some(Duration::from_millis(100)),
            ..NetConfig::default()
        },
    );
    let mut stream = std::net::TcpStream::connect(net.local_addr()).expect("connect");
    use std::io::Write;
    let header_prefix = &Frame::Ping { id: 1 }.encode()[..8];
    stream.write_all(header_prefix).expect("write");

    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set timeout");
    // The server hangs up with no reply frame within the deadline.
    match read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD) {
        Ok(None) | Err(_) => {}
        Ok(Some(frame)) => panic!("unexpected reply {frame:?}"),
    }
    assert_eq!(
        registry
            .find_counter("net_decode_errors_total", &[])
            .expect("metric")
            .get(),
        0,
        "read-deadline close miscounted as a decode error"
    );
    assert_eq!(
        registry
            .find_counter("net_slow_consumer_disconnects_total", &[])
            .expect("metric")
            .get(),
        0,
        "read-deadline close miscounted as a slow consumer"
    );
    net.shutdown();
}

#[test]
fn client_read_timeout_is_a_typed_timeout() {
    // A listener that accepts and never replies.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let hold = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        std::thread::sleep(std::time::Duration::from_millis(500));
        drop(stream);
    });
    let mut client = Client::connect_with(
        &addr,
        ClientConfig {
            read_timeout: Some(std::time::Duration::from_millis(50)),
            ..ClientConfig::default()
        },
    )
    .expect("connect");
    let err = client.ping().expect_err("must time out");
    assert!(matches!(err, NetError::Timeout { .. }), "got {err:?}");
    hold.join().expect("hold");
}

#[test]
fn telemetry_counts_frames_and_latency() {
    let (net, n_in, registry) =
        start_net_with_registry(ExecBackend::Sparse, 1, NetConfig::default());
    let mut client = Client::connect(&net.local_addr().to_string()).expect("connect");
    for i in 0..4u64 {
        client
            .request("mlp", &request_input(n_in, i, 11))
            .expect("request");
    }
    client.ping().expect("ping");

    // Frames-out and latency are recorded at flush completion on the
    // loop, which can be after the client has already read the reply
    // bytes, so give the metrics a bounded moment to settle before
    // asserting exactly.
    let frames_out = settle_counter(&registry, "net_frames_out_total", 5, Duration::from_secs(2));
    let latency_hist = registry
        .find_histogram("net_request_latency_us", &[])
        .expect("metric");
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while latency_hist.count() < 4 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let frames_in = registry
        .find_counter("net_frames_in_total", &[])
        .expect("metric")
        .get();
    assert_eq!(frames_in, 5);
    assert_eq!(frames_out, 5);
    assert_eq!(
        registry
            .find_counter("net_requests_total", &[])
            .expect("metric")
            .get(),
        4
    );
    assert_eq!(latency_hist.count(), 4);
    assert!(
        registry
            .find_gauge("net_connections", &[])
            .expect("metric")
            .get()
            >= 1
    );
    net.shutdown();
}

/// The wall clock, except that it panics once — when armed, and only
/// on the thread named `cs-serve-worker-0`.
struct FaultyClock {
    inner: MonotonicClock,
    armed: AtomicBool,
}

impl Clock for FaultyClock {
    fn now_us(&self) -> u64 {
        if std::thread::current().name() == Some("cs-serve-worker-0")
            && self.armed.swap(false, Ordering::SeqCst)
        {
            panic!("injected fault: worker 0 dies here");
        }
        self.inner.now_us()
    }
}

#[test]
fn worker_death_answers_every_pipelined_request_once_in_order() {
    // Exactly one reply per admitted request even when nobody is left
    // to run it: the dead worker's jobs ring as they are dropped.
    let clock = Arc::new(FaultyClock {
        inner: MonotonicClock::new(),
        armed: AtomicBool::new(false),
    });
    let (net, n_in, _registry) = start_net_clocked(
        ServeConfig {
            workers: 1,
            backend: ExecBackend::Sparse,
            ..ServeConfig::default()
        },
        NetConfig::default(),
        clock.clone(),
    );
    clock.armed.store(true, Ordering::SeqCst);
    let mut stream = std::net::TcpStream::connect(net.local_addr()).expect("connect");
    for id in 1..=4u64 {
        let frame = Frame::Request {
            id,
            model: "mlp".to_string(),
            tenant: String::new(),
            input: request_input(n_in, id, 19),
        };
        write_frame(&mut stream, &frame).expect("write");
    }
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set timeout");
    for id in 1..=4u64 {
        match read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD)
            .expect("read")
            .expect("frame")
        {
            Frame::Error {
                id: rid,
                code: ErrorCode::WorkerLost,
                ..
            } => assert_eq!(rid, id, "reply out of order"),
            other => panic!("expected worker-lost for {id}, got {other:?}"),
        }
    }
    // The connection outlives the worker.
    write_frame(&mut stream, &Frame::Ping { id: 5 }).expect("write ping");
    let pong = read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD)
        .expect("read")
        .expect("frame");
    assert_eq!(pong, Frame::Pong { id: 5 });
    net.shutdown();
}

/// A stub endpoint that answers the first `shed` requests with a
/// `code` error frame, then answers one with a response and closes;
/// returns how many requests it saw.
fn shedding_stub(
    code: ErrorCode,
    shed: u32,
) -> (std::net::SocketAddr, std::thread::JoinHandle<u32>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || -> u32 {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut attempts = 0u32;
        while let Ok(Some(frame)) = read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD) {
            let Frame::Request {
                id, model, input, ..
            } = frame
            else {
                break;
            };
            attempts += 1;
            let reply = if attempts <= shed {
                Frame::Error {
                    id,
                    code,
                    tenant: String::new(),
                    detail: "shed".to_string(),
                }
            } else {
                Frame::Response {
                    id,
                    model,
                    outputs: input,
                    cycles: 1,
                    energy_pj: 0.0,
                    batch_size: 1,
                    worker: 0,
                    latency_us: 1,
                    node: "stub".to_string(),
                }
            };
            write_frame(&mut stream, &reply).expect("reply");
            if attempts > shed {
                break;
            }
        }
        attempts
    });
    (addr, handle)
}

/// An unpaced, untenanted closed-loop plan.
fn load_plan(addr: String, n_in: usize, conns: usize, requests: u64) -> LoadPlan {
    LoadPlan {
        addr,
        model: "mlp".to_string(),
        n_in,
        seed: 1,
        requests,
        warmup: 0,
        think_ms: 0,
        tenants: vec![String::new(); conns],
    }
}

#[test]
fn load_client_reissues_an_overloaded_request_until_it_lands() {
    let (addr, server) = shedding_stub(ErrorCode::Overloaded, 2);
    let progress = AtomicU64::new(0);
    let results = run_closed_loop(&load_plan(addr.to_string(), 2, 1, 1), &progress).expect("run");
    let r = &results[0];
    assert_eq!(r.error, None);
    assert_eq!(r.completed, 1);
    assert_eq!(r.overload_rounds, 2);
    assert!(r.failed.is_empty());
    assert_eq!(r.by_node.get("stub"), Some(&1));
    assert_eq!(progress.load(Ordering::Relaxed), 1);
    // Two sheds plus the success, all under the same request id.
    assert_eq!(server.join().expect("stub"), 3);
}

#[test]
fn load_client_counts_a_typed_error_and_moves_on() {
    let (addr, server) = shedding_stub(ErrorCode::ShapeMismatch, 1);
    let plan = load_plan(addr.to_string(), 2, 1, 2);
    let results = run_closed_loop(&plan, &AtomicU64::new(0)).expect("run");
    let r = &results[0];
    assert_eq!(r.error, None);
    assert_eq!(r.overload_rounds, 0);
    assert_eq!(r.failed.len(), 1);
    let (request, err) = &r.failed[0];
    assert_eq!(*request, 0);
    assert!(
        matches!(
            err,
            NetError::Remote {
                code: ErrorCode::ShapeMismatch,
                ..
            }
        ),
        "{err:?}"
    );
    // The failed request is not reissued: the next one completes.
    assert_eq!(r.completed, 1);
    assert_eq!(server.join().expect("stub"), 2);
}

#[test]
fn load_client_reports_a_refused_connection_by_its_typed_code() {
    let (net, n_in, _registry) = start_net_with_registry(
        ExecBackend::Sparse,
        1,
        NetConfig {
            max_connections: 4,
            ..NetConfig::default()
        },
    );
    let plan = load_plan(net.local_addr().to_string(), n_in, 6, 5);
    let results = run_closed_loop(&plan, &AtomicU64::new(0)).expect("run");
    let errors: Vec<String> = results
        .iter()
        .flat_map(|r| {
            let failed = r.failed.iter().map(|(_, e)| e.to_string());
            failed.chain(r.error.iter().map(|e| e.to_string()))
        })
        .collect();
    assert_eq!(errors.len(), 2, "{errors:?}");
    for e in &errors {
        assert!(e.contains("connection-limit"), "{e}");
        assert!(!e.contains("hangup") && !e.contains("protocol"), "{e}");
    }
    assert_eq!(results.iter().filter(|r| r.completed == 5).count(), 4);
    net.shutdown();
}
