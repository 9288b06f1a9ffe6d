//! Wire-level model-lifecycle integration tests: a server that starts
//! with nothing resident is driven entirely through control frames —
//! hot-load from an on-disk registry, canary a second version, promote
//! it, and evict the old primary under a memory budget — while
//! data-plane requests stay bit-exact throughout. Plus the failure
//! sides: a divergent canary must auto-demote, and per-tenant overload
//! rejections must carry the tenant label back across the wire. And
//! the concurrency sides: a load or unload waiting out a drain stalls
//! no other connection, and a request pipelined behind a load sees it.

use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cs_net::transport::{read_frame, write_frame};
use cs_net::wire::{ErrorCode, Frame};
use cs_net::{Client, NetConfig, NetError, NetServer};
use cs_nn::spec::Scale;
use cs_registry::{ModelArtifact, RegistryStore};
use cs_serve::loadgen::request_input;
use cs_serve::{ExecBackend, ModelRegistry, Registry, ServableModel, ServeConfig, Server};

/// A fresh registry directory unique to one test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cs-net-lifecycle-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Saves the seeded MLP as `name@vversion`; equal seeds produce
/// bit-identical weights, which is what makes a zero-divergence canary
/// provable rather than probable.
fn save_model(store: &RegistryStore, name: &str, version: u32, seed: u64) -> u64 {
    let model = ServableModel::mlp(Scale::Reduced(8), seed).expect("build model");
    let artifact = ModelArtifact {
        name: name.to_string(),
        version,
        layers: model.layers,
    };
    store.save(&artifact).expect("save artifact");
    artifact.resident_bytes()
}

/// An empty serving runtime wired to `dir` as its model registry.
fn start_empty(dir: &Path, budget: u64) -> NetServer {
    let serve = Server::start(
        ModelRegistry::new(),
        ServeConfig {
            workers: 2,
            backend: ExecBackend::Sparse,
            memory_budget_bytes: budget,
            ..ServeConfig::default()
        },
    )
    .expect("serve start");
    NetServer::start(
        serve,
        NetConfig {
            registry_dir: Some(dir.display().to_string()),
            ..NetConfig::default()
        },
    )
    .expect("net start")
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn hot_load_canary_promote_and_evict_over_the_wire() {
    let dir = scratch_dir("lifecycle");
    let store = RegistryStore::open(&dir).expect("open store");
    // v1 and v2 share a seed: bit-identical weights, so the canary
    // must report zero divergences. `aux` exists to push the
    // budget over once v1 is demoted from primary.
    let b1 = save_model(&store, "mlp", 1, 7);
    let b2 = save_model(&store, "mlp", 2, 7);
    let aux = save_model(&store, "aux", 1, 9);
    // Fits v1+v2 (the canary phase) and v2+aux, but not all three:
    // loading aux must evict exactly v1.
    let budget = b1 + b2 + aux / 2;

    let net = start_empty(&dir, budget);
    let addr = net.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let n_in = ServableModel::mlp(Scale::Reduced(8), 7)
        .expect("model")
        .n_in;

    // Nothing resident yet: the data plane rejects by name.
    let err = client
        .request("mlp", &request_input(n_in, 0, 42))
        .expect_err("empty server");
    assert!(
        matches!(
            err,
            NetError::Remote {
                code: ErrorCode::UnknownModel,
                ..
            }
        ),
        "expected UnknownModel, got {err:?}"
    );

    // Hot-load v1 over the wire; the ModelList ack doubles as the
    // post-load listing.
    let statuses = client.load_model("mlp", 1, 0).expect("load v1");
    assert_eq!(statuses.len(), 1);
    assert!(statuses[0].primary && statuses[0].version == 1);

    // Baseline outputs on v1.
    let baseline: Vec<Vec<u32>> = (0..8)
        .map(|i| {
            let out = client
                .request("mlp", &request_input(n_in, i, 42))
                .expect("v1 request");
            bits(&out.outputs)
        })
        .collect();

    // Canary v2 at 25%. Every request must stay bit-identical to
    // the v1 baseline no matter which version served it, and the
    // shadow comparison must never fire.
    let statuses = client.load_model("mlp", 2, 25).expect("canary v2");
    let v2 = statuses.iter().find(|s| s.version == 2).expect("v2 listed");
    assert_eq!(v2.canary_pct, Some(25));
    for round in 0..5 {
        for i in 0..8u64 {
            let out = client
                .request("mlp", &request_input(n_in, i, 42))
                .expect("canary-phase request");
            assert_eq!(
                bits(&out.outputs),
                baseline[i as usize],
                "canary phase diverged (round {round}, input {i})"
            );
        }
    }
    let report = net
        .server()
        .canary_report("mlp")
        .expect("canary report exists");
    assert!(report.routed > 0, "canary saw no traffic");
    assert_eq!(report.divergences, 0);
    assert!(!report.demoted);

    // Promote v2, then load `aux`: the budget no longer fits v1,
    // and it is the only evictable version.
    let statuses = client.load_model("mlp", 2, 0).expect("promote v2");
    let v2 = statuses.iter().find(|s| s.version == 2).expect("v2 listed");
    assert!(v2.primary, "v2 not promoted");
    let statuses = client.load_model("aux", 1, 0).expect("load aux");
    let names: Vec<(String, u32)> = statuses
        .iter()
        .map(|s| (s.name.clone(), s.version))
        .collect();
    assert_eq!(
        names,
        vec![("aux".to_string(), 1), ("mlp".to_string(), 2)],
        "v1 not evicted"
    );
    assert_eq!(net.server().stats().evictions, 1);

    // Unload over the wire and list.
    let statuses = client.unload_model("aux", 1).expect("unload aux");
    assert_eq!(statuses.len(), 1);
    let listed = client.list_models().expect("list");
    assert_eq!(listed, statuses, "list disagrees with ack");

    // Post-evict traffic still serves bit-identically on v2.
    for i in 0..8u64 {
        let out = client
            .request("mlp", &request_input(n_in, i, 42))
            .expect("post-evict request");
        assert_eq!(bits(&out.outputs), baseline[i as usize]);
    }

    // Telemetry reconciles: every admitted request completed, none
    // were lost across the load/evict churn.
    let snap = net.server().stats();
    assert_eq!(snap.submitted, 8 + 40 + 8);
    assert_eq!(snap.completed, snap.submitted);
    assert_eq!(snap.rejected, 0);
    assert_eq!(snap.failed, 0);

    net.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn divergent_canary_auto_demotes_over_the_wire() {
    let dir = scratch_dir("demote");
    let store = RegistryStore::open(&dir).expect("open store");
    save_model(&store, "mlp", 1, 7);
    // v3 is built from a different seed: same shape, different
    // weights — the injected fault the canary gate must catch.
    save_model(&store, "mlp", 3, 8);

    let net = start_empty(&dir, 0);
    let addr = net.local_addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let n_in = ServableModel::mlp(Scale::Reduced(8), 7)
        .expect("model")
        .n_in;

    client.load_model("mlp", 1, 0).expect("load v1");
    let baseline: Vec<u32> = bits(
        &client
            .request("mlp", &request_input(n_in, 0, 42))
            .expect("baseline")
            .outputs,
    );

    // Canary v3 at 100%: the next request is routed to it, shadow-
    // compared against v1, diverges, and trips the demotion
    // threshold (1) — exactly once.
    client.load_model("mlp", 3, 100).expect("canary v3");
    let diverged = client
        .request("mlp", &request_input(n_in, 0, 42))
        .expect("divergent request serves");
    assert_ne!(
        bits(&diverged.outputs),
        baseline,
        "seeds 7 and 8 must differ for this test to bite"
    );

    // After demotion every request routes to the primary again.
    for _ in 0..4 {
        let out = client
            .request("mlp", &request_input(n_in, 0, 42))
            .expect("post-demotion request");
        assert_eq!(bits(&out.outputs), baseline);
    }
    let listed = client.list_models().expect("list");
    let v3 = listed.iter().find(|s| s.version == 3).expect("v3 listed");
    assert!(v3.demoted, "canary not demoted");
    assert_eq!(v3.canary_pct, None);
    let report = net.server().canary_report("mlp").expect("report");
    assert!(report.demoted);
    assert!(report.divergences >= 1);
    assert_eq!(net.server().stats().canary_demotions, 1);

    net.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tenant_overload_rejections_echo_the_tenant_on_the_wire() {
    // Single-request batches on a deliberately slow emulated
    // accelerator: the dispatch pipeline fills within a few
    // submissions, after which the "acme" lane backs up and its
    // 2-slot quota must reject.
    let model = ServableModel::mlp(Scale::Reduced(8), 7).expect("model");
    let n_in = model.n_in;
    let mut models = ModelRegistry::new();
    models.register(model).expect("register");
    let serve = Server::start(
        models,
        ServeConfig {
            workers: 1,
            queue_depth: 64,
            tenant_quota: 2,
            max_batch: 1,
            emulate_hw_time: true,
            freq_ghz: 1e-3,
            ..ServeConfig::default()
        },
    )
    .expect("serve start");
    let net = NetServer::start(serve, NetConfig::default()).expect("net start");

    let mut stream = std::net::TcpStream::connect(net.local_addr()).expect("connect");
    let total = 16u64;
    for id in 0..total {
        let frame = Frame::Request {
            id,
            model: "mlp".to_string(),
            tenant: "acme".to_string(),
            input: request_input(n_in, id, 21),
        };
        write_frame(&mut stream, &frame).expect("write");
    }
    let mut served = 0u64;
    let mut rejected = 0u64;
    for _ in 0..total {
        match read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD)
            .expect("read")
            .expect("frame")
        {
            Frame::Response { .. } => served += 1,
            Frame::Error {
                code: ErrorCode::Overloaded,
                tenant,
                ..
            } => {
                assert_eq!(tenant, "acme", "overload rejection lost its tenant label");
                rejected += 1;
            }
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert_eq!(served + rejected, total);
    assert!(
        rejected > 0,
        "the tenant quota never rejected ({served} served)"
    );
    net.shutdown();
}

/// A one-worker server whose worker the returned connection's request
/// holds for ≈ 1.6 s (the calibration MLP costs 324 simulated cycles,
/// emulated at 2e-7 GHz). Returns once the request is admitted, so
/// mlp@1 is pinned: an unload sent now waits out that request.
fn start_held(registry: Arc<Registry>) -> (NetServer, std::net::TcpStream) {
    let model = ServableModel::mlp(Scale::Reduced(8), 7).expect("model");
    let n_in = model.n_in;
    let mut models = ModelRegistry::new();
    models.register(model).expect("register");
    let serve = Server::start(
        models,
        ServeConfig {
            workers: 1,
            backend: ExecBackend::Simulator,
            emulate_hw_time: true,
            freq_ghz: 2e-7,
            ..ServeConfig::default()
        },
    )
    .expect("serve start");
    let net =
        NetServer::start_with_recorder(serve, NetConfig::default(), registry).expect("net start");
    let mut a = std::net::TcpStream::connect(net.local_addr()).expect("connect a");
    let request = Frame::Request {
        id: 1,
        model: "mlp".to_string(),
        tenant: String::new(),
        input: request_input(n_in, 1, 42),
    };
    write_frame(&mut a, &request).expect("write request");
    while net.server().stats().submitted == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    (net, a)
}

fn unload_mlp() -> Frame {
    Frame::UnloadModel {
        id: 2,
        model: "mlp".to_string(),
        version: 1,
    }
}

#[test]
fn a_lifecycle_frame_does_not_stall_other_connections() {
    let (net, mut a) = start_held(Arc::new(Registry::new()));
    let mut b = std::net::TcpStream::connect(net.local_addr()).expect("connect b");
    let mut c = Client::connect(&net.local_addr().to_string()).expect("connect c");
    c.ping().expect("c is served");
    write_frame(&mut b, &unload_mlp()).expect("write unload");
    std::thread::sleep(Duration::from_millis(100));

    let started = Instant::now();
    c.ping().expect("ping during the unload");
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_millis(500),
        "a ping waited {waited:?} behind another connection's unload"
    );
    // The unload really was still draining while C was answered.
    b.set_nonblocking(true).expect("nonblocking");
    let mut byte = [0u8; 1];
    assert!(
        matches!(b.peek(&mut byte), Err(e) if e.kind() == ErrorKind::WouldBlock),
        "the unload acked before C was answered; the test proves nothing"
    );
    b.set_nonblocking(false).expect("blocking");

    let ack = read_frame(&mut b, cs_net::DEFAULT_MAX_PAYLOAD)
        .expect("read ack")
        .expect("ack frame");
    assert!(
        matches!(&ack, Frame::ModelList { id: 2, models } if models.is_empty()),
        "{ack:?}"
    );
    let reply = read_frame(&mut a, cs_net::DEFAULT_MAX_PAYLOAD)
        .expect("read reply")
        .expect("reply frame");
    assert!(matches!(reply, Frame::Response { id: 1, .. }), "{reply:?}");
    net.shutdown();
}

#[test]
fn a_connection_reset_while_its_unload_drains_closes_at_once() {
    let registry = Arc::new(Registry::new());
    let (net, mut a) = start_held(registry.clone());
    let mut b = std::net::TcpStream::connect(net.local_addr()).expect("connect b");
    // A pong left unread makes the close below a reset, which epoll
    // reports even on a connection that is not reading.
    write_frame(&mut b, &Frame::Ping { id: 1 }).expect("write ping");
    b.peek(&mut [0u8; 1]).expect("pong arrived");
    write_frame(&mut b, &unload_mlp()).expect("write unload");
    std::thread::sleep(Duration::from_millis(100));
    drop(b);

    let open = registry.find_gauge("net_connections", &[]).expect("gauge");
    let deadline = Instant::now() + Duration::from_millis(500);
    while open.get() > 1 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(open.get(), 1, "the reset connection waited for its ack");
    let reply = read_frame(&mut a, cs_net::DEFAULT_MAX_PAYLOAD)
        .expect("read reply")
        .expect("reply frame");
    assert!(matches!(reply, Frame::Response { id: 1, .. }), "{reply:?}");
    net.shutdown();
}

#[test]
fn a_request_pipelined_behind_a_load_sees_the_loaded_model() {
    let dir = scratch_dir("pipelined");
    let store = RegistryStore::open(&dir).expect("open store");
    save_model(&store, "mlp", 1, 7);
    let net = start_empty(&dir, 0);
    let model = ServableModel::mlp(Scale::Reduced(8), 7).expect("model");
    let input = request_input(model.n_in, 3, 42);

    // Both frames in one write: the request is already buffered when
    // the load starts, and must not be decoded before the load lands.
    let mut bytes = Frame::LoadModel {
        id: 1,
        model: "mlp".to_string(),
        version: 1,
        canary_pct: 0,
    }
    .encode();
    bytes.extend(
        Frame::Request {
            id: 2,
            model: "mlp".to_string(),
            tenant: String::new(),
            input: input.clone(),
        }
        .encode(),
    );
    let mut stream = std::net::TcpStream::connect(net.local_addr()).expect("connect");
    std::io::Write::write_all(&mut stream, &bytes).expect("write");

    let ack = read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD)
        .expect("read ack")
        .expect("ack frame");
    assert!(matches!(ack, Frame::ModelList { id: 1, .. }), "{ack:?}");
    match read_frame(&mut stream, cs_net::DEFAULT_MAX_PAYLOAD)
        .expect("read reply")
        .expect("reply frame")
    {
        Frame::Response { id: 2, outputs, .. } => {
            let want = model.sparse_lane().forward(&input).expect("forward");
            assert_eq!(bits(&outputs), bits(&want));
        }
        other => panic!("expected the loaded model's response, got {other:?}"),
    }
    net.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
