//! Eviction-under-load and canary integration tests for the runtime
//! model lifecycle.
//!
//! The claims under test, end to end through the public [`Server`]
//! API:
//!
//! * LRU eviction under a memory budget removes exactly the
//!   least-recently-used non-primary, non-canary versions — never a
//!   primary, never a live canary — and a load that cannot fit even
//!   after eviction is rejected *before* anything is mutated.
//! * A request admitted before an eviction completes bit-identically
//!   on the version it was admitted against, and only then is the
//!   victim's memory considered reclaimed.
//! * An evicted version re-loaded from a registry artifact serves
//!   bit-identical outputs to its pre-evict self, on the Sparse and
//!   Gated lanes alike.
//! * A malformed artifact fails its load with a typed error, not its
//!   requests: the resident versions keep answering.

use std::sync::Arc;

use cs_compress::format::FcLayerFormat;
use cs_nn::spec::Scale;
use cs_registry::{decode_model, encode_model, ModelArtifact};
use cs_serve::{
    ExecBackend, InferRequest, ManualClock, ModelRegistry, ServableModel, ServeConfig, ServeError,
    Server,
};

/// A seeded model renamed so several distinct names can share one
/// serving runtime.
fn model(name: &str, scale: usize, seed: u64) -> ServableModel {
    let mut m = ServableModel::mlp(Scale::Reduced(scale), seed).expect("build model");
    m.name = name.to_string();
    m
}

fn resident_bytes(m: &ServableModel) -> u64 {
    m.layers.iter().map(|(f, _)| f.weight_bytes() as u64).sum()
}

fn input_for(m: &ServableModel, salt: u64) -> Vec<f32> {
    (0..m.n_in)
        .map(|i| ((i as u64 * 37 + salt * 101) % 17) as f32 * 0.25 - 2.0)
        .collect()
}

#[test]
fn lru_eviction_is_ordered_by_last_use_and_spares_the_primary() {
    let one = resident_bytes(&model("m", 6, 1));
    let clock = Arc::new(ManualClock::new(1_000));
    let server = Server::start_with_clock(
        ModelRegistry::new(),
        ServeConfig {
            workers: 1,
            backend: ExecBackend::Sparse,
            memory_budget_bytes: 3 * one,
            ..ServeConfig::default()
        },
        clock.clone(),
    )
    .expect("start");

    // Three promotions of the same name at distinct clock readings:
    // v1 (t=1ms) and v2 (t=2ms) end up non-primary, v3 is primary.
    server.load_servable(model("m", 6, 1), 1, 0).expect("v1");
    clock.advance(1_000);
    server.load_servable(model("m", 6, 2), 2, 0).expect("v2");
    clock.advance(1_000);
    server.load_servable(model("m", 6, 3), 3, 0).expect("v3");
    assert_eq!(
        versions(&server, "m"),
        vec![1, 2, 3],
        "budget fits all three"
    );

    // A fourth version pushes over budget: the LRU victim is v1, the
    // oldest untouched non-primary — not v2, and never the primary v3.
    clock.advance(1_000);
    server.load_servable(model("m", 6, 4), 4, 0).expect("v4");
    assert_eq!(versions(&server, "m"), vec![2, 3, 4], "v1 evicted first");
    assert_eq!(server.stats().evictions, 1);

    // Again: now v2 is the oldest evictable.
    clock.advance(1_000);
    server.load_servable(model("m", 6, 5), 5, 0).expect("v5");
    assert_eq!(versions(&server, "m"), vec![3, 4, 5], "v2 evicted second");
    assert_eq!(server.stats().evictions, 2);
    server.shutdown();
}

#[test]
fn infeasible_load_is_rejected_before_touching_residency() {
    let one = resident_bytes(&model("m", 6, 1));
    let server = Server::start(
        ModelRegistry::new(),
        ServeConfig {
            workers: 1,
            backend: ExecBackend::Sparse,
            memory_budget_bytes: one,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    server.load_servable(model("m", 6, 1), 1, 0).expect("v1");

    // A canary pins both the primary and itself; together they exceed
    // the budget, so the load must fail closed with RegistryFull and
    // leave v1 untouched.
    let err = server
        .load_servable(model("m", 6, 2), 2, 25)
        .expect_err("canary cannot fit");
    assert!(
        matches!(err, ServeError::RegistryFull { .. }),
        "expected RegistryFull, got {err:?}"
    );
    assert_eq!(versions(&server, "m"), vec![1], "v1 still resident");
    assert_eq!(server.stats().evictions, 0);
    server.shutdown();
}

/// The drain-correctness core, parameterized over the execution lane:
/// admit a request against v1, then — while its in-flight guard pins
/// v1 — promote v2 and load a second model so the budget evicts v1.
/// The pre-evict request must complete bit-identically to a reference
/// run of v1, and re-loading v1 from its encoded registry artifact
/// must serve bit-identical outputs again.
fn evict_under_load_completes_and_reloads(backend: ExecBackend) {
    let v1 = model("m", 6, 11);
    let one = resident_bytes(&v1);
    let input = input_for(&v1, 5);

    // Reference: v1 alone on an idle server.
    let reference = {
        let server = Server::start(
            ModelRegistry::new(),
            ServeConfig {
                workers: 1,
                backend,
                ..ServeConfig::default()
            },
        )
        .expect("start reference");
        server.load_servable(v1.clone(), 1, 0).expect("load v1");
        let out = server
            .infer(InferRequest::new("m", input.clone()))
            .expect("reference infer")
            .outputs;
        server.shutdown();
        out
    };

    // Byte-exact registry round trip of v1 — the artifact the re-load
    // below serves from.
    let artifact = ModelArtifact {
        name: "m".to_string(),
        version: 1,
        layers: v1.layers.clone(),
    };
    let bytes = encode_model(&artifact).expect("encode");
    let decoded = decode_model(&bytes).expect("decode");
    assert_eq!(decoded, artifact, "registry round trip is exact");
    assert_eq!(
        encode_model(&decoded).expect("re-encode"),
        bytes,
        "encoding is canonical"
    );

    // The budget holds the three pinned primaries (v2, other, other2)
    // with headroom smaller than v1 — so the final load forces exactly
    // one eviction, and v1 is the only candidate. The deliberately
    // slow emulated accelerator keeps the admitted request in flight
    // while the loads land.
    let v2 = model("m", 6, 12);
    let other = model("other", 6, 13);
    let other2 = model("other2", 6, 14);
    let budget = resident_bytes(&v2) + resident_bytes(&other) + resident_bytes(&other2) + one / 2;
    let server = Arc::new(
        Server::start(
            ModelRegistry::new(),
            ServeConfig {
                workers: 1,
                max_batch: 1,
                backend,
                memory_budget_bytes: budget,
                emulate_hw_time: true,
                freq_ghz: 1e-3,
                ..ServeConfig::default()
            },
        )
        .expect("start"),
    );
    server.load_servable(v1.clone(), 1, 0).expect("load v1");
    let ticket = server
        .submit(InferRequest::new("m", input.clone()))
        .expect("submit against v1");

    // Promote v2 (different seed — different weights) and push the
    // budget over with an unrelated model. v1 is now the only
    // evictable version; load() returns only after v1's in-flight
    // requests drained.
    let loader = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            server.load_servable(v2, 2, 0).expect("promote v2");
            server.load_servable(other, 1, 0).expect("load other");
            server.load_servable(other2, 1, 0).expect("load other2");
        })
    };

    let response = ticket.wait().expect("pre-evict request completes");
    assert_eq!(
        bits(&response.outputs),
        bits(&reference),
        "request admitted before the eviction completed on v1, bit-identically"
    );
    loader.join().expect("loader thread");

    let snap = server.stats();
    assert_eq!(snap.evictions, 1, "exactly v1 was evicted");
    assert_eq!(versions(&server, "m"), vec![2], "only v2 remains for m");

    // Re-load v1 from the registry artifact and promote it: outputs
    // must be bit-identical to the pre-evict serving of v1.
    let reloaded =
        ServableModel::from_layers(decoded.name.clone(), decoded.layers.clone()).expect("rebuild");
    server
        .load_servable(reloaded, decoded.version, 0)
        .expect("re-load v1");
    let again = server
        .infer(InferRequest::new("m", input))
        .expect("infer on re-loaded v1");
    assert_eq!(
        bits(&again.outputs),
        bits(&reference),
        "re-loaded artifact serves bit-identical outputs"
    );
    match Arc::try_unwrap(server) {
        Ok(s) => {
            s.shutdown();
        }
        Err(_) => panic!("loader thread still holds the server"),
    }
}

#[test]
fn evict_under_load_completes_bit_identically_on_the_sparse_lane() {
    evict_under_load_completes_and_reloads(ExecBackend::Sparse);
}

#[test]
fn evict_under_load_completes_bit_identically_on_the_gated_lane() {
    evict_under_load_completes_and_reloads(ExecBackend::Gated);
}

#[test]
fn a_malformed_artifact_fails_its_simulator_load_and_residents_keep_answering() {
    let v1 = model("m", 8, 1);
    let server = Server::start(
        ModelRegistry::new(),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    assert_eq!(server.config().backend, ExecBackend::Simulator);
    server.load_servable(v1.clone(), 1, 0).expect("v1");
    let input = input_for(&v1, 3);
    let before = server
        .infer(InferRequest::new("m", input.clone()))
        .expect("v1 answers");

    // v2 is v1 with one compact weight row a survivor short.
    let mut layers = v1.layers.clone();
    match &mut layers[0].0 {
        FcLayerFormat::Shared(layer) => {
            layer.groups[0].weights[0].pop();
        }
        other => panic!("coarse MLP should compile to Shared, got {}", other.kind()),
    }
    let artifact = ModelArtifact {
        name: "m".to_string(),
        version: 2,
        layers,
    };
    for canary_pct in [0, 50] {
        let err = server
            .load_artifact(&artifact, canary_pct)
            .expect_err("a malformed layer is refused at load");
        assert!(
            matches!(err, ServeError::Accel(_) | ServeError::InvalidConfig(_)),
            "{err:?}"
        );
    }
    assert_eq!(versions(&server, "m"), vec![1]);

    for salt in 0..16 {
        let resp = server
            .infer(InferRequest::new("m", input_for(&v1, salt)))
            .expect("v1 keeps answering");
        assert!(resp.cycles > 0);
    }
    let after = server
        .infer(InferRequest::new("m", input))
        .expect("v1 keeps answering");
    assert_eq!(bits(&after.outputs), bits(&before.outputs));
    assert_eq!(after.cycles, before.cycles);
    let snap = server.shutdown();
    assert_eq!((snap.completed, snap.failed), (18, 0));
}

fn versions(server: &Server, name: &str) -> Vec<u32> {
    server
        .list_models()
        .into_iter()
        .filter(|s| s.name == name)
        .map(|s| s.version)
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}
