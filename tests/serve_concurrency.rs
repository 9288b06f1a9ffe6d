//! Concurrency contract of the serving runtime: many client threads
//! against a 2-worker server must each get exactly one response whose
//! outputs are bit-identical to single-threaded execution, and a full
//! admission queue must reject with `Overloaded` instead of blocking.

use cambricon_s::prelude::*;
use cs_accel::exec::Accelerator;
use cs_serve::admission::AdmissionQueue;
use cs_serve::batch::{Batch, CloseReason};
use cs_serve::{ExecBackend, ManualClock};
use proptest::prelude::*;

const SEED: u64 = 20181020;

fn deterministic_input(n_in: usize, request_id: u64) -> Vec<f32> {
    (0..n_in)
        .map(|i| {
            let v = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(request_id.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            if v.is_multiple_of(3) {
                0.0
            } else {
                ((v >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            }
        })
        .collect()
}

#[test]
fn concurrent_clients_get_exactly_one_bit_identical_response_each() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 12;

    let model = ServableModel::mlp(Scale::Reduced(8), SEED).expect("mlp compiles");
    let layers = model.shared_layers();
    let n_in = model.n_in;
    let mut registry = ModelRegistry::new();
    registry.register(model).expect("register");
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 2,
            max_batch: 4,
            queue_depth: CLIENTS * PER_CLIENT,
            ..ServeConfig::default()
        },
    )
    .expect("start");

    // Reference outputs from a single-threaded Accelerator, computed
    // outside the server.
    let reference = Accelerator::new(AccelConfig::paper_default());

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..CLIENTS {
            let server = &server;
            let layers = &layers;
            let reference = &reference;
            handles.push(scope.spawn(move || {
                for i in 0..PER_CLIENT {
                    let rid = (client * PER_CLIENT + i) as u64;
                    let input = deterministic_input(n_in, rid);
                    let resp = server
                        .infer(InferRequest::new("mlp", input.clone()))
                        .expect("request completes");
                    let direct = reference
                        .run_network(layers, &input)
                        .expect("direct execution");
                    // Bit-identical: batching and threading must not
                    // change a single output bit.
                    assert_eq!(
                        resp.outputs, direct.outputs,
                        "client {client} request {i} diverged from single-threaded run"
                    );
                    assert_eq!(resp.cycles, direct.stats.cycles);
                }
            }));
        }
        for h in handles {
            h.join().expect("client thread");
        }
    });

    let snap = server.shutdown();
    // Exactly one response per request: every submission completed,
    // none failed, none were double-counted.
    assert_eq!(snap.submitted, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(snap.completed, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(snap.failed, 0);
    assert_eq!(snap.rejected, 0);
    let batched: u64 = snap.batch_hist.iter().map(|(s, n)| *s as u64 * n).sum();
    assert_eq!(
        batched, snap.completed,
        "every request rode exactly one batch"
    );
    assert!(snap.batch_hist.iter().all(|(size, _)| *size <= 4));
}

#[test]
fn full_queue_rejects_with_overloaded() {
    let model = ServableModel::mlp(Scale::Reduced(16), SEED).expect("mlp compiles");
    let n_in = model.n_in;
    let mut registry = ModelRegistry::new();
    registry.register(model).expect("register");
    // One worker that sleeps out its simulated service time at a clock
    // slowed 1000x (1 MHz), so each request occupies the pipeline for
    // milliseconds while a burst of submissions arrives in microseconds:
    // the bounded queue must overflow deterministically.
    let metrics = std::sync::Arc::new(cs_serve::Registry::new());
    let server = Server::start_with_recorder(
        registry,
        ServeConfig {
            workers: 1,
            max_batch: 1,
            queue_depth: 2,
            emulate_hw_time: true,
            freq_ghz: 0.001,
            ..ServeConfig::default()
        },
        std::sync::Arc::new(cs_serve::MonotonicClock::new()),
        metrics.clone(),
    )
    .expect("start");

    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for rid in 0..32 {
        match server.submit(InferRequest::new("mlp", deterministic_input(n_in, rid))) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { capacity, .. }) => {
                assert_eq!(capacity, 2);
                rejected += 1;
            }
            Err(e) => panic!("unexpected admission error: {e}"),
        }
    }
    assert!(
        rejected > 0,
        "a 2-deep queue cannot absorb a 32-request burst"
    );
    let admitted = tickets.len() as u64;
    // Every admitted request still completes (graceful backpressure,
    // not dropped work).
    for t in tickets {
        t.wait().expect("admitted request completes");
    }
    let snap = server.shutdown();
    assert_eq!(snap.completed, admitted);
    assert_eq!(snap.rejected, rejected);
    assert_eq!(admitted + rejected, 32);
    // The telemetry reject counter counts the same backpressure events
    // as the snapshot — neither side misses an Overloaded.
    let reject_counter = metrics
        .find_counter("serve_requests_rejected_total", &[])
        .expect("reject counter registered");
    assert_eq!(reject_counter.get(), rejected);
    assert_eq!(
        metrics
            .find_counter("serve_requests_completed_total", &[])
            .expect("completed counter registered")
            .get(),
        admitted
    );
}

#[test]
fn multi_model_batches_route_responses_to_the_right_client() {
    let mlp_a = ServableModel::mlp(Scale::Reduced(8), SEED).expect("mlp a");
    let mut spec_b = ServableModel::mlp(Scale::Reduced(8), SEED ^ 0xABCD).expect("mlp b");
    spec_b.name = "mlp-b".to_string();
    let layers_a = mlp_a.shared_layers();
    let layers_b = spec_b.shared_layers();
    let n_in = mlp_a.n_in;
    let mut registry = ModelRegistry::new();
    registry.register(mlp_a).expect("register a");
    registry.register(spec_b).expect("register b");
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            queue_depth: 64,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let reference = Accelerator::new(AccelConfig::paper_default());

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for client in 0..4usize {
            let server = &server;
            let (name, layers) = if client % 2 == 0 {
                ("mlp", &layers_a)
            } else {
                ("mlp-b", &layers_b)
            };
            let reference = &reference;
            handles.push(scope.spawn(move || {
                for i in 0..8u64 {
                    let input = deterministic_input(n_in, client as u64 * 100 + i);
                    let resp = server
                        .infer(InferRequest::new(name, input.clone()))
                        .expect("request completes");
                    assert_eq!(resp.model, name, "response routed to wrong model");
                    let direct = reference.run_network(layers, &input).expect("direct");
                    assert_eq!(resp.outputs, direct.outputs);
                }
            }));
        }
        for h in handles {
            h.join().expect("client thread");
        }
    });
    let snap = server.shutdown();
    assert_eq!(snap.completed, 32);
    assert_eq!(snap.failed, 0);
}

#[test]
fn eight_producers_four_workers_two_models_get_exactly_one_reply_each() {
    const PRODUCERS: usize = 8;
    const PER_PRODUCER: usize = 24;

    let mlp_a = ServableModel::mlp(Scale::Reduced(8), SEED).expect("mlp a");
    let mut mlp_b = ServableModel::mlp(Scale::Reduced(8), SEED ^ 0xABCD).expect("mlp b");
    mlp_b.name = "mlp-b".to_string();
    let n_in = mlp_a.n_in;
    let lanes = [mlp_a.dense_lane(), mlp_b.dense_lane()];
    let names = [mlp_a.name.clone(), mlp_b.name.clone()];
    let mut registry = ModelRegistry::new();
    registry.register(mlp_a).expect("register a");
    registry.register(mlp_b).expect("register b");
    // A queue shallower than the burst, so admission may push back;
    // producers do not retry and do not wait for replies.
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 4,
            max_batch: 4,
            queue_depth: 16,
            backend: ExecBackend::Sparse,
            ..ServeConfig::default()
        },
    )
    .expect("start");

    let mut admitted = Vec::new();
    let mut rejected = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|producer| {
                let (server, names) = (&server, &names);
                scope.spawn(move || {
                    let mut tickets = Vec::new();
                    let mut rejected = 0u64;
                    for i in 0..PER_PRODUCER {
                        let rid = (producer * PER_PRODUCER + i) as u64;
                        let which = (producer + i) % 2;
                        let input = deterministic_input(n_in, rid);
                        match server.submit(InferRequest::new(&names[which], input.clone())) {
                            Ok(ticket) => tickets.push((ticket, which, input)),
                            Err(ServeError::Overloaded { .. }) => rejected += 1,
                            Err(e) => panic!("unexpected admission error: {e}"),
                        }
                    }
                    (tickets, rejected)
                })
            })
            .collect();
        for h in handles {
            let (tickets, r) = h.join().expect("producer thread");
            admitted.extend(tickets);
            rejected += r;
        }
    });

    // Shut down with replies still uncollected (and possibly work still
    // queued): the drain answers everything that was admitted.
    let snap = server.shutdown();
    assert_eq!(snap.submitted, admitted.len() as u64);
    assert_eq!(snap.rejected, rejected);
    assert_eq!(snap.failed, 0);
    assert_eq!(
        snap.completed + snap.rejected,
        (PRODUCERS * PER_PRODUCER) as u64,
        "every submission was either answered or refused at the door"
    );
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (ticket, which, input) in admitted {
        let resp = ticket.wait().expect("exactly one reply per ticket");
        assert_eq!(resp.model, names[which], "reply routed to the wrong model");
        assert!(resp.batch_size >= 1 && resp.batch_size <= 4);
        let want = lanes[which].forward(&input).expect("direct lane");
        assert_eq!(bits(&resp.outputs), bits(&want));
        // A second reply on the same ticket is impossible by
        // construction: the ticket was consumed by `wait`.
    }
}

/// What the test queues: `(id, tenant, model)`.
type Tagged = (usize, usize, usize);

/// Cuts the fair order into the batches a work-conserving popper must
/// produce: each the longest same-model run at the front, capped at
/// `max_batch`.
fn greedy_chunks(order: &[Tagged], max_batch: usize) -> Vec<Vec<Tagged>> {
    let mut chunks: Vec<Vec<Tagged>> = Vec::new();
    for item in order {
        match chunks.last_mut() {
            Some(open) if open.len() < max_batch && open[0].2 == item.2 => open.push(*item),
            _ => chunks.push(vec![*item]),
        }
    }
    chunks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Batch-composition invariants over arbitrary arrival sequences,
    /// driven single-threaded through the real admission queue — which
    /// is possible because a pop on a non-empty queue, and any pop on a
    /// closed one, must not block (a hang here is the failure). A twin
    /// queue fed the same arrivals and popped one job at a time
    /// supplies the weighted-fair order the batches must follow.
    #[test]
    fn batch_invariants_hold_for_any_arrival_sequence(
        arrivals in proptest::collection::vec((0usize..3, 0usize..3, 0u8..6), 1..200),
        max_batch in 1usize..9,
        capacity in 4usize..48,
    ) {
        let weights = [("t0".to_string(), 3)];
        let batched: AdmissionQueue<Tagged> = AdmissionQueue::new(capacity, 0, &weights);
        let single: AdmissionQueue<Tagged> = AdmissionQueue::new(capacity, 0, &weights);
        let clock = ManualClock::new(0);
        let model_of = |item: &Tagged| item.2;
        let pop = |q: &AdmissionQueue<Tagged>, max_batch: usize| {
            q.pop_batch(0, max_batch, &clock, model_of)
        };

        let mut closed: Vec<Batch<Tagged>> = Vec::new();
        let mut admitted = 0usize;
        let mut queued = 0usize;
        // Pops `queued` jobs from both queues and holds the batches to
        // the greedy cut of the fair order. A partial batch with nothing
        // queued behind it closes as `Deadline`.
        let drain = |queued: &mut usize, closed: &mut Vec<Batch<Tagged>>| {
            let order: Vec<Tagged> = (0..*queued)
                .map(|_| pop(&single, 1).expect("twin holds the same jobs").items[0])
                .collect();
            let chunks = greedy_chunks(&order, max_batch);
            for (i, want) in chunks.iter().enumerate() {
                let batch = pop(&batched, max_batch).expect("non-empty queue yields a batch");
                // Work-conserving: exactly the same-model prefix, capped.
                prop_assert_eq!(&batch.items, want);
                let reason = if want.len() == max_batch {
                    CloseReason::Size
                } else if i + 1 < chunks.len() {
                    CloseReason::ModelSwitch
                } else {
                    CloseReason::Deadline
                };
                prop_assert_eq!(batch.reason, reason);
                *queued -= batch.items.len();
                closed.push(batch);
            }
            prop_assert_eq!(*queued, 0);
            Ok(())
        };
        for (id, (tenant, model, roll)) in arrivals.iter().enumerate() {
            let item = (id, *tenant, *model);
            let name = format!("t{tenant}");
            let verdict = batched.try_push(&name, item);
            prop_assert_eq!(verdict, single.try_push(&name, item));
            if verdict.is_ok() {
                admitted += 1;
                queued += 1;
            }
            if *roll == 0 {
                drain(&mut queued, &mut closed)?;
            }
        }
        // Shutdown drain: a closed queue still yields what is queued,
        // by the same rules, and then nothing.
        batched.close();
        single.close();
        drain(&mut queued, &mut closed)?;
        prop_assert!(pop(&batched, max_batch).is_none(), "closed and drained");

        for batch in &closed {
            // No batch exceeds the size limit, none is empty.
            prop_assert!(!batch.items.is_empty());
            prop_assert!(batch.items.len() <= max_batch);
            // Single-model batches: every item targets the batch model.
            prop_assert!(batch.items.iter().all(|item| item.2 == batch.model));
            // The size rule fires on exactly-full batches, and only then.
            prop_assert_eq!(batch.reason == CloseReason::Size, batch.items.len() == max_batch);
        }

        // Every admitted request rides exactly one batch: ids across
        // all closed batches are the admitted ids, each once.
        let mut ids: Vec<usize> = closed
            .iter()
            .flat_map(|b| b.items.iter().map(|item| item.0))
            .collect();
        prop_assert_eq!(ids.len(), admitted, "dropped or duplicated requests");
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), admitted);

        // FIFO within a tenant's lane: the fair schedule interleaves
        // tenants, but one tenant's requests for one model are served in
        // arrival order.
        for tenant in 0..3usize {
            for model in 0..3usize {
                let order: Vec<usize> = closed
                    .iter()
                    .flat_map(|b| b.items.iter())
                    .filter(|item| item.1 == tenant && item.2 == model)
                    .map(|item| item.0)
                    .collect();
                prop_assert!(
                    order.windows(2).all(|w| w[0] < w[1]),
                    "tenant {} model {} served out of order: {:?}", tenant, model, order
                );
            }
        }
    }
}

#[test]
fn shutdown_drains_in_flight_requests() {
    let model = ServableModel::mlp(Scale::Reduced(16), SEED).expect("mlp compiles");
    let n_in = model.n_in;
    let mut registry = ModelRegistry::new();
    registry.register(model).expect("register");
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 2,
            max_batch: 4,
            queue_depth: 32,
            ..ServeConfig::default()
        },
    )
    .expect("start");
    let tickets: Vec<_> = (0..16)
        .map(|rid| {
            server
                .submit(InferRequest::new("mlp", deterministic_input(n_in, rid)))
                .expect("submit")
        })
        .collect();
    // Shut down immediately: queued and batching requests must still be
    // answered, not dropped.
    let snap = server.shutdown();
    assert_eq!(snap.completed, 16);
    for t in tickets {
        t.wait()
            .expect("in-flight request answered during shutdown");
    }
}
