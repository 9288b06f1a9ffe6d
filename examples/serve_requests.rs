//! Serving: run batched inference against a pool of simulated
//! Cambricon-S accelerators.
//!
//! Compresses the paper's MLP into the shared-index format, registers
//! it with the serving runtime, submits a burst of concurrent requests
//! that the workers pull off the admission queue in batches, and prints
//! the latency/throughput/energy statistics the server collected.
//!
//! ```text
//! cargo run --release --example serve_requests
//! ```

use cambricon_s::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Compress the MLP (784-300-100-10 at 1/4 scale) with the
    //    paper's per-layer settings and register it.
    let model = ServableModel::mlp(Scale::Reduced(4), 42)?;
    let n_in = model.n_in;
    let mut registry = ModelRegistry::new();
    registry.register(model)?;

    // 2. Start two workers — two simulated accelerators. A worker that
    //    is free takes whatever is queued, up to 8 requests, and runs
    //    it at once: the burst below rides in batches because requests
    //    pile up while both workers are busy, not because anything
    //    waits for co-riders.
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 2,
            max_batch: 8,
            ..ServeConfig::default()
        },
    )?;

    // 3. Submit a burst of requests, then wait for every response.
    let tickets: Vec<_> = (0..32)
        .map(|i| {
            let input: Vec<f32> = (0..n_in)
                .map(|j| {
                    if (i + j) % 3 == 0 {
                        0.0
                    } else {
                        0.1 * ((j % 7) as f32)
                    }
                })
                .collect();
            server.submit(InferRequest::new("mlp", input))
        })
        .collect::<Result<_, _>>()?;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let resp = ticket.wait()?;
        if i == 0 {
            println!(
                "first response: {} outputs, {} cycles, {:.1} nJ, batch of {}, worker {}",
                resp.outputs.len(),
                resp.cycles,
                resp.energy_pj / 1e3,
                resp.batch_size,
                resp.worker
            );
        }
    }

    // 4. Shut down gracefully and print the collected statistics.
    let stats = server.shutdown();
    println!("{}", stats.render());
    Ok(())
}
