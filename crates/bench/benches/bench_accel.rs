//! Benchmarks of the accelerator simulators themselves: functional layer
//! execution and the per-network timing sweep that drives Figs. 15–18.

use cambricon_s::prelude::*;
use cambricon_s::workload::paper_workload;
use criterion::{criterion_group, criterion_main, Criterion};
use cs_accel::exec::{Accelerator, SimScratch};
use cs_accel::pe::Activation;
use cs_baselines::{cambricon_x_layer, diannao_layer};
use cs_nn::init::{self, ConvergenceProfile};
use cs_sparsity::coarse;
use cs_tensor::Shape;

fn bench_functional_exec(c: &mut Criterion) {
    let w = init::local_convergence(
        Shape::d2(4096, 64),
        &ConvergenceProfile::with_target_density(0.1).with_block(16),
        3,
    );
    let cfg = CoarseConfig::fc(16, 16, PruneMetric::Average);
    let mask = coarse::prune_to_density(&w, &cfg, 0.1).unwrap();
    let sil = SharedIndexLayer::from_fc("b", &w, &mask, 16, 4).unwrap();
    let accel = Accelerator::new(AccelConfig::paper_default());
    let input: Vec<f32> = (0..4096)
        .map(|i| {
            if i % 3 == 0 {
                0.0
            } else {
                (i % 7) as f32 * 0.1
            }
        })
        .collect();
    c.bench_function("functional_exec_fc_4096x64", |b| {
        b.iter(|| accel.run_layer(&sil, &input, Activation::Relu).unwrap());
    });
    // The same layer compiled once, the way a serving load runs it.
    let net = accel
        .compile_network(vec![(sil, Activation::Relu)])
        .unwrap();
    let mut scratch = SimScratch::default();
    c.bench_function("functional_exec_fc_4096x64_compiled", |b| {
        b.iter(|| {
            accel
                .run_compiled(&net, &input, &mut scratch)
                .unwrap()
                .1
                .cycles
        });
    });
}

fn bench_timing_model(c: &mut Criterion) {
    let cfg = AccelConfig::paper_default();
    let wl = paper_workload(Model::AlexNet, Scale::Full);
    c.bench_function("timing_alexnet_ours", |b| {
        b.iter(|| wl.run_ours(&cfg));
    });
    c.bench_function("timing_alexnet_baselines", |b| {
        b.iter(|| {
            let mut total = 0u64;
            for l in &wl.layers {
                total += diannao_layer(&l.timing).stats.cycles;
                total += cambricon_x_layer(&l.timing).stats.cycles;
            }
            total
        });
    });
}

fn bench_compile(c: &mut Criterion) {
    let w = init::local_convergence(
        Shape::d2(8192, 256),
        &ConvergenceProfile::with_target_density(0.1).with_block(16),
        5,
    );
    let ccfg = CoarseConfig::fc(16, 16, PruneMetric::Average);
    let mask = coarse::prune_to_density(&w, &ccfg, 0.1).unwrap();
    let sil = SharedIndexLayer::from_fc("c", &w, &mask, 16, 4).unwrap();
    let cfg = AccelConfig::paper_default();
    c.bench_function("compile_fc_8192x256", |b| {
        b.iter(|| cs_accel::compiler::compile_layer(&sil, &cfg, Activation::None));
    });
}

criterion_group!(
    benches,
    bench_functional_exec,
    bench_timing_model,
    bench_compile
);
criterion_main!(benches);
