//! Micro-benchmarks of the pruning passes and of one layer's compression
//! (whose report carries the irregularity metric).

use cambricon_s::prelude::*;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cs_nn::init::{self, ConvergenceProfile};
use cs_sparsity::{coarse, fine};
use cs_tensor::Shape;

fn bench_coarse_prune(c: &mut Criterion) {
    let mut g = c.benchmark_group("coarse_prune");
    for n in [256usize, 1024] {
        let w = init::local_convergence(
            Shape::d2(n, n),
            &ConvergenceProfile::with_target_density(0.1),
            3,
        );
        let cfg = CoarseConfig::fc(16, 16, PruneMetric::Average);
        g.throughput(Throughput::Elements((n * n) as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| coarse::prune_to_density(&w, &cfg, 0.1).unwrap());
        });
    }
    g.finish();
}

fn bench_fine_prune(c: &mut Criterion) {
    let w = init::gaussian(Shape::d2(1024, 1024), 0.1, 5);
    c.bench_function("fine_prune_1M", |b| {
        b.iter(|| fine::prune_to_density(&w, 0.1).unwrap());
    });
}

fn bench_block_scores(c: &mut Criterion) {
    let w = init::gaussian(Shape::d4(64, 128, 3, 3), 0.1, 7);
    let cfg = CoarseConfig::conv(1, 16, 1, 1, PruneMetric::Average);
    c.bench_function("block_scores_conv_64x128x3x3", |b| {
        b.iter(|| coarse::block_scores(&w, &cfg));
    });
}

fn bench_irregularity(c: &mut Criterion) {
    use cs_compress::config::LayerCompressionConfig;
    use cs_compress::pipeline::compress_layer;
    use cs_nn::spec::{LayerSpec, LayerSpecKind};

    let layer = LayerSpec::new(
        "fc",
        LayerSpecKind::Fc {
            n_in: 512,
            n_out: 512,
        },
    );
    let w = init::local_convergence(
        Shape::d2(512, 512),
        &ConvergenceProfile::with_target_density(0.1).with_block(16),
        9,
    );
    let cfg = LayerCompressionConfig::paper_fc(0.1, 16);
    // The whole layer flow, whose report carries R(Irr).
    c.bench_function("compress_layer_512x512", |b| {
        b.iter(|| compress_layer(&layer, &w, &cfg).unwrap());
    });
}

criterion_group!(
    benches,
    bench_coarse_prune,
    bench_fine_prune,
    bench_block_scores,
    bench_irregularity
);
criterion_main!(benches);
