//! Micro-benchmarks of k-means clustering, the one weight quantizer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cs_quant::kmeans_1d;

fn values(n: usize) -> Vec<f32> {
    let mut x = 42u64;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

fn bench_kmeans(c: &mut Criterion) {
    let mut g = c.benchmark_group("kmeans_1d");
    for n in [10_000usize, 100_000] {
        let v = values(n);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| kmeans_1d(&v, 16, 25));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_kmeans);
criterion_main!(benches);
