//! Micro-benchmark of the NSM's neuron selection.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use cs_accel::nsm;

fn window(density_pct: u64) -> (Vec<f32>, Vec<bool>) {
    let mut x = 3u64;
    let mut step = move || {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        x >> 33
    };
    let neurons: Vec<f32> = (0..4096)
        .map(|_| {
            if step() % 100 < 60 {
                (step() % 97) as f32 * 0.01
            } else {
                0.0
            }
        })
        .collect();
    let index: Vec<bool> = (0..4096).map(|_| step() % 100 < density_pct).collect();
    (neurons, index)
}

fn bench_nsm_select(c: &mut Criterion) {
    let mut g = c.benchmark_group("nsm_select_4096");
    for density in [10u64, 35, 100] {
        let (neurons, index) = window(density);
        g.throughput(Throughput::Elements(4096));
        g.bench_with_input(BenchmarkId::from_parameter(density), &density, |b, _| {
            b.iter(|| nsm::select(&neurons, &index));
        });
    }
    g.finish();
}

criterion_group!(benches, bench_nsm_select);
criterion_main!(benches);
