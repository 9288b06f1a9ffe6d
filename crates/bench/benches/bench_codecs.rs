//! Micro-benchmarks of the entropy and bilevel codecs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use cs_coding::arith::{BitModel, Decoder, Encoder};
use cs_coding::bilevel::{self, BiLevelImage};
use cs_coding::huffman;

fn skewed_symbols(n: usize) -> Vec<u16> {
    (0..n)
        .map(|i| {
            let x = (i as u64).wrapping_mul(6_364_136_223_846_793_005) >> 33;
            // Geometric-ish distribution over 16 symbols.
            (x % 100).min(15).min((x % 7).pow(2)) as u16
        })
        .collect()
}

fn blocky_bitmap(side: usize) -> Vec<bool> {
    (0..side * side)
        .map(|i| ((i / side / 16) + (i % side / 16)).is_multiple_of(3))
        .collect()
}

fn bench_huffman(c: &mut Criterion) {
    let symbols = skewed_symbols(65_536);
    let encoded = huffman::encode(&symbols, 16).unwrap();
    let mut g = c.benchmark_group("huffman");
    g.throughput(Throughput::Elements(symbols.len() as u64));
    g.bench_function("encode_64k", |b| {
        b.iter(|| huffman::encode(&symbols, 16).unwrap());
    });
    g.bench_function("decode_64k", |b| {
        b.iter(|| huffman::decode(&encoded).unwrap());
    });
    g.finish();
}

fn bench_arith(c: &mut Criterion) {
    let bits: Vec<bool> = (0..65_536).map(|i| i % 23 == 0).collect();
    c.bench_function("arith_encode_64k_bits", |b| {
        b.iter(|| {
            let mut m = BitModel::new();
            let mut e = Encoder::new();
            for bit in &bits {
                e.encode(&mut m, *bit);
            }
            e.finish()
        });
    });
    let mut m = BitModel::new();
    let mut e = Encoder::new();
    for bit in &bits {
        e.encode(&mut m, *bit);
    }
    let bytes = e.finish();
    c.bench_function("arith_decode_64k_bits", |b| {
        b.iter(|| {
            let mut m = BitModel::new();
            let mut d = Decoder::new(&bytes).unwrap();
            let mut count = 0usize;
            for _ in 0..bits.len() {
                if d.decode(&mut m).unwrap() {
                    count += 1;
                }
            }
            count
        });
    });
}

fn bench_bilevel(c: &mut Criterion) {
    let bits = blocky_bitmap(256);
    let img = BiLevelImage::from_bits(&bits, 256).unwrap();
    c.bench_function("bilevel_compress_256x256", |b| {
        b.iter(|| bilevel::compress(&img));
    });
}

criterion_group!(benches, bench_huffman, bench_arith, bench_bilevel);
criterion_main!(benches);
