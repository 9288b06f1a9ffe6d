//! Property tests: structured-sparsity metadata round-trips through the
//! bank-balanced format and its packed offset stream, and the specialized kernels stay bit-identical to a
//! dense reference on arbitrary geometries.

use cs_compress::engine::FcKernel;
use cs_compress::format::{BankBalancedFcLayer, FcLayerFormat};
use cs_sparsity::structured;
use cs_tensor::{Shape, Tensor};
use proptest::prelude::*;

fn weights(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut x = seed | 1;
    Tensor::from_fn(Shape::d2(rows, cols), |_| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
    })
}

fn input(n: usize, seed: u64) -> Vec<f32> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

/// Dense reference: accumulate every input in ascending order, the exact
/// k-order the sparse kernels claim bit-identity against.
fn dense_forward(w: &Tensor, input: &[f32]) -> Vec<f32> {
    let n_out = w.shape().dim(1);
    let mut out = vec![0.0f32; n_out];
    for (o, slot) in out.iter_mut().enumerate() {
        for (i, x) in input.iter().enumerate() {
            *slot += x * w.as_slice()[i * n_out + o];
        }
    }
    out
}

fn masked(w: &Tensor, mask: &cs_sparsity::Mask) -> Tensor {
    Tensor::from_fn(w.shape().clone(), |i| {
        if mask.bits()[i] {
            w.as_slice()[i]
        } else {
            0.0
        }
    })
}

/// `layer` with its offsets read back from the stream it encodes to,
/// which takes exactly the bytes `index_bits` charges.
fn read_back(layer: &BankBalancedFcLayer) -> BankBalancedFcLayer {
    let stream = layer.encode_offsets().unwrap();
    assert_eq!(stream.len(), layer.index_bits().div_ceil(8));
    let mut back = BankBalancedFcLayer {
        offsets: Vec::new(),
        ..layer.clone()
    };
    back.decode_offsets(&stream).unwrap();
    back
}

proptest! {
    /// 2:4 survivor positions and values round-trip exactly through the
    /// bank-balanced (4, 2) format and its 2-bit offset stream for any
    /// geometry, ragged tails included.
    #[test]
    fn two_four_metadata_roundtrip(rows in 1usize..48, cols in 1usize..10,
                                   seed in 0u64..200) {
        let w = weights(rows, cols, seed);
        let mask = structured::two_four_mask(&w).unwrap();
        let layer = BankBalancedFcLayer::from_fc("p", &w, &mask, 4, 2).unwrap();
        prop_assert!(layer.index_bits() <= mask.ones() * 2);
        prop_assert_eq!(read_back(&layer), layer.clone());
        for o in 0..cols {
            let want_pos: Vec<u32> = (0..rows)
                .filter(|i| mask.bits()[i * cols + o])
                .map(|i| i as u32)
                .collect();
            let want_vals: Vec<f32> = want_pos.iter()
                .map(|i| w.as_slice()[*i as usize * cols + o])
                .collect();
            prop_assert_eq!(layer.lane_positions(o), want_pos);
            prop_assert_eq!(layer.lane_values(o), &want_vals[..]);
        }
        let dense = layer.to_dense();
        let want = masked(&w, &mask);
        for (a, b) in dense.as_slice().iter().zip(want.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Bank-balanced survivor positions and values round-trip exactly
    /// through the offsets and their packed stream for any bank geometry.
    #[test]
    fn bank_balanced_metadata_roundtrip(rows in 1usize..48, cols in 1usize..8,
                                        bank in 2usize..12, k in 1usize..12,
                                        seed in 0u64..200) {
        prop_assume!(k <= bank);
        let w = weights(rows, cols, seed);
        let mask = structured::bank_balanced_mask(&w, bank, k).unwrap();
        let layer = BankBalancedFcLayer::from_fc("p", &w, &mask, bank, k).unwrap();
        prop_assert_eq!(read_back(&layer), layer.clone());
        for o in 0..cols {
            let want_pos: Vec<u32> = (0..rows)
                .filter(|i| mask.bits()[i * cols + o])
                .map(|i| i as u32)
                .collect();
            prop_assert_eq!(layer.lane_positions(o), want_pos);
        }
        let dense = layer.to_dense();
        let want = masked(&w, &mask);
        for (a, b) in dense.as_slice().iter().zip(want.as_slice()) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// The compiled 2:4 kernel is bit-identical to the dense ascending-
    /// order reference over the *masked* weights, for any shape and input.
    #[test]
    fn two_four_kernel_matches_dense_reference(rows in 1usize..32, cols in 1usize..10,
                                               seed in 0u64..100) {
        let w = weights(rows, cols, seed);
        let mask = structured::two_four_mask(&w).unwrap();
        let layer = BankBalancedFcLayer::from_fc("p", &w, &mask, 4, 2).unwrap();
        let kernel = FcKernel::compile(&FcLayerFormat::BankBalanced(layer));
        let x = input(rows, seed ^ 0xA5A5);
        let mut got = vec![0.0f32; cols];
        kernel.forward(&x, &mut got);
        let want = dense_forward(&masked(&w, &mask), &x);
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Same bit-identity for the compiled bank-balanced kernel.
    #[test]
    fn bank_balanced_kernel_matches_dense_reference(rows in 1usize..32, cols in 1usize..10,
                                                    bank in 2usize..10, k in 1usize..10,
                                                    seed in 0u64..100) {
        prop_assume!(k <= bank);
        let w = weights(rows, cols, seed);
        let mask = structured::bank_balanced_mask(&w, bank, k).unwrap();
        let layer = BankBalancedFcLayer::from_fc("p", &w, &mask, bank, k).unwrap();
        let kernel = FcKernel::compile(&FcLayerFormat::BankBalanced(layer));
        let x = input(rows, seed ^ 0x5A5A);
        let mut got = vec![0.0f32; cols];
        kernel.forward(&x, &mut got);
        let want = dense_forward(&masked(&w, &mask), &x);
        for (a, b) in got.iter().zip(&want) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
