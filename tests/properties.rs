//! Property-based tests over the core invariants, spanning crates.

use cambricon_s::prelude::*;
use cs_accel::exec::Accelerator;
use cs_accel::pe::Activation;
use cs_coding::bilevel::{self, BiLevelImage};
use cs_coding::huffman;
use cs_quant::kmeans_1d;
use cs_sparsity::coarse;
use cs_tensor::Shape;
use proptest::prelude::*;

proptest! {
    /// Huffman coding round-trips any non-empty symbol stream.
    #[test]
    fn huffman_roundtrip(symbols in proptest::collection::vec(0u16..512, 1..2000)) {
        let enc = huffman::encode(&symbols, 512).unwrap();
        prop_assert_eq!(huffman::decode(&enc).unwrap(), symbols);
    }

    /// Huffman payload never beats the entropy bound.
    #[test]
    fn huffman_respects_entropy(symbols in proptest::collection::vec(0u16..16, 2..1000)) {
        let enc = huffman::encode(&symbols, 16).unwrap();
        let h = huffman::entropy_bits(&symbols);
        prop_assert!(enc.payload_bits as f64 >= h - 1e-6);
    }

    /// The bilevel codec round-trips any bitmap.
    #[test]
    fn bilevel_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..4096),
                         width in 1usize..64) {
        let len = (bits.len() / width).max(1) * width;
        let img = BiLevelImage::from_bits(&bits[..len.min(bits.len()) / width * width], width);
        if let Ok(img) = img {
            let c = bilevel::compress(&img);
            prop_assert_eq!(bilevel::decompress(&c, bits.len()).unwrap(), img);
        }
    }

    /// Coarse pruning always yields a block-aligned mask whose density is
    /// within one block of the target, and never prunes everything.
    #[test]
    fn coarse_pruning_invariants(rows in 4usize..48, cols in 4usize..48,
                                 block in 1usize..12,
                                 density in 0.05f64..1.0,
                                 seed in 0u64..1000) {
        let w = cs_nn::init::gaussian(Shape::d2(rows, cols), 0.1, seed);
        let cfg = CoarseConfig::fc(block, block, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, density).unwrap();
        prop_assert!(coarse::is_block_aligned(&mask, &cfg));
        prop_assert!(mask.ones() > 0, "everything pruned");
        let max_block = block.min(rows) * block.min(cols);
        let slack = max_block as f64 / (rows * cols) as f64;
        prop_assert!(mask.density() <= density + slack + 1e-9,
                     "density {} vs target {}", mask.density(), density);
    }

    /// Coarse pruning with a block larger than the matrix degenerates to
    /// all-or-one: the block clamps to the whole tensor, so the mask is
    /// either full or exactly the single guaranteed block.
    #[test]
    fn oversized_block_keeps_all_or_one(rows in 2usize..24, cols in 2usize..24,
                                        block in 50usize..200,
                                        density in 0.05f64..1.0,
                                        seed in 0u64..1000) {
        let w = cs_nn::init::gaussian(Shape::d2(rows, cols), 0.1, seed);
        let cfg = CoarseConfig::fc(block, block, PruneMetric::Max);
        let mask = coarse::prune_to_density(&w, &cfg, density).unwrap();
        // One clamped block covers everything, and the best block is
        // never pruned — so the mask must be completely full.
        prop_assert_eq!(mask.ones(), rows * cols);
        prop_assert!(coarse::is_block_aligned(&mask, &cfg));
    }

    /// Non-divisible blocks: ragged edge blocks are still legal, the
    /// mask stays block-aligned, and the compiled engine stays
    /// bit-identical to its own dense rendering.
    #[test]
    fn ragged_blocks_compile_and_match_dense(n_in in 5usize..40, n_out in 5usize..40,
                                             block_in in 2usize..7, block_out in 2usize..7,
                                             density in 0.1f64..1.0,
                                             seed in 0u64..500) {
        // Force the blocks to NOT divide the shape.
        prop_assume!(n_in % block_in != 0 || n_out % block_out != 0);
        let w = cs_nn::init::gaussian(Shape::d2(n_in, n_out), 0.1, seed);
        let cfg = CoarseConfig::fc(block_in, block_out, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, density).unwrap();
        prop_assert!(coarse::is_block_aligned(&mask, &cfg));
        let group = block_out.min(n_out).max(1);
        let sil = SharedIndexLayer::from_fc("ragged", &w, &mask, group, 8).unwrap();
        let engine = cs_compress::engine::CompiledFcLayer::from_shared(&sil);
        let dense = engine.to_dense();
        let input: Vec<f32> = (0..n_in)
            .map(|i| ((seed as usize + i * 7) % 13) as f32 * 0.1 - 0.6)
            .collect();
        let mut got = vec![0.0f32; n_out];
        engine.forward(&input, &mut got);
        let xt = cs_tensor::Tensor::from_vec(Shape::d2(1, n_in), input.clone()).unwrap();
        let want = cs_tensor::ops::matmul(&xt, &dense).unwrap();
        let want = want.as_slice();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            prop_assert_eq!(g.to_bits(), w.to_bits(),
                            "engine not bit-identical to dense: {} vs {}", g, w);
        }
    }

    /// An all-zero layer survives the whole compressed pipeline: the
    /// pruner still keeps its guaranteed block, the codebook collapses,
    /// and the engine output is exactly zero everywhere.
    #[test]
    fn all_zero_layer_compresses_to_zero_outputs(n_in in 4usize..32, n_out in 4usize..32,
                                                 block in 1usize..8,
                                                 density in 0.05f64..1.0) {
        let w = cs_tensor::Tensor::zeros(Shape::d2(n_in, n_out));
        let cfg = CoarseConfig::fc(block, block, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, density).unwrap();
        prop_assert!(mask.ones() > 0, "everything pruned");
        let group = block.min(n_out).max(1);
        let sil = SharedIndexLayer::from_fc("zeros", &w, &mask, group, 4).unwrap();
        let engine = cs_compress::engine::CompiledFcLayer::from_shared(&sil);
        let input: Vec<f32> = (0..n_in).map(|i| i as f32 * 0.25 - 1.0).collect();
        let mut out = vec![0.0f32; n_out];
        engine.forward(&input, &mut out);
        for v in out {
            prop_assert_eq!(v.to_bits(), 0.0f32.to_bits());
        }
    }

    /// Fine-grained pruning keeps exactly the requested count and always
    /// keeps a superset of larger magnitudes.
    #[test]
    fn fine_pruning_keeps_top_magnitudes(n in 4usize..256, density in 0.05f64..1.0,
                                         seed in 0u64..1000) {
        let w = cs_nn::init::gaussian(Shape::d1(n), 0.1, seed);
        let mask = cs_sparsity::fine::prune_to_density(&w, density).unwrap();
        let keep = ((density * n as f64).round() as usize).clamp(1, n);
        prop_assert_eq!(mask.ones(), keep);
        // Every kept magnitude >= every dropped magnitude.
        let kept_min = w.as_slice().iter().zip(mask.bits())
            .filter(|(_, b)| **b).map(|(v, _)| v.abs())
            .fold(f32::INFINITY, f32::min);
        let dropped_max = w.as_slice().iter().zip(mask.bits())
            .filter(|(_, b)| !**b).map(|(v, _)| v.abs())
            .fold(0.0f32, f32::max);
        prop_assert!(kept_min >= dropped_max);
    }

    /// Per-region k-means quantization preserves the value count and its
    /// error is bounded by the value range.
    #[test]
    fn quantization_error_bounded(values in proptest::collection::vec(-10.0f32..10.0, 2..500),
                                  bits in 2u8..8, regions in 1usize..8) {
        let range = values.iter().fold(0.0f32, |m, v| m.max(v.abs())) * 2.0;
        let mut count = 0;
        for chunk in values.chunks(values.len().div_ceil(regions)) {
            let km = kmeans_1d(chunk, 1 << bits, 25);
            for (a, q) in chunk.iter().zip(&km.assignments) {
                prop_assert!((a - km.centroids[usize::from(*q)]).abs() <= range + 1e-6);
                count += 1;
            }
        }
        prop_assert_eq!(count, values.len());
    }

    /// The NSM's bit logic matches a naive filter on any input.
    #[test]
    fn nsm_matches_naive_selection(pairs in proptest::collection::vec(
        (any::<bool>(), -1.0f32..1.0), 1..200)) {
        let index: Vec<bool> = pairs.iter().map(|(b, _)| *b).collect();
        let neurons: Vec<f32> = pairs.iter().map(|(_, v)| *v).collect();
        let sel = cs_accel::nsm::select(&neurons, &index);
        let naive: Vec<f32> = neurons.iter().zip(&index)
            .filter(|(v, b)| **b && **v != 0.0)
            .map(|(v, _)| *v)
            .collect();
        prop_assert_eq!(sel.neurons, naive);
        prop_assert_eq!(sel.static_survivors,
                        index.iter().filter(|b| **b).count());
        // Indexing positions are strictly increasing and in range.
        for w in sel.indexing.windows(2) {
            prop_assert!(w[0] < w[1]);
        }
        for p in &sel.indexing {
            prop_assert!(*p < sel.static_survivors);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Full functional equivalence: a randomly pruned layer executed on
    /// the accelerator matches the shared-index reference.
    #[test]
    fn accelerator_matches_reference(n_in_blocks in 2usize..8,
                                     n_out_blocks in 1usize..3,
                                     density in 0.1f64..0.9,
                                     zero_every in 2usize..6,
                                     seed in 0u64..100) {
        let n_in = 16 * n_in_blocks;
        let n_out = 16 * n_out_blocks;
        let w = cs_nn::init::local_convergence(
            Shape::d2(n_in, n_out),
            &cs_nn::init::ConvergenceProfile::with_target_density(density),
            seed,
        );
        let cfg = CoarseConfig::fc(16, 16, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, density).unwrap();
        let sil = SharedIndexLayer::from_fc("p", &w, &mask, 16, 8).unwrap();
        let accel = Accelerator::new(AccelConfig::paper_default());
        let input: Vec<f32> = (0..n_in)
            .map(|i| if i % zero_every == 0 { 0.0 } else { (i % 11) as f32 * 0.1 - 0.5 })
            .collect();
        let run = accel.run_layer(&sil, &input, Activation::None).unwrap();
        let want = sil.output(&input);
        for (got, want) in run.outputs.iter().zip(&want) {
            prop_assert!((got - want).abs() < 1e-3, "{} vs {}", got, want);
        }
        // MAC count equals the exact selected-synapse count.
        let expected_macs: u64 = sil.groups.iter().map(|g| {
            let selected = g.index.iter().enumerate()
                .filter(|(i, b)| **b && input[*i] != 0.0)
                .count() as u64;
            selected * g.weights.len() as u64
        }).sum();
        prop_assert_eq!(run.stats.macs, expected_macs);
    }

    /// Compression sizes are monotone in density: keeping fewer weights
    /// never makes the compressed network bigger.
    #[test]
    fn compression_monotone_in_density(seed in 0u64..20) {
        let spec = NetworkSpec::model(Model::Mlp, Scale::Reduced(8));
        let mut sizes = Vec::new();
        for density in [0.4, 0.2, 0.1] {
            let mut cfg = ModelCompressionConfig::paper(Model::Mlp);
            cfg.fc.target_density = density;
            let report = compress_model(&spec, &cfg, seed).unwrap();
            sizes.push(report.wc_bytes() + report.ic_bytes());
        }
        prop_assert!(sizes[0] >= sizes[1]);
        prop_assert!(sizes[1] >= sizes[2]);
    }
}
