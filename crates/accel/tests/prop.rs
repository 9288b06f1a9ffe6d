//! Property-based tests for the accelerator's datapath and timing model.

use cs_accel::config::AccelConfig;
use cs_accel::isa::{Instruction, Program};
use cs_accel::pe::Activation;
use cs_accel::timing::{group_cycles, simulate_layer, LayerTiming};
use cs_accel::{nsm, ssm};
use proptest::prelude::*;

proptest! {
    /// NSM selection count equals the AND of the two sparsity sources.
    #[test]
    fn nsm_count_is_intersection(data in proptest::collection::vec(
        (any::<bool>(), any::<bool>()), 1..500)) {
        let index: Vec<bool> = data.iter().map(|(b, _)| *b).collect();
        let neurons: Vec<f32> = data.iter()
            .map(|(_, nz)| if *nz { 1.0 } else { 0.0 })
            .collect();
        let sel = nsm::select(&neurons, &index);
        let expected = data.iter().filter(|(b, nz)| *b && *nz).count();
        prop_assert_eq!(sel.neurons.len(), expected);
        prop_assert_eq!(sel.indexing.len(), expected);
    }

    /// Group cycles respect all three structural limits.
    #[test]
    fn group_cycles_respect_limits(n_in in 1usize..100_000,
                                   surv_frac in 0.0f64..1.0,
                                   need_frac in 0.0f64..1.0,
                                   bits in prop::sample::select(vec![4u8, 8, 16])) {
        let cfg = AccelConfig::paper_default();
        let surv = (n_in as f64 * surv_frac) as usize;
        let needed = (surv as f64 * need_frac) as usize;
        let c = group_cycles(&cfg, n_in, surv, needed, bits);
        prop_assert!(c >= (n_in.div_ceil(256)) as u64);
        prop_assert!(c >= (needed.div_ceil(16)) as u64);
        prop_assert!(c >= (surv.div_ceil(64)) as u64);
        prop_assert!(c >= 1);
    }

    /// Timing is monotone: more sparsity (lower densities) never makes a
    /// layer slower, and never moves more DRAM bytes.
    #[test]
    fn timing_monotone_in_sparsity(n_in in 64usize..4096, n_out in 16usize..512,
                                   d1 in 0.05f64..1.0, d2 in 0.05f64..1.0,
                                   dd in 0.1f64..1.0) {
        let cfg = AccelConfig::paper_default();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let sparse = simulate_layer(&cfg, &LayerTiming::fc(n_in, n_out, lo, dd, 4));
        let dense = simulate_layer(&cfg, &LayerTiming::fc(n_in, n_out, hi, dd, 4));
        prop_assert!(sparse.stats.cycles <= dense.stats.cycles,
                     "{} > {}", sparse.stats.cycles, dense.stats.cycles);
        prop_assert!(sparse.stats.dram_read_bytes <= dense.stats.dram_read_bytes);
        prop_assert!(sparse.stats.macs <= dense.stats.macs);
    }

    /// Every generated instruction stream round-trips through the IB
    /// binary format.
    #[test]
    fn isa_stream_roundtrip(ops in proptest::collection::vec(
        (0u8..6, 0usize..256, 0usize..100_000, 0usize..100_000), 0..100)) {
        let instrs: Vec<Instruction> = ops.iter().map(|(op, g, a, b)| match op {
            0 => Instruction::LoadNeurons { offset: *a, len: *b },
            1 => Instruction::LoadIndex { group: *g, offset: *a, len: *b },
            2 => Instruction::LoadSynapses { group: *g, offset: *a, len: *b },
            3 => Instruction::Compute { group: *g, offset: *a, len: *b },
            4 => Instruction::Activate {
                group: *g,
                activation: match a % 3 {
                    0 => Activation::None,
                    1 => Activation::Relu,
                    _ => Activation::Sigmoid,
                },
            },
            _ => Instruction::StoreOutputs { first: *a, count: *b },
        }).collect();
        let p = Program { instrs: instrs.clone(), n_in: 0, n_out: 0 };
        prop_assert_eq!(Program::decode_stream(&p.encode()).unwrap(), instrs);
    }

    /// WDM decode rate is monotone non-increasing in bit width.
    #[test]
    fn wdm_rate_monotone(bits1 in 1u8..16, bits2 in 1u8..16) {
        let (lo, hi) = if bits1 <= bits2 { (bits1, bits2) } else { (bits2, bits1) };
        prop_assert!(ssm::wdm_decodes_per_cycle(16, lo) >= ssm::wdm_decodes_per_cycle(16, hi));
    }
}
