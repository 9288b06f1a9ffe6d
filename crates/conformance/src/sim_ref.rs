//! The simulator's lane-major reference walk: the oracle of the
//! `fc-sim-vs-reference-bits` leg.
//!
//! [`Accelerator`](cs_accel::exec::Accelerator) runs a group's PEs
//! together off a bit-packed neuron index and survivor-major weight
//! rows. This module walks the same program the plain way: each tile,
//! then each group, then each lane, over the ascending inputs whose
//! synapse index is set and whose value is `!= 0.0`, reading every
//! weight through the group's codebook, with one partial sum per
//! (tile, group) added into the output. It counts the same activity
//! and times it with the same structural limits and ping-pong
//! scheduler, so outputs must agree bit for bit (NaN as NaN) and every
//! [`SimStats`] field exactly.

use cs_accel::compiler::compile_layer;
use cs_accel::config::AccelConfig;
use cs_accel::isa::Instruction;
use cs_accel::pe::Activation;
use cs_accel::{nsm, ssm};
use cs_compress::format::SharedIndexLayer;
use cs_sim::{DramModel, OverlapScheduler, SimStats};

/// Runs `layers` in order on `input` with the paper's DRAM model, as an
/// accelerator built from `cfg` tiles them. Every layer must pass
/// `validate_layer` and chain into the next.
pub fn run_network(
    cfg: &AccelConfig,
    layers: &[(SharedIndexLayer, Activation)],
    input: &[f32],
) -> (Vec<f32>, SimStats) {
    let mut x = input.to_vec();
    let mut stats = SimStats::new();
    for (layer, activation) in layers {
        let (out, s) = run_layer(cfg, layer, *activation, &x);
        stats += s;
        x = out;
    }
    (x, stats)
}

fn run_layer(
    cfg: &AccelConfig,
    layer: &SharedIndexLayer,
    activation: Activation,
    input: &[f32],
) -> (Vec<f32>, SimStats) {
    let dram = DramModel::paper_default();
    let survivors = |group: usize, from: usize, to: usize| {
        layer.groups[group].index[from..to]
            .iter()
            .filter(|s| **s)
            .count()
    };
    let mut outputs = vec![0.0f32; layer.n_out];
    let mut stats = SimStats::new();
    let mut sched = OverlapScheduler::new();
    let mut pending_load = 0u64;
    for instr in compile_layer(layer, cfg, activation).instrs {
        match instr {
            Instruction::LoadNeurons { len, .. } => {
                let bytes = (len * cfg.neuron_bytes) as u64;
                stats.dram_read_bytes += bytes;
                stats.nbin_peak_bytes = stats.nbin_peak_bytes.max(bytes);
                pending_load += dram.stream_cycles(bytes);
            }
            Instruction::LoadIndex { len, .. } => {
                let bytes = len.div_ceil(8) as u64;
                stats.dram_read_bytes += bytes;
                stats.sib_bytes += bytes;
                pending_load += dram.stream_cycles(bytes);
            }
            Instruction::LoadSynapses { group, offset, len } => {
                let g = &layer.groups[group];
                let slice = survivors(group, offset, offset + len) * g.weights.len();
                let mut bytes = (slice * usize::from(layer.quant_bits)).div_ceil(8) as u64;
                if offset == 0 {
                    bytes += g.codebook.byte_size() as u64;
                }
                stats.dram_read_bytes += bytes;
                stats.sb_bytes += bytes;
                stats.wdm_decodes += slice as u64;
                pending_load += dram.stream_cycles(bytes);
            }
            Instruction::Compute { group, offset, len } => {
                let g = &layer.groups[group];
                let (x, index) = (&input[offset..offset + len], &g.index[offset..offset + len]);
                let base = survivors(group, 0, offset);
                for (lane, row) in g.weights.iter().enumerate() {
                    let (mut acc, mut pos) = (0.0f32, base);
                    for (&v, &synapse) in x.iter().zip(index) {
                        if synapse {
                            if v != 0.0 {
                                acc += v * g.codebook.value(row[pos]);
                            }
                            pos += 1;
                        }
                    }
                    outputs[group * layer.group_size + lane] += acc;
                }
                let selected = x
                    .iter()
                    .zip(index)
                    .filter(|(v, synapse)| **synapse && **v != 0.0)
                    .count();
                let lanes = g.weights.len();
                stats.macs += (selected * lanes) as u64;
                stats.nsm_selections += selected as u64;
                stats.ssm_selections += (selected * lanes) as u64;
                stats.nbin_bytes += (len * cfg.neuron_bytes) as u64;
                stats.nbout_bytes += (lanes * cfg.neuron_bytes) as u64;
                let scan = nsm::cycles(len, selected, cfg.nsm_window(), cfg.tm);
                let window_survivors = survivors(group, offset, offset + len);
                let supply = ssm::supply_cycles(window_survivors, cfg.tm, layer.quant_bits);
                let pefu = (selected.div_ceil(cfg.tm) as u64).max(1);
                sched.tile(pending_load, scan.max(supply).max(pefu), 0);
                pending_load = 0;
            }
            Instruction::Activate { group, activation } => {
                let first = group * layer.group_size;
                for o in &mut outputs[first..first + layer.groups[group].weights.len()] {
                    *o = activation.apply(*o);
                }
                sched.tile(pending_load, 1, 0);
                pending_load = 0;
            }
            Instruction::StoreOutputs { count, .. } => {
                let bytes = (count * cfg.neuron_bytes) as u64;
                stats.dram_write_bytes += bytes;
                stats.nbout_bytes += bytes;
                sched.tile(pending_load, 0, dram.stream_cycles(bytes));
                pending_load = 0;
            }
        }
    }
    stats.cycles = sched.finish() + dram.latency_cycles;
    stats.compute_busy_cycles = sched.compute_busy_cycles();
    stats.dram_stall_cycles = stats.cycles.saturating_sub(stats.compute_busy_cycles);
    (outputs, stats)
}
