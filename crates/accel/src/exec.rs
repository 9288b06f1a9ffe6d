//! Functional executor: interprets compiled programs against a
//! shared-index layer, producing real output values and activity
//! statistics.
//!
//! The executor walks the datapath the way the hardware does. A layer is
//! first *prepared*: each group's synapse index is packed 64 positions
//! per word, and its weights are WDM-decoded once into survivor-major
//! rows — per static survivor, one `f32` for each of the group's PEs,
//! which is what their SBs hold after decode. `LoadNeurons` packs the
//! resident tile's neuron index once. Each `Compute` runs the shared NSM
//! (Fig. 12) over it: the AND with the group's synapse index, a word at a
//! time. Every selected neuron is then broadcast to all the group's PEs:
//! it is multiplied by its survivor's row and the products are added,
//! in ascending input order, into one partial sum per PE. The PEFUs add
//! those sums into NBout once per (tile, group). Timing comes from the
//! structural throughput limits and the ping-pong DMA overlap; every
//! count comes from the same selection.
//!
//! There are two ways in, over one interpreter and one prepared form.
//! [`Accelerator::run_program`] (and [`Accelerator::run_layer`] /
//! [`Accelerator::run_network`] on top of it) validates and prepares the
//! layer on every call. [`Accelerator::compile_network`] does that once,
//! the way the paper's compiler emits a static program per layer ahead
//! of time, and [`Accelerator::run_compiled`] then runs the
//! [`CompiledNetwork`] through a reused [`SimScratch`] without
//! validating, compiling, preparing or allocating.

use cs_compress::format::SharedIndexLayer;
use cs_sim::{DramModel, OverlapScheduler, SimStats};
use cs_tensor::TensorError;

use crate::compiler::compile_layer;
use crate::config::AccelConfig;
use crate::error::AccelError;
use crate::isa::{Instruction, Program};
use crate::nsm::{self, NsmSelection};
use crate::pe::Activation;
use crate::ssm;

/// Checks that a shared-index layer is internally consistent: every
/// weight row matches its group's index popcount, dictionary indices fit
/// the codebook, and the groups cover no more than `n_out` outputs.
///
/// [`Accelerator::run_program`] runs this on every call.
/// [`Accelerator::compile_network`] runs it once per layer, which is how
/// a serving load rejects a malformed model before any request reaches
/// it, and why [`Accelerator::run_compiled`] need not run it again.
///
/// # Errors
///
/// Returns the first inconsistency found.
pub fn validate_layer(layer: &SharedIndexLayer) -> Result<(), AccelError> {
    for (gi, g) in layer.groups.iter().enumerate() {
        if g.index.len() != layer.n_in {
            return Err(AccelError::WindowOutOfRange {
                offset: 0,
                len: g.index.len(),
                n_in: layer.n_in,
            });
        }
        let survivors = g.survivors();
        for row in &g.weights {
            if row.len() != survivors {
                return Err(AccelError::MalformedGroup {
                    group: gi,
                    expected: survivors,
                    actual: row.len(),
                });
            }
            if let Some(&max) = row.iter().max() {
                if usize::from(max) >= g.codebook.len() {
                    return Err(AccelError::CodebookOverflow {
                        group: gi,
                        index: max,
                        entries: g.codebook.len(),
                    });
                }
            }
        }
        let top = gi * layer.group_size + g.weights.len();
        if top > layer.n_out {
            return Err(AccelError::OutputOverflow {
                needed: top,
                n_out: layer.n_out,
            });
        }
    }
    Ok(())
}

/// One output group as its PEs hold it once loaded: the shared synapse
/// index as bits, and the group's weights WDM-decoded once into
/// survivor-major rows, so a selected neuron's compact position names
/// one row that feeds every PE of the group.
#[derive(Debug)]
struct Group {
    /// The synapse index, 64 positions per word ([`nsm::pack_index`]).
    index: Vec<u64>,
    /// `before[w]`: the group's survivors in front of word `w` of
    /// `index` (one entry more than it has words).
    before: Vec<usize>,
    /// Output lanes (PEs) the group feeds.
    lanes: usize,
    /// Survivor `s`'s row is `weights[s * lanes..(s + 1) * lanes]`: the
    /// decoded weight of every lane at that synapse.
    weights: Vec<f32>,
    /// Bytes the group's codebook streams with its first synapse load.
    codebook_bytes: u64,
}

impl Group {
    /// Survivors in front of input `pos` (`pos <= n_in`): where a window
    /// starting there begins in the compact storage.
    fn survivors_before(&self, pos: usize) -> usize {
        let (w, r) = (pos / 64, pos % 64);
        let partial = match r {
            0 => 0,
            _ => (self.index[w] & ((1 << r) - 1)).count_ones() as usize,
        };
        self.before[w] + partial
    }
}

/// A layer in the one form the interpreter runs: validated, with every
/// group prepared. [`Accelerator::compile_network`] builds it once per
/// layer; [`Accelerator::run_program`] builds it on every call.
#[derive(Debug)]
struct PreparedLayer {
    n_in: usize,
    n_out: usize,
    group_size: usize,
    quant_bits: u8,
    groups: Vec<Group>,
}

impl PreparedLayer {
    /// Runs [`validate_layer`], then packs and decodes every group.
    fn new(layer: &SharedIndexLayer) -> Result<Self, AccelError> {
        validate_layer(layer)?;
        let groups = layer
            .groups
            .iter()
            .map(|g| {
                let index = nsm::pack_index(&g.index);
                let mut before = Vec::with_capacity(index.len() + 1);
                before.push(0);
                for w in &index {
                    before.push(before[before.len() - 1] + w.count_ones() as usize);
                }
                let lanes = g.weights.len();
                let lut = g.codebook.centroids();
                let mut weights = vec![0.0f32; before[index.len()] * lanes];
                for (lane, row) in g.weights.iter().enumerate() {
                    for (w, &q) in weights.iter_mut().skip(lane).step_by(lanes).zip(row) {
                        *w = lut[usize::from(q)];
                    }
                }
                Group {
                    index,
                    before,
                    lanes,
                    weights,
                    codebook_bytes: g.codebook.byte_size() as u64,
                }
            })
            .collect();
        Ok(PreparedLayer {
            n_in: layer.n_in,
            n_out: layer.n_out,
            group_size: layer.group_size,
            quant_bits: layer.quant_bits,
            groups,
        })
    }
}

/// One layer as [`CompiledNetwork`] keeps it.
#[derive(Debug)]
struct CompiledLayer {
    program: Program,
    layer: PreparedLayer,
}

/// A network validated and compiled once by
/// [`Accelerator::compile_network`], ready for any number of
/// [`Accelerator::run_compiled`] calls. The fields are private, so a
/// value of this type is proof that every layer passed
/// [`validate_layer`], consecutive layers chain, and every program was
/// compiled for its layer by the compiling accelerator's configuration.
#[derive(Debug)]
pub struct CompiledNetwork {
    layers: Vec<CompiledLayer>,
}

impl CompiledNetwork {
    /// Input width of the first layer (`0` for an empty network).
    pub fn n_in(&self) -> usize {
        self.layers.first().map_or(0, |c| c.layer.n_in)
    }
}

/// What the datapath holds while it walks one layer: the resident
/// tile's neuron index, the NSM's last selection and one partial sum
/// per PE of the group in flight.
#[derive(Debug, Default)]
struct Walk {
    neuron_bits: Vec<u64>,
    sel: NsmSelection,
    acc: Vec<f32>,
}

/// The buffers [`Accelerator::run_compiled`] reuses: layer outputs
/// ping-pong between two activation buffers, and the walk's buffers are
/// refilled tile by tile. Nothing is allocated once they have grown to
/// the widest layer.
#[derive(Debug, Default)]
pub struct SimScratch {
    front: Vec<f32>,
    back: Vec<f32>,
    walk: Walk,
}

/// Result of a functional run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Output neuron values (post-activation).
    pub outputs: Vec<f32>,
    /// Activity counters, with `cycles` from the overlap scheduler.
    pub stats: SimStats,
}

/// The top-level accelerator: configuration + DRAM model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accelerator {
    cfg: AccelConfig,
    dram: DramModel,
}

impl Accelerator {
    /// Creates an accelerator with the paper's DRAM model.
    pub fn new(cfg: AccelConfig) -> Self {
        Accelerator {
            cfg,
            dram: DramModel::paper_default(),
        }
    }

    /// The structural configuration.
    pub fn config(&self) -> &AccelConfig {
        &self.cfg
    }

    /// Compiles and functionally executes one layer on one input vector.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error when `input.len() != layer.n_in`,
    /// or a structural [`AccelError`] when the layer is malformed.
    pub fn run_layer(
        &self,
        layer: &SharedIndexLayer,
        input: &[f32],
        activation: Activation,
    ) -> Result<RunResult, AccelError> {
        let program = compile_layer(layer, &self.cfg, activation);
        self.run_program(&program, layer, input)
    }

    /// Executes a whole network: each layer's outputs (post-activation)
    /// feed the next layer. Returns the final outputs and the summed
    /// activity statistics.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error when consecutive layers disagree
    /// on width or the input does not fit the first layer.
    pub fn run_network(
        &self,
        layers: &[(SharedIndexLayer, Activation)],
        input: &[f32],
    ) -> Result<RunResult, AccelError> {
        let mut x = input.to_vec();
        let mut stats = SimStats::new();
        for (layer, activation) in layers {
            let run = self.run_layer(layer, &x, *activation)?;
            stats += run.stats;
            x = run.outputs;
        }
        Ok(RunResult { outputs: x, stats })
    }

    /// Validates and compiles every layer once: what
    /// [`Accelerator::run_network`] does on every call, kept for
    /// [`Accelerator::run_compiled`]. Programs are tiled for this
    /// accelerator's configuration, so run the network on an
    /// accelerator built from the same one.
    ///
    /// # Errors
    ///
    /// Returns the first layer's [`validate_layer`] error, or a
    /// length-mismatch error when consecutive layers disagree on width.
    pub fn compile_network(
        &self,
        layers: Vec<(SharedIndexLayer, Activation)>,
    ) -> Result<CompiledNetwork, AccelError> {
        let mut compiled: Vec<CompiledLayer> = Vec::with_capacity(layers.len());
        for (layer, activation) in layers {
            let prepared = PreparedLayer::new(&layer)?;
            if let Some(prev) = compiled.last() {
                if prev.layer.n_out != layer.n_in {
                    return Err(AccelError::Tensor(TensorError::LengthMismatch {
                        expected: layer.n_in,
                        actual: prev.layer.n_out,
                    }));
                }
            }
            compiled.push(CompiledLayer {
                program: compile_layer(&layer, &self.cfg, activation),
                layer: prepared,
            });
        }
        Ok(CompiledNetwork { layers: compiled })
    }

    /// Runs a compiled network on one input vector through `scratch`:
    /// the same interpreter, outputs and statistics as
    /// [`Accelerator::run_network`] on the same layers, with no
    /// validation, compilation or allocation left per call. The outputs
    /// are borrowed from `scratch`.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error when the input does not fit the
    /// first layer. The per-instruction operand checks of
    /// [`Accelerator::run_program`] still run.
    pub fn run_compiled<'s>(
        &self,
        net: &CompiledNetwork,
        input: &[f32],
        scratch: &'s mut SimScratch,
    ) -> Result<(&'s [f32], SimStats), AccelError> {
        if let Some(first) = net.layers.first() {
            if input.len() != first.layer.n_in {
                return Err(AccelError::Tensor(TensorError::LengthMismatch {
                    expected: first.layer.n_in,
                    actual: input.len(),
                }));
            }
        }
        let SimScratch { front, back, walk } = scratch;
        front.clear();
        front.extend_from_slice(input);
        let mut stats = SimStats::new();
        for c in &net.layers {
            back.clear();
            back.resize(c.layer.n_out, 0.0);
            stats += self.execute(&c.program, &c.layer, front, back, walk)?;
            std::mem::swap(front, back);
        }
        Ok((front, stats))
    }

    /// Executes a pre-compiled program.
    ///
    /// Every instruction operand is validated against the layer before
    /// the datapath runs, so a corrupted or mismatched program degrades
    /// to an [`AccelError`] instead of a panic — a hard requirement on
    /// the serving path, where a panic would take down a worker thread.
    ///
    /// # Errors
    ///
    /// Returns a length-mismatch error when `input.len() != program.n_in`,
    /// [`AccelError::ProgramMismatch`] when program and layer disagree on
    /// geometry, and the corresponding structural error when an
    /// instruction references groups or windows the layer doesn't have.
    pub fn run_program(
        &self,
        program: &Program,
        layer: &SharedIndexLayer,
        input: &[f32],
    ) -> Result<RunResult, AccelError> {
        if input.len() != program.n_in {
            return Err(AccelError::Tensor(TensorError::LengthMismatch {
                expected: program.n_in,
                actual: input.len(),
            }));
        }
        if program.n_in != layer.n_in {
            return Err(AccelError::ProgramMismatch {
                program_n_in: program.n_in,
                layer_n_in: layer.n_in,
            });
        }
        let layer = PreparedLayer::new(layer)?;
        let mut outputs = vec![0.0f32; layer.n_out];
        let mut walk = Walk::default();
        let stats = self.execute(program, &layer, input, &mut outputs, &mut walk)?;
        Ok(RunResult { outputs, stats })
    }

    /// The interpreter behind every entry point. `input` holds
    /// `layer.n_in` values and `outputs` `layer.n_out` zeros; `walk` is
    /// refilled by every `LoadNeurons` and `Compute`. Instruction
    /// operands are checked here, on every path. The walk itself is the
    /// one the module doc describes.
    fn execute(
        &self,
        program: &Program,
        layer: &PreparedLayer,
        input: &[f32],
        outputs: &mut [f32],
        walk: &mut Walk,
    ) -> Result<SimStats, AccelError> {
        let check_group = |group: usize| -> Result<&Group, AccelError> {
            layer.groups.get(group).ok_or(AccelError::GroupOutOfRange {
                group,
                groups: layer.groups.len(),
            })
        };
        let check_window = |offset: usize, len: usize| -> Result<(), AccelError> {
            if offset.checked_add(len).is_none_or(|end| end > layer.n_in) {
                return Err(AccelError::WindowOutOfRange {
                    offset,
                    len,
                    n_in: layer.n_in,
                });
            }
            Ok(())
        };

        let mut stats = SimStats::new();
        let mut sched = OverlapScheduler::new();
        let mut pending_load: u64 = 0;
        let mut nbin: &[f32] = &[];
        let mut nbin_offset = 0usize;

        for instr in &program.instrs {
            match *instr {
                Instruction::LoadNeurons { offset, len } => {
                    check_window(offset, len)?;
                    nbin = &input[offset..offset + len];
                    nbin_offset = offset;
                    nsm::pack_neurons(nbin, &mut walk.neuron_bits);
                    let bytes = (len * self.cfg.neuron_bytes) as u64;
                    stats.dram_read_bytes += bytes;
                    stats.nbin_peak_bytes = stats.nbin_peak_bytes.max(bytes);
                    pending_load += self.dram.stream_cycles(bytes);
                }
                Instruction::LoadIndex { group, len, .. } => {
                    check_group(group)?;
                    let bytes = len.div_ceil(8) as u64;
                    stats.dram_read_bytes += bytes;
                    stats.sib_bytes += bytes;
                    pending_load += self.dram.stream_cycles(bytes);
                }
                Instruction::LoadSynapses { group, offset, len } => {
                    let g = check_group(group)?;
                    check_window(offset, len)?;
                    let slice_survivors =
                        g.survivors_before(offset + len) - g.survivors_before(offset);
                    let dict_bits = slice_survivors * g.lanes * usize::from(layer.quant_bits);
                    let mut bytes = dict_bits.div_ceil(8) as u64;
                    if offset == 0 {
                        bytes += g.codebook_bytes;
                    }
                    stats.dram_read_bytes += bytes;
                    stats.sb_bytes += bytes;
                    stats.wdm_decodes += (slice_survivors * g.lanes) as u64;
                    pending_load += self.dram.stream_cycles(bytes);
                }
                Instruction::Compute { group, offset, len } => {
                    let g = check_group(group)?;
                    check_window(offset, len)?;
                    if offset != nbin_offset || len > nbin.len() {
                        return Err(AccelError::TileMismatch {
                            loaded: nbin_offset,
                            requested: offset,
                        });
                    }
                    let Walk {
                        neuron_bits,
                        sel,
                        acc,
                    } = &mut *walk;
                    nsm::select_bits(&nbin[..len], neuron_bits, &g.index, offset, sel);
                    let lanes = g.lanes;
                    if acc.len() < lanes {
                        acc.resize(lanes, 0.0);
                    }
                    let acc = &mut acc[..lanes];
                    acc.fill(0.0);
                    let rows = &g.weights[g.survivors_before(offset) * lanes..];
                    for (&v, &pos) in sel.neurons.iter().zip(&sel.indexing) {
                        let row = &rows[pos * lanes..(pos + 1) * lanes];
                        for (a, &w) in acc.iter_mut().zip(row) {
                            *a += v * w;
                        }
                    }
                    let first = group * layer.group_size;
                    for (o, &a) in outputs[first..first + lanes].iter_mut().zip(acc.iter()) {
                        *o += a;
                    }
                    let selected = sel.neurons.len();
                    stats.macs += (selected * lanes) as u64;
                    stats.nsm_selections += selected as u64;
                    stats.ssm_selections += (selected * lanes) as u64;
                    stats.nbin_bytes += (len * self.cfg.neuron_bytes) as u64;
                    stats.nbout_bytes += (lanes * self.cfg.neuron_bytes) as u64;

                    let scan = nsm::cycles(len, selected, self.cfg.nsm_window(), self.cfg.tm);
                    let supply =
                        ssm::supply_cycles(sel.static_survivors, self.cfg.tm, layer.quant_bits);
                    let pefu = (selected.div_ceil(self.cfg.tm) as u64).max(1);
                    let compute = scan.max(supply).max(pefu);
                    sched.tile(pending_load, compute, 0);
                    pending_load = 0;
                }
                Instruction::Activate { group, activation } => {
                    let g = check_group(group)?;
                    let first = group * layer.group_size;
                    for o in &mut outputs[first..first + g.lanes] {
                        *o = activation.apply(*o);
                    }
                    sched.tile(pending_load, 1, 0);
                    pending_load = 0;
                }
                Instruction::StoreOutputs { count, .. } => {
                    let bytes = (count * self.cfg.neuron_bytes) as u64;
                    stats.dram_write_bytes += bytes;
                    stats.nbout_bytes += bytes;
                    sched.tile(pending_load, 0, self.dram.stream_cycles(bytes));
                    pending_load = 0;
                }
            }
        }
        stats.cycles = sched.finish() + self.dram.latency_cycles;
        // Busy/stall split for the telemetry layer: cycles the pipeline
        // computed vs. cycles exposed waiting on memory (including the
        // fixed DRAM latency, which no compute hides).
        stats.compute_busy_cycles = sched.compute_busy_cycles();
        stats.dram_stall_cycles = stats.cycles.saturating_sub(stats.compute_busy_cycles);
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_nn::init::{local_convergence, ConvergenceProfile};
    use cs_sparsity::coarse::{self, CoarseConfig, PruneMetric};
    use cs_tensor::Shape;

    fn layer(n_in: usize, n_out: usize, density: f64, seed: u64) -> SharedIndexLayer {
        let w = local_convergence(
            Shape::d2(n_in, n_out),
            &ConvergenceProfile::with_target_density(density).with_block(16),
            seed,
        );
        let cfg = CoarseConfig::fc(16, 16, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, density).unwrap();
        SharedIndexLayer::from_fc("t", &w, &mask, 16, 8).unwrap()
    }

    fn input(n: usize, zero_every: usize) -> Vec<f32> {
        (0..n)
            .map(|i| {
                if zero_every > 0 && i % zero_every == 0 {
                    0.0
                } else {
                    ((i * 7) % 13) as f32 * 0.1 - 0.6
                }
            })
            .collect()
    }

    #[test]
    fn functional_output_matches_reference() {
        let l = layer(128, 32, 0.25, 5);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(128, 3);
        let run = acc.run_layer(&l, &x, Activation::None).unwrap();
        let want = l.output(&x);
        assert_eq!(run.outputs.len(), want.len());
        for (got, want) in run.outputs.iter().zip(&want) {
            assert!((got - want).abs() < 1e-4, "got {got} want {want}");
        }
    }

    #[test]
    fn tiled_execution_matches_untiled_reference() {
        // n_in larger than one NBin half (2048) forces multiple tiles.
        let l = layer(4096, 16, 0.2, 9);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(4096, 4);
        let run = acc.run_layer(&l, &x, Activation::Relu).unwrap();
        let want: Vec<f32> = l.output(&x).iter().map(|v| v.max(0.0)).collect();
        for (got, want) in run.outputs.iter().zip(&want) {
            assert!((got - want).abs() < 1e-3, "got {got} want {want}");
        }
    }

    #[test]
    fn dynamic_zeros_reduce_macs() {
        let l = layer(256, 32, 0.25, 7);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let dense_in = input(256, 0);
        let sparse_in = input(256, 2); // half the inputs zero
        let dense_run = acc.run_layer(&l, &dense_in, Activation::None).unwrap();
        let sparse_run = acc.run_layer(&l, &sparse_in, Activation::None).unwrap();
        assert!(
            sparse_run.stats.macs < dense_run.stats.macs * 3 / 4,
            "sparse {} vs dense {}",
            sparse_run.stats.macs,
            dense_run.stats.macs
        );
    }

    #[test]
    fn static_sparsity_reduces_macs_vs_dense_index() {
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(256, 0);
        let sparse = layer(256, 32, 0.125, 3);
        let dense = layer(256, 32, 1.0, 3);
        let rs = acc.run_layer(&sparse, &x, Activation::None).unwrap();
        let rd = acc.run_layer(&dense, &x, Activation::None).unwrap();
        assert!(rs.stats.macs * 4 < rd.stats.macs);
        assert!(rs.stats.cycles < rd.stats.cycles);
    }

    #[test]
    fn stats_account_dram_traffic() {
        let l = layer(256, 32, 0.25, 11);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(256, 3);
        let run = acc.run_layer(&l, &x, Activation::None).unwrap();
        // Input neurons + indexes + weights were read; outputs written.
        assert!(run.stats.dram_read_bytes >= (256 * 2) as u64);
        assert_eq!(run.stats.dram_write_bytes, 64);
        assert!(run.stats.cycles > 0);
        assert!(run.stats.wdm_decodes > 0);
    }

    #[test]
    fn stats_split_cycles_into_compute_and_dram_stall() {
        let l = layer(256, 32, 0.25, 11);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(256, 3);
        let run = acc.run_layer(&l, &x, Activation::None).unwrap();
        let s = run.stats;
        assert!(s.compute_busy_cycles > 0);
        assert_eq!(
            s.compute_busy_cycles + s.dram_stall_cycles,
            s.cycles,
            "busy + stall covers the elapsed cycles exactly"
        );
        // One 256-neuron layer fits a single NBin tile.
        assert_eq!(s.nbin_peak_bytes, (256 * acc.config().neuron_bytes) as u64);
    }

    #[test]
    fn network_breakdown_accumulates_and_occupancy_peaks() {
        let l1 = layer(128, 64, 0.3, 3);
        let l2 = layer(64, 32, 0.4, 4);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(128, 5);
        let run = acc
            .run_network(
                &[
                    (l1.clone(), Activation::Relu),
                    (l2.clone(), Activation::None),
                ],
                &x,
            )
            .unwrap();
        let solo1 = acc.run_layer(&l1, &x, Activation::Relu).unwrap();
        assert!(run.stats.compute_busy_cycles > solo1.stats.compute_busy_cycles);
        assert_eq!(
            run.stats.nbin_peak_bytes, solo1.stats.nbin_peak_bytes,
            "the wider first layer sets the occupancy peak"
        );
    }

    #[test]
    fn network_chains_layers_and_matches_reference() {
        let l1 = layer(128, 64, 0.3, 3);
        let l2 = layer(64, 32, 0.4, 4);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(128, 5);
        let run = acc
            .run_network(
                &[
                    (l1.clone(), Activation::Relu),
                    (l2.clone(), Activation::None),
                ],
                &x,
            )
            .unwrap();
        // Reference: chain the shared-index computes with the same
        // activation between.
        let mid: Vec<f32> = l1.output(&x).iter().map(|v| v.max(0.0)).collect();
        let want = l2.output(&mid);
        assert_eq!(run.outputs.len(), 32);
        for (got, want) in run.outputs.iter().zip(&want) {
            assert!((got - want).abs() < 1e-3, "{got} vs {want}");
        }
        // Stats accumulated across both layers.
        let solo1 = acc.run_layer(&l1, &x, Activation::Relu).unwrap();
        assert!(run.stats.macs > solo1.stats.macs);
        assert!(run.stats.cycles > solo1.stats.cycles);
    }

    #[test]
    fn network_relu_creates_dynamic_sparsity_for_next_layer() {
        // The ReLU between layers zeroes ~half the activations, so layer
        // 2 executes fewer MACs than it would on a dense input.
        let l1 = layer(128, 64, 0.5, 7);
        let l2 = layer(64, 32, 0.5, 8);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(128, 0);
        let run = acc
            .run_network(
                &[
                    (l1.clone(), Activation::Relu),
                    (l2.clone(), Activation::None),
                ],
                &x,
            )
            .unwrap();
        let mid: Vec<f32> = l1.output(&x).iter().map(|v| v.max(0.0)).collect();
        let zeros = mid.iter().filter(|v| **v == 0.0).count();
        assert!(zeros > 0, "ReLU produced no zeros");
        let dense_mid: Vec<f32> = mid.iter().map(|v| v + 1.0).collect();
        let sparse_l2 = acc.run_layer(&l2, &mid, Activation::None).unwrap();
        let dense_l2 = acc.run_layer(&l2, &dense_mid, Activation::None).unwrap();
        assert!(sparse_l2.stats.macs < dense_l2.stats.macs);
        let _ = run;
    }

    #[test]
    fn input_length_validated() {
        let l = layer(64, 16, 0.5, 2);
        let acc = Accelerator::new(AccelConfig::paper_default());
        assert!(acc.run_layer(&l, &[0.0; 63], Activation::None).is_err());
    }

    #[test]
    fn corrupted_program_degrades_to_error_not_panic() {
        use crate::error::AccelError;
        let l = layer(64, 16, 0.5, 2);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(64, 0);
        let mut program = compile_layer(&l, acc.config(), Activation::None);

        // Group index past the layer's groups.
        program.instrs[1] = Instruction::LoadIndex {
            group: 99,
            offset: 0,
            len: 64,
        };
        assert!(matches!(
            acc.run_program(&program, &l, &x),
            Err(AccelError::GroupOutOfRange { group: 99, .. })
        ));

        // Window past the input width.
        program.instrs[1] = Instruction::LoadNeurons {
            offset: 32,
            len: 64,
        };
        assert!(matches!(
            acc.run_program(&program, &l, &x),
            Err(AccelError::WindowOutOfRange { .. })
        ));

        // Compute against a tile that is not resident in NBin.
        let good = compile_layer(&l, acc.config(), Activation::None);
        let mut skewed = good.clone();
        skewed.instrs.insert(
            0,
            Instruction::Compute {
                group: 0,
                offset: 16,
                len: 16,
            },
        );
        assert!(matches!(
            acc.run_program(&skewed, &l, &x),
            Err(AccelError::TileMismatch { .. })
        ));
    }

    #[test]
    fn program_layer_geometry_mismatch_is_an_error() {
        use crate::error::AccelError;
        let l64 = layer(64, 16, 0.5, 2);
        let l128 = layer(128, 16, 0.5, 2);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let program = compile_layer(&l128, acc.config(), Activation::None);
        let x = input(128, 0);
        assert!(matches!(
            acc.run_program(&program, &l64, &x),
            Err(AccelError::ProgramMismatch { .. })
        ));
    }

    #[test]
    fn malformed_layer_rejected_by_validation() {
        use crate::error::AccelError;
        let mut l = layer(64, 16, 0.5, 2);
        // Truncate one weight row so it no longer matches the index.
        l.groups[0].weights[3].pop();
        assert!(matches!(
            validate_layer(&l),
            Err(AccelError::MalformedGroup { group: 0, .. })
        ));
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(64, 0);
        assert!(acc.run_layer(&l, &x, Activation::None).is_err());

        // Dictionary index beyond the codebook LUT.
        let mut l2 = layer(64, 16, 0.5, 3);
        if let Some(w) = l2.groups[0].weights[0].first_mut() {
            *w = u16::MAX;
        }
        assert!(matches!(
            validate_layer(&l2),
            Err(AccelError::CodebookOverflow { group: 0, .. })
        ));

        // Compiling a network runs the same validation once, wherever
        // in the chain the bad layer sits.
        let good = layer(16, 64, 0.5, 4);
        assert!(matches!(
            acc.compile_network(vec![(good, Activation::Relu), (l, Activation::None)]),
            Err(AccelError::MalformedGroup { group: 0, .. })
        ));
        assert!(matches!(
            acc.compile_network(vec![(l2, Activation::None)]),
            Err(AccelError::CodebookOverflow { group: 0, .. })
        ));
    }

    /// Widths 128 → 64 → 32 at the seeds the other network tests use.
    fn two_layer_net() -> Vec<(SharedIndexLayer, Activation)> {
        vec![
            (layer(128, 64, 0.3, 3), Activation::Relu),
            (layer(64, 32, 0.4, 4), Activation::None),
        ]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn compiled_network_matches_run_network_through_a_reused_scratch() {
        let acc = Accelerator::new(AccelConfig::paper_default());
        let small = two_layer_net();
        // Wider than `small` in every layer, and tiled: 4096 inputs are
        // two NBin tiles.
        let wide = vec![
            (layer(4096, 256, 0.2, 9), Activation::Relu),
            (layer(256, 128, 0.5, 10), Activation::None),
        ];
        let small_net = acc.compile_network(small.clone()).unwrap();
        let wide_net = acc.compile_network(wide.clone()).unwrap();
        let mut scratch = SimScratch::default();
        let x = input(128, 5);
        let wx = input(4096, 3);
        let want = acc.run_network(&small, &x).unwrap();
        let wide_want = acc.run_network(&wide, &wx).unwrap();
        // Small, then wide, then small again: the second small run
        // starts from buffers holding the wide run's values.
        for (net, x, want) in [
            (&small_net, &x, &want),
            (&wide_net, &wx, &wide_want),
            (&small_net, &x, &want),
        ] {
            let (outputs, stats) = acc.run_compiled(net, x, &mut scratch).unwrap();
            assert_eq!(bits(outputs), bits(&want.outputs));
            assert_eq!(stats, want.stats);
        }
        assert_eq!(small_net.n_in(), 128);
    }

    #[test]
    fn compiled_network_rejects_a_broken_chain_and_a_wrong_input() {
        let acc = Accelerator::new(AccelConfig::paper_default());
        let mut net = two_layer_net();
        net.swap(0, 1);
        assert!(matches!(
            acc.compile_network(net),
            Err(AccelError::Tensor(TensorError::LengthMismatch {
                expected: 128,
                actual: 32
            }))
        ));
        let net = acc.compile_network(two_layer_net()).unwrap();
        let mut scratch = SimScratch::default();
        assert!(matches!(
            acc.run_compiled(&net, &input(127, 0), &mut scratch),
            Err(AccelError::Tensor(TensorError::LengthMismatch {
                expected: 128,
                actual: 127
            }))
        ));
    }

    #[test]
    fn any_tiling_of_the_input_computes_the_same_layer() {
        // Windows that are not NBin tiles: the compact-storage offsets
        // must follow whatever boundaries the program uses.
        let l = layer(64, 32, 0.5, 6);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(64, 3);
        let mut instrs = Vec::new();
        for (offset, len) in [(0, 23), (23, 40), (63, 1)] {
            instrs.push(Instruction::LoadNeurons { offset, len });
            for group in 0..l.groups.len() {
                instrs.push(Instruction::LoadSynapses { group, offset, len });
                instrs.push(Instruction::Compute { group, offset, len });
            }
        }
        let program = Program {
            instrs,
            n_in: 64,
            n_out: 32,
        };
        let run = acc.run_program(&program, &l, &x).unwrap();
        for (got, want) in run.outputs.iter().zip(&l.output(&x)) {
            assert!((got - want).abs() < 1e-4, "got {got} want {want}");
        }
        let whole = acc.run_layer(&l, &x, Activation::None).unwrap();
        assert_eq!(run.stats.wdm_decodes, whole.stats.wdm_decodes);
    }

    /// A layer of `n_out` outputs in groups of `group_size` (the last
    /// one partial), each group with its own seeded index (about 60 %
    /// survivors, in runs) and a codebook of `2^bits` entries.
    fn raw_layer(
        n_in: usize,
        n_out: usize,
        group_size: usize,
        bits: u8,
        seed: u64,
    ) -> SharedIndexLayer {
        use cs_compress::format::OutputGroup;
        use cs_quant::Codebook;
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            state >> 33
        };
        let entries = 1usize << bits;
        let groups = (0..n_out.div_ceil(group_size))
            .map(|gi| {
                let lanes = group_size.min(n_out - gi * group_size);
                let index: Vec<bool> = (0..n_in)
                    .map(|i| (i / 3 + gi) % 5 != 0 && next() % 4 != 0)
                    .collect();
                let survivors = index.iter().filter(|b| **b).count();
                let codebook = Codebook::new(
                    (0..entries)
                        .map(|_| (next() % 2001) as f32 / 1000.0 - 1.0)
                        .collect(),
                );
                let weights = (0..lanes)
                    .map(|_| {
                        (0..survivors)
                            .map(|_| (next() % entries as u64) as u16)
                            .collect()
                    })
                    .collect();
                OutputGroup {
                    index,
                    weights,
                    codebook,
                }
            })
            .collect();
        SharedIndexLayer {
            name: "raw".into(),
            n_in,
            n_out,
            group_size,
            quant_bits: bits,
            groups,
        }
    }

    /// The lane-major walk this interpreter replaced: for each
    /// `Compute`, each lane sums the products of the ascending inputs
    /// that have `index && v != 0.0` into one partial sum, then adds it
    /// into the output. Returns the outputs, the MACs and the WDM
    /// decodes.
    fn lane_major(program: &Program, l: &SharedIndexLayer, x: &[f32]) -> (Vec<f32>, u64, u64) {
        let (mut out, mut macs, mut decodes) = (vec![0.0f32; l.n_out], 0u64, 0u64);
        let survivors = |g: &cs_compress::format::OutputGroup, a: usize, b: usize| {
            g.index[a..b].iter().filter(|s| **s).count()
        };
        for instr in &program.instrs {
            match *instr {
                Instruction::LoadSynapses { group, offset, len } => {
                    let g = &l.groups[group];
                    decodes += (survivors(g, offset, offset + len) * g.weights.len()) as u64;
                }
                Instruction::Compute { group, offset, len } => {
                    let g = &l.groups[group];
                    for (lane, row) in g.weights.iter().enumerate() {
                        let (mut acc, mut pos) = (0.0f32, survivors(g, 0, offset));
                        let window = offset..offset + len;
                        for (&v, &synapse) in x[window.clone()].iter().zip(&g.index[window]) {
                            if synapse {
                                if v != 0.0 {
                                    acc += v * g.codebook.value(row[pos]);
                                    macs += 1;
                                }
                                pos += 1;
                            }
                        }
                        out[group * l.group_size + lane] += acc;
                    }
                }
                Instruction::Activate { group, activation } => {
                    let first = group * l.group_size;
                    for o in &mut out[first..first + l.groups[group].weights.len()] {
                        *o = activation.apply(*o);
                    }
                }
                _ => {}
            }
        }
        (out, macs, decodes)
    }

    /// Bits with every NaN read as one NaN.
    fn nan_bits(v: &[f32]) -> Vec<u32> {
        v.iter()
            .map(|x| {
                if x.is_nan() {
                    f32::NAN.to_bits()
                } else {
                    x.to_bits()
                }
            })
            .collect()
    }

    /// Inputs that hit every case of the neuron index: `±0.0`, NaN,
    /// `±inf`, subnormals and ordinary values, in a seeded order.
    fn edge_input(n: usize, seed: u64) -> Vec<f32> {
        const EDGES: [f32; 8] = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            1e-40,
            -3e-42,
            0.75,
        ];
        (0..n as u64)
            .map(|i| {
                let k = (i * 31 + seed * 17) % 23;
                match EDGES.get(k as usize) {
                    Some(&v) => v,
                    None => k as f32 * 0.125 - 1.5,
                }
            })
            .collect()
    }

    #[test]
    fn bit_packed_walk_matches_the_lane_major_reference_off_the_paper_grid() {
        // 100-neuron NBin tiles: no tile boundary after the first sits on
        // a word boundary.
        let odd = AccelConfig {
            nbin_bytes: 2 * 100 * 2,
            ..AccelConfig::paper_default()
        };
        let mut scratch = SimScratch::default();
        for (case, &(n_in, n_out, group_size, bits)) in [
            (250, 1, 16, 4),
            (250, 17, 16, 6),
            (250, 48, 16, 8),
            (130, 37, 12, 4),
            (64, 5, 1, 6),
        ]
        .iter()
        .enumerate()
        {
            let mut l = raw_layer(n_in, n_out, group_size, bits, case as u64 + 1);
            // A group whose synapses were all pruned.
            if let Some(g) = l.groups.get_mut(1) {
                g.index.fill(false);
                g.weights.iter_mut().for_each(Vec::clear);
            }
            let inputs = [input(n_in, 3), edge_input(n_in, case as u64)];
            // Windows at odd offsets, one of them computing only a prefix
            // of the tile it loaded.
            let mut instrs = Vec::new();
            let cuts = [0, 1, 37, 64, 101, 129, n_in];
            for w in cuts.windows(2).filter(|w| w[0] < w[1] && w[1] <= n_in) {
                let (offset, len) = (w[0], w[1] - w[0]);
                instrs.push(Instruction::LoadNeurons { offset, len });
                for group in 0..l.groups.len() {
                    instrs.push(Instruction::LoadSynapses { group, offset, len });
                    let len = if offset == 37 { len - 5 } else { len };
                    instrs.push(Instruction::Compute { group, offset, len });
                }
            }
            let windows = Program {
                instrs,
                n_in,
                n_out,
            };
            for (ci, x) in inputs.iter().enumerate() {
                for acc in [
                    Accelerator::new(odd),
                    Accelerator::new(AccelConfig::paper_default()),
                ] {
                    let tiled = compile_layer(&l, acc.config(), Activation::Relu);
                    let net = acc
                        .compile_network(vec![(l.clone(), Activation::Relu)])
                        .unwrap();
                    let (compiled, compiled_stats) =
                        acc.run_compiled(&net, x, &mut scratch).unwrap();
                    for (program, got, stats) in [
                        (&windows, acc.run_program(&windows, &l, x).unwrap(), None),
                        (
                            &tiled,
                            acc.run_layer(&l, x, Activation::Relu).unwrap(),
                            Some(compiled_stats),
                        ),
                    ] {
                        let what = format!(
                            "case {case} input {ci} tile {}",
                            acc.config().nbin_neurons()
                        );
                        let (want, macs, decodes) = lane_major(program, &l, x);
                        assert_eq!(nan_bits(&got.outputs), nan_bits(&want), "{what}");
                        assert_eq!(got.stats.macs, macs, "{what}");
                        assert_eq!(got.stats.ssm_selections, macs, "{what}");
                        assert_eq!(got.stats.wdm_decodes, decodes, "{what}");
                        if let Some(stats) = stats {
                            assert_eq!(nan_bits(compiled), nan_bits(&want), "{what}");
                            assert_eq!(stats, got.stats, "{what}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn relu_applied_at_activate() {
        let l = layer(64, 16, 0.5, 2);
        let acc = Accelerator::new(AccelConfig::paper_default());
        let x = input(64, 0);
        let run = acc.run_layer(&l, &x, Activation::Relu).unwrap();
        assert!(run.outputs.iter().all(|v| *v >= 0.0));
    }
}
