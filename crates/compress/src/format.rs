//! Compact shared-index storage — the on-device format of Section V-A.
//!
//! After coarse-grained pruning, all output neurons inside a block group
//! share the same connection topology, so one synapse index (one bit per
//! input position) serves a whole group of `B_out` outputs — in hardware,
//! the 16 PEs fed by the shared NSM. Weights are stored compactly (only
//! surviving synapses) as quantized dictionary indices, with a per-group
//! codebook that the PE's Weight Decoder Module (WDM) holds as a LUT.
//!
//! Convolutional layers lower to the same structure: each output-map
//! group shares an index over the `(n_fin, kx, ky)` window positions, and
//! one "output" here is one output feature map evaluated at a spatial
//! position (exactly how the accelerator time-shares its PEs).
//!
//! [`SharedIndexLayer::encode_streams`] is the one encoder of the stored
//! bytes: the model registry writes its sections, and the compression
//! pipeline's Table IV counts their lengths.

use cs_coding::bilevel::{self, BiLevelImage};
use cs_coding::bits::{BitReader, BitWriter};
use cs_coding::{huffman, CodingError};
use cs_quant::{binary16, kmeans_1d, Codebook};
use cs_sparsity::structured::{satisfies_pattern, survivors_per_lane};
use cs_sparsity::{Mask, PruneMode};
use cs_tensor::{Shape, Tensor, TensorError};

use crate::CompressError;

/// Flat offset of lowered input position `p` and output `o` in an FC
/// `(n_in, n_out)` or conv `(n_fin, n_fout, kx, ky)` tensor: a conv
/// input position is `p = (f * kx + x) * ky + y` (an FC layer is the
/// `kx = ky = 1` case).
fn lowering(shape: &Shape) -> impl Fn(usize, usize) -> usize {
    let (fo, kx, ky) = match *shape.dims() {
        [_, fo, kx, ky] => (fo, kx, ky),
        [_, n_out] => (n_out, 1, 1),
        _ => (1, 1, 1),
    };
    move |p, o| match kx * ky {
        1 => p * fo + o,
        kk => ((p / kk * fo + o) * kx + p % kk / ky) * ky + p % ky,
    }
}

/// Entries in a group's codebook, derived (never stored) from its
/// `weights` surviving weights: `2^quant_bits` (bits capped at 12), at
/// most one per two weights, so a 16-bit LUT takes ≤ a byte per weight.
pub fn codebook_len(quant_bits: u8, weights: usize) -> usize {
    (1usize << quant_bits.min(12)).min((weights / 2).max(1))
}

/// One group of output neurons sharing a synapse index.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutputGroup {
    /// Shared synapse index: one bit per input position, `true` when the
    /// connection survives (broadcast by the NSM).
    pub index: Vec<bool>,
    /// Per output neuron: quantized weights for the surviving positions,
    /// in input order. All rows have length `index.count_ones()`.
    pub weights: Vec<Vec<u16>>,
    /// The group's weight codebook (the WDM LUT contents).
    pub codebook: Codebook,
}

impl OutputGroup {
    /// Surviving synapses per output neuron.
    pub fn survivors(&self) -> usize {
        self.index.iter().filter(|b| **b).count()
    }
}

/// A layer stored in the accelerator's compact shared-index format.
#[derive(Debug, Clone, PartialEq)]
pub struct SharedIndexLayer {
    /// Layer name.
    pub name: String,
    /// Input positions per output computation (FC: `n_in`; conv:
    /// `n_fin · kx · ky`).
    pub n_in: usize,
    /// Total output neurons (FC) or output feature maps (conv).
    pub n_out: usize,
    /// Outputs per shared index (`B_out`; the hardware shares across
    /// `T_n = 16` PEs).
    pub group_size: usize,
    /// Dictionary width in bits (decoded by the WDM).
    pub quant_bits: u8,
    /// The output groups in order.
    pub groups: Vec<OutputGroup>,
}

impl SharedIndexLayer {
    /// Builds the format from a fully-connected weight matrix
    /// `(n_in, n_out)` and its block-aligned mask.
    ///
    /// # Errors
    ///
    /// Returns an error when the mask is not shared within each output
    /// group (i.e. pruning was not coarse over `group_size` outputs) or
    /// shapes disagree.
    pub fn from_fc(
        name: impl Into<String>,
        weights: &Tensor,
        mask: &Mask,
        group_size: usize,
        quant_bits: u8,
    ) -> Result<Self, CompressError> {
        Self::build(name.into(), weights, mask, group_size, quant_bits, 2)
    }

    /// Builds the format from convolutional weights
    /// `(n_fin, n_fout, kx, ky)` and a mask that is coarse over
    /// `group_size` output maps (the paper's `(1, N, 1, 1)` blocks).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SharedIndexLayer::from_fc`].
    pub fn from_conv(
        name: impl Into<String>,
        weights: &Tensor,
        mask: &Mask,
        group_size: usize,
        quant_bits: u8,
    ) -> Result<Self, CompressError> {
        Self::build(name.into(), weights, mask, group_size, quant_bits, 4)
    }

    /// Builds the format from an FC (`rank` 2) or conv (`rank` 4) tensor
    /// and its mask, lowered to input positions by [`lowering`].
    fn build(
        name: String,
        weights: &Tensor,
        mask: &Mask,
        group_size: usize,
        quant_bits: u8,
        rank: usize,
    ) -> Result<Self, CompressError> {
        if weights.shape().rank() != rank {
            return Err(CompressError::Tensor(TensorError::RankMismatch {
                expected: rank,
                actual: weights.shape().rank(),
                op: "shared-index layer",
            }));
        }
        let n_out = weights.shape().dim(1);
        let n_in = weights.len() / n_out.max(1);
        let at = lowering(weights.shape());
        let (bits, w) = (mask.bits(), weights.as_slice());
        let group_size = group_size.max(1).min(n_out);
        let mut groups = Vec::with_capacity(n_out.div_ceil(group_size));
        for g0 in (0..n_out).step_by(group_size) {
            let g1 = (g0 + group_size).min(n_out);
            // Shared index from the first output; verify the rest agree.
            let index: Vec<bool> = (0..n_in).map(|i| bits[at(i, g0)]).collect();
            for o in g0 + 1..g1 {
                for (i, bit) in index.iter().enumerate() {
                    if bits[at(i, o)] != *bit {
                        return Err(CompressError::Coding(cs_coding::CodingError::InvalidInput(
                            format!("mask not shared within output group at ({i}, {o})"),
                        )));
                    }
                }
            }
            // Gather surviving weights for the group and quantize with a
            // per-group codebook (local quantization at group scope).
            let mut all: Vec<f32> = Vec::new();
            for o in g0..g1 {
                for (i, bit) in index.iter().enumerate() {
                    if *bit {
                        all.push(w[at(i, o)]);
                    }
                }
            }
            let k = codebook_len(quant_bits, all.len());
            let mut km = kmeans_1d(&all, k, 20);
            // k-means finds fewer than `k` centroids only in a group of
            // fewer distinct weights (none when fully pruned); the LUT's
            // other slots hold entries no index addresses. Every entry is
            // rounded to the LUT's binary16 once, here.
            km.centroids.resize(k, 0.0);
            let codebook = Codebook::new(km.centroids.into_iter().map(binary16::round).collect());
            let per_out = all.len() / (g1 - g0);
            let weights: Vec<Vec<u16>> = (0..g1 - g0)
                .map(|oi| km.assignments[oi * per_out..(oi + 1) * per_out].to_vec())
                .collect();
            groups.push(OutputGroup {
                index,
                weights,
                codebook,
            });
        }
        Ok(SharedIndexLayer {
            name,
            n_in,
            n_out,
            group_size,
            quant_bits,
            groups,
        })
    }

    /// Fraction of surviving synapses.
    pub fn density(&self) -> f64 {
        let total = self.n_in * self.n_out;
        if total == 0 {
            return 0.0;
        }
        self.surviving() as f64 / total as f64
    }

    /// Total surviving synapse count.
    pub fn surviving(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.survivors() * g.weights.len())
            .sum()
    }

    /// Index storage in bits: one bit per input position per *group*
    /// (shared across the group's outputs).
    pub fn index_bits(&self) -> usize {
        self.groups.len() * self.n_in
    }

    /// On-device weight storage in bytes, Table IV's `W_q`: the dictionary
    /// at `quant_bits` per surviving weight plus the 16-bit LUTs
    /// ([`SharedIndexLayer::lut_bytes`]), the image the budgets count.
    pub fn weight_bytes(&self) -> usize {
        (self.surviving() * usize::from(self.quant_bits)).div_ceil(8) + self.lut_bytes()
    }

    /// The codebooks' 16-bit LUTs in bytes ([`Codebook::byte_size`]):
    /// exactly the codebook section the registry stores.
    pub fn lut_bytes(&self) -> usize {
        self.groups.iter().map(|g| g.codebook.byte_size()).sum()
    }

    /// Summed squared error between the decoded weights and `weights`,
    /// the FC or conv tensor the layer was built from, over every
    /// surviving position.
    ///
    /// # Panics
    ///
    /// Panics when `weights` is smaller than the layer's geometry.
    pub fn squared_error(&self, weights: &Tensor) -> f64 {
        let (at, w) = (lowering(weights.shape()), weights.as_slice());
        let mut err = 0.0f64;
        let mut o = 0usize;
        for g in &self.groups {
            let positions: Vec<usize> = (0..self.n_in).filter(|&p| g.index[p]).collect();
            for row in &g.weights {
                for (&p, &q) in positions.iter().zip(row) {
                    err += f64::from(w[at(p, o)] - g.codebook.value(q)).powi(2);
                }
                o += 1;
            }
        }
        err
    }

    /// Reference computation: dense input (length `n_in`) to all outputs,
    /// using only surviving synapses. This is the functional ground truth
    /// the accelerator simulator is validated against.
    ///
    /// # Panics
    ///
    /// Panics when `input.len() != n_in`.
    pub fn output(&self, input: &[f32]) -> Vec<f32> {
        assert_eq!(input.len(), self.n_in, "input length mismatch");
        let mut out = Vec::with_capacity(self.n_out);
        for g in &self.groups {
            let selected: Vec<usize> = g
                .index
                .iter()
                .enumerate()
                .filter(|(_, b)| **b)
                .map(|(i, _)| i)
                .collect();
            for lane in &g.weights {
                let mut acc = 0.0f32;
                for (pos, &i) in selected.iter().enumerate() {
                    acc += g.codebook.value(lane[pos]) * input[i];
                }
                out.push(acc);
            }
        }
        out
    }
}

/// The entropy-coded sections of a [`SharedIndexLayer`]: the bytes the
/// model registry stores and Table IV counts. The registry stores the
/// codebooks between them, each entry as its 16 bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedStreams {
    /// The shared indexes as one bilevel-coded image: one row per output
    /// group, one column per input position (`I_c`).
    pub index: Vec<u8>,
    /// Every weight index, group by group and row by row, entropy-coded
    /// once over the alphabet of the largest codebook: Huffman, or the
    /// fixed-width dictionary when Huffman would not be shorter (the
    /// dictionary part of `W_c`); empty when nothing survives.
    pub weights: Vec<u8>,
}

fn corrupt(detail: String) -> CompressError {
    CompressError::Coding(CodingError::CorruptStream(detail))
}

impl SharedIndexLayer {
    /// Output rows of group `g` implied by the geometry.
    pub fn rows_of(&self, g: usize) -> usize {
        (self.n_out - g * self.group_size).min(self.group_size)
    }

    /// The weight alphabet `0..alphabet`: the largest codebook's length,
    /// so the stored stream's code table covers every index a codebook
    /// can address and nothing more.
    fn alphabet(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.codebook.len())
            .max()
            .unwrap_or(0)
    }

    /// Every weight index in storage order: group by group, row by row.
    pub fn weight_stream(&self) -> Vec<u16> {
        self.groups
            .iter()
            .flat_map(|g| g.weights.iter().flatten().copied())
            .collect()
    }

    /// Whether the groups follow the geometry: `ceil(n_out /
    /// group_size)` groups of `group_size` rows (the last may be short),
    /// `n_in`-wide indexes, one weight per surviving position in every
    /// row, codebooks of [`codebook_len`] entries, and every weight
    /// inside its group's codebook.
    fn groups_follow_geometry(&self) -> bool {
        self.group_size > 0
            && self.groups.len() == self.n_out.div_ceil(self.group_size)
            && self.groups.iter().enumerate().all(|(gi, g)| {
                let survivors = g.survivors();
                g.index.len() == self.n_in
                    && g.weights.len() == self.rows_of(gi)
                    && g.codebook.len()
                        == codebook_len(self.quant_bits, survivors * g.weights.len())
                    && g.weights.iter().all(|row| {
                        row.len() == survivors
                            && row.iter().all(|q| usize::from(*q) < g.codebook.len())
                    })
            })
    }

    /// Entropy-codes the layer: the one encoder behind both the registry
    /// container and Table IV's `W_c` / `I_c`.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidInput`] when the groups do not
    /// follow the layer's geometry (as [`SharedIndexLayer::from_fc`]
    /// builds them).
    pub fn encode_streams(&self) -> Result<SharedStreams, CompressError> {
        if !self.groups_follow_geometry() {
            return Err(CompressError::Coding(CodingError::InvalidInput(format!(
                "the groups of layer {:?} do not follow its geometry",
                self.name
            ))));
        }
        let pixels = self.groups.iter().flat_map(|g| g.index.iter().copied());
        let image = BiLevelImage::new(self.n_in, self.groups.len(), pixels.collect())?;
        let stream = self.weight_stream();
        let weights = if stream.is_empty() {
            Vec::new()
        } else {
            huffman::encode(&stream, self.alphabet())?.into_bytes()
        };
        Ok(SharedStreams {
            index: bilevel::compress(&image),
            weights,
        })
    }

    /// Fills in the indexes of a layer of empty groups, one per
    /// `group_size` outputs, from [`SharedStreams::index`].
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::CorruptStream`] when the image is
    /// malformed, disagrees with the geometry, or is not canonical.
    pub fn decode_index(&mut self, index: &[u8]) -> Result<(), CompressError> {
        let (n_in, n_groups) = (self.n_in, self.groups.len());
        if self.group_size == 0 || n_groups != self.n_out.div_ceil(self.group_size) {
            return Err(corrupt("groups do not tile the outputs".into()));
        }
        let image = bilevel::decompress(index, n_in * n_groups)?;
        if (image.width(), image.height()) != (n_in, n_groups) {
            return Err(corrupt("index image disagrees with the geometry".into()));
        }
        if bilevel::compress(&image) != index {
            return Err(corrupt("the index image is not canonical".into()));
        }
        for (gi, index) in image.pixels().chunks(n_in.max(1)).enumerate() {
            self.groups[gi].index = index.to_vec();
        }
        Ok(())
    }

    /// Fills in the weight rows of a layer whose indexes and codebooks
    /// are set from [`SharedStreams::weights`], decoding at most
    /// `max_weights` weight indexes.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::CorruptStream`] when the stream is
    /// malformed, exceeds `max_weights`, addresses past a codebook, or
    /// is not the canonical encoding of what it decodes to.
    pub fn decode_weights(
        &mut self,
        weights: &[u8],
        max_weights: usize,
    ) -> Result<(), CompressError> {
        let n_groups = self.groups.len();
        let total: usize = (0..n_groups)
            .map(|g| self.groups[g].survivors() * self.rows_of(g))
            .sum();
        if total > max_weights {
            return Err(corrupt(format!(
                "{total} weights exceed the cap {max_weights}"
            )));
        }
        let mut stream = match total {
            0 => &[][..],
            _ => &huffman::decode_bytes(weights, self.alphabet(), total)?[..],
        };
        for gi in 0..n_groups {
            // The decoder returned exactly `total` symbols, the rows' sum.
            let (rows, survivors) = (self.rows_of(gi), self.groups[gi].survivors());
            for _ in 0..rows {
                let (row, rest) = stream.split_at(survivors);
                self.groups[gi].weights.push(row.to_vec());
                stream = rest;
            }
        }
        // Canonical form: the Huffman decoder already demands it of a
        // nonempty stream.
        if !self.groups_follow_geometry() || (total == 0 && !weights.is_empty()) {
            return Err(corrupt(
                "streams are not the canonical encoding of a layer".into(),
            ));
        }
        Ok(())
    }
}

/// Validates a 2-D FC weight/mask pair against a `(bank, k)`
/// bank-balanced pattern and returns `(n_in, n_out)`.
fn check_structured_fc(
    weights: &Tensor,
    mask: &Mask,
    bank: usize,
    k: usize,
) -> Result<(usize, usize), CompressError> {
    if weights.shape().rank() != 2 {
        return Err(CompressError::Tensor(TensorError::RankMismatch {
            expected: 2,
            actual: weights.shape().rank(),
            op: "structured fc",
        }));
    }
    if mask.shape() != weights.shape() {
        return Err(CompressError::Tensor(TensorError::ShapeMismatch {
            left: mask.shape().clone(),
            right: weights.shape().clone(),
            op: "structured fc",
        }));
    }
    if !satisfies_pattern(mask, bank, k) {
        return Err(CompressError::Coding(CodingError::InvalidInput(format!(
            "mask does not satisfy the bank-balanced pattern (bank {bank}, k {k})"
        ))));
    }
    Ok((weights.shape().dim(0), weights.shape().dim(1)))
}

/// A layer stored in the bank-balanced format: every bank of `bank`
/// input positions keeps exactly `k` survivors per lane (micro-range
/// balanced sparsity), giving every lane the same fixed fan-in. 2:4
/// semi-structured sparsity is the `(4, 2)` case, whose offsets take 2
/// bits each.
#[derive(Debug, Clone, PartialEq)]
pub struct BankBalancedFcLayer {
    /// Layer name.
    pub name: String,
    /// Input width.
    pub n_in: usize,
    /// Output width.
    pub n_out: usize,
    /// Bank width along the input dimension (≤ 256 so offsets fit a byte).
    pub bank: usize,
    /// Survivors per bank.
    pub k: usize,
    /// In-bank offsets, one byte per survivor, lane-major ascending.
    pub offsets: Vec<u8>,
    /// Surviving values, same layout as `offsets`.
    pub values: Vec<f32>,
}

impl BankBalancedFcLayer {
    /// Builds the format from a weight matrix `(n_in, n_out)` and a mask
    /// produced by [`cs_sparsity::structured::bank_balanced_mask`].
    ///
    /// Degenerate geometry is normalized first: a bank wider than the
    /// row clamps to the row width and `k` clamps to the (effective)
    /// bank, which selects exactly the same mask — the stored `bank`/`k`
    /// are the effective values.
    ///
    /// # Errors
    ///
    /// Returns an error when shapes disagree, the effective bank exceeds
    /// 256, or the mask does not keep exactly `min(k, bank_len)`
    /// survivors in every bank.
    pub fn from_fc(
        name: impl Into<String>,
        weights: &Tensor,
        mask: &Mask,
        bank: usize,
        k: usize,
    ) -> Result<Self, CompressError> {
        let rows = if weights.shape().rank() == 2 {
            weights.shape().dim(0)
        } else {
            0
        };
        let bank = if rows > 0 { bank.min(rows) } else { bank };
        let k = k.min(bank.max(1));
        if bank > 256 {
            return Err(CompressError::Tensor(TensorError::InvalidGeometry(
                format!("bank {bank} exceeds the byte-offset limit of 256"),
            )));
        }
        let (n_in, n_out) = check_structured_fc(weights, mask, bank, k)?;
        let stride = survivors_per_lane(n_in, bank, k);
        let mut offsets = Vec::with_capacity(n_out * stride);
        let mut values = Vec::with_capacity(n_out * stride);
        let (w, bits) = (weights.as_slice(), mask.bits());
        for o in 0..n_out {
            for i in (0..n_in).filter(|i| bits[i * n_out + o]) {
                offsets.push((i % bank) as u8);
                values.push(w[i * n_out + o]);
            }
        }
        Ok(BankBalancedFcLayer {
            name: name.into(),
            n_in,
            n_out,
            bank,
            k,
            offsets,
            values,
        })
    }

    /// Survivors per output lane (`k` per full bank, `min(k, tail)` for
    /// the ragged tail).
    pub fn stride(&self) -> usize {
        survivors_per_lane(self.n_in, self.bank, self.k)
    }

    /// Absolute surviving input positions of lane `o`, ascending.
    pub fn lane_positions(&self, o: usize) -> Vec<u32> {
        let s = self.stride();
        let lane = &self.offsets[o * s..(o + 1) * s];
        let mut pos = Vec::with_capacity(s);
        let mut bank_idx = 0usize;
        let mut taken = 0usize;
        for &off in lane {
            // Fixed fan-in: `min(k, bank_len)` offsets belong to each
            // bank in order.
            let bank_len = (self.n_in - bank_idx * self.bank).min(self.bank);
            pos.push((bank_idx * self.bank) as u32 + u32::from(off));
            taken += 1;
            if taken == self.k.min(bank_len) {
                bank_idx += 1;
                taken = 0;
            }
        }
        pos
    }

    /// Surviving values of lane `o`, ascending by input position.
    pub fn lane_values(&self, o: usize) -> &[f32] {
        let s = self.stride();
        &self.values[o * s..(o + 1) * s]
    }

    /// Total surviving synapses.
    pub fn surviving(&self) -> usize {
        self.values.len()
    }

    /// Exact pattern density (`k / bank` on bank-aligned widths).
    pub fn density(&self) -> f64 {
        if self.n_in == 0 {
            return 0.0;
        }
        self.stride() as f64 / self.n_in as f64
    }

    /// Bits per stored offset: `ceil(log2(bank))`, 2 for 2:4.
    fn offset_bits(&self) -> u8 {
        (usize::BITS - self.bank.saturating_sub(1).leading_zeros()) as u8
    }

    /// Position metadata in bits: `ceil(log2(bank))` per survivor.
    pub fn index_bits(&self) -> usize {
        self.surviving() * usize::from(self.offset_bits())
    }

    /// Compact weight storage in bytes (fp32 values + offset metadata).
    pub fn weight_bytes(&self) -> usize {
        self.values.len() * 4 + self.index_bits().div_ceil(8)
    }

    /// The stored offset stream: every offset in `ceil(log2(bank))`
    /// bits, lane-major, most significant bit first, zero-padded to a
    /// byte — the `index_bits().div_ceil(8)` bytes the model registry
    /// writes.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::InvalidInput`] when the offsets and values
    /// do not follow the geometry (`n_out` lanes of
    /// [`BankBalancedFcLayer::stride`] each, every offset inside its
    /// bank).
    pub fn encode_offsets(&self) -> Result<Vec<u8>, CompressError> {
        let len = self.n_out * self.stride();
        if self.offsets.len() != len
            || self.values.len() != len
            || self.offsets.iter().any(|&o| usize::from(o) >= self.bank)
        {
            return Err(CompressError::Coding(CodingError::InvalidInput(format!(
                "the offsets of layer {:?} do not follow its geometry",
                self.name
            ))));
        }
        let mut w = BitWriter::new();
        for &o in &self.offsets {
            w.write_bits(u64::from(o), self.offset_bits());
        }
        Ok(w.into_bytes())
    }

    /// Fills in the offsets of a layer whose geometry and values are set
    /// from the stream [`BankBalancedFcLayer::encode_offsets`] writes.
    ///
    /// # Errors
    ///
    /// Returns [`CodingError::CorruptStream`] when the stream is not
    /// `index_bits().div_ceil(8)` bytes, an offset falls outside its
    /// bank, or a padding bit is set (re-encoding must reproduce the
    /// stream byte for byte).
    pub fn decode_offsets(&mut self, stream: &[u8]) -> Result<(), CompressError> {
        if stream.len() != self.index_bits().div_ceil(8) {
            return Err(corrupt(format!(
                "{} offset bytes for {} bits",
                stream.len(),
                self.index_bits()
            )));
        }
        let mut r = BitReader::new(stream);
        let offsets = (0..self.surviving())
            .map(|_| r.read_bits(self.offset_bits()).map(|o| o as u8))
            .collect::<Result<Vec<u8>, _>>()?;
        let padding = r.read_bits(r.bits_left() as u8)?;
        if padding != 0 || offsets.iter().any(|&o| usize::from(o) >= self.bank) {
            return Err(corrupt(
                "offset stream is not the canonical encoding of a layer".into(),
            ));
        }
        self.offsets = offsets;
        Ok(())
    }

    /// Densifies back to `(n_in, n_out)` — zeros at pruned positions.
    pub fn to_dense(&self) -> Tensor {
        let mut dense = vec![0.0f32; self.n_in * self.n_out];
        for o in 0..self.n_out {
            for (p, v) in self.lane_positions(o).iter().zip(self.lane_values(o)) {
                dense[*p as usize * self.n_out + o] = *v;
            }
        }
        Tensor::from_vec(Shape::d2(self.n_in, self.n_out), dense)
            .unwrap_or_else(|_| Tensor::zeros(Shape::d2(self.n_in, self.n_out)))
    }

    /// Exact-codebook simulator bridge (see [`FcLayerFormat::to_shared`]):
    /// one group per output lane whose codebook *is* the lane's
    /// surviving values (identity dictionary, no quantization loss), so
    /// the simulator path executes the same weights the engine does.
    pub fn to_shared(&self) -> SharedIndexLayer {
        let groups = (0..self.n_out)
            .map(|o| {
                let mut index = vec![false; self.n_in];
                for p in self.lane_positions(o) {
                    index[p as usize] = true;
                }
                let vals = self.lane_values(o).to_vec();
                OutputGroup {
                    index,
                    weights: vec![(0..vals.len() as u16).collect()],
                    codebook: Codebook::new(if vals.is_empty() { vec![0.0] } else { vals }),
                }
            })
            .collect();
        SharedIndexLayer {
            name: self.name.clone(),
            n_in: self.n_in,
            n_out: self.n_out,
            group_size: 1,
            quant_bits: 16,
            groups,
        }
    }
}

/// Any of the compiled FC storage formats, as the serving stack carries
/// them: the paper's shared-index format for coarse pruning, or the
/// bank-balanced fixed-fan-in format for the structured patterns (2:4
/// is bank 4, k 2).
#[derive(Debug, Clone, PartialEq)]
pub enum FcLayerFormat {
    /// Coarse shared-index storage ([`SharedIndexLayer`]).
    Shared(SharedIndexLayer),
    /// Bank-balanced storage, 2:4 included.
    BankBalanced(BankBalancedFcLayer),
}

impl FcLayerFormat {
    /// Layer name.
    pub fn name(&self) -> &str {
        match self {
            FcLayerFormat::Shared(l) => &l.name,
            FcLayerFormat::BankBalanced(l) => &l.name,
        }
    }

    /// Input width.
    pub fn n_in(&self) -> usize {
        match self {
            FcLayerFormat::Shared(l) => l.n_in,
            FcLayerFormat::BankBalanced(l) => l.n_in,
        }
    }

    /// Output width.
    pub fn n_out(&self) -> usize {
        match self {
            FcLayerFormat::Shared(l) => l.n_out,
            FcLayerFormat::BankBalanced(l) => l.n_out,
        }
    }

    /// Fraction of surviving synapses (exact pattern densities for the
    /// structured formats).
    pub fn density(&self) -> f64 {
        match self {
            FcLayerFormat::Shared(l) => l.density(),
            FcLayerFormat::BankBalanced(l) => l.density(),
        }
    }

    /// Total surviving synapses.
    pub fn surviving(&self) -> usize {
        match self {
            FcLayerFormat::Shared(l) => l.surviving(),
            FcLayerFormat::BankBalanced(l) => l.surviving(),
        }
    }

    /// Index/metadata storage in bits.
    pub fn index_bits(&self) -> usize {
        match self {
            FcLayerFormat::Shared(l) => l.index_bits(),
            FcLayerFormat::BankBalanced(l) => l.index_bits(),
        }
    }

    /// Compact weight storage in bytes (values plus per-format metadata;
    /// the resident-memory figure the serving registry budgets against).
    pub fn weight_bytes(&self) -> usize {
        match self {
            FcLayerFormat::Shared(l) => l.weight_bytes() + l.index_bits().div_ceil(8),
            FcLayerFormat::BankBalanced(l) => l.weight_bytes(),
        }
    }

    /// The short pattern label used in telemetry and reports: a
    /// bank-balanced layer reads as the mode of its geometry, so a
    /// `(4, 2)` layer is `"two_four"`.
    pub fn kind(&self) -> &'static str {
        match self {
            FcLayerFormat::Shared(_) => "sparse",
            FcLayerFormat::BankBalanced(l) => PruneMode::structured(l.bank, l.k).name(),
        }
    }

    /// A [`SharedIndexLayer`] view for the accelerator simulator, which
    /// only speaks the shared-index format. `Shared` layers are returned
    /// as-is; structured layers convert to group-size-1 layers whose
    /// per-lane codebook is the lane's surviving values verbatim (a
    /// 1-wide group trivially satisfies index sharing, and the identity
    /// dictionary adds no quantization error).
    pub fn to_shared(&self) -> SharedIndexLayer {
        match self {
            FcLayerFormat::Shared(l) => l.clone(),
            FcLayerFormat::BankBalanced(l) => l.to_shared(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_nn::init::{local_convergence, ConvergenceProfile};
    use cs_sparsity::coarse::{self, CoarseConfig, PruneMetric};
    use cs_sparsity::structured;

    fn fc_layer(n_in: usize, n_out: usize, group: usize, density: f64) -> (Tensor, Mask) {
        let w = local_convergence(
            Shape::d2(n_in, n_out),
            &ConvergenceProfile::with_target_density(density).with_block(group),
            3,
        );
        let cfg = CoarseConfig::fc(group, group, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, density).unwrap();
        (w, mask)
    }

    #[test]
    fn fc_roundtrip_matches_dense_reference() {
        let (w, mask) = fc_layer(64, 32, 16, 0.25);
        let mut pruned = w.clone();
        mask.apply(&mut pruned);
        let sil = SharedIndexLayer::from_fc("fc", &w, &mask, 16, 8).unwrap();
        let input: Vec<f32> = (0..64).map(|i| ((i * 13) % 7) as f32 * 0.1).collect();
        let got = sil.output(&input);
        // Dense reference with pruned weights (quantization adds error).
        for (o, got_o) in got.iter().enumerate() {
            let mut want = 0.0f32;
            for (i, x) in input.iter().enumerate() {
                want += pruned.as_slice()[i * 32 + o] * x;
            }
            let tolerance = 0.05 * want.abs().max(0.5);
            assert!(
                (got_o - want).abs() < tolerance,
                "output {o}: got {got_o} want {want}"
            );
        }
    }

    #[test]
    fn group_shares_index() {
        let (w, mask) = fc_layer(64, 32, 16, 0.25);
        let sil = SharedIndexLayer::from_fc("fc", &w, &mask, 16, 4).unwrap();
        assert_eq!(sil.groups.len(), 2);
        for g in &sil.groups {
            assert_eq!(g.weights.len(), 16);
            for lane in &g.weights {
                assert_eq!(lane.len(), g.survivors());
            }
        }
        // Index bits: 2 groups x 64 inputs, vs fine-grained 64x32.
        assert_eq!(sil.index_bits(), 128);
    }

    #[test]
    fn unshared_mask_rejected() {
        let w = Tensor::full(Shape::d2(8, 8), 1.0);
        // A mask that differs within an 8-wide output group.
        let mut bits = vec![true; 64];
        bits[3] = false; // (0,3) pruned but (0,0) kept
        let mask = Mask::from_bits(Shape::d2(8, 8), bits).unwrap();
        assert!(SharedIndexLayer::from_fc("bad", &w, &mask, 8, 4).is_err());
    }

    #[test]
    fn conv_lowering_matches_mask() {
        let w = local_convergence(
            Shape::d4(2, 32, 3, 3),
            &ConvergenceProfile::with_target_density(0.3),
            9,
        );
        let cfg = CoarseConfig::conv(1, 16, 1, 1, PruneMetric::Average);
        let mask = coarse::prune_to_density(&w, &cfg, 0.3).unwrap();
        let sil = SharedIndexLayer::from_conv("conv", &w, &mask, 16, 8).unwrap();
        assert_eq!(sil.n_in, 2 * 9);
        assert_eq!(sil.n_out, 32);
        assert_eq!(sil.groups.len(), 2);
        assert!((sil.density() - mask.density()).abs() < 1e-9);
    }

    #[test]
    fn density_and_sizes() {
        let (w, mask) = fc_layer(128, 64, 16, 0.125);
        let sil = SharedIndexLayer::from_fc("fc", &w, &mask, 16, 4).unwrap();
        assert!((sil.density() - mask.density()).abs() < 1e-9);
        assert!(sil.weight_bytes() < 128 * 64 * 2 / 4);
    }

    #[test]
    fn fully_pruned_group_is_empty_but_valid() {
        let w = Tensor::full(Shape::d2(4, 4), 1.0);
        let mask = Mask::zeros_like(Shape::d2(4, 4));
        let sil = SharedIndexLayer::from_fc("empty", &w, &mask, 4, 4).unwrap();
        assert_eq!(sil.surviving(), 0);
        let out = sil.output(&[1.0; 4]);
        assert_eq!(out, vec![0.0; 4]);
    }

    fn rand_w(n_in: usize, n_out: usize, seed: u64) -> Tensor {
        let mut x = seed | 1;
        Tensor::from_fn(Shape::d2(n_in, n_out), |_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }

    fn bank_balanced(w: &Tensor, bank: usize, k: usize) -> BankBalancedFcLayer {
        let mask = structured::bank_balanced_mask(w, bank, k).unwrap();
        BankBalancedFcLayer::from_fc("bb", w, &mask, bank, k).unwrap()
    }

    #[test]
    fn two_four_roundtrips_through_packed_metadata() {
        for n_in in [16usize, 17, 5, 7] {
            let w = rand_w(n_in, 6, n_in as u64);
            let mask = structured::two_four_mask(&w).unwrap();
            let tf = BankBalancedFcLayer::from_fc("tf", &w, &mask, 4, 2).unwrap();
            // Densify: survivors carry original values, everything else 0.
            let dense = tf.to_dense();
            for i in 0..n_in {
                for o in 0..6 {
                    let want = if mask.bits()[i * 6 + o] {
                        w.as_slice()[i * 6 + o]
                    } else {
                        0.0
                    };
                    assert_eq!(dense.as_slice()[i * 6 + o], want, "n_in {n_in} ({i},{o})");
                }
            }
            assert_eq!(tf.surviving(), mask.ones());
            assert_eq!(tf.index_bits(), mask.ones() * 2);
            assert!((tf.density() - mask.density()).abs() < 1e-12);
            // The stored offsets take 2 bits each and read back exactly.
            let stream = tf.encode_offsets().unwrap();
            assert_eq!(stream.len(), (mask.ones() * 2).div_ceil(8));
            let mut back = BankBalancedFcLayer {
                offsets: Vec::new(),
                ..tf.clone()
            };
            back.decode_offsets(&stream).unwrap();
            assert_eq!(back, tf);
        }
    }

    #[test]
    fn offset_streams_are_canonical() {
        // Bank 3 stores 2 bits per offset, so the value 3 is
        // representable but outside the bank.
        let bb = bank_balanced(&rand_w(9, 1, 5), 3, 1);
        let stream = bb.encode_offsets().unwrap();
        assert_eq!(stream.len(), 1);
        let mut back = BankBalancedFcLayer {
            offsets: Vec::new(),
            ..bb.clone()
        };
        for bad in [
            vec![stream[0] | 1],
            vec![0b1100_0000],
            vec![stream[0], 0],
            Vec::new(),
        ] {
            assert!(back.decode_offsets(&bad).is_err(), "{bad:?} accepted");
        }
        back.decode_offsets(&stream).unwrap();
        assert_eq!(back, bb);
        // A 16-wide bank stores 4 bits per offset.
        let wide = bank_balanced(&rand_w(32, 3, 7), 16, 5);
        assert_eq!(wide.index_bits(), wide.surviving() * 4);
        assert_eq!(
            wide.encode_offsets().unwrap().len(),
            wide.index_bits().div_ceil(8)
        );
        let mut short = wide.clone();
        short.offsets.pop();
        assert!(short.encode_offsets().is_err());
    }

    #[test]
    fn bank_balanced_roundtrips_through_offsets() {
        for (bank, k) in [(8usize, 2usize), (3, 2), (16, 5), (1, 1)] {
            let w = rand_w(21, 5, (bank * 7 + k) as u64);
            let mask = structured::bank_balanced_mask(&w, bank, k).unwrap();
            let bb = BankBalancedFcLayer::from_fc("bb", &w, &mask, bank, k).unwrap();
            let dense = bb.to_dense();
            for i in 0..21 {
                for o in 0..5 {
                    let want = if mask.bits()[i * 5 + o] {
                        w.as_slice()[i * 5 + o]
                    } else {
                        0.0
                    };
                    assert_eq!(dense.as_slice()[i * 5 + o], want, "bank {bank} k {k}");
                }
            }
            assert_eq!(bb.surviving(), mask.ones());
        }
    }

    #[test]
    fn structured_formats_reject_wrong_masks() {
        let w = rand_w(16, 4, 3);
        // A coarse mask is (generically) not 2:4.
        let cfg = CoarseConfig::fc(4, 4, PruneMetric::Average);
        let coarse_mask = coarse::prune_to_density(&w, &cfg, 0.5).unwrap();
        assert!(BankBalancedFcLayer::from_fc("bad", &w, &coarse_mask, 4, 2).is_err());
        assert!(BankBalancedFcLayer::from_fc("bad", &w, &coarse_mask, 8, 3).is_err());
        // Bank too wide for byte offsets even after clamping to the row.
        let tall = rand_w(300, 2, 5);
        let m = structured::bank_balanced_mask(&tall, 300, 4).unwrap();
        assert!(BankBalancedFcLayer::from_fc("bad", &tall, &m, 300, 4).is_err());
    }

    #[test]
    fn bank_balanced_degenerate_geometry_normalizes() {
        let w = rand_w(8, 3, 11);
        // k >= bank keeps everything; bank wider than the row collapses
        // to one ragged bank. The stored geometry is the effective one.
        for (bank, k) in [(4usize, 9usize), (100, 100), (100, 3)] {
            let mask = structured::bank_balanced_mask(&w, bank, k).unwrap();
            let bb = BankBalancedFcLayer::from_fc("bb", &w, &mask, bank, k).unwrap();
            assert!(bb.bank <= 8, "bank {bank} k {k}");
            assert!(bb.k <= bb.bank, "bank {bank} k {k}");
            assert_eq!(bb.surviving(), mask.ones(), "bank {bank} k {k}");
            let dense = bb.to_dense();
            for i in 0..8 {
                for o in 0..3 {
                    let want = if mask.bits()[i * 3 + o] {
                        w.as_slice()[i * 3 + o]
                    } else {
                        0.0
                    };
                    assert_eq!(dense.as_slice()[i * 3 + o], want, "bank {bank} k {k}");
                }
            }
        }
        // Fully-degenerate geometry is a full mask end to end.
        let mask = structured::bank_balanced_mask(&w, 100, 100).unwrap();
        assert_eq!(mask.ones(), 8 * 3);
    }

    #[test]
    fn to_shared_bridge_is_exact() {
        let w = rand_w(20, 8, 11);
        let mask = structured::two_four_mask(&w).unwrap();
        let tf = BankBalancedFcLayer::from_fc("tf", &w, &mask, 4, 2).unwrap();
        let sil = tf.to_shared();
        assert_eq!(sil.group_size, 1);
        assert_eq!(sil.groups.len(), 8);
        // The identity codebook decodes the original values exactly, so
        // the shared-index reference output equals a dense product with
        // the densified weights (up to its own accumulation order).
        let input: Vec<f32> = (0..20).map(|i| (i as f32 * 0.3).sin()).collect();
        let got = sil.output(&input);
        let dense = tf.to_dense();
        for (o, g) in got.iter().enumerate() {
            let mut want = 0.0f32;
            for (i, x) in input.iter().enumerate() {
                // Skipped terms are exact zeros, so serial accumulation
                // in ascending order matches the bridge's gather.
                if mask.bits()[i * 8 + o] {
                    want += dense.as_slice()[i * 8 + o] * x;
                }
            }
            assert_eq!(*g, want, "lane {o}");
        }

        let bb = bank_balanced(&w, 5, 2);
        let sb = bb.to_shared();
        assert_eq!(sb.group_size, 1);
        assert!((sb.density() - bb.density()).abs() < 1e-12);
    }

    #[test]
    fn format_enum_delegates() {
        let w = rand_w(16, 4, 21);
        let tf = FcLayerFormat::BankBalanced(bank_balanced(&w, 4, 2));
        assert_eq!(tf.kind(), "two_four");
        assert_eq!(tf.n_in(), 16);
        assert_eq!(tf.n_out(), 4);
        assert_eq!(tf.density(), 0.5);
        assert_eq!(tf.surviving(), 32);
        assert_eq!(tf.index_bits(), 64);

        let bb = FcLayerFormat::BankBalanced(bank_balanced(&w, 8, 2));
        assert_eq!(bb.kind(), "bank_balanced");
        assert_eq!(bb.density(), 0.25);

        let (cw, cmask) = fc_layer(64, 32, 16, 0.25);
        let sil = SharedIndexLayer::from_fc("fc", &cw, &cmask, 16, 8).unwrap();
        let sh = FcLayerFormat::Shared(sil.clone());
        assert_eq!(sh.kind(), "sparse");
        assert_eq!(sh.to_shared(), sil);
    }
}
