//! The Neuron Selector Module (NSM) — Fig. 12.
//!
//! The NSM is the accelerator's key component: it is *shared by all PEs*
//! because coarse-grained pruning gives every output neuron in a group
//! the same synapse indexes. Per window it:
//!
//! 1. computes **neuron indexes** — one bit per input, set when the
//!    neuron's value is non-zero (dynamic sparsity);
//! 2. ANDs them with the shared **synapse indexes** (static sparsity) to
//!    form the **neuron flags** — the inputs that actually need MACs;
//! 3. emits the flagged neuron *values* plus an **indexing string**: for
//!    each selected neuron, its position within the compact synapse
//!    storage (the running popcount of the synapse indexes), which the
//!    per-PE SSMs use to MUX out the matching weights.
//!
//! Both indexes are bit strings here as in the hardware: 64 positions
//! per `u64`, position `i` at bit `i % 64` of word `i / 64`
//! ([`pack_neurons`], [`pack_index`]). [`select_bits`] ANDs them a word
//! at a time and visits only the set flags; a flag's compact position is
//! the popcount of the synapse bits below it.

/// Output of one NSM selection pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NsmSelection {
    /// Values of the selected (needed) neurons, in input order.
    pub neurons: Vec<f32>,
    /// For each selected neuron, its position in the compact synapse
    /// storage (the paper's *indexing string*).
    pub indexing: Vec<usize>,
    /// Number of input positions scanned.
    pub scanned: usize,
    /// Number of static survivors in the window (`popcount` of the
    /// synapse indexes) — what the SBs must stream.
    pub static_survivors: usize,
}

/// Packs one bit per item of `items` into `out` (cleared first), set
/// where `set` holds.
fn pack<T>(items: &[T], set: impl Fn(&T) -> bool, out: &mut Vec<u64>) {
    out.clear();
    out.extend(items.chunks(64).map(|chunk| {
        chunk
            .iter()
            .enumerate()
            .fold(0u64, |w, (i, x)| w | (u64::from(set(x)) << i))
    }));
}

/// Packs the neuron index of `neurons` into `out` (cleared first): a
/// position's bit is set when its value is `!= 0.0`, so `-0.0` is not
/// selected and NaN is.
pub fn pack_neurons(neurons: &[f32], out: &mut Vec<u64>) {
    pack(neurons, |v| *v != 0.0, out);
}

/// Packs a synapse index, one bit per position.
pub fn pack_index(index: &[bool]) -> Vec<u64> {
    let mut out = Vec::new();
    pack(index, |b| *b, &mut out);
    out
}

/// Word `w` of the bit string `bits` read from position `start`:
/// positions `start + 64 w ..`, with positions past its end read as 0.
fn window_word(bits: &[u64], start: usize, w: usize) -> u64 {
    let p = start + 64 * w;
    let (q, r) = (p / 64, p % 64);
    let lo = bits.get(q).copied().unwrap_or(0);
    if r == 0 {
        lo
    } else {
        (lo >> r) | (bits.get(q + 1).copied().unwrap_or(0) << (64 - r))
    }
}

/// Runs the NSM selection over one window of input neurons with the
/// group's shared synapse indexes.
///
/// # Panics
///
/// Panics when `neurons` and `synapse_index` lengths differ.
pub fn select(neurons: &[f32], synapse_index: &[bool]) -> NsmSelection {
    assert_eq!(
        neurons.len(),
        synapse_index.len(),
        "neuron/index width mismatch"
    );
    let mut neuron_bits = Vec::new();
    pack_neurons(neurons, &mut neuron_bits);
    let mut sel = NsmSelection::default();
    select_bits(
        neurons,
        &neuron_bits,
        &pack_index(synapse_index),
        0,
        &mut sel,
    );
    sel
}

/// The selection over the window `neurons`, whose neuron index is
/// `neuron_bits` (as [`pack_neurons`] packs it, at least
/// `neurons.len()` bits), against the synapse index `synapse_bits` read
/// from position `offset`. `out` is cleared and refilled, so a caller
/// that selects window after window allocates nothing once `out` has
/// grown to the widest one.
///
/// # Panics
///
/// Panics when `neuron_bits` holds fewer than `neurons.len()` bits.
pub fn select_bits(
    neurons: &[f32],
    neuron_bits: &[u64],
    synapse_bits: &[u64],
    offset: usize,
    out: &mut NsmSelection,
) {
    out.neurons.clear();
    out.indexing.clear();
    let len = neurons.len();
    let mut before = 0usize; // survivors in front of the current word
    for (w, &nz) in neuron_bits[..len.div_ceil(64)].iter().enumerate() {
        let tail = len - 64 * w;
        let mask = if tail >= 64 {
            u64::MAX
        } else {
            (1 << tail) - 1
        };
        let syn = window_word(synapse_bits, offset, w) & mask;
        // Neuron flags = synapse index AND neuron index.
        let mut flags = syn & nz;
        while flags != 0 {
            let b = flags.trailing_zeros();
            out.neurons.push(neurons[64 * w + b as usize]);
            out.indexing
                .push(before + (syn & ((1 << b) - 1)).count_ones() as usize);
            flags &= flags - 1;
        }
        before += syn.count_ones() as usize;
    }
    out.scanned = len;
    out.static_survivors = before;
}

/// NSM throughput: cycles to process a window, scanning
/// `window` candidates per cycle and emitting `tm` selected neurons per
/// cycle (whichever limit binds).
pub fn cycles(scanned: usize, selected: usize, window: usize, tm: usize) -> u64 {
    let scan = scanned.div_ceil(window.max(1)) as u64;
    let emit = selected.div_ceil(tm.max(1)) as u64;
    scan.max(emit).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of Fig. 10/Fig. 12: eight input neurons with
    /// n4 = n6 = n8 = 0, synapses surviving at positions {1, 4, 6, 7}
    /// (index "10010110"). Neuron indexes are "11101010", flags
    /// "10000010": neurons n1 and n7 are selected, and their synapses are
    /// the 1st and 4th entries of the compact storage.
    #[test]
    fn paper_fig12_example() {
        let neurons = [0.5, 0.2, 0.3, 0.0, 0.9, 0.0, 0.7, 0.0];
        let syn = [true, false, false, true, false, true, true, false];
        let sel = select(&neurons, &syn);
        assert_eq!(sel.neurons, vec![0.5, 0.7]); // n1 and n7
        assert_eq!(sel.indexing, vec![0, 3]); // 1st and 4th synapses
        assert_eq!(sel.static_survivors, 4);
        assert_eq!(sel.scanned, 8);
    }

    #[test]
    fn dense_index_selects_all_nonzero() {
        let neurons = [1.0, 0.0, 2.0, 3.0];
        let syn = [true; 4];
        let sel = select(&neurons, &syn);
        assert_eq!(sel.neurons, vec![1.0, 2.0, 3.0]);
        assert_eq!(sel.indexing, vec![0, 2, 3]);
    }

    #[test]
    fn empty_index_selects_nothing() {
        let neurons = [1.0, 2.0];
        let syn = [false, false];
        let sel = select(&neurons, &syn);
        assert!(sel.neurons.is_empty());
        assert_eq!(sel.static_survivors, 0);
    }

    #[test]
    fn indexing_positions_are_compact_storage_offsets() {
        // Synapses at 0,1,2,5; neuron 1 is zero.
        let neurons = [1.0, 0.0, 3.0, 9.0, 9.0, 6.0];
        let syn = [true, true, true, false, false, true];
        let sel = select(&neurons, &syn);
        assert_eq!(sel.neurons, vec![1.0, 3.0, 6.0]);
        assert_eq!(sel.indexing, vec![0, 2, 3]);
    }

    #[test]
    fn select_into_leaves_nothing_of_a_wider_window_behind() {
        let mut sel = select(&[1.0; 8], &[true; 8]);
        let neurons = [0.5, 0.2, 0.3, 0.0, 0.9, 0.0, 0.7, 0.0];
        let syn = [true, false, false, true, false, true, true, false];
        let mut bits = Vec::new();
        pack_neurons(&neurons, &mut bits);
        select_bits(&neurons[..6], &bits, &pack_index(&syn), 0, &mut sel);
        assert_eq!(sel, select(&neurons[..6], &syn[..6]));
        assert_eq!((sel.scanned, sel.static_survivors), (6, 3));
    }

    #[test]
    fn a_window_at_any_offset_selects_what_its_slice_selects() {
        // 200 positions: windows straddle word boundaries at every shift.
        let neurons: Vec<f32> = (0..200)
            .map(|i| if i % 3 == 0 { 0.0 } else { i as f32 })
            .collect();
        let syn: Vec<bool> = (0..200).map(|i| (i * 7) % 5 < 3).collect();
        let syn_bits = pack_index(&syn);
        let (mut bits, mut sel) = (Vec::new(), NsmSelection::default());
        for (offset, len) in [(0, 200), (1, 63), (5, 130), (63, 2), (64, 64), (130, 70)] {
            let window = &neurons[offset..offset + len];
            pack_neurons(window, &mut bits);
            select_bits(window, &bits, &syn_bits, offset, &mut sel);
            assert_eq!(
                sel,
                select(window, &syn[offset..offset + len]),
                "{offset}+{len}"
            );
        }
    }

    #[test]
    fn the_neuron_index_drops_signed_zeros_and_keeps_nan() {
        let neurons = [0.0, -0.0, f32::NAN, f32::INFINITY, -f32::MIN_POSITIVE / 2.0];
        let sel = select(&neurons, &[true; 5]);
        assert_eq!(sel.indexing, vec![2, 3, 4]);
        assert!(sel.neurons[0].is_nan());
    }

    #[test]
    fn throughput_limits() {
        // Scan-limited: 512 candidates at 256/cycle.
        assert_eq!(cycles(512, 10, 256, 16), 2);
        // Emit-limited: 64 selected at 16/cycle.
        assert_eq!(cycles(256, 64, 256, 16), 4);
        // Never zero.
        assert_eq!(cycles(0, 0, 256, 16), 1);
    }
}
