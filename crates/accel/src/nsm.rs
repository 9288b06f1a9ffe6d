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

/// Runs the NSM selection logic over one window of input neurons with the
/// group's shared synapse indexes.
///
/// # Panics
///
/// Panics when `neurons` and `synapse_index` lengths differ.
pub fn select(neurons: &[f32], synapse_index: &[bool]) -> NsmSelection {
    let mut sel = NsmSelection::default();
    select_into(neurons, synapse_index, &mut sel);
    sel
}

/// [`select`] into reused buffers: `out` is cleared and refilled, so a
/// caller that selects window after window allocates nothing once
/// `out` has grown to the widest one.
///
/// # Panics
///
/// Panics when `neurons` and `synapse_index` lengths differ.
pub fn select_into(neurons: &[f32], synapse_index: &[bool], out: &mut NsmSelection) {
    assert_eq!(
        neurons.len(),
        synapse_index.len(),
        "neuron/index width mismatch"
    );
    out.neurons.clear();
    out.indexing.clear();
    let mut compact_pos = 0usize; // running popcount of synapse indexes
    for (&v, &syn) in neurons.iter().zip(synapse_index) {
        if syn {
            // Neuron flag = synapse index AND neuron index (non-zero).
            if v != 0.0 {
                out.neurons.push(v);
                out.indexing.push(compact_pos);
            }
            compact_pos += 1;
        }
    }
    out.scanned = neurons.len();
    out.static_survivors = compact_pos;
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
        select_into(&neurons[..6], &syn[..6], &mut sel);
        assert_eq!(sel, select(&neurons[..6], &syn[..6]));
        assert_eq!((sel.scanned, sel.static_survivors), (6, 3));
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
