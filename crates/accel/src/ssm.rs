//! The Synapse Selector Module (SSM) and Weight Decoder Module (WDM).
//!
//! Each PE holds a local SSM and WDM (Fig. 13/14):
//!
//! * the **WDM** expands compressed dictionary indices from the SB into
//!   actual weights via a LUT loaded with the group's quantization
//!   codebook (local quantization support);
//! * the **SSM** MUXes the weights named by the NSM's indexing string out
//!   of the candidate window, discarding synapses whose input neuron was
//!   zero (dynamic sparsity).
//!
//! The executor does both at preparation: each group's survivors are
//! decoded through its codebook once, into survivor-major rows, and the
//! walk reads the rows the NSM selects. This module keeps the rates the
//! timing model charges for them.

/// Weights the WDM can decode per cycle per PE, given `T_m` and the
/// dictionary bit width (Section V-B's 4-bit aliasing).
pub fn wdm_decodes_per_cycle(tm: usize, bits: u8) -> usize {
    if bits <= 4 {
        tm * 16
    } else if bits <= 8 {
        tm * 8
    } else {
        tm * 4
    }
}

/// SSM/SB supply throughput: cycles to stream `static_survivors`
/// candidate synapses at `4 · T_m` per cycle, bounded below by the WDM
/// decode rate.
pub fn supply_cycles(static_survivors: usize, tm: usize, bits: u8) -> u64 {
    let candidates = 4 * tm;
    let decode = wdm_decodes_per_cycle(tm, bits);
    let rate = candidates.min(decode).max(1);
    (static_survivors.div_ceil(rate) as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wdm_rates_follow_bit_aliasing() {
        assert_eq!(wdm_decodes_per_cycle(16, 4), 256);
        assert_eq!(wdm_decodes_per_cycle(16, 8), 128);
        assert_eq!(wdm_decodes_per_cycle(16, 16), 64);
        assert_eq!(wdm_decodes_per_cycle(16, 3), 256);
    }

    #[test]
    fn supply_rate_is_64_candidates_for_paper_build() {
        // 4-bit weights: SB row supplies 64 candidates, WDM can decode
        // 256 -> candidate-limited.
        assert_eq!(supply_cycles(640, 16, 4), 10);
        // 16-bit weights: WDM decodes 64 -> same 64/cycle.
        assert_eq!(supply_cycles(640, 16, 16), 10);
        assert_eq!(supply_cycles(0, 16, 4), 1);
    }
}
