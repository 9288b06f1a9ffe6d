//! Built-in case shrinker.
//!
//! When a case fails, replaying the full configuration is rarely the
//! fastest path to a diagnosis — a 4-layer network with awkward blocks
//! obscures whichever single layer actually disagrees. The shrinker
//! greedily applies ordered simplifications (fewer layers → smaller
//! shapes → denser masks → simpler settings), keeping a candidate only
//! if the failure *still reproduces*, so the final case is a local
//! minimum: every remaining feature is load-bearing.
//!
//! Every transformation strictly reduces a well-founded measure (layer
//! count, width sum, flag count), so shrinking terminates without the
//! attempt cap; the cap just bounds worst-case work on slow predicates.
//! Shrinking is deterministic — `conformance replay` reruns it from the
//! regenerated case and arrives at the same minimum.

use cs_sparsity::PruneMode;

use crate::gen::{Case, CaseKind, ConvCase, FcNetCase, LstmTimingCase};

/// Result of shrinking one failing case.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized case (still failing).
    pub case: Case,
    /// Simplifications that were adopted.
    pub steps: usize,
    /// Total candidate evaluations (adopted + rejected).
    pub attempts: usize,
}

/// Minimizes `case` under `still_fails`, evaluating at most
/// `max_attempts` candidates.
pub fn shrink(
    case: &Case,
    still_fails: impl Fn(&Case) -> bool,
    max_attempts: usize,
) -> ShrinkOutcome {
    let mut cur = case.clone();
    let mut steps = 0usize;
    let mut attempts = 0usize;
    'outer: loop {
        for cand in candidates(&cur) {
            if attempts >= max_attempts {
                break 'outer;
            }
            attempts += 1;
            if still_fails(&cand) {
                cur = cand;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    ShrinkOutcome {
        case: cur,
        steps,
        attempts,
    }
}

/// Ordered simplification candidates: structurally smaller first.
fn candidates(case: &Case) -> Vec<Case> {
    let kinds = match &case.kind {
        CaseKind::FcNet(c) => fc_candidates(c)
            .into_iter()
            .map(CaseKind::FcNet)
            .collect::<Vec<_>>(),
        CaseKind::Conv(c) => conv_candidates(c).into_iter().map(CaseKind::Conv).collect(),
        CaseKind::LstmTiming(c) => lstm_candidates(c)
            .into_iter()
            .map(CaseKind::LstmTiming)
            .collect(),
    };
    kinds
        .into_iter()
        .map(|kind| Case {
            seed: case.seed,
            index: case.index,
            kind,
        })
        .collect()
}

fn fc_candidates(c: &FcNetCase) -> Vec<FcNetCase> {
    let mut out = Vec::new();
    // 1. Fewer layers.
    if c.layers.len() > 1 {
        let mut dropped_last = c.clone();
        dropped_last.layers.pop();
        out.push(dropped_last);
        let mut dropped_first = c.clone();
        dropped_first.layers.remove(0);
        out.push(dropped_first);
    }
    // 2. Smaller boundary widths (halved, floor 4), keeping the chain.
    for b in 0..=c.layers.len() {
        let width = if b == 0 {
            c.layers[0].n_in
        } else {
            c.layers[b - 1].n_out
        };
        let smaller = (width / 2).max(4);
        if smaller < width {
            let mut cand = c.clone();
            if b == 0 {
                cand.layers[0].n_in = smaller;
            } else {
                cand.layers[b - 1].n_out = smaller;
                if b < cand.layers.len() {
                    cand.layers[b].n_in = smaller;
                }
            }
            out.push(cand);
        }
    }
    // 3. Denser masks, then simpler settings, one layer at a time.
    for (li, l) in c.layers.iter().enumerate() {
        if l.pattern != PruneMode::Coarse {
            let mut cand = c.clone();
            cand.layers[li].pattern = PruneMode::Coarse;
            out.push(cand);
        }
        if l.density != 1.0 {
            let mut cand = c.clone();
            cand.layers[li].density = 1.0;
            out.push(cand);
        }
        if l.zero_weights {
            let mut cand = c.clone();
            cand.layers[li].zero_weights = false;
            out.push(cand);
        }
        if l.quant_bits != 8 {
            let mut cand = c.clone();
            cand.layers[li].quant_bits = 8;
            out.push(cand);
        }
        if l.group_split != 1 {
            let mut cand = c.clone();
            cand.layers[li].group_split = 1;
            out.push(cand);
        }
        if (l.block_in, l.block_out) != (16, 16) {
            let mut cand = c.clone();
            cand.layers[li].block_in = 16;
            cand.layers[li].block_out = 16;
            out.push(cand);
        }
    }
    // 4. Dense input.
    if c.spikes {
        let mut cand = c.clone();
        cand.spikes = false;
        out.push(cand);
    }
    if c.zero_every != 0 {
        let mut cand = c.clone();
        cand.zero_every = 0;
        out.push(cand);
    }
    // 5. Unpoisoned input.
    if c.poison != crate::gen::InputPoison::None {
        let mut cand = c.clone();
        cand.poison = crate::gen::InputPoison::None;
        out.push(cand);
    }
    out
}

fn conv_candidates(c: &ConvCase) -> Vec<ConvCase> {
    let mut out = Vec::new();
    let min_hw = c.k.saturating_sub(2 * c.pad).max(1);
    for (field, value) in [(0, c.h), (1, c.w)] {
        let smaller = (value / 2).max(min_hw);
        if smaller < value {
            let mut cand = c.clone();
            if field == 0 {
                cand.h = smaller;
            } else {
                cand.w = smaller;
            }
            out.push(cand);
        }
    }
    if c.n_fout > 4 {
        let mut cand = c.clone();
        cand.n_fout = (c.n_fout / 2).max(4);
        out.push(cand);
    }
    if c.n_fin > 1 {
        let mut cand = c.clone();
        cand.n_fin = (c.n_fin / 2).max(1);
        out.push(cand);
    }
    if c.density != 1.0 {
        let mut cand = c.clone();
        cand.density = 1.0;
        out.push(cand);
    }
    if c.quant_bits != 8 {
        let mut cand = c.clone();
        cand.quant_bits = 8;
        out.push(cand);
    }
    out
}

fn lstm_candidates(c: &LstmTimingCase) -> Vec<LstmTimingCase> {
    let mut out = Vec::new();
    if c.seq_len > 1 {
        let mut cand = c.clone();
        cand.seq_len = 1;
        out.push(cand);
    }
    if c.n_hidden > 8 {
        let mut cand = c.clone();
        cand.n_hidden = (c.n_hidden / 2).max(8);
        out.push(cand);
    }
    if c.n_in > 8 {
        let mut cand = c.clone();
        cand.n_in = (c.n_in / 2).max(8);
        out.push(cand);
    }
    if c.static_density != 1.0 {
        let mut cand = c.clone();
        cand.static_density = 1.0;
        out.push(cand);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, CaseKind};

    #[test]
    fn shrinking_an_always_failing_fc_case_reaches_one_small_layer() {
        // Predicate: everything fails. The shrinker should drive any FC
        // case down to a single minimal layer.
        let case = (0..64)
            .map(|k| gen::generate(9, k))
            .find(|c| matches!(&c.kind, CaseKind::FcNet(n) if n.layers.len() > 1))
            .expect("no multi-layer fc case in range");
        let outcome = shrink(&case, |_| true, 500);
        match &outcome.case.kind {
            CaseKind::FcNet(n) => {
                assert_eq!(n.layers.len(), 1);
                assert!(n.layers[0].n_in <= 8);
                assert!(n.layers[0].n_out <= 8);
                assert_eq!(n.layers[0].density, 1.0);
                assert_eq!(n.layers[0].pattern, PruneMode::Coarse);
            }
            other => panic!("kind changed: {other:?}"),
        }
        assert!(outcome.steps > 0);
        assert!(outcome.attempts >= outcome.steps);
    }

    #[test]
    fn shrinking_keeps_the_case_failing_under_a_selective_predicate() {
        // Predicate: fails only while the net has >= 2 layers. The
        // shrinker must stop at exactly 2 layers.
        let case = (0..64)
            .map(|k| gen::generate(17, k))
            .find(|c| matches!(&c.kind, CaseKind::FcNet(n) if n.layers.len() >= 3))
            .expect("no deep fc case in range");
        let fails = |c: &Case| matches!(&c.kind, CaseKind::FcNet(n) if n.layers.len() >= 2);
        let outcome = shrink(&case, fails, 500);
        match &outcome.case.kind {
            CaseKind::FcNet(n) => assert_eq!(n.layers.len(), 2),
            other => panic!("kind changed: {other:?}"),
        }
    }

    #[test]
    fn a_passing_case_shrinks_zero_steps() {
        let case = gen::generate(1, 0);
        let outcome = shrink(&case, |_| false, 500);
        assert_eq!(outcome.steps, 0);
        assert_eq!(outcome.case, case);
    }

    #[test]
    fn shrinking_terminates_within_the_attempt_cap() {
        for k in 0..16 {
            let case = gen::generate(23, k);
            let outcome = shrink(&case, |_| true, 10_000);
            assert!(outcome.attempts < 10_000, "case {k} hit the cap");
        }
    }
}
