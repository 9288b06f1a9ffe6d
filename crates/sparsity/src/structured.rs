//! Structured sparsity patterns: 2:4 semi-structured and bank-balanced.
//!
//! The paper's coarse block pruning ([`crate::coarse`]) trades accuracy
//! for index regularity by pruning whole tiles. The two patterns here
//! take the opposite route: they constrain *where* survivors may sit so
//! that the survivor count per micro-range is fixed by geometry alone.
//!
//! * **2:4 semi-structured** — every contiguous group of 4 weights along
//!   the input (reduction) dimension keeps exactly its top 2 by
//!   magnitude. The surviving positions fit in 2 bits each, and the
//!   fan-in of every output lane is exactly `n_in / 2` (NVIDIA Sparse
//!   Tensor Cores use the same layout).
//! * **Bank-balanced** — every bank of `bank` consecutive inputs keeps
//!   exactly `k` survivors (micro-range balanced sparsity, MCBBS). The
//!   fixed per-bank fan-in makes specialized inner loops branch-free.
//!
//! Both selections are *per output lane*: a 2-D weight tensor
//! `(n_in, n_out)` is pruned column by column, so different lanes keep
//! different positions (unlike coarse blocks, nothing is shared across
//! lanes — the compiled formats in `cs-compress` carry per-lane
//! position metadata instead of a shared index).
//!
//! Selection is fully deterministic: within a group/bank, candidates are
//! ranked by descending `|w|` with ties broken toward the **lower input
//! index**, so equal-magnitude (including all-zero) groups always keep
//! their first `k` positions. Survivor counts never depend on values —
//! an all-zero group still keeps `k` (exactly-zero survivors multiply
//! to ±0.0, which is neutral to the engine's accumulation, preserving
//! bit-identity with dense execution).
//!
//! Ragged tails (widths not divisible by the group/bank size) keep
//! `min(k, tail_len)` survivors, so the exact density of a pruned layer
//! is a closed-form function of the geometry — see
//! [`expected_density`].

use cs_tensor::{Shape, Tensor, TensorError};

use crate::mask::Mask;

/// First-class pruning mode selector, threaded through the compression
/// pipeline (`cs_compress::pipeline`) and the serving stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PruneMode {
    /// The paper's coarse-grained block pruning ([`crate::coarse`]),
    /// configured separately via [`crate::coarse::CoarseConfig`] and a
    /// target density.
    Coarse,
    /// 2:4 semi-structured: top 2 of every 4 along the input dimension.
    TwoFour,
    /// Bank-balanced: exactly `k` survivors per bank of `bank` inputs.
    BankBalanced {
        /// Bank width along the input dimension.
        bank: usize,
        /// Survivors kept per bank.
        k: usize,
    },
}

impl PruneMode {
    /// Short label used in telemetry and reports.
    pub fn name(&self) -> &'static str {
        match self {
            PruneMode::Coarse => "coarse",
            PruneMode::TwoFour => "two_four",
            PruneMode::BankBalanced { .. } => "bank_balanced",
        }
    }

    /// True for the fixed-fan-in patterns (everything except `Coarse`).
    pub fn is_structured(&self) -> bool {
        !matches!(self, PruneMode::Coarse)
    }

    /// The `(bank, k)` geometry of a structured mode (`(4, 2)` for 2:4),
    /// or `None` for `Coarse`.
    pub fn geometry(&self) -> Option<(usize, usize)> {
        match self {
            PruneMode::Coarse => None,
            PruneMode::TwoFour => Some((4, 2)),
            PruneMode::BankBalanced { bank, k } => Some((*bank, *k)),
        }
    }

    /// The structured mode of a `(bank, k)` geometry, the inverse of
    /// [`PruneMode::geometry`]: `(4, 2)` is [`PruneMode::TwoFour`], so a
    /// stored bank-balanced layer is labelled by its geometry alone.
    pub fn structured(bank: usize, k: usize) -> PruneMode {
        match (bank, k) {
            (4, 2) => PruneMode::TwoFour,
            _ => PruneMode::BankBalanced { bank, k },
        }
    }
}

/// Validates a `(bank, k)` geometry. Degenerate-but-meaningful shapes
/// are allowed: `k >= bank` keeps every position in the bank (a full
/// mask), and `bank` wider than the row collapses to one ragged bank.
/// Only the zero-sized geometries are rejected.
fn check_geometry(bank: usize, k: usize) -> Result<(), TensorError> {
    if bank == 0 || k == 0 {
        return Err(TensorError::InvalidGeometry(format!(
            "bank-balanced geometry requires bank >= 1 and k >= 1, got bank {bank} k {k}"
        )));
    }
    Ok(())
}

/// Validates that `shape` is a 2-D `(n_in, n_out)` FC weight shape.
fn check_fc_shape(shape: &Shape) -> Result<(usize, usize), TensorError> {
    if shape.rank() != 2 {
        return Err(TensorError::InvalidGeometry(format!(
            "structured pruning applies to 2-D (n_in, n_out) weights, got rank {}",
            shape.rank()
        )));
    }
    Ok((shape.dim(0), shape.dim(1)))
}

/// Exact survivor count per output lane: full banks keep `min(k, bank)`
/// (degenerate `k >= bank` keeps every position), the ragged tail keeps
/// `min(k, tail)`.
pub fn survivors_per_lane(n_in: usize, bank: usize, k: usize) -> usize {
    let full = n_in / bank;
    let tail = n_in % bank;
    full * k.min(bank) + tail.min(k)
}

/// Exact density of a structured mode over `shape`, or `None` for
/// [`PruneMode::Coarse`] (whose density is a tuning target, not a
/// geometric constant). 2:4 is exactly 0.5 whenever `n_in % 4 == 0`;
/// ragged widths are slightly denser because the tail keeps
/// `min(2, tail)` of fewer positions.
pub fn expected_density(mode: &PruneMode, shape: &Shape) -> Option<f64> {
    let (bank, k) = mode.geometry()?;
    let (n_in, _) = check_fc_shape(shape).ok()?;
    if n_in == 0 {
        return Some(0.0);
    }
    Some(survivors_per_lane(n_in, bank, k) as f64 / n_in as f64)
}

/// Selects the top `keep` positions of `vals` by `(|v| desc, index asc)`
/// into `out` (absolute input indices, ascending). Deterministic for
/// ties and NaN-free by construction (`total_cmp`).
fn select_top(vals: &[f32], keep: usize, base: usize, out: &mut Vec<usize>) {
    let mut order: Vec<usize> = (0..vals.len()).collect();
    order.sort_by(|&a, &b| vals[b].abs().total_cmp(&vals[a].abs()).then(a.cmp(&b)));
    order.truncate(keep.min(vals.len()));
    order.sort_unstable();
    out.extend(order.into_iter().map(|i| base + i));
}

/// Per-lane survivor selection: returns the ascending absolute input
/// indices kept in lane `o` of `w` under a `(bank, k)` geometry.
fn lane_survivors(
    w: &[f32],
    n_in: usize,
    n_out: usize,
    o: usize,
    bank: usize,
    k: usize,
) -> Vec<usize> {
    let mut col = vec![0.0f32; n_in];
    for (i, c) in col.iter_mut().enumerate() {
        *c = w[i * n_out + o];
    }
    let mut kept = Vec::with_capacity(survivors_per_lane(n_in, bank, k));
    let mut start = 0usize;
    while start < n_in {
        let end = (start + bank).min(n_in);
        select_top(&col[start..end], k, start, &mut kept);
        start = end;
    }
    kept
}

/// Builds the mask for a `(bank, k)` structured pattern over a 2-D
/// weight tensor `(n_in, n_out)`.
fn banked_mask(w: &Tensor, bank: usize, k: usize) -> Result<Mask, TensorError> {
    check_geometry(bank, k)?;
    let (n_in, n_out) = check_fc_shape(w.shape())?;
    let data = w.as_slice();
    let mut bits = vec![false; n_in * n_out];
    for o in 0..n_out {
        for i in lane_survivors(data, n_in, n_out, o, bank, k) {
            bits[i * n_out + o] = true;
        }
    }
    Mask::from_bits(w.shape().clone(), bits)
}

/// 2:4 semi-structured pruning: every group of 4 along the input
/// dimension keeps its top 2 by magnitude (ties toward the lower
/// index; ragged tails keep `min(2, tail)`).
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] when `w` is not 2-D.
pub fn two_four_mask(w: &Tensor) -> Result<Mask, TensorError> {
    banked_mask(w, 4, 2)
}

/// Bank-balanced pruning: every bank of `bank` inputs keeps exactly its
/// top `min(k, bank)` by magnitude (ties toward the lower index; ragged
/// tails keep `min(k, tail)`). Degenerate geometries — `k >= bank`, or
/// `bank` wider than the row — degrade to a full mask rather than
/// failing.
///
/// # Errors
///
/// Returns [`TensorError::InvalidGeometry`] when `w` is not 2-D or
/// `bank`/`k` is zero.
pub fn bank_balanced_mask(w: &Tensor, bank: usize, k: usize) -> Result<Mask, TensorError> {
    banked_mask(w, bank, k)
}

/// Builds the mask for any structured mode.
///
/// # Errors
///
/// [`TensorError::InvalidGeometry`] for [`PruneMode::Coarse`] (which
/// needs a block config and density target — use [`crate::coarse`]),
/// non-2-D tensors, or invalid bank geometry.
pub fn structured_mask(w: &Tensor, mode: &PruneMode) -> Result<Mask, TensorError> {
    let (bank, k) = mode.geometry().ok_or_else(|| {
        TensorError::InvalidGeometry(
            "PruneMode::Coarse has no structured pattern; use cs_sparsity::coarse".to_string(),
        )
    })?;
    banked_mask(w, bank, k)
}

/// Checks that a mask satisfies a `(bank, k)` structured pattern: every
/// full bank of every lane has exactly `min(k, bank)` survivors and
/// every ragged tail has `min(k, tail)`.
pub fn satisfies_pattern(mask: &Mask, bank: usize, k: usize) -> bool {
    let Ok((n_in, n_out)) = check_fc_shape(mask.shape()) else {
        return false;
    };
    if check_geometry(bank, k).is_err() {
        return false;
    }
    let bits = mask.bits();
    for o in 0..n_out {
        let mut start = 0usize;
        while start < n_in {
            let end = (start + bank).min(n_in);
            let got = (start..end).filter(|i| bits[i * n_out + o]).count();
            if got != k.min(end - start) {
                return false;
            }
            start = end;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut x = seed | 1;
        Tensor::from_fn(Shape::d2(rows, cols), |_| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
    }

    #[test]
    fn two_four_keeps_top_two_per_group() {
        // One lane, 8 inputs: groups (0..4) and (4..8).
        let t = Tensor::from_vec(
            Shape::d2(8, 1),
            vec![0.1, -0.9, 0.5, 0.2, 0.0, 0.0, -0.3, 0.1],
        )
        .unwrap();
        let m = two_four_mask(&t).unwrap();
        // Group 0: |-0.9| and |0.5| win.
        // Group 1: |-0.3| and |0.1| (position 7) win; the 0.0 tie at
        // positions 4/5 loses to larger magnitudes.
        assert_eq!(
            m.bits(),
            &[false, true, true, false, false, false, true, true]
        );
        assert!(satisfies_pattern(&m, 4, 2));
    }

    #[test]
    fn all_zero_group_keeps_first_two() {
        let t = Tensor::from_vec(Shape::d2(4, 1), vec![0.0, 0.0, 0.0, 0.0]).unwrap();
        let m = two_four_mask(&t).unwrap();
        assert_eq!(m.bits(), &[true, true, false, false]);
    }

    #[test]
    fn ragged_tail_keeps_min() {
        // n_in = 7: tail group of 3 keeps 2; n_in = 5: tail of 1 keeps 1.
        let m7 = two_four_mask(&w(7, 3, 1)).unwrap();
        assert!(satisfies_pattern(&m7, 4, 2));
        assert_eq!(m7.ones(), 3 * (2 + 2));
        let m5 = two_four_mask(&w(5, 2, 2)).unwrap();
        assert!(satisfies_pattern(&m5, 4, 2));
        assert_eq!(m5.ones(), 2 * (2 + 1));
        assert_eq!(
            expected_density(&PruneMode::TwoFour, &Shape::d2(5, 2)),
            Some(3.0 / 5.0)
        );
    }

    #[test]
    fn bank_balanced_counts_exact() {
        for (bank, k) in [(8usize, 2usize), (8, 5), (3, 1), (16, 4), (1, 1)] {
            let t = w(19, 6, bank as u64 * 31 + k as u64);
            let m = bank_balanced_mask(&t, bank, k).unwrap();
            assert!(satisfies_pattern(&m, bank, k), "bank {bank} k {k}");
            assert_eq!(m.ones(), 6 * survivors_per_lane(19, bank, k));
            let d = expected_density(&PruneMode::BankBalanced { bank, k }, t.shape()).unwrap();
            assert!((m.density() - d).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_densities() {
        assert_eq!(
            expected_density(&PruneMode::TwoFour, &Shape::d2(16, 32)),
            Some(0.5)
        );
        assert_eq!(
            expected_density(
                &PruneMode::BankBalanced { bank: 8, k: 2 },
                &Shape::d2(32, 4)
            ),
            Some(0.25)
        );
        assert_eq!(
            expected_density(&PruneMode::Coarse, &Shape::d2(16, 16)),
            None
        );
        // Ragged 2:4: 17 = 4*4 + 1 -> 4*2 + 1 = 9 survivors per lane.
        assert_eq!(
            expected_density(&PruneMode::TwoFour, &Shape::d2(17, 8)),
            Some(9.0 / 17.0)
        );
    }

    #[test]
    fn rejects_bad_geometry_and_rank() {
        assert!(bank_balanced_mask(&w(8, 8, 1), 0, 1).is_err());
        assert!(bank_balanced_mask(&w(8, 8, 1), 4, 0).is_err());
        let conv = Tensor::full(Shape::d4(2, 2, 3, 3), 1.0);
        assert!(two_four_mask(&conv).is_err());
        assert!(structured_mask(&w(8, 8, 1), &PruneMode::Coarse).is_err());
    }

    #[test]
    fn degenerate_geometry_degrades_to_full_mask() {
        // k >= bank keeps every position, bank wider than the row
        // collapses to a single ragged bank; neither may panic or
        // over-select.
        let t = w(8, 3, 4);
        for (bank, k) in [(4usize, 5usize), (4, 4), (16, 16), (100, 7)] {
            let m = bank_balanced_mask(&t, bank, k).unwrap();
            assert!(satisfies_pattern(&m, bank, k), "bank {bank} k {k}");
            let per_lane = survivors_per_lane(8, bank, k);
            assert_eq!(m.ones(), 3 * per_lane, "bank {bank} k {k}");
            if k >= bank || k >= 8 {
                assert_eq!(m.ones(), 8 * 3, "bank {bank} k {k} must keep all");
            }
        }
        // bank wider than the row but k below the row width: keeps the
        // top k of the single ragged bank.
        let m = bank_balanced_mask(&t, 100, 5).unwrap();
        assert_eq!(m.ones(), 3 * 5);
        assert!(satisfies_pattern(&m, 100, 5));
    }

    #[test]
    fn selection_is_idempotent_on_masked_weights() {
        // Pruning already-pruned weights keeps the same mask: survivors
        // out-rank the zeroed positions, and zero ties resolve to the
        // same (lowest-index) picks.
        let mut t = w(16, 8, 7);
        let m = two_four_mask(&t).unwrap();
        m.apply(&mut t);
        assert_eq!(two_four_mask(&t).unwrap(), m);
    }

    #[test]
    fn mode_labels() {
        assert_eq!(PruneMode::Coarse.name(), "coarse");
        assert_eq!(PruneMode::TwoFour.name(), "two_four");
        assert_eq!(
            PruneMode::BankBalanced { bank: 8, k: 2 }.name(),
            "bank_balanced"
        );
        assert!(!PruneMode::Coarse.is_structured());
        assert!(PruneMode::TwoFour.is_structured());
        assert_eq!(PruneMode::TwoFour.geometry(), Some((4, 2)));
        assert_eq!(PruneMode::structured(4, 2), PruneMode::TwoFour);
        assert_eq!(PruneMode::structured(8, 2).name(), "bank_balanced");
    }
}
