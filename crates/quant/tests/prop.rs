//! Property-based tests for k-means and quantization.

use cs_quant::{kmeans_1d, Codebook};
use proptest::prelude::*;

proptest! {
    /// Assignments always point to the nearest centroid.
    #[test]
    fn kmeans_assigns_nearest(values in proptest::collection::vec(-100.0f32..100.0, 1..400),
                              k in 1usize..32) {
        let r = kmeans_1d(&values, k, 25);
        for (v, a) in values.iter().zip(&r.assignments) {
            let d = (v - r.centroids[usize::from(*a)]).abs();
            for c in &r.centroids {
                prop_assert!(d <= (v - c).abs() + 1e-4);
            }
        }
    }

    /// Centroids are sorted and lie within the data range.
    #[test]
    fn kmeans_centroids_in_range(values in proptest::collection::vec(-50.0f32..50.0, 1..400),
                                 k in 1usize..16) {
        let r = kmeans_1d(&values, k, 25);
        let lo = values.iter().fold(f32::INFINITY, |a, b| a.min(*b));
        let hi = values.iter().fold(f32::NEG_INFINITY, |a, b| a.max(*b));
        for w in r.centroids.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        for c in &r.centroids {
            prop_assert!(*c >= lo - 1e-4 && *c <= hi + 1e-4);
        }
    }

    /// Inertia never increases with more clusters.
    #[test]
    fn kmeans_inertia_monotone_in_k(values in proptest::collection::vec(-10.0f32..10.0, 16..300)) {
        let i2 = kmeans_1d(&values, 2, 30).inertia;
        let i4 = kmeans_1d(&values, 4, 30).inertia;
        let i16 = kmeans_1d(&values, 16, 30).inertia;
        prop_assert!(i4 <= i2 + 1e-6);
        prop_assert!(i16 <= i4 + 1e-6);
    }

    /// Quantization never grows: the dictionary at `bits` per index
    /// plus the codebook LUT stays below the fp32 original.
    #[test]
    fn quantization_compresses(values in proptest::collection::vec(-1.0f32..1.0, 64..2000),
                               bits in 2u8..8) {
        let km = kmeans_1d(&values, 1 << bits, 25);
        let bytes = (values.len() * usize::from(bits)).div_ceil(8)
            + Codebook::new(km.centroids).byte_size();
        prop_assert!(bytes < values.len() * 4);
        prop_assert_eq!(km.assignments.len(), values.len());
    }

    /// One codebook per region (local) improves or matches one codebook
    /// for the whole stream (global) at equal bits on any input.
    #[test]
    fn local_no_worse_than_global_within_tolerance(
        values in proptest::collection::vec(-5.0f32..5.0, 64..1000),
        bits in 2u8..6) {
        let k = 1usize << bits;
        let g = mse(&values, k);
        let region = values.len().div_ceil(4);
        let l = values.chunks(region).map(|c| mse(c, k) * c.len() as f64).sum::<f64>()
            / values.len() as f64;
        // Local quantization has strictly more degrees of freedom per
        // value; allow small slack for k-means local minima.
        prop_assert!(l <= g * 1.5 + 1e-9, "local {} vs global {}", l, g);
    }

    /// Dictionary indices always address valid codebook entries.
    #[test]
    fn indices_address_codebooks(values in proptest::collection::vec(-3.0f32..3.0, 8..500),
                                 bits in 1u8..6, regions in 1usize..6) {
        for chunk in values.chunks(values.len().div_ceil(regions)) {
            let km = kmeans_1d(chunk, 1 << bits, 25);
            for idx in &km.assignments {
                prop_assert!(usize::from(*idx) < km.centroids.len());
            }
        }
    }
}

/// Mean squared error of `values` quantized by one k-means codebook.
fn mse(values: &[f32], k: usize) -> f64 {
    let km = kmeans_1d(values, k, 25);
    values
        .iter()
        .zip(&km.assignments)
        .map(|(v, q)| f64::from(v - km.centroids[usize::from(*q)]).powi(2))
        .sum::<f64>()
        / values.len() as f64
}
