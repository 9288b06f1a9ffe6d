//! Weight quantization: 1-D k-means clustering and codebooks.
//!
//! Quantization replaces each surviving weight with a small dictionary
//! index into a codebook of shared centroid values (the paper's Fig. 3).
//! **Local quantization** (Fig. 9) — the paper's refinement — clusters
//! each region of the weight matrix separately, which exploits local
//! convergence to reach the same accuracy with fewer bits per index
//! (e.g. AlexNet fc6: 4-bit local vs 5-bit global dictionaries, 19.8%
//! smaller).
//!
//! The region here is one output group of the served shared-index layer
//! (`cs_compress::format::SharedIndexLayer`): [`kmeans_1d`] runs once per
//! group, with at most `2^bits` centroids and at most one per two of the
//! group's weights, and its centroids become that group's [`Codebook`],
//! the LUT a PE's weight decoder (WDM) holds.
//!
//! # Example
//!
//! ```
//! use cs_quant::{kmeans_1d, Codebook};
//!
//! let values: Vec<f32> = (0..256).map(|i| (i % 16) as f32).collect();
//! let km = kmeans_1d(&values, 16, 20);
//! let codebook = Codebook::new(km.centroids);
//! // 16 distinct values, 16 clusters: lossless.
//! for (v, q) in values.iter().zip(&km.assignments) {
//!     assert_eq!(codebook.value(*q), *v);
//! }
//! ```

pub mod binary16;
pub mod kmeans;

pub use kmeans::{kmeans_1d, KMeansResult};

/// One codebook of centroid values: the LUT a PE's weight decoder
/// (WDM) holds.
///
/// Entries are `f32`, and a quantized layer's entries are exactly
/// binary16 values ([`binary16::round`] makes them so), which the CSMR
/// container stores as their 16 bits. Every size counts 16 bits per
/// entry through [`Codebook::byte_size`], the WDM's LUT width.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Codebook {
    centroids: Vec<f32>,
}

impl Codebook {
    /// Creates a codebook from centroids.
    pub fn new(centroids: Vec<f32>) -> Self {
        Codebook { centroids }
    }

    /// A codebook of binary16 entries, each widened exactly.
    pub fn from_binary16(bits: impl IntoIterator<Item = u16>) -> Self {
        Codebook::new(bits.into_iter().map(binary16::widen).collect())
    }

    /// The entries as the binary16 bits the WDM's LUT holds, or the first
    /// entry that is not a binary16 value.
    pub fn to_binary16(&self) -> Result<Vec<u16>, f32> {
        let exact = |&c: &f32| {
            let h = binary16::narrow(c);
            (binary16::widen(h).to_bits() == c.to_bits())
                .then_some(h)
                .ok_or(c)
        };
        self.centroids.iter().map(exact).collect()
    }

    /// The centroid values.
    pub fn centroids(&self) -> &[f32] {
        &self.centroids
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// Returns `true` for an empty codebook.
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Looks a value up by index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn value(&self, index: u16) -> f32 {
        self.centroids[usize::from(index)]
    }

    /// Size in bytes at 16 bits per entry (the WDM LUT width): the one
    /// count of a codebook's storage.
    pub fn byte_size(&self) -> usize {
        self.centroids.len() * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_values(n: usize, seed: u64) -> Vec<f32> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
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

    #[test]
    fn global_quantization_is_lossless_when_k_covers_values() {
        let values: Vec<f32> = (0..100).map(|i| (i % 8) as f32).collect();
        assert!(mse(&values, 8) < 1e-9);
    }

    #[test]
    fn more_bits_less_error() {
        let values = lcg_values(2000, 5);
        assert!(mse(&values, 16) < mse(&values, 4));
        assert!(mse(&values, 64) < mse(&values, 16));
    }

    #[test]
    fn local_beats_global_on_locally_clustered_data() {
        // Two regions drawn from different value ranges: per-region
        // codebooks fit each range with the same bit budget.
        let small: Vec<f32> = lcg_values(1000, 1).iter().map(|v| v * 0.1).collect();
        let big: Vec<f32> = lcg_values(1000, 2)
            .iter()
            .map(|v| v * 10.0 + 50.0)
            .collect();
        let local = (mse(&small, 8) + mse(&big, 8)) / 2.0;
        let global = mse(&[small, big].concat(), 8);
        assert!(local < global / 2.0, "local {local} vs global {global}");
    }

    #[test]
    fn size_accounting() {
        let values = lcg_values(1024, 3);
        let km = kmeans_1d(&values, 16, 25);
        assert_eq!(km.assignments.len(), 1024);
        // 16 entries at the WDM's 16-bit LUT width.
        assert_eq!(Codebook::new(km.centroids).byte_size(), 16 * 2);
    }

    #[test]
    fn regions_clamped_to_value_count() {
        let km = kmeans_1d(&[1.0, 2.0], 4, 25);
        assert_eq!(km.centroids, vec![1.0, 2.0]);
        assert_eq!(km.assignments, vec![0, 1]);
    }

    #[test]
    fn codebook_value_and_byte_size() {
        let cb = Codebook::new(vec![-1.0, 0.0, 1.0]);
        assert_eq!(cb.value(1), 0.0);
        assert_eq!(cb.byte_size(), 6);
    }
}
