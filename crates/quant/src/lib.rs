//! Weight quantization: k-means clustering, global and local codebooks.
//!
//! Quantization replaces each surviving weight with a small dictionary
//! index into a codebook of shared centroid values (the paper's Fig. 3).
//! **Local quantization** (Fig. 9) — the paper's refinement — splits the
//! weight stream into regions and clusters each region separately, which
//! exploits local convergence to reach the same accuracy with fewer bits
//! per index (e.g. AlexNet fc6: 4-bit local vs 5-bit global dictionaries,
//! 19.8% smaller).
//!
//! Region partitioning here follows the row-major surviving-weight stream
//! (contiguous chunks), which preserves the spatial locality of the
//! paper's sub-matrices after compaction.
//!
//! # Example
//!
//! ```
//! use cs_quant::{quantize_global, quantize_local};
//!
//! let values: Vec<f32> = (0..256).map(|i| (i % 16) as f32).collect();
//! let q = quantize_global(&values, 4).unwrap();
//! let decoded = q.decode();
//! let err: f32 = values.iter().zip(&decoded).map(|(a, b)| (a - b).abs()).sum();
//! assert!(err < 1.0); // 16 distinct values, 16 clusters
//! let ql = quantize_local(&values, 4, 4).unwrap();
//! assert_eq!(ql.codebook_count(), 4);
//! ```

use std::fmt;

pub mod kmeans;

pub use kmeans::{kmeans_1d, KMeansResult};

/// Error type for quantization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuantError {
    /// Bits per index outside the supported 1..=16 range.
    BadBits(u8),
    /// No values to quantize.
    Empty,
    /// Region count of zero.
    NoRegions,
}

impl fmt::Display for QuantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuantError::BadBits(b) => write!(f, "bits per index {b} outside 1..=16"),
            QuantError::Empty => write!(f, "no values to quantize"),
            QuantError::NoRegions => write!(f, "region count must be positive"),
        }
    }
}

impl std::error::Error for QuantError {}

/// One codebook of centroid values.
///
/// Centroids are stored as `f32` here; size accounting charges 16 bits per
/// entry, matching the accelerator's 16-bit weight LUT (WDM).
#[derive(Debug, Clone, PartialEq)]
pub struct Codebook {
    centroids: Vec<f32>,
}

impl Codebook {
    /// Creates a codebook from centroids.
    pub fn new(centroids: Vec<f32>) -> Self {
        Codebook { centroids }
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

    /// Nearest-centroid index for a value.
    pub fn encode(&self, v: f32) -> u16 {
        let mut best = 0usize;
        let mut bd = f32::INFINITY;
        for (i, c) in self.centroids.iter().enumerate() {
            let d = (c - v).abs();
            if d < bd {
                bd = d;
                best = i;
            }
        }
        best as u16
    }

    /// Size in bytes at 16 bits per entry (the WDM LUT width).
    pub fn byte_size(&self) -> usize {
        self.centroids.len() * 2
    }
}

/// A quantized weight stream: dictionary indices plus one or more
/// codebooks.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedLayer {
    bits: u8,
    region_len: usize,
    codebooks: Vec<Codebook>,
    indices: Vec<u16>,
}

impl QuantizedLayer {
    /// Bits per dictionary index.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of codebooks (1 for global quantization).
    pub fn codebook_count(&self) -> usize {
        self.codebooks.len()
    }

    /// All codebooks.
    pub fn codebooks(&self) -> &[Codebook] {
        &self.codebooks
    }

    /// The dictionary (one index per value).
    pub fn indices(&self) -> &[u16] {
        &self.indices
    }

    /// Values per region (the last region may be shorter).
    pub fn region_len(&self) -> usize {
        self.region_len
    }

    /// Number of quantized values.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Returns `true` when no values are stored.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Dictionary size in bits (`len * bits`).
    pub fn dictionary_bits(&self) -> usize {
        self.indices.len() * usize::from(self.bits)
    }

    /// Total codebook size in bytes.
    pub fn codebook_bytes(&self) -> usize {
        self.codebooks.iter().map(Codebook::byte_size).sum()
    }

    /// Compressed weight size in bytes: dictionary + codebooks (the
    /// paper's `W_q`).
    pub fn byte_size(&self) -> usize {
        self.dictionary_bits().div_ceil(8) + self.codebook_bytes()
    }

    /// Reconstructs the (lossy) value stream.
    pub fn decode(&self) -> Vec<f32> {
        self.indices
            .iter()
            .enumerate()
            .map(|(i, idx)| {
                let region = (i / self.region_len).min(self.codebooks.len() - 1);
                self.codebooks[region].value(*idx)
            })
            .collect()
    }

    /// Mean squared reconstruction error against the original stream.
    ///
    /// # Panics
    ///
    /// Panics when `original` has a different length.
    pub fn mse(&self, original: &[f32]) -> f64 {
        assert_eq!(original.len(), self.len(), "length mismatch");
        if original.is_empty() {
            return 0.0;
        }
        let decoded = self.decode();
        original
            .iter()
            .zip(&decoded)
            .map(|(a, b)| {
                let d = f64::from(a - b);
                d * d
            })
            .sum::<f64>()
            / original.len() as f64
    }
}

fn check_bits(bits: u8) -> Result<(), QuantError> {
    if bits == 0 || bits > 16 {
        return Err(QuantError::BadBits(bits));
    }
    Ok(())
}

/// Quantizes a value stream with a single shared codebook of
/// `2^bits` centroids (the paper's *global quantization*, Fig. 3).
///
/// # Errors
///
/// Returns [`QuantError`] for empty input or unsupported bit widths.
pub fn quantize_global(values: &[f32], bits: u8) -> Result<QuantizedLayer, QuantError> {
    check_bits(bits)?;
    if values.is_empty() {
        return Err(QuantError::Empty);
    }
    let k = 1usize << bits;
    let result = kmeans_1d(values, k, 25);
    let codebook = Codebook::new(result.centroids);
    let indices = result.assignments;
    Ok(QuantizedLayer {
        bits,
        region_len: values.len(),
        codebooks: vec![codebook],
        indices,
    })
}

/// Quantizes a value stream with one codebook per region (the paper's
/// *local quantization*, Fig. 9). Regions are contiguous equal-length
/// chunks of the stream.
///
/// # Errors
///
/// Returns [`QuantError`] for empty input, zero regions, or unsupported
/// bit widths.
pub fn quantize_local(
    values: &[f32],
    bits: u8,
    regions: usize,
) -> Result<QuantizedLayer, QuantError> {
    check_bits(bits)?;
    if values.is_empty() {
        return Err(QuantError::Empty);
    }
    if regions == 0 {
        return Err(QuantError::NoRegions);
    }
    let regions = regions.min(values.len());
    let region_len = values.len().div_ceil(regions);
    let k = 1usize << bits;
    let mut codebooks = Vec::with_capacity(regions);
    let mut indices = Vec::with_capacity(values.len());
    for chunk in values.chunks(region_len) {
        let result = kmeans_1d(chunk, k, 25);
        indices.extend(result.assignments);
        codebooks.push(Codebook::new(result.centroids));
    }
    Ok(QuantizedLayer {
        bits,
        region_len,
        codebooks,
        indices,
    })
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

    #[test]
    fn global_quantization_is_lossless_when_k_covers_values() {
        let values: Vec<f32> = (0..100).map(|i| (i % 8) as f32).collect();
        let q = quantize_global(&values, 3).unwrap();
        assert!(q.mse(&values) < 1e-9);
        assert_eq!(q.decode().len(), values.len());
    }

    #[test]
    fn more_bits_less_error() {
        let values = lcg_values(2000, 5);
        let q2 = quantize_global(&values, 2).unwrap();
        let q4 = quantize_global(&values, 4).unwrap();
        let q6 = quantize_global(&values, 6).unwrap();
        assert!(q4.mse(&values) < q2.mse(&values));
        assert!(q6.mse(&values) < q4.mse(&values));
    }

    #[test]
    fn local_beats_global_on_locally_clustered_data() {
        // Two regions drawn from different value ranges: per-region
        // codebooks fit each range with the same bit budget.
        let mut values = Vec::new();
        values.extend(lcg_values(1000, 1).iter().map(|v| v * 0.1)); // small
        values.extend(lcg_values(1000, 2).iter().map(|v| v * 10.0 + 50.0)); // big
        let qg = quantize_global(&values, 3).unwrap();
        let ql = quantize_local(&values, 3, 2).unwrap();
        assert!(
            ql.mse(&values) < qg.mse(&values) / 2.0,
            "local {} vs global {}",
            ql.mse(&values),
            qg.mse(&values)
        );
    }

    #[test]
    fn size_accounting() {
        let values = lcg_values(1024, 3);
        let q = quantize_global(&values, 4).unwrap();
        assert_eq!(q.dictionary_bits(), 1024 * 4);
        assert_eq!(q.codebook_bytes(), 16 * 2);
        assert_eq!(q.byte_size(), 512 + 32);
        let ql = quantize_local(&values, 4, 8).unwrap();
        assert_eq!(ql.codebook_count(), 8);
        assert_eq!(ql.dictionary_bits(), 1024 * 4);
        assert!(ql.codebook_bytes() <= 8 * 16 * 2);
    }

    #[test]
    fn bad_inputs_rejected() {
        assert_eq!(quantize_global(&[], 4), Err(QuantError::Empty));
        assert_eq!(quantize_global(&[1.0], 0), Err(QuantError::BadBits(0)));
        assert_eq!(quantize_global(&[1.0], 17), Err(QuantError::BadBits(17)));
        assert_eq!(quantize_local(&[1.0], 4, 0), Err(QuantError::NoRegions));
    }

    #[test]
    fn regions_clamped_to_value_count() {
        let q = quantize_local(&[1.0, 2.0], 2, 100).unwrap();
        assert!(q.codebook_count() <= 2);
        assert_eq!(q.decode().len(), 2);
    }

    #[test]
    fn local_quantization_rejects_empty_input_and_zero_regions() {
        assert_eq!(quantize_local(&[], 4, 2), Err(QuantError::Empty));
        assert_eq!(quantize_local(&[1.0], 4, 0), Err(QuantError::NoRegions));
    }

    #[test]
    fn codebook_encode_decode() {
        let cb = Codebook::new(vec![-1.0, 0.0, 1.0]);
        assert_eq!(cb.encode(0.9), 2);
        assert_eq!(cb.encode(-0.7), 0);
        assert_eq!(cb.value(1), 0.0);
        assert_eq!(cb.byte_size(), 6);
    }
}
