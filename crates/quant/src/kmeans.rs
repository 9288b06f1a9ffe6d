//! 1-D k-means (Lloyd's algorithm) for weight clustering.
//!
//! Weight quantization only needs scalar clustering, which permits a fast
//! exact implementation: values are sorted once, centroids stay sorted,
//! and each Lloyd assignment step is a linear sweep over cluster
//! boundaries (midpoints between adjacent centroids). Centroids are
//! initialized at quantiles, which is deterministic and close to optimal
//! for the unimodal-ish weight distributions in practice.

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster centroids, sorted ascending.
    pub centroids: Vec<f32>,
    /// Per-input nearest-centroid index (into `centroids`).
    pub assignments: Vec<u16>,
    /// Final within-cluster sum of squared distances.
    pub inertia: f64,
}

/// Clusters `values` into exactly `min(k, distinct values)` groups with
/// up to `max_iters` Lloyd iterations.
///
/// When there are fewer distinct values than `k`, one centroid per
/// distinct value is returned (quantization is then lossless). With `k`
/// or more distinct values, exactly `k` centroids come back: duplicate
/// quantile seeds are topped back up from unused distinct values, and
/// clusters that empty out during Lloyd iterations are reseeded by
/// splitting the widest populated cluster instead of being dropped.
///
/// # Panics
///
/// Panics if `k == 0`. No values give no centroids.
pub fn kmeans_1d(values: &[f32], k: usize, max_iters: usize) -> KMeansResult {
    assert!(k > 0, "k must be positive");

    // Sort a copy; remember nothing (assignment is recomputed at the end
    // against the original order).
    let mut sorted: Vec<f32> = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite weights"));

    // Deduplicate for centroid seeding.
    let mut distinct: Vec<f32> = Vec::with_capacity(sorted.len().min(4096));
    for v in &sorted {
        if distinct.last() != Some(v) {
            distinct.push(*v);
        }
    }
    let k = k.min(distinct.len());

    // Quantile initialization over the sorted values. Repeated values can
    // make several quantiles coincide; dedup and then top the seeds back
    // up to `k` from the distinct values not yet used (a sorted merge
    // walk — seeds are themselves drawn from `distinct`, so exact `==`
    // matching is valid). This guarantees exactly `min(k, distinct)`
    // seeds, where the old code could silently start with fewer.
    let mut centroids: Vec<f32> = (0..k)
        .map(|i| {
            let pos = (i * 2 + 1) * sorted.len() / (2 * k);
            sorted[pos.min(sorted.len() - 1)]
        })
        .collect();
    centroids.dedup();
    if centroids.len() < k {
        let need = k - centroids.len();
        let mut added = 0usize;
        let mut ci = 0usize;
        let mut topped = Vec::with_capacity(k);
        for &d in &distinct {
            if ci < centroids.len() && centroids[ci] == d {
                topped.push(d);
                ci += 1;
            } else if added < need {
                topped.push(d);
                added += 1;
            }
        }
        centroids = topped;
    }
    debug_assert_eq!(centroids.len(), k);

    for _ in 0..max_iters {
        // Boundaries are midpoints between adjacent centroids.
        let kk = centroids.len();
        let mut sums = vec![0.0f64; kk];
        let mut counts = vec![0usize; kk];
        let mut mins = vec![f32::INFINITY; kk];
        let mut maxs = vec![f32::NEG_INFINITY; kk];
        let mut ci = 0usize;
        for v in &sorted {
            while ci + 1 < kk && (centroids[ci] + centroids[ci + 1]) / 2.0 < *v {
                ci += 1;
            }
            sums[ci] += f64::from(*v);
            counts[ci] += 1;
            mins[ci] = mins[ci].min(*v);
            maxs[ci] = maxs[ci].max(*v);
        }
        let mut moved = false;
        let mut next = vec![0.0f32; kk];
        let mut empties = Vec::new();
        for (i, c) in centroids.iter().enumerate() {
            if counts[i] == 0 {
                // Keep the slot; reseeded below. Dropping empty clusters
                // here is what used to collapse the codebook below `k`.
                empties.push(i);
                next[i] = *c;
            } else {
                let m = (sums[i] / counts[i] as f64) as f32;
                if (m - c).abs() > 1e-7 {
                    moved = true;
                }
                next[i] = m;
            }
        }
        // Reseed each empty cluster by splitting the widest populated
        // cluster: the empty centroid jumps to the donor's max value,
        // which the donor's mean sits strictly below whenever its span is
        // positive. While empties remain and k <= distinct, pigeonhole
        // guarantees some cluster holds >= 2 values with positive span.
        for e in empties {
            let mut donor = None;
            let mut best_span = 0.0f32;
            for i in 0..kk {
                if counts[i] >= 2 {
                    let span = maxs[i] - mins[i];
                    if span > best_span {
                        best_span = span;
                        donor = Some(i);
                    }
                }
            }
            if let Some(d) = donor {
                next[e] = maxs[d];
                // Shrink the donor's recorded range so a further reseed
                // this round picks a different extreme or donor.
                maxs[d] = next[d];
                moved = true;
            }
        }
        next.sort_by(|a, b| a.partial_cmp(b).expect("finite centroids"));
        centroids = next;
        if !moved {
            break;
        }
    }

    // Final assignment in original order + inertia.
    let mut assignments = Vec::with_capacity(values.len());
    let mut inertia = 0.0f64;
    for v in values {
        let idx = nearest(&centroids, *v);
        let d = f64::from(v - centroids[idx]);
        inertia += d * d;
        assignments.push(idx as u16);
    }
    KMeansResult {
        centroids,
        assignments,
        inertia,
    }
}

fn nearest(centroids: &[f32], v: f32) -> usize {
    // Binary search over the sorted centroids.
    let mut lo = 0usize;
    let mut hi = centroids.len();
    while lo + 1 < hi {
        let mid = (lo + hi) / 2;
        if centroids[mid] <= v {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // lo is the last centroid <= v (or 0); compare with its neighbour.
    if lo + 1 < centroids.len() && (centroids[lo + 1] - v).abs() < (v - centroids[lo]).abs() {
        lo + 1
    } else {
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_obvious_clusters() {
        let values = vec![0.0, 0.1, 0.05, 10.0, 10.1, 9.9];
        let r = kmeans_1d(&values, 2, 20);
        assert_eq!(r.centroids.len(), 2);
        assert!((r.centroids[0] - 0.05).abs() < 0.01);
        assert!((r.centroids[1] - 10.0).abs() < 0.1);
        assert_eq!(&r.assignments[..3], &[0, 0, 0]);
        assert_eq!(&r.assignments[3..], &[1, 1, 1]);
    }

    #[test]
    fn fewer_distinct_values_than_k() {
        let values = vec![1.0, 1.0, 2.0, 2.0];
        let r = kmeans_1d(&values, 8, 20);
        assert!(r.centroids.len() <= 2);
        assert!(r.inertia < 1e-9);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let values: Vec<f32> = (0..500).map(|i| ((i * 37) % 101) as f32 / 101.0).collect();
        let r2 = kmeans_1d(&values, 2, 30);
        let r8 = kmeans_1d(&values, 8, 30);
        let r32 = kmeans_1d(&values, 32, 30);
        assert!(r8.inertia < r2.inertia);
        assert!(r32.inertia < r8.inertia);
    }

    #[test]
    fn assignments_point_to_nearest_centroid() {
        let values: Vec<f32> = (0..100).map(|i| (i as f32).sin()).collect();
        let r = kmeans_1d(&values, 4, 30);
        for (v, a) in values.iter().zip(&r.assignments) {
            let d_assigned = (v - r.centroids[usize::from(*a)]).abs();
            for c in &r.centroids {
                assert!(d_assigned <= (v - c).abs() + 1e-6);
            }
        }
    }

    #[test]
    fn centroids_sorted() {
        let values: Vec<f32> = (0..300).map(|i| ((i * 97) % 31) as f32).collect();
        let r = kmeans_1d(&values, 8, 30);
        for w in r.centroids.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn no_values_no_centroids() {
        let r = kmeans_1d(&[], 4, 10);
        assert!(r.centroids.is_empty() && r.assignments.is_empty());
        assert_eq!(r.inertia, 0.0);
    }

    #[test]
    fn single_value() {
        let r = kmeans_1d(&[3.5], 4, 10);
        assert_eq!(r.centroids, vec![3.5]);
        assert_eq!(r.assignments, vec![0]);
    }

    #[test]
    fn repeated_values_do_not_collapse_centroids() {
        // Regression: quantile seeding over heavily repeated values used
        // to produce duplicate seeds, `dedup()` removed them, and empty
        // clusters were dropped mid-Lloyd — the codebook came back with
        // fewer than `k` centroids despite >= k distinct values.
        let values = vec![1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0, 5.0, 5.0];
        let r = kmeans_1d(&values, 4, 20);
        assert_eq!(r.centroids.len(), 4, "centroids: {:?}", r.centroids);
        // Four distinct values into four clusters: lossless.
        assert!(r.inertia < 1e-9, "inertia: {}", r.inertia);
    }

    #[test]
    fn skewed_repeats_keep_exactly_min_k_distinct_centroids() {
        // A long run of a single value plus a few outliers, across a range
        // of k values: the result must always have min(k, distinct) many
        // centroids, stay sorted, and keep assignments in range.
        let mut values = vec![0.25f32; 400];
        values.extend_from_slice(&[-3.0, -1.0, 0.5, 1.5, 2.0, 7.0, 9.0]);
        let distinct = 8usize;
        for k in [1usize, 2, 3, 4, 6, 8, 16, 64] {
            let r = kmeans_1d(&values, k, 30);
            assert_eq!(
                r.centroids.len(),
                k.min(distinct),
                "k={k} centroids: {:?}",
                r.centroids
            );
            for w in r.centroids.windows(2) {
                assert!(w[0] <= w[1]);
            }
            for a in &r.assignments {
                assert!(usize::from(*a) < r.centroids.len());
            }
        }
    }

    #[test]
    fn empty_cluster_reseed_reduces_inertia() {
        // Two tight groups far apart plus heavy repeats in the middle.
        // With dropped clusters, k=4 would degenerate; with reseeding the
        // lossless 4-centroid solution must be found.
        let mut values = vec![0.0f32; 100];
        values.extend(std::iter::repeat_n(100.0f32, 100));
        values.push(50.0);
        values.push(51.0);
        let r = kmeans_1d(&values, 4, 50);
        assert_eq!(r.centroids.len(), 4, "centroids: {:?}", r.centroids);
        assert!(r.inertia < 1e-6, "inertia: {}", r.inertia);
    }
}
