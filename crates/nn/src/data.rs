//! Synthetic classification datasets.
//!
//! The paper's accuracy experiments run on MNIST/Cifar10/ImageNet, which
//! are not available offline. These generators produce learnable synthetic
//! substitutes: class-conditioned Gaussian blobs for MLP-style inputs and
//! class-dependent spatial patterns for CNN-style image inputs. What the
//! pruning experiments need — a task where accuracy degrades measurably as
//! capacity is pruned away — is preserved.

use cs_tensor::{Shape, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One labelled dataset split.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Input samples.
    pub inputs: Vec<Tensor>,
    /// Class labels, one per sample.
    pub labels: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl Dataset {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Returns `true` when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.inputs.is_empty()
    }
}

fn normal(rng: &mut StdRng) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

/// Gaussian-blob classification: each class is a random unit-ish centroid
/// in `dim` dimensions; samples are centroid + noise.
///
/// # Example
///
/// ```
/// let ds = cs_nn::data::blobs(100, 8, 3, 0.3, 1);
/// assert_eq!(ds.len(), 100);
/// assert!(ds.labels.iter().all(|l| *l < 3));
/// ```
pub fn blobs(samples: usize, dim: usize, classes: usize, noise: f32, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let centroids: Vec<Vec<f32>> = (0..classes)
        .map(|_| (0..dim).map(|_| normal(&mut rng)).collect())
        .collect();
    let mut inputs = Vec::with_capacity(samples);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let c = i % classes;
        let x: Vec<f32> = centroids[c]
            .iter()
            .map(|v| v + normal(&mut rng) * noise)
            .collect();
        inputs.push(Tensor::from_vec(Shape::d1(dim), x).expect("length matches dim"));
        labels.push(c);
    }
    Dataset {
        inputs,
        labels,
        classes,
    }
}

/// Synthetic image classification for CNNs: each class has a fixed random
/// low-frequency template over `(c, h, w)`; samples are template + noise.
pub fn images(
    samples: usize,
    shape: (usize, usize, usize),
    classes: usize,
    noise: f32,
    seed: u64,
) -> Dataset {
    let (c, h, w) = shape;
    let mut rng = StdRng::seed_from_u64(seed);
    // Low-frequency class templates: sum of a few random sinusoids.
    let templates: Vec<Tensor> = (0..classes)
        .map(|_| {
            let fx = rng.gen_range(1.0..3.0f32);
            let fy = rng.gen_range(1.0..3.0f32);
            let phase = rng.gen_range(0.0..std::f32::consts::TAU);
            let chan_gain: Vec<f32> = (0..c).map(|_| rng.gen_range(0.5..1.5f32)).collect();
            Tensor::from_fn(Shape::d3(c, h, w), |i| {
                let ci = i / (h * w);
                let y = (i / w) % h;
                let x = i % w;
                chan_gain[ci]
                    * ((fx * x as f32 / w as f32 * std::f32::consts::TAU
                        + fy * y as f32 / h as f32 * std::f32::consts::TAU
                        + phase)
                        .sin())
            })
        })
        .collect();
    let mut inputs = Vec::with_capacity(samples);
    let mut labels = Vec::with_capacity(samples);
    for i in 0..samples {
        let cls = i % classes;
        let t = &templates[cls];
        let img = Tensor::from_fn(Shape::d3(c, h, w), |j| {
            t.as_slice()[j] + normal(&mut rng) * noise
        });
        inputs.push(img);
        labels.push(cls);
    }
    Dataset {
        inputs,
        labels,
        classes,
    }
}

/// Random input activations with a configurable zero fraction, used to
/// drive dynamic-neuron-sparsity measurements for the large zoo networks.
pub fn sparse_activations(len: usize, zero_fraction: f64, seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(Shape::d1(len), |_| {
        if rng.gen_bool(zero_fraction) {
            0.0
        } else {
            rng.gen_range(0.05..1.0f32)
        }
    })
}

/// A LIF-style spike frame: every position is a leaky integrate-and-fire
/// neuron driven by its own constant input current for `steps` ticks,
/// and the frame reports the membrane reading at the final tick — the
/// pre-reset potential when the neuron fires on that tick, exact `+0.0`
/// when it stays silent. Neurons whose drive cannot overcome the leak
/// never fire, and firing neurons only cross threshold on a fraction of
/// ticks, so low `drive` yields the naturally sparse activation frames
/// the activation gate exploits. Deterministic in `seed`.
pub fn lif_spike_train(len: usize, steps: usize, drive: f64, seed: u64) -> Tensor {
    const LEAK: f32 = 0.2;
    const THRESHOLD: f32 = 1.0;
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_fn(Shape::d1(len), |_| {
        let current = rng.gen_range(0.0..drive.max(f64::EPSILON)) as f32;
        let mut v = 0.0f32;
        let mut frame = 0.0f32;
        for _ in 0..steps.max(1) {
            v = v * (1.0 - LEAK) + current;
            if v >= THRESHOLD {
                frame = v;
                v = 0.0;
            } else {
                frame = 0.0;
            }
        }
        frame
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blobs_balanced_classes() {
        let ds = blobs(99, 10, 3, 0.2, 5);
        let counts = [0usize, 1, 2].map(|c| ds.labels.iter().filter(|l| **l == c).count());
        assert_eq!(counts, [33, 33, 33]);
    }

    #[test]
    fn blobs_are_separable_by_centroid_distance() {
        // With tiny noise, same-class samples are much closer together.
        let ds = blobs(40, 16, 2, 0.01, 9);
        let d = |a: &Tensor, b: &Tensor| -> f32 {
            a.as_slice()
                .iter()
                .zip(b.as_slice())
                .map(|(x, y)| (x - y) * (x - y))
                .sum()
        };
        let same = d(&ds.inputs[0], &ds.inputs[2]); // both class 0
        let diff = d(&ds.inputs[0], &ds.inputs[1]); // class 0 vs 1
        assert!(same < diff);
    }

    #[test]
    fn images_have_requested_shape() {
        let ds = images(10, (3, 8, 8), 5, 0.1, 2);
        assert_eq!(ds.inputs[0].shape(), &Shape::d3(3, 8, 8));
        assert_eq!(ds.classes, 5);
    }

    #[test]
    fn sparse_activations_hit_target_zero_fraction() {
        let t = sparse_activations(10_000, 0.6, 3);
        let zf = t.count_zeros() as f64 / t.len() as f64;
        assert!((zf - 0.6).abs() < 0.03, "zero fraction {zf}");
    }

    #[test]
    fn lif_spike_train_is_sparse_and_deterministic() {
        let a = lif_spike_train(10_000, 20, 0.25, 11);
        let b = lif_spike_train(10_000, 20, 0.25, 11);
        assert_eq!(a, b);
        let active = a.as_slice().iter().filter(|v| **v != 0.0).count();
        // Drive 0.25 with leak 0.2: only currents >= ~0.2 ever fire, and
        // firing neurons spike on a minority of ticks — the frame is
        // mostly silent but never fully dead.
        assert!(active > 0, "no neuron fired");
        assert!(
            active < 10_000 / 5,
            "frame too dense: {active}/10000 active"
        );
        // Silent neurons are exact +0.0 — the only value the gate skips.
        assert!(a
            .as_slice()
            .iter()
            .all(|v| v.to_bits() != (-0.0f32).to_bits()));
        // More drive, more spikes.
        let hot = lif_spike_train(10_000, 20, 2.0, 11);
        let hot_active = hot.as_slice().iter().filter(|v| **v != 0.0).count();
        assert!(hot_active > active);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = blobs(10, 4, 2, 0.5, 7);
        let b = blobs(10, 4, 2, 0.5, 7);
        assert_eq!(a.inputs[3], b.inputs[3]);
    }
}
