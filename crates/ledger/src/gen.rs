//! Seeded input generation owned by the benchmark: the program under
//! test receives only the vectors made here, never the seed.

/// SplitMix64 (Steele, Lea, Flood 2014): one 64-bit state word.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 24 bits of precision (exact in `f32`).
    pub fn next_unit(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 / (1u32 << 24) as f32
    }
}

/// An activation vector with one element in three exactly `+0.0` and
/// the rest uniform in `[-1, 1)`: zeros are scattered singly, so almost
/// no aligned block of eight is all-zero and gating finds nothing to
/// skip.
pub fn third_zero_input(len: usize, rng: &mut SplitMix64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.next_u64().is_multiple_of(3) {
                0.0
            } else {
                rng.next_unit() * 2.0 - 1.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_a_third_are_zero() {
        let a = third_zero_input(3000, &mut SplitMix64::new(9));
        let b = third_zero_input(3000, &mut SplitMix64::new(9));
        let c = third_zero_input(3000, &mut SplitMix64::new(10));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let zeros = a.iter().filter(|v| **v == 0.0).count();
        assert!((900..1100).contains(&zeros), "{zeros} zeros of 3000");
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }

    #[test]
    fn splitmix_matches_the_published_sequence() {
        // First outputs for seed 1234567 from the reference C code.
        let mut g = SplitMix64::new(1234567);
        assert_eq!(g.next_u64(), 6457827717110365317);
        assert_eq!(g.next_u64(), 3203168211198807973);
    }
}
