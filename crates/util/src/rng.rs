//! Deterministic seed derivation and a small, fast PRNG.
//!
//! Every stochastic component of the workspace (noise processes, workload
//! variation, fold shuffling, forest bootstrapping) is seeded through
//! [`derive_seed`]: a master seed mixed with a stable *tag path* such as
//! `(app, input, repetition, node, metric)`. Two properties matter:
//!
//! 1. **Independence** — changing one tag decorrelates the stream, so the
//!    same run can be re-materialized metric-by-metric, in any order, on any
//!    number of threads, with bit-identical values.
//! 2. **Stability** — tags are explicit integers / interned strings, never
//!    iteration order, so results survive refactoring.
//!
//! [`SplitMix64`] (Steele et al., "Fast splittable pseudorandom number
//! generators") is used both as the mixer and as a cheap standalone PRNG for
//! places where pulling in `rand` machinery is overkill.

use crate::hash::hash_bytes;

/// SplitMix64 PRNG / mixing function.
///
/// Passes BigCrush when used as a generator; its finalizer is also a strong
/// 64→64 bit mixer, which is how [`derive_seed`] uses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Uniform `f64` in `[0, 1)` using the top 53 bits.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `u64` in `[0, bound)` (Lemire's multiply-shift, slight bias
    /// below 2^-64 — irrelevant for simulation workloads).
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Standard normal variate (Box–Muller; one value per call, second
    /// discarded for simplicity — this is not a hot path).
    pub fn next_gaussian(&mut self) -> f64 {
        loop {
            let u1 = self.next_f64();
            if u1 > f64::EPSILON {
                let u2 = self.next_f64();
                return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            }
        }
    }
}

/// The SplitMix64 finalizer: a high-quality 64→64 bit mixer.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive a child seed from a master seed and a stable tag path.
///
/// ```
/// use efd_util::rng::{derive_seed, str_tag};
/// let master = 0xEFD_2021;
/// let run = derive_seed(master, &[str_tag("ft"), str_tag("X"), 7]);
/// let node = derive_seed(run, &[3]);
/// assert_ne!(run, node);
/// assert_eq!(node, derive_seed(derive_seed(master, &[str_tag("ft"), str_tag("X"), 7]), &[3]));
/// ```
#[inline]
pub fn derive_seed(master: u64, tags: &[u64]) -> u64 {
    let mut acc = mix64(master ^ 0xA076_1D64_78BD_642F);
    for (i, &t) in tags.iter().enumerate() {
        // Mix in the position as well so [a, b] != [b, a].
        acc =
            mix64(acc ^ mix64(t.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1))));
    }
    acc
}

/// Stable 64-bit tag for a string (for use in [`derive_seed`] tag paths).
#[inline]
pub fn str_tag(s: &str) -> u64 {
    hash_bytes(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // First output for seed 0 from the public-domain SplitMix64 C
        // implementation (widely published test vector).
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn splitmix_streams_decorrelate() {
        let a: Vec<u64> = {
            let mut g = SplitMix64::new(1);
            (0..64).map(|_| g.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = SplitMix64::new(2);
            (0..64).map(|_| g.next_u64()).collect()
        };
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn unit_interval() {
        let mut g = SplitMix64::new(42);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut g = SplitMix64::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = g.next_below(10) as usize;
            assert!(v < 10);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gaussian_moments() {
        let mut g = SplitMix64::new(99);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = g.next_gaussian();
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn derive_seed_order_sensitive() {
        let m = 5;
        assert_ne!(derive_seed(m, &[1, 2]), derive_seed(m, &[2, 1]));
        assert_ne!(derive_seed(m, &[1]), derive_seed(m, &[1, 0]));
        assert_ne!(derive_seed(m, &[]), derive_seed(m, &[0]));
    }

    #[test]
    fn derive_seed_deterministic() {
        assert_eq!(
            derive_seed(11, &[str_tag("sp"), 4]),
            derive_seed(11, &[str_tag("sp"), 4])
        );
    }

    #[test]
    fn str_tags_distinct() {
        assert_ne!(str_tag("sp"), str_tag("bt"));
        assert_ne!(str_tag(""), str_tag("\0"));
    }
}
