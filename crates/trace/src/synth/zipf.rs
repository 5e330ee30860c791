//! A small Zipf(θ) sampler over `n` items with golden-ratio scattering.
//!
//! Popularity rank `r` (0-based) has weight `1 / (r + 1)^theta`. To avoid the
//! unrealistic artifact of all hot items being *contiguous in memory*, ranks
//! are scattered over item indices with a fixed multiplicative hash, so the
//! hot set is spread across the region while remaining deterministic.

use rand::Rng;

use super::SynthConfigError;

/// A cumulative-distribution Zipf sampler.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use vrcache_trace::synth::Zipf;
///
/// let z = Zipf::new(100, 0.9).unwrap();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let item = z.sample(&mut rng);
/// assert!(item < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    n: u64,
}

impl Zipf {
    /// Builds a sampler over `n` items with exponent `theta >= 0`.
    ///
    /// # Errors
    ///
    /// Returns [`SynthConfigError::ZipfNoItems`] if `n == 0`, or
    /// [`SynthConfigError::ZipfBadTheta`] if `theta` is negative or
    /// non-finite.
    pub fn new(n: u64, theta: f64) -> Result<Self, SynthConfigError> {
        if n == 0 {
            return Err(SynthConfigError::ZipfNoItems);
        }
        if !(theta.is_finite() && theta >= 0.0) {
            return Err(SynthConfigError::ZipfBadTheta(theta));
        }
        let mut cdf = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Ok(Zipf { cdf, n })
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Samples an item index in `0..n`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        let rank = match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("finite"))
        {
            Ok(i) => i as u64,
            Err(i) => (i as u64).min(self.n - 1),
        };
        self.scatter(rank)
    }

    /// Maps a popularity rank to its (scattered) item index.
    pub fn scatter(&self, rank: u64) -> u64 {
        // Fibonacci hashing; for n == 1 everything maps to item 0.
        (rank.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(50, 0.8).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 50);
        }
    }

    #[test]
    fn theta_zero_is_uniformish() {
        let z = Zipf::new(4, 0.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut counts = BTreeMap::new();
        for _ in 0..8000 {
            *counts.entry(z.sample(&mut rng)).or_insert(0u32) += 1;
        }
        for i in 0..4 {
            let c = counts[&i];
            assert!((1600..2400).contains(&c), "item {i} count {c} not uniform");
        }
    }

    #[test]
    fn high_theta_is_skewed() {
        let z = Zipf::new(100, 1.2).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let hot = z.scatter(0);
        let mut hot_count = 0;
        let total = 10_000;
        for _ in 0..total {
            if z.sample(&mut rng) == hot {
                hot_count += 1;
            }
        }
        // Rank 0 weight under theta=1.2, n=100 is ~26%; allow slack.
        assert!(
            hot_count > total / 8,
            "hot item only drew {hot_count}/{total}"
        );
    }

    #[test]
    fn scatter_is_a_permutation_feeling_map() {
        let z = Zipf::new(64, 1.0).unwrap();
        let mut seen = BTreeSet::new();
        for r in 0..64 {
            seen.insert(z.scatter(r));
        }
        // The multiplier is odd so the map is injective modulo powers of two.
        assert_eq!(seen.len(), 64);
    }

    #[test]
    fn deterministic_across_runs() {
        let z = Zipf::new(32, 0.9).unwrap();
        let a: Vec<u64> = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<u64> = {
            let mut rng = rand::rngs::StdRng::seed_from_u64(7);
            (0..20).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn zero_items_is_typed_error() {
        assert_eq!(
            Zipf::new(0, 1.0).unwrap_err(),
            SynthConfigError::ZipfNoItems
        );
    }

    #[test]
    fn bad_theta_is_typed_error() {
        for bad in [-0.5, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                Zipf::new(1, bad),
                Err(SynthConfigError::ZipfBadTheta(_))
            ));
        }
    }

    #[test]
    fn single_item_always_zero() {
        let z = Zipf::new(1, 2.0).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }
}
