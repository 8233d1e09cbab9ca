//! Seeded random matrices and vectors.
//!
//! Everything in the reproduction is deterministic: random initialisation
//! (SPG's `W₀`, k-means seeding) and all synthetic workloads take explicit
//! `u64` seeds. Normal deviates use the Box–Muller transform so we stay
//! within the plain `rand` crate (no `rand_distr` dependency).

use crate::mat::Mat;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `rows x cols` matrix with entries drawn uniformly from `[lo, hi)`.
///
/// # Panics
/// Panics if `lo >= hi`.
pub fn rand_uniform(rows: usize, cols: usize, lo: f64, hi: f64, seed: u64) -> Mat {
    assert!(lo < hi, "rand_uniform: empty range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Mat::zeros(rows, cols);
    for v in m.as_mut_slice() {
        *v = rng.gen_range(lo..hi);
    }
    m
}

/// `rows x cols` matrix of N(mean, std²) entries via Box–Muller.
pub fn rand_normal(rows: usize, cols: usize, mean: f64, std: f64, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Mat::zeros(rows, cols);
    let mut gen = NormalGen::new();
    for v in m.as_mut_slice() {
        *v = mean + std * gen.next(&mut rng);
    }
    m
}

/// Standard-normal deviates for an existing RNG (Box–Muller with caching).
pub struct NormalGen {
    cached: Option<f64>,
}

impl NormalGen {
    /// Create a generator with an empty cache.
    pub fn new() -> Self {
        NormalGen { cached: None }
    }

    /// Draw one standard-normal deviate.
    pub fn next<R: Rng>(&mut self, rng: &mut R) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        // Box–Muller: two uniforms to two independent normals.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }
}

impl Default for NormalGen {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_in_range_and_deterministic() {
        let a = rand_uniform(10, 10, -1.0, 2.0, 99);
        assert!(a.as_slice().iter().all(|&x| (-1.0..2.0).contains(&x)));
        let b = rand_uniform(10, 10, -1.0, 2.0, 99);
        assert!(a.approx_eq(&b, 0.0));
        let c = rand_uniform(10, 10, -1.0, 2.0, 100);
        assert!(!a.approx_eq(&c, 0.0));
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let m = rand_normal(100, 100, 3.0, 2.0, 7);
        let n = m.len() as f64;
        let mean = m.sum() / n;
        let var = m
            .as_slice()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / n;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn normal_gen_cache_pairs() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = NormalGen::new();
        // Consecutive draws must all be finite and not identical.
        let a = g.next(&mut rng);
        let b = g.next(&mut rng);
        let c = g.next(&mut rng);
        assert!(a.is_finite() && b.is_finite() && c.is_finite());
        assert!(a != b || b != c);
    }
}
