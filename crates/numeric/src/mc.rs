//! Seeded Monte-Carlo sampling helpers.
//!
//! Only the distributions the workspace actually needs are implemented
//! (uniform, normal via Box–Muller, lognormal, triangular), driven by the
//! in-tree dependency-free [`Rng64`] stream.

use crate::error::NumericError;
use crate::rng::Rng64;

/// A deterministic sampler with named distribution draws.
///
/// All simulation in the workspace flows through this type so that every
/// experiment is reproducible from a single `u64` seed.
///
/// ```
/// use nanocost_numeric::Sampler;
///
/// let mut a = Sampler::seeded(42);
/// let mut b = Sampler::seeded(42);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone)]
pub struct Sampler {
    rng: Rng64,
    /// Cached second normal deviate from the last Box–Muller pair.
    spare_normal: Option<f64>,
}

impl Sampler {
    /// Creates a sampler from a seed.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        Sampler {
            rng: Rng64::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// A uniform draw from `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo.is_finite() && hi.is_finite() && lo < hi, "invalid uniform range");
        self.rng.random_range(lo..hi)
    }

    /// A standard-normal draw (Box–Muller, with pair caching).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Avoid u1 == 0 which would take ln(0).
        let u1: f64 = self.rng.random_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = self.rng.random_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = std::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// A normal draw with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or non-finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev.is_finite() && std_dev >= 0.0, "invalid std dev");
        mean + std_dev * self.standard_normal()
    }

    /// A lognormal draw: `exp(N(mu, sigma))`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// A triangular draw on `[lo, hi]` with the given `mode` — the standard
    /// three-point estimate for engineering cost inputs.
    ///
    /// # Panics
    ///
    /// Panics unless `lo <= mode <= hi` and `lo < hi`.
    pub fn triangular(&mut self, lo: f64, mode: f64, hi: f64) -> f64 {
        assert!(lo < hi && (lo..=hi).contains(&mode), "invalid triangular parameters");
        let u: f64 = self.rng.random_range(0.0..1.0);
        let fc = (mode - lo) / (hi - lo);
        if u < fc {
            lo + ((hi - lo) * (mode - lo) * u).sqrt()
        } else {
            hi - ((hi - lo) * (hi - mode) * (1.0 - u)).sqrt()
        }
    }

    /// A Bernoulli draw with success probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= p <= 1`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must lie in [0, 1]");
        #[expect(
            clippy::float_cmp,
            reason = "exact sentinel comparison; the compared value is exactly representable"
        )]
        if p == 1.0 {
            return true;
        }
        self.rng.random_range(0.0..1.0) < p
    }

    /// A Poisson draw with mean `lambda` (Knuth's method for small means,
    /// normal approximation above 30 — adequate for defect-count sampling).
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or non-finite.
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(lambda.is_finite() && lambda >= 0.0, "invalid poisson mean");
        if lambda == 0.0 { // nanocost-audit: allow(R2, reason = "exact sentinel comparison; the compared value is exactly representable")
            return 0;
        }
        if lambda > 30.0 {
            let z = self.normal(lambda, lambda.sqrt());
            return z.max(0.0).round() as u64;
        }
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.rng.random_range(0.0f64..1.0);
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// Runs `trials` independent replications of `experiment` and returns
    /// the sampled values.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if `trials` is zero.
    pub fn replicate(
        &mut self,
        trials: usize,
        mut experiment: impl FnMut(&mut Sampler) -> f64,
    ) -> Result<Vec<f64>, NumericError> {
        if trials == 0 {
            return Err(NumericError::InvalidInput {
                routine: "Sampler::replicate",
                reason: "need at least one trial",
            });
        }
        Ok((0..trials).map(|_| experiment(self)).collect())
    }
}

/// A record of a Monte-Carlo experiment configuration, kept with results so
/// that any figure can be regenerated bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of replications.
    pub trials: usize,
}

impl McConfig {
    /// Creates a config and the sampler it describes.
    #[must_use]
    pub fn sampler(&self) -> Sampler {
        Sampler::seeded(self.seed)
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn seeding_is_deterministic() {
        let mut a = Sampler::seeded(7);
        let mut b = Sampler::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.uniform(0.0, 10.0), b.uniform(0.0, 10.0));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Sampler::seeded(1);
        let mut b = Sampler::seeded(2);
        let same = (0..32).filter(|_| a.uniform(0.0, 1.0) == b.uniform(0.0, 1.0)).count();
        assert!(same < 4);
    }

    #[test]
    fn normal_moments_are_close() {
        let mut s = Sampler::seeded(11);
        let xs = s.replicate(20_000, |s| s.normal(5.0, 2.0)).unwrap();
        let sum = summarize(&xs).unwrap();
        assert!((sum.mean - 5.0).abs() < 0.05, "mean {}", sum.mean);
        assert!((sum.std_dev - 2.0).abs() < 0.05, "std {}", sum.std_dev);
    }

    #[test]
    fn lognormal_is_positive() {
        let mut s = Sampler::seeded(3);
        for _ in 0..1000 {
            assert!(s.lognormal(0.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn triangular_respects_bounds_and_mean() {
        let mut s = Sampler::seeded(5);
        let xs = s.replicate(20_000, |s| s.triangular(1.0, 2.0, 6.0)).unwrap();
        let sum = summarize(&xs).unwrap();
        assert!(sum.min >= 1.0 && sum.max <= 6.0);
        // Mean of a triangular distribution is (a+b+c)/3 = 3.
        assert!((sum.mean - 3.0).abs() < 0.05, "mean {}", sum.mean);
    }

    #[test]
    fn poisson_mean_matches() {
        let mut s = Sampler::seeded(9);
        let xs = s.replicate(20_000, |s| s.poisson(4.0) as f64).unwrap();
        let sum = summarize(&xs).unwrap();
        assert!((sum.mean - 4.0).abs() < 0.1, "mean {}", sum.mean);
        // Large-mean branch sanity.
        let big = s.poisson(1000.0);
        assert!(big > 800 && big < 1200);
    }

    #[test]
    fn bernoulli_edge_probabilities() {
        let mut s = Sampler::seeded(2);
        assert!(s.bernoulli(1.0));
        assert!(!s.bernoulli(0.0));
    }

    #[test]
    fn replicate_rejects_zero_trials() {
        let mut s = Sampler::seeded(0);
        assert!(s.replicate(0, |_| 0.0).is_err());
    }
}
