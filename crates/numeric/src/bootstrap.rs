//! Bootstrap confidence intervals for Monte-Carlo outputs.

use crate::error::NumericError;
use crate::mc::Sampler;

/// A bootstrap confidence interval for the mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (sample mean).
    pub mean: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// Nominal confidence level, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// True if `value` falls inside the interval.
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }

    /// Interval width.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Percentile-bootstrap confidence interval for the mean of `samples`.
///
/// # Errors
///
/// Returns [`NumericError`] if `samples` is empty or non-finite,
/// `resamples` is zero, or `level` is outside `(0, 1)`.
pub fn bootstrap_mean_ci(
    samples: &[f64],
    resamples: usize,
    level: f64,
    seed: u64,
) -> Result<ConfidenceInterval, NumericError> {
    const ROUTINE: &str = "bootstrap_mean_ci";
    if samples.is_empty() {
        return Err(NumericError::Empty { routine: ROUTINE });
    }
    if samples.iter().any(|v| !v.is_finite()) {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "samples must be finite",
        });
    }
    if resamples == 0 {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "need at least one resample",
        });
    }
    if !(0.0 < level && level < 1.0) {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "confidence level must lie in (0, 1)",
        });
    }
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let mut sampler = Sampler::seeded(seed);
    let mut means = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        let mut total = 0.0;
        for _ in 0..n {
            let idx = sampler.uniform(0.0, n as f64) as usize;
            total += samples[idx.min(n - 1)];
        }
        means.push(total / n as f64);
    }
    means.sort_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    let pick = |q: f64| {
        let idx = (q * (means.len() as f64 - 1.0)).round() as usize;
        means[idx.min(means.len() - 1)]
    };
    Ok(ConfidenceInterval {
        mean,
        lo: pick(alpha),
        hi: pick(1.0 - alpha),
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_ci_covers_the_true_mean_of_gaussian_data() {
        let mut s = Sampler::seeded(1);
        let xs: Vec<f64> = (0..400).map(|_| s.normal(10.0, 3.0)).collect();
        let ci = bootstrap_mean_ci(&xs, 500, 0.95, 9).unwrap();
        assert!(ci.contains(10.0), "CI [{}, {}] misses 10", ci.lo, ci.hi);
        assert!(ci.width() < 1.5, "CI too wide: {}", ci.width());
        assert!(ci.lo < ci.mean && ci.mean < ci.hi);
    }

    #[test]
    fn bootstrap_ci_narrows_with_sample_size() {
        let mut s = Sampler::seeded(2);
        let small: Vec<f64> = (0..50).map(|_| s.normal(0.0, 1.0)).collect();
        let big: Vec<f64> = (0..2_000).map(|_| s.normal(0.0, 1.0)).collect();
        let ci_small = bootstrap_mean_ci(&small, 400, 0.95, 3).unwrap();
        let ci_big = bootstrap_mean_ci(&big, 400, 0.95, 3).unwrap();
        assert!(ci_big.width() < ci_small.width());
    }

    #[test]
    fn bootstrap_validation() {
        assert!(bootstrap_mean_ci(&[], 10, 0.95, 0).is_err());
        assert!(bootstrap_mean_ci(&[1.0], 0, 0.95, 0).is_err());
        assert!(bootstrap_mean_ci(&[1.0], 10, 1.5, 0).is_err());
        assert!(bootstrap_mean_ci(&[f64::NAN], 10, 0.95, 0).is_err());
    }
}
