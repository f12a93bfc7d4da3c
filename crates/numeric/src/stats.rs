//! Descriptive statistics over `f64` samples.

use crate::error::NumericError;

/// A summary of a sample: moments and order statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single sample).
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Median (50th percentile, linear interpolation).
    pub median: f64,
    /// Largest sample.
    pub max: f64,
}

/// Computes a [`Summary`] of `samples`.
///
/// # Errors
///
/// Returns [`NumericError`] if `samples` is empty or contains non-finite
/// values.
///
/// ```
/// use nanocost_numeric::summarize;
///
/// let s = summarize(&[1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(s.mean, 2.5);
/// assert_eq!(s.median, 2.5);
/// # Ok::<(), nanocost_numeric::NumericError>(())
/// ```
pub fn summarize(samples: &[f64]) -> Result<Summary, NumericError> {
    const ROUTINE: &str = "summarize";
    if samples.is_empty() {
        return Err(NumericError::Empty { routine: ROUTINE });
    }
    if samples.iter().any(|v| !v.is_finite()) {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "samples must be finite",
        });
    }
    let n = samples.len();
    let mean = samples.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n as f64 - 1.0)
    } else {
        0.0
    };
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(Summary {
        n,
        mean,
        std_dev: var.sqrt(),
        min: sorted[0],
        median: percentile_sorted(&sorted, 50.0),
        max: sorted[n - 1],
    })
}

/// Computes the `p`-th percentile (0–100) of `samples` with linear
/// interpolation between order statistics.
///
/// # Errors
///
/// Returns [`NumericError`] if `samples` is empty, contains non-finite
/// values, or `p` is outside `[0, 100]`.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, NumericError> {
    const ROUTINE: &str = "percentile";
    if samples.is_empty() {
        return Err(NumericError::Empty { routine: ROUTINE });
    }
    if samples.iter().any(|v| !v.is_finite()) {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "samples must be finite",
        });
    }
    if !(0.0..=100.0).contains(&p) {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "percentile must lie in [0, 100]",
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(percentile_sorted(&sorted, p))
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (n as f64 - 1.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = summarize(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev of this classic dataset is ~2.138.
        assert!((s.std_dev - 2.138089935299395).abs() < 1e-9);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert!((s.median - 4.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample_summary() {
        let s = summarize(&[3.0]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 10.0);
        assert_eq!(percentile(&xs, 100.0).unwrap(), 40.0);
        assert!((percentile(&xs, 50.0).unwrap() - 25.0).abs() < 1e-12);
        assert!((percentile(&xs, 25.0).unwrap() - 17.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_order_independent() {
        let a = percentile(&[3.0, 1.0, 2.0], 50.0).unwrap();
        let b = percentile(&[1.0, 2.0, 3.0], 50.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validation_errors() {
        assert!(summarize(&[]).is_err());
        assert!(summarize(&[f64::NAN]).is_err());
        assert!(percentile(&[1.0], 101.0).is_err());
    }
}
