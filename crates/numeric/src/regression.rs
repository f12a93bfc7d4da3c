//! Least-squares fits: linear, power-law (log-log), and exponential trends.

use crate::error::NumericError;

/// Result of an ordinary-least-squares straight-line fit `y = a + b·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Intercept `a`.
    pub intercept: f64,
    /// Slope `b`.
    pub slope: f64,
    /// Coefficient of determination R².
    pub r_squared: f64,
    /// Number of points fitted.
    pub n: usize,
}

impl LinearFit {
    /// Evaluates the fitted line at `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }
}

/// Result of a power-law fit `y = c·x^p`, obtained by OLS in log-log space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawFit {
    /// Multiplier `c`.
    pub coefficient: f64,
    /// Exponent `p`.
    pub exponent: f64,
    /// R² of the underlying log-log linear fit.
    pub r_squared: f64,
    /// Number of points fitted.
    pub n: usize,
}

impl PowerLawFit {
    /// Evaluates the fitted power law at `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.coefficient * x.powf(self.exponent)
    }
}

/// Result of an exponential-trend fit `y = c·g^x` (e.g. `x` in years),
/// obtained by OLS of `ln y` against `x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialFit {
    /// Value at `x = 0`.
    pub coefficient: f64,
    /// Per-unit-x growth factor `g`.
    pub growth_factor: f64,
    /// R² of the underlying semilog linear fit.
    pub r_squared: f64,
    /// Number of points fitted.
    pub n: usize,
}

impl ExponentialFit {
    /// Evaluates the fitted trend at `x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        self.coefficient * self.growth_factor.powf(x)
    }

    /// The compound annual growth rate when `x` is measured in years
    /// (`g - 1`).
    #[must_use]
    pub fn cagr(&self) -> f64 {
        self.growth_factor - 1.0
    }

    /// Doubling time in units of `x` (negative for decaying trends, infinite
    /// for flat ones).
    #[must_use]
    pub fn doubling_time(&self) -> f64 {
        2.0f64.ln() / self.growth_factor.ln()
    }
}

/// Ordinary least squares fit of `y = a + b·x`.
///
/// # Errors
///
/// Returns [`NumericError`] if the slices differ in length, contain fewer
/// than two points, contain non-finite values, or if all abscissae are equal
/// (vertical line).
pub fn linear_fit(xs: &[f64], ys: &[f64]) -> Result<LinearFit, NumericError> {
    const ROUTINE: &str = "linear_fit";
    validate_pairs(ROUTINE, xs, ys)?;
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx == 0.0 { // nanocost-audit: allow(R2, reason = "exact sentinel comparison; the compared value is exactly representable")
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "all abscissae are identical",
        });
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 { // nanocost-audit: allow(R2, reason = "exact sentinel comparison; the compared value is exactly representable")
        1.0 // perfectly flat data is perfectly fit by a flat line
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Ok(LinearFit {
        intercept,
        slope,
        r_squared,
        n: xs.len(),
    })
}

/// Fits `y = c·x^p` by OLS in log-log space.
///
/// # Errors
///
/// As [`linear_fit`], plus [`NumericError::InvalidInput`] if any coordinate
/// is not strictly positive.
pub fn power_law_fit(xs: &[f64], ys: &[f64]) -> Result<PowerLawFit, NumericError> {
    const ROUTINE: &str = "power_law_fit";
    validate_pairs(ROUTINE, xs, ys)?;
    if xs.iter().chain(ys).any(|&v| v <= 0.0) {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "all coordinates must be positive",
        });
    }
    let lx: Vec<f64> = xs.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|v| v.ln()).collect();
    let fit = linear_fit(&lx, &ly)?;
    Ok(PowerLawFit {
        coefficient: fit.intercept.exp(),
        exponent: fit.slope,
        r_squared: fit.r_squared,
        n: xs.len(),
    })
}

/// Fits `y = c·g^x` by OLS of `ln y` against `x`.
///
/// # Errors
///
/// As [`linear_fit`], plus [`NumericError::InvalidInput`] if any ordinate is
/// not strictly positive.
pub fn exponential_fit(xs: &[f64], ys: &[f64]) -> Result<ExponentialFit, NumericError> {
    const ROUTINE: &str = "exponential_fit";
    validate_pairs(ROUTINE, xs, ys)?;
    if ys.iter().any(|&v| v <= 0.0) {
        return Err(NumericError::InvalidInput {
            routine: ROUTINE,
            reason: "all ordinates must be positive",
        });
    }
    let ly: Vec<f64> = ys.iter().map(|v| v.ln()).collect();
    let fit = linear_fit(xs, &ly)?;
    Ok(ExponentialFit {
        coefficient: fit.intercept.exp(),
        growth_factor: fit.slope.exp(),
        r_squared: fit.r_squared,
        n: xs.len(),
    })
}

fn validate_pairs(routine: &'static str, xs: &[f64], ys: &[f64]) -> Result<(), NumericError> {
    if xs.len() != ys.len() {
        return Err(NumericError::LengthMismatch {
            routine,
            left: xs.len(),
            right: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(NumericError::TooFewPoints {
            routine,
            got: xs.len(),
            need: 2,
        });
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) {
        return Err(NumericError::InvalidInput {
            routine,
            reason: "coordinates must be finite",
        });
    }
    Ok(())
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!((fit.intercept - 1.0).abs() < 1e-12);
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
        assert!((fit.eval(10.0) - 21.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_r2_below_one_for_noisy_data() {
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let ys = [0.0, 1.2, 1.8, 3.3, 3.9];
        let fit = linear_fit(&xs, &ys).unwrap();
        assert!(fit.r_squared > 0.97 && fit.r_squared < 1.0);
    }

    #[test]
    fn linear_fit_flat_data_r2_is_one() {
        let fit = linear_fit(&[0.0, 1.0, 2.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn linear_fit_validates_inputs() {
        assert!(linear_fit(&[1.0], &[1.0]).is_err());
        assert!(linear_fit(&[1.0, 2.0], &[1.0]).is_err());
        assert!(linear_fit(&[1.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(linear_fit(&[1.0, f64::NAN], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn power_law_recovers_exact_parameters() {
        // y = 5 x^1.5
        let xs: Vec<f64> = (1..=8).map(|k| k as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 5.0 * x.powf(1.5)).collect();
        let fit = power_law_fit(&xs, &ys).unwrap();
        assert!((fit.coefficient - 5.0).abs() < 1e-9);
        assert!((fit.exponent - 1.5).abs() < 1e-12);
        assert!((fit.eval(4.0) - 40.0).abs() < 1e-8);
    }

    #[test]
    fn power_law_rejects_nonpositive() {
        assert!(power_law_fit(&[0.0, 1.0], &[1.0, 2.0]).is_err());
        assert!(power_law_fit(&[1.0, 2.0], &[-1.0, 2.0]).is_err());
    }

    #[test]
    fn exponential_fit_recovers_moore_style_trend() {
        // Density doubling every 2 years: y = 100 · 2^(t/2) = 100 · (√2)^t.
        let ts: Vec<f64> = (0..10).map(|k| k as f64).collect();
        let ys: Vec<f64> = ts.iter().map(|&t| 100.0 * 2f64.powf(t / 2.0)).collect();
        let fit = exponential_fit(&ts, &ys).unwrap();
        assert!((fit.growth_factor - 2f64.sqrt()).abs() < 1e-9);
        assert!((fit.doubling_time() - 2.0).abs() < 1e-9);
        assert!((fit.cagr() - (2f64.sqrt() - 1.0)).abs() < 1e-9);
    }

    #[test]
    fn exponential_fit_rejects_nonpositive_ordinates() {
        assert!(exponential_fit(&[0.0, 1.0], &[1.0, 0.0]).is_err());
    }
}
