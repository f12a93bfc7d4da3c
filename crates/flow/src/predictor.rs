//! Pre-layout prediction error — the root cause the paper assigns to
//! design-cost growth (§2.4, §3.2).
//!
//! Early design stages must predict physical quantities (interconnect
//! delay, coupling, printability) before placement and routing exist. Two
//! forces set the error of that prediction:
//!
//! * the **lithography neighborhood**: the λ-relative interaction radius
//!   grows as features shrink (see `nanocost_fab::ProximityModel`), so
//!   more context is unknown at prediction time;
//! * **regularity**: pre-characterized repeated patterns are predictable —
//!   reuse of accurate simulation results shrinks the error (§3.2).

use nanocost_numeric::Sampler;
use nanocost_units::{FeatureSize, UnitError};

/// Model of the relative error of pre-layout physical prediction.
///
/// The error standard deviation is
///
/// ```text
/// σ(λ, R) = σ_ref · (λ_ref / λ)^q / (1 + k · log2(R))
/// ```
///
/// where `R ≥ 1` is the simulation-reuse factor of the design's dominant
/// patterns (1 for fully irregular artwork) and `q` reflects the growing
/// interaction neighborhood.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PredictionModel {
    sigma_ref: f64,
    reference_lambda_um: f64,
    lambda_exponent: f64,
    regularity_gain: f64,
}

impl PredictionModel {
    /// Creates a prediction model.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if any parameter is non-finite, or if
    /// `sigma_ref`/`lambda_exponent` are not strictly positive, or
    /// `regularity_gain` is negative.
    pub fn new(
        sigma_ref: f64,
        reference_lambda: FeatureSize,
        lambda_exponent: f64,
        regularity_gain: f64,
    ) -> Result<Self, UnitError> {
        for (name, v) in [
            ("reference sigma", sigma_ref),
            ("lambda exponent", lambda_exponent),
        ] {
            if !v.is_finite() {
                return Err(UnitError::NonFinite { quantity: name });
            }
            if v <= 0.0 {
                return Err(UnitError::NotPositive { quantity: name, value: v });
            }
        }
        if !regularity_gain.is_finite() || regularity_gain < 0.0 {
            return Err(UnitError::OutOfRange {
                quantity: "regularity gain",
                value: regularity_gain,
                min: 0.0,
                max: f64::INFINITY,
            });
        }
        Ok(PredictionModel {
            sigma_ref,
            reference_lambda_um: reference_lambda.microns(),
            lambda_exponent,
            regularity_gain,
        })
    }

    /// A calibration representative of late-1990s flows: 8 % relative
    /// error at 0.25 µm for irregular artwork, neighborhood exponent 0.7,
    /// and a regularity gain of 0.35 per doubling of pattern reuse.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constant is valid; constants are valid"
    )]
    pub fn nanometer_default() -> Self {
        PredictionModel::new(
            0.08, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            FeatureSize::from_microns(0.25).expect("constant is valid"), // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            0.7, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            0.35, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
        )
        .expect("constants are valid")
    }

    /// The prediction-error standard deviation at node `lambda` for a
    /// design whose dominant patterns have simulation-reuse factor
    /// `reuse_factor` (≥ 1; values below one are clamped).
    #[must_use]
    pub fn sigma(&self, lambda: FeatureSize, reuse_factor: f64) -> f64 {
        let r = reuse_factor.max(1.0);
        let node = (self.reference_lambda_um / lambda.microns()).powf(self.lambda_exponent);
        self.sigma_ref * node / (1.0 + self.regularity_gain * r.log2())
    }

    /// Draws one relative prediction error (zero-mean normal with
    /// [`PredictionModel::sigma`]).
    pub fn sample_error(
        &self,
        sampler: &mut Sampler,
        lambda: FeatureSize,
        reuse_factor: f64,
    ) -> f64 {
        sampler.normal(0.0, self.sigma(lambda, reuse_factor))
    }
}

impl Default for PredictionModel {
    fn default() -> Self {
        PredictionModel::nanometer_default()
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    #[test]
    fn error_grows_as_lambda_shrinks() {
        let m = PredictionModel::nanometer_default();
        let s025 = m.sigma(um(0.25), 1.0);
        let s007 = m.sigma(um(0.07), 1.0);
        assert!((s025 - 0.08).abs() < 1e-12);
        assert!(s007 > 1.8 * s025, "{s007} vs {s025}");
    }

    #[test]
    fn regularity_shrinks_the_error() {
        let m = PredictionModel::nanometer_default();
        let irregular = m.sigma(um(0.1), 1.0);
        let regular = m.sigma(um(0.1), 256.0); // 8 doublings
        assert!(regular < irregular / 3.0, "{regular} vs {irregular}");
    }

    #[test]
    fn reuse_below_one_is_clamped() {
        let m = PredictionModel::nanometer_default();
        assert_eq!(m.sigma(um(0.25), 0.5), m.sigma(um(0.25), 1.0));
    }

    #[test]
    fn sampled_errors_have_requested_spread() {
        let m = PredictionModel::nanometer_default();
        let mut s = Sampler::seeded(17);
        let lambda = um(0.13);
        let sigma = m.sigma(lambda, 4.0);
        let xs: Vec<f64> = (0..20_000)
            .map(|_| m.sample_error(&mut s, lambda, 4.0))
            .collect();
        let est = nanocost_numeric::summarize(&xs).unwrap();
        assert!(est.mean.abs() < sigma * 0.05);
        assert!((est.std_dev - sigma).abs() < sigma * 0.05);
    }

    #[test]
    fn validation() {
        let l = um(0.25);
        assert!(PredictionModel::new(0.0, l, 0.7, 0.3).is_err());
        assert!(PredictionModel::new(0.08, l, 0.0, 0.3).is_err());
        assert!(PredictionModel::new(0.08, l, 0.7, -0.1).is_err());
    }
}
