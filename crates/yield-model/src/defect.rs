//! Defect densities and defect size statistics.

use std::fmt;

use nanocost_units::{FeatureSize, UnitError};

/// Density of yield-killing defects, in defects per square centimeter.
///
/// This is the `D0` of the classical yield models. Nanometer processes are
/// sensitive to ever smaller particles, so the *effective* `D0` seen by a
/// design grows as λ shrinks even when the particle environment is fixed —
/// see [`DefectDensity::scaled_to`].
///
/// ```
/// use nanocost_yield::DefectDensity;
///
/// let d0 = DefectDensity::per_cm2(0.5)?;
/// assert_eq!(d0.value(), 0.5);
/// # Ok::<(), nanocost_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct DefectDensity(f64);

impl DefectDensity {
    /// Creates a defect density from defects per cm² — the `D0` behind
    /// the `Y` term of the paper's eqs. 1–7 cost models.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `value` is negative or non-finite.
    pub fn per_cm2(value: f64) -> Result<Self, UnitError> {
        if !value.is_finite() {
            return Err(UnitError::NonFinite {
                quantity: "defect density",
            });
        }
        if value < 0.0 {
            return Err(UnitError::OutOfRange {
                quantity: "defect density",
                value,
                min: 0.0,
                max: f64::INFINITY,
            });
        }
        Ok(DefectDensity(value))
    }

    /// Defects per square centimeter — the raw `D0` the yield models
    /// behind eq. 7's `Y` consume.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// Rescales the effective density from a reference node to `target`,
    /// using the standard `(λ_ref / λ)^p` sensitivity law: as the minimum
    /// feature shrinks, previously benign particles become killers.
    ///
    /// `exponent` around 1.5–2.0 matches published critical-area arguments;
    /// the defect-size distribution's `1/x³` tail gives exactly 2.0 for
    /// particles above the resolution limit. This is the λ dependence of
    /// eq. 7's `Y(λ, …)`.
    #[must_use]
    pub fn scaled_to(self, reference: FeatureSize, target: FeatureSize, exponent: f64) -> Self {
        let ratio = reference.microns() / target.microns();
        DefectDensity(self.0 * ratio.powf(exponent))
    }
}

impl fmt::Display for DefectDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} defects/cm²", self.0)
    }
}

/// The classical defect size distribution: uniform up to the peak size
/// `x0`, then a `1/x³` tail.
///
/// Used to weight critical area over defect sizes; its key consequence is
/// that the *average* probability of failure for a layout scales with the
/// square of the inverse feature size — the default exponent used by
/// [`DefectDensity::scaled_to`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DefectSizeDistribution {
    /// Peak (most probable) defect diameter, in microns.
    x0_um: f64,
}

impl DefectSizeDistribution {
    /// Creates a distribution with the given peak defect size in microns —
    /// the classical size statistics of the Maly yield-modeling lineage
    /// the paper builds on.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `x0_um` is not strictly positive and finite.
    pub fn new(x0_um: f64) -> Result<Self, UnitError> {
        if !x0_um.is_finite() {
            return Err(UnitError::NonFinite {
                quantity: "peak defect size",
            });
        }
        if x0_um <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "peak defect size",
                value: x0_um,
            });
        }
        Ok(DefectSizeDistribution { x0_um })
    }

    /// Peak defect size in microns — the `x0` scale anchoring the
    /// distribution (cf. the paper's §2.5 yield discussion).
    #[must_use]
    pub fn peak_um(self) -> f64 {
        self.x0_um
    }

    /// Probability density at defect size `x_um` (µm) — the size
    /// weighting used by the paper's critical-area yield arguments.
    /// Normalized so that
    /// the total mass over `(0, ∞)` is one: the density is
    /// `x / x0²` below `x0` and `x0² · x⁻³ · k` above, with the standard
    /// `k = 2` normalization halves (½ below, ½ above the peak).
    #[must_use]
    pub fn density(self, x_um: f64) -> f64 {
        if x_um <= 0.0 {
            return 0.0;
        }
        let x0 = self.x0_um;
        if x_um <= x0 {
            x_um / (x0 * x0)
        } else {
            x0 * x0 / (x_um * x_um * x_um)
        }
    }

    /// Fraction of defects at least as large as `x_um` (the survival
    /// function), obtained by integrating [`DefectSizeDistribution::density`]
    /// — the tail mass that makes smaller λ see more killers, the scaling
    /// premise of eq. 7's `Y(λ, …)`.
    #[must_use]
    pub fn fraction_at_least(self, x_um: f64) -> f64 {
        let x0 = self.x0_um;
        if x_um <= 0.0 {
            return 1.0;
        }
        if x_um <= x0 {
            // 1 - ∫₀^x t/x0² dt = 1 - x²/(2 x0²)
            1.0 - (x_um * x_um) / (2.0 * x0 * x0)
        } else {
            // ∫ₓ^∞ x0²·t⁻³ dt = x0²/(2 x²)
            (x0 * x0) / (2.0 * x_um * x_um)
        }
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
    fn defect_density_validation() {
        assert!(DefectDensity::per_cm2(0.0).is_ok());
        assert!(DefectDensity::per_cm2(-0.1).is_err());
        assert!(DefectDensity::per_cm2(f64::NAN).is_err());
    }

    #[test]
    fn scaling_grows_as_lambda_shrinks() {
        let d = DefectDensity::per_cm2(0.5).unwrap();
        let scaled = d.scaled_to(um(0.25), um(0.125), 2.0);
        assert!((scaled.value() - 2.0).abs() < 1e-12);
        // Scaling to the same node is identity.
        let same = d.scaled_to(um(0.25), um(0.25), 2.0);
        assert_eq!(same.value(), 0.5);
    }

    #[test]
    fn scaling_to_larger_node_shrinks_density() {
        let d = DefectDensity::per_cm2(1.0).unwrap();
        let scaled = d.scaled_to(um(0.18), um(0.36), 1.5);
        assert!(scaled.value() < 1.0);
    }

    #[test]
    fn size_distribution_density_is_continuous_at_peak() {
        let dist = DefectSizeDistribution::new(0.1).unwrap();
        let below = dist.density(0.1 - 1e-12);
        let above = dist.density(0.1 + 1e-12);
        assert!((below - above).abs() < 1e-6);
        assert!((below - 10.0).abs() < 1e-3); // x0/x0² = 1/x0 = 10
    }

    #[test]
    fn size_distribution_survival_function_halves_at_peak() {
        let dist = DefectSizeDistribution::new(0.2).unwrap();
        assert!((dist.fraction_at_least(0.2) - 0.5).abs() < 1e-12);
        assert_eq!(dist.fraction_at_least(0.0), 1.0);
        assert!(dist.fraction_at_least(2.0) < 0.01);
    }

    #[test]
    fn size_distribution_mass_integrates_to_one() {
        let dist = DefectSizeDistribution::new(0.15).unwrap();
        // Trapezoidal integration over a wide range.
        let mut mass = 0.0;
        let step = 1e-4;
        let mut x = step;
        while x < 50.0 {
            mass += dist.density(x) * step;
            x += step;
        }
        assert!((mass - 1.0).abs() < 1e-2, "mass {mass}");
    }

    #[test]
    fn invalid_peak_rejected() {
        assert!(DefectSizeDistribution::new(0.0).is_err());
        assert!(DefectSizeDistribution::new(f64::INFINITY).is_err());
    }
}
