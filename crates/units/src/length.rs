//! Lithographic length quantities, chiefly the minimum feature size λ.

use std::fmt;
use std::ops::{Div, Mul};

use crate::area::Area;
use crate::error::{ensure_positive, UnitError};

/// The minimum feature size λ of a process technology.
///
/// λ is stored internally in microns. It is the single most influential
/// process parameter of the Maly cost model: the manufactured cost of a
/// transistor scales as λ² (eq. 3), and many substrate models (mask cost,
/// defect density, prediction error) are driven by it.
///
/// ```
/// use nanocost_units::FeatureSize;
///
/// let node = FeatureSize::from_nanometers(180.0);
/// assert!((node.microns() - 0.18).abs() < 1e-12);
/// assert_eq!(format!("{}", node), "0.180µm");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct FeatureSize {
    microns: f64,
}

impl FeatureSize {
    /// Creates a feature size from microns.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `microns` is non-finite or not strictly
    /// positive, or if λ² overflows an [`Area`] (λ above about 1.3e158 µm),
    /// so that [`FeatureSize::square`] never panics.
    pub fn from_microns(microns: f64) -> Result<Self, UnitError> {
        let size = FeatureSize {
            microns: ensure_positive("feature size (µm)", microns)?,
        };
        if !(size.centimeters() * size.centimeters()).is_finite() {
            return Err(UnitError::OutOfRange {
                quantity: "feature size (µm)",
                value: microns,
                min: 0.0,
                max: f64::MAX.sqrt() * 1.0e4,
            });
        }
        Ok(size)
    }

    /// Creates a feature size from nanometers.
    ///
    /// # Panics
    ///
    /// Panics if `nanometers` is non-finite or not strictly positive; use
    /// [`FeatureSize::from_microns`] with a converted value for a fallible
    /// construction.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract; from_microns is the fallible twin"
    )]
    pub fn from_nanometers(nanometers: f64) -> Self {
        FeatureSize::from_microns(nanometers / 1000.0)
            .expect("feature size in nanometers must be finite and positive")
    }

    /// λ in microns.
    #[must_use]
    pub fn microns(self) -> f64 {
        self.microns
    }

    /// λ in nanometers.
    #[must_use]
    pub fn nanometers(self) -> f64 {
        self.microns * 1000.0
    }

    /// λ in centimeters (the unit in which areas are accounted).
    #[must_use]
    pub fn centimeters(self) -> f64 {
        self.microns * 1.0e-4
    }

    /// The area of one λ × λ square, in [`Area`] units.
    ///
    /// The design decompression index `s_d` counts how many of these squares
    /// an average transistor occupies, so `A_ch = N_tr · s_d · λ²` (eq. 2).
    ///
    /// ```
    /// use nanocost_units::FeatureSize;
    /// let lambda = FeatureSize::from_microns(1.0)?;
    /// // 1 µm² = 1e-8 cm²
    /// assert!((lambda.square().cm2() - 1.0e-8).abs() < 1e-20);
    /// # Ok::<(), nanocost_units::UnitError>(())
    /// ```
    #[must_use]
    pub fn square(self) -> Area {
        let cm = self.centimeters();
        Area::from_cm2(cm * cm)
    }

    /// The dimensionless scale factor from this node to `other`
    /// (`other.microns / self.microns`).
    ///
    /// Values below one mean `other` is a smaller (newer) node.
    #[must_use]
    pub fn scale_to(self, other: FeatureSize) -> f64 {
        other.microns / self.microns
    }
}

impl fmt::Display for FeatureSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.microns < 0.1 {
            write!(f, "{:.0}nm", self.nanometers())
        } else {
            write!(f, "{:.3}µm", self.microns)
        }
    }
}

impl Mul<f64> for FeatureSize {
    type Output = FeatureSize;
    /// Scales the node by a positive factor (e.g. a 0.7× shrink).
    ///
    /// # Panics
    ///
    /// Panics if the resulting length would be non-positive, non-finite
    /// or too large for [`FeatureSize::from_microns`].
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract on the Mul impl; shrink factors are positive"
    )]
    fn mul(self, rhs: f64) -> FeatureSize {
        FeatureSize::from_microns(self.microns * rhs).expect("scaled feature size must be positive")
    }
}

impl Div for FeatureSize {
    type Output = f64;
    fn div(self, rhs: FeatureSize) -> f64 {
        self.microns / rhs.microns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nanometer_micron_round_trip() {
        let l = FeatureSize::from_nanometers(250.0);
        assert!((l.microns() - 0.25).abs() < 1e-12);
        assert!((l.nanometers() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn lambda_square_area_matches_hand_calculation() {
        // 0.25 µm => 0.25e-4 cm, squared => 6.25e-10 cm².
        let l = FeatureSize::from_microns(0.25).unwrap();
        assert!((l.square().cm2() - 6.25e-10).abs() < 1e-22);
    }

    #[test]
    fn display_switches_to_nanometers_below_100nm() {
        assert_eq!(FeatureSize::from_nanometers(70.0).to_string(), "70nm");
        assert_eq!(FeatureSize::from_microns(0.35).unwrap().to_string(), "0.350µm");
    }

    #[test]
    fn rejects_zero_negative_and_non_finite() {
        assert!(FeatureSize::from_microns(0.0).is_err());
        assert!(FeatureSize::from_microns(-0.1).is_err());
        assert!(FeatureSize::from_microns(f64::NAN).is_err());
        // Finite, but its cm² square is not: `square` would have to panic.
        assert!(FeatureSize::from_microns(1.0e200).is_err());
        assert!(FeatureSize::from_microns(1.0e158).unwrap().square().cm2().is_finite());
    }

    #[test]
    fn scale_to_is_ratio() {
        let a = FeatureSize::from_microns(0.25).unwrap();
        let b = FeatureSize::from_microns(0.18).unwrap();
        assert!((a.scale_to(b) - 0.72).abs() < 1e-12);
        assert!((a / b - 0.25 / 0.18).abs() < 1e-12);
    }

    #[test]
    fn shrink_by_multiplication() {
        let a = FeatureSize::from_microns(0.5).unwrap();
        let shrunk = a * 0.7;
        assert!((shrunk.microns() - 0.35).abs() < 1e-12);
    }
}
