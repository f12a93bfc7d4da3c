//! Silicon area quantities.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul, Sub};

use crate::error::{ensure_non_negative, UnitError};

/// An area of silicon, stored in square centimeters.
///
/// Square centimeters are the natural unit of the Maly cost model because
/// manufacturing cost is accounted per cm² of fabricated wafer
/// (`C_sq` in eq. 3).
///
/// ```
/// use nanocost_units::Area;
///
/// let die = Area::from_mm2(120.0);
/// assert!((die.cm2() - 1.2).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Area {
    cm2: f64,
}

impl Area {
    /// Zero area.
    pub const ZERO: Area = Area { cm2: 0.0 };

    /// Creates an area from square centimeters.
    ///
    /// # Panics
    ///
    /// Panics if `cm2` is negative or non-finite. Use [`Area::try_from_cm2`]
    /// for a fallible variant.
    #[must_use]
    pub fn from_cm2(cm2: f64) -> Self {
        Area {
            #[expect(
                clippy::expect_used,
                reason = "documented panic contract; try_from_cm2 is the fallible twin"
            )]
            cm2: ensure_non_negative("area (cm²)", cm2)
                .expect("area must be finite and non-negative"),
        }
    }

    /// Creates an area from square centimeters, returning an error on
    /// invalid input.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `cm2` is negative or non-finite.
    pub fn try_from_cm2(cm2: f64) -> Result<Self, UnitError> {
        ensure_non_negative("area (cm²)", cm2).map(|cm2| Area { cm2 })
    }

    /// Creates an area from square millimeters.
    #[must_use]
    pub fn from_mm2(mm2: f64) -> Self {
        Area::from_cm2(mm2 * 1.0e-2)
    }

    /// Creates an area from square microns.
    #[must_use]
    pub fn from_um2(um2: f64) -> Self {
        Area::from_cm2(um2 * 1.0e-8)
    }

    /// The area in square centimeters.
    #[must_use]
    pub fn cm2(self) -> f64 {
        self.cm2
    }

    /// The area in square millimeters.
    #[must_use]
    pub fn mm2(self) -> f64 {
        self.cm2 * 1.0e2
    }

    /// The area in square microns.
    #[must_use]
    pub fn um2(self) -> f64 {
        self.cm2 * 1.0e8
    }

    /// True if this is exactly zero area.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.cm2 == 0.0 // nanocost-audit: allow(R2, reason = "exact sentinel comparison; the compared value is exactly representable")
    }

    /// The dimensionless ratio `self / other`.
    #[must_use]
    pub fn ratio(self, other: Area) -> f64 {
        self.cm2 / other.cm2
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.cm2 >= 1.0e4 {
            write!(f, "{:.3}m²", self.cm2 / 1.0e4)
        } else if self.cm2 >= 0.01 {
            write!(f, "{:.3}cm²", self.cm2)
        } else {
            write!(f, "{:.1}µm²", self.um2())
        }
    }
}

impl Add for Area {
    type Output = Area;
    fn add(self, rhs: Area) -> Area {
        Area::from_cm2(self.cm2 + rhs.cm2)
    }
}

impl Sub for Area {
    type Output = Area;
    /// # Panics
    ///
    /// Panics if the result would be negative: areas are non-negative.
    fn sub(self, rhs: Area) -> Area {
        Area::from_cm2(self.cm2 - rhs.cm2)
    }
}

impl Mul<f64> for Area {
    type Output = Area;
    fn mul(self, rhs: f64) -> Area {
        Area::from_cm2(self.cm2 * rhs)
    }
}

impl Mul<Area> for f64 {
    type Output = Area;
    fn mul(self, rhs: Area) -> Area {
        rhs * self
    }
}

impl Div<f64> for Area {
    type Output = Area;
    fn div(self, rhs: f64) -> Area {
        Area::from_cm2(self.cm2 / rhs)
    }
}

impl Div for Area {
    type Output = f64;
    fn div(self, rhs: Area) -> f64 {
        self.cm2 / rhs.cm2
    }
}

impl Sum for Area {
    fn sum<I: Iterator<Item = Area>>(iter: I) -> Area {
        iter.fold(Area::ZERO, Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions_round_trip() {
        let a = Area::from_mm2(250.0);
        assert!((a.cm2() - 2.5).abs() < 1e-12);
        assert!((a.mm2() - 250.0).abs() < 1e-9);
        let b = Area::from_um2(1.0e8);
        assert!((b.cm2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Area::from_cm2(1.5);
        let b = Area::from_cm2(0.5);
        assert!(((a + b).cm2() - 2.0).abs() < 1e-12);
        assert!(((a - b).cm2() - 1.0).abs() < 1e-12);
        assert!(((a * 2.0).cm2() - 3.0).abs() < 1e-12);
        assert!(((a / 3.0).cm2() - 0.5).abs() < 1e-12);
        assert!((a / b - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "area must be finite and non-negative")]
    fn subtraction_below_zero_panics() {
        let _ = Area::from_cm2(1.0) - Area::from_cm2(2.0);
    }

    #[test]
    fn try_from_rejects_bad_values() {
        assert!(Area::try_from_cm2(-1.0).is_err());
        assert!(Area::try_from_cm2(f64::NAN).is_err());
        assert!(Area::try_from_cm2(0.0).is_ok());
    }

    #[test]
    fn display_picks_sensible_scale() {
        assert_eq!(Area::from_cm2(1.21).to_string(), "1.210cm²");
        assert_eq!(Area::from_um2(55.0).to_string(), "55.0µm²");
        assert_eq!(Area::from_cm2(7.0e4).to_string(), "7.000m²");
    }

    #[test]
    fn sum_over_iterator() {
        let total: Area = (1..=3).map(|k| Area::from_cm2(k as f64)).sum();
        assert!((total.cm2() - 6.0).abs() < 1e-12);
    }
}
