//! Bounded dimensionless fractions: manufacturing [`Yield`] and hardware
//! [`Utilization`].

use std::fmt;
use std::ops::Mul;

use crate::error::{ensure_in_range, UnitError};

/// Manufacturing yield: the fraction of fabricated chips that are fully
/// functional, in `(0, 1]`.
///
/// Yield enters the cost model in the denominator (eq. 1/3/4), so a yield of
/// zero would make cost infinite; construction therefore rejects zero.
///
/// ```
/// use nanocost_units::Yield;
///
/// let y = Yield::new(0.8)?;
/// assert_eq!(y.value(), 0.8);
/// assert_eq!(format!("{}", y), "80.0%");
/// # Ok::<(), nanocost_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Yield(f64);

impl Yield {
    /// Perfect yield.
    pub const PERFECT: Yield = Yield(1.0);

    /// Creates a yield value.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `value` is non-finite, `<= 0`, or `> 1`.
    pub fn new(value: f64) -> Result<Self, UnitError> {
        let v = ensure_in_range("yield", value, 0.0, 1.0)?;
        if v == 0.0 { // nanocost-audit: allow(R2, reason = "exact sentinel comparison; the compared value is exactly representable")
            return Err(UnitError::NotPositive {
                quantity: "yield",
                value: v,
            });
        }
        Ok(Yield(v))
    }

    /// Creates a yield, clamping into `[floor, 1]` instead of failing.
    ///
    /// Useful for model outputs that can numerically underflow to zero; the
    /// default floor used throughout this workspace is `1e-9`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[must_use]
    pub fn clamped(value: f64) -> Self {
        assert!(!value.is_nan(), "yield must not be NaN");
        Yield(value.clamp(1.0e-9, 1.0))
    }

    /// The raw fraction in `(0, 1]`.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The fraction of chips lost, `1 - Y`.
    #[must_use]
    pub fn loss(self) -> f64 {
        1.0 - self.0
    }
}

impl fmt::Display for Yield {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

impl Mul for Yield {
    type Output = Yield;
    /// Composes two independent yield mechanisms (e.g. defect-limited and
    /// parametric yield): `Y = Y₁ · Y₂`.
    fn mul(self, rhs: Yield) -> Yield {
        Yield(self.0 * rhs.0)
    }
}

/// Hardware utilization `u`: the fraction of fabricated transistors that
/// deliver useful function, in `(0, 1]`.
///
/// The paper (§2.5) introduces `u` to model FPGA-style devices and partially
/// used IP; it substitutes `Y → u·Y` in the generalized model (eq. 7).
///
/// ```
/// use nanocost_units::{Utilization, Yield};
///
/// let u = Utilization::new(0.25)?;
/// let y = Yield::new(0.8)?;
/// let effective = u * y;
/// assert!((effective.value() - 0.2).abs() < 1e-12);
/// # Ok::<(), nanocost_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Utilization(f64);

impl Utilization {
    /// Full utilization (every fabricated transistor is useful), the implicit
    /// assumption of the simple model (eq. 4).
    pub const FULL: Utilization = Utilization(1.0);

    /// Creates a utilization value.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `value` is non-finite, `<= 0`, or `> 1`.
    pub fn new(value: f64) -> Result<Self, UnitError> {
        let v = ensure_in_range("utilization", value, 0.0, 1.0)?;
        if v == 0.0 { // nanocost-audit: allow(R2, reason = "exact sentinel comparison; the compared value is exactly representable")
            return Err(UnitError::NotPositive {
                quantity: "utilization",
                value: v,
            });
        }
        Ok(Utilization(v))
    }

    /// The raw fraction in `(0, 1]`.
    #[must_use]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Utilization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1}%", self.0 * 100.0)
    }
}

impl Mul<Yield> for Utilization {
    type Output = Yield;
    /// The paper's `u·Y` substitution: an under-utilized part behaves, cost
    /// wise, exactly like a lower-yielding one.
    fn mul(self, rhs: Yield) -> Yield {
        Yield(self.0 * rhs.value())
    }
}

impl Mul<Utilization> for Yield {
    type Output = Yield;
    fn mul(self, rhs: Utilization) -> Yield {
        rhs * self
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;

    #[test]
    fn yield_accepts_unit_interval_excluding_zero() {
        assert!(Yield::new(1.0).is_ok());
        assert!(Yield::new(1.0e-6).is_ok());
        assert!(Yield::new(0.0).is_err());
        assert!(Yield::new(-0.1).is_err());
        assert!(Yield::new(1.0001).is_err());
        assert!(Yield::new(f64::NAN).is_err());
    }

    #[test]
    fn clamped_floors_at_tiny_positive() {
        assert_eq!(Yield::clamped(-5.0).value(), 1.0e-9);
        assert_eq!(Yield::clamped(0.5).value(), 0.5);
        assert_eq!(Yield::clamped(3.0).value(), 1.0);
    }

    #[test]
    fn yield_composition_multiplies() {
        let a = Yield::new(0.9).unwrap();
        let b = Yield::new(0.5).unwrap();
        assert!(((a * b).value() - 0.45).abs() < 1e-12);
    }

    #[test]
    fn loss_is_complement() {
        assert!((Yield::new(0.8).unwrap().loss() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn utilization_substitution_matches_paper() {
        // u·Y with u=0.1 (FPGA-like) degrades effective yield tenfold.
        let u = Utilization::new(0.1).unwrap();
        let y = Yield::new(0.9).unwrap();
        assert!(((u * y).value() - 0.09).abs() < 1e-12);
        assert_eq!(u * y, y * u);
    }

    #[test]
    fn displays_as_percentage() {
        assert_eq!(Yield::new(0.456).unwrap().to_string(), "45.6%");
        assert_eq!(Utilization::FULL.to_string(), "100.0%");
    }
}
