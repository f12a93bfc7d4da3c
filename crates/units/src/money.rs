//! Monetary quantities: [`Dollars`] and [`CostPerArea`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use crate::area::Area;
use crate::error::{ensure_non_negative, UnitError};

/// An amount of money in United States dollars.
///
/// `Dollars` is a transparent `f64` newtype. Unlike most quantities in this
/// crate it permits negative values (costs can be netted against revenues in
/// sensitivity studies), but it must always be finite.
///
/// ```
/// use nanocost_units::Dollars;
///
/// let masks = Dollars::new(750_000.0);
/// let design = Dollars::new(12_000_000.0);
/// assert_eq!((masks + design).amount(), 12_750_000.0);
/// assert_eq!(format!("{}", masks), "$750.00k");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Dollars(f64);

impl Dollars {
    /// Zero dollars.
    pub const ZERO: Dollars = Dollars(0.0);

    /// Creates a dollar amount.
    ///
    /// # Panics
    ///
    /// Panics if `amount` is NaN or infinite. Use [`Dollars::try_new`] for a
    /// fallible variant.
    #[must_use]
    pub fn new(amount: f64) -> Self {
        assert!(amount.is_finite(), "dollar amount must be finite");
        Dollars(amount)
    }

    /// Creates a dollar amount, returning an error for non-finite input.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::NonFinite`] if `amount` is NaN or infinite.
    pub fn try_new(amount: f64) -> Result<Self, UnitError> {
        if !amount.is_finite() {
            return Err(UnitError::NonFinite { quantity: "dollar amount" });
        }
        Ok(Dollars(amount))
    }

    /// Creates a dollar amount from a value expressed in millions of dollars.
    ///
    /// ```
    /// use nanocost_units::Dollars;
    /// assert_eq!(Dollars::from_millions(2.5).amount(), 2_500_000.0);
    /// ```
    #[must_use]
    pub fn from_millions(millions: f64) -> Self {
        Dollars::new(millions * 1.0e6)
    }

    /// Creates a dollar amount from a value expressed in billions of dollars.
    #[must_use]
    pub fn from_billions(billions: f64) -> Self {
        Dollars::new(billions * 1.0e9)
    }

    /// The raw amount in dollars.
    #[must_use]
    pub fn amount(self) -> f64 {
        self.0
    }

    /// The amount expressed in millions of dollars.
    #[must_use]
    pub fn to_millions(self) -> f64 {
        self.0 / 1.0e6
    }

    /// Returns the smaller of two amounts.
    #[must_use]
    pub fn min(self, other: Dollars) -> Dollars {
        Dollars(self.0.min(other.0))
    }

    /// Returns the larger of two amounts.
    #[must_use]
    pub fn max(self, other: Dollars) -> Dollars {
        Dollars(self.0.max(other.0))
    }

    /// True if the amount is negative.
    #[must_use]
    pub fn is_negative(self) -> bool {
        self.0 < 0.0
    }
}

impl fmt::Display for Dollars {
    /// Formats with an engineering suffix: `$1.25B`, `$34.00`, `-$3.10M`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = if self.0 < 0.0 { "-" } else { "" };
        let a = self.0.abs();
        if a >= 1.0e9 {
            write!(f, "{sign}${:.2}B", a / 1.0e9)
        } else if a >= 1.0e6 {
            write!(f, "{sign}${:.2}M", a / 1.0e6)
        } else if a >= 1.0e3 {
            write!(f, "{sign}${:.2}k", a / 1.0e3)
        } else if a >= 0.01 || a == 0.0 { // nanocost-audit: allow(R2, reason = "exact sentinel comparison; the compared value is exactly representable")
            write!(f, "{sign}${a:.2}")
        } else {
            // Sub-cent magnitudes (per-transistor costs live here).
            write!(f, "{sign}${a:.3e}")
        }
    }
}

impl Add for Dollars {
    type Output = Dollars;
    fn add(self, rhs: Dollars) -> Dollars {
        Dollars(self.0 + rhs.0)
    }
}

impl AddAssign for Dollars {
    fn add_assign(&mut self, rhs: Dollars) {
        self.0 += rhs.0;
    }
}

impl Sub for Dollars {
    type Output = Dollars;
    fn sub(self, rhs: Dollars) -> Dollars {
        Dollars(self.0 - rhs.0)
    }
}

impl SubAssign for Dollars {
    fn sub_assign(&mut self, rhs: Dollars) {
        self.0 -= rhs.0;
    }
}

impl Neg for Dollars {
    type Output = Dollars;
    fn neg(self) -> Dollars {
        Dollars(-self.0)
    }
}

impl Mul<f64> for Dollars {
    type Output = Dollars;
    fn mul(self, rhs: f64) -> Dollars {
        Dollars(self.0 * rhs)
    }
}

impl Mul<Dollars> for f64 {
    type Output = Dollars;
    fn mul(self, rhs: Dollars) -> Dollars {
        Dollars(self * rhs.0)
    }
}

impl Div<f64> for Dollars {
    type Output = Dollars;
    fn div(self, rhs: f64) -> Dollars {
        Dollars(self.0 / rhs)
    }
}

impl Div for Dollars {
    /// Dividing two amounts yields a dimensionless ratio.
    type Output = f64;
    fn div(self, rhs: Dollars) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Dollars {
    fn sum<I: Iterator<Item = Dollars>>(iter: I) -> Dollars {
        iter.fold(Dollars::ZERO, Add::add)
    }
}

/// A cost surface density in dollars per square centimeter of silicon.
///
/// This is the `C_sq` / `Cm_sq` / `Cd_sq` quantity of the Maly cost model:
/// the paper's headline ITRS assumption is `C_sq = 8 $/cm²`.
///
/// ```
/// use nanocost_units::{Area, CostPerArea};
///
/// let c_sq = CostPerArea::per_cm2(8.0);
/// let die = Area::from_cm2(2.0);
/// assert_eq!((c_sq * die).amount(), 16.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CostPerArea(f64);

impl CostPerArea {
    /// Zero cost per unit area.
    pub const ZERO: CostPerArea = CostPerArea(0.0);

    /// Creates a cost density from dollars per square centimeter.
    ///
    /// # Panics
    ///
    /// Panics if `dollars_per_cm2` is negative or non-finite. Use
    /// [`CostPerArea::try_per_cm2`] for a fallible variant.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract; try_per_cm2 is the fallible twin"
    )]
    pub fn per_cm2(dollars_per_cm2: f64) -> Self {
        CostPerArea(
            ensure_non_negative("cost per cm²", dollars_per_cm2)
                .expect("cost per cm² must be finite and non-negative"),
        )
    }

    /// Creates a cost density, returning an error for invalid input.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the value is negative or non-finite.
    pub fn try_per_cm2(dollars_per_cm2: f64) -> Result<Self, UnitError> {
        ensure_non_negative("cost per cm²", dollars_per_cm2).map(CostPerArea)
    }

    /// The raw density in dollars per square centimeter.
    #[must_use]
    pub fn dollars_per_cm2(self) -> f64 {
        self.0
    }
}

impl fmt::Display for CostPerArea {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${:.2}/cm²", self.0)
    }
}

impl Add for CostPerArea {
    type Output = CostPerArea;
    fn add(self, rhs: CostPerArea) -> CostPerArea {
        CostPerArea(self.0 + rhs.0)
    }
}

impl Mul<Area> for CostPerArea {
    type Output = Dollars;
    fn mul(self, rhs: Area) -> Dollars {
        Dollars::new(self.0 * rhs.cm2())
    }
}

impl Mul<CostPerArea> for Area {
    type Output = Dollars;
    fn mul(self, rhs: CostPerArea) -> Dollars {
        rhs * self
    }
}

impl Mul<f64> for CostPerArea {
    type Output = CostPerArea;
    fn mul(self, rhs: f64) -> CostPerArea {
        CostPerArea(self.0 * rhs)
    }
}

impl Div<Area> for Dollars {
    /// Spreads a total cost over an area, yielding a cost density.
    ///
    /// This is eq. (5) of the paper: `Cd_sq = (C_MA + C_DE)/(N_w·A_w)`.
    type Output = CostPerArea;
    fn div(self, rhs: Area) -> CostPerArea {
        CostPerArea(self.0 / rhs.cm2())
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
    fn dollars_arithmetic_is_linear() {
        let a = Dollars::new(10.0);
        let b = Dollars::new(4.0);
        assert_eq!((a - b).amount(), 6.0);
        assert_eq!((a * 2.0).amount(), 20.0);
        assert_eq!((a / 4.0).amount(), 2.5);
        assert_eq!(a / b, 2.5);
        assert_eq!((-a).amount(), -10.0);
    }

    #[test]
    fn dollars_display_uses_engineering_suffixes() {
        assert_eq!(Dollars::new(34.0).to_string(), "$34.00");
        assert_eq!(Dollars::new(750_000.0).to_string(), "$750.00k");
        assert_eq!(Dollars::from_millions(3.1).to_string(), "$3.10M");
        assert_eq!(Dollars::from_billions(2.0).to_string(), "$2.00B");
        assert_eq!(Dollars::new(-1_500_000.0).to_string(), "-$1.50M");
        assert_eq!(Dollars::ZERO.to_string(), "$0.00");
    }

    #[test]
    fn sub_cent_amounts_render_in_scientific_notation() {
        // Per-transistor costs are micro-dollars; they must not collapse
        // to "$0.00".
        assert_eq!(Dollars::new(2.48e-6).to_string(), "$2.480e-6");
        assert_eq!(Dollars::new(-3.1e-7).to_string(), "-$3.100e-7");
        assert_eq!(Dollars::new(0.01).to_string(), "$0.01");
    }

    #[test]
    fn dollars_sum_over_iterator() {
        let total: Dollars = (1..=4).map(|k| Dollars::new(k as f64)).sum();
        assert_eq!(total.amount(), 10.0);
    }

    #[test]
    fn dollars_rejects_non_finite() {
        assert!(Dollars::try_new(f64::NAN).is_err());
        assert!(Dollars::try_new(f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn cost_per_area_times_area_is_dollars() {
        let c = CostPerArea::per_cm2(8.0);
        let a = Area::from_cm2(4.25);
        assert!(((c * a).amount() - 34.0).abs() < 1e-12);
        assert!(((a * c).amount() - 34.0).abs() < 1e-12);
    }

    #[test]
    fn dollars_over_area_recovers_density() {
        let spread = Dollars::from_millions(8.0) / Area::from_cm2(1.0e6);
        assert!((spread.dollars_per_cm2() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn cost_per_area_rejects_negative() {
        assert!(CostPerArea::try_per_cm2(-1.0).is_err());
    }

    #[test]
    fn min_max_behave() {
        let a = Dollars::new(1.0);
        let b = Dollars::new(2.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
