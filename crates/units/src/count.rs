//! Discrete counts: transistors, chips, and wafers.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, Div, Mul};

use crate::error::{ensure_positive, UnitError};

/// A number of transistors.
///
/// Stored as `f64` because published data (and the cost model) routinely use
/// fractional millions ("0.19 M transistors"); the quantity is treated as a
/// continuous magnitude, not an exact integer.
///
/// ```
/// use nanocost_units::TransistorCount;
///
/// let n = TransistorCount::from_millions(9.5);
/// assert_eq!(n.count(), 9_500_000.0);
/// assert_eq!(format!("{}", n), "9.50M tr");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct TransistorCount(f64);

impl TransistorCount {
    /// Creates a transistor count.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `count` is non-finite or not strictly
    /// positive.
    pub fn new(count: f64) -> Result<Self, UnitError> {
        ensure_positive("transistor count", count).map(TransistorCount)
    }

    /// Creates a transistor count from millions of transistors.
    ///
    /// # Panics
    ///
    /// Panics if `millions` is non-finite or not strictly positive.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract; TransistorCount::new is the fallible twin"
    )]
    pub fn from_millions(millions: f64) -> Self {
        TransistorCount::new(millions * 1.0e6)
            .expect("transistor count in millions must be positive")
    }

    /// The raw count of transistors.
    #[must_use]
    pub fn count(self) -> f64 {
        self.0
    }

    /// The count expressed in millions.
    #[must_use]
    pub fn millions(self) -> f64 {
        self.0 / 1.0e6
    }
}

impl fmt::Display for TransistorCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1.0e9 {
            write!(f, "{:.2}B tr", self.0 / 1.0e9)
        } else if self.0 >= 1.0e6 {
            write!(f, "{:.2}M tr", self.0 / 1.0e6)
        } else {
            write!(f, "{:.0} tr", self.0)
        }
    }
}

impl Add for TransistorCount {
    type Output = TransistorCount;
    fn add(self, rhs: TransistorCount) -> TransistorCount {
        TransistorCount(self.0 + rhs.0)
    }
}

impl Mul<f64> for TransistorCount {
    type Output = TransistorCount;
    /// # Panics
    ///
    /// Panics if the scaled count would be non-positive or non-finite.
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract on the Mul impl; callers scale by positive factors"
    )]
    fn mul(self, rhs: f64) -> TransistorCount {
        TransistorCount::new(self.0 * rhs).expect("scaled transistor count must be positive")
    }
}

impl Div for TransistorCount {
    type Output = f64;
    fn div(self, rhs: TransistorCount) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for TransistorCount {
    /// # Panics
    ///
    /// Panics when summing an empty iterator: a transistor count must be
    /// strictly positive.
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract on the Sum impl; empty sums are a caller bug"
    )]
    fn sum<I: Iterator<Item = TransistorCount>>(iter: I) -> TransistorCount {
        let total: f64 = iter.map(|t| t.0).sum();
        TransistorCount::new(total).expect("sum of transistor counts must be positive")
    }
}

/// A number of wafers (the manufacturing volume `N_w` of eq. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WaferCount(u64);

impl WaferCount {
    /// Creates a wafer count.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `count` is zero (a production run fabricates
    /// at least one wafer).
    pub fn new(count: u64) -> Result<Self, UnitError> {
        if count == 0 {
            return Err(UnitError::NotPositive {
                quantity: "wafer count",
                value: 0.0,
            });
        }
        Ok(WaferCount(count))
    }

    /// The raw number of wafers.
    #[must_use]
    pub fn count(self) -> u64 {
        self.0
    }

    /// The count as an `f64` for use in continuous cost formulas.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for WaferCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} wafers", self.0)
    }
}

/// A number of chips (dice), e.g. the gross dice per wafer `N_ch` of eq. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChipCount(u64);

impl ChipCount {
    /// Zero chips (a die too large for the wafer).
    pub const ZERO: ChipCount = ChipCount(0);

    /// Creates a chip count. Zero is permitted: an oversized die yields no
    /// chips per wafer, which callers must handle.
    #[must_use]
    pub fn new(count: u64) -> Self {
        ChipCount(count)
    }

    /// The raw number of chips.
    #[must_use]
    pub fn count(self) -> u64 {
        self.0
    }

    /// The count as an `f64` for use in continuous cost formulas.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// True if no chips fit.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for ChipCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} chips", self.0)
    }
}

impl Mul<WaferCount> for ChipCount {
    type Output = ChipCount;
    /// Total chips across a production run of wafers.
    fn mul(self, rhs: WaferCount) -> ChipCount {
        ChipCount(self.0 * rhs.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transistor_count_million_round_trip() {
        let n = TransistorCount::from_millions(4.5);
        assert!((n.millions() - 4.5).abs() < 1e-12);
        assert!((n.count() - 4.5e6).abs() < 1e-3);
    }

    #[test]
    fn transistor_count_rejects_invalid() {
        assert!(TransistorCount::new(0.0).is_err());
        assert!(TransistorCount::new(-1.0).is_err());
        assert!(TransistorCount::new(f64::INFINITY).is_err());
    }

    #[test]
    fn transistor_display_scales() {
        assert_eq!(TransistorCount::new(500.0).unwrap().to_string(), "500 tr");
        assert_eq!(TransistorCount::from_millions(22.0).to_string(), "22.00M tr");
        assert_eq!(
            TransistorCount::from_millions(1500.0).to_string(),
            "1.50B tr"
        );
    }

    #[test]
    fn transistor_sum_and_ratio() {
        let mem = TransistorCount::from_millions(6.0);
        let logic = TransistorCount::from_millions(3.0);
        let total: TransistorCount = [mem, logic].into_iter().sum();
        assert!((total.millions() - 9.0).abs() < 1e-12);
        assert!((mem / total - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn wafer_count_rejects_zero() {
        assert!(WaferCount::new(0).is_err());
        assert_eq!(WaferCount::new(5000).unwrap().count(), 5000);
    }

    #[test]
    fn chip_count_permits_zero_and_scales_by_wafers() {
        assert!(ChipCount::ZERO.is_zero());
        let per_wafer = ChipCount::new(120);
        let run = WaferCount::new(50).unwrap();
        assert_eq!((per_wafer * run).count(), 6000);
    }
}
