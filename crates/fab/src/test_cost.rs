//! Cost of test — the extension the paper says "could be easily included
//! within the proposed cost-modeling framework" (§2.5).
//!
//! Test cost per die is tester time × tester depreciation rate. Time grows
//! sub-linearly with transistor count (structural/scan test amortizes), and
//! every die — good or bad — must be tested, so the per-*good*-die charge
//! is inflated by 1/Y exactly like the manufacturing terms.

use nanocost_units::{Dollars, TransistorCount, UnitError, Yield};

/// Production test cost model.
///
/// ```
/// use nanocost_units::{TransistorCount, Yield};
/// use nanocost_fab::TestCostModel;
///
/// let t = TestCostModel::default();
/// let per_good_die = t.cost_per_good_die(
///     TransistorCount::from_millions(10.0),
///     Yield::new(0.8)?,
/// );
/// assert!(per_good_die.amount() > 0.0);
/// # Ok::<(), nanocost_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestCostModel {
    /// Tester cost per second of socket time.
    tester_rate_per_second: Dollars,
    /// Fixed handling/indexing time per die, seconds.
    base_seconds: f64,
    /// Coefficient of the transistor-dependent term.
    seconds_per_sqrt_transistor: f64,
}

impl TestCostModel {
    /// Creates a test cost model.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the rate is negative, or either time
    /// parameter is negative or non-finite.
    pub fn new(
        tester_rate_per_second: Dollars,
        base_seconds: f64,
        seconds_per_sqrt_transistor: f64,
    ) -> Result<Self, UnitError> {
        if tester_rate_per_second.amount() < 0.0 {
            return Err(UnitError::OutOfRange {
                quantity: "tester rate",
                value: tester_rate_per_second.amount(),
                min: 0.0,
                max: f64::INFINITY,
            });
        }
        for (name, v) in [
            ("base test time", base_seconds),
            ("per-transistor test time", seconds_per_sqrt_transistor),
        ] {
            if !v.is_finite() {
                return Err(UnitError::NonFinite { quantity: name });
            }
            if v < 0.0 {
                return Err(UnitError::OutOfRange {
                    quantity: name,
                    value: v,
                    min: 0.0,
                    max: f64::INFINITY,
                });
            }
        }
        Ok(TestCostModel {
            tester_rate_per_second,
            base_seconds,
            seconds_per_sqrt_transistor,
        })
    }

    /// Socket time for one die, in seconds:
    /// `base + k·√N_tr` (test pattern count grows with design size but scan
    /// compression keeps it sub-linear).
    #[must_use]
    pub fn test_seconds(&self, transistors: TransistorCount) -> f64 {
        self.base_seconds + self.seconds_per_sqrt_transistor * transistors.count().sqrt()
    }

    /// Cost of testing one die (good or bad).
    #[must_use]
    pub fn cost_per_die(&self, transistors: TransistorCount) -> Dollars {
        self.tester_rate_per_second * self.test_seconds(transistors)
    }

    /// Cost attributed to each *good* die: every fabricated die gets
    /// tested, so the charge scales as `1/Y`.
    #[must_use]
    pub fn cost_per_good_die(&self, transistors: TransistorCount, y: Yield) -> Dollars {
        self.cost_per_die(transistors) / y.value()
    }
}

impl Default for TestCostModel {
    /// Late-1990s ATE economics: a $2 M tester depreciated over 5 years of
    /// 80 % utilization ≈ 1.6 ¢/s; 0.5 s handling; 0.4 ms·√N_tr of pattern
    /// time (≈ 1.3 s for a 10 M-transistor part).
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid"
    )]
    fn default() -> Self {
        TestCostModel::new(Dollars::new(0.016), 0.5, 4.0e-4).expect("constants are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mt(x: f64) -> TransistorCount {
        TransistorCount::from_millions(x)
    }

    #[test]
    fn test_time_grows_sublinearly() {
        let t = TestCostModel::default();
        let t1 = t.test_seconds(mt(1.0));
        let t4 = t.test_seconds(mt(4.0));
        // Quadrupling the design should less than quadruple the time.
        assert!(t4 < 4.0 * t1);
        assert!(t4 > t1);
    }

    #[test]
    fn per_good_die_inflated_by_yield() {
        let t = TestCostModel::default();
        let n = mt(10.0);
        let good = t.cost_per_good_die(n, Yield::new(0.5).unwrap());
        let all = t.cost_per_die(n);
        assert!((good.amount() / all.amount() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn plausible_magnitude_for_ten_million_transistors() {
        let t = TestCostModel::default();
        let c = t.cost_per_die(mt(10.0));
        // Cents to a few dollars — not micro-dollars, not hundreds.
        assert!(c.amount() > 0.005 && c.amount() < 5.0, "{c}");
    }

    #[test]
    fn validation() {
        assert!(TestCostModel::new(Dollars::new(-0.01), 0.5, 1e-4).is_err());
        assert!(TestCostModel::new(Dollars::new(0.01), -0.5, 1e-4).is_err());
        assert!(TestCostModel::new(Dollars::new(0.01), 0.5, f64::NAN).is_err());
    }
}
