//! Schedules and market windows: the *time* cost of design iterations.
//!
//! §2.2.2 attributes the industry's worsening densities to "the time to
//! market pressure". Cost models alone cannot express that force — a
//! denser design is always cheaper per transistor at high volume — so
//! this module prices *lateness*: every design iteration consumes
//! calendar weeks, and the achievable selling price erodes while the
//! product is not on the market.

use nanocost_units::{Dollars, UnitError};

/// Calendar model of a design project.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignSchedule {
    /// Weeks of up-front work before the first iteration completes
    /// (architecture, RTL, verification setup).
    pub base_weeks: f64,
    /// Weeks consumed by each full design iteration.
    pub weeks_per_iteration: f64,
}

impl DesignSchedule {
    /// Creates a schedule.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] unless both durations are strictly positive
    /// and finite.
    pub fn new(base_weeks: f64, weeks_per_iteration: f64) -> Result<Self, UnitError> {
        for (name, v) in [
            ("base weeks", base_weeks),
            ("weeks per iteration", weeks_per_iteration),
        ] {
            if !v.is_finite() {
                return Err(UnitError::NonFinite { quantity: name });
            }
            if v <= 0.0 {
                return Err(UnitError::NotPositive { quantity: name, value: v });
            }
        }
        Ok(DesignSchedule {
            base_weeks,
            weeks_per_iteration,
        })
    }

    /// A representative late-1990s MPU-class schedule: 52 weeks of base
    /// work, 6 weeks per iteration.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid"
    )]
    pub fn nanometer_default() -> Self {
        DesignSchedule::new(52.0, 6.0).expect("constants are valid") // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
    }

    /// Calendar weeks to market entry for a project that needed
    /// `iterations` spins.
    #[must_use]
    pub fn time_to_market_weeks(&self, iterations: f64) -> f64 {
        self.base_weeks + self.weeks_per_iteration * iterations.max(0.0)
    }
}

impl Default for DesignSchedule {
    fn default() -> Self {
        DesignSchedule::nanometer_default()
    }
}

/// Market price erosion: the unit price available to a product entering
/// the market `t` weeks after project start,
/// `price(t) = launch_price · 2^(−t / price_halving_weeks)`.
///
/// Semiconductor ASPs decay roughly exponentially within a product
/// generation; the halving time is the single knob controlling how hard
/// time-to-market pressure bites.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MarketModel {
    launch_price: Dollars,
    price_halving_weeks: f64,
}

impl MarketModel {
    /// Creates a market model.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] unless the price and halving time are
    /// strictly positive and finite.
    pub fn new(launch_price: Dollars, price_halving_weeks: f64) -> Result<Self, UnitError> {
        if launch_price.amount() <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "launch price",
                value: launch_price.amount(),
            });
        }
        if !price_halving_weeks.is_finite() {
            return Err(UnitError::NonFinite {
                quantity: "price halving time",
            });
        }
        if price_halving_weeks <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "price halving time",
                value: price_halving_weeks,
            });
        }
        Ok(MarketModel {
            launch_price,
            price_halving_weeks,
        })
    }

    /// A competitive MPU-class market: $250 at concept time, halving every
    /// 52 weeks.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid"
    )]
    pub fn competitive_mpu() -> Self {
        MarketModel::new(Dollars::new(250.0), 52.0).expect("constants are valid") // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
    }

    /// A slow-moving embedded market: $40, halving every 3 years — weak
    /// time pressure.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid"
    )]
    pub fn slow_embedded() -> Self {
        MarketModel::new(Dollars::new(40.0), 156.0).expect("constants are valid") // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
    }

    /// The unit price available at market entry `t_weeks` after project
    /// start.
    #[must_use]
    pub fn unit_price(&self, t_weeks: f64) -> Dollars {
        self.launch_price * 2f64.powf(-t_weeks.max(0.0) / self.price_halving_weeks)
    }

    /// The halving time in weeks.
    #[must_use]
    pub fn price_halving_weeks(&self) -> f64 {
        self.price_halving_weeks
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
    fn time_to_market_is_affine_in_iterations() {
        let s = DesignSchedule::nanometer_default();
        assert_eq!(s.time_to_market_weeks(0.0), 52.0);
        assert_eq!(s.time_to_market_weeks(4.0), 76.0);
        // Negative iteration counts are clamped (defensive).
        assert_eq!(s.time_to_market_weeks(-3.0), 52.0);
    }

    #[test]
    fn price_halves_at_the_halving_time() {
        let m = MarketModel::competitive_mpu();
        let p0 = m.unit_price(0.0);
        let p52 = m.unit_price(52.0);
        assert!((p0.amount() - 250.0).abs() < 1e-12);
        assert!((p52.amount() - 125.0).abs() < 1e-9);
        // And again at two halving times.
        assert!((m.unit_price(104.0).amount() - 62.5).abs() < 1e-9);
    }

    #[test]
    fn slow_market_erodes_gently() {
        let fast = MarketModel::competitive_mpu();
        let slow = MarketModel::slow_embedded();
        let retention = |m: &MarketModel| m.unit_price(52.0).amount() / m.unit_price(0.0).amount();
        assert!(retention(&slow) > retention(&fast));
    }

    #[test]
    fn validation() {
        assert!(DesignSchedule::new(0.0, 6.0).is_err());
        assert!(DesignSchedule::new(52.0, -1.0).is_err());
        assert!(MarketModel::new(Dollars::ZERO, 52.0).is_err());
        assert!(MarketModel::new(Dollars::new(100.0), 0.0).is_err());
    }
}
