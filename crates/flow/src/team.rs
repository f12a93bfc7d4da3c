//! Design-team economics: what one design iteration costs.
//!
//! The effort model (eq. 6) prices the whole project; the iteration
//! simulator counts spins. This module supplies the bridge — the loaded
//! cost of running the team through one iteration — so simulated iteration
//! counts convert to dollars comparable with eq. 6.

use nanocost_units::{Dollars, TransistorCount, UnitError};

/// A design-team cost model.
///
/// Team size grows with the square root of design size (communication
/// overhead keeps large teams sub-linear), and each iteration occupies the
/// full team for a fixed number of weeks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignTeamModel {
    /// Fully loaded cost of one engineer-year.
    loaded_cost_per_engineer_year: Dollars,
    /// Baseline team size (independent of design size).
    base_engineers: f64,
    /// Additional engineers per √(millions of transistors).
    engineers_per_sqrt_mtr: f64,
    /// Calendar weeks per design iteration.
    weeks_per_iteration: f64,
}

impl DesignTeamModel {
    /// Creates a team model.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if any parameter is non-finite or not strictly
    /// positive.
    pub fn new(
        loaded_cost_per_engineer_year: Dollars,
        base_engineers: f64,
        engineers_per_sqrt_mtr: f64,
        weeks_per_iteration: f64,
    ) -> Result<Self, UnitError> {
        for (name, v) in [
            ("loaded cost per engineer-year", loaded_cost_per_engineer_year.amount()),
            ("base engineers", base_engineers),
            ("engineers per sqrt(Mtr)", engineers_per_sqrt_mtr),
            ("weeks per iteration", weeks_per_iteration),
        ] {
            if !v.is_finite() {
                return Err(UnitError::NonFinite {
                    quantity: "team model parameter",
                });
            }
            if v <= 0.0 {
                return Err(UnitError::NotPositive {
                    quantity: "team model parameter",
                    value: v,
                });
            }
            let _ = name;
        }
        Ok(DesignTeamModel {
            loaded_cost_per_engineer_year,
            base_engineers,
            engineers_per_sqrt_mtr,
            weeks_per_iteration,
        })
    }

    /// Late-1990s defaults: $250 k loaded engineer-year, 10-engineer core
    /// team plus 8 per √Mtr, 6-week iterations.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid"
    )]
    pub fn nanometer_default() -> Self {
        DesignTeamModel::new(Dollars::new(250_000.0), 10.0, 8.0, 6.0) // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            .expect("constants are valid")
    }

    /// Team size for a design of the given size.
    #[must_use]
    pub fn engineers(&self, transistors: TransistorCount) -> f64 {
        self.base_engineers + self.engineers_per_sqrt_mtr * transistors.millions().sqrt()
    }

    /// Cost of one full-team iteration on a design of the given size.
    #[must_use]
    pub fn cost_per_iteration(&self, transistors: TransistorCount) -> Dollars {
        /// Calendar weeks per engineer-year, converting iteration effort to
        /// a fraction of the loaded annual cost.
        const WEEKS_PER_YEAR: f64 = 52.0;
        self.loaded_cost_per_engineer_year
            * (self.engineers(transistors) * self.weeks_per_iteration / WEEKS_PER_YEAR)
    }

    /// Total design cost for a project that took `iterations` spins.
    #[must_use]
    pub fn project_cost(&self, transistors: TransistorCount, iterations: f64) -> Dollars {
        self.cost_per_iteration(transistors) * iterations
    }
}

impl Default for DesignTeamModel {
    fn default() -> Self {
        DesignTeamModel::nanometer_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mt(v: f64) -> TransistorCount {
        TransistorCount::from_millions(v)
    }

    #[test]
    fn team_size_grows_sublinearly() {
        let m = DesignTeamModel::nanometer_default();
        let small = m.engineers(mt(1.0));
        let big = m.engineers(mt(100.0));
        assert!((small - 18.0).abs() < 1e-9);
        assert!((big - 90.0).abs() < 1e-9);
        assert!(big / small < 100.0 / 1.0);
    }

    #[test]
    fn iteration_cost_magnitude_is_plausible() {
        // 10M-tr design: ~35 engineers · 6/52 year · $250k ≈ $1.0M/spin.
        let m = DesignTeamModel::nanometer_default();
        let c = m.cost_per_iteration(mt(10.0));
        assert!(c.amount() > 0.5e6 && c.amount() < 2.0e6, "{c}");
    }

    #[test]
    fn project_cost_linear_in_iterations() {
        let m = DesignTeamModel::nanometer_default();
        let one = m.project_cost(mt(10.0), 1.0);
        let ten = m.project_cost(mt(10.0), 10.0);
        assert!((ten.amount() / one.amount() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn validation() {
        assert!(DesignTeamModel::new(Dollars::ZERO, 10.0, 8.0, 6.0).is_err());
        assert!(DesignTeamModel::new(Dollars::new(1.0), 0.0, 8.0, 6.0).is_err());
        assert!(DesignTeamModel::new(Dollars::new(1.0), 10.0, 8.0, 0.0).is_err());
    }
}
