//! Profit-oriented density choice: reconciling Figure 1 with Figure 4.
//!
//! The paper observes (§2.2.2) that industry densities *worsen* under
//! time-to-market pressure, while its own cost model (Figure 4) says
//! denser is usually cheaper at volume. This module resolves the tension
//! by optimizing **profit** instead of cost: design iterations consume
//! calendar time, the market price erodes while the part is late, and the
//! profit-optimal density lands *sparser* than the cost-optimal one —
//! quantifying the "modern-design-mentality" the paper criticizes and
//! showing it is economically rational under fast price erosion.

use nanocost_fab::{MaskCostModel, WaferSpec};
use nanocost_flow::{ClosureSimulator, DesignSchedule, DesignTeamModel, MarketModel};
use nanocost_numeric::{refine_min, McConfig};
use nanocost_units::{
    CostPerArea, DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError, Yield,
};

use crate::optimize::OptimizeError;

/// One profit evaluation at a density point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfitReport {
    /// Density evaluated.
    pub sd: f64,
    /// Expected design iterations at this density.
    pub iterations: f64,
    /// Weeks to market entry.
    pub time_to_market_weeks: f64,
    /// Unit price at entry.
    pub unit_price: Dollars,
    /// Wafers fabricated to meet demand.
    pub wafers: f64,
    /// Total revenue (demand × entry price).
    pub revenue: Dollars,
    /// Total cost (silicon + masks + design effort).
    pub total_cost: Dollars,
    /// Revenue minus total cost.
    pub profit: Dollars,
}

/// The profit model: eq.-4 economics plus a calendar and a market.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfitModel {
    /// Wafer geometry (die count and `A_w`).
    pub wafer: WaferSpec,
    /// Manufacturing cost density `Cm_sq`.
    pub manufacturing_per_cm2: CostPerArea,
    /// Mask-set pricing.
    pub masks: MaskCostModel,
    /// The iteration simulator (density → expected iterations).
    pub closure: ClosureSimulator,
    /// Iterations → dollars.
    pub team: DesignTeamModel,
    /// Iterations → weeks.
    pub schedule: DesignSchedule,
    /// Weeks → unit price.
    pub market: MarketModel,
    /// Monte-Carlo configuration for iteration estimation.
    pub mc: McConfig,
}

impl ProfitModel {
    /// A competitive-MPU default built from every substrate's defaults —
    /// the fast-eroding market regime behind the paper's §2.2.2
    /// time-to-market observation.
    #[must_use]
    pub fn competitive_default() -> Self {
        ProfitModel {
            wafer: WaferSpec::standard_200mm(),
            manufacturing_per_cm2: CostPerArea::per_cm2(8.0), // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            masks: MaskCostModel::default(),
            closure: ClosureSimulator::nanometer_default(),
            team: DesignTeamModel::nanometer_default(),
            schedule: DesignSchedule::nanometer_default(),
            market: MarketModel::competitive_mpu(),
            mc: McConfig {
                seed: 2001,
                trials: 300,
            },
        }
    }

    /// Same economics in a slow market (weak time pressure) — the control
    /// case against which §2.2.2's density-worsening trend is measured.
    #[must_use]
    pub fn slow_market_default() -> Self {
        ProfitModel {
            market: MarketModel::slow_embedded(),
            ..ProfitModel::competitive_default()
        }
    }

    /// Evaluates the full profit pipeline at one density, for a product
    /// whose market demand is `demand_units` good parts: the fab runs just
    /// enough wafers to meet demand, so density buys *fewer wafers* (lower
    /// silicon cost, per eq. 4's amortization term) while its extra
    /// iterations delay entry (lower price on every unit sold — the
    /// §2.2.2 time-to-market penalty).
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `sd` is at or below the simulator's
    /// `s_d0`, the die outgrows the wafer, or `demand_units` is not
    /// strictly positive and finite.
    pub fn evaluate(
        &self,
        lambda: FeatureSize,
        sd: DecompressionIndex,
        transistors: TransistorCount,
        demand_units: f64,
        fab_yield: Yield,
    ) -> Result<ProfitReport, UnitError> {
        if !demand_units.is_finite() {
            return Err(UnitError::NonFinite {
                quantity: "demand units",
            });
        }
        if demand_units <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "demand units",
                value: demand_units,
            });
        }
        let iterations = self
            .closure
            .mean_iterations(self.mc, lambda, sd, 1.0)?;
        let t_weeks = self.schedule.time_to_market_weeks(iterations);
        let unit_price = self.market.unit_price(t_weeks);

        let die_area = sd.chip_area(transistors, lambda)?;
        let dice = self.wafer.gross_dice(die_area);
        if dice.is_zero() {
            return Err(UnitError::NotPositive {
                quantity: "chips per wafer",
                value: 0.0,
            });
        }
        let wafers = demand_units / (dice.as_f64() * fab_yield.value());

        let silicon = self.manufacturing_per_cm2 * (self.wafer.total_area() * wafers);
        let mask_cost = self.masks.mask_set_cost(lambda);
        let design_cost = self.team.project_cost(transistors, iterations);
        let total_cost = silicon + mask_cost + design_cost;
        let revenue = unit_price * demand_units;
        Ok(ProfitReport {
            sd: sd.squares(),
            iterations,
            time_to_market_weeks: t_weeks,
            unit_price,
            wafers,
            revenue,
            total_cost,
            profit: revenue - total_cost,
        })
    }

    /// Finds the profit-maximizing density on `[sd_lo, sd_hi]` — the
    /// profit analogue of Figure 4's cost-optimal `s_d`.
    ///
    /// # Errors
    ///
    /// Returns [`OptimizeError`] if the bracket dips into the forbidden
    /// region or the search degenerates.
    #[allow(
        clippy::too_many_arguments,
        reason = "the profit model's knobs plus the search bracket"
    )]
    pub fn optimal_sd(
        &self,
        lambda: FeatureSize,
        transistors: TransistorCount,
        demand_units: f64,
        fab_yield: Yield,
        sd_lo: f64,
        sd_hi: f64,
    ) -> Result<ProfitReport, OptimizeError> {
        // Probe the edge to surface domain errors eagerly.
        self.evaluate(
            lambda,
            DecompressionIndex::new(sd_lo)?,
            transistors,
            demand_units,
            fab_yield,
        )?;
        let objective = |s: f64| {
            DecompressionIndex::new(s).map_or(f64::INFINITY, |sd| {
                self.evaluate(lambda, sd, transistors, demand_units, fab_yield)
                    .map_or(f64::INFINITY, |r| -r.profit.amount())
            })
        };
        // The MC iteration estimate makes the objective mildly noisy; a
        // denser grid with a coarse polish is the robust choice.
        let m = refine_min(sd_lo, sd_hi, 96, 0.5, objective)?;
        Ok(self.evaluate(
            lambda,
            DecompressionIndex::new(m.x)?,
            transistors,
            demand_units,
            fab_yield,
        )?)
    }

    /// Finds the *cost*-minimizing density with the same engine — the
    /// Figure-4 yardstick against which the profit optimum's sparseness
    /// is measured (profit adds a revenue term that always rewards
    /// shipping earlier, i.e. sparser).
    ///
    /// # Errors
    ///
    /// As [`ProfitModel::optimal_sd`].
    #[allow(clippy::too_many_arguments, reason = "the same knobs as `optimal_sd`")]
    pub fn optimal_sd_cost(
        &self,
        lambda: FeatureSize,
        transistors: TransistorCount,
        demand_units: f64,
        fab_yield: Yield,
        sd_lo: f64,
        sd_hi: f64,
    ) -> Result<ProfitReport, OptimizeError> {
        self.evaluate(
            lambda,
            DecompressionIndex::new(sd_lo)?,
            transistors,
            demand_units,
            fab_yield,
        )?;
        let objective = |s: f64| {
            DecompressionIndex::new(s).map_or(f64::INFINITY, |sd| {
                self.evaluate(lambda, sd, transistors, demand_units, fab_yield)
                    .map_or(f64::INFINITY, |r| r.total_cost.amount())
            })
        };
        let m = refine_min(sd_lo, sd_hi, 96, 0.5, objective)?;
        Ok(self.evaluate(
            lambda,
            DecompressionIndex::new(m.x)?,
            transistors,
            demand_units,
            fab_yield,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DEMAND: f64 = 2.0e6; // two million units

    fn setup() -> (FeatureSize, TransistorCount, Yield) {
        (
            FeatureSize::from_microns(0.18).unwrap(),
            TransistorCount::from_millions(10.0),
            Yield::new(0.8).unwrap(),
        )
    }

    #[test]
    fn report_identities_hold() {
        let (lambda, n, y) = setup();
        let m = ProfitModel::competitive_default();
        let r = m
            .evaluate(lambda, DecompressionIndex::new(300.0).unwrap(), n, DEMAND, y)
            .unwrap();
        assert!((r.profit.amount() - (r.revenue.amount() - r.total_cost.amount())).abs() < 1e-4);
        assert!(r.wafers > 0.0);
        assert!(r.iterations >= 1.0);
        assert!(r.time_to_market_weeks > 52.0);
        assert!((r.revenue.amount() - r.unit_price.amount() * DEMAND).abs() < 1.0);
    }

    #[test]
    fn denser_design_is_later_but_needs_fewer_wafers() {
        let (lambda, n, y) = setup();
        let m = ProfitModel::competitive_default();
        let dense = m
            .evaluate(lambda, DecompressionIndex::new(115.0).unwrap(), n, DEMAND, y)
            .unwrap();
        let sparse = m
            .evaluate(lambda, DecompressionIndex::new(600.0).unwrap(), n, DEMAND, y)
            .unwrap();
        assert!(dense.time_to_market_weeks > sparse.time_to_market_weeks);
        assert!(dense.unit_price.amount() < sparse.unit_price.amount());
        assert!(dense.wafers < sparse.wafers);
    }

    #[test]
    fn time_pressure_pushes_the_optimum_sparser() {
        // EXT-TTM headline: the profit-optimal s_d under fast price erosion
        // is sparser than under a slow market — the mechanism behind the
        // paper's Figure-1 industry trend.
        let (lambda, n, y) = setup();
        let fast = ProfitModel::competitive_default()
            .optimal_sd(lambda, n, DEMAND, y, 110.0, 1_200.0)
            .unwrap();
        let slow = ProfitModel::slow_market_default()
            .optimal_sd(lambda, n, DEMAND, y, 110.0, 1_200.0)
            .unwrap();
        assert!(
            fast.sd > slow.sd + 10.0,
            "fast-market optimum {} should be sparser than slow-market {}",
            fast.sd,
            slow.sd
        );
    }

    #[test]
    fn profit_optimum_is_sparser_than_cost_optimum() {
        // Within the same engine, profit adds a revenue term that always
        // rewards earlier (sparser) designs, so the profit optimum must sit
        // at or above the cost optimum — strictly above under fast erosion.
        let (lambda, n, y) = setup();
        let model = ProfitModel::competitive_default();
        let profit = model.optimal_sd(lambda, n, DEMAND, y, 110.0, 1_200.0).unwrap();
        let cost = model
            .optimal_sd_cost(lambda, n, DEMAND, y, 110.0, 1_200.0)
            .unwrap();
        assert!(
            profit.sd > cost.sd + 5.0,
            "profit optimum {} should be sparser than cost optimum {}",
            profit.sd,
            cost.sd
        );
    }

    #[test]
    fn oversized_die_is_an_error() {
        let m = ProfitModel::competitive_default();
        let err = m.evaluate(
            FeatureSize::from_microns(1.5).unwrap(),
            DecompressionIndex::new(1_000.0).unwrap(),
            TransistorCount::from_millions(100.0),
            DEMAND,
            Yield::new(0.8).unwrap(),
        );
        assert!(err.is_err());
        let err = m.evaluate(
            FeatureSize::from_microns(0.18).unwrap(),
            DecompressionIndex::new(300.0).unwrap(),
            TransistorCount::from_millions(10.0),
            0.0,
            Yield::new(0.8).unwrap(),
        );
        assert!(err.is_err());
    }
}
