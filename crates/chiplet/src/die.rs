//! Per-chiplet die economics: negative-binomial yield over the
//! critical levels (eq. C1) and die cost from wafer dicing (eq. C2).
//!
//! Both are the Chiplet Actuary formulas (arXiv:2203.12268), and both
//! are already owned by the monolithic substrates; this module adds
//! only the Eq.-C provenance on top:
//!
//! * eq. C1 is `nanocost_yield`'s [`NegativeBinomialModel`] with the
//!   clustering parameter α set to `c` critical levels,
//!   `Y = (1 + D₀ · A / c)^(−c)`;
//! * eq. C2 is `nanocost_fab`'s [`WaferSpec::gross_dice_analytic`]
//!   (scribe-padded, edge-excluded dies per wafer) dividing a flat
//!   wafer price.

use nanocost_fab::WaferSpec;
use nanocost_trace::provenance;
use nanocost_units::{Area, Dollars, UnitError, Yield};
use nanocost_yield::{DefectDensity, NegativeBinomialModel, YieldModel};

/// Negative-binomial die yield with per-critical-layer clustering
/// (eq. C1, after Chiplet Actuary / the paper's eq.-3 yield axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalLayerYield {
    defect_density: DefectDensity,
    model: NegativeBinomialModel,
}

impl CriticalLayerYield {
    /// Creates a yield model from the defect density `D₀` (defects per
    /// cm² across the critical layers) and the clustering parameter
    /// `c` (number of critical levels).
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `critical_levels` is non-finite or not
    /// strictly positive.
    pub fn new(defect_density: DefectDensity, critical_levels: f64) -> Result<Self, UnitError> {
        Ok(CriticalLayerYield {
            defect_density,
            model: NegativeBinomialModel::new(critical_levels)?,
        })
    }

    /// Eq. C1: die yield of one chiplet of the given area,
    /// `Y = (1 + D₀ · A / c)^(−c)`.
    #[must_use]
    pub fn die_yield(&self, area: Area) -> Yield {
        let y = self.model.die_yield(area, self.defect_density);
        provenance!(
            equation: EqC1,
            function: "nanocost_chiplet::die::CriticalLayerYield::die_yield",
            inputs: [
                area_cm2 = area.cm2(),
                d0_per_cm2 = self.defect_density.value(),
                critical_levels = self.model.alpha(),
            ],
            outputs: [die_yield = y.value()],
        );
        y
    }
}

/// A wafer and its price for one chiplet fab technology (eq. C2): how
/// many dies a wafer yields and what each costs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipletWafer {
    wafer: WaferSpec,
    wafer_cost: Dollars,
}

impl ChipletWafer {
    /// Prices a wafer.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the wafer cost is negative.
    pub fn new(wafer: WaferSpec, wafer_cost: Dollars) -> Result<Self, UnitError> {
        if wafer_cost.is_negative() {
            return Err(UnitError::OutOfRange {
                quantity: "wafer cost",
                value: wafer_cost.amount(),
                min: 0.0,
                max: f64::INFINITY,
            });
        }
        Ok(ChipletWafer { wafer, wafer_cost })
    }

    /// Gross dies per wafer for a die of the given area, after scribe
    /// lanes and edge loss (Chiplet Actuary's `N_total`).
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the count is not positive and finite:
    /// a zero-area die, or one too large for the wafer.
    pub fn gross_dice(&self, die_area: Area) -> Result<f64, UnitError> {
        let n = self.wafer.gross_dice_analytic(die_area);
        if !(n.is_finite() && n > 0.0) {
            return Err(UnitError::OutOfRange {
                quantity: "gross dies per wafer",
                value: n,
                min: 1.0,
                max: f64::INFINITY,
            });
        }
        Ok(n)
    }

    /// Eq. C2: the cost of one (untested) die of the given area —
    /// the wafer price spread over its gross dies.
    ///
    /// # Errors
    ///
    /// As [`ChipletWafer::gross_dice`].
    pub fn die_cost(&self, die_area: Area) -> Result<Dollars, UnitError> {
        let n = self.gross_dice(die_area)?;
        let cost = self.wafer_cost / n;
        provenance!(
            equation: EqC2,
            function: "nanocost_chiplet::die::ChipletWafer::die_cost",
            inputs: [
                area_cm2 = die_area.cm2(),
                wafer_cost = self.wafer_cost.amount(),
                gross_dice = n,
            ],
            outputs: [die_cost = cost.amount()],
        );
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dd(v: f64) -> DefectDensity {
        DefectDensity::per_cm2(v).unwrap()
    }

    fn wafer(cost: f64) -> ChipletWafer {
        ChipletWafer::new(WaferSpec::new(300.0, 3.0, 0.2).unwrap(), Dollars::new(cost)).unwrap()
    }

    #[test]
    fn yield_decreases_with_area_and_defect_density() {
        let model = CriticalLayerYield::new(dd(0.09), 10.0).unwrap();
        let small = model.die_yield(Area::from_mm2(50.0));
        let large = model.die_yield(Area::from_mm2(800.0));
        assert!(small.value() > large.value());
        let dirty = CriticalLayerYield::new(dd(0.25), 10.0).unwrap();
        assert!(dirty.die_yield(Area::from_mm2(50.0)).value() < small.value());
    }

    #[test]
    fn zero_area_yields_one() {
        let model = CriticalLayerYield::new(dd(0.09), 10.0).unwrap();
        let y = model.die_yield(Area::from_mm2(0.0));
        assert!((y.value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(CriticalLayerYield::new(dd(0.1), 0.0).is_err());
        assert!(CriticalLayerYield::new(dd(0.1), f64::NAN).is_err());
        // The geometry checks are the wafer spec's own.
        assert!(WaferSpec::new(0.0, 0.0, 0.1).is_err());
        assert!(WaferSpec::new(300.0, 151.0, 0.1).is_err());
        assert!(WaferSpec::new(300.0, 3.0, -0.1).is_err());
        let spec = WaferSpec::new(300.0, 3.0, 0.1).unwrap();
        assert!(ChipletWafer::new(spec, Dollars::new(-1.0)).is_err());
    }

    #[test]
    fn smaller_dies_pack_more_per_wafer_and_cost_less() {
        let wafer = wafer(9_500.0);
        let small = wafer.gross_dice(Area::from_mm2(25.0)).unwrap();
        let large = wafer.gross_dice(Area::from_mm2(400.0)).unwrap();
        assert!(small > 10.0 * large);
        let c_small = wafer.die_cost(Area::from_mm2(25.0)).unwrap();
        let c_large = wafer.die_cost(Area::from_mm2(400.0)).unwrap();
        assert!(c_small.amount() < c_large.amount());
    }

    #[test]
    fn die_too_large_for_the_wafer_is_an_error() {
        let wafer = wafer(9_500.0);
        assert!(wafer.die_cost(Area::from_mm2(80_000.0)).is_err());
        assert!(wafer.die_cost(Area::from_mm2(0.0)).is_err());
    }
}
