//! Redundancy-aware yield: repairable memory and the optimal spare count.
//!
//! The paper's lineage includes Khare, Feltham & Maly's work on
//! defect-related yield loss in *reconfigurable* circuits (its ref. \[32\]):
//! memory arrays ship with spare rows, and a die with `k` faults in the
//! repairable region still sells if `k` does not exceed the repair
//! capacity. This module prices that design lever:
//!
//! * [`RedundantDie::yield_with_repair`] — composite yield of a die whose
//!   area splits into a repairable region (with `spares` repair units)
//!   and an unrepairable logic region;
//! * [`optimal_spares`] — the spare count maximizing *good dice per
//!   wafer*, trading repair coverage against the silicon the spares
//!   themselves consume.

use nanocost_units::{Area, UnitError, Yield};

use crate::defect::DefectDensity;

/// A die with a repairable (memory) region and an unrepairable (logic)
/// region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedundantDie {
    /// Critical area of the repairable region, before spares are added.
    pub repairable_area: Area,
    /// Critical area of the unrepairable region.
    pub logic_area: Area,
    /// Number of spare repair units (rows/columns).
    pub spares: u32,
    /// Critical-area overhead of one spare unit, as a fraction of the
    /// repairable region (e.g. 1/256 for one spare row in a 256-row
    /// array).
    pub spare_overhead: f64,
}

impl RedundantDie {
    /// Creates a redundant-die description — the repairable-circuit
    /// geometry of the paper's ref. \[32\].
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `spare_overhead` is not in `[0, 1]` or is
    /// non-finite.
    pub fn new(
        repairable_area: Area,
        logic_area: Area,
        spares: u32,
        spare_overhead: f64,
    ) -> Result<Self, UnitError> {
        if !spare_overhead.is_finite() {
            return Err(UnitError::NonFinite {
                quantity: "spare overhead",
            });
        }
        if !(0.0..=1.0).contains(&spare_overhead) {
            return Err(UnitError::OutOfRange {
                quantity: "spare overhead",
                value: spare_overhead,
                min: 0.0,
                max: 1.0,
            });
        }
        Ok(RedundantDie {
            repairable_area,
            logic_area,
            spares,
            spare_overhead,
        })
    }

    /// Total die critical area including the spares' own silicon — the
    /// area price of the paper's ref.-\[32\] repair lever.
    #[must_use]
    pub fn total_area(&self) -> Area {
        self.repairable_area * (1.0 + self.spare_overhead * f64::from(self.spares))
            + self.logic_area
    }

    /// Yield with repair under Poisson statistics (the paper's ref.-\[32\]
    /// repairable-circuit model): the logic region must be fault-free,
    /// while the (spare-inflated) repairable region tolerates up to
    /// `spares` faults:
    ///
    /// ```text
    /// Y = e^{−A_l·D} · Σ_{k=0}^{r} e^{−A_m·D} (A_m·D)^k / k!
    /// ```
    ///
    /// (Faults in the repairable region are assumed independently
    /// repairable — the classical optimistic row-repair model; clustering
    /// within one row only helps, so this is a mild upper bound.)
    #[must_use]
    pub fn yield_with_repair(&self, d0: DefectDensity) -> Yield {
        let d = d0.value();
        let a_m = self.repairable_area.cm2()
            * (1.0 + self.spare_overhead * f64::from(self.spares));
        let a_l = self.logic_area.cm2();
        let lambda_m = a_m * d;
        // Poisson CDF up to `spares`, computed with a running term to
        // avoid factorial overflow.
        let mut term = (-lambda_m).exp();
        let mut cdf = term;
        for k in 1..=self.spares {
            term *= lambda_m / f64::from(k);
            cdf += term;
        }
        Yield::clamped((-a_l * d).exp() * cdf)
    }

    /// Yield of the same die with zero spares (and no spare overhead) —
    /// the unrepaired baseline of the paper's ref.-\[32\] comparison.
    #[must_use]
    pub fn yield_without_repair(&self, d0: DefectDensity) -> Yield {
        let d = d0.value();
        Yield::clamped((-(self.repairable_area.cm2() + self.logic_area.cm2()) * d).exp())
    }
}

/// Good dice per wafer area unit: yield divided by (spare-inflated) die
/// area. The figure of merit for choosing the spare count — more spares
/// repair more but each spare costs silicon on every die.
#[must_use]
pub fn good_dice_per_cm2(die: &RedundantDie, d0: DefectDensity) -> f64 {
    die.yield_with_repair(d0).value() / die.total_area().cm2()
}

/// Finds the spare count in `[0, max_spares]` maximizing
/// [`good_dice_per_cm2`] — pricing the redundancy design lever from the
/// paper's ref. \[32\].
#[must_use]
pub fn optimal_spares(
    repairable_area: Area,
    logic_area: Area,
    spare_overhead: f64,
    d0: DefectDensity,
    max_spares: u32,
) -> u32 {
    let mut best = 0u32;
    let mut best_fom = f64::NEG_INFINITY;
    for spares in 0..=max_spares {
        let Ok(die) = RedundantDie::new(repairable_area, logic_area, spares, spare_overhead)
        else {
            continue;
        };
        let fom = good_dice_per_cm2(&die, d0);
        if fom > best_fom {
            best_fom = fom;
            best = spares;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d0(v: f64) -> DefectDensity {
        DefectDensity::per_cm2(v).unwrap()
    }

    fn die(spares: u32) -> RedundantDie {
        RedundantDie::new(
            Area::from_cm2(1.0),
            Area::from_cm2(0.5),
            spares,
            1.0 / 256.0,
        )
        .unwrap()
    }

    #[test]
    fn zero_spares_matches_plain_poisson() {
        let d = die(0);
        let density = d0(0.8);
        let with = d.yield_with_repair(density).value();
        let without = d.yield_without_repair(density).value();
        assert!((with - without).abs() < 1e-12);
        // Hand value: exp(-1.5·0.8) ≈ 0.3012.
        assert!((with - (-1.2f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn repair_helps_and_saturates() {
        let density = d0(1.0);
        let mut prev = 0.0;
        for spares in 0..8 {
            let y = die(spares).yield_with_repair(density).value();
            assert!(y >= prev, "spares {spares}: {y} < {prev}");
            prev = y;
        }
        // The ceiling is the logic-only yield: memory faults fully
        // repairable, logic must still be clean.
        let many = die(64).yield_with_repair(density).value();
        let logic_only = (-0.5f64).exp();
        assert!(many < logic_only + 1e-9);
        assert!(many > logic_only * 0.95);
    }

    #[test]
    fn spares_cost_area() {
        assert!((die(0).total_area().cm2() - 1.5).abs() < 1e-12);
        let with_four = die(4).total_area().cm2();
        assert!((with_four - (1.0 * (1.0 + 4.0 / 256.0) + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn optimal_spares_is_interior_at_realistic_defect_densities() {
        // At meaningful fault rates a few spares pay for themselves; at
        // near-zero density spares are pure overhead.
        let dirty = optimal_spares(Area::from_cm2(1.0), Area::from_cm2(0.5), 1.0 / 256.0, d0(1.0), 16);
        assert!(
            (1..=16).contains(&dirty),
            "dirty-process optimum should use spares, got {dirty}"
        );
        let clean = optimal_spares(
            Area::from_cm2(1.0),
            Area::from_cm2(0.5),
            1.0 / 256.0,
            d0(0.001),
            16,
        );
        assert!(clean <= 1, "clean-process optimum should be ~0, got {clean}");
    }

    #[test]
    fn dirtier_process_wants_more_spares() {
        let spares_at = |d: f64| {
            optimal_spares(
                Area::from_cm2(2.0),
                Area::from_cm2(0.3),
                1.0 / 512.0,
                d0(d),
                32,
            )
        };
        assert!(spares_at(2.0) >= spares_at(0.5));
    }

    #[test]
    fn validation() {
        let a = Area::from_cm2(1.0);
        assert!(RedundantDie::new(a, a, 2, -0.1).is_err());
        assert!(RedundantDie::new(a, a, 2, 1.5).is_err());
        assert!(RedundantDie::new(a, a, 2, f64::NAN).is_err());
    }
}
