//! The die-size-versus-yield tradeoff (§3.1's headline conclusion).
//!
//! "Neither the smallest die size nor maximum yield, as it was the case in
//! the past, should be the objective of the cost oriented IC design
//! activities. It is the appropriate ratio of both which can provide the
//! minimum transistor cost." This module makes the three curves of that
//! argument explicit — die area, substrate-derived yield, and cost — over
//! the density axis, using the eq.-7 model so yield genuinely responds to
//! `s_d`.

use nanocost_units::{
    DecompressionIndex, FeatureSize, TransistorCount, UnitError, WaferCount,
};

use crate::generalized::{DesignPoint, GeneralizedCostModel};

/// One sample of the tradeoff sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffPoint {
    /// Density.
    pub sd: f64,
    /// Die area in cm² (`N_tr·s_d·λ²`).
    pub die_cm2: f64,
    /// Substrate yield at this density.
    pub fab_yield: f64,
    /// Per-transistor cost (eq. 7).
    pub cost: f64,
}

/// Sweeps the die-size/yield/cost tradeoff for a design on the eq.-7
/// generalized model, over the density axis.
///
/// # Errors
///
/// Returns [`UnitError`] if the sweep dips into the effort model's
/// forbidden region.
pub fn tradeoff_sweep(
    model: &GeneralizedCostModel,
    lambda: FeatureSize,
    transistors: TransistorCount,
    volume: WaferCount,
    sd_lo: f64,
    sd_hi: f64,
    samples: usize,
) -> Result<Vec<TradeoffPoint>, UnitError> {
    let samples = samples.max(2);
    let mut out = Vec::with_capacity(samples);
    for k in 0..samples {
        let s = sd_lo + (sd_hi - sd_lo) * k as f64 / (samples - 1) as f64;
        let sd = DecompressionIndex::new(s)?;
        let report = model.evaluate(DesignPoint {
            lambda,
            sd,
            transistors,
            volume,
        })?;
        out.push(TradeoffPoint {
            sd: s,
            die_cm2: sd.chip_area(transistors, lambda)?.cm2(),
            fab_yield: report.fab_yield.value(),
            cost: report.transistor_cost.amount(),
        });
    }
    Ok(out)
}

/// Summary verdict of a sweep: where the three candidate objectives point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TradeoffVerdict {
    /// `s_d` minimizing die area (always the sweep's lower edge).
    pub smallest_die_sd: f64,
    /// `s_d` maximizing the substrate yield.
    pub best_yield_sd: f64,
    /// `s_d` minimizing the actual cost.
    pub min_cost_sd: f64,
}

/// Extracts the verdict from a sweep: §3.1's conclusion that neither the
/// smallest die nor the maximum yield minimizes cost — the three
/// objectives point at three different densities.
///
/// # Panics
///
/// Panics if `points` is empty.
#[must_use]
pub fn verdict(points: &[TradeoffPoint]) -> TradeoffVerdict {
    assert!(!points.is_empty(), "tradeoff sweep must be non-empty");
    // A single scan replaces three `min_by`/`max_by` + `expect` chains; the
    // `<=`/`>=` comparisons preserve their last-of-ties selection.
    let mut smallest_die = &points[0];
    let mut best_yield = &points[0];
    let mut min_cost = &points[0];
    for p in points.iter().skip(1) {
        if p.die_cm2.total_cmp(&smallest_die.die_cm2).is_le() {
            smallest_die = p;
        }
        if p.fab_yield.total_cmp(&best_yield.fab_yield).is_ge() {
            best_yield = p;
        }
        if p.cost.total_cmp(&min_cost.cost).is_le() {
            min_cost = p;
        }
    }
    TradeoffVerdict {
        smallest_die_sd: smallest_die.sd,
        best_yield_sd: best_yield.sd,
        min_cost_sd: min_cost.sd,
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;

    fn sweep(volume: u64) -> Vec<TradeoffPoint> {
        tradeoff_sweep(
            &GeneralizedCostModel::nanometer_default(),
            FeatureSize::from_microns(0.18).unwrap(),
            TransistorCount::from_millions(10.0),
            WaferCount::new(volume).unwrap(),
            110.0,
            1_200.0,
            80,
        )
        .unwrap()
    }

    #[test]
    fn die_area_grows_and_yield_falls_along_the_sweep() {
        let pts = sweep(20_000);
        for w in pts.windows(2) {
            assert!(w[1].die_cm2 > w[0].die_cm2);
        }
        // Yield is dominated by area here: monotone non-increasing.
        assert!(pts.last().unwrap().fab_yield < pts[0].fab_yield);
    }

    #[test]
    fn cost_optimum_is_none_of_the_classical_objectives() {
        // The §3.1 conclusion: min-cost s_d is neither the smallest-die
        // point nor the best-yield point.
        let pts = sweep(5_000);
        let v = verdict(&pts);
        assert_eq!(v.smallest_die_sd, pts[0].sd);
        assert!(
            v.min_cost_sd > v.smallest_die_sd * 1.2,
            "cost optimum {} too close to smallest-die {}",
            v.min_cost_sd,
            v.smallest_die_sd
        );
        assert!(
            (v.min_cost_sd - v.best_yield_sd).abs() > 1.0,
            "cost optimum coincides with best-yield point"
        );
    }

    #[test]
    fn high_volume_pulls_the_optimum_toward_the_dense_edge() {
        let low = verdict(&sweep(2_000));
        let high = verdict(&sweep(200_000));
        assert!(high.min_cost_sd < low.min_cost_sd);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_sweep_panics() {
        let _ = verdict(&[]);
    }
}
