//! The constant-die-cost analysis behind the paper's Figure 3.
//!
//! Inverting eq. 3 — `C_ch = C_sq · A_ch = C_sq · N_tr · s_d · λ² / Y` at
//! the die level — gives the decompression index a design *may not exceed*
//! if its die is to stay affordable:
//!
//! ```text
//! s_d(required) = C_ch · Y / (C_sq · λ² · N_tr)
//! ```
//!
//! Figure 3 plots the ratio of the ITRS-implied `s_d` (Figure 2) to this
//! required value: a ratio above one means the roadmap's own transistor
//! counts cannot be delivered at the target die cost with the assumed
//! density — the paper's *cost contradiction*.

use nanocost_trace::{provenance, span};
use nanocost_units::{
    CostPerArea, DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError, Yield,
};

use crate::entry::RoadmapEntry;
use crate::itrs1999::anchors;

/// The economic assumptions of the constant-cost analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantCostAssumptions {
    /// Maximum acceptable die cost `C_ch`.
    pub die_cost: Dollars,
    /// Manufacturing cost per cm² `C_sq`.
    pub cost_per_cm2: CostPerArea,
    /// Manufacturing yield `Y`.
    pub fab_yield: Yield,
}

impl ConstantCostAssumptions {
    /// The paper's §2.2.3 values: `C_ch = $34`, `C_sq = 8 $/cm²`, `Y = 0.8`.
    ///
    /// # Panics
    ///
    /// Never panics in practice: the constants are valid.
    #[must_use]
    pub fn paper_1999() -> Self {
        ConstantCostAssumptions {
            die_cost: Dollars::new(anchors::DIE_COST_DOLLARS),
            cost_per_cm2: CostPerArea::per_cm2(anchors::COST_PER_CM2),
            #[expect(
                clippy::expect_used,
                reason = "documented invariant: paper constant is valid"
            )]
            fab_yield: Yield::new(anchors::YIELD).expect("paper constant is valid"),
        }
    }

    /// The largest `s_d` compatible with the die-cost cap for a design of
    /// `transistors` at node `lambda`.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the computed value degenerates (it cannot
    /// for physical inputs, but the arithmetic is validated anyway).
    pub fn required_sd(
        &self,
        lambda: FeatureSize,
        transistors: TransistorCount,
    ) -> Result<DecompressionIndex, UnitError> {
        let sd = self.die_cost.amount() * self.fab_yield.value()
            / (self.cost_per_cm2.dollars_per_cm2() * lambda.square().cm2() * transistors.count());
        provenance!(
            equation: Eq3,
            function: "nanocost_roadmap::constant_cost::ConstantCostAssumptions::required_sd",
            inputs: [
                c_ch = self.die_cost.amount(),
                c_sq = self.cost_per_cm2.dollars_per_cm2(),
                fab_yield = self.fab_yield.value(),
                lambda_um = lambda.microns(),
                n_tr = transistors.count(),
            ],
            outputs: [sd_required = sd],
        );
        DecompressionIndex::new(sd)
    }

    /// The die cost implied by eq. 3 for a given design point — the
    /// forward direction, used to cross-check [`Self::required_sd`].
    #[must_use]
    pub fn die_cost_for(
        &self,
        lambda: FeatureSize,
        transistors: TransistorCount,
        sd: DecompressionIndex,
    ) -> Dollars {
        let area_cm2 = transistors.count() * sd.squares() * lambda.square().cm2();
        Dollars::new(self.cost_per_cm2.dollars_per_cm2() * area_cm2 / self.fab_yield.value())
    }
}

/// One point of the Figure-3 analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Figure3Point {
    /// Production year.
    pub year: u32,
    /// Feature size in nanometers.
    pub feature_nm: f64,
    /// The ITRS-implied `s_d` (Figure 2's value).
    pub itrs_sd: f64,
    /// The constant-cost-required `s_d`.
    pub required_sd: f64,
    /// `itrs_sd / required_sd` — the paper's plotted ratio.
    pub ratio: f64,
}

/// Computes the Figure-3 ratio for every roadmap entry.
///
/// # Errors
///
/// Returns [`UnitError`] if an entry's parameters are invalid (cannot
/// happen for the validated embedded dataset).
pub fn figure3(
    roadmap: &[RoadmapEntry],
    assumptions: &ConstantCostAssumptions,
) -> Result<Vec<Figure3Point>, UnitError> {
    let _span = span!("roadmap.figure3", entries = roadmap.len());
    roadmap
        .iter()
        .map(|e| {
            let lambda = e.feature_size()?;
            let itrs_sd = e.implied_sd().squares();
            let required = assumptions.required_sd(lambda, e.transistors())?.squares();
            Ok(Figure3Point {
                year: e.year,
                feature_nm: e.feature_nm,
                itrs_sd,
                required_sd: required,
                ratio: itrs_sd / required,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::itrs1999::itrs_1999;

    #[test]
    fn required_sd_matches_hand_computation_for_1999() {
        // 34·0.8 / (8 · (0.18e-4)² · 21e6) = 27.2 / 5.443e-2 ≈ 499.7
        let a = ConstantCostAssumptions::paper_1999();
        let sd = a
            .required_sd(
                FeatureSize::from_microns(0.18).unwrap(),
                TransistorCount::from_millions(21.0),
            )
            .unwrap();
        assert!((sd.squares() - 499.7).abs() < 1.0, "{}", sd);
    }

    #[test]
    fn forward_and_inverse_directions_agree() {
        let a = ConstantCostAssumptions::paper_1999();
        let lambda = FeatureSize::from_microns(0.13).unwrap();
        let n = TransistorCount::from_millions(76.0);
        let sd = a.required_sd(lambda, n).unwrap();
        let cost = a.die_cost_for(lambda, n, sd);
        assert!((cost.amount() - 34.0).abs() < 1e-9, "{cost}");
    }

    #[test]
    fn figure3_ratio_grows_toward_nanometer_nodes() {
        // The cost contradiction: the ratio roughly doubles across the
        // horizon even under the paper's optimistic constant-C_sq,
        // constant-yield assumptions.
        let pts = figure3(&itrs_1999(), &ConstantCostAssumptions::paper_1999()).unwrap();
        assert_eq!(pts.len(), 7);
        let first = pts.first().unwrap();
        let last = pts.last().unwrap();
        assert!(
            last.ratio > 1.8 * first.ratio,
            "ratio {} -> {}",
            first.ratio,
            last.ratio
        );
        // Monotone non-decreasing within a small tolerance.
        for w in pts.windows(2) {
            assert!(w[1].ratio > w[0].ratio * 0.95);
        }
    }

    #[test]
    fn ratio_exceeds_unity_in_the_nanometer_era() {
        let pts = figure3(&itrs_1999(), &ConstantCostAssumptions::paper_1999()).unwrap();
        let last = pts.last().unwrap();
        assert!(
            last.ratio > 1.0,
            "by 2014 the ITRS s_d should exceed the affordable s_d (ratio {})",
            last.ratio
        );
    }

    #[test]
    fn required_sd_scales_inversely_with_transistors() {
        let a = ConstantCostAssumptions::paper_1999();
        let lambda = FeatureSize::from_microns(0.1).unwrap();
        let one = a.required_sd(lambda, TransistorCount::from_millions(100.0)).unwrap();
        let two = a.required_sd(lambda, TransistorCount::from_millions(200.0)).unwrap();
        assert!((one.squares() / two.squares() - 2.0).abs() < 1e-9);
    }
}
