//! The generalized transistor cost model: eq. (7).
//!
//! ```text
//!          s_d·λ²·[Cm_sq(A_w, λ, N_w) + Cd_sq(A_w, λ, N_w, N_tr, s_d0)]
//! C_tr = ────────────────────────────────────────────────────────────────
//!                     u · Y(A_w, λ, N_w, s_d, N_tr)
//! ```
//!
//! Every parenthesized dependency the paper lists is delegated to a real
//! substrate: wafer cost to [`WaferCostModel`], masks to [`MaskCostModel`],
//! design effort to [`DesignEffortModel`], yield to [`YieldSurface`], and
//! hardware utilization to the `u·Y` substitution of §2.5. Cost of test —
//! the omission the paper flags as easily included — is optional and
//! additive.

use nanocost_fab::{MaskCostModel, TestCostModel, WaferCostModel, WaferSpec};
use nanocost_flow::DesignEffortModel;
use nanocost_trace::provenance;
use nanocost_units::{
    CostPerArea, DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError,
    Utilization, WaferCount, Yield,
};
use nanocost_yield::YieldSurface;

use crate::total::design_cost_per_cm2;

/// A design point: the four arguments of eq. 7 the designer controls or
/// commits to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Process node λ.
    pub lambda: FeatureSize,
    /// Design decompression index `s_d`.
    pub sd: DecompressionIndex,
    /// Design size `N_tr`.
    pub transistors: TransistorCount,
    /// Production volume `N_w`.
    pub volume: WaferCount,
}

/// Full evaluation of eq. 7 at a design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralizedReport {
    /// Substrate-derived manufacturing cost density `Cm_sq`.
    pub cm_sq: CostPerArea,
    /// Substrate-derived design cost density `Cd_sq`.
    pub cd_sq: CostPerArea,
    /// Substrate-derived yield at the point.
    pub fab_yield: Yield,
    /// The `u·Y` effective yield actually dividing the cost.
    pub effective_yield: Yield,
    /// Cost per functioning, *useful* transistor (eq. 7 proper).
    pub transistor_cost: Dollars,
    /// Test cost per functioning transistor (zero unless a test model is
    /// configured) — already included in [`Self::transistor_cost`].
    pub test_cost: Dollars,
    /// The whole-die cost at the point.
    pub die_cost: Dollars,
}

/// The eq.-7 model with pluggable substrates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralizedCostModel {
    wafer: WaferSpec,
    wafer_cost: WaferCostModel,
    masks: MaskCostModel,
    effort: DesignEffortModel,
    yield_surface: YieldSurface,
    test: Option<TestCostModel>,
    utilization: Utilization,
}

impl GeneralizedCostModel {
    /// Creates an eq.-7 model from its substrates — the wafer, wafer-cost,
    /// mask, design-effort, and yield-surface terms the equation
    /// parameterizes.
    #[must_use]
    pub fn new(
        wafer: WaferSpec,
        wafer_cost: WaferCostModel,
        masks: MaskCostModel,
        effort: DesignEffortModel,
        yield_surface: YieldSurface,
    ) -> Self {
        GeneralizedCostModel {
            wafer,
            wafer_cost,
            masks,
            effort,
            yield_surface,
            test: None,
            utilization: Utilization::FULL,
        }
    }

    /// A fully defaulted late-1990s eq.-7 model: 200 mm wafers, default
    /// wafer / mask / effort / yield substrates, no test cost, full
    /// utilization.
    #[must_use]
    pub fn nanometer_default() -> Self {
        GeneralizedCostModel::new(
            WaferSpec::standard_200mm(),
            WaferCostModel::default(),
            MaskCostModel::default(),
            DesignEffortModel::paper_defaults(),
            YieldSurface::nanometer_default(),
        )
    }

    /// Adds a cost-of-test model (builder style) — the paper's §2.4
    /// test-cost concern folded into the eq.-7 evaluation.
    #[must_use]
    pub fn with_test(mut self, test: TestCostModel) -> Self {
        self.test = Some(test);
        self
    }

    /// Sets the hardware utilization `u` (builder style) — the paper's
    /// FPGA/partial-IP substitution `Y → u·Y`.
    #[must_use]
    pub fn with_utilization(mut self, utilization: Utilization) -> Self {
        self.utilization = utilization;
        self
    }

    /// The wafer the model fabricates on — the source of eq. 7's `A_w`.
    #[must_use]
    pub fn wafer(&self) -> WaferSpec {
        self.wafer
    }

    /// Evaluates eq. 7 at a design point.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `point.sd` is at or below the effort
    /// model's `s_d0`.
    pub fn evaluate(&self, point: DesignPoint) -> Result<GeneralizedReport, UnitError> {
        let DesignPoint {
            lambda,
            sd,
            transistors,
            volume,
        } = point;
        let cm_sq = self.wafer_cost.cost_per_cm2(self.wafer, lambda, volume);
        let mask_cost = self.masks.mask_set_cost(lambda);
        let design_cost = self.effort.design_cost(transistors, sd)?;
        let cd_sq =
            design_cost_per_cm2(mask_cost, design_cost, volume, self.wafer.total_area());
        let fab_yield = self.yield_surface.evaluate(lambda, sd, transistors, volume)?;
        let effective_yield = self.utilization * fab_yield;
        let geometric = sd.squares() * lambda.square().cm2() / effective_yield.value();
        let silicon_cost =
            geometric * (cm_sq.dollars_per_cm2() + cd_sq.dollars_per_cm2());
        let test_cost = match &self.test {
            Some(t) => {
                t.cost_per_good_die(transistors, effective_yield).amount() / transistors.count()
            }
            None => 0.0,
        };
        let per_transistor = Dollars::new(silicon_cost + test_cost);
        provenance!(
            equation: Eq7,
            function: "nanocost_core::generalized::GeneralizedCostModel::evaluate",
            inputs: [
                lambda_um = lambda.microns(),
                sd = sd.squares(),
                n_tr = transistors.count(),
                n_w = volume.as_f64(),
                cm_sq = cm_sq.dollars_per_cm2(),
                cd_sq = cd_sq.dollars_per_cm2(),
                effective_yield = effective_yield.value(),
            ],
            outputs: [c_tr = per_transistor.amount(), test_cost = test_cost],
        );
        Ok(GeneralizedReport {
            cm_sq,
            cd_sq,
            fab_yield,
            effective_yield,
            transistor_cost: per_transistor,
            test_cost: Dollars::new(test_cost),
            die_cost: per_transistor * transistors.count(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(sd: f64, volume: u64) -> DesignPoint {
        DesignPoint {
            lambda: FeatureSize::from_microns(0.18).unwrap(),
            sd: DecompressionIndex::new(sd).unwrap(),
            transistors: TransistorCount::from_millions(10.0),
            volume: WaferCount::new(volume).unwrap(),
        }
    }

    #[test]
    fn report_is_internally_consistent() {
        let m = GeneralizedCostModel::nanometer_default();
        let r = m.evaluate(point(300.0, 50_000)).unwrap();
        assert!(r.transistor_cost.amount() > 0.0);
        assert!(r.effective_yield.value() <= r.fab_yield.value());
        assert!(
            (r.die_cost.amount() - r.transistor_cost.amount() * 1.0e7).abs()
                < r.die_cost.amount() * 1e-12
        );
        assert_eq!(r.test_cost, Dollars::ZERO);
    }

    #[test]
    fn volume_cuts_cost_through_three_channels() {
        // Higher volume: better yield (learning), lower Cm_sq (maturity),
        // lower Cd_sq (amortization). Cost must fall decisively.
        let m = GeneralizedCostModel::nanometer_default();
        let low = m.evaluate(point(300.0, 2_000)).unwrap();
        let high = m.evaluate(point(300.0, 200_000)).unwrap();
        assert!(
            high.transistor_cost.amount() < low.transistor_cost.amount() / 3.0,
            "low {} high {}",
            low.transistor_cost,
            high.transistor_cost
        );
        assert!(high.fab_yield.value() > low.fab_yield.value());
        assert!(high.cd_sq.dollars_per_cm2() < low.cd_sq.dollars_per_cm2());
    }

    #[test]
    fn utilization_substitution_matches_paper_rule() {
        // u = 0.25 must quadruple the silicon share of the cost (Y → uY).
        let full = GeneralizedCostModel::nanometer_default();
        let fpga = GeneralizedCostModel::nanometer_default()
            .with_utilization(Utilization::new(0.25).unwrap());
        let a = full.evaluate(point(300.0, 50_000)).unwrap();
        let b = fpga.evaluate(point(300.0, 50_000)).unwrap();
        assert!(
            (b.transistor_cost.amount() / a.transistor_cost.amount() - 4.0).abs() < 1e-9
        );
    }

    #[test]
    fn test_cost_is_additive_and_yield_inflated() {
        let base = GeneralizedCostModel::nanometer_default();
        let tested = GeneralizedCostModel::nanometer_default()
            .with_test(TestCostModel::default());
        let a = base.evaluate(point(300.0, 50_000)).unwrap();
        let b = tested.evaluate(point(300.0, 50_000)).unwrap();
        assert!(b.test_cost.amount() > 0.0);
        let diff = b.transistor_cost.amount() - a.transistor_cost.amount();
        assert!((diff - b.test_cost.amount()).abs() < 1e-15);
    }

    #[test]
    fn eq7_with_substrates_exceeds_eq4_lower_bound() {
        // §2.5: eq. 4's simplifications "produce lower bound estimations of
        // the transistor cost (the most optimistic)". Compare eq. 7 against
        // eq. 4 configured with the same optimistic anchors (Cm_sq = 8,
        // Y = 0.8, mask cost only) at a modest volume on a young process.
        use crate::total::TotalCostModel;
        use nanocost_units::Yield;
        let eq7 = GeneralizedCostModel::nanometer_default();
        let p = point(300.0, 5_000);
        let full = eq7.evaluate(p).unwrap();
        let eq4 = TotalCostModel::paper_figure4()
            .transistor_cost(
                p.lambda,
                p.sd,
                p.transistors,
                p.volume,
                Yield::new(0.8).unwrap(),
                Dollars::new(200_000.0),
            )
            .unwrap();
        assert!(
            full.transistor_cost.amount() > eq4.total().amount(),
            "eq7 {} should exceed the eq4 lower bound {}",
            full.transistor_cost,
            eq4.total()
        );
    }

    #[test]
    fn domain_error_propagates() {
        let m = GeneralizedCostModel::nanometer_default();
        assert!(m.evaluate(point(99.0, 1_000)).is_err());
    }
}
