//! The manufacturing-only transistor cost model: eqs. (1)–(3).
//!
//! ```text
//! (1)  C_tr = C_w / (N_tr · N_ch · Y)
//! (2)  T_d  = 1 / (λ² · s_d)
//! (3)  C_tr = C_sq · λ² · s_d / Y
//! ```
//!
//! Eq. 3 is eq. 1 rewritten through eq. 2; both forms are provided, and
//! their agreement (up to wafer-edge quantization) is a standing test.

use nanocost_fab::WaferSpec;
use nanocost_trace::provenance;
use nanocost_units::{
    Area, CostPerArea, DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError,
    Yield,
};

/// The closed-form manufacturing cost model of eqs. 1–3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ManufacturingCostModel {
    /// Manufacturing cost per cm² of wafer, `C_sq`.
    pub cost_per_cm2: CostPerArea,
    /// Manufacturing yield `Y`.
    pub fab_yield: Yield,
}

impl ManufacturingCostModel {
    /// Creates the eq.-3 model from its two parameters, `C_sq` and `Y`.
    #[must_use]
    pub fn new(cost_per_cm2: CostPerArea, fab_yield: Yield) -> Self {
        ManufacturingCostModel {
            cost_per_cm2,
            fab_yield,
        }
    }

    /// The paper's ITRS-era anchor: `C_sq = 8 $/cm²`, `Y = 0.8`.
    ///
    /// # Panics
    ///
    /// Never panics in practice: the constants are valid.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented panic contract; 0.8 is a statically valid yield"
    )]
    pub fn paper_anchor() -> Self {
        ManufacturingCostModel::new(
            CostPerArea::per_cm2(8.0), // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            Yield::new(0.8).expect("paper constant is valid"), // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
        )
    }

    /// Eq. 3: cost of one functioning transistor,
    /// `C_tr = C_sq·λ²·s_d/Y`.
    #[must_use]
    pub fn transistor_cost(&self, lambda: FeatureSize, sd: DecompressionIndex) -> Dollars {
        let c_tr = Dollars::new(
            self.cost_per_cm2.dollars_per_cm2() * lambda.square().cm2() * sd.squares()
                / self.fab_yield.value(),
        );
        provenance!(
            equation: Eq3,
            function: "nanocost_core::manufacturing::ManufacturingCostModel::transistor_cost",
            inputs: [
                c_sq = self.cost_per_cm2.dollars_per_cm2(),
                lambda_um = lambda.microns(),
                sd = sd.squares(),
                fab_yield = self.fab_yield.value(),
            ],
            outputs: [c_tr = c_tr.amount()],
        );
        c_tr
    }

    /// Eq. 3 at die granularity: the cost of a functioning die with
    /// `transistors` drawn at density `sd` on node `lambda`.
    #[must_use]
    pub fn die_cost(
        &self,
        lambda: FeatureSize,
        sd: DecompressionIndex,
        transistors: TransistorCount,
    ) -> Dollars {
        self.transistor_cost(lambda, sd) * transistors.count()
    }

    /// Eq. 1: the same cost computed the long way around — wafer cost over
    /// functioning transistors per wafer, `C_w/(N_tr·N_ch·Y)` — with the
    /// die count from exact wafer geometry.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::NotPositive`] if the die (of area
    /// `N_tr·s_d·λ²`) is too large for the wafer (`N_ch = 0`).
    pub fn transistor_cost_eq1(
        &self,
        wafer: WaferSpec,
        lambda: FeatureSize,
        sd: DecompressionIndex,
        transistors: TransistorCount,
    ) -> Result<Dollars, UnitError> {
        let die_area: Area = sd.chip_area(transistors, lambda)?;
        let n_ch = wafer.gross_dice(die_area);
        if n_ch.is_zero() {
            return Err(UnitError::NotPositive {
                quantity: "chips per wafer",
                value: 0.0,
            });
        }
        let wafer_cost: Dollars = self.cost_per_cm2 * wafer.total_area();
        let c_tr =
            wafer_cost / (transistors.count() * n_ch.as_f64() * self.fab_yield.value());
        provenance!(
            equation: Eq1,
            function: "nanocost_core::manufacturing::ManufacturingCostModel::transistor_cost_eq1",
            inputs: [
                c_w = wafer_cost.amount(),
                n_tr = transistors.count(),
                n_ch = n_ch.as_f64(),
                fab_yield = self.fab_yield.value(),
            ],
            outputs: [c_tr = c_tr.amount()],
        );
        Ok(c_tr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    fn sd(v: f64) -> DecompressionIndex {
        DecompressionIndex::new(v).unwrap()
    }

    #[test]
    fn eq3_hand_value() {
        // 8 · (0.18e-4)² · 250 / 0.8 = 8.1e-7 $/transistor.
        let m = ManufacturingCostModel::paper_anchor();
        let c = m.transistor_cost(um(0.18), sd(250.0));
        assert!((c.amount() - 8.1e-7).abs() < 1e-12, "{}", c.amount());
    }

    #[test]
    fn die_cost_is_transistor_cost_times_count() {
        let m = ManufacturingCostModel::paper_anchor();
        let n = TransistorCount::from_millions(21.0);
        let per_tr = m.transistor_cost(um(0.18), sd(250.0));
        let die = m.die_cost(um(0.18), sd(250.0), n);
        assert!((die.amount() - per_tr.amount() * 21.0e6).abs() < 1e-9);
        // The ITRS 1999 MPU lands almost exactly on the paper's $34 cap
        // (the anchor numbers were chosen to): 8·1.7/0.8 = $17 per cm²
        // basis... full die: ≈ $17. Within the cap.
        assert!(die.amount() < 34.0);
    }

    #[test]
    fn eq1_and_eq3_agree_within_edge_losses() {
        // Eq. 3 assumes the wafer is perfectly divisible; eq. 1 counts
        // whole dice. They must agree within the edge-loss factor.
        let m = ManufacturingCostModel::paper_anchor();
        let wafer = WaferSpec::standard_200mm();
        let lambda = um(0.25);
        let density = sd(300.0);
        let n = TransistorCount::from_millions(10.0);
        let eq3 = m.transistor_cost(lambda, density).amount();
        let eq1 = m
            .transistor_cost_eq1(wafer, lambda, density, n)
            .unwrap()
            .amount();
        // Eq. 1 is costlier (edge loss, unusable area), but within ~40 %.
        assert!(eq1 > eq3, "eq1 {eq1} should exceed eq3 {eq3}");
        assert!(eq1 < eq3 * 1.4, "eq1 {eq1} too far above eq3 {eq3}");
    }

    #[test]
    fn oversized_die_is_an_error_not_a_panic() {
        let m = ManufacturingCostModel::paper_anchor();
        let err = m.transistor_cost_eq1(
            WaferSpec::standard_200mm(),
            um(1.5),
            sd(1000.0),
            TransistorCount::from_millions(200.0),
        );
        assert!(err.is_err());
    }

    #[test]
    fn cost_scales_quadratically_with_lambda() {
        let m = ManufacturingCostModel::paper_anchor();
        let a = m.transistor_cost(um(0.5), sd(200.0)).amount();
        let b = m.transistor_cost(um(0.25), sd(200.0)).amount();
        assert!((a / b - 4.0).abs() < 1e-9);
    }

    #[test]
    fn cost_scales_linearly_with_sd_and_inverse_yield() {
        let m = ManufacturingCostModel::new(
            CostPerArea::per_cm2(8.0),
            Yield::new(0.4).unwrap(),
        );
        let anchor = ManufacturingCostModel::paper_anchor();
        let lambda = um(0.25);
        let a = anchor.transistor_cost(lambda, sd(100.0)).amount();
        let b = anchor.transistor_cost(lambda, sd(300.0)).amount();
        assert!((b / a - 3.0).abs() < 1e-9);
        let low_yield = m.transistor_cost(lambda, sd(100.0)).amount();
        assert!((low_yield / a - 2.0).abs() < 1e-9);
    }
}
