//! Processed-wafer cost `C_w` and the per-area cost `C_sq` it implies.
//!
//! Following the structure of Maly, Jacobs & Kersch (IEDM-93, the paper's
//! ref. [30]), the cost of a fully manufactured wafer is decomposed into:
//!
//! * a **depreciation** share from the fabline capital (per wafer, grows
//!   steeply as λ shrinks — see [`FablineModel`](crate::FablineModel));
//! * a **processing** share proportional to the mask-layer count (labor,
//!   materials, equipment time per layer);
//! * a **fixed-per-run** share (setup, qualification) amortized over the
//!   production volume `N_w`;
//!
//! modulated by a maturity discount as the line ages.

use nanocost_trace::provenance;
use nanocost_units::{CostPerArea, Dollars, FeatureSize, UnitError, WaferCount};

use crate::fabline::FablineModel;
use crate::process::{nearest_node, ProcessNode};
use crate::wafer::WaferSpec;

/// Itemized wafer-cost components (all per wafer, maturity applied).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferCostBreakdown {
    /// Per-layer processing (labor, materials, equipment time).
    pub processing: Dollars,
    /// Fabline capital depreciation share.
    pub depreciation: Dollars,
    /// Fixed setup/qualification cost amortized over the run.
    pub fixed_amortized: Dollars,
    /// The maturity multiplier that was applied.
    pub maturity_factor: f64,
}

impl WaferCostBreakdown {
    /// Total per-wafer cost (must equal
    /// [`WaferCostModel::cost_per_wafer`]).
    #[must_use]
    pub fn total(&self) -> Dollars {
        self.processing + self.depreciation + self.fixed_amortized
    }

    /// Depreciation's share of the total — the "high-cost era" indicator:
    /// it grows toward one as fabline capex explodes at nanometer nodes.
    #[must_use]
    pub fn depreciation_share(&self) -> f64 {
        self.depreciation.amount() / self.total().amount()
    }
}

/// Cost model for a fully processed wafer.
///
/// ```
/// use nanocost_units::{FeatureSize, WaferCount};
/// use nanocost_fab::{WaferCostModel, WaferSpec};
///
/// let model = WaferCostModel::default();
/// let wafer = WaferSpec::standard_200mm();
/// let node = FeatureSize::from_microns(0.25)?;
/// let c_sq = model.cost_per_cm2(wafer, node, WaferCount::new(50_000)?);
/// // The paper's ITRS-era anchor is C_sq ≈ 8 $/cm² for a mature process.
/// assert!(c_sq.dollars_per_cm2() > 4.0 && c_sq.dollars_per_cm2() < 14.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferCostModel {
    fabline: FablineModel,
    /// Processing cost per mask layer for a 200 mm-class wafer.
    cost_per_layer: Dollars,
    /// Fixed engineering/setup cost per production run.
    fixed_per_run: Dollars,
    /// Fractional discount reached at full maturity (e.g. 0.25 = 25 % off).
    maturity_discount: f64,
    /// Volume at which maturity is half-reached, in wafers.
    maturity_volume: f64,
}

impl WaferCostModel {
    /// Creates a wafer cost model.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] for non-finite or out-of-range parameters
    /// (negative costs, discount outside `[0, 1)`, non-positive maturity
    /// volume).
    pub fn new(
        fabline: FablineModel,
        cost_per_layer: Dollars,
        fixed_per_run: Dollars,
        maturity_discount: f64,
        maturity_volume: f64,
    ) -> Result<Self, UnitError> {
        if cost_per_layer.amount() < 0.0 || fixed_per_run.amount() < 0.0 {
            return Err(UnitError::OutOfRange {
                quantity: "wafer cost components",
                value: cost_per_layer.amount().min(fixed_per_run.amount()),
                min: 0.0,
                max: f64::INFINITY,
            });
        }
        if !maturity_discount.is_finite() || !(0.0..1.0).contains(&maturity_discount) {
            return Err(UnitError::OutOfRange {
                quantity: "maturity discount",
                value: maturity_discount,
                min: 0.0,
                max: 1.0,
            });
        }
        if !maturity_volume.is_finite() || maturity_volume <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "maturity volume",
                value: maturity_volume,
            });
        }
        Ok(WaferCostModel {
            fabline,
            cost_per_layer,
            fixed_per_run,
            maturity_discount,
            maturity_volume,
        })
    }

    /// The process node used for layer counts at a given λ (snapped to the
    /// standard ladder).
    #[must_use]
    pub fn node_for(&self, lambda: FeatureSize) -> ProcessNode {
        nearest_node(lambda)
    }

    /// Cost of one fully processed wafer at node `lambda` for a run of
    /// `volume` wafers.
    #[must_use]
    pub fn cost_per_wafer(
        &self,
        wafer: WaferSpec,
        lambda: FeatureSize,
        volume: WaferCount,
    ) -> Dollars {
        let node = self.node_for(lambda);
        // Processing scales with layer count and with wafer area relative to
        // a 200 mm reference (bigger wafers cost more to process, slightly
        // sublinearly: exponent 0.9 captures the economy of larger wafers).
        let area_factor = (wafer.total_area().cm2() / 314.16).powf(0.9);
        let processing = self.cost_per_layer * node.mask_layers as f64 * area_factor;
        let depreciation = self.fabline.depreciation_per_wafer(lambda);
        let fixed = self.fixed_per_run / volume.as_f64();
        let maturity = 1.0
            - self.maturity_discount * (volume.as_f64() / (volume.as_f64() + self.maturity_volume));
        (processing + depreciation) * maturity + fixed
    }

    /// Itemized decomposition of [`WaferCostModel::cost_per_wafer`] —
    /// where each wafer dollar goes, for cost-of-ownership reporting.
    #[must_use]
    pub fn breakdown(
        &self,
        wafer: WaferSpec,
        lambda: FeatureSize,
        volume: WaferCount,
    ) -> WaferCostBreakdown {
        let node = self.node_for(lambda);
        let area_factor = (wafer.total_area().cm2() / 314.16).powf(0.9);
        let processing = self.cost_per_layer * node.mask_layers as f64 * area_factor;
        let depreciation = self.fabline.depreciation_per_wafer(lambda);
        let fixed = self.fixed_per_run / volume.as_f64();
        let maturity = 1.0
            - self.maturity_discount * (volume.as_f64() / (volume.as_f64() + self.maturity_volume));
        WaferCostBreakdown {
            processing: processing * maturity,
            depreciation: depreciation * maturity,
            fixed_amortized: fixed,
            maturity_factor: maturity,
        }
    }

    /// The manufacturing cost per square centimeter `Cm_sq` implied by
    /// [`WaferCostModel::cost_per_wafer`] (eq. 3's `C_sq = C_w / A_w`).
    #[must_use]
    pub fn cost_per_cm2(
        &self,
        wafer: WaferSpec,
        lambda: FeatureSize,
        volume: WaferCount,
    ) -> CostPerArea {
        let cw = self.cost_per_wafer(wafer, lambda, volume);
        let c_sq = CostPerArea::per_cm2(cw.amount() / wafer.total_area().cm2());
        provenance!(
            equation: Eq3,
            function: "nanocost_fab::wafer_cost::WaferCostModel::cost_per_cm2",
            inputs: [
                c_w = cw.amount(),
                a_w_cm2 = wafer.total_area().cm2(),
                lambda_um = lambda.microns(),
                n_w = volume.as_f64(),
            ],
            outputs: [c_sq = c_sq.dollars_per_cm2()],
        );
        c_sq
    }
}

impl Default for WaferCostModel {
    /// Calibrated so a mature, high-volume 0.25 µm 200 mm wafer lands near
    /// the paper's `C_sq = 8 $/cm²` anchor: $60/layer processing,
    /// $2 M fixed per run, 25 % maturity discount with 30 k-wafer half
    /// point, on the default [`FablineModel`].
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid"
    )]
    fn default() -> Self {
        WaferCostModel::new(
            FablineModel::default(),
            Dollars::new(60.0),
            Dollars::from_millions(2.0),
            0.25,
            30_000.0,
        )
        .expect("constants are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    fn wafers(n: u64) -> WaferCount {
        WaferCount::new(n).unwrap()
    }

    #[test]
    fn paper_anchor_eight_dollars_per_cm2() {
        let m = WaferCostModel::default();
        let c = m.cost_per_cm2(WaferSpec::standard_200mm(), um(0.25), wafers(100_000));
        assert!(
            (c.dollars_per_cm2() - 8.0).abs() < 2.0,
            "expected ≈8 $/cm², got {c}"
        );
    }

    #[test]
    fn cost_per_wafer_falls_with_volume() {
        let m = WaferCostModel::default();
        let w = WaferSpec::standard_200mm();
        let small = m.cost_per_wafer(w, um(0.25), wafers(1_000));
        let large = m.cost_per_wafer(w, um(0.25), wafers(100_000));
        assert!(small.amount() > large.amount());
    }

    #[test]
    fn cost_grows_as_lambda_shrinks() {
        let m = WaferCostModel::default();
        let w = WaferSpec::standard_200mm();
        let v = wafers(50_000);
        let old = m.cost_per_wafer(w, um(0.35), v);
        let new = m.cost_per_wafer(w, um(0.13), v);
        assert!(new.amount() > 1.5 * old.amount(), "old {old}, new {new}");
    }

    #[test]
    fn larger_wafer_costs_more_per_wafer_but_less_per_cm2() {
        let m = WaferCostModel::default();
        let v = wafers(50_000);
        let c200 = m.cost_per_wafer(WaferSpec::standard_200mm(), um(0.18), v);
        let c300 = m.cost_per_wafer(WaferSpec::standard_300mm(), um(0.18), v);
        assert!(c300.amount() > c200.amount());
        let s200 = m.cost_per_cm2(WaferSpec::standard_200mm(), um(0.18), v);
        let s300 = m.cost_per_cm2(WaferSpec::standard_300mm(), um(0.18), v);
        assert!(s300.dollars_per_cm2() < s200.dollars_per_cm2());
    }

    #[test]
    fn fixed_cost_vanishes_at_high_volume() {
        let m = WaferCostModel::default();
        let w = WaferSpec::standard_200mm();
        let c1 = m.cost_per_wafer(w, um(0.25), wafers(10_000_000));
        let c2 = m.cost_per_wafer(w, um(0.25), wafers(20_000_000));
        assert!((c1.amount() - c2.amount()).abs() / c1.amount() < 0.01);
    }

    #[test]
    fn breakdown_sums_to_the_headline_cost() {
        let m = WaferCostModel::default();
        let w = WaferSpec::standard_200mm();
        for &(l, v) in &[(0.25, 5_000u64), (0.1, 80_000), (0.05, 200_000)] {
            let lambda = um(l);
            let vol = wafers(v);
            let b = m.breakdown(w, lambda, vol);
            let headline = m.cost_per_wafer(w, lambda, vol);
            assert!(
                (b.total().amount() - headline.amount()).abs() < 1e-6,
                "λ={l}: {} vs {}",
                b.total(),
                headline
            );
        }
    }

    #[test]
    fn depreciation_dominates_nanometer_wafer_cost() {
        // The title's claim, itemized: the capital share grows toward the
        // nanometer era.
        let m = WaferCostModel::default();
        let w = WaferSpec::standard_200mm();
        let v = wafers(100_000);
        let at_035 = m.breakdown(w, um(0.35), v).depreciation_share();
        let at_005 = m.breakdown(w, um(0.05), v).depreciation_share();
        assert!(at_005 > at_035);
        assert!(at_005 > 0.8, "50nm depreciation share {at_005}");
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let fab = FablineModel::default();
        assert!(WaferCostModel::new(fab, Dollars::new(-1.0), Dollars::ZERO, 0.2, 1e4).is_err());
        assert!(WaferCostModel::new(fab, Dollars::new(60.0), Dollars::ZERO, 1.0, 1e4).is_err());
        assert!(WaferCostModel::new(fab, Dollars::new(60.0), Dollars::ZERO, 0.2, 0.0).is_err());
    }
}
