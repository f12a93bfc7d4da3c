//! Lithography mask-set cost `C_MA` (eq. 5).
//!
//! Mask cost is the most visible fixed cost of the nanometer era: a set
//! that cost tens of thousands of dollars at micron nodes runs to millions
//! below 100 nm, because write time and inspection grow super-linearly with
//! pattern count and resolution-enhancement features (OPC, phase shift)
//! multiply per-mask effort.

use nanocost_units::{Dollars, FeatureSize, UnitError};

use crate::process::nearest_node;

/// Mask-set cost model: per-mask cost is a power law in inverse λ, and a
/// full set carries one mask per lithography layer of the node.
///
/// ```text
/// cost_per_mask(λ) = reference_cost · (λ_ref / λ)^exponent
/// set_cost(λ)      = cost_per_mask(λ) · mask_layers(λ)
/// ```
///
/// ```
/// use nanocost_units::FeatureSize;
/// use nanocost_fab::MaskCostModel;
///
/// let m = MaskCostModel::default();
/// let set_250 = m.mask_set_cost(FeatureSize::from_microns(0.25)?);
/// let set_100 = m.mask_set_cost(FeatureSize::from_microns(0.10)?);
/// assert!(set_100.amount() > 5.0 * set_250.amount());
/// # Ok::<(), nanocost_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaskCostModel {
    reference_cost_per_mask: Dollars,
    reference_lambda_um: f64,
    exponent: f64,
}

impl MaskCostModel {
    /// Creates a mask cost model.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the reference cost or exponent is not
    /// strictly positive and finite.
    pub fn new(
        reference_cost_per_mask: Dollars,
        reference_lambda: FeatureSize,
        exponent: f64,
    ) -> Result<Self, UnitError> {
        if reference_cost_per_mask.amount() <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "reference mask cost",
                value: reference_cost_per_mask.amount(),
            });
        }
        if !exponent.is_finite() {
            return Err(UnitError::NonFinite {
                quantity: "mask cost exponent",
            });
        }
        if exponent <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "mask cost exponent",
                value: exponent,
            });
        }
        Ok(MaskCostModel {
            reference_cost_per_mask,
            reference_lambda_um: reference_lambda.microns(),
            exponent,
        })
    }

    /// Cost of a single mask at node `lambda`.
    #[must_use]
    pub fn cost_per_mask(&self, lambda: FeatureSize) -> Dollars {
        let ratio = self.reference_lambda_um / lambda.microns();
        self.reference_cost_per_mask * ratio.powf(self.exponent)
    }

    /// Cost of a full mask set at node `lambda` (one mask per litho layer
    /// of the nearest standard node).
    #[must_use]
    pub fn mask_set_cost(&self, lambda: FeatureSize) -> Dollars {
        let node = nearest_node(lambda);
        let c_ma = self.cost_per_mask(lambda) * node.mask_layers as f64;
        nanocost_trace::provenance!(
            equation: Eq5,
            function: "nanocost_fab::mask::MaskCostModel::mask_set_cost",
            inputs: [lambda_um = lambda.microns(), mask_layers = node.mask_layers],
            outputs: [c_ma = c_ma.amount()],
        );
        c_ma
    }
}

impl Default for MaskCostModel {
    /// Calibrated to the historical record: ≈ $4 k per mask at 0.25 µm
    /// (≈ $100 k set), exponent 2.2 giving ≈ $0.9 M at 0.13 µm and several
    /// million dollars per set at sub-100 nm nodes.
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constant is valid; constants are valid"
    )]
    fn default() -> Self {
        MaskCostModel::new(
            Dollars::new(4_000.0),
            FeatureSize::from_microns(0.25).expect("constant is valid"),
            2.2,
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

    #[test]
    fn set_cost_at_quarter_micron_is_about_100k() {
        let m = MaskCostModel::default();
        let set = m.mask_set_cost(um(0.25));
        assert!(
            set.amount() > 70_000.0 && set.amount() < 130_000.0,
            "expected ≈$100k, got {set}"
        );
    }

    #[test]
    fn set_cost_reaches_millions_below_100nm() {
        let m = MaskCostModel::default();
        let set = m.mask_set_cost(um(0.07));
        assert!(set.amount() > 1.5e6, "expected >$1.5M, got {set}");
    }

    #[test]
    fn per_mask_cost_is_power_law() {
        let m = MaskCostModel::default();
        let a = m.cost_per_mask(um(0.2)).amount();
        let b = m.cost_per_mask(um(0.1)).amount();
        assert!((b / a - 2f64.powf(2.2)).abs() < 1e-9);
    }

    #[test]
    fn set_cost_monotone_in_node() {
        let m = MaskCostModel::default();
        let mut prev = 0.0;
        for &l in &[0.5, 0.35, 0.25, 0.18, 0.13, 0.1, 0.07, 0.05] {
            let c = m.mask_set_cost(um(l)).amount();
            assert!(c > prev, "λ={l}");
            prev = c;
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(MaskCostModel::new(Dollars::ZERO, um(0.25), 2.0).is_err());
        assert!(MaskCostModel::new(Dollars::new(1e3), um(0.25), 0.0).is_err());
        assert!(MaskCostModel::new(Dollars::new(1e3), um(0.25), f64::NAN).is_err());
    }
}
