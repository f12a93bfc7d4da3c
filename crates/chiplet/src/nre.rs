//! Non-recurring engineering for a SiP: mask sets and design effort
//! per distinct chiplet design, amortized over volume.
//!
//! This is where disaggregation earns its keep on the paper's eq. 5-6
//! axis: a SiP built from `n` chiplets of which only `k` are distinct
//! designs pays `k` mask sets and `k` design efforts.

use nanocost_fab::MaskCostModel;
use nanocost_flow::DesignEffortModel;
use nanocost_units::{
    ChipCount, DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError,
};

/// NRE model for one SiP: the fab's mask-set pricing plus the flow's
/// design-effort curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SipNre {
    masks: MaskCostModel,
    design: DesignEffortModel,
}

impl SipNre {
    /// Paper-default mask and design-effort curves.
    #[must_use]
    pub fn paper_defaults() -> Self {
        SipNre {
            masks: MaskCostModel::default(),
            design: DesignEffortModel::paper_defaults(),
        }
    }

    /// Total NRE per shipped unit: `distinct_designs` mask sets plus
    /// `distinct_designs` design efforts (each chiplet sized at
    /// `transistors_per_chiplet`), divided by `units`.
    ///
    /// The mask-set and design-effort evaluations emit the paper's
    /// eq. 5 / eq. 6 provenance; the amortization itself is folded
    /// into eq. C5 by the caller.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the design-effort model rejects the
    /// density (`s_d ≤ s_d0`) or the volume is zero (nothing to
    /// amortize over).
    pub fn nre_per_unit(
        &self,
        distinct_designs: u32,
        transistors_per_chiplet: TransistorCount,
        sd: DecompressionIndex,
        lambda: FeatureSize,
        units: ChipCount,
    ) -> Result<Dollars, UnitError> {
        if units.count() == 0 {
            return Err(UnitError::NotPositive { quantity: "production volume", value: 0.0 });
        }
        let mask_set = self.masks.mask_set_cost(lambda);
        let design = self.design.design_cost(transistors_per_chiplet, sd)?;
        let total = (mask_set + design) * f64::from(distinct_designs);
        Ok(total / units.as_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd(v: f64) -> DecompressionIndex {
        DecompressionIndex::new(v).unwrap()
    }

    #[test]
    fn more_distinct_designs_cost_more_nre() {
        let nre = SipNre::paper_defaults();
        let lambda = FeatureSize::from_microns(0.1).unwrap();
        let t = TransistorCount::from_millions(20.0);
        let units = ChipCount::new(100_000);
        let one = nre.nre_per_unit(1, t, sd(300.0), lambda, units).unwrap();
        let four = nre.nre_per_unit(4, t, sd(300.0), lambda, units).unwrap();
        assert!((four.amount() / one.amount() - 4.0).abs() < 1e-9);
    }
}
