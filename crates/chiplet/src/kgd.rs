//! Known-good-die (KGD) test economics (eq. C3).
//!
//! A SiP multiplies die yields: one dead chiplet scraps the whole
//! package, including its good neighbours. The defence is testing
//! every chiplet *before* assembly, which in turn charges each good
//! die for the tester time burnt on its dead wafer-mates:
//! `C_KGD = C_test / Y`.

use nanocost_fab::TestCostModel;
use nanocost_trace::provenance;
use nanocost_units::{Dollars, TransistorCount, Yield};

/// Known-good-die test cost: the fab's [`TestCostModel`] charged per
/// *good* die rather than per die tested.
#[derive(Debug, Clone, PartialEq)]
pub struct KnownGoodDie {
    test: TestCostModel,
}

impl KnownGoodDie {
    /// Eq. C3: tester cost per known-good die of the given complexity,
    /// `C_KGD = C_test(N_tr) / Y`.
    #[must_use]
    pub fn cost_per_good_die(
        &self,
        transistors: TransistorCount,
        die_yield: Yield,
    ) -> Dollars {
        let per_die = self.test.cost_per_die(transistors);
        let per_good = per_die / die_yield.value();
        provenance!(
            equation: EqC3,
            function: "nanocost_chiplet::kgd::KnownGoodDie::cost_per_good_die",
            inputs: [
                transistors = transistors.count(),
                cost_per_die = per_die.amount(),
                die_yield = die_yield.value(),
            ],
            outputs: [cost_per_good_die = per_good.amount()],
        );
        per_good
    }
}

impl Default for KnownGoodDie {
    /// The fab's default tester, used for pre-assembly (wafer-sort)
    /// test.
    fn default() -> Self {
        KnownGoodDie {
            test: TestCostModel::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_yield_charges_exactly_the_tester_time() {
        let kgd = KnownGoodDie::default();
        let t = TransistorCount::from_millions(10.0);
        let per_die = kgd.test.cost_per_die(t);
        let per_good = kgd.cost_per_good_die(t, Yield::new(1.0).unwrap());
        assert!((per_good.amount() - per_die.amount()).abs() < 1e-12);
    }

    #[test]
    fn falling_yield_inflates_the_kgd_premium() {
        let kgd = KnownGoodDie::default();
        let t = TransistorCount::from_millions(50.0);
        let at = |y: f64| kgd.cost_per_good_die(t, Yield::new(y).unwrap()).amount();
        assert!(at(0.5) > at(0.9));
        assert!(at(0.25) > at(0.5));
        // Halving the yield exactly doubles the per-good-die cost.
        assert!((at(0.25) / at(0.5) - 2.0).abs() < 1e-9);
    }
}
