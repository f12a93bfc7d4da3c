//! The transistor cost models of Maly, *"IC Design in High-Cost
//! Nanometer-Technologies Era"* (DAC 2001) — the paper's primary
//! contribution, built on the workspace's substrate crates.
//!
//! # The models
//!
//! | Paper | Here |
//! |---|---|
//! | eq. 1–3, manufacturing cost `C_sq·λ²·s_d/Y` | [`ManufacturingCostModel`] |
//! | eq. 4–5, total cost with design spread over `N_w·A_w` | [`TotalCostModel`], [`design_cost_per_cm2`] |
//! | eq. 6, design effort | [`DesignEffortModel`](nanocost_flow::DesignEffortModel) (re-used from `nanocost-flow`) |
//! | eq. 7, generalized with substrate-backed `Cm_sq`, `Cd_sq`, `Y`, `u` | [`GeneralizedCostModel`] |
//! | Figure 4 | [`Figure4Scenario`] |
//! | §3.1 optimization | [`optimal_sd_total`], [`optimal_sd_generalized`], [`optimum_surface`] |
//! | §3.1 die-size/yield tradeoff | [`tradeoff_sweep`], [`verdict`] |
//! | "all design variables simultaneously" | [`elasticities`] |
//! | §2.2.2 time-to-market pressure (extension) | [`ProfitModel`] |
//! | §3's "all design variables simultaneously" as an API | [`DfmAdvisor`] |
//! | the high-cost-era node decision (extension) | [`node_sweep`], [`cheapest_node`] |
//!
//! # Example
//!
//! Reproduce the Figure-4 headline: the cost-optimal density depends on
//! volume and yield.
//!
//! ```
//! use nanocost_core::{Figure4Scenario, TotalCostModel};
//! use nanocost_fab::MaskCostModel;
//!
//! let model = TotalCostModel::paper_figure4();
//! let masks = MaskCostModel::default();
//! let a = Figure4Scenario::paper_4a().optimum(&model, &masks, 0.18)?;
//! let b = Figure4Scenario::paper_4b().optimum(&model, &masks, 0.18)?;
//! assert!(b.sd < a.sd); // high volume affords denser layout
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod advisor;
mod cache;
mod generalized;
mod manufacturing;
pub mod memo;
mod node_choice;
mod optimize;
mod profit;
mod scenario;
mod sensitivity;
mod total;
mod tradeoff;

pub use advisor::{advise_raw, DfmAdvisor, DfmReport, Recommendation};
pub use cache::{
    BatchRequest, BatchResponse, BatchStats, CostQuery, ScenarioCache, DEFAULT_CAPACITY,
    LAMBDA_QUANTUM_UM, SD_QUANTUM, TRANSISTOR_QUANTUM, YIELD_QUANTUM,
};
pub use generalized::{DesignPoint, GeneralizedCostModel, GeneralizedReport};
pub use node_choice::{cheapest_node, node_sweep, NodeChoice};
pub use manufacturing::ManufacturingCostModel;
pub use memo::CacheStats;
pub use profit::{ProfitModel, ProfitReport};
pub use optimize::{
    optimal_sd_generalized, optimal_sd_total, optimum_surface, DensityOptimum, OptimizeError,
    OptimumCell,
};
pub use scenario::{Figure4Error, Figure4Scenario};
pub use sensitivity::{elasticities, Elasticity, SensitivityPoint};
pub use total::{design_cost_per_cm2, CostBreakdown, TotalCostModel};
pub use tradeoff::{tradeoff_sweep, verdict, TradeoffPoint, TradeoffVerdict};

#[cfg(test)]
mod proptests {
    //! Randomized property checks driven by the in-tree [`Rng64`] stream so
    //! the suite runs fully offline (the external `proptest` crate is gone).

    use super::*;
    use nanocost_numeric::Rng64;
    use nanocost_units::{
        DecompressionIndex, Dollars, FeatureSize, TransistorCount, WaferCount, Yield,
    };

    const CASES: usize = 64;

    #[test]
    fn eq3_cost_positive_and_scale_covariant() {
        let mut r = Rng64::seed_from_u64(0x51);
        for _ in 0..CASES {
            let um = r.random_range(0.03f64..1.5);
            let s = r.random_range(10.0f64..2000.0);
            let m = ManufacturingCostModel::paper_anchor();
            let lambda = FeatureSize::from_microns(um).unwrap();
            let sd = DecompressionIndex::new(s).unwrap();
            let c = m.transistor_cost(lambda, sd).amount();
            assert!(c > 0.0);
            // Shrinking λ by x scales cost by x².
            let shrunk = m
                .transistor_cost(FeatureSize::from_microns(um * 0.5).unwrap(), sd)
                .amount();
            assert!((c / shrunk - 4.0).abs() < 1e-6);
        }
    }

    #[test]
    fn eq4_total_always_exceeds_its_manufacturing_share() {
        let mut r = Rng64::seed_from_u64(0x52);
        for _ in 0..CASES {
            let s = r.random_range(110.0f64..2000.0);
            let v = r.random_range(1000u64..1_000_000);
            let m = TotalCostModel::paper_figure4();
            let b = m
                .transistor_cost(
                    FeatureSize::from_microns(0.18).unwrap(),
                    DecompressionIndex::new(s).unwrap(),
                    TransistorCount::from_millions(10.0),
                    WaferCount::new(v).unwrap(),
                    Yield::new(0.8).unwrap(),
                    Dollars::new(200_000.0),
                )
                .unwrap();
            assert!(b.total().amount() > b.manufacturing.amount());
            assert!(b.design.amount() > 0.0);
            assert!((0.0..=1.0).contains(&b.design_fraction()));
        }
    }

    #[test]
    fn eq4_cost_monotone_decreasing_in_volume() {
        let mut r = Rng64::seed_from_u64(0x53);
        for _ in 0..CASES {
            let s = r.random_range(110.0f64..2000.0);
            let v = r.random_range(1000u64..500_000);
            let extra = r.random_range(1000u64..500_000);
            let m = TotalCostModel::paper_figure4();
            let cost = |vol: u64| {
                m.transistor_cost(
                    FeatureSize::from_microns(0.18).unwrap(),
                    DecompressionIndex::new(s).unwrap(),
                    TransistorCount::from_millions(10.0),
                    WaferCount::new(vol).unwrap(),
                    Yield::new(0.8).unwrap(),
                    Dollars::new(200_000.0),
                )
                .unwrap()
                .total()
                .amount()
            };
            assert!(cost(v + extra) <= cost(v) + 1e-18);
        }
    }

    #[test]
    fn eq7_report_valid_over_wide_domain() {
        let mut r = Rng64::seed_from_u64(0x54);
        for _ in 0..CASES {
            let um = r.random_range(0.05f64..0.5);
            let s = r.random_range(110.0f64..1500.0);
            let m = r.random_range(1.0f64..100.0);
            let v = r.random_range(1000u64..300_000);
            let model = GeneralizedCostModel::nanometer_default();
            let report = model
                .evaluate(DesignPoint {
                    lambda: FeatureSize::from_microns(um).unwrap(),
                    sd: DecompressionIndex::new(s).unwrap(),
                    transistors: TransistorCount::from_millions(m),
                    volume: WaferCount::new(v).unwrap(),
                })
                .unwrap();
            assert!(report.transistor_cost.amount() > 0.0);
            assert!(report.fab_yield.value() > 0.0 && report.fab_yield.value() <= 1.0);
            assert!(report.cm_sq.dollars_per_cm2() > 0.0);
            assert!(report.cd_sq.dollars_per_cm2() > 0.0);
        }
    }

    #[test]
    fn optimum_within_bracket() {
        let mut r = Rng64::seed_from_u64(0x55);
        for _ in 0..CASES {
            let v = r.random_range(2_000u64..200_000);
            let y = r.random_range(0.3f64..0.95);
            let m = TotalCostModel::paper_figure4();
            let opt = optimal_sd_total(
                &m,
                FeatureSize::from_microns(0.18).unwrap(),
                TransistorCount::from_millions(10.0),
                WaferCount::new(v).unwrap(),
                Yield::new(y).unwrap(),
                Dollars::new(200_000.0),
                105.0,
                2_000.0,
            )
            .unwrap();
            assert!(opt.sd >= 105.0 && opt.sd <= 2_000.0);
            assert!(opt.cost.amount() > 0.0);
        }
    }
}
