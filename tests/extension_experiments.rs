//! Integration tests for the extension experiments: wafer-map simulation
//! (EXT-SIM), time-to-market economics (EXT-TTM), the physical delay
//! study (EXT-DELAY), and pitch-driven auto-configuration of the pattern
//! extractor — all through the public facade.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "test code: a failed unwrap or panic is a failed test, and output is diagnostics"
)]

use nanocost::core::{cheapest_node, GeneralizedCostModel, ProfitModel};
use nanocost::fab::{ProximityModel, WaferSpec};
use nanocost::flow::DelayStudy;
use nanocost::layout::{auto_analysis, MemoryArrayGenerator};
use nanocost::numeric::{bootstrap_mean_ci, Sampler};
use nanocost::units::{Area, FeatureSize, TransistorCount, Yield};
use nanocost::yield_model::{
    DefectDensity, DefectProcess, PoissonModel, WaferMapSimulator, YieldModel,
};

#[test]
fn wafer_map_ground_truth_validates_the_analytic_family() {
    let sim = WaferMapSimulator::new(WaferSpec::standard_200mm(), Area::from_cm2(1.5), 0.5)
        .expect("valid configuration");
    let density = DefectDensity::per_cm2(0.6).expect("valid");

    // Uniform process ≈ Poisson.
    let mut sampler = Sampler::seeded(404);
    let uniform = sim.simulate(&mut sampler, DefectProcess::Uniform { density }, 100);
    let poisson = PoissonModel.die_yield(sim.critical_area(), density);
    assert!((uniform.empirical_yield.value() - poisson.value()).abs() < 0.03);

    // Clustering at the same mean density helps and is over-dispersed.
    let mut sampler = Sampler::seeded(404);
    let clustered = sim.simulate(
        &mut sampler,
        DefectProcess::Clustered {
            density,
            mean_per_cluster: 8.0,
            sigma_mm: 2.0,
        },
        100,
    );
    assert!(clustered.empirical_yield.value() > uniform.empirical_yield.value());
    assert!(clustered.dispersion() > 1.5);
    assert!(clustered.fitted_alpha().expect("over-dispersed") < 2.0);
}

#[test]
fn time_to_market_reconciles_figure1_with_figure4() {
    // The full EXT-TTM pipeline through the facade: under fast ASP
    // erosion, the profit-optimal density is sparser than the
    // cost-optimal one and sparser than under a slow market.
    let lambda = FeatureSize::from_microns(0.18).expect("valid");
    let transistors = TransistorCount::from_millions(10.0);
    let y = Yield::new(0.8).expect("valid");
    let demand = 2.0e6;

    let fast = ProfitModel::competitive_default();
    let profit_fast = fast
        .optimal_sd(lambda, transistors, demand, y, 110.0, 1_200.0)
        .expect("valid bracket");
    let cost_fast = fast
        .optimal_sd_cost(lambda, transistors, demand, y, 110.0, 1_200.0)
        .expect("valid bracket");
    let profit_slow = ProfitModel::slow_market_default()
        .optimal_sd(lambda, transistors, demand, y, 110.0, 1_200.0)
        .expect("valid bracket");

    assert!(profit_fast.sd > cost_fast.sd);
    assert!(profit_fast.sd > profit_slow.sd);
    // And the chosen point is profitable at all in both markets.
    assert!(profit_fast.profit.amount() > 0.0);
    assert!(profit_slow.profit.amount() > 0.0);
}

#[test]
fn delay_study_grounds_the_prediction_model() {
    // The physical Elmore/coupling study produces a σ(λ) with the same
    // direction and magnitude the abstract PredictionModel assumes.
    let study = DelayStudy::nanometer_default();
    let prox = ProximityModel::default();
    let sigma_at = |um: f64| {
        let mut s = Sampler::seeded(77);
        study
            .run(&mut s, &prox, FeatureSize::from_microns(um).expect("valid"))
            .expect("valid study")
            .sigma()
    };
    let coarse = sigma_at(0.35);
    let fine = sigma_at(0.07);
    assert!(fine > coarse);
    assert!((0.02..0.3).contains(&coarse));
    assert!((0.02..0.3).contains(&fine));
}

#[test]
fn node_selection_is_demand_sensitive_through_the_facade() {
    // EXT-NODE end to end: a niche product and a mainstream product land
    // on different process generations.
    let model = GeneralizedCostModel::nanometer_default();
    let transistors = TransistorCount::from_millions(10.0);
    let niche = cheapest_node(&model, transistors, 3.0e4, (0.05, 0.6), (105.0, 2_000.0))
        .expect("sweep succeeds")
        .expect("candidates exist");
    let mainstream = cheapest_node(&model, transistors, 2.0e7, (0.05, 0.6), (105.0, 2_000.0))
        .expect("sweep succeeds")
        .expect("candidates exist");
    assert!(mainstream.lambda_um < niche.lambda_um);
    assert!(mainstream.die_cost.amount() < niche.die_cost.amount());
}

#[test]
fn auto_configured_extractor_matches_hand_tuned_on_memory() {
    let array = MemoryArrayGenerator::new(24, 32)
        .expect("valid")
        .generate()
        .expect("valid");
    let analysis = auto_analysis(array.grid(), 40, 16).expect("valid");
    assert_eq!((analysis.window_w, analysis.window_h), (14, 13));
    let report = analysis.analyze(array.grid()).expect("window fits");
    assert!(report.reuse_factor() > 50.0);
}

#[test]
fn bootstrap_ci_quantifies_simulation_uncertainty() {
    // The wafer-map empirical yield comes with a defensible error bar.
    let sim = WaferMapSimulator::new(WaferSpec::standard_200mm(), Area::from_cm2(1.5), 0.5)
        .expect("valid configuration");
    let density = DefectDensity::per_cm2(0.6).expect("valid");
    let mut sampler = Sampler::seeded(11);
    // Per-wafer yields as the bootstrap population.
    let per_wafer: Vec<f64> = (0..40)
        .map(|_| {
            sim.simulate(&mut sampler, DefectProcess::Uniform { density }, 1)
                .empirical_yield
                .value()
        })
        .collect();
    let ci = bootstrap_mean_ci(&per_wafer, 500, 0.95, 3).expect("valid samples");
    let analytic = PoissonModel
        .die_yield(sim.critical_area(), density)
        .value();
    assert!(
        ci.contains(analytic),
        "95% CI [{:.3}, {:.3}] should contain the Poisson value {:.3}",
        ci.lo,
        ci.hi,
        analytic
    );
}
