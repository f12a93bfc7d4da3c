//! Integration tests: each of the paper's figures regenerated end to end
//! through the public API, asserting the shapes the paper reports.

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

use nanocost::core::{Figure4Scenario, TotalCostModel};
use nanocost::devices::{figure1_by_vendor, table_a1, vendor_density_trend, Vendor};
use nanocost::fab::MaskCostModel;
use nanocost::roadmap::{figure3, itrs_1999, ConstantCostAssumptions};

#[test]
fn figure1_pipeline_worsening_density_and_vendor_gap() {
    let rows = table_a1();
    let series = figure1_by_vendor(&rows).expect("dataset is valid");
    assert!(series.iter().any(|s| s.name() == "Intel"));
    assert!(series.iter().any(|s| s.name() == "AMD"));

    // Industrial MPU densities worsen toward newer nodes for the two
    // market leaders the paper discusses.
    for vendor in [Vendor::Intel, Vendor::PowerPcAlliance] {
        let fit = vendor_density_trend(&rows, vendor).expect("enough rows");
        assert!(
            fit.slope > 0.0,
            "{vendor}: s_d should rise as nodes shrink, slope {}",
            fit.slope
        );
    }
}

#[test]
fn figure2_pipeline_itrs_demands_density_improvement() {
    let roadmap = itrs_1999();
    let sds: Vec<f64> = roadmap.iter().map(|e| e.implied_sd().squares()).collect();
    // Monotone non-increasing within 5 % noise, ending far below the start.
    for w in sds.windows(2) {
        assert!(w[1] < w[0] * 1.05, "implied s_d should trend down: {sds:?}");
    }
    assert!(sds[0] / sds[sds.len() - 1] > 2.0);
}

#[test]
fn figure3_pipeline_cost_contradiction() {
    let pts = figure3(&itrs_1999(), &ConstantCostAssumptions::paper_1999())
        .expect("roadmap is valid");
    // The ratio roughly doubles over the horizon and crosses unity.
    assert!(pts.last().unwrap().ratio > 1.0);
    assert!(pts.last().unwrap().ratio / pts[0].ratio > 1.8);
}

#[test]
fn figure4_pipeline_interior_optima_that_shift_with_volume() {
    let model = TotalCostModel::paper_figure4();
    let masks = MaskCostModel::default();
    let a = Figure4Scenario::paper_4a();
    let b = Figure4Scenario::paper_4b();

    for scenario in [&a, &b] {
        let chart = scenario.chart(&model, &masks).expect("sweep is valid");
        for series in chart.series() {
            let (sd_min, _) = series.argmin().expect("non-empty");
            let lo = series.points()[0].0;
            let hi = series.points()[series.len() - 1].0;
            assert!(
                sd_min > lo && sd_min < hi,
                "{}: optimum should be interior, got s_d = {sd_min}",
                series.name()
            );
        }
    }

    // The optimum of (b) sits at denser layout, at every node plotted.
    for &um in &a.lambdas_um {
        let oa = a.optimum(&model, &masks, um).expect("valid");
        let ob = b.optimum(&model, &masks, um).expect("valid");
        assert!(
            ob.sd < oa.sd,
            "λ={um}: 4b optimum {} should be denser than 4a optimum {}",
            ob.sd,
            oa.sd
        );
        assert!(ob.cost.amount() < oa.cost.amount());
    }
}

#[test]
fn figure4_yield_invariance_of_eq4_optimum() {
    // Analytic property the reproduction surfaced: a density-independent Y
    // cancels out of eq. 4's argmin — only the cost level moves.
    use nanocost::units::{Dollars, FeatureSize, TransistorCount, WaferCount, Yield};
    let model = TotalCostModel::paper_figure4();
    let lambda = FeatureSize::from_microns(0.18).unwrap();
    let n = TransistorCount::from_millions(10.0);
    let mask = Dollars::new(200_000.0);
    let opt = |y: f64| {
        nanocost::core::optimal_sd_total(
            &model,
            lambda,
            n,
            WaferCount::new(5_000).unwrap(),
            Yield::new(y).unwrap(),
            mask,
            105.0,
            2_000.0,
        )
        .unwrap()
    };
    let low_y = opt(0.4);
    let high_y = opt(0.9);
    assert!(
        (low_y.sd - high_y.sd).abs() < 2.0,
        "eq4 optimum should be Y-invariant: {} vs {}",
        low_y.sd,
        high_y.sd
    );
    assert!(high_y.cost.amount() < low_y.cost.amount());
}
