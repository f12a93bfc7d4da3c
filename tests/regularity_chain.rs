//! Integration test: the full §3.2 chain — layout generation → pattern
//! extraction → prediction quality → iteration count → design dollars →
//! transistor cost.

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
#![allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]

use nanocost::core::{DesignPoint, GeneralizedCostModel};
use nanocost::flow::{ClosureSimulator, DesignTeamModel, RegularityEffect};
use nanocost::layout::{
    MemoryArrayGenerator, RandomBlockGenerator, RegularityAnalysis,
};
use nanocost::numeric::McConfig;
use nanocost::units::{DecompressionIndex, FeatureSize, TransistorCount, WaferCount};

#[test]
fn regular_and_irregular_layouts_diverge_in_end_to_end_cost() {
    // Two layouts with *matched* area and transistor count (hence equal
    // measured s_d) — regularity is the only difference.
    let regular = MemoryArrayGenerator::new(24, 32).unwrap().generate().unwrap();
    let irregular = RandomBlockGenerator::new(
        regular.grid().width(),
        regular.grid().height(),
        regular.transistors(),
        99,
    )
    .unwrap()
    .generate()
    .unwrap();
    assert_eq!(
        regular.measured_sd().squares(),
        irregular.measured_sd().squares()
    );

    let window = RegularityAnalysis::tiling_rect(14, 13).unwrap();
    let reg_effect = RegularityEffect::from_report(&window.analyze(regular.grid()).unwrap());
    let irr_effect = RegularityEffect::from_report(&window.analyze(irregular.grid()).unwrap());
    assert!(reg_effect.reuse_factor > 20.0 * irr_effect.reuse_factor);

    // Same density target, same node, same team — different iteration
    // counts and dollars.
    let sim = ClosureSimulator::nanometer_default();
    let team = DesignTeamModel::nanometer_default();
    let lambda = FeatureSize::from_microns(0.10).unwrap();
    let target = DecompressionIndex::new(140.0).unwrap();
    let transistors = TransistorCount::from_millions(10.0);
    let config = McConfig { seed: 3, trials: 1_500 };

    let reg_iters = sim
        .mean_iterations(config, lambda, target, reg_effect.reuse_factor)
        .unwrap();
    let irr_iters = sim
        .mean_iterations(config, lambda, target, irr_effect.reuse_factor)
        .unwrap();
    assert!(
        reg_iters < irr_iters,
        "regular {reg_iters} vs irregular {irr_iters}"
    );

    let reg_cost = team.project_cost(transistors, reg_iters);
    let irr_cost = team.project_cost(transistors, irr_iters);
    assert!(reg_cost.amount() < irr_cost.amount());

    // Fold the design-cost difference into the transistor cost at modest
    // volume: the regular design's part is cheaper end to end.
    let model = GeneralizedCostModel::nanometer_default();
    let point = DesignPoint {
        lambda,
        sd: target,
        transistors,
        volume: WaferCount::new(5_000).unwrap(),
    };
    let silicon = model.evaluate(point).unwrap();
    let spread = |design_cost: f64| {
        design_cost / (point.volume.as_f64() * model.wafer().total_area().cm2())
    };
    let reg_total = silicon.transistor_cost.amount()
        + spread(reg_cost.amount()) * target.squares() * lambda.square().cm2()
            / silicon.effective_yield.value();
    let irr_total = silicon.transistor_cost.amount()
        + spread(irr_cost.amount()) * target.squares() * lambda.square().cm2()
            / silicon.effective_yield.value();
    assert!(reg_total < irr_total);
}

#[test]
fn measured_sd_feeds_the_cost_model_directly() {
    // A generated layout's measured density can be priced without any
    // hand-specified s_d — closing the loop between artwork and economics.
    // A memory array lands near s_d ≈ 30, below the *logic* best-possible
    // s_d0 = 100 (eq. 6 correctly refuses that), so the effort model is
    // re-anchored at the bitcell-limited memory density.
    let layout = MemoryArrayGenerator::new(64, 128).unwrap().generate().unwrap();
    let memory_effort =
        nanocost::flow::DesignEffortModel::new(1000.0, 1.0, 1.2, 25.0).unwrap();
    let model = GeneralizedCostModel::new(
        nanocost::fab::WaferSpec::standard_200mm(),
        nanocost::fab::WaferCostModel::default(),
        nanocost::fab::MaskCostModel::default(),
        memory_effort,
        nanocost::yield_model::YieldSurface::nanometer_default(),
    );
    let report = model
        .evaluate(DesignPoint {
            lambda: FeatureSize::from_microns(0.25).unwrap(),
            sd: layout.measured_sd(),
            transistors: layout.transistor_count(),
            volume: WaferCount::new(100_000).unwrap(),
        })
        .unwrap();
    // A dense memory block prices out at classic SRAM-era cost levels:
    // well under a micro-dollar per transistor at high volume.
    assert!(report.transistor_cost.amount() < 1.0e-6);
    assert!(report.transistor_cost.amount() > 1.0e-9);
}
