//! Integration tests: cross-crate properties of the cost-model stack.

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

use nanocost::core::{
    DesignPoint, GeneralizedCostModel, ManufacturingCostModel, TotalCostModel,
};
use nanocost::fab::{MaskCostModel, TestCostModel, WaferSpec};
use nanocost::units::{
    DecompressionIndex, Dollars, FeatureSize, TransistorCount, Utilization, WaferCount, Yield,
};

fn um(x: f64) -> FeatureSize {
    FeatureSize::from_microns(x).unwrap()
}

fn sd(v: f64) -> DecompressionIndex {
    DecompressionIndex::new(v).unwrap()
}

#[test]
fn eq1_eq3_eq4_eq7_form_a_cost_ladder() {
    // Each refinement can only make the estimate less optimistic at a
    // low-volume design point (the paper's lower-bound argument, §2.5).
    let lambda = um(0.18);
    let density = sd(300.0);
    let transistors = TransistorCount::from_millions(10.0);
    let volume = WaferCount::new(5_000).unwrap();

    let eq3 = ManufacturingCostModel::paper_anchor()
        .transistor_cost(lambda, density)
        .amount();
    let eq1 = ManufacturingCostModel::paper_anchor()
        .transistor_cost_eq1(WaferSpec::standard_200mm(), lambda, density, transistors)
        .unwrap()
        .amount();
    let eq4 = TotalCostModel::paper_figure4()
        .transistor_cost(
            lambda,
            density,
            transistors,
            volume,
            Yield::new(0.8).unwrap(),
            MaskCostModel::default().mask_set_cost(lambda),
        )
        .unwrap()
        .total()
        .amount();
    let eq7 = GeneralizedCostModel::nanometer_default()
        .evaluate(DesignPoint {
            lambda,
            sd: density,
            transistors,
            volume,
        })
        .unwrap()
        .transistor_cost
        .amount();

    assert!(eq1 > eq3, "wafer-edge losses: eq1 {eq1} > eq3 {eq3}");
    assert!(eq4 > eq3, "design cost: eq4 {eq4} > eq3 {eq3}");
    assert!(eq7 > eq4, "substrate realism: eq7 {eq7} > eq4 {eq4}");
}

#[test]
fn fpga_crossover_exists_and_moves_with_volume() {
    // EXT-U end to end: at some product volume the custom part overtakes
    // the FPGA.
    let lambda = um(0.18);
    let transistors = TransistorCount::from_millions(10.0);
    let custom = GeneralizedCostModel::nanometer_default();
    let fpga = GeneralizedCostModel::nanometer_default()
        .with_utilization(Utilization::new(0.10).unwrap());
    let fpga_cost = fpga
        .evaluate(DesignPoint {
            lambda,
            sd: sd(450.0),
            transistors,
            volume: WaferCount::new(500_000).unwrap(), // vendor volume
        })
        .unwrap()
        .transistor_cost
        .amount();
    let custom_cost = |v: u64| {
        custom
            .evaluate(DesignPoint {
                lambda,
                sd: sd(250.0),
                transistors,
                volume: WaferCount::new(v).unwrap(),
            })
            .unwrap()
            .transistor_cost
            .amount()
    };
    assert!(
        custom_cost(1_000) > fpga_cost,
        "at tiny volume custom should lose to the FPGA"
    );
    assert!(
        custom_cost(200_000) < fpga_cost,
        "at high volume custom should win"
    );
}

#[test]
fn test_cost_extension_is_small_but_nonzero() {
    // EXT-TEST: the §2.5 extension changes the answer by percents, not
    // orders of magnitude, on a mainstream part.
    let base = GeneralizedCostModel::nanometer_default();
    let tested = GeneralizedCostModel::nanometer_default().with_test(TestCostModel::default());
    let point = DesignPoint {
        lambda: um(0.18),
        sd: sd(300.0),
        transistors: TransistorCount::from_millions(10.0),
        volume: WaferCount::new(50_000).unwrap(),
    };
    let a = base.evaluate(point).unwrap().transistor_cost.amount();
    let b = tested.evaluate(point).unwrap().transistor_cost.amount();
    let overhead = (b - a) / a;
    assert!(overhead > 0.0);
    assert!(overhead < 0.5, "test overhead {overhead} should be modest");
}

#[test]
fn die_cost_constancy_requires_density_progress() {
    // The Fig-2/Fig-3 logic restated through the eq-3 die cost: holding
    // s_d at industry-trend values blows the $34 budget at nanometer
    // nodes; holding it at the constant-cost value does not.
    use nanocost::roadmap::{itrs_1999, ConstantCostAssumptions};
    let assumptions = ConstantCostAssumptions::paper_1999();
    let industry_sd = sd(400.0); // the paper's K7-era custom-MPU ballpark
    for entry in itrs_1999() {
        let lambda = entry.feature_size().unwrap();
        let budget = assumptions
            .die_cost_for(lambda, entry.transistors(), industry_sd)
            .amount();
        let affordable = assumptions
            .required_sd(lambda, entry.transistors())
            .unwrap();
        let at_required = assumptions
            .die_cost_for(lambda, entry.transistors(), affordable)
            .amount();
        assert!((at_required - 34.0).abs() < 1e-6);
        if entry.year >= 2005 {
            assert!(
                budget > 34.0,
                "{}: industry-density die should exceed $34, got {budget}",
                entry.year
            );
        }
    }
}

#[test]
fn mask_share_grows_but_design_effort_dominates_it() {
    // Decompose Cd_sq: at the paper's constants, C_DE >> C_MA for a 10M
    // design even at nanometer mask prices.
    use nanocost::flow::DesignEffortModel;
    let masks = MaskCostModel::default();
    let effort = DesignEffortModel::paper_defaults();
    let n = TransistorCount::from_millions(10.0);
    for &node in &[0.25, 0.13, 0.07] {
        let mask: Dollars = masks.mask_set_cost(um(node));
        let design = effort.design_cost(n, sd(300.0)).unwrap();
        assert!(
            design.amount() > mask.amount(),
            "λ={node}: C_DE {design} should dominate C_MA {mask}"
        );
    }
}
