//! Integration test: run every Table-A1 device through the cost models —
//! the dataset and the models must compose without special cases.

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

use nanocost::core::ManufacturingCostModel;
use nanocost::devices::{table_a1, DeviceClass};
use nanocost::fab::WaferSpec;
use nanocost::units::{CostPerArea, Yield};

#[test]
fn every_device_prices_out_positively() {
    let model = ManufacturingCostModel::paper_anchor();
    for r in table_a1() {
        let lambda = r.feature_size().expect("dataset is validated");
        let sd = r.effective_sd_logic();
        let cost = model.transistor_cost(lambda, sd);
        assert!(
            cost.amount() > 0.0 && cost.amount() < 1.0e-2,
            "row {}: implausible transistor cost {}",
            r.id,
            cost
        );
        let die = model.die_cost(lambda, sd, r.transistors());
        assert!(die.amount() > 0.01, "row {}: die cost {}", r.id, die);
    }
}

#[test]
fn die_costs_track_die_areas() {
    // Eq. 3's die cost is C_sq·A_ch/Y: ordering by area must order costs.
    let model = ManufacturingCostModel::paper_anchor();
    let rows = table_a1();
    let mut by_area: Vec<_> = rows.iter().collect();
    by_area.sort_by(|a, b| a.die_cm2.partial_cmp(&b.die_cm2).expect("finite"));
    let costs: Vec<f64> = by_area
        .iter()
        .map(|r| {
            model
                .die_cost(
                    r.feature_size().expect("valid"),
                    r.computed_sd_total(),
                    r.transistors(),
                )
                .amount()
        })
        .collect();
    for w in costs.windows(2) {
        assert!(w[1] >= w[0] * 0.999, "die cost should track area: {costs:?}");
    }
}

#[test]
fn table_a1_dies_fit_on_period_wafers() {
    // Every published die must actually fit a 200 mm wafer — and yield a
    // sensible count of candidates.
    let wafer = WaferSpec::standard_200mm();
    for r in table_a1() {
        let dice = wafer.gross_dice(r.die_area());
        assert!(
            dice.count() >= 40,
            "row {}: only {} dice from a 200mm wafer for a {:.2} cm² die",
            r.id,
            dice.count(),
            r.die_cm2
        );
    }
}

#[test]
fn memory_heavy_devices_are_cheapest_per_transistor() {
    // The paper's economic reading of Table A1: dense (memory-dominated)
    // parts deliver the cheapest transistors. Compare the mem-split CPUs'
    // memory regions against ASIC-class whole dies on equal terms.
    let model = ManufacturingCostModel::new(
        CostPerArea::per_cm2(8.0),
        Yield::new(0.8).expect("constant"),
    );
    let rows = table_a1();
    let mem_costs: Vec<f64> = rows
        .iter()
        .filter_map(|r| {
            let sd = r.computed_sd_mem()?;
            Some(
                model
                    .transistor_cost(r.feature_size().ok()?, sd)
                    .amount()
                    / r.feature_size().ok()?.square().cm2(), // normalize λ² out
            )
        })
        .collect();
    let asic_costs: Vec<f64> = rows
        .iter()
        .filter(|r| r.class == DeviceClass::Asic || r.class == DeviceClass::Network)
        .map(|r| {
            let lambda = r.feature_size().expect("valid");
            model.transistor_cost(lambda, r.computed_sd_total()).amount()
                / lambda.square().cm2()
        })
        .collect();
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    assert!(!mem_costs.is_empty() && !asic_costs.is_empty());
    assert!(
        mean(&asic_costs) > 4.0 * mean(&mem_costs),
        "normalized ASIC transistor cost {} should dwarf memory {}",
        mean(&asic_costs),
        mean(&mem_costs)
    );
}
