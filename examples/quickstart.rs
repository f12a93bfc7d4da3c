//! Quickstart: price one design end to end.
//!
//! Takes a 10 M-transistor part on the 0.18 µm node and walks the paper's
//! models from raw manufacturing cost (eq. 3) through the full generalized
//! model (eq. 7), printing each layer of refinement.
//!
//! Run with: `cargo run --example quickstart`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "an example prints its walkthrough and keeps error handling out of the way"
)]

use nanocost::core::{
    DesignPoint, GeneralizedCostModel, ManufacturingCostModel, TotalCostModel,
};
use nanocost::fab::MaskCostModel;
use nanocost::units::{
    DecompressionIndex, FeatureSize, TransistorCount, WaferCount, Yield,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lambda = FeatureSize::from_microns(0.18)?;
    let sd = DecompressionIndex::new(300.0)?;
    let transistors = TransistorCount::from_millions(10.0);
    let volume = WaferCount::new(20_000)?;

    println!("design point: {transistors} at {lambda}, s_d = {sd}, {volume}");
    println!();

    // Layer 1 — eq. 3: manufacturing only, paper anchors (C_sq=8, Y=0.8).
    let eq3 = ManufacturingCostModel::paper_anchor();
    let c3 = eq3.transistor_cost(lambda, sd);
    println!("eq. 3 (manufacturing only): {:>12.3e} $/transistor", c3.amount());
    println!("       die cost: {}", eq3.die_cost(lambda, sd, transistors));

    // Layer 2 — eq. 4: add mask + design cost spread over the run.
    let eq4 = TotalCostModel::paper_figure4();
    let masks = MaskCostModel::default();
    let b = eq4.transistor_cost(
        lambda,
        sd,
        transistors,
        volume,
        Yield::new(0.8)?,
        masks.mask_set_cost(lambda),
    )?;
    println!(
        "eq. 4 (with design):        {:>12.3e} $/transistor ({:.0}% design share)",
        b.total().amount(),
        b.design_fraction() * 100.0
    );

    // Layer 3 — eq. 7: substrate-backed wafer cost, yield, masks.
    let eq7 = GeneralizedCostModel::nanometer_default();
    let r = eq7.evaluate(DesignPoint {
        lambda,
        sd,
        transistors,
        volume,
    })?;
    println!(
        "eq. 7 (generalized):        {:>12.3e} $/transistor",
        r.transistor_cost.amount()
    );
    println!(
        "       substrate says: Cm_sq = {}, Cd_sq = {}, Y = {}",
        r.cm_sq, r.cd_sq, r.fab_yield
    );
    println!("       die cost: {}", r.die_cost);
    Ok(())
}
