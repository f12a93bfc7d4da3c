//! Utilization study (paper §2.5, EXT-U): what the `u·Y` substitution
//! means for FPGA-style devices and partially used IP.
//!
//! Compares the generalized cost of the same logic delivered as full
//! custom (u = 1), as a platform with an unused FPU-style block, and as an
//! FPGA (u ≈ 0.1, plus the configurable fabric's own density overhead) —
//! and finds the volume at which the FPGA's zero design cost beats the
//! custom part's amortized one.
//!
//! Run with: `cargo run --example fpga_utilization`

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

use nanocost::core::{DesignPoint, GeneralizedCostModel};
use nanocost::units::{
    DecompressionIndex, FeatureSize, TransistorCount, Utilization, WaferCount,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let lambda = FeatureSize::from_microns(0.18)?;
    let transistors = TransistorCount::from_millions(10.0);

    // Three packagings of the same function.
    let custom = GeneralizedCostModel::nanometer_default();
    let platform = GeneralizedCostModel::nanometer_default()
        .with_utilization(Utilization::new(0.8)?); // an idle FPU-class block
    let fpga = GeneralizedCostModel::nanometer_default()
        .with_utilization(Utilization::new(0.10)?); // logic-equivalent gates

    // Custom silicon is dense but pays full design cost each project; the
    // FPGA fabric is sparser (configuration overhead) but its design cost
    // amortizes across every customer — model that as a huge effective
    // volume for the design-cost term by using relaxed density and the
    // fabric vendor's volume.
    let custom_sd = DecompressionIndex::new(250.0)?;
    let fpga_sd = DecompressionIndex::new(450.0)?;

    println!("cost per *useful* transistor, {transistors} of logic at {lambda}:");
    println!();
    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "volume", "custom u=1.0", "platform u=0.8", "fpga u=0.1"
    );
    for volume in [1_000u64, 5_000, 20_000, 100_000, 500_000] {
        let v = WaferCount::new(volume)?;
        let c = custom
            .evaluate(DesignPoint { lambda, sd: custom_sd, transistors, volume: v })?
            .transistor_cost;
        let p = platform
            .evaluate(DesignPoint { lambda, sd: custom_sd, transistors, volume: v })?
            .transistor_cost;
        // FPGA buyers inherit the fabric's mature, high-volume economics:
        // the fabric itself ships at vendor volume regardless of the
        // buyer's volume.
        let vendor_volume = WaferCount::new(500_000)?;
        let f = fpga
            .evaluate(DesignPoint {
                lambda,
                sd: fpga_sd,
                transistors,
                volume: vendor_volume,
            })?
            .transistor_cost;
        println!(
            "{volume:>10} {:>14.3e} {:>14.3e} {:>14.3e}",
            c.amount(),
            p.amount(),
            f.amount()
        );
    }

    println!();
    println!("reading: at low product volume the FPGA's wasted transistors are cheaper");
    println!("than the custom part's unamortized design cost; the crossover moves out");
    println!("as volume grows — the paper's u·Y substitution in action.");
    Ok(())
}
