//! Physical design end to end: netlist → annealed placement → left-edge
//! channel routing → measured density → dollars.
//!
//! The paper's §2.2.1 observation is that designs from the *same* cell
//! library land at very different densities depending on "design
//! algorithms/methodologies employed". This example shows that knob
//! directly: one netlist, three die widths, real routed channel heights,
//! and the eq.-3 price of each outcome.
//!
//! Run with: `cargo run --example physical_design`

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

use nanocost::core::ManufacturingCostModel;
use nanocost::layout::{Netlist, Placer};
use nanocost::units::{DecompressionIndex, FeatureSize};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = Netlist::random(150, 260, 11)?;
    let lambda = FeatureSize::from_microns(0.25)?;
    let pricing = ManufacturingCostModel::paper_anchor();

    println!(
        "one {}-cell netlist ({} transistors), placed and routed at three widths:",
        netlist.len(),
        netlist.transistors()
    );
    println!();
    println!(
        "{:>9} {:>10} {:>10} {:>10} {:>12} {:>14}",
        "die [λ]", "HPWL [λ]", "tracks", "routed s_d", "peak tracks", "$/transistor"
    );
    for width in [450usize, 900, 1500] {
        let placer = Placer {
            per_row: Some(6),
            ..Placer::with_die_width(width)
        };
        let placement = placer.place(&netlist)?;
        let routing = placement.route(&netlist);
        let sd = DecompressionIndex::new(routing.routed_sd())?;
        let cost = pricing.transistor_cost(lambda, sd);
        let peak = routing
            .channels
            .iter()
            .map(|c| c.track_count())
            .max()
            .unwrap_or(0);
        println!(
            "{width:>9} {:>10.0} {:>10} {:>10.0} {:>12} {:>14}",
            placement.total_hpwl(&netlist),
            routing.total_tracks(),
            routing.routed_sd(),
            peak,
            cost
        );
    }
    println!();
    println!("wider floorplans buy shorter schedules (easier closure) with sparser");
    println!("silicon; the routed channel heights are real left-edge track counts,");
    println!("not estimates — this is the s_d knob of the paper, implemented.");
    Ok(())
}
