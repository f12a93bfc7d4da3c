//! Regularity analysis: §3.2 end to end.
//!
//! Generates three layouts spanning the design-style spectrum (memory
//! array, standard cells, irregular custom block), extracts their repeated
//! patterns, and connects the measured regularity to simulated design
//! iterations and cost.
//!
//! Run with: `cargo run --example regularity_analysis`

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

use nanocost::flow::{ClosureSimulator, DesignTeamModel, RegularityEffect};
use nanocost::layout::{
    Layout, MemoryArrayGenerator, RandomBlockGenerator, RegularityAnalysis, StdCellGenerator,
};
use nanocost::numeric::McConfig;
use nanocost::units::{DecompressionIndex, FeatureSize, TransistorCount};

fn analyze(name: &str, layout: &Layout) -> Result<RegularityEffect, Box<dyn std::error::Error>> {
    // Window matched to the SRAM bitcell pitch; the same window is applied
    // to every style so the comparison is fair.
    let report = RegularityAnalysis::tiling_rect(14, 13)?.analyze(layout.grid())?;
    let effect = RegularityEffect::from_report(&report);
    println!(
        "{name:<12} s_d={:>7.1}  unique patterns={:>6}  reuse={:>8.1}  top-10 coverage={:>5.1}%  entropy={:>5.2} bits",
        layout.measured_sd().squares(),
        report.unique_patterns(),
        effect.reuse_factor,
        effect.top10_coverage * 100.0,
        effect.entropy_bits,
    );
    Ok(effect)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("pattern extraction over three design styles (14x13 λ windows)");
    println!();
    let memory = MemoryArrayGenerator::new(32, 48)?.generate()?;
    let std_cells = StdCellGenerator::new(24, 1200, 20, 0.8, 42)?.generate()?;
    let custom = RandomBlockGenerator::new(
        memory.grid().width(),
        memory.grid().height(),
        memory.transistors(),
        7,
    )?
    .generate()?;

    let mem_effect = analyze("memory", &memory)?;
    let std_effect = analyze("std-cell", &std_cells)?;
    let custom_effect = analyze("custom", &custom)?;

    // Translate regularity into design iterations and dollars.
    println!();
    println!("simulated timing closure at 0.10 µm, s_d target 150, 10M transistors:");
    let sim = ClosureSimulator::nanometer_default();
    let team = DesignTeamModel::nanometer_default();
    let lambda = FeatureSize::from_microns(0.10)?;
    let sd = DecompressionIndex::new(150.0)?;
    let transistors = TransistorCount::from_millions(10.0);
    let config = McConfig { seed: 11, trials: 2_000 };

    for (name, effect) in [
        ("memory", &mem_effect),
        ("std-cell", &std_effect),
        ("custom", &custom_effect),
    ] {
        let iterations = sim.mean_iterations(config, lambda, sd, effect.reuse_factor)?;
        let cost = team.project_cost(transistors, iterations);
        println!("{name:<12} mean iterations = {iterations:>5.2}   design cost ≈ {cost}");
    }

    println!();
    println!("the paper's §3.2 claim, measured: high pattern reuse → predictable");
    println!("physics → fewer failed iterations → lower design cost.");
    Ok(())
}
