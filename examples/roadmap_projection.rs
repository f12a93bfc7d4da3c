//! Roadmap projection: the Figure-2/Figure-3 story with scenario knobs.
//!
//! Prints the ITRS-implied `s_d` per generation, the constant-die-cost
//! ceiling, and the affordability ratio under the paper's optimistic
//! assumptions and two erosion scenarios.
//!
//! Run with: `cargo run --example roadmap_projection`

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

use nanocost::roadmap::{
    itrs_1999, ConstantCostAssumptions, RoadmapTrends, Scenario,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let roadmap = itrs_1999();
    let base = ConstantCostAssumptions::paper_1999();

    println!("ITRS-1999 cost-performance MPU roadmap, constant-die-cost analysis");
    println!("anchors: C_ch = {}, C_sq = {}, Y = {}", base.die_cost, base.cost_per_cm2, base.fab_yield);
    println!();
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>12} {:>10}",
        "year", "node", "Mtr/chip", "ITRS s_d", "required s_d", "ratio"
    );
    for p in Scenario::OPTIMISTIC.figure3(&roadmap, &base)? {
        let entry = roadmap.iter().find(|e| e.year == p.year).expect("same roadmap");
        println!(
            "{:>6} {:>6.0}nm {:>10.0} {:>10.1} {:>12.1} {:>10.2}",
            p.year, p.feature_nm, entry.transistors_millions, p.itrs_sd, p.required_sd, p.ratio
        );
    }

    println!();
    println!("affordability ratio (ITRS s_d / affordable s_d) under erosion scenarios:");
    println!("{:>6} {:>12} {:>12} {:>12}", "year", "optimistic", "moderate", "pessimistic");
    let opt = Scenario::OPTIMISTIC.figure3(&roadmap, &base)?;
    let mid = Scenario::MODERATE.figure3(&roadmap, &base)?;
    let bad = Scenario::PESSIMISTIC.figure3(&roadmap, &base)?;
    for i in 0..roadmap.len() {
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>12.2}",
            opt[i].year, opt[i].ratio, mid[i].ratio, bad[i].ratio
        );
    }

    let trends = RoadmapTrends::fit(&roadmap)?;
    println!();
    println!(
        "fitted trends: transistors double every {:.1} years (R²={:.3}); feature size shrinks {:.1}%/year",
        trends.transistors.doubling_time(),
        trends.transistors.r_squared,
        (1.0 - trends.feature.growth_factor) * 100.0
    );
    let beyond = trends.project(&roadmap, 2018);
    println!(
        "projected 2018 generation: {:.0}nm, {:.0}M transistors, {:.0}mm² die",
        beyond.feature_nm, beyond.transistors_millions, beyond.chip_mm2
    );
    println!();
    println!("a ratio above 1 means the roadmap's own numbers cannot be delivered at");
    println!("the 1999 die cost — the paper's cost contradiction.");
    Ok(())
}
