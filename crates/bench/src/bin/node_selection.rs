//! EXT-NODE: which process node should a product use in the high-cost
//! era? Fixed unit demand; eq. 7 with the volume↔yield fixed point.
//!
//! Run with: `cargo run -p nanocost-bench --bin node_selection`

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary's console is its interface, and it may abort on a fatal error"
)]

use nanocost_core::{node_sweep, GeneralizedCostModel};
use nanocost_units::TransistorCount;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let _root = nanocost_trace::span!("node_selection.run");
    let model = GeneralizedCostModel::nanometer_default();
    for (name, mtr, demand) in [
        ("niche ASIC: 2M transistors, 30k units", 2.0, 3.0e4),
        ("mid-volume product: 10M transistors, 1M units", 10.0, 1.0e6),
        ("mainstream MPU: 10M transistors, 20M units", 10.0, 2.0e7),
    ] {
        let transistors = TransistorCount::from_millions(mtr);
        println!("== {name} ==");
        println!(
            "{:>8} {:>8} {:>8} {:>10} {:>12}",
            "node", "λ [µm]", "s_d*", "wafers", "$/good die"
        );
        let choices = node_sweep(&model, transistors, demand, (0.05, 0.6), (105.0, 2_000.0))?;
        for c in &choices {
            println!(
                "{:>8} {:>8.3} {:>8.0} {:>10} {:>12}",
                c.node, c.lambda_um, c.optimal_sd, c.wafers, c.die_cost
            );
        }
        println!("  → cheapest: {}", choices[0].node);
        println!();
    }
    println!("the bleeding edge is a high-volume privilege: at 30k units the mask");
    println!("set, design effort, and immature yield cannot amortize over the");
    println!("handful of wafers an advanced node needs — the 'high-cost era' tax.");
    Ok(())
}
