//! EXT-PLACE: the placer as the paper's density knob — one netlist, many
//! die widths, measured s_d vs wirelength vs Elmore delay.
//!
//! Run with: `cargo run -p nanocost-bench --bin placement_study`

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

use nanocost_flow::elmore_delay;
use nanocost_layout::{Netlist, Placer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let netlist = Netlist::random(120, 200, 7)?;
    println!("EXT-PLACE — one 120-cell netlist annealed into dies of growing width");
    println!("(5 cells per row fixed; wider die = sparser placement)");
    println!();
    println!(
        "{:>10} {:>12} {:>12} {:>14}",
        "die [λ]", "s_d [λ²/tr]", "HPWL [λ]", "mean delay [au]"
    );
    for width in [400usize, 600, 800, 1200, 1600] {
        let placer = Placer {
            per_row: Some(5),
            ..Placer::with_die_width(width)
        };
        let placement = placer.place(&netlist)?;
        let layout = placement.to_layout(&netlist)?;
        let hpwl = placement.total_hpwl(&netlist);
        // Mean per-net Elmore delay at unit RC, in arbitrary units.
        let mean_len = hpwl / 200.0;
        let delay = elmore_delay(mean_len, 1.0e-3, 1.0e-3);
        println!(
            "{width:>10} {:>12.1} {:>12.0} {:>14.3}",
            layout.measured_sd().squares(),
            hpwl,
            delay
        );
    }
    println!();
    println!("density is an algorithmic choice: the same netlist spans a wide s_d");
    println!("range, and sparser placements pay in wirelength (hence delay, hence");
    println!("prediction difficulty) — the flip side of the paper's density/effort");
    println!("tradeoff, measured on real placements.");
    Ok(())
}
