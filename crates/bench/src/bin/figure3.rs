//! Regenerates Figure 3: the constant-die-cost affordability ratio.
//!
//! Run with: `cargo run -p nanocost-bench --bin figure3`

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

use nanocost_bench::figures::{figure3_points, figure3_scenario};
use nanocost_bench::report::render_figure3;
use nanocost_roadmap::Scenario;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let _root = nanocost_trace::span!("figure3.run");
    println!("Figure 3 — ratio of ITRS s_d to constant-die-cost s_d");
    println!("anchors: C_ch = $34, C_sq = 8 $/cm², Y = 0.8 (paper §2.2.3)");
    println!();
    print!("{}", render_figure3(&figure3_points()?));
    println!();
    println!("erosion scenarios (EXT): ratio at each generation");
    println!("{:>6} {:>12} {:>12} {:>12}", "year", "optimistic", "moderate", "pessimistic");
    let opt = figure3_scenario(Scenario::OPTIMISTIC)?;
    let mid = figure3_scenario(Scenario::MODERATE)?;
    let bad = figure3_scenario(Scenario::PESSIMISTIC)?;
    for i in 0..opt.len() {
        println!(
            "{:>6} {:>12.2} {:>12.2} {:>12.2}",
            opt[i].year, opt[i].ratio, mid[i].ratio, bad[i].ratio
        );
    }
    println!();
    println!("a ratio above one is the paper's cost contradiction.");
    Ok(())
}
