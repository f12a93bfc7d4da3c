//! EXT-REG: regularity → prediction quality → design cost (paper §3.2).
//!
//! Run with: `cargo run -p nanocost-bench --bin regularity_experiment`

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

use nanocost_bench::figures::{regularity_cost_table, regularity_reports};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    println!("EXT-REG — pattern extraction (14×13 λ windows) and its cost impact");
    println!();
    println!(
        "{:<10} {:>8} {:>10} {:>12} {:>10}",
        "style", "unique", "reuse", "top-10 cov.", "entropy"
    );
    for (name, report) in regularity_reports() {
        println!(
            "{name:<10} {:>8} {:>10.1} {:>11.1}% {:>9.2}b",
            report.unique_patterns(),
            report.reuse_factor(),
            report.coverage_top(10) * 100.0,
            report.entropy_bits()
        );
    }
    println!();
    println!("{:<10} {:>12} {:>14}", "style", "iterations", "design cost");
    for (name, iters, cost) in regularity_cost_table()? {
        println!("{name:<10} {iters:>12.2} {:>13.2}M", cost / 1.0e6);
    }
    println!();
    println!("highly regular structures amortize expensive characterization across");
    println!("many pattern instances — the paper's closing prescription, measured.");
    Ok(())
}
