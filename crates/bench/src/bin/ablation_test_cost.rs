//! EXT-TEST: the cost-of-test ablation (paper §2.5's invited extension).
//!
//! Run with: `cargo run -p nanocost-bench --bin ablation_test_cost`

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

use nanocost_bench::figures::test_cost_study;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    println!("EXT-TEST — eq. 7 with the TestCostModel enabled (50k wafers, 0.18µm)");
    println!();
    println!("{:>10} {:>16}", "Mtr", "test overhead");
    for (m, overhead) in test_cost_study()? {
        println!("{m:>10.0} {:>15.2}%", overhead * 100.0);
    }
    println!();
    println!("test time grows as √N_tr while silicon cost grows as N_tr, so the");
    println!("relative overhead *falls* with design size — test matters most for");
    println!("small dice.");
    Ok(())
}
