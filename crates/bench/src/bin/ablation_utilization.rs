//! EXT-U: the utilization (u·Y) ablation — FPGA-style cost per useful
//! transistor.
//!
//! Run with: `cargo run -p nanocost-bench --bin ablation_utilization`

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

use nanocost_bench::figures::utilization_study;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    println!("EXT-U — eq. 7 with the Y → u·Y substitution (paper §2.5)");
    println!();
    println!("{:>6} {:>10} {:>16}", "u", "wafers", "$/useful tr");
    for (u, v, cost) in utilization_study()? {
        println!("{u:>6.2} {v:>10} {cost:>16.3e}");
    }
    println!();
    println!("cost scales exactly as 1/u at fixed volume: fabricated-but-unused");
    println!("transistors behave like yield loss.");
    Ok(())
}
