//! EXT-TTM: time-to-market pressure and the profit-optimal density —
//! reconciling the paper's Figure 1 (industry goes sparse) with its
//! Figure 4 (cost says go dense).
//!
//! Run with: `cargo run -p nanocost-bench --bin ablation_time_to_market`

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

use nanocost_bench::figures::time_to_market_study;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    println!("EXT-TTM — profit vs cost optimal s_d (0.18µm, 10M tr, 2M-unit demand)");
    println!();
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>12}",
        "market", "cost-opt s_d", "profit-opt s_d", "entry [wk]", "profit"
    );
    for (name, profit, cost) in time_to_market_study()? {
        println!(
            "{name:<12} {:>14.0} {:>14.0} {:>12.1} {:>12}",
            cost.sd, profit.sd, profit.time_to_market_weeks, profit.profit
        );
    }
    println!();
    println!("under fast ASP erosion the profit-optimal layout is sparser than the");
    println!("cost-optimal one: the §2.2.2 'time-to-market-driven design mentality'");
    println!("is rational economics, and exactly the gap the paper's regularity");
    println!("prescription (§3.2) aims to close by making dense design fast.");
    Ok(())
}
