//! EXT-WAFER: the economics of wafer-size transitions along the roadmap —
//! why the ITRS paired nanometer nodes with 300 mm (and later 450 mm)
//! wafers.
//!
//! Run with: `cargo run -p nanocost-bench --bin wafer_transition`

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

use nanocost_fab::{WaferCostModel, WaferSpec};
use nanocost_roadmap::itrs_1999;
use nanocost_units::WaferCount;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let _root = nanocost_trace::span!("wafer_transition.run");
    let cost = WaferCostModel::default();
    let volume = WaferCount::new(100_000)?;
    println!("EXT-WAFER — Cm_sq by wafer generation at each roadmap node (100k wafers)");
    println!();
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>10}",
        "year", "node", "200mm $/cm²", "300mm $/cm²", "roadmap ⌀", "saving"
    );
    for entry in itrs_1999() {
        let lambda = entry.feature_size()?;
        let on_200 = cost.cost_per_cm2(WaferSpec::standard_200mm(), lambda, volume);
        let on_300 = cost.cost_per_cm2(WaferSpec::standard_300mm(), lambda, volume);
        let saving = 1.0 - on_300.dollars_per_cm2() / on_200.dollars_per_cm2();
        println!(
            "{:>6} {:>6.0}nm {:>12.2} {:>12.2} {:>10.0}mm {:>9.1}%",
            entry.year,
            entry.feature_nm,
            on_200.dollars_per_cm2(),
            on_300.dollars_per_cm2(),
            entry.wafer_mm,
            saving * 100.0
        );
    }
    println!();
    println!("larger wafers process more area per (slightly costlier) pass: the");
    println!("per-cm² saving is what funds the transition — and it grows with the");
    println!("node because depreciation dominates nanometer wafer cost.");
    Ok(())
}
