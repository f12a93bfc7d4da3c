//! The DfM advisor: §3's "design for cost efficiency" as a tool.
//!
//! Evaluates three design situations — an over-sparse low-volume ASIC, a
//! near-optimal mainstream part, and an aggressive full-custom push — and
//! prints the advisor's typed recommendations, then shows the §3.2
//! portfolio economics of a shared pre-characterized block library.
//!
//! Run with: `cargo run --example dfm_advisor`

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

use nanocost::core::{advise_raw, DfmAdvisor};
use nanocost::flow::{PortfolioModel, PortfolioProduct};
use nanocost::units::{DecompressionIndex, TransistorCount};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let advisor = DfmAdvisor::nanometer_default();
    let cases = [
        ("over-sparse ASIC, low volume", 0.25, 900.0, 5.0, 2_000u64),
        ("mainstream MPU, high volume", 0.18, 180.0, 10.0, 100_000),
        ("aggressive full-custom push", 0.18, 112.0, 10.0, 20_000),
    ];
    for (name, um, sd, mtr, wafers) in cases {
        println!("== {name} (λ = {um}µm, s_d = {sd:.0}, {mtr:.0}M tr, {wafers} wafers) ==");
        let report = advise_raw(&advisor, um, sd, mtr, wafers)?;
        print!("{}", report.to_text());
        println!();
    }

    println!("== portfolio economics (§3.2: reuse across many products) ==");
    let portfolio = PortfolioModel::nanometer_default();
    let product = PortfolioProduct::new(
        TransistorCount::from_millions(10.0),
        DecompressionIndex::new(200.0)?,
        0.7,
    )?;
    let scratch = portfolio.from_scratch_cost(&[product])?;
    let with_library = portfolio.product_cost(&product)?;
    println!("per-product design cost from scratch: {scratch}");
    println!("with a 70%-shared pre-characterized library: {with_library}");
    match portfolio.breakeven_products(&product, 20)? {
        Some(k) => println!("the $25M library program pays for itself at product #{k}"),
        None => println!("the library never pays for itself at this sharing level"),
    }
    Ok(())
}
