//! Regenerates Figure 2: s_d implied by the ITRS-1999 MPU roadmap.
//!
//! Run with: `cargo run -p nanocost-bench --bin figure2`

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

use nanocost_bench::figures::figure2;
use nanocost_numeric::Chart;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let _root = nanocost_trace::span!("figure2.run");
    let series = figure2()?;
    println!("Figure 2 — s_d for microprocessors from ITRS-1999 data (eq. 2)");
    println!();
    println!("{:>10} {:>12}", "node [nm]", "implied s_d");
    for &(nm, sd) in series.points() {
        println!("{nm:>10.0} {sd:>12.1}");
    }
    let chart = Chart::new("Figure 2", "feature size [nm]", "s_d").with_series(series);
    println!();
    println!("{}", chart.to_ascii(64, 16));
    println!("reading: the roadmap's own density targets require s_d to *improve*");
    println!("(fall) while industry practice (Figure 1) lets it worsen.");
    Ok(())
}
