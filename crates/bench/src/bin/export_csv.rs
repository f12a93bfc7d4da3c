//! Exports the Table A1 dataset (with recomputed densities) as CSV on
//! stdout, for analysis outside Rust.
//!
//! Run with: `cargo run -p nanocost-bench --bin export_csv > table_a1.csv`

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

use std::io::Write;

use nanocost_devices::{table_a1, to_csv};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let mut stdout = std::io::stdout().lock();
    write!(stdout, "{}", to_csv(&table_a1()))?;
    Ok(())
}
