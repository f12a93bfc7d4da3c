//! Regenerates Table A1 with recomputed density columns.
//!
//! Run with: `cargo run -p nanocost-bench --bin table_a1`

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

use nanocost_bench::figures::table_a1_rows;
use nanocost_bench::report::render_table_a1;

fn main() {
    let _trace = nanocost_trace::init_from_env();
    let rows = table_a1_rows();
    println!("Table A1 — published industrial designs (Maly DAC-2001), re-derived");
    println!();
    print!("{}", render_table_a1(&rows));
    println!(
        "reconstructed rows (see module docs): {:?}",
        nanocost_devices::RECONSTRUCTED_ROWS
    );
    println!(
        "internally inconsistent as printed: {:?}",
        nanocost_devices::INCONSISTENT_ROWS
    );
}
