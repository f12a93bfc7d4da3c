//! EXT-GEN: eq. 4's lower-bound property against the substrate-backed
//! eq. 7.
//!
//! Run with: `cargo run -p nanocost-bench --bin generalized_model`

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

use nanocost_bench::figures::generalized_vs_simple;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    println!("EXT-GEN — eq. 4 (paper anchors) vs eq. 7 (substrates), 0.18µm, 10M tr, s_d 300");
    println!();
    println!("{:>10} {:>14} {:>14} {:>8}", "wafers", "eq. 4 [$/tr]", "eq. 7 [$/tr]", "ratio");
    for (v, simple, full) in generalized_vs_simple()? {
        println!("{v:>10} {simple:>14.3e} {full:>14.3e} {:>8.2}", full / simple);
    }
    println!();
    println!("eq. 4 is the optimistic lower bound the paper claims (§2.5): the full");
    println!("model is costlier everywhere, most of all on young, low-volume lines.");
    Ok(())
}
