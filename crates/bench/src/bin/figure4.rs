//! Regenerates Figure 4: C_tr(s_d) for the paper's two volume/yield
//! scenarios, with located optima.
//!
//! Run with: `cargo run -p nanocost-bench --bin figure4`

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

use nanocost_bench::figures::figure4_panel_cached;
use nanocost_core::{Figure4Scenario, ScenarioCache};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let _root = nanocost_trace::span!("figure4.run");
    // One cache across both panels: the per-node eq.-5 mask costs (and
    // any revisited grid points) are replayed, not recomputed, without
    // changing the figure's provenance fingerprint.
    let cache = ScenarioCache::paper_figure4();
    for scenario in [Figure4Scenario::paper_4a(), Figure4Scenario::paper_4b()] {
        let (chart, optima) = figure4_panel_cached(&cache, &scenario)?;
        println!("{}", chart.to_table());
        println!("{}", chart.to_ascii(72, 18));
        println!("optima (per node):");
        for (um, opt) in &optima {
            println!(
                "  λ = {um:.2} µm: s_d* = {:>6.0}, C_tr = {:.3e} $/transistor",
                opt.sd,
                opt.cost.amount()
            );
        }
        println!();
    }
    println!("reading: the high-volume/high-yield panel (4b) optimizes at a much");
    println!("denser layout — neither minimum die size nor maximum yield is the");
    println!("objective, minimum C_tr is (paper §3.1).");
    let stats = cache.stats();
    println!(
        "scenario cache: {} hits / {} misses ({} entries)",
        stats.hits, stats.misses, stats.entries
    );
    Ok(())
}
