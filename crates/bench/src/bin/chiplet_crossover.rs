//! EXT-CHIPLET: the monolithic-vs-SiP crossover — where splitting a
//! large die into known-good chiplets starts beating one big die, per
//! design size, over RDL and silicon-interposer assembly.
//!
//! Run with: `cargo run -p nanocost-bench --bin chiplet_crossover`

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

use nanocost_bench::figures::chiplet_crossover_study;
use nanocost_chiplet::ChipletCache;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let _root = nanocost_trace::span!("chiplet_crossover.run");
    let cache = ChipletCache::defaults()?;
    let rows = chiplet_crossover_study(&cache)?;
    println!("EXT-CHIPLET — monolithic vs best SiP at 70nm, s_d = 300, 1M units");
    println!();
    println!(
        "{:>8} {:>10} {:>12} {:>6} {:>5} {:>12} {:>8}",
        "Mtr", "die cm²", "mono $/unit", "best n", "asm", "SiP $/unit", "saving"
    );
    for row in &rows {
        let mono = row.monolithic.unit_cost.amount();
        let best = row.best.unit_cost.amount();
        let saving = 1.0 - best / mono;
        println!(
            "{:>8.0} {:>10.3} {:>12.2} {:>6} {:>5} {:>12.2} {:>7.1}%",
            row.transistors.count() / 1e6,
            row.monolithic.total_area.cm2(),
            mono,
            row.best_chiplets,
            row.best_assembly.name(),
            best,
            saving * 100.0
        );
    }
    let stats = cache.stats();
    println!();
    println!(
        "cache: {} hits / {} misses over the sweep (the n=1 revisit replays)",
        stats.hits, stats.misses
    );
    println!("small dies yield fine as one piece; past the crossover the defect");
    println!("exponent makes good monolithic silicon dearer than the bonding,");
    println!("test, and substrate overhead of reassembling known-good dies.");
    Ok(())
}
