//! EXT-VOL: the optimum-density surface over volume × yield.
//!
//! Run with: `cargo run -p nanocost-bench --bin optimum_surface`

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

use nanocost_bench::figures::{generalized_optimum, optimum_surface_study_cached};
use nanocost_core::ScenarioCache;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let cache = ScenarioCache::paper_figure4();
    let cells = optimum_surface_study_cached(&cache)?;
    let volumes: Vec<u64> = {
        let mut v: Vec<u64> = cells.iter().map(|c| c.volume).collect();
        v.sort_unstable();
        v.dedup();
        v
    };
    let yields: Vec<f64> = {
        let mut y: Vec<f64> = cells.iter().map(|c| c.fab_yield).collect();
        y.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        y.dedup();
        y
    };
    println!("EXT-VOL — eq. 4 optimal s_d* over volume × yield (0.18µm, 10M tr)");
    println!();
    print!("{:>10}", "N_w \\ Y");
    for y in &yields {
        print!("{y:>10.1}");
    }
    println!();
    for v in &volumes {
        print!("{v:>10}");
        for y in &yields {
            let c = cells
                .iter()
                .find(|c| c.volume == *v && (c.fab_yield - y).abs() < 1e-9)
                .expect("computed");
            print!("{:>10.0}", c.optimum.sd);
        }
        println!();
    }
    println!();
    println!("note the columns are identical: a density-independent yield cancels");
    println!("out of eq. 4's argmin. The generalized model, where Y responds to s_d,");
    println!("does move with volume:");
    for v in [5_000u64, 50_000, 500_000] {
        let opt = generalized_optimum(v)?;
        println!("  eq. 7, {v:>7} wafers: s_d* = {:>5.0}", opt.sd);
    }
    Ok(())
}
