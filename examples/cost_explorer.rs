//! Cost explorer: the Figure-4 story as an interactive-style CLI sweep.
//!
//! Sweeps production volume and yield, printing the cost-optimal density
//! `s_d*` for each combination — the §3.1 lesson that the right density is
//! a function of the business plan, not just the process.
//!
//! Run with: `cargo run --example cost_explorer`

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

use nanocost::core::{optimum_surface, TotalCostModel};
use nanocost::fab::MaskCostModel;
use nanocost::units::{FeatureSize, TransistorCount};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = TotalCostModel::paper_figure4();
    let masks = MaskCostModel::default();
    let lambda = FeatureSize::from_microns(0.18)?;
    let transistors = TransistorCount::from_millions(10.0);
    let mask_cost = masks.mask_set_cost(lambda);

    let volumes = [1_000u64, 5_000, 20_000, 50_000, 200_000];
    let yields = [0.4, 0.6, 0.8, 0.9];

    println!("optimal s_d* (λ²/transistor) for a {transistors} design at {lambda}");
    println!("mask set: {mask_cost}");
    println!();
    print!("{:>12}", "volume \\ Y");
    for y in yields {
        print!("{y:>12.1}");
    }
    println!();

    let cells = optimum_surface(
        &model, lambda, transistors, mask_cost, &volumes, &yields, 105.0, 2_500.0,
    )?;
    for v in volumes {
        print!("{v:>12}");
        for y in yields {
            let cell = cells
                .iter()
                .find(|c| c.volume == v && (c.fab_yield - y).abs() < 1e-9)
                .expect("cell computed");
            print!("{:>12.0}", cell.optimum.sd);
        }
        println!();
    }

    println!();
    println!("cost at optimum ($/transistor):");
    print!("{:>12}", "volume \\ Y");
    for y in yields {
        print!("{y:>12.1}");
    }
    println!();
    for v in volumes {
        print!("{v:>12}");
        for y in yields {
            let cell = cells
                .iter()
                .find(|c| c.volume == v && (c.fab_yield - y).abs() < 1e-9)
                .expect("cell computed");
            print!("{:>12.2e}", cell.optimum.cost.amount());
        }
        println!();
    }

    println!();
    println!("reading: down a column, volume amortizes design cost and the optimum");
    println!("moves toward denser layout. Across a row the *cost* falls with yield");
    println!("but the optimum s_d* does not move: in eq. 4 a density-independent Y");
    println!("scales both cost terms equally and cancels out of the argmin. Yield");
    println!("relocates the optimum only in the generalized model (eq. 7), where Y");
    println!("itself responds to s_d — see the tradeoff sweep below.");

    println!();
    println!("generalized model (eq. 7, yield responds to density):");
    let g = nanocost::core::GeneralizedCostModel::nanometer_default();
    for v in volumes {
        let opt = nanocost::core::optimal_sd_generalized(
            &g,
            lambda,
            transistors,
            nanocost::units::WaferCount::new(v)?,
            105.0,
            2_500.0,
        )?;
        println!(
            "{v:>12} wafers: s_d* = {:>5.0}, {:.2e} $/transistor",
            opt.sd,
            opt.cost.amount()
        );
    }
    Ok(())
}
