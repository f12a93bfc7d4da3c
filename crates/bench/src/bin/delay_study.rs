//! EXT-DELAY: the physical interconnect-delay prediction study behind the
//! abstract prediction-error model (paper §2.4).
//!
//! Run with: `cargo run -p nanocost-bench --bin delay_study`

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

use nanocost_fab::ProximityModel;
use nanocost_flow::DelayStudy;
use nanocost_numeric::Sampler;
use nanocost_units::FeatureSize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let _root = nanocost_trace::span!("delay_study.run");
    println!("EXT-DELAY — Elmore-delay prediction error vs process node");
    println!("(2000 random nets, HPWL pre-layout estimate, coupling from aggressors");
    println!(" inside the 1µm physical interaction radius)");
    println!();
    println!(
        "{:>8} {:>14} {:>12} {:>10} {:>10}",
        "node", "radius [λ]", "aggressors", "bias", "σ"
    );
    let study = DelayStudy::nanometer_default();
    let prox = ProximityModel::default();
    for &um in &[0.5, 0.35, 0.25, 0.18, 0.13, 0.1, 0.07] {
        let mut sampler = Sampler::seeded(77);
        let report = study.run(&mut sampler, &prox, FeatureSize::from_microns(um)?)?;
        println!(
            "{:>6.2}µm {:>14.1} {:>12.2} {:>9.2}% {:>9.2}%",
            um,
            report.neighborhood_lambdas,
            report.mean_aggressors,
            report.bias() * 100.0,
            report.sigma() * 100.0
        );
    }
    println!();
    println!("the spread σ(λ) grows as features shrink — the physical origin of the");
    println!("prediction-error model that drives failed design iterations (eq. 6).");
    Ok(())
}
