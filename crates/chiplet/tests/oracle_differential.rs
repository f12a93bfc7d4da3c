//! Differential test of the chiplet die-economics math against an
//! independent oracle transcribed straight from the Chiplet Actuary
//! reference implementation (arXiv:2203.12268).
//!
//! The oracle works in the reference's native conventions — die area
//! in mm², defect density per cm² with an explicit `/100` unit fix-up,
//! wafer price normalized to $1 per mm² of wafer — while the crate
//! works in the workspace's `Area`/`Dollars` newtypes. Agreement over a
//! randomized parameter sweep pins the translation between the two.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "test code: a failed unwrap or panic is a failed test, and output is diagnostics"
)]

use nanocost_chiplet::{ChipletWafer, CriticalLayerYield};
use nanocost_fab::WaferSpec;
use nanocost_numeric::Rng64;
use nanocost_units::{Area, Dollars};
use nanocost_yield::DefectDensity;

const CASES: usize = 500;

/// Oracle: `(1 + defect_density/100 * area / critical_level)^(-critical_level)`
/// with `area` in mm² and `defect_density` in defects/cm².
fn oracle_die_yield(area_mm2: f64, defect_density: f64, critical_level: f64) -> f64 {
    (1.0 + defect_density / 100.0 * area_mm2 / critical_level).powf(-critical_level)
}

/// Oracle: scribe-corrected gross dies per wafer,
/// `N_total = π(D/2 − e)²/A_chip − π(D − 2e)/√(2·A_chip)`.
fn oracle_n_total(area_mm2: f64, diameter: f64, edge_loss: f64, scribe_lane: f64) -> f64 {
    let area_chip = area_mm2 + 2.0 * scribe_lane * area_mm2.sqrt() + scribe_lane * scribe_lane;
    let usable = diameter / 2.0 - edge_loss;
    std::f64::consts::PI * usable * usable / area_chip
        - std::f64::consts::PI * (diameter - 2.0 * edge_loss) / (2.0 * area_chip).sqrt()
}

/// Oracle: cost per mm² of *good* silicon at a wafer price of $1/mm²
/// of wafer, `π(D/2)² / (N_total · area) / yield`.
fn oracle_cost_per_area(
    area_mm2: f64,
    defect_density: f64,
    critical_level: f64,
    diameter: f64,
    edge_loss: f64,
    scribe_lane: f64,
) -> f64 {
    let n_total = oracle_n_total(area_mm2, diameter, edge_loss, scribe_lane);
    let y = oracle_die_yield(area_mm2, defect_density, critical_level);
    std::f64::consts::PI * (diameter / 2.0) * (diameter / 2.0) / (n_total * area_mm2) / y
}

fn close(a: f64, b: f64, what: &str, case: &str) {
    let rel = (a - b).abs() / b.abs().max(1e-300);
    assert!(rel < 1e-12, "{what} diverges from oracle ({a} vs {b}, rel {rel:.2e}) at {case}");
}

#[test]
fn die_yield_matches_the_reference_over_a_random_sweep() {
    let mut rng = Rng64::seed_from_u64(0x5ea1);
    for _ in 0..CASES {
        let area_mm2 = rng.random_range(1.0..900.0);
        let d0 = rng.random_range(0.05..0.25);
        let c = rng.random_range(1.0..10.0);
        let case = format!("area={area_mm2} d0={d0} c={c}");

        let model = CriticalLayerYield::new(DefectDensity::per_cm2(d0).unwrap(), c).unwrap();
        let y = model.die_yield(Area::from_mm2(area_mm2)).value();
        close(y, oracle_die_yield(area_mm2, d0, c), "die_yield", &case);
    }
}

#[test]
fn gross_dice_match_the_reference_over_a_random_sweep() {
    let mut rng = Rng64::seed_from_u64(0xd1ce);
    for _ in 0..CASES {
        let area_mm2 = rng.random_range(1.0..900.0);
        let diameter = if rng.random_range(0.0..1.0) < 0.5 { 200.0 } else { 300.0 };
        let edge_loss = rng.random_range(2.0..5.0);
        let scribe = rng.random_range(0.1..0.3);
        let case = format!("area={area_mm2} D={diameter} e={edge_loss} s={scribe}");

        let spec = WaferSpec::new(diameter, edge_loss, scribe).unwrap();
        let wafer = ChipletWafer::new(spec, Dollars::new(1.0)).unwrap();
        let n = wafer.gross_dice(Area::from_mm2(area_mm2)).unwrap();
        close(n, oracle_n_total(area_mm2, diameter, edge_loss, scribe), "gross_dice", &case);
    }
}

#[test]
fn cost_per_good_area_matches_the_reference_over_a_random_sweep() {
    let mut rng = Rng64::seed_from_u64(0xc057);
    for _ in 0..CASES {
        let area_mm2 = rng.random_range(1.0..900.0);
        let d0 = rng.random_range(0.05..0.25);
        let c = rng.random_range(1.0..10.0);
        let diameter = if rng.random_range(0.0..1.0) < 0.5 { 200.0 } else { 300.0 };
        let edge_loss = rng.random_range(2.0..5.0);
        let scribe = rng.random_range(0.1..0.3);
        let case =
            format!("area={area_mm2} d0={d0} c={c} D={diameter} e={edge_loss} s={scribe}");

        // The oracle prices the wafer at $1 per mm² of wafer disc.
        let wafer_price = std::f64::consts::PI * (diameter / 2.0) * (diameter / 2.0);
        let spec = WaferSpec::new(diameter, edge_loss, scribe).unwrap();
        let wafer = ChipletWafer::new(spec, Dollars::new(wafer_price)).unwrap();
        let yield_model =
            CriticalLayerYield::new(DefectDensity::per_cm2(d0).unwrap(), c).unwrap();

        let die_cost = wafer.die_cost(Area::from_mm2(area_mm2)).unwrap().amount();
        let y = yield_model.die_yield(Area::from_mm2(area_mm2)).value();
        let cost_per_good_mm2 = die_cost / area_mm2 / y;

        close(
            cost_per_good_mm2,
            oracle_cost_per_area(area_mm2, d0, c, diameter, edge_loss, scribe),
            "cost_per_area",
            &case,
        );
    }
}
