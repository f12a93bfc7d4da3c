//! Integration tests for the physical-design substrate chain: netlist →
//! placement → measured density → measured critical area → yield →
//! redundancy economics, all through the public facade.

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

use nanocost::fab::WaferSpec;
use nanocost::layout::{MemoryArrayGenerator, Netlist, Placer, StdCellGenerator};
use nanocost::units::{Area, FeatureSize};
use nanocost::yield_model::{
    critical_scan, optimal_spares, DefectDensity, DefectSizeDistribution, PoissonModel,
    RedundantDie, YieldModel,
};

#[test]
fn placement_density_knob_reaches_the_cost_model() {
    // Place one netlist at two densities, measure s_d from the artwork,
    // and price both through eq. 3 — the full artwork-to-dollars loop.
    use nanocost::core::ManufacturingCostModel;
    let netlist = Netlist::random(120, 200, 7).expect("valid");
    let lambda = FeatureSize::from_microns(0.25).expect("valid");
    let model = ManufacturingCostModel::paper_anchor();
    let price = |width: usize| {
        let placement = Placer {
            per_row: Some(5),
            ..Placer::with_die_width(width)
        }
        .place(&netlist)
        .expect("valid");
        let layout = placement.to_layout(&netlist).expect("valid");
        (
            model
                .transistor_cost(lambda, layout.measured_sd())
                .amount(),
            placement.total_hpwl(&netlist),
        )
    };
    let (dense_cost, dense_hpwl) = price(400);
    let (sparse_cost, sparse_hpwl) = price(1200);
    // Denser placement: cheaper transistors, shorter wires... the wire
    // savings is what the *sparse* design gives up in silicon.
    assert!(dense_cost < sparse_cost);
    assert!(dense_hpwl < sparse_hpwl);
}

#[test]
fn measured_critical_area_orders_design_styles_like_the_parametric_model() {
    // The parametric CriticalAreaModel asserts dense artwork is more
    // defect-sensitive; the measured scan must agree on real artwork.
    let dist = DefectSizeDistribution::new(0.2).expect("valid");
    let lambda = FeatureSize::from_microns(0.25).expect("valid");
    let memory = MemoryArrayGenerator::new(8, 12).expect("valid").generate().expect("valid");
    let sparse = StdCellGenerator::new(4, 300, 30, 0.4, 5)
        .expect("valid")
        .generate()
        .expect("valid");
    let mem_fraction = critical_scan(memory.grid(), dist, lambda)
        .expect("valid")
        .critical_fraction();
    let sparse_fraction = critical_scan(sparse.grid(), dist, lambda)
        .expect("valid")
        .critical_fraction();
    assert!(mem_fraction > sparse_fraction);
    // And both feed a plain Poisson yield sensibly.
    let d0 = DefectDensity::per_cm2(0.8).expect("valid");
    let die = memory.physical_area(lambda);
    let y = PoissonModel.die_yield(die * mem_fraction, d0);
    assert!(y.value() > 0.0 && y.value() <= 1.0);
}

#[test]
fn redundancy_pays_on_dirty_processes_and_wafer_economics_agree() {
    // Spares raise per-die yield *and* good-dice-per-wafer at realistic
    // defect densities, despite their area overhead.
    let d0 = DefectDensity::per_cm2(1.0).expect("valid");
    let repairable = Area::from_cm2(1.0);
    let logic = Area::from_cm2(0.4);
    let best = optimal_spares(repairable, logic, 1.0 / 256.0, d0, 16);
    assert!(best >= 1, "dirty process should use spares, got {best}");

    let bare = RedundantDie::new(repairable, logic, 0, 1.0 / 256.0).expect("valid");
    let repaired = RedundantDie::new(repairable, logic, best, 1.0 / 256.0).expect("valid");
    let wafer = WaferSpec::standard_200mm();
    let good = |die: &RedundantDie| {
        wafer.gross_dice(die.total_area()).as_f64() * die.yield_with_repair(d0).value()
    };
    assert!(
        good(&repaired) > good(&bare),
        "repair should net more good dice per wafer: {} vs {}",
        good(&repaired),
        good(&bare)
    );
}
