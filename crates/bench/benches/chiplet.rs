//! Criterion bench: the chiplet chain, one call per equation (Eq. C1–C4)
//! plus the whole SiP price (Eq. C5).

use std::hint::black_box;

use nanocost_bench::harness::{criterion_group, criterion_main, Criterion};
use nanocost_chiplet::{
    AssemblyKind, AssemblyTech, ChipletModels, ChipletScenario, ChipletWafer, CriticalLayerYield,
    KnownGoodDie,
};
use nanocost_fab::WaferSpec;
use nanocost_units::{
    Area, ChipCount, DecompressionIndex, Dollars, FeatureSize, TransistorCount, Yield,
};
use nanocost_yield::DefectDensity;

fn bench_chiplet(c: &mut Criterion) {
    // One chiplet of a 4-way split: the `ChipletModels::defaults` line.
    let area = Area::from_cm2(0.8);
    let die_yield = CriticalLayerYield::new(DefectDensity::per_cm2(0.09).expect("valid"), 10.0)
        .expect("valid");
    c.bench_function("chiplet/c1_die_yield", |b| {
        b.iter(|| black_box(die_yield.die_yield(black_box(area))))
    });

    let wafer = ChipletWafer::new(
        WaferSpec::new(300.0, 3.0, 0.2).expect("valid"),
        Dollars::new(9_500.0),
    )
    .expect("valid");
    c.bench_function("chiplet/c2_die_cost", |b| {
        b.iter(|| black_box(wafer.die_cost(black_box(area)).expect("fits the wafer")))
    });

    let kgd = KnownGoodDie::default();
    let transistors = TransistorCount::from_millions(100.0);
    let y = Yield::new(0.5).expect("valid");
    c.bench_function("chiplet/c3_known_good_die", |b| {
        b.iter(|| black_box(kgd.cost_per_good_die(black_box(transistors), black_box(y))))
    });

    let rdl = AssemblyTech::defaults(AssemblyKind::Rdl).expect("valid");
    let package = Area::from_cm2(4.0);
    c.bench_function("chiplet/c4_assemble", |b| {
        b.iter(|| black_box(rdl.assemble(black_box(4), black_box(package)).expect("fits")))
    });

    let models = ChipletModels::defaults().expect("valid");
    let scenario = ChipletScenario {
        lambda: FeatureSize::from_microns(0.07).expect("valid"),
        sd: DecompressionIndex::new(300.0).expect("valid"),
        transistors: TransistorCount::from_millions(400.0),
        units: ChipCount::new(1_000_000),
        chiplets: 4,
        distinct_designs: 1,
        assembly: AssemblyKind::Rdl,
    };
    c.bench_function("chiplet/c5_evaluate", |b| {
        b.iter(|| black_box(models.evaluate(black_box(&scenario)).expect("in domain")))
    });
}

criterion_group!(benches, bench_chiplet);
criterion_main!(benches);
