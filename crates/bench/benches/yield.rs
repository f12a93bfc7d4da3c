//! Criterion bench: yield-model evaluation throughput.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a bench's console is its report, and a broken fixture should abort it"
)]

use std::hint::black_box;

use nanocost_bench::harness::{criterion_group, criterion_main, Criterion};
use nanocost_fab::WaferSpec;
use nanocost_numeric::Sampler;
use nanocost_units::{Area, DecompressionIndex, FeatureSize, TransistorCount, WaferCount};
use nanocost_yield::{
    critical_scan, optimal_spares, DefectDensity, DefectProcess, DefectSizeDistribution,
    MurphyModel, NegativeBinomialModel, PoissonModel, SeedsModel, WaferMapSimulator, YieldModel,
    YieldSurface,
};

fn bench_yield(c: &mut Criterion) {
    let area = Area::from_cm2(1.5);
    let d0 = DefectDensity::per_cm2(0.6).expect("valid");
    let models: Vec<(&str, Box<dyn YieldModel>)> = vec![
        ("poisson", Box::new(PoissonModel)),
        ("murphy", Box::new(MurphyModel)),
        ("seeds", Box::new(SeedsModel)),
        (
            "negative_binomial",
            Box::new(NegativeBinomialModel::new(2.0).expect("valid")),
        ),
    ];
    for (name, model) in &models {
        c.bench_function(&format!("yield/{name}"), |b| {
            b.iter(|| black_box(model.die_yield(black_box(area), black_box(d0))))
        });
    }

    let surface = YieldSurface::nanometer_default();
    let lambda = FeatureSize::from_microns(0.18).expect("valid");
    let sd = DecompressionIndex::new(300.0).expect("valid");
    let n = TransistorCount::from_millions(10.0);
    let v = WaferCount::new(50_000).expect("valid");
    c.bench_function("yield/composite_surface", |b| {
        b.iter(|| black_box(surface.evaluate(lambda, sd, n, v).expect("valid")))
    });

    let sim = WaferMapSimulator::new(WaferSpec::standard_200mm(), Area::from_cm2(1.5), 0.5)
        .expect("valid");
    let mut group = c.benchmark_group("yield/wafer_map_sim");
    group.sample_size(10);
    group.bench_function("uniform_10_wafers", |b| {
        b.iter(|| {
            let mut s = Sampler::seeded(1);
            black_box(sim.simulate(&mut s, DefectProcess::Uniform { density: d0 }, 10))
        })
    });
    group.bench_function("clustered_10_wafers", |b| {
        b.iter(|| {
            let mut s = Sampler::seeded(1);
            black_box(sim.simulate(
                &mut s,
                DefectProcess::Clustered {
                    density: d0,
                    mean_per_cluster: 8.0,
                    sigma_mm: 2.0,
                },
                10,
            ))
        })
    });
    group.finish();

    c.bench_function("yield/optimal_spares_search", |b| {
        b.iter(|| {
            black_box(optimal_spares(
                Area::from_cm2(1.0),
                Area::from_cm2(0.5),
                1.0 / 256.0,
                d0,
                32,
            ))
        })
    });

    let artwork = nanocost_layout::MemoryArrayGenerator::new(16, 16)
        .expect("valid")
        .generate()
        .expect("valid");
    let dist = DefectSizeDistribution::new(0.2).expect("valid");
    let mut scan_group = c.benchmark_group("yield/critical_scan");
    scan_group.sample_size(20);
    scan_group.bench_function("memory_16x16", |b| {
        b.iter(|| black_box(critical_scan(artwork.grid(), dist, lambda).expect("valid")))
    });
    scan_group.finish();
}

criterion_group!(benches, bench_yield);
criterion_main!(benches);
