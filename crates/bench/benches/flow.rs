//! Criterion bench: design-flow simulation throughput (EXT-ITER).

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
use nanocost_fab::ProximityModel;
use nanocost_flow::{ClosureSimulator, DelayStudy, DesignEffortModel};
use nanocost_numeric::{McConfig, Sampler};
use nanocost_units::{DecompressionIndex, FeatureSize, TransistorCount};

fn bench_flow(c: &mut Criterion) {
    let effort = DesignEffortModel::paper_defaults();
    let n = TransistorCount::from_millions(10.0);
    let sd = DecompressionIndex::new(250.0).expect("valid");
    c.bench_function("flow/eq6_closed_form", |b| {
        b.iter(|| black_box(effort.design_cost(black_box(n), black_box(sd)).expect("in domain")))
    });

    let sim = ClosureSimulator::nanometer_default();
    let lambda = FeatureSize::from_microns(0.13).expect("valid");
    let mut group = c.benchmark_group("flow/closure_monte_carlo");
    group.sample_size(20);
    for &trials in &[100usize, 1_000] {
        group.bench_function(format!("{trials}_trials"), |b| {
            b.iter(|| {
                black_box(
                    sim.mean_iterations(McConfig { seed: 1, trials }, lambda, sd, 4.0)
                        .expect("in domain"),
                )
            })
        });
    }
    group.finish();

    let study = DelayStudy::nanometer_default();
    let prox = ProximityModel::default();
    let mut delay_group = c.benchmark_group("flow/delay_study");
    delay_group.sample_size(20);
    delay_group.bench_function("2000_nets", |b| {
        b.iter(|| {
            let mut s = Sampler::seeded(77);
            black_box(study.run(&mut s, &prox, lambda).expect("valid"))
        })
    });
    delay_group.finish();
}

criterion_group!(benches, bench_flow);
criterion_main!(benches);
