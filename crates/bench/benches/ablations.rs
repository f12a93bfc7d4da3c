//! Criterion bench: the extension experiments (EXT-U, EXT-TEST, EXT-VOL,
//! EXT-GEN) as end-to-end pipelines.

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
use nanocost_bench::figures::{
    generalized_vs_simple, optimum_surface_study, test_cost_study, time_to_market_study,
    utilization_study, wafer_map_study,
};

fn bench_ablations(c: &mut Criterion) {
    c.bench_function("ablations/utilization_study", |b| {
        b.iter(|| black_box(utilization_study().expect("valid")))
    });
    c.bench_function("ablations/test_cost_study", |b| {
        b.iter(|| black_box(test_cost_study().expect("valid")))
    });
    c.bench_function("ablations/generalized_vs_simple", |b| {
        b.iter(|| black_box(generalized_vs_simple().expect("valid")))
    });
    let mut group = c.benchmark_group("ablations/optimum_surface");
    group.sample_size(10);
    group.bench_function("5x4_grid", |b| {
        b.iter(|| black_box(optimum_surface_study().expect("valid")))
    });
    group.finish();

    let mut heavy = c.benchmark_group("ablations/heavy");
    heavy.sample_size(10);
    heavy.bench_function("wafer_map_study", |b| {
        b.iter(|| black_box(wafer_map_study().expect("valid")))
    });
    heavy.bench_function("time_to_market_study", |b| {
        b.iter(|| black_box(time_to_market_study().expect("valid")))
    });
    heavy.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
