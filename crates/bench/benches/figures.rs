//! Criterion bench: one benchmark per paper figure, timing the full
//! regeneration pipeline behind each exhibit.

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
use nanocost_bench::figures::{figure1, figure2, figure3_points, figure4_panel};
use nanocost_core::Figure4Scenario;

fn bench_figures(c: &mut Criterion) {
    c.bench_function("figures/fig1_device_scatter", |b| {
        b.iter(|| black_box(figure1().expect("dataset is valid")))
    });
    c.bench_function("figures/fig2_itrs_sd", |b| {
        b.iter(|| black_box(figure2().expect("roadmap is valid")))
    });
    c.bench_function("figures/fig3_cost_contradiction", |b| {
        b.iter(|| black_box(figure3_points().expect("roadmap is valid")))
    });
    let mut g = c.benchmark_group("figures/fig4");
    g.sample_size(20);
    g.bench_function("panel_a_sweep_and_optima", |b| {
        b.iter(|| black_box(figure4_panel(&Figure4Scenario::paper_4a()).expect("valid")))
    });
    g.bench_function("panel_b_sweep_and_optima", |b| {
        b.iter(|| black_box(figure4_panel(&Figure4Scenario::paper_4b()).expect("valid")))
    });
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
