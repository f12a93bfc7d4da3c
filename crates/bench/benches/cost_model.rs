//! Criterion bench: raw cost-model evaluation throughput (eqs. 3, 4, 7),
//! and the §3.1 optimum under a trace capture, answered from the memo
//! and searched afresh.

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
use nanocost_core::{
    DesignPoint, GeneralizedCostModel, ManufacturingCostModel, ScenarioCache, TotalCostModel,
};
use nanocost_trace::with_capture;
use nanocost_units::{
    DecompressionIndex, Dollars, FeatureSize, TransistorCount, WaferCount, Yield,
};

fn bench_cost_models(c: &mut Criterion) {
    let lambda = FeatureSize::from_microns(0.18).expect("valid");
    let sd = DecompressionIndex::new(300.0).expect("valid");
    let transistors = TransistorCount::from_millions(10.0);
    let volume = WaferCount::new(20_000).expect("valid");
    let y = Yield::new(0.8).expect("valid");

    let eq3 = ManufacturingCostModel::paper_anchor();
    c.bench_function("cost_model/eq3_manufacturing", |b| {
        b.iter(|| black_box(eq3.transistor_cost(black_box(lambda), black_box(sd))))
    });

    let eq4 = TotalCostModel::paper_figure4();
    c.bench_function("cost_model/eq4_total", |b| {
        b.iter(|| {
            black_box(
                eq4.transistor_cost(
                    black_box(lambda),
                    black_box(sd),
                    transistors,
                    volume,
                    y,
                    Dollars::new(200_000.0),
                )
                .expect("in domain"),
            )
        })
    });

    let eq7 = GeneralizedCostModel::nanometer_default();
    let point = DesignPoint {
        lambda,
        sd,
        transistors,
        volume,
    };
    c.bench_function("cost_model/eq7_generalized", |b| {
        b.iter(|| black_box(eq7.evaluate(black_box(point)).expect("in domain")))
    });

    c.bench_function("cost_model/eq7_optimum_search", |b| {
        b.iter(|| {
            black_box(
                nanocost_core::optimal_sd_generalized(
                    &eq7, lambda, transistors, volume, 105.0, 2_000.0,
                )
                .expect("valid bracket"),
            )
        })
    });

    // A served optimum hit: the memo hands the search's stored
    // provenance to the request's capture frame.
    let cache = ScenarioCache::paper_figure4();
    let optimum = || {
        cache
            .optimal_sd(
                lambda,
                transistors,
                volume,
                y,
                Dollars::new(200_000.0),
                110.0,
                1_500.0,
            )
            .expect("valid bracket")
    };
    // Warmed under a capture, so the entry holds its provenance.
    let _ = with_capture(optimum);
    c.bench_function("cost_model/optimum_hit_captured", |b| {
        b.iter(|| black_box(with_capture(optimum)))
    });

    // The same optimum searched afresh under a capture: every probe's
    // Eq.-4 provenance lands in the frame.
    c.bench_function("cost_model/optimum_search_captured", |b| {
        b.iter(|| {
            black_box(with_capture(|| {
                nanocost_core::optimal_sd_total(
                    &eq4,
                    lambda,
                    transistors,
                    volume,
                    y,
                    Dollars::new(200_000.0),
                    110.0,
                    1_500.0,
                )
                .expect("valid bracket")
            }))
        })
    });
}

criterion_group!(benches, bench_cost_models);
criterion_main!(benches);
