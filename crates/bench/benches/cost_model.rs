//! Criterion bench: raw cost-model evaluation throughput (eqs. 3, 4, 7).

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
    DesignPoint, GeneralizedCostModel, ManufacturingCostModel, TotalCostModel,
};
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
}

criterion_group!(benches, bench_cost_models);
criterion_main!(benches);
