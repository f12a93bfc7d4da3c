//! Criterion bench: Table A1 regeneration (dataset construction, density
//! recomputation, rendering).

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
use nanocost_bench::figures::table_a1_rows;
use nanocost_bench::report::render_table_a1;

fn bench_table_a1(c: &mut Criterion) {
    c.bench_function("table_a1/build_dataset", |b| {
        b.iter(|| black_box(table_a1_rows()))
    });
    let rows = table_a1_rows();
    c.bench_function("table_a1/recompute_all_sd", |b| {
        b.iter(|| {
            let total: f64 = rows
                .iter()
                .map(|r| r.effective_sd_logic().squares())
                .sum();
            black_box(total)
        })
    });
    c.bench_function("table_a1/render", |b| {
        b.iter(|| black_box(render_table_a1(&rows)))
    });
}

criterion_group!(benches, bench_table_a1);
criterion_main!(benches);
