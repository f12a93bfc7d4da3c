//! Criterion bench: layout generation and pattern-extraction scaling
//! (EXT-REG).

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

use nanocost_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nanocost_layout::{
    complexity, MemoryArrayGenerator, Netlist, Placer, RandomBlockGenerator, RegularityAnalysis,
};

fn bench_regularity(c: &mut Criterion) {
    let mut gen_group = c.benchmark_group("regularity/generate");
    gen_group.sample_size(20);
    gen_group.bench_function("memory_32x48", |b| {
        b.iter(|| {
            black_box(
                MemoryArrayGenerator::new(32, 48)
                    .expect("valid")
                    .generate()
                    .expect("valid"),
            )
        })
    });
    gen_group.bench_function("random_block", |b| {
        b.iter(|| {
            black_box(
                RandomBlockGenerator::new(692, 416, 9280, 7)
                    .expect("valid")
                    .generate()
                    .expect("valid"),
            )
        })
    });
    gen_group.finish();

    // Extraction cost scales with layout size: sweep array dimensions.
    let window = RegularityAnalysis::tiling_rect(14, 13).expect("valid");
    let mut scale_group = c.benchmark_group("regularity/extract");
    scale_group.sample_size(20);
    for &side in &[8usize, 16, 32] {
        let layout = MemoryArrayGenerator::new(side, side)
            .expect("valid")
            .generate()
            .expect("valid");
        scale_group.bench_with_input(
            BenchmarkId::from_parameter(side * side),
            &layout,
            |b, layout| b.iter(|| black_box(window.analyze(layout.grid()).expect("fits"))),
        );
    }
    scale_group.finish();

    let layout = MemoryArrayGenerator::new(24, 24)
        .expect("valid")
        .generate()
        .expect("valid");
    c.bench_function("regularity/rle_complexity", |b| {
        b.iter(|| black_box(complexity(layout.grid())))
    });

    let netlist = Netlist::random(120, 200, 7).expect("valid");
    let mut place_group = c.benchmark_group("regularity/placer");
    place_group.sample_size(10);
    place_group.bench_function("anneal_120_cells", |b| {
        b.iter(|| {
            black_box(
                Placer::with_die_width(600)
                    .place(&netlist)
                    .expect("valid"),
            )
        })
    });
    place_group.finish();
}

criterion_group!(benches, bench_regularity);
criterion_main!(benches);
