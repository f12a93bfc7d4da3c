//! Criterion bench: the cost of one `span!` enter/exit, with no
//! consumer (the disabled fast path every instrumented model function
//! takes in production) and inside a capture frame (the path a served
//! request's trace capture takes).

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
use nanocost_trace::{span, with_capture};

fn bench_spans(c: &mut Criterion) {
    c.bench_function("trace/span_disabled", |b| {
        b.iter(|| {
            let _span = span!("trace.bench", sd = black_box(300.0));
        })
    });

    // One frame per timed sample, so a sample's records (about a
    // millisecond of spans) are freed before the next one starts.
    c.bench_function("trace/span_captured", |b| {
        let (records, ()) = with_capture(|| {
            b.iter(|| {
                let _span = span!("trace.bench", sd = black_box(300.0));
            })
        });
        black_box(records);
    });
}

criterion_group!(benches, bench_spans);
criterion_main!(benches);
