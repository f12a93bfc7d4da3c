//! Bench: one 1,000-query `/v1/batch` request through `api::handle` on
//! a warm `ServerState`, decode to response, capture and trace storage
//! included.

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
use nanocost_serve::{handle, Request, ServerState, ServerStateConfig};

/// Feature sizes of the batch lattice, in microns.
const LAMBDAS_UM: [f64; 5] = [0.25, 0.18, 0.13, 0.09, 0.065];

/// `s_d` points per feature size: 120, 125, … 1,115.
const SD_POINTS: usize = 200;

/// The fixed body: 5 λs × 200 `s_d` points, one query each.
fn batch_body() -> String {
    let mut queries = Vec::with_capacity(LAMBDAS_UM.len() * SD_POINTS);
    for lambda in LAMBDAS_UM {
        for k in 0..SD_POINTS {
            queries.push(format!(
                r#"{{"lambda_um":{lambda},"sd":{},"transistors":1e7,"volume":5000,"fab_yield":0.4}}"#,
                120 + 5 * k
            ));
        }
    }
    format!("{{\"queries\":[{}]}}", queries.join(","))
}

fn bench_serve(c: &mut Criterion) {
    // A one-capture trace ring: each request stores its capture and
    // evicts the last one, as a full ring does, without holding 64 MiB.
    let cfg = ServerStateConfig {
        trace_ring: 1,
        ..ServerStateConfig::default()
    };
    let state = ServerState::with_config(cfg).expect("valid config");
    let req = Request {
        method: "POST".into(),
        path: "/v1/batch".into(),
        version: "HTTP/1.1".into(),
        headers: vec![],
        body: batch_body().into_bytes(),
    };
    // Warm: every query's mask and report are cached after this.
    assert_eq!(handle(&state, &req).status, 200, "the batch body is valid");
    c.bench_function("serve/batch_1000", |b| {
        b.iter(|| black_box(handle(&state, black_box(&req))))
    });
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
