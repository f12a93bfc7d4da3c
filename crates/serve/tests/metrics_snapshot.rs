//! `/v1/metrics`, `/v1/metrics/raw` and `/v1/health` are renders of one
//! snapshot.
//!
//! Under concurrent traffic every metrics document must satisfy
//! `completed_total ≤ Σ endpoint counts ≤ requests_total`, which holds
//! only when the snapshot reads its sources in a fixed order. And after
//! a seeded request mix, the federated view of the one replica
//! (`FleetView` over its raw snapshot, as `fleet_report` builds it)
//! must report the numbers `/v1/metrics` reports.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "test code: a failed unwrap or panic is a failed test, and output is diagnostics"
)]

use std::sync::atomic::{AtomicBool, Ordering};

use nanocost_numeric::Rng64;
use nanocost_sentinel::json::{self, JsonValue};
use nanocost_sentinel::{FleetView, LogHistogram, RawSnapshot};
use nanocost_serve::{handle, Request, Response, ServerState, ServerStateConfig};

const COST: &str = r#"{"lambda_um":0.18,"sd":300,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#;
const OPTIMUM: &str = r#"{"lambda_um":0.18,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#;
const BATCH: &str = concat!(
    r#"{"queries":[{"lambda_um":0.18,"sd":300,"transistors":1e7,"volume":5000,"fab_yield":0.4},"#,
    r#"{"lambda_um":0.13,"sd":450,"transistors":1e7,"volume":5000,"fab_yield":0.4}]}"#
);
const CHIPLET: &str =
    r#"{"lambda_um":0.07,"sd":300,"transistors":4e8,"units":1000000,"chiplets":4}"#;

/// Scrapes of each metrics document in the concurrent test.
const SCRAPES: usize = 500;

fn request(method: &str, path: &str, body: &str) -> Request {
    Request {
        method: method.into(),
        path: path.into(),
        version: "HTTP/1.1".into(),
        headers: vec![],
        body: body.as_bytes().to_vec(),
    }
}

fn body(r: &Response) -> String {
    String::from_utf8(r.body.clone()).expect("UTF-8 body")
}

/// `(completed_total, Σ endpoint counts, requests_total)` of a
/// `/v1/metrics` document.
fn metrics_identity(doc: &str) -> (u64, u64, u64) {
    let v = json::parse(doc).expect("metrics is JSON");
    let counter = |key: &str| {
        v.get("counters")
            .and_then(|c| c.get(key))
            .and_then(JsonValue::as_u64)
            .expect(key)
    };
    let Some(JsonValue::Obj(endpoints)) = v.get("endpoints") else {
        panic!("metrics has no endpoints object: {doc}");
    };
    let counts = endpoints
        .values()
        .map(|e| e.get("count").and_then(JsonValue::as_u64));
    let sum = counts
        .sum::<Option<u64>>()
        .expect("every endpoint row has a count");
    (counter("completed_total"), sum, counter("requests_total"))
}

/// The same triple from a `/v1/metrics/raw` document.
fn raw_identity(doc: &str) -> (u64, u64, u64) {
    let snap = RawSnapshot::parse(doc).expect("raw metrics parse");
    let counter = |key: &str| snap.counters.get(key).copied().expect(key);
    let sum = snap.endpoints.values().map(LogHistogram::count).sum();
    (counter("completed_total"), sum, counter("requests_total"))
}

#[test]
fn every_metrics_document_orders_completed_endpoint_counts_and_requests() {
    let state = ServerState::new();
    let done = AtomicBool::new(false);
    let mut violations = Vec::new();
    std::thread::scope(|scope| {
        for (path, payload) in [
            ("/v1/cost", COST),
            ("/v1/optimum", OPTIMUM),
            ("/v1/batch", BATCH),
            ("/v1/chiplet", CHIPLET),
        ] {
            let (state, done) = (&state, &done);
            scope.spawn(move || {
                let req = request("POST", path, payload);
                while !done.load(Ordering::Relaxed) {
                    assert_eq!(handle(state, &req).status, 200, "{path}");
                }
            });
        }
        for _ in 0..SCRAPES {
            for (path, identity) in [
                (
                    "/v1/metrics",
                    metrics_identity as fn(&str) -> (u64, u64, u64),
                ),
                ("/v1/metrics/raw", raw_identity),
            ] {
                let (completed, endpoints, requests) =
                    identity(&body(&handle(&state, &request("GET", path, ""))));
                if !(completed <= endpoints && endpoints <= requests) {
                    violations.push(format!(
                        "{path}: completed {completed}, endpoint counts {endpoints}, requests {requests}"
                    ));
                }
            }
        }
        done.store(true, Ordering::Relaxed);
    });
    assert!(
        violations.is_empty(),
        "{} of {} documents:\n{}",
        violations.len(),
        2 * SCRAPES,
        violations.join("\n")
    );
}

/// One request of the seeded mix: every model endpoint over a small
/// grid (so the caches hit), plus a domain error now and then.
fn seeded_request(rng: &mut Rng64) -> (&'static str, String) {
    let lambda = [0.25, 0.18, 0.13][rng.random_range(0..3usize)];
    let sd = [150, 300, 450][rng.random_range(0..3usize)];
    let point = format!(r#""lambda_um":{lambda},"transistors":1e7,"volume":5000"#);
    let cost = format!(r#"{{{point},"sd":{sd},"fab_yield":0.4}}"#);
    match rng.random_range(0..6usize) {
        0 => ("/v1/cost", cost),
        1 => ("/v1/yield", format!(r#"{{{point},"sd":{sd}}}"#)),
        2 => ("/v1/optimum", format!(r#"{{{point},"fab_yield":0.4}}"#)),
        3 => ("/v1/batch", format!(r#"{{"queries":[{cost},{cost}]}}"#)),
        4 => {
            let chiplets = [2, 4][rng.random_range(0..2usize)];
            let body = format!(
                r#"{{"lambda_um":0.07,"sd":{sd},"transistors":4e8,"units":1000000,"chiplets":{chiplets}}}"#
            );
            ("/v1/chiplet", body)
        }
        // s_d below s_d0: a 422 that is still observed.
        _ => (
            "/v1/cost",
            cost.replace(&format!(r#""sd":{sd}"#), r#""sd":50"#),
        ),
    }
}

/// The number at `path` inside `doc`.
fn number(doc: &JsonValue, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |v, key| v.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("no number at {path:?}"))
}

#[test]
fn a_fleet_of_one_reports_what_v1_metrics_reports() {
    for seed in 0..6u64 {
        let cfg = ServerStateConfig {
            replica: "a".to_string(),
            ..ServerStateConfig::default()
        };
        let state = ServerState::with_config(cfg).expect("valid config");
        let mut rng = Rng64::seed_from_u64(0x5A4B_0000 + seed);
        for _ in 0..rng.random_range(20..60usize) {
            let (path, payload) = seeded_request(&mut rng);
            let status = handle(&state, &request("POST", path, &payload)).status;
            assert!(status == 200 || status == 422, "{path} {payload}: {status}");
        }
        for _ in 0..rng.random_range(0..4usize) {
            state.note_conn_open();
        }
        for _ in 0..rng.random_range(0..4usize) {
            state.note_queue_push();
        }
        let raw = body(&handle(&state, &request("GET", "/v1/metrics/raw", "")));
        let snap = RawSnapshot::parse(&raw).expect("raw metrics parse");
        let view = FleetView::from_snapshots(&[snap]).expect("a fleet of one federates");
        let fleet = json::parse(&view.to_json()).expect("fleet view is JSON");
        let metrics = json::parse(&body(&handle(&state, &request("GET", "/v1/metrics", ""))))
            .expect("metrics is JSON");
        let mut paths: Vec<Vec<&str>> = vec![
            vec!["counters", "requests_total"],
            vec!["cache", "hits"],
            vec!["cache", "misses"],
            vec!["chiplet_cache", "hits"],
            vec!["chiplet_cache", "misses"],
            vec!["gauges", "queue.depth"],
            vec!["gauges", "accept.backlog"],
        ];
        let Some(JsonValue::Obj(endpoints)) = metrics.get("endpoints") else {
            panic!("metrics has no endpoints object");
        };
        let Some(JsonValue::Obj(fleet_endpoints)) = fleet.get("endpoints") else {
            panic!("fleet view has no endpoints object");
        };
        assert_eq!(
            endpoints.keys().collect::<Vec<_>>(),
            fleet_endpoints.keys().collect::<Vec<_>>(),
            "seed {seed}: the same endpoints"
        );
        for name in endpoints.keys() {
            for key in ["count", "p50_us", "p99_us"] {
                paths.push(vec!["endpoints", name, key]);
            }
        }
        for path in &paths {
            let (f, m) = (number(&fleet, path), number(&metrics, path));
            assert_eq!(
                f.to_bits(),
                m.to_bits(),
                "seed {seed}: {path:?}: fleet {f}, metrics {m}"
            );
        }
        assert!(
            number(&metrics, &["chiplet_cache", "misses"]) > 0.0,
            "seed {seed}: chiplet traffic"
        );
    }
}
