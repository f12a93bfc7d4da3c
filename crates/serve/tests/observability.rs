//! End-to-end observability tests over a real socket: the exemplar →
//! trace drill-down, the SLO health verdict, the structured access
//! log, and the trace-capture ring — the paths `fleet_report`,
//! `loadgen`, and the CI soak gate depend on. Requests go through
//! `nanocost_sentinel::attach`, the workspace's one HTTP client.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use nanocost_sentinel::attach::{http_get, request};
use nanocost_sentinel::json;
use nanocost_serve::{Server, ServerConfig, ServerState, ServerStateConfig};

const COST_BODY: &str =
    r#"{"lambda_um":0.18,"sd":300,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#;

/// Runs `f` against a live server built from `state`, then shuts the
/// server down cleanly.
fn with_server_state(state: ServerState, f: impl FnOnce(&str)) {
    let server = Server::bind_with_state(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            io_timeout: Duration::from_secs(2),
        },
        state,
    )
    .expect("bind");
    let addr = server.local_addr().expect("local addr").to_string();
    let shutdown = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.run(&shutdown));
        f(&addr);
        shutdown.store(true, Ordering::SeqCst);
        handle.join().expect("server thread").expect("server run");
    });
}

#[test]
fn p99_exemplar_round_trips_to_a_clean_request_trace() {
    with_server_state(ServerState::new(), |addr| {
        // A mixed workload so every model endpoint has an exemplar.
        for _ in 0..5 {
            assert_eq!(request(addr, "POST", "/v1/cost", Some(COST_BODY)).expect("POST").0, 200);
        }
        let yield_body = r#"{"lambda_um":0.13,"sd":400,"transistors":1e7,"volume":20000}"#;
        assert_eq!(request(addr, "POST", "/v1/yield", Some(yield_body)).expect("POST").0, 200);

        let (status, metrics) = http_get(addr, "/v1/metrics").expect("GET");
        assert_eq!(status, 200, "{metrics}");
        let doc = json::parse(&metrics).expect("metrics is JSON");
        assert_eq!(doc.get("schema").and_then(json::JsonValue::as_u64), Some(2));
        let endpoints = doc.get("endpoints").expect("endpoints object");
        for endpoint in ["cost", "yield"] {
            let req_id = endpoints
                .get(endpoint)
                .and_then(|e| e.get("p99_exemplar"))
                .and_then(|e| e.get("req_id"))
                .and_then(json::JsonValue::as_str)
                .unwrap_or_else(|| panic!("{endpoint} has no p99 exemplar: {metrics}"))
                .to_string();

            // The drill-down: the anonymous p99 pivots to a fetchable,
            // fully request-scoped trace capture.
            let (status, capture) = http_get(addr, &format!("/v1/trace/{req_id}")).expect("GET");
            assert_eq!(status, 200, "exemplar {req_id} has no stored trace");
            assert!(!capture.trim().is_empty(), "empty capture for {req_id}");
            let tag = format!("\"req_id\":\"{req_id}\"");
            let mut enters = 0usize;
            let mut exits = 0usize;
            for line in capture.lines() {
                json::parse(line).expect("capture line is JSON");
                assert!(line.contains(&tag), "untagged record in {req_id}: {line}");
                if line.contains("\"type\":\"span_enter\"") {
                    enters += 1;
                }
                if line.contains("\"type\":\"span_exit\"") {
                    exits += 1;
                }
            }
            assert!(enters >= 1, "capture has no spans: {capture}");
            assert_eq!(enters, exits, "unbalanced spans in {req_id}: {capture}");
            assert!(
                capture.contains("serve.request"),
                "missing request span: {capture}"
            );
        }
    });
}

#[test]
fn health_verdict_is_served_over_the_wire() {
    with_server_state(ServerState::new(), |addr| {
        let (status, body) = http_get(addr, "/v1/health").expect("GET");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("health is JSON");
        assert_eq!(
            doc.get("status").and_then(json::JsonValue::as_str),
            Some("ok")
        );
        let objectives = doc
            .get("objectives")
            .and_then(json::JsonValue::as_arr)
            .expect("objectives array");
        let names: Vec<_> = objectives
            .iter()
            .filter_map(|o| o.get("name").and_then(json::JsonValue::as_str))
            .collect();
        assert_eq!(names, ["latency", "shed_rate"], "{body}");
    });

    // Slow requests past the 250 ms latency threshold burn through the
    // error budget in both windows, and the verdict served over HTTP
    // flips to 503.
    let state = ServerState::new();
    for _ in 0..20 {
        state.observe("cost", 300_000.0, None, nanocost_trace::epoch_nanos());
    }
    with_server_state(state, |addr| {
        let (status, body) = http_get(addr, "/v1/health").expect("GET");
        assert_eq!(status, 503, "every request missed the latency SLO: {body}");
        assert!(body.contains("\"status\":\"failing\""), "{body}");
    });
}

#[test]
fn access_log_records_every_request_in_golden_field_order() {
    let path = std::env::temp_dir().join(format!(
        "nanocost_access_log_{}.jsonl",
        std::process::id()
    ));
    let cfg = ServerStateConfig {
        access_log: Some(path.to_string_lossy().into_owned()),
        ..ServerStateConfig::default()
    };
    let state = ServerState::with_config(cfg).expect("valid config");
    with_server_state(state, |addr| {
        assert_eq!(request(addr, "POST", "/v1/cost", Some(COST_BODY)).expect("POST").0, 200);
        assert_eq!(request(addr, "POST", "/v1/cost", Some(COST_BODY)).expect("POST").0, 200);
        assert_eq!(http_get(addr, "/v1/metrics").expect("GET").0, 200);
        assert_eq!(http_get(addr, "/v1/trace/r999").expect("GET").0, 404);
    });
    let log = std::fs::read_to_string(&path).expect("access log written");
    let _ = std::fs::remove_file(&path);

    // Normalize the only non-deterministic field (latency digits) and
    // compare the rest byte for byte.
    let normalized: Vec<String> = log
        .lines()
        .map(|line| {
            let at = line.find("\"latency_ns\":").expect("latency field");
            let rest = &line[at + 13..];
            let end = rest.find(',').expect("field after latency");
            format!("{}\"latency_ns\":N{}", &line[..at], &rest[end..])
        })
        .collect();
    assert_eq!(
        normalized,
        [
            // A cost request performs one cache lookup (the eq.-5
            // mask-set cost; the eq.-4 breakdown is computed directly):
            // the first request misses it, the identical second hits it.
            "{\"req_id\":\"r1\",\"endpoint\":\"cost\",\"status\":200,\"latency_ns\":N,\"cache_hits\":0,\"cache_misses\":1}",
            "{\"req_id\":\"r2\",\"endpoint\":\"cost\",\"status\":200,\"latency_ns\":N,\"cache_hits\":1,\"cache_misses\":0}",
            "{\"req_id\":\"-\",\"endpoint\":\"metrics\",\"status\":200,\"latency_ns\":N,\"cache_hits\":0,\"cache_misses\":0}",
            "{\"req_id\":\"-\",\"endpoint\":\"trace\",\"status\":404,\"latency_ns\":N,\"cache_hits\":0,\"cache_misses\":0}",
        ],
        "access log drifted from the golden shape:\n{log}"
    );
    for line in log.lines() {
        json::parse(line).expect("access record is JSON");
    }
}

#[test]
fn trace_ring_capacity_and_eviction_counter_are_live() {
    let cfg = ServerStateConfig {
        trace_ring: 2,
        ..ServerStateConfig::default()
    };
    let state = ServerState::with_config(cfg).expect("valid config");
    with_server_state(state, |addr| {
        for _ in 0..4 {
            assert_eq!(request(addr, "POST", "/v1/cost", Some(COST_BODY)).expect("POST").0, 200);
        }
        // r1/r2 evicted (410 with machine-readable context), r3/r4
        // retained.
        let (status, body) = http_get(addr, "/v1/trace/r1").expect("GET");
        assert_eq!(status, 410, "{body}");
        assert!(body.contains("serve.trace_ring.evicted"), "{body}");
        assert_eq!(http_get(addr, "/v1/trace/r2").expect("GET").0, 410);
        assert_eq!(http_get(addr, "/v1/trace/r3").expect("GET").0, 200);
        assert_eq!(http_get(addr, "/v1/trace/r4").expect("GET").0, 200);
        let (_, metrics) = http_get(addr, "/v1/metrics").expect("GET");
        let doc = json::parse(&metrics).expect("metrics is JSON");
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("trace_ring_evicted"))
                .and_then(json::JsonValue::as_u64),
            Some(2),
            "{metrics}"
        );
    });
}

#[test]
fn concurrent_access_log_counts_only_each_requests_own_lookups() {
    let path = std::env::temp_dir().join(format!(
        "nanocost_access_log_concurrent_{}.jsonl",
        std::process::id()
    ));
    let cfg = ServerStateConfig {
        access_log: Some(path.to_string_lossy().into_owned()),
        ..ServerStateConfig::default()
    };
    let state = ServerState::with_config(cfg).expect("valid config");
    with_server_state(state, |addr| {
        std::thread::scope(|scope| {
            // Long batches keep one worker inside the cache (one
            // mask-set lookup per query) while the other serves single
            // cost requests.
            scope.spawn(move || {
                for b in 0..8 {
                    let queries: Vec<String> = (0..200)
                        .map(|k| {
                            format!(
                                r#"{{"lambda_um":0.13,"sd":{},"transistors":1e7,"volume":5000,"fab_yield":0.4}}"#,
                                200 + b * 200 + k
                            )
                        })
                        .collect();
                    let body = format!(r#"{{"queries":[{}]}}"#, queries.join(","));
                    let (status, _) = request(addr, "POST", "/v1/batch", Some(&body)).expect("POST");
                    assert_eq!(status, 200);
                }
            });
            for t in 0..2 {
                scope.spawn(move || {
                    for i in 0..40 {
                        let body = format!(
                            r#"{{"lambda_um":0.18,"sd":{},"transistors":1e7,"volume":5000,"fab_yield":0.4}}"#,
                            300 + (t * 40 + i) % 7
                        );
                        let (status, _) = request(addr, "POST", "/v1/cost", Some(&body)).expect("POST");
                        assert_eq!(status, 200);
                    }
                });
            }
        });
    });
    let log = std::fs::read_to_string(&path).expect("access log written");
    let _ = std::fs::remove_file(&path);
    let field = |line: &str, key: &str| -> u64 {
        let doc = json::parse(line).expect("access record is JSON");
        doc.get(key)
            .and_then(json::JsonValue::as_u64)
            .unwrap_or_else(|| panic!("no {key} in {line}"))
    };
    let costs: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"endpoint\":\"cost\""))
        .collect();
    assert_eq!(costs.len(), 80, "{log}");
    for line in costs {
        // Its one mask-set lookup, never a peer's.
        assert_eq!(
            field(line, "cache_hits") + field(line, "cache_misses"),
            1,
            "a concurrent request's lookups leaked into {line}"
        );
    }
}
