//! Exporter golden tests: a fixed record sequence rendered through each
//! exporter must match a checked-in fixture byte-for-byte.
//!
//! Regenerate after an intentional format change with
//! `NANOCOST_TRACE_BLESS=1 cargo test -p nanocost-trace --test golden`.

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

use std::path::PathBuf;
use std::sync::Arc;

use nanocost_trace::export::{Exporter, Format};
use nanocost_trace::provenance::Equation;
use nanocost_trace::value::{Field, Value};
use nanocost_trace::{ProvenanceCall, Record, RecordKind};

/// A deterministic two-thread record stream covering every record kind
/// but the replay (see [`replay_records`]).
fn fixture_records() -> Vec<Record> {
    fn f(name: &'static str, value: Value) -> Field {
        Field::new(name, value)
    }
    vec![
        Record {
            ts_micros: 10,
            thread: 1,
            req_id: None,
            replica: None,
            kind: RecordKind::SpanEnter {
                span: 1,
                parent: None,
                name: "figure4.panel",
                fields: vec![f("volume", Value::U64(5_000)), f("maturity", Value::Str("mature".into()))],
            },
        },
        Record {
            ts_micros: 12,
            thread: 1,
            req_id: None,
            replica: None,
            kind: RecordKind::Provenance {
                span: Some(1),
                equation: Equation::Eq6,
                function: "nanocost_flow::effort::design_cost",
                inputs: vec![f("staff", Value::F64(25.0)), f("months", Value::F64(18.0))],
                outputs: vec![f("cost_usd", Value::F64(9.0e6))],
            },
        },
        Record {
            ts_micros: 14,
            thread: 1,
            req_id: None,
            replica: None,
            kind: RecordKind::SpanEnter {
                span: 2,
                parent: Some(1),
                name: "optimize.sd_total",
                fields: vec![],
            },
        },
        Record {
            ts_micros: 15,
            thread: 2,
            req_id: None,
            replica: None,
            kind: RecordKind::SpanEnter {
                span: 3,
                parent: None,
                name: "yield.simulate",
                fields: vec![f("wafers", Value::U64(25))],
            },
        },
        Record {
            ts_micros: 17,
            thread: 1,
            req_id: None,
            replica: None,
            kind: RecordKind::Event {
                span: Some(2),
                name: "optimum.found",
                fields: vec![f("sd", Value::F64(412.5)), f("converged", Value::Bool(true))],
            },
        },
        Record {
            ts_micros: 20,
            thread: 2,
            req_id: None,
            replica: None,
            kind: RecordKind::SpanExit { span: 3, name: "yield.simulate", elapsed_nanos: 5_000 },
        },
        Record {
            ts_micros: 22,
            thread: 1,
            req_id: None,
            replica: None,
            kind: RecordKind::SpanExit {
                span: 2,
                name: "optimize.sd_total",
                elapsed_nanos: 8_000,
            },
        },
        Record {
            ts_micros: 23,
            thread: 1,
            req_id: None,
            replica: None,
            kind: RecordKind::Provenance {
                span: Some(1),
                equation: Equation::Eq4,
                function: "nanocost_core::total::transistor_cost",
                inputs: vec![f("sd", Value::F64(412.5)), f("n_tr", Value::F64(1.0e8))],
                outputs: vec![f("c_tr", Value::F64(1.5e-6))],
            },
        },
        Record {
            ts_micros: 25,
            thread: 1,
            req_id: None,
            replica: None,
            kind: RecordKind::SpanExit {
                span: 1,
                name: "figure4.panel",
                elapsed_nanos: 15_000,
            },
        },
        // A request-scoped pair from a labeled fleet replica (schema
        // 2): the JSONL envelope gains req_id and replica keys; the
        // text and chrome renderings are unchanged.
        Record {
            ts_micros: 30,
            thread: 3,
            req_id: Some("r9".into()),
            replica: Some("b".into()),
            kind: RecordKind::SpanEnter {
                span: 4,
                parent: None,
                name: "serve.request",
                fields: vec![f("endpoint", Value::Str("cost".into()))],
            },
        },
        Record {
            ts_micros: 31,
            thread: 3,
            req_id: Some("r9".into()),
            replica: Some("b".into()),
            kind: RecordKind::SpanExit {
                span: 4,
                name: "serve.request",
                elapsed_nanos: 900,
            },
        },
        // Profiler stack samples: one request-attributed (the sampler
        // stamps the *sampled* thread's scope), one unscoped and
        // depth-clamped.
        Record {
            ts_micros: 32,
            thread: 3,
            req_id: Some("r9".into()),
            replica: Some("b".into()),
            kind: RecordKind::StackSample {
                frames: vec!["serve.request", "serve.endpoint.cost"],
                depth: 2,
                t_ns: 30_500,
            },
        },
        Record {
            ts_micros: 32,
            thread: 1,
            req_id: None,
            replica: None,
            kind: RecordKind::StackSample {
                frames: vec!["figure4.panel"],
                depth: 33,
                t_ns: 30_500,
            },
        },
    ]
}

/// A memo hit's two-call replay inside a request span, as the server
/// captures it (`replayed`), and the same stream with the replay
/// written out as the two provenance records it stands for, each under
/// the replay's envelope (`expanded`).
fn replay_records() -> (Vec<Record>, Vec<Record>) {
    let envelope = |ts_micros, kind| Record {
        ts_micros,
        thread: 3,
        req_id: Some("r12".into()),
        replica: Some("b".into()),
        kind,
    };
    let calls = [
        ProvenanceCall {
            equation: Equation::Eq5,
            function: "nanocost_fab::mask::mask_set_cost",
            inputs: vec![Field::new("lambda_um", Value::F64(0.18))],
            outputs: vec![Field::new("c_ma", Value::F64(550_000.0))],
        },
        ProvenanceCall {
            equation: Equation::Eq4,
            function: "nanocost_core::total::transistor_cost",
            inputs: vec![Field::new("sd", Value::F64(412.5))],
            outputs: vec![Field::new("c_tr", Value::F64(1.5e-6))],
        },
    ];
    let enter = envelope(
        40,
        RecordKind::SpanEnter { span: 5, parent: None, name: "serve.request", fields: vec![] },
    );
    let exit = envelope(44, RecordKind::SpanExit { span: 5, name: "serve.request", elapsed_nanos: 4_000 });
    let expanded = calls
        .iter()
        .map(|c| {
            envelope(
                42,
                RecordKind::Provenance {
                    span: Some(5),
                    equation: c.equation,
                    function: c.function,
                    inputs: c.inputs.clone(),
                    outputs: c.outputs.clone(),
                },
            )
        })
        .collect::<Vec<_>>();
    let replay = envelope(42, RecordKind::Replay { span: Some(5), calls: Arc::from(calls) });
    (
        vec![enter.clone(), replay, exit.clone()],
        [vec![enter], expanded, vec![exit]].concat(),
    )
}

fn render_records(format: Format, records: &[Record]) -> String {
    let mut exporter: Box<dyn Exporter + Send> = format.exporter();
    let mut out = exporter.begin();
    for rec in records {
        out.push_str(&exporter.render(rec));
    }
    out.push_str(&exporter.finish());
    out
}

fn render(format: Format) -> String {
    render_records(format, &fixture_records())
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

fn compare(name: &str, actual: &str) {
    let path = fixture_path(name);
    if std::env::var_os("NANOCOST_TRACE_BLESS").is_some() {
        std::fs::write(&path, actual).expect("write blessed fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); bless with NANOCOST_TRACE_BLESS=1", path.display()));
    assert_eq!(
        actual,
        expected,
        "exporter output drifted from {}; re-bless if intentional",
        path.display()
    );
}

#[test]
fn text_tree_matches_golden() {
    compare("trace.expected.txt", &render(Format::Text));
}

#[test]
fn jsonl_matches_golden_and_every_line_is_json() {
    let out = render(Format::Jsonl);
    for line in out.lines() {
        nanocost_sentinel::json::parse(line).expect("fixture line is valid JSON");
    }
    assert!(
        out.contains("\"req_id\":\"r9\""),
        "request-scoped records must carry req_id in the JSONL envelope"
    );
    assert!(
        out.contains("\"req_id\":\"r9\",\"replica\":\"b\""),
        "labeled-replica records must carry replica right after req_id"
    );
    assert!(
        out.contains("\"type\":\"stack_sample\""),
        "profiler samples must render with their own type tag"
    );
    compare("trace.expected.jsonl", &out);
}

#[test]
fn chrome_matches_golden_and_is_one_json_document() {
    let out = render(Format::Chrome);
    nanocost_sentinel::json::parse(&out).expect("chrome trace is one valid JSON document");
    assert!(
        out.contains("\"ph\":\"B\"") && out.contains("\"equation\":\"Eq.4\""),
        "spans must render as B events and provenance as instants"
    );
    compare("trace.expected.chrome.json", &out);
}

#[test]
fn a_replay_renders_as_its_expanded_provenance_records_in_every_format() {
    let (replayed, expanded) = replay_records();
    for (format, fixture) in [
        (Format::Text, "replay.expected.txt"),
        (Format::Jsonl, "replay.expected.jsonl"),
        (Format::Chrome, "replay.expected.chrome.json"),
    ] {
        let out = render_records(format, &replayed);
        assert_eq!(out, render_records(format, &expanded), "{format:?}");
        compare(fixture, &out);
    }
}
