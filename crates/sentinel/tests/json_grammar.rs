//! Property test of the workspace's one JSON grammar,
//! `nanocost_sentinel::json::parse` (RFC 8259).
//!
//! Every JSONL line the trace exporter renders must parse, since
//! `trace_check`, `fingerprint` and the server's tests read captures
//! through it. Hand-picked boundary documents must be accepted or
//! rejected exactly as RFC 8259 says, and thousands of printable-ASCII
//! mutations of both corpora must never panic the parser.

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

use nanocost_numeric::Rng64;
use nanocost_sentinel::json::parse;
use nanocost_trace::export::{Exporter, JsonlExporter};
use nanocost_trace::{Equation, Field, Record, RecordKind, Value};

/// Renders a varied set of genuine trace records to JSONL lines.
fn rendered_corpus(rng: &mut Rng64) -> Vec<String> {
    let mut exporter = JsonlExporter;
    let mut lines = Vec::new();
    for i in 0..40u64 {
        let fields = vec![
            Field::new("lambda_um", Value::F64(rng.random_range(0.01..0.25))),
            Field::new("sd", Value::F64(rng.random_range(100.0..2500.0))),
            Field::new("wafers", Value::U64(rng.next_u64() % 100_000)),
            Field::new("delta", Value::I64((rng.next_u64() as i64) % 1_000)),
            Field::new("cached", Value::Bool(i % 2 == 0)),
            Field::new("tag", Value::Str(format!("case-{i}\t\"quoted\" \u{3bb}"))),
        ];
        let kinds = [
            RecordKind::SpanEnter {
                span: i + 1,
                parent: if i % 3 == 0 { None } else { Some(i) },
                name: "serve.request",
                fields: fields.clone(),
            },
            RecordKind::SpanExit {
                span: i + 1,
                name: "serve.request",
                elapsed_nanos: rng.next_u64() % 1_000_000_000,
            },
            RecordKind::Event {
                span: Some(i + 1),
                name: "cache.lookup",
                fields: fields.clone(),
            },
            RecordKind::Provenance {
                span: Some(i + 1),
                equation: Equation::Eq4,
                function: "nanocost_core::cost::TotalCostModel::transistor_cost",
                inputs: fields.clone(),
                outputs: vec![Field::new("c_tr", Value::F64(rng.next_f64()))],
            },
            RecordKind::StackSample {
                frames: vec!["serve.request", "serve.endpoint.cost"],
                depth: 2,
                t_ns: rng.next_u64() % u64::from(u32::MAX),
            },
        ];
        for kind in kinds {
            let record = Record::unscoped(i * 7, 1 + i % 4, kind);
            let line = exporter.render(&record);
            lines.push(line.trim_end().to_string());
        }
    }
    lines
}

/// Documents RFC 8259 accepts, chosen to sit right on its boundaries.
const VALID: &[&str] = &[
    "{}",
    "[]",
    "null",
    "true",
    "-0.5e-3",
    "\"\"",
    "[1,2,3]",
    "{\"a\":{\"b\":[null,false,1e9]}}",
    "\"\\u00e9\\u03bb\\ud83d\\ude00\"",
    "1e308",
    "[0]",
];

/// Documents RFC 8259 rejects, most a one-byte slip from a valid one.
const INVALID: &[&str] = &[
    "",
    "{",
    "[1,2,]",
    "{\"a\":1,}",
    "{\"a\"}",
    "01",
    "1.",
    ".5",
    "+1",
    "1e",
    "--1",
    "nul",
    "truee",
    "\"unterminated",
    "\"bad escape \\q\"",
    "\"lone surrogate \\ud83d\"",
    "\"\\ud83d\\u0041\"",
    "[1] [2]",
    "{\"a\":1} trailing",
    "'single'",
    "NaN",
    "Infinity",
];

/// Applies one printable-ASCII mutation, preserving UTF-8 validity by
/// construction (we only touch ASCII insertion/replacement and only
/// remove whole chars).
fn mutate(line: &str, rng: &mut Rng64) -> String {
    const ASCII: &[u8] = b" \t{}[]\":,.\\/-+eE0123456789abcdflnrstuxy\"";
    let mut chars: Vec<char> = line.chars().collect();
    match rng.random_range(0..4u32) {
        0 if !chars.is_empty() => {
            let i = rng.random_range(0..chars.len());
            chars[i] = ASCII[rng.random_range(0..ASCII.len())] as char;
        }
        1 if !chars.is_empty() => {
            let i = rng.random_range(0..chars.len());
            chars.remove(i);
        }
        2 => {
            let i = rng.random_range(0..=chars.len());
            chars.insert(i, ASCII[rng.random_range(0..ASCII.len())] as char);
        }
        _ => {
            // Truncate at a random char boundary.
            let i = rng.random_range(0..=chars.len());
            chars.truncate(i);
        }
    }
    chars.into_iter().collect()
}

#[test]
fn rendered_trace_lines_parse() {
    let mut rng = Rng64::seed_from_u64(0xd1ff_0001);
    for line in rendered_corpus(&mut rng) {
        parse(&line).unwrap_or_else(|e| panic!("rendered line rejected: {e}\n{line}"));
    }
}

#[test]
fn edge_cases_are_accepted_or_rejected_per_rfc_8259() {
    for doc in VALID {
        assert!(parse(doc).is_ok(), "valid document rejected: {doc:?}");
    }
    for doc in INVALID {
        assert!(parse(doc).is_err(), "invalid document accepted: {doc:?}");
    }
}

#[test]
fn mutations_never_panic_the_parser() {
    let mut rng = Rng64::seed_from_u64(0xd1ff_0002);
    let rendered = rendered_corpus(&mut rng);
    for _ in 0..4000 {
        let mut line = rendered[rng.random_range(0..rendered.len())].clone();
        for _ in 0..rng.random_range(1..4u32) {
            line = mutate(&line, &mut rng);
        }
        let _ = parse(&line);
    }
    let mut rng = Rng64::seed_from_u64(0xd1ff_0003);
    let edges: Vec<&str> = VALID.iter().chain(INVALID).copied().collect();
    for _ in 0..4000 {
        let _ = parse(&mutate(edges[rng.random_range(0..edges.len())], &mut rng));
    }
}
