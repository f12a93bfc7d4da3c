//! Property test: a served answer depends only on its request.
//!
//! A seeded stream over every model endpoint — with exact repeats and
//! near-duplicates a fraction of a lattice step apart — is served in
//! order by one fresh state and in a shuffled order by another. Each
//! request's body (less its `req_id`) and the Eq.-provenance multiset
//! of its stored trace must be byte-identical on both.

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
use nanocost_serve::{handle, Request, ServerState};

const CASES: u64 = 6;
const STREAM: usize = 36;

/// `base` or `base + nudge`: each nudge is a quarter of that axis's
/// lattice step (`SD_QUANTUM` and friends in `nanocost_core`).
fn near(rng: &mut Rng64, base: &[f64], nudge: f64) -> f64 {
    let x = base[rng.random_range(0..base.len())];
    if rng.random_range(0..2usize) == 0 {
        x
    } else {
        x + nudge
    }
}

fn cost_body(rng: &mut Rng64) -> String {
    format!(
        r#"{{"lambda_um":{},"sd":{},"transistors":1e7,"volume":5000,"fab_yield":{}}}"#,
        near(rng, &[0.18, 0.13], 2.5e-10),
        near(rng, &[300.0, 450.0], 2.5e-7),
        near(rng, &[0.4], 2.5e-10),
    )
}

fn request(rng: &mut Rng64) -> (&'static str, String) {
    match rng.random_range(0..5usize) {
        0 => ("/v1/cost", cost_body(rng)),
        1 => (
            "/v1/yield",
            format!(
                r#"{{"lambda_um":0.13,"sd":{},"transistors":1e7,"volume":20000}}"#,
                near(rng, &[300.0, 400.0], 2.5e-7)
            ),
        ),
        2 => (
            "/v1/optimum",
            format!(
                r#"{{"lambda_um":0.18,"transistors":1e7,"volume":5000,"fab_yield":0.4,"mask_cost":{},"sd_lo":{}}}"#,
                near(rng, &[200_000.0], 2.5e-4),
                near(rng, &[110.0], 2.5e-7),
            ),
        ),
        3 => {
            let queries: Vec<String> = (0..3).map(|_| cost_body(rng)).collect();
            (
                "/v1/batch",
                format!(r#"{{"queries":[{}]}}"#, queries.join(",")),
            )
        }
        _ => (
            "/v1/chiplet",
            format!(
                r#"{{"lambda_um":0.07,"sd":{},"transistors":4e8,"units":1000000,"chiplets":4}}"#,
                near(rng, &[300.0], 2.5e-7)
            ),
        ),
    }
}

/// Position just past `needle` in `hay`.
fn after(hay: &str, needle: &str) -> Option<usize> {
    hay.find(needle).map(|i| i + needle.len())
}

/// The body without its one history-dependent member, the leading
/// `req_id`.
fn normalize(body: &str) -> String {
    match body.strip_prefix(r#"{"req_id":""#) {
        Some(rest) => format!("{{{}", &rest[after(rest, "\",").unwrap_or(0)..]),
        None => body.to_string(),
    }
}

/// Serves `path`/`body` on `state`; returns the normalized body and
/// the sorted provenance lines of the stored trace, less their
/// volatile prefix (timestamp, thread, request id, span id).
fn serve(state: &ServerState, path: &str, body: &str) -> (String, Vec<String>) {
    let response = handle(
        state,
        &Request {
            method: "POST".into(),
            path: path.into(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
        },
    );
    let text = String::from_utf8(response.body).expect("UTF-8 body");
    assert_eq!(response.status, 200, "{path} {body}: {text}");
    let id_start = after(&text, r#"{"req_id":""#).expect("req_id");
    let req_id = &text[id_start..id_start + text[id_start..].find('"').expect("closing quote")];
    let trace = state.trace(req_id).expect("stored trace");
    let mut provenance: Vec<String> = trace
        .lines()
        .filter(|l| l.contains(r#""type":"provenance""#))
        .map(|l| l[l.find(r#""equation":"#).expect("equation")..].to_string())
        .collect();
    assert!(
        !provenance.is_empty(),
        "{path} {body} emitted no provenance"
    );
    provenance.sort();
    (normalize(&text), provenance)
}

#[test]
fn answers_and_provenance_do_not_depend_on_request_order() {
    for case in 0..CASES {
        let mut rng = Rng64::seed_from_u64(0x0DE5_0000 + case);
        let stream: Vec<(&str, String)> = (0..STREAM).map(|_| request(&mut rng)).collect();
        let mut order: Vec<usize> = (0..STREAM).collect();
        for i in (1..STREAM).rev() {
            order.swap(i, rng.random_range(0..=i));
        }

        let in_order = ServerState::new();
        let forward: Vec<_> = stream
            .iter()
            .map(|(path, body)| serve(&in_order, path, body))
            .collect();
        let shuffled = ServerState::new();
        let mut permuted = vec![None; STREAM];
        for &i in &order {
            let (path, body) = &stream[i];
            permuted[i] = Some(serve(&shuffled, path, body));
        }

        for (i, (a, b)) in forward.iter().zip(&permuted).enumerate() {
            let b = b.as_ref().expect("every request served");
            let (path, body) = &stream[i];
            assert_eq!(a.0, b.0, "case {case}: {path} {body} answered differently");
            assert_eq!(a.1, b.1, "case {case}: {path} {body} provenance differs");
        }
    }
}

#[test]
fn normalize_strips_only_the_request_id() {
    assert_eq!(normalize(r#"{"req_id":"r12","total":1}"#), r#"{"total":1}"#);
    // A batch's `stats` object is kept whole.
    assert_eq!(
        normalize(r#"{"req_id":"r3","results":[],"stats":{"requested":2,"unique":1}}"#),
        r#"{"results":[],"stats":{"requested":2,"unique":1}}"#
    );
}
