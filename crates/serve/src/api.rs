//! The JSON endpoints: request routing, body decoding, and response
//! rendering over the scenario cache.
//!
//! Every model endpoint runs under a `serve.request` trace span inside
//! a [`nanocost_trace::with_capture`] frame with an installed
//! [`nanocost_trace::request_scope`], so every captured record (span,
//! events, and every Eq.-provenance record the evaluation or cache
//! replay emitted) carries the request's `req_id`. The capture is
//! stored under that id and replayable via `GET /v1/trace/<req-id>`.
//! Every request — model or not — also produces one structured
//! access-log record when the server was configured with
//! `NANOCOST_SERVE_ACCESS_LOG`.

use std::time::Instant;

use nanocost_chiplet::{AssemblyKind, ChipletScenario};
use nanocost_core::{BatchRequest, CostQuery, ScenarioCache};
use nanocost_core::{DesignPoint, GeneralizedReport};
use nanocost_sentinel::json::{self, JsonValue};
use nanocost_trace::span::Span;
use nanocost_trace::value::json_string;
use nanocost_trace::{span, with_capture};
use nanocost_units::{
    ChipCount, DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError, WaferCount,
    Yield,
};

use crate::http::{Request, Response};
use crate::state::ServerState;

/// Default `s_d` bracket for `/v1/optimum`, matching the Figure-4
/// scenarios.
pub const DEFAULT_SD_BRACKET: (f64, f64) = (110.0, 1_500.0);

/// Default trailing window for `GET /v1/profile`, in seconds.
pub const PROFILE_WINDOW_DEFAULT_S: u64 = 30;

/// An endpoint failure with the HTTP status it maps to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code (400 malformed, 422 domain violation).
    pub status: u16,
    /// Human-readable cause, returned as `{"error": …}`.
    pub message: String,
}

impl ApiError {
    fn bad_request(message: impl Into<String>) -> Self {
        ApiError {
            status: 400,
            message: message.into(),
        }
    }

    fn domain(e: &UnitError) -> Self {
        ApiError {
            status: 422,
            message: format!("domain violation: {e}"),
        }
    }
}

impl From<UnitError> for ApiError {
    fn from(e: UnitError) -> Self {
        ApiError::domain(&e)
    }
}

/// Routes one parsed request to its handler, timing it and emitting a
/// structured access-log record (when the server has an access log).
#[must_use]
pub fn handle(state: &ServerState, req: &Request) -> Response {
    // Every cache lookup of a request runs on this thread, so the
    // thread's own tally isolates it from concurrent requests' traffic.
    let (hits_before, misses_before) = nanocost_core::memo::thread_tally();
    let started = Instant::now();
    let (endpoint, req_id, response) = route(state, req);
    let latency_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let (hits_after, misses_after) = nanocost_core::memo::thread_tally();
    state.log_access(
        req_id.as_deref().unwrap_or("-"),
        endpoint,
        response.status,
        latency_ns,
        hits_after - hits_before,
        misses_after - misses_before,
    );
    response
}

/// Dispatches to the endpoint body; returns the endpoint label for the
/// access log, the request id (model endpoints only), and the response.
fn route(state: &ServerState, req: &Request) -> (&'static str, Option<String>, Response) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/cost") => model_endpoint(state, "cost", &req.body, cost_endpoint),
        ("POST", "/v1/yield") => model_endpoint(state, "yield", &req.body, yield_endpoint),
        ("POST", "/v1/optimum") => model_endpoint(state, "optimum", &req.body, optimum_endpoint),
        ("POST", "/v1/batch") => model_endpoint(state, "batch", &req.body, batch_endpoint),
        ("POST", "/v1/chiplet") => model_endpoint(state, "chiplet", &req.body, chiplet_endpoint),
        ("GET", "/v1/metrics") => ("metrics", None, Response::json(200, state.metrics_json())),
        ("GET", "/v1/metrics/raw") => {
            ("metrics_raw", None, Response::json(200, state.metrics_raw_json()))
        }
        ("GET", "/v1/health") => {
            let (status, body) = state.health_json(nanocost_trace::epoch_nanos());
            ("health", None, Response::json(status, body))
        }
        ("GET", path) if path == "/v1/profile" || path.starts_with("/v1/profile?") => {
            ("profile", None, profile_endpoint(state, path))
        }
        ("GET", path) if path.starts_with("/v1/trace/") => {
            ("trace", None, trace_endpoint(state, path))
        }
        (_, "/v1/cost" | "/v1/yield" | "/v1/optimum" | "/v1/batch" | "/v1/chiplet") => {
            ("bad_method", None, Response::error(405, "use POST"))
        }
        (_, "/v1/metrics" | "/v1/metrics/raw" | "/v1/health") => {
            ("bad_method", None, Response::error(405, "use GET"))
        }
        (_, path) if path == "/v1/profile" || path.starts_with("/v1/profile?") => {
            ("bad_method", None, Response::error(405, "use GET"))
        }
        (_, path) if path.starts_with("/v1/trace/") => {
            ("bad_method", None, Response::error(405, "use GET"))
        }
        _ => ("unknown", None, Response::error(404, "unknown endpoint")),
    }
}

/// Runs one model endpoint: decode → traced evaluation under a capture
/// frame and request scope → latency + exemplar observation → trace
/// storage.
fn model_endpoint(
    state: &ServerState,
    endpoint: &'static str,
    body: &[u8],
    run: impl FnOnce(&ServerState, &JsonValue) -> Result<String, ApiError>,
) -> (&'static str, Option<String>, Response) {
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return (endpoint, None, Response::error(400, "body is not UTF-8")),
    };
    let doc = match json::parse(text) {
        Ok(doc) => doc,
        Err(e) => {
            return (
                endpoint,
                None,
                Response::error(400, &format!("body is not JSON: {e}")),
            )
        }
    };
    let req_id = state.next_request_id();
    let started = Instant::now();
    let (records, result) = with_capture(|| {
        // Scope before span: the span drops (and its exit record is
        // emitted) while the request scope is still installed, so the
        // whole capture carries `req_id`.
        let _scope = nanocost_trace::request_scope(&req_id);
        let _span = span!("serve.request", endpoint = endpoint, req = req_id.as_str());
        // A static per-endpoint child span (`serve.endpoint.cost` etc.)
        // so the stack profiler can attribute samples to endpoints.
        let _ep = endpoint_span(endpoint);
        run(state, &doc)
    });
    let latency_us = started.elapsed().as_secs_f64() * 1e6;
    let t_ns = nanocost_trace::epoch_nanos();
    match result {
        Ok(fields) => {
            // Only successful requests store a capture, so only they
            // leave an exemplar — an exemplar must always round-trip to
            // a fetchable trace.
            state.store_trace(&req_id, &records);
            state.observe(endpoint, latency_us, Some(&req_id), t_ns);
            let body = format!("{{\"req_id\":{},{fields}}}", json_string(&req_id));
            (endpoint, Some(req_id), Response::json(200, body))
        }
        Err(e) => {
            state.observe(endpoint, latency_us, None, t_ns);
            (endpoint, Some(req_id), Response::error(e.status, &e.message))
        }
    }
}

/// The profiler's per-endpoint span. Span names must be `&'static str`
/// (the seqlock slots publish pointers, not copies), hence the match
/// instead of a formatted name.
fn endpoint_span(endpoint: &'static str) -> Span {
    match endpoint {
        "cost" => span!("serve.endpoint.cost"),
        "yield" => span!("serve.endpoint.yield"),
        "optimum" => span!("serve.endpoint.optimum"),
        "batch" => span!("serve.endpoint.batch"),
        "chiplet" => span!("serve.endpoint.chiplet"),
        _ => Span::inert(),
    }
}

fn trace_endpoint(state: &ServerState, path: &str) -> Response {
    let id = path.trim_start_matches("/v1/trace/");
    match state.trace(id) {
        Some(text) => Response::jsonl(200, text),
        // Distinguish a capture that existed but aged out of the ring
        // (410 + machine-readable context, so loadgen can tolerate the
        // exemplar/eviction race) from an id that never existed (404).
        None if state.likely_evicted(id) => Response::json(
            410,
            format!(
                "{{\"error\":\"trace evicted from ring\",\"context\":\"serve.trace_ring.evicted\",\"req_id\":{}}}",
                json_string(id)
            ),
        ),
        None => Response::error(404, "unknown request id"),
    }
}

/// `GET /v1/profile?window_s=N`: the deterministic stack-sample report
/// over the trailing window (default 30 s, clamped to one hour).
fn profile_endpoint(state: &ServerState, path: &str) -> Response {
    let window_s = match path.split_once('?') {
        None => PROFILE_WINDOW_DEFAULT_S,
        Some((_, query)) => {
            let mut window = None;
            for pair in query.split('&').filter(|p| !p.is_empty()) {
                let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
                if key != "window_s" {
                    return Response::error(400, &format!("unknown query parameter `{key}`"));
                }
                match value.parse::<u64>() {
                    Ok(s) if s >= 1 => window = Some(s.min(crate::state::PROFILE_WINDOW_MAX_S)),
                    _ => {
                        return Response::error(
                            400,
                            "window_s must be a positive integer number of seconds",
                        )
                    }
                }
            }
            window.unwrap_or(PROFILE_WINDOW_DEFAULT_S)
        }
    };
    Response::json(200, state.profile_report_json(window_s))
}

// ---- body decoding helpers -------------------------------------------------

fn num(doc: &JsonValue, key: &str) -> Result<f64, ApiError> {
    doc.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| ApiError::bad_request(format!("missing numeric field `{key}`")))
}

fn num_or(doc: &JsonValue, key: &str, default: f64) -> Result<f64, ApiError> {
    match doc.get(key) {
        None | Some(JsonValue::Null) => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| ApiError::bad_request(format!("field `{key}` must be a number"))),
    }
}

/// Decodes a strictly positive JSON integer (chiplet counts, unit
/// volumes): finite, ≥ 1, no fractional part.
fn positive_int(doc: &JsonValue, key: &str) -> Result<u64, ApiError> {
    let v = num(doc, key)?;
    if !(v.is_finite() && v >= 1.0 && v.fract().abs() < f64::EPSILON) {
        return Err(ApiError::bad_request(format!(
            "field `{key}` must be a positive integer"
        )));
    }
    Ok(v as u64)
}

fn wafers(doc: &JsonValue, key: &str) -> Result<WaferCount, ApiError> {
    let v = num(doc, key)?;
    if !(v.is_finite() && v >= 0.0 && v.fract().abs() < f64::EPSILON) {
        return Err(ApiError::bad_request(format!(
            "field `{key}` must be a non-negative integer"
        )));
    }
    Ok(WaferCount::new(v as u64)?)
}

/// Decodes one eq.-4 query object; `mask_cost` defaults to the cached
/// eq.-5 mask-set cost for the query's node.
fn cost_query(cache: &ScenarioCache, doc: &JsonValue) -> Result<CostQuery, ApiError> {
    let lambda = FeatureSize::from_microns(num(doc, "lambda_um")?)?;
    let mask_cost = match doc.get("mask_cost") {
        None | Some(JsonValue::Null) => cache.mask_set_cost(lambda),
        // `try_new`, not `new`: JSON `1e400` parses to +inf (f64 parse
        // saturates) and must map to a 422, never a panic.
        Some(v) => Dollars::try_new(v.as_f64().ok_or_else(|| {
            ApiError::bad_request("field `mask_cost` must be a number")
        })?)?,
    };
    Ok(CostQuery {
        lambda,
        sd: DecompressionIndex::new(num(doc, "sd")?)?,
        transistors: TransistorCount::new(num(doc, "transistors")?)?,
        volume: wafers(doc, "volume")?,
        fab_yield: Yield::new(num(doc, "fab_yield")?)?,
        mask_cost,
    })
}

// ---- endpoint bodies -------------------------------------------------------

fn breakdown_fields(b: &nanocost_core::CostBreakdown) -> String {
    format!(
        "\"total\":{:e},\"manufacturing\":{:e},\"design\":{:e},\"design_per_cm2\":{:e},\"design_fraction\":{:e}",
        b.total().amount(),
        b.manufacturing.amount(),
        b.design.amount(),
        b.design_per_cm2.dollars_per_cm2(),
        b.design_fraction(),
    )
}

fn cost_endpoint(state: &ServerState, doc: &JsonValue) -> Result<String, ApiError> {
    let cache = state.cache();
    let q = cost_query(cache, doc)?;
    let b = cache.transistor_cost(q.lambda, q.sd, q.transistors, q.volume, q.fab_yield, q.mask_cost)?;
    Ok(format!(
        "{},\"mask_cost\":{:e}",
        breakdown_fields(&b),
        q.mask_cost.amount()
    ))
}

fn report_fields(r: &GeneralizedReport) -> String {
    format!(
        "\"fab_yield\":{:e},\"effective_yield\":{:e},\"transistor_cost\":{:e},\"test_cost\":{:e},\"die_cost\":{:e},\"cm_sq\":{:e},\"cd_sq\":{:e}",
        r.fab_yield.value(),
        r.effective_yield.value(),
        r.transistor_cost.amount(),
        r.test_cost.amount(),
        r.die_cost.amount(),
        r.cm_sq.dollars_per_cm2(),
        r.cd_sq.dollars_per_cm2(),
    )
}

fn yield_endpoint(state: &ServerState, doc: &JsonValue) -> Result<String, ApiError> {
    let cache = state.cache();
    let point = DesignPoint {
        lambda: FeatureSize::from_microns(num(doc, "lambda_um")?)?,
        sd: DecompressionIndex::new(num(doc, "sd")?)?,
        transistors: TransistorCount::new(num(doc, "transistors")?)?,
        volume: wafers(doc, "volume")?,
    };
    let r = cache.evaluate_generalized(point)?;
    Ok(report_fields(&r))
}

fn optimum_endpoint(state: &ServerState, doc: &JsonValue) -> Result<String, ApiError> {
    let cache = state.cache();
    let lambda = FeatureSize::from_microns(num(doc, "lambda_um")?)?;
    let mask_cost = match doc.get("mask_cost") {
        None | Some(JsonValue::Null) => cache.mask_set_cost(lambda),
        Some(v) => Dollars::try_new(v.as_f64().ok_or_else(|| {
            ApiError::bad_request("field `mask_cost` must be a number")
        })?)?,
    };
    let sd_lo = num_or(doc, "sd_lo", DEFAULT_SD_BRACKET.0)?;
    let sd_hi = num_or(doc, "sd_hi", DEFAULT_SD_BRACKET.1)?;
    let optimum = cache
        .optimal_sd(
            lambda,
            TransistorCount::new(num(doc, "transistors")?)?,
            wafers(doc, "volume")?,
            Yield::new(num(doc, "fab_yield")?)?,
            mask_cost,
            sd_lo,
            sd_hi,
        )
        .map_err(|e| ApiError {
            status: 422,
            message: format!("optimizer: {e}"),
        })?;
    Ok(format!(
        "\"sd\":{:e},\"cost\":{:e},\"mask_cost\":{:e}",
        optimum.sd,
        optimum.cost.amount(),
        mask_cost.amount()
    ))
}

fn batch_endpoint(state: &ServerState, doc: &JsonValue) -> Result<String, ApiError> {
    let cache = state.cache();
    let Some(JsonValue::Arr(items)) = doc.get("queries") else {
        return Err(ApiError::bad_request("missing array field `queries`"));
    };
    let queries = items
        .iter()
        .map(|item| cost_query(cache, item))
        .collect::<Result<Vec<_>, _>>()?;
    let response = cache.evaluate_batch(&BatchRequest { queries });
    let mut results = String::from("[");
    for (i, r) in response.results.iter().enumerate() {
        if i > 0 {
            results.push(',');
        }
        match r {
            Ok(b) => {
                results.push('{');
                results.push_str(&breakdown_fields(b));
                results.push('}');
            }
            Err(e) => results.push_str(&format!(
                "{{\"error\":{}}}",
                json_string(&format!("{e}"))
            )),
        }
    }
    results.push(']');
    let s = response.stats;
    Ok(format!(
        "\"results\":{results},\"stats\":{{\"requested\":{},\"unique\":{}}}",
        s.requested, s.unique
    ))
}

/// Decodes one `/v1/chiplet` scenario. `distinct_designs` defaults to
/// 1 (a homogeneous split) and `assembly` to `"rdl"`.
fn chiplet_scenario(doc: &JsonValue) -> Result<ChipletScenario, ApiError> {
    let assembly = match doc.get("assembly") {
        None | Some(JsonValue::Null) => AssemblyKind::Rdl,
        Some(JsonValue::Str(s)) => AssemblyKind::parse(s).ok_or_else(|| {
            ApiError::bad_request(format!("field `assembly` must be \"rdl\" or \"si\", got `{s}`"))
        })?,
        Some(_) => return Err(ApiError::bad_request("field `assembly` must be a string")),
    };
    let to_u32 = |key: &str, v: u64| {
        u32::try_from(v)
            .map_err(|_| ApiError::bad_request(format!("field `{key}` is out of range")))
    };
    let chiplets = to_u32("chiplets", positive_int(doc, "chiplets")?)?;
    let distinct_designs = match doc.get("distinct_designs") {
        None | Some(JsonValue::Null) => 1,
        Some(_) => to_u32("distinct_designs", positive_int(doc, "distinct_designs")?)?,
    };
    Ok(ChipletScenario {
        lambda: FeatureSize::from_microns(num(doc, "lambda_um")?)?,
        sd: DecompressionIndex::new(num(doc, "sd")?)?,
        transistors: TransistorCount::new(num(doc, "transistors")?)?,
        units: ChipCount::new(positive_int(doc, "units")?),
        chiplets,
        distinct_designs,
        assembly,
    })
}

fn chiplet_endpoint(state: &ServerState, doc: &JsonValue) -> Result<String, ApiError> {
    let scenario = chiplet_scenario(doc)?;
    // No hit/miss marker in the body: a cached answer must be
    // byte-identical to the uncached one (modulo `req_id`), and the
    // hit counters are published via `/v1/metrics` anyway.
    let report = state.chiplet_cache().evaluate(&scenario)?;
    Ok(format!(
        "\"unit_cost\":{:e},\"silicon_cost\":{:e},\"kgd_cost\":{:e},\"assembly_cost\":{:e},\"nre_cost\":{:e},\"total_area_cm2\":{:e},\"chiplet_area_cm2\":{:e},\"die_yield\":{:e},\"assembly_yield\":{:e},\"chiplets\":{},\"assembly\":{}",
        report.unit_cost.amount(),
        report.silicon_cost.amount(),
        report.kgd_cost.amount(),
        report.assembly_cost.amount(),
        report.nre_cost.amount(),
        report.total_area.cm2(),
        report.chiplet_area.cm2(),
        report.die_yield.value(),
        report.assembly_yield.value(),
        scenario.chiplets,
        json_string(scenario.assembly.name()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".into(),
            path: path.into(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: body.as_bytes().to_vec(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".into(),
            path: path.into(),
            version: "HTTP/1.1".into(),
            headers: vec![],
            body: vec![],
        }
    }

    fn body_str(r: &Response) -> String {
        String::from_utf8(r.body.clone()).unwrap()
    }

    const COST_BODY: &str =
        r#"{"lambda_um":0.18,"sd":300,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#;

    #[test]
    fn cost_endpoint_prices_a_point() {
        let state = ServerState::new();
        let r = handle(&state, &post("/v1/cost", COST_BODY));
        assert_eq!(r.status, 200, "{}", body_str(&r));
        let body = body_str(&r);
        json::parse(&body).expect("valid JSON");
        assert!(body.contains("\"req_id\":\"r1\""));
        assert!(body.contains("\"total\":"));
    }

    #[test]
    fn yield_endpoint_reports_the_surface() {
        let state = ServerState::new();
        let r = handle(
            &state,
            &post(
                "/v1/yield",
                r#"{"lambda_um":0.13,"sd":400,"transistors":1e7,"volume":20000}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", body_str(&r));
        assert!(body_str(&r).contains("\"effective_yield\":"));
    }

    #[test]
    fn an_overflowing_die_area_is_a_domain_violation() {
        // Finite inputs whose eq.-2 area `N_tr · s_d · λ²` overflows, or
        // whose λ² alone does, are a domain violation, not a panic.
        let state = ServerState::new();
        for (path, body) in [
            (
                "/v1/yield",
                r#"{"lambda_um":0.07,"sd":1e300,"transistors":1e300,"volume":1000,"fab_yield":0.9}"#,
            ),
            (
                "/v1/yield",
                r#"{"lambda_um":1e200,"sd":300,"transistors":1e7,"volume":1000,"fab_yield":0.9}"#,
            ),
            (
                "/v1/cost",
                r#"{"lambda_um":1e200,"sd":300,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#,
            ),
        ] {
            let r = handle(&state, &post(path, body));
            assert_eq!(r.status, 422, "{path}: {}", body_str(&r));
            assert!(body_str(&r).contains("domain violation"), "{path}: {}", body_str(&r));
        }
    }

    #[test]
    fn optimum_endpoint_locates_sd_star() {
        let state = ServerState::new();
        let r = handle(
            &state,
            &post(
                "/v1/optimum",
                r#"{"lambda_um":0.18,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#,
            ),
        );
        assert_eq!(r.status, 200, "{}", body_str(&r));
        assert!(body_str(&r).contains("\"sd\":"));
    }

    #[test]
    fn batch_endpoint_reports_dedup_stats() {
        let state = ServerState::new();
        let q = r#"{"lambda_um":0.18,"sd":300,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#;
        let body = format!("{{\"queries\":[{q},{q},{q}]}}");
        let r = handle(&state, &post("/v1/batch", &body));
        assert_eq!(r.status, 200, "{}", body_str(&r));
        let body = body_str(&r);
        json::parse(&body).expect("valid JSON");
        assert!(
            body.ends_with(",\"stats\":{\"requested\":3,\"unique\":1}}"),
            "{body}"
        );
    }

    #[test]
    fn provenance_is_replayable_per_request() {
        let state = ServerState::new();
        let r = handle(&state, &post("/v1/cost", COST_BODY));
        assert_eq!(r.status, 200);
        let r = handle(&state, &get("/v1/trace/r1"));
        assert_eq!(r.status, 200);
        let capture = body_str(&r);
        assert!(capture.contains("\"type\":\"provenance\""), "{capture}");
        assert!(capture.contains("Eq."), "{capture}");
        for line in capture.lines() {
            json::parse(line).expect("each capture line is JSON");
        }
        // `/v1/trace/<id>` is the one route to a capture.
        let r = handle(&state, &get("/v1/provenance/r1"));
        assert_eq!(r.status, 404);
        assert!(body_str(&r).contains("unknown endpoint"), "{}", body_str(&r));
    }

    #[test]
    fn trace_endpoint_serves_request_scoped_captures() {
        let state = ServerState::new();
        let r = handle(&state, &post("/v1/cost", COST_BODY));
        assert_eq!(r.status, 200);
        let r = handle(&state, &get("/v1/trace/r1"));
        assert_eq!(r.status, 200);
        let capture = body_str(&r);
        // Every record in the capture — the span pair, events, and all
        // provenance — must carry the request id.
        for line in capture.lines() {
            assert!(
                line.contains("\"req_id\":\"r1\""),
                "untagged capture record: {line}"
            );
        }
        assert!(capture.contains("\"type\":\"span_enter\""), "{capture}");
        assert_eq!(handle(&state, &get("/v1/trace/r999")).status, 404);
        assert_eq!(handle(&state, &post("/v1/trace/r1", "{}")).status, 405);
    }

    const CHIPLET_BODY: &str =
        r#"{"lambda_um":0.07,"sd":300,"transistors":4e8,"units":1000000,"chiplets":4}"#;

    #[test]
    fn chiplet_endpoint_prices_a_sip() {
        let state = ServerState::new();
        let r = handle(&state, &post("/v1/chiplet", CHIPLET_BODY));
        assert_eq!(r.status, 200, "{}", body_str(&r));
        let body = body_str(&r);
        json::parse(&body).expect("valid JSON");
        assert!(body.contains("\"unit_cost\":"), "{body}");
        assert!(body.contains("\"assembly\":\"rdl\""), "{body}");
        assert!(body.contains("\"chiplets\":4"), "{body}");
        assert_eq!(handle(&state, &get("/v1/chiplet")).status, 405);
    }

    #[test]
    fn chiplet_responses_are_identical_cached_and_uncached() {
        let state = ServerState::new();
        let cold = body_str(&handle(&state, &post("/v1/chiplet", CHIPLET_BODY)));
        let warm = body_str(&handle(&state, &post("/v1/chiplet", CHIPLET_BODY)));
        // Same bytes modulo the per-request id.
        assert_eq!(
            cold.replacen("\"req_id\":\"r1\",", "", 1),
            warm.replacen("\"req_id\":\"r2\",", "", 1)
        );
        let stats = state.chiplet_cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // The cache hit replays the full Eq.-C provenance stream: both
        // captures carry the same chiplet-equation records.
        for req in ["r1", "r2"] {
            let capture = body_str(&handle(&state, &get(&format!("/v1/trace/{req}"))));
            for eq in ["Eq.C1", "Eq.C2", "Eq.C3", "Eq.C4", "Eq.C5"] {
                assert!(
                    capture.contains(&format!("\"equation\":\"{eq}\"")),
                    "{req} capture is missing {eq}: {capture}"
                );
            }
            for line in capture.lines() {
                assert!(
                    line.contains(&format!("\"req_id\":\"{req}\"")),
                    "untagged capture record: {line}"
                );
            }
        }
    }

    #[test]
    fn chiplet_endpoint_validates_its_inputs() {
        let state = ServerState::new();
        // Missing field.
        let r = handle(
            &state,
            &post("/v1/chiplet", r#"{"lambda_um":0.07,"sd":300,"transistors":4e8,"units":1}"#),
        );
        assert_eq!(r.status, 400, "{}", body_str(&r));
        // Fractional / non-positive counts.
        for bad in ["0", "2.5", "-3"] {
            let body = format!(
                r#"{{"lambda_um":0.07,"sd":300,"transistors":4e8,"units":1000,"chiplets":{bad}}}"#
            );
            assert_eq!(handle(&state, &post("/v1/chiplet", &body)).status, 400, "chiplets={bad}");
        }
        // Unknown assembly technology.
        let body = CHIPLET_BODY.replace('}', r#","assembly":"fanout"}"#);
        assert_eq!(handle(&state, &post("/v1/chiplet", &body)).status, 400);
        // Non-finite model input is a domain violation, not a panic.
        let body = CHIPLET_BODY.replace("\"sd\":300", "\"sd\":1e400");
        assert_eq!(handle(&state, &post("/v1/chiplet", &body)).status, 422);
        // So are finite inputs whose eq.-2 area overflows, and a die too
        // large for the wafer.
        for body in [
            r#"{"lambda_um":0.07,"sd":1e300,"transistors":1e300,"units":1000,"chiplets":4}"#,
            r#"{"lambda_um":0.07,"sd":300,"transistors":1e12,"units":1000,"chiplets":4}"#,
        ] {
            let r = handle(&state, &post("/v1/chiplet", body));
            assert_eq!(r.status, 422, "{body}: {}", body_str(&r));
        }
        // More distinct designs than chiplets is a 422 from validate().
        let body = CHIPLET_BODY.replace("\"chiplets\":4", "\"chiplets\":2,\"distinct_designs\":3");
        assert_eq!(handle(&state, &post("/v1/chiplet", &body)).status, 422);
    }

    #[test]
    fn metrics_expose_the_chiplet_cache() {
        let state = ServerState::new();
        assert_eq!(handle(&state, &post("/v1/chiplet", CHIPLET_BODY)).status, 200);
        assert_eq!(handle(&state, &post("/v1/chiplet", CHIPLET_BODY)).status, 200);
        let body = body_str(&handle(&state, &get("/v1/metrics")));
        json::parse(&body).expect("valid JSON");
        assert!(body.contains("\"chiplet_cache\":{\"hits\":1,\"misses\":1"), "{body}");
        assert!(body.contains("\"chiplet\":{\"count\":2"), "{body}");
    }

    #[test]
    fn health_reports_ok_on_an_idle_server() {
        let state = ServerState::new();
        let r = handle(&state, &get("/v1/health"));
        assert_eq!(r.status, 200, "{}", body_str(&r));
        let body = body_str(&r);
        json::parse(&body).expect("valid JSON");
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"name\":\"latency\""), "{body}");
        assert_eq!(handle(&state, &post("/v1/health", "{}")).status, 405);
    }

    #[test]
    fn raw_metrics_endpoint_serves_mergeable_state() {
        let state = ServerState::new();
        assert_eq!(handle(&state, &post("/v1/cost", COST_BODY)).status, 200);
        assert_eq!(handle(&state, &post("/v1/cost", COST_BODY)).status, 200);
        let r = handle(&state, &get("/v1/metrics/raw"));
        assert_eq!(r.status, 200, "{}", body_str(&r));
        let body = body_str(&r);
        json::parse(&body).expect("valid JSON");
        let snap =
            nanocost_sentinel::RawSnapshot::parse(&body).expect("federation parser accepts it");
        assert_eq!(snap.counters.get("requests_total"), Some(&2));
        assert_eq!(
            snap.endpoints.get("cost").map(nanocost_sentinel::LogHistogram::count),
            Some(2)
        );
        assert_eq!(handle(&state, &post("/v1/metrics/raw", "{}")).status, 405);
    }

    #[test]
    fn successful_requests_leave_a_p99_exemplar() {
        let state = ServerState::new();
        assert_eq!(handle(&state, &post("/v1/cost", COST_BODY)).status, 200);
        assert_eq!(handle(&state, &post("/v1/cost", COST_BODY)).status, 200);
        let metrics = body_str(&handle(&state, &get("/v1/metrics")));
        let marker = "\"p99_exemplar\":{\"req_id\":\"";
        let at = metrics.find(marker).expect("exemplar in metrics");
        let rest = &metrics[at + marker.len()..];
        let req_id = &rest[..rest.find('"').expect("closing quote")];
        // The exemplar's request id round-trips to a fetchable trace.
        let r = handle(&state, &get(&format!("/v1/trace/{req_id}")));
        assert_eq!(r.status, 200, "exemplar {req_id} has no stored trace");
    }

    #[test]
    fn metrics_track_endpoint_latencies() {
        let state = ServerState::new();
        assert_eq!(handle(&state, &post("/v1/cost", COST_BODY)).status, 200);
        assert_eq!(handle(&state, &post("/v1/cost", COST_BODY)).status, 200);
        let r = handle(&state, &get("/v1/metrics"));
        assert_eq!(r.status, 200);
        let body = body_str(&r);
        json::parse(&body).expect("valid JSON");
        assert!(body.contains("\"cost\":{\"count\":2"), "{body}");
        assert!(body.contains("\"hit_rate\":"), "{body}");
    }

    #[test]
    fn non_finite_mask_cost_is_a_422_not_a_panic() {
        // JSON `1e400` saturates to +inf under f64 parse and RFC 8259's
        // grammar admits it; it must surface as a domain error — a
        // panic here would kill a worker thread for good.
        let state = ServerState::new();
        for mask in ["1e400", "-1e400"] {
            let body = format!(
                r#"{{"lambda_um":0.18,"sd":300,"transistors":1e7,"volume":5000,"fab_yield":0.4,"mask_cost":{mask}}}"#
            );
            let r = handle(&state, &post("/v1/cost", &body));
            assert_eq!(r.status, 422, "{}", body_str(&r));
            let batch = format!("{{\"queries\":[{body}]}}");
            let r = handle(&state, &post("/v1/batch", &batch));
            assert_eq!(r.status, 422, "{}", body_str(&r));
            let opt = format!(
                r#"{{"lambda_um":0.18,"transistors":1e7,"volume":5000,"fab_yield":0.4,"mask_cost":{mask}}}"#
            );
            let r = handle(&state, &post("/v1/optimum", &opt));
            assert_eq!(r.status, 422, "{}", body_str(&r));
        }
    }

    #[test]
    fn profile_endpoint_serves_a_report_and_validates_the_window() {
        let state = ServerState::new();
        let r = handle(&state, &get("/v1/profile"));
        assert_eq!(r.status, 200, "{}", body_str(&r));
        let body = body_str(&r);
        json::parse(&body).expect("valid JSON");
        assert!(body.contains("\"samples\":0"), "idle server has an empty report: {body}");
        // A ring sample within the window shows up in the report.
        let snap = nanocost_trace::stack_registry::StackSnapshot {
            thread: 1,
            frames: vec!["serve.request", "serve.endpoint.cost"],
            depth: 2,
            req_id: Some("r1".into()),
        };
        state.profile_ring().push_batch(&[snap], nanocost_trace::epoch_nanos());
        let body = body_str(&handle(&state, &get("/v1/profile?window_s=3600")));
        assert!(body.contains("\"samples\":1"), "{body}");
        assert!(body.contains("serve.endpoint.cost"), "{body}");
        // Window validation.
        assert_eq!(handle(&state, &get("/v1/profile?window_s=0")).status, 400);
        assert_eq!(handle(&state, &get("/v1/profile?window_s=abc")).status, 400);
        assert_eq!(handle(&state, &get("/v1/profile?bogus=1")).status, 400);
        assert_eq!(handle(&state, &post("/v1/profile", "{}")).status, 405);
        assert_eq!(handle(&state, &post("/v1/profile?window_s=5", "{}")).status, 405);
    }

    #[test]
    fn evicted_traces_answer_410_with_machine_readable_context() {
        let state = ServerState::with_config(crate::state::ServerStateConfig {
            trace_ring: 1,
            ..Default::default()
        })
        .expect("valid config");
        let r = handle(&state, &post("/v1/cost", COST_BODY));
        assert_eq!(r.status, 200);
        let r = handle(&state, &post("/v1/cost", COST_BODY));
        assert_eq!(r.status, 200);
        // r1's capture was evicted by r2's: gone, not unknown.
        let r = handle(&state, &get("/v1/trace/r1"));
        assert_eq!(r.status, 410, "{}", body_str(&r));
        let body = body_str(&r);
        assert!(body.contains("\"context\":\"serve.trace_ring.evicted\""), "{body}");
        assert!(body.contains("\"req_id\":\"r1\""), "{body}");
        assert_eq!(handle(&state, &get("/v1/trace/r2")).status, 200);
        assert_eq!(handle(&state, &get("/v1/trace/r999")).status, 404, "never issued");
    }

    #[test]
    fn malformed_and_misrouted_requests_get_clean_errors() {
        let state = ServerState::new();
        assert_eq!(handle(&state, &post("/v1/cost", "not json")).status, 400);
        assert_eq!(handle(&state, &post("/v1/cost", "{}")).status, 400);
        // sd below s_d0 is an eq.-6 domain violation, not a 500.
        let r = handle(
            &state,
            &post(
                "/v1/cost",
                r#"{"lambda_um":0.18,"sd":50,"transistors":1e7,"volume":5000,"fab_yield":0.4}"#,
            ),
        );
        assert_eq!(r.status, 422, "{}", body_str(&r));
        assert_eq!(handle(&state, &get("/v1/cost")).status, 405);
        assert_eq!(handle(&state, &post("/v1/metrics", "{}")).status, 405);
        assert_eq!(handle(&state, &get("/nope")).status, 404);
    }
}
