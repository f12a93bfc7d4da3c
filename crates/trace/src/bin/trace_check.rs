//! `trace-check` — validates a `nanocost-trace` JSONL stream.
//!
//! The CI observability smoke gate runs a bench bin under
//! `NANOCOST_TRACE=jsonl` and pipes the capture here. The check fails
//! if the file is empty, any line is not well-formed JSON, any record
//! lacks its `ts_us`/`thread` envelope, timestamps run backwards
//! within a thread, a span exits before it enters, or the stream
//! carries no provenance record naming a known equation id (the
//! paper's `Eq.1`–`Eq.7` or the chiplet extension's `Eq.C1`–`Eq.C5`;
//! anything else is rejected).
//!
//! Timestamp monotonicity is checked per thread: records must have
//! non-decreasing `ts_us` in file order.
//!
//! Schema 2 adds request attribution: a record may carry a `req_id`
//! envelope key (a non-empty string). A `span_enter` carrying `req_id`
//! opens a request scope on its thread; every other record is only
//! allowed to carry `req_id` while such a scope is open, must match the
//! innermost scope's id, and — conversely — must carry it while one is
//! open.
//!
//! Fleet captures may also tag records with a `replica` envelope key —
//! the emitting process's fleet label (`NANOCOST_REPLICA`). When
//! present it must be a non-empty string, and it must be stable per
//! request: every record sharing a `req_id` carries the same replica
//! tag, because the label is process-wide and a drifting tag means
//! streams from different replicas were stitched together under one
//! request id.
//!
//! `stack_sample` records (the in-process profiler) are validated for
//! envelope, a non-empty `frames` array of non-empty strings, a
//! `depth` no smaller than the frame count, and per-thread `t_ns`
//! monotonicity on their own watermark — the sampler thread emits them
//! concurrently with the sampled thread's live records, so they join
//! neither the `ts_us` watermark nor the scope rule.
//!
//! Usage: `trace-check [--summary] <file.jsonl>`
//!
//! With `--summary`, also prints a per-record-type breakdown, the
//! provenance count per equation id, and — for fleet captures — the
//! distinct replica count.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary's console is its interface, and it may abort on a fatal error"
)]

use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;
use std::fmt;

use nanocost_sentinel::json::{self, JsonValue};

/// A failed check; `Display` carries the full diagnostic.
#[derive(Debug)]
struct CheckError(String);

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for CheckError {}

fn main() -> Result<(), Box<dyn Error>> {
    let mut summary = false;
    let mut path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--summary" => summary = true,
            other if other.starts_with('-') => {
                return Err(Box::new(CheckError(format!(
                    "unknown flag `{other}`\nusage: trace-check [--summary] <file.jsonl>"
                ))));
            }
            other => path = Some(other.to_string()),
        }
    }
    let Some(path) = path else {
        return Err(Box::new(CheckError(
            "usage: trace-check [--summary] <file.jsonl>".to_string(),
        )));
    };
    let text = std::fs::read_to_string(&path)
        .map_err(|e| CheckError(format!("cannot read {path}: {e}")))?;
    let stats = check(&text).map_err(|e| CheckError(format!("{path}: {e}")))?;
    println!("trace-check: {path}: {}", stats.one_line());
    if summary {
        print!("{}", stats.summary());
    }
    Ok(())
}

/// What one pass over a capture counted.
#[derive(Debug, Default, PartialEq, Eq)]
struct Stats {
    lines: usize,
    by_type: BTreeMap<String, usize>,
    provenance_by_equation: BTreeMap<String, usize>,
    /// Spans still open at end of capture (truncation, not an error).
    unclosed_spans: usize,
    /// Records carrying a `req_id` envelope key.
    request_records: usize,
    /// Distinct request ids that opened a scope.
    requests: BTreeSet<String>,
    /// Distinct replica labels seen on `replica` envelope keys.
    replicas: BTreeSet<String>,
    /// Profiler `stack_sample` records seen.
    stack_samples: usize,
    /// Distinct threads the profiler sampled.
    stack_threads: BTreeSet<u64>,
}

impl Stats {
    fn provenance(&self) -> usize {
        self.provenance_by_equation.values().sum()
    }

    /// Provenance records carrying a chiplet (`Eq.C*`) equation id.
    fn chiplet_provenance(&self) -> usize {
        self.provenance_by_equation
            .iter()
            .filter(|(eq, _)| CHIPLET_EQUATIONS.contains(&eq.as_str()))
            .map(|(_, n)| n)
            .sum()
    }

    fn one_line(&self) -> String {
        format!(
            "{} records, {} provenance records, all valid, timestamps monotone",
            self.lines,
            self.provenance()
        )
    }

    /// The `--summary` breakdown: records per type, provenance per
    /// equation id.
    fn summary(&self) -> String {
        let mut out = String::from("record types:\n");
        for (ty, n) in &self.by_type {
            out.push_str(&format!("  {ty:<12} {n}\n"));
        }
        out.push_str("provenance by equation:\n");
        for (eq, n) in &self.provenance_by_equation {
            let family = if CHIPLET_EQUATIONS.contains(&eq.as_str()) {
                " (chiplet)"
            } else {
                ""
            };
            out.push_str(&format!("  {eq:<12} {n}{family}\n"));
        }
        let chiplet = self.chiplet_provenance();
        if chiplet > 0 {
            out.push_str(&format!(
                "  paper: {} records, chiplet: {chiplet} records\n",
                self.provenance() - chiplet
            ));
        }
        if self.unclosed_spans > 0 {
            out.push_str(&format!("unclosed spans: {}\n", self.unclosed_spans));
        }
        if !self.requests.is_empty() {
            out.push_str(&format!(
                "request-scoped records: {} across {} requests\n",
                self.request_records,
                self.requests.len()
            ));
        }
        if !self.replicas.is_empty() {
            out.push_str(&format!("replicas: {}\n", self.replicas.len()));
        }
        if self.stack_samples > 0 {
            out.push_str(&format!(
                "stack samples: {} across {} threads\n",
                self.stack_samples,
                self.stack_threads.len()
            ));
        }
        out
    }
}

/// The paper's numbered equation ids a provenance record may carry.
const PAPER_EQUATIONS: [&str; 7] = ["Eq.1", "Eq.2", "Eq.3", "Eq.4", "Eq.5", "Eq.6", "Eq.7"];

/// The chiplet-extension equation ids (`nanocost-chiplet`'s SiP cost
/// chain). Counted in the same per-equation table as the paper's, but
/// subtotaled as their own family in the `--summary` output.
const CHIPLET_EQUATIONS: [&str; 5] = ["Eq.C1", "Eq.C2", "Eq.C3", "Eq.C4", "Eq.C5"];

/// `stack_sample` records are emitted by the profiler thread on the
/// sampled thread's behalf. They interleave with the live stream at
/// arbitrary file positions, so they are exempt from the request-scope
/// rule and keep their own per-thread `t_ns` watermark instead of
/// joining the `ts_us` one.
fn is_sampled(ty: &str) -> bool {
    ty == "stack_sample"
}

/// Validates the capture and gathers per-type/per-equation counts.
/// Ordering errors carry the 1-based line number.
fn check(text: &str) -> Result<Stats, String> {
    let mut stats = Stats::default();
    // Per-thread high-water marks: one for the live record stream
    // (ts_us in file order), one for the profiler's stack samples (t_ns).
    let mut ts_watermark: BTreeMap<u64, u64> = BTreeMap::new();
    let mut stack_watermark: BTreeMap<u64, u64> = BTreeMap::new();
    let mut open_spans: BTreeSet<u64> = BTreeSet::new();
    // Per-thread stack of open request scopes: (opening span, req_id).
    // A scope opens at a `span_enter` carrying `req_id` and closes at
    // the matching `span_exit`. Left open at EOF = truncation, not an
    // error (mirrors unclosed spans).
    let mut req_scopes: BTreeMap<u64, Vec<(u64, String)>> = BTreeMap::new();
    // Per-request replica tag (None = first record was untagged). The
    // replica label is process-wide, so every record of one request must
    // agree on it; drift means stitched streams from different replicas.
    let mut replica_by_req: BTreeMap<String, Option<String>> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        stats.lines += 1;
        let v = json::parse(line).map_err(|e| format!("line {lineno}: not valid JSON: {e}"))?;
        let ts_us = v
            .get("ts_us")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("line {lineno}: record missing `ts_us`"))?;
        let thread = v
            .get("thread")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("line {lineno}: record missing `thread`"))?;
        let ty = v
            .get("type")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("line {lineno}: record missing `type`"))?
            .to_string();
        // Schema 2: `req_id`, when present, must be a non-empty string.
        let req_id = match v.get("req_id") {
            None => None,
            Some(JsonValue::Str(s)) if !s.is_empty() => Some(s.clone()),
            Some(JsonValue::Str(_)) => {
                return Err(format!("line {lineno}: `req_id` is an empty string"));
            }
            Some(_) => {
                return Err(format!("line {lineno}: `req_id` is not a string"));
            }
        };
        // Fleet captures: `replica`, when present, must be a non-empty
        // string, and must be stable across all records of a request.
        let replica = match v.get("replica") {
            None => None,
            Some(JsonValue::Str(s)) if !s.is_empty() => Some(s.clone()),
            Some(JsonValue::Str(_)) => {
                return Err(format!("line {lineno}: `replica` is an empty string"));
            }
            Some(_) => {
                return Err(format!("line {lineno}: `replica` is not a string"));
            }
        };
        if let Some(label) = &replica {
            stats.replicas.insert(label.clone());
        }
        if let Some(id) = &req_id {
            match replica_by_req.get(id) {
                None => {
                    replica_by_req.insert(id.clone(), replica.clone());
                }
                Some(prev) if *prev == replica => {}
                Some(prev) => {
                    return Err(format!(
                        "line {lineno}: req_id `{id}` carries replica tag `{now}` but \
                         this request's earlier records carry `{prev}`",
                        now = replica.as_deref().unwrap_or("<untagged>"),
                        prev = prev.as_deref().unwrap_or("<untagged>"),
                    ));
                }
            }
        }
        if let Some(id) = &req_id {
            stats.request_records += 1;
            // Scope rule: outside a `span_enter` (which may open a new
            // scope) and the exempt stack samples, a tagged record
            // must sit inside an open scope with the same id.
            if ty != "span_enter" && !is_sampled(&ty) {
                match req_scopes.get(&thread).and_then(|s| s.last()) {
                    Some((_, top)) if top == id => {}
                    Some((_, top)) => {
                        return Err(format!(
                            "line {lineno}: req_id `{id}` does not match the open \
                             request scope `{top}` on thread {thread}"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "line {lineno}: req_id `{id}` outside any request scope \
                             on thread {thread}"
                        ));
                    }
                }
            }
        } else if !is_sampled(&ty) {
            // The converse: inside an open scope, the capture tee tags
            // every record — an untagged one means the stream was
            // stitched together from different requests.
            if let Some((_, top)) = req_scopes.get(&thread).and_then(|s| s.last()) {
                return Err(format!(
                    "line {lineno}: record missing `req_id` inside open request \
                     scope `{top}` on thread {thread}"
                ));
            }
        }
        match ty.as_str() {
            "stack_sample" => {
                check_stack_sample(&v, lineno, thread, &mut stats)?;
                // The sampler ticks monotonically, so each thread's
                // stack samples are monotone on the sampler's clock.
                let t_ns = v.get("t_ns").and_then(JsonValue::as_u64).unwrap_or(0);
                let mark = stack_watermark.entry(thread).or_insert(0);
                if t_ns < *mark {
                    return Err(format!(
                        "line {lineno}: stack_sample timestamp runs backwards on \
                         thread {thread} ({t_ns} ns after {} ns)",
                        *mark
                    ));
                }
                *mark = t_ns;
            }
            _ => {
                let mark = ts_watermark.entry(thread).or_insert(0);
                if ts_us < *mark {
                    return Err(format!(
                        "line {lineno}: timestamp runs backwards on thread \
                         {thread} ({ts_us} us after {} us)",
                        *mark
                    ));
                }
                *mark = ts_us;
            }
        }
        match ty.as_str() {
            "span_enter" => {
                let span = v
                    .get("span")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("line {lineno}: span_enter missing `span`"))?;
                open_spans.insert(span);
                if let Some(id) = &req_id {
                    let stack = req_scopes.entry(thread).or_default();
                    match stack.last() {
                        // An inner span of the already-open request.
                        Some((_, top)) if top == id => {}
                        // A new (possibly nested) request scope opens.
                        _ => {
                            stats.requests.insert(id.clone());
                            stack.push((span, id.clone()));
                        }
                    }
                }
            }
            "span_exit" => {
                let span = v
                    .get("span")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| format!("line {lineno}: span_exit missing `span`"))?;
                if !open_spans.remove(&span) {
                    return Err(format!(
                        "line {lineno}: span {span} exits before it enters"
                    ));
                }
                if let Some(stack) = req_scopes.get_mut(&thread) {
                    if stack.last().is_some_and(|(opener, _)| *opener == span) {
                        stack.pop();
                    }
                }
            }
            "provenance" => {
                let Some(eq) = v
                    .get("equation")
                    .and_then(JsonValue::as_str)
                    .filter(|e| e.starts_with("Eq."))
                else {
                    return Err(format!(
                        "line {lineno}: provenance record without a paper equation id"
                    ));
                };
                if !PAPER_EQUATIONS.contains(&eq) && !CHIPLET_EQUATIONS.contains(&eq) {
                    return Err(format!(
                        "line {lineno}: unknown equation id `{eq}` (not a paper Eq.1-7 \
                         or chiplet Eq.C1-C5 id)"
                    ));
                }
                *stats.provenance_by_equation.entry(eq.to_string()).or_insert(0) += 1;
            }
            _ => {}
        }
        *stats.by_type.entry(ty).or_insert(0) += 1;
    }
    stats.unclosed_spans = open_spans.len();
    if stats.lines == 0 {
        return Err("empty trace (no JSONL records)".to_string());
    }
    if stats.provenance() == 0 {
        return Err("no provenance records in the trace".to_string());
    }
    Ok(stats)
}

/// Validates one `stack_sample` record's payload keys.
fn check_stack_sample(
    v: &JsonValue,
    lineno: usize,
    thread: u64,
    stats: &mut Stats,
) -> Result<(), String> {
    let Some(JsonValue::Arr(frames)) = v.get("frames") else {
        return Err(format!("line {lineno}: stack_sample missing `frames` array"));
    };
    if frames.is_empty() {
        return Err(format!("line {lineno}: stack_sample has an empty `frames` array"));
    }
    for frame in frames {
        match frame {
            JsonValue::Str(s) if !s.is_empty() => {}
            _ => {
                return Err(format!(
                    "line {lineno}: stack_sample frame is not a non-empty string"
                ));
            }
        }
    }
    let depth = v
        .get("depth")
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| format!("line {lineno}: stack_sample missing `depth`"))?;
    if (depth as usize) < frames.len() {
        return Err(format!(
            "line {lineno}: stack_sample depth {depth} is smaller than its {} frames",
            frames.len()
        ));
    }
    if v.get("t_ns").and_then(JsonValue::as_u64).is_none() {
        return Err(format!("line {lineno}: stack_sample missing `t_ns`"));
    }
    stats.stack_samples += 1;
    stats.stack_threads.insert(thread);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::check;

    fn prov(ts_us: u64, thread: u64, eq: &str) -> String {
        format!(
            "{{\"ts_us\":{ts_us},\"thread\":{thread},\"type\":\"provenance\",\"span\":null,\
             \"equation\":\"{eq}\",\"function\":\"f\",\"inputs\":{{}},\"outputs\":{{}}}}"
        )
    }

    #[test]
    fn accepts_a_valid_capture() {
        let text = concat!(
            "{\"ts_us\":1,\"thread\":1,\"type\":\"span_enter\",\"span\":1,\"parent\":null,\"name\":\"s\",\"fields\":{}}\n",
            "{\"ts_us\":2,\"thread\":1,\"type\":\"provenance\",\"span\":1,\"equation\":\"Eq.4\",\"function\":\"f\",\"inputs\":{},\"outputs\":{}}\n",
            "{\"ts_us\":3,\"thread\":1,\"type\":\"span_exit\",\"span\":1,\"name\":\"s\",\"elapsed_ns\":2000}\n",
        );
        let stats = check(text).expect("valid capture");
        assert_eq!(stats.lines, 3);
        assert_eq!(stats.by_type["span_enter"], 1);
        assert_eq!(stats.provenance_by_equation["Eq.4"], 1);
        assert_eq!(stats.unclosed_spans, 0);
        let summary = stats.summary();
        assert!(summary.contains("Eq.4"), "{summary}");
        assert!(stats.one_line().contains("3 records"), "{}", stats.one_line());
    }

    #[test]
    fn rejects_empty_and_invalid_and_equationless() {
        assert!(check("").is_err());
        assert!(check("{oops\n").is_err());
        let no_eq = "{\"type\":\"provenance\",\"function\":\"f\"}\n";
        assert!(check(no_eq).is_err());
        let no_prov = "{\"type\":\"event\",\"name\":\"x\"}\n";
        assert!(check(no_prov).is_err());
    }

    #[test]
    fn counts_every_equation_separately() {
        let text = format!(
            "{}\n{}\n{}\n",
            prov(1, 1, "Eq.1"),
            prov(1, 1, "Eq.4"),
            prov(2, 1, "Eq.4")
        );
        let stats = check(&text).expect("valid capture");
        assert_eq!(stats.provenance_by_equation["Eq.1"], 1);
        assert_eq!(stats.provenance_by_equation["Eq.4"], 2);
        assert_eq!(stats.provenance(), 3);
    }

    #[test]
    fn counts_chiplet_equations_as_their_own_family() {
        let text = format!(
            "{}\n{}\n{}\n",
            prov(1, 1, "Eq.C1"),
            prov(1, 1, "Eq.C5"),
            prov(2, 1, "Eq.4")
        );
        let stats = check(&text).expect("valid capture");
        assert_eq!(stats.provenance_by_equation["Eq.C1"], 1);
        assert_eq!(stats.provenance_by_equation["Eq.C5"], 1);
        assert_eq!(stats.chiplet_provenance(), 2);
        assert_eq!(stats.provenance(), 3);
        let summary = stats.summary();
        assert!(summary.contains("Eq.C1") && summary.contains("(chiplet)"), "{summary}");
        assert!(summary.contains("paper: 1 records, chiplet: 2 records"), "{summary}");
    }

    #[test]
    fn rejects_an_unknown_equation_id() {
        // An `Eq.`-prefixed but unrecognized id must fail loudly rather
        // than be bucketed into the per-equation table as a new row.
        let err = check(&format!("{}\n", prov(1, 1, "Eq.99"))).unwrap_err();
        assert!(err.contains("unknown equation id"), "{err}");
        assert!(check(&format!("{}\n", prov(1, 1, "Eq.C9"))).is_err());
    }

    #[test]
    fn flags_backwards_timestamps_within_a_thread() {
        // Thread 1 runs backwards; thread 2 interleaving is fine.
        let bad = format!("{}\n{}\n{}\n", prov(5, 1, "Eq.1"), prov(9, 2, "Eq.1"), prov(4, 1, "Eq.1"));
        let err = check(&bad).expect_err("must flag");
        assert!(err.contains("runs backwards"), "{err}");
        assert!(err.contains("line 3"), "{err}");
        // Interleaved threads, each monotone: fine.
        let good =
            format!("{}\n{}\n{}\n{}\n", prov(5, 1, "Eq.1"), prov(1, 2, "Eq.1"), prov(5, 1, "Eq.1"), prov(2, 2, "Eq.1"));
        assert!(check(&good).is_ok());
    }

    #[test]
    fn flags_span_exit_before_enter() {
        let text = concat!(
            "{\"ts_us\":1,\"thread\":1,\"type\":\"provenance\",\"span\":null,\"equation\":\"Eq.1\",\"function\":\"f\",\"inputs\":{},\"outputs\":{}}\n",
            "{\"ts_us\":2,\"thread\":1,\"type\":\"span_exit\",\"span\":7,\"name\":\"s\",\"elapsed_ns\":10}\n",
        );
        let err = check(text).expect_err("must flag");
        assert!(err.contains("exits before it enters"), "{err}");
        // An unclosed span is only counted, not fatal.
        let unclosed = concat!(
            "{\"ts_us\":1,\"thread\":1,\"type\":\"span_enter\",\"span\":1,\"parent\":null,\"name\":\"s\",\"fields\":{}}\n",
            "{\"ts_us\":2,\"thread\":1,\"type\":\"provenance\",\"span\":1,\"equation\":\"Eq.1\",\"function\":\"f\",\"inputs\":{},\"outputs\":{}}\n",
        );
        let stats = check(unclosed).expect("unclosed tolerated");
        assert_eq!(stats.unclosed_spans, 1);
    }

    /// One request-scoped span wrapping a provenance record, as the
    /// query server's `/v1/trace/<id>` capture renders it.
    fn request_capture(id: &str) -> String {
        format!(
            concat!(
                "{{\"ts_us\":1,\"thread\":1,\"req_id\":\"{id}\",\"type\":\"span_enter\",\"span\":1,\"parent\":null,\"name\":\"serve.request\",\"fields\":{{}}}}\n",
                "{{\"ts_us\":2,\"thread\":1,\"req_id\":\"{id}\",\"type\":\"provenance\",\"span\":1,\"equation\":\"Eq.4\",\"function\":\"f\",\"inputs\":{{}},\"outputs\":{{}}}}\n",
                "{{\"ts_us\":3,\"thread\":1,\"req_id\":\"{id}\",\"type\":\"span_exit\",\"span\":1,\"name\":\"serve.request\",\"elapsed_ns\":2000}}\n",
            ),
            id = id
        )
    }

    #[test]
    fn accepts_a_request_scoped_capture() {
        let stats = check(&request_capture("r7")).expect("valid request capture");
        assert_eq!(stats.request_records, 3);
        assert_eq!(stats.requests.len(), 1);
        assert!(stats.summary().contains("across 1 requests"), "{}", stats.summary());
        // Untagged records after the scope closes are fine again.
        let text = format!("{}{}", request_capture("r7"), prov(9, 1, "Eq.1"));
        assert!(check(&text).is_ok());
    }

    #[test]
    fn rejects_req_id_outside_a_request_scope() {
        let stray = format!(
            "{}\n",
            prov(1, 1, "Eq.4").replace("\"thread\":1,", "\"thread\":1,\"req_id\":\"r7\",")
        );
        let err = check(&stray).expect_err("must flag");
        assert!(err.contains("outside any request scope"), "{err}");
    }

    #[test]
    fn rejects_req_id_of_the_wrong_type_or_empty() {
        let bad_type = request_capture("r7").replace("\"req_id\":\"r7\"", "\"req_id\":7");
        assert!(check(&bad_type).expect_err("type").contains("not a string"));
        let empty = request_capture("r7").replace("\"req_id\":\"r7\"", "\"req_id\":\"\"");
        assert!(check(&empty).expect_err("empty").contains("empty string"));
    }

    #[test]
    fn rejects_mismatched_and_missing_req_id_inside_a_scope() {
        // Line 2 claims a different request than the open scope.
        let mismatch = request_capture("r7").replacen("\"req_id\":\"r7\",\"type\":\"provenance\"", "\"req_id\":\"r8\",\"type\":\"provenance\"", 1);
        let err = check(&mismatch).expect_err("must flag");
        assert!(err.contains("does not match the open request scope"), "{err}");
        // Line 2 lost its tag: a stitched-together stream.
        let missing = request_capture("r7").replacen("\"req_id\":\"r7\",\"type\":\"provenance\"", "\"type\":\"provenance\"", 1);
        let err = check(&missing).expect_err("must flag");
        assert!(err.contains("missing `req_id` inside open request scope"), "{err}");
    }

    /// `request_capture` with every record tagged by a fleet replica.
    fn replica_capture(id: &str, replica: &str) -> String {
        request_capture(id).replace(
            &format!("\"req_id\":\"{id}\""),
            &format!("\"req_id\":\"{id}\",\"replica\":\"{replica}\""),
        )
    }

    #[test]
    fn accepts_replica_tagged_captures_and_counts_distinct_replicas() {
        let a = replica_capture("r1", "a");
        // A second replica's stream: distinct thread and span ids, as a
        // federated multi-attach capture interleaves them.
        let b = replica_capture("r2", "b")
            .replace("\"thread\":1", "\"thread\":2")
            .replace("\"span\":1", "\"span\":2");
        let stats = check(&format!("{a}{b}")).expect("valid fleet capture");
        assert_eq!(stats.replicas.len(), 2);
        assert!(stats.summary().contains("replicas: 2"), "{}", stats.summary());
        // A single-replica capture still counts itself.
        let solo = check(&replica_capture("r1", "a")).expect("valid");
        assert!(solo.summary().contains("replicas: 1"), "{}", solo.summary());
        // Unlabeled captures print no replica line at all.
        let unlabeled = check(&request_capture("r1")).expect("valid");
        assert!(!unlabeled.summary().contains("replicas:"), "{}", unlabeled.summary());
    }

    #[test]
    fn rejects_replica_of_the_wrong_type_or_empty() {
        let tagged = replica_capture("r7", "a");
        let bad_type = tagged.replacen("\"replica\":\"a\"", "\"replica\":7", 1);
        assert!(check(&bad_type).expect_err("type").contains("`replica` is not a string"));
        let empty = tagged.replacen("\"replica\":\"a\"", "\"replica\":\"\"", 1);
        assert!(check(&empty).expect_err("empty").contains("`replica` is an empty string"));
    }

    #[test]
    fn rejects_replica_drift_within_a_request() {
        // Line 2 claims a different replica than the request's opener.
        let drift = replica_capture("r7", "a").replacen(
            "\"replica\":\"a\",\"type\":\"provenance\"",
            "\"replica\":\"b\",\"type\":\"provenance\"",
            1,
        );
        let err = check(&drift).expect_err("must flag");
        assert!(err.contains("earlier records carry `a`"), "{err}");
        assert!(err.contains("line 2"), "{err}");
        // Losing the tag mid-request is drift too.
        let lost = replica_capture("r7", "a").replacen(
            "\"replica\":\"a\",\"type\":\"provenance\"",
            "\"type\":\"provenance\"",
            1,
        );
        let err = check(&lost).expect_err("must flag");
        assert!(err.contains("<untagged>"), "{err}");
    }

    fn stack_sample(ts_us: u64, thread: u64, t_ns: u64, frames: &str, depth: u64) -> String {
        format!(
            "{{\"ts_us\":{ts_us},\"thread\":{thread},\"type\":\"stack_sample\",\
             \"depth\":{depth},\"t_ns\":{t_ns},\"frames\":[{frames}]}}"
        )
    }

    #[test]
    fn validates_and_counts_stack_samples() {
        let text = format!(
            "{}\n{}\n{}\n{}\n",
            prov(50, 1, "Eq.2"),
            stack_sample(60, 1, 1_000, "\"serve.request\",\"model.cost\"", 2),
            stack_sample(60, 2, 1_000, "\"serve.request\"", 1),
            stack_sample(61, 1, 2_000, "\"serve.request\"", 1),
        );
        let stats = check(&text).expect("valid");
        assert_eq!(stats.stack_samples, 3);
        assert_eq!(stats.stack_threads.len(), 2);
        assert!(
            stats.summary().contains("stack samples: 3 across 2 threads"),
            "{}",
            stats.summary()
        );
    }

    #[test]
    fn stack_samples_keep_their_own_watermark() {
        // A stack sample whose envelope ts_us is behind the thread's
        // live stream is fine (the sampler stamps its own tick time),
        // but t_ns running backwards within a thread is flagged.
        let interleaved = format!(
            "{}\n{}\n{}\n",
            prov(50, 1, "Eq.2"),
            stack_sample(40, 1, 1_000, "\"serve.request\"", 1),
            prov(55, 1, "Eq.2"),
        );
        assert!(check(&interleaved).is_ok());
        let backwards = format!(
            "{}\n{}\n{}\n",
            prov(50, 1, "Eq.2"),
            stack_sample(60, 1, 5_000, "\"serve.request\"", 1),
            stack_sample(61, 1, 4_000, "\"serve.request\"", 1),
        );
        let err = check(&backwards).expect_err("must flag");
        assert!(err.contains("stack_sample timestamp runs backwards"), "{err}");
    }

    #[test]
    fn rejects_malformed_stack_samples() {
        let no_frames = format!(
            "{}\n{{\"ts_us\":2,\"thread\":1,\"type\":\"stack_sample\",\"depth\":1,\"t_ns\":10}}\n",
            prov(1, 1, "Eq.2")
        );
        assert!(check(&no_frames).expect_err("frames").contains("missing `frames`"));
        let empty = format!("{}\n{}\n", prov(1, 1, "Eq.2"), stack_sample(2, 1, 10, "", 0));
        assert!(check(&empty).expect_err("empty").contains("empty `frames`"));
        let bad_frame = format!("{}\n{}\n", prov(1, 1, "Eq.2"), stack_sample(2, 1, 10, "\"a\",7", 2));
        assert!(check(&bad_frame).expect_err("frame").contains("not a non-empty string"));
        let shallow = format!(
            "{}\n{}\n",
            prov(1, 1, "Eq.2"),
            stack_sample(2, 1, 10, "\"a\",\"b\"", 1)
        );
        assert!(check(&shallow).expect_err("depth").contains("smaller than"));
        let no_t = format!(
            "{}\n{{\"ts_us\":2,\"thread\":1,\"type\":\"stack_sample\",\"depth\":1,\"frames\":[\"a\"]}}\n",
            prov(1, 1, "Eq.2")
        );
        assert!(check(&no_t).expect_err("t_ns").contains("missing `t_ns`"));
    }

    #[test]
    fn stack_samples_are_exempt_from_the_scope_rule() {
        // A profiler sample of a request-scoped thread may land in the
        // file before that thread's span_enter does; it must not be
        // held to the file-order scope rule.
        let text = format!(
            "{}{}\n",
            request_capture("r7"),
            stack_sample(9, 2, 100, "\"serve.request\"", 1)
                .replace("\"thread\":2,", "\"thread\":2,\"req_id\":\"r9\",")
        );
        assert!(check(&text).is_ok());
    }

    #[test]
    fn requires_the_record_envelope() {
        let no_ts = "{\"thread\":1,\"type\":\"event\",\"name\":\"x\",\"fields\":{}}\n";
        assert!(check(no_ts).expect_err("ts").contains("missing `ts_us`"));
        let no_thread = "{\"ts_us\":1,\"type\":\"event\",\"name\":\"x\",\"fields\":{}}\n";
        assert!(check(no_thread).expect_err("thread").contains("missing `thread`"));
    }
}
