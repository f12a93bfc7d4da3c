//! Parses a `NANOCOST_TRACE` JSONL capture once into its span
//! intervals and time range.
//!
//! [`TimelineCapture::parse`] reconstructs the span intervals, keyed by
//! span id, from a JSONL capture — the one span reconstruction behind
//! every `trace_profile` span view ([`crate::profile::Profile`]
//! computes span time from it). [`WindowSpec`] implements the
//! `--since`/`--until` algebra (ns offsets or percentages, resolved to
//! a half-open `[since, until)` window).

use std::collections::BTreeMap;

use crate::json::{self, JsonValue};
use crate::{schema, SentinelError};

/// One span's time interval, reconstructed from its enter/exit records.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanInterval {
    /// Process-unique span id.
    pub span: u64,
    /// Enclosing span id, if any.
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Entry time, nanoseconds since the trace epoch (the enter
    /// record's `ts_us` scaled up).
    pub start_ns: u64,
    /// Exclusive end time (`start_ns + elapsed_ns`); `None` while the
    /// span never closed in the capture.
    pub end_ns: Option<u64>,
}

/// A capture's timeline view: span intervals and the observed time
/// range.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimelineCapture {
    /// All span intervals, keyed by span id (a re-used id keeps its
    /// latest enter).
    pub spans: BTreeMap<u64, SpanInterval>,
    /// Exit records with no matching enter (truncated capture head).
    pub orphan_exits: usize,
    /// Earliest timestamp seen across all records (ns).
    pub t_min_ns: u64,
    /// Latest timestamp seen across all records (ns).
    pub t_max_ns: u64,
}

impl TimelineCapture {
    /// Parses a JSONL capture into its timeline view. Lines that are
    /// not span records still contribute to the time range.
    ///
    /// # Errors
    ///
    /// [`SentinelError::Parse`] on malformed JSON,
    /// [`SentinelError::Schema`] when a span record lacks its keys.
    pub fn parse(text: &str) -> Result<TimelineCapture, SentinelError> {
        let mut cap = TimelineCapture::default();
        let mut t_min = u64::MAX;
        let mut t_max = 0u64;
        for (i, line) in text.lines().enumerate() {
            let lineno = i + 1;
            if line.trim().is_empty() {
                continue;
            }
            let v =
                json::parse(line).map_err(|error| SentinelError::Parse { line: lineno, error })?;
            let ts_ns = v
                .get("ts_us")
                .and_then(JsonValue::as_u64)
                .map(|us| us.saturating_mul(1_000));
            if let Some(t) = ts_ns {
                t_min = t_min.min(t);
                t_max = t_max.max(t);
            }
            match v.get("type").and_then(JsonValue::as_str) {
                Some("span_enter") => {
                    let span = v
                        .get("span")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| schema(lineno, "span_enter missing `span`"))?;
                    let name = v
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| schema(lineno, "span_enter missing `name`"))?
                        .to_string();
                    let parent = v.get("parent").and_then(JsonValue::as_u64);
                    let start_ns = ts_ns.unwrap_or(0);
                    cap.spans.insert(
                        span,
                        SpanInterval { span, parent, name, start_ns, end_ns: None },
                    );
                }
                Some("span_exit") => {
                    let span = v
                        .get("span")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| schema(lineno, "span_exit missing `span`"))?;
                    let elapsed = v
                        .get("elapsed_ns")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| schema(lineno, "span_exit missing `elapsed_ns`"))?;
                    match cap.spans.get_mut(&span) {
                        Some(interval) => {
                            let end = interval.start_ns.saturating_add(elapsed);
                            interval.end_ns = Some(end);
                            t_min = t_min.min(interval.start_ns);
                            t_max = t_max.max(end);
                        }
                        None => cap.orphan_exits += 1,
                    }
                }
                _ => {}
            }
        }
        if t_min == u64::MAX {
            t_min = 0;
        }
        cap.t_min_ns = t_min;
        cap.t_max_ns = t_max.max(t_min);
        Ok(cap)
    }

    /// The `;`-joined ancestor path of span `id`, root first.
    #[must_use]
    pub fn stack_path(&self, mut id: u64) -> String {
        let mut names: Vec<&str> = Vec::new();
        // Bounded walk guards against a corrupt capture with a parent
        // cycle; real traces are trees.
        for _ in 0..1024 {
            let Some(node) = self.spans.get(&id) else { break };
            names.push(&node.name);
            match node.parent {
                Some(p) => id = p,
                None => break,
            }
        }
        names.reverse();
        names.join(";")
    }
}

// ---------------------------------------------------------------------
// Window algebra
// ---------------------------------------------------------------------

/// One endpoint of a `--since`/`--until` window: an absolute offset in
/// nanoseconds from the capture's first timestamp, or a percentage of
/// its duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowSpec {
    /// Nanosecond offset from the capture start.
    Ns(u64),
    /// Percentage (0–100) of the capture duration.
    Percent(f64),
}

impl WindowSpec {
    /// Parses `"123456"` (ns) or `"50%"`. Percentages outside 0–100 and
    /// non-numeric input are rejected.
    #[must_use]
    pub fn parse(s: &str) -> Option<WindowSpec> {
        let s = s.trim();
        if let Some(p) = s.strip_suffix('%') {
            let pct = p.trim().parse::<f64>().ok()?;
            if pct.is_finite() && (0.0..=100.0).contains(&pct) {
                return Some(WindowSpec::Percent(pct));
            }
            return None;
        }
        s.parse::<u64>().ok().map(WindowSpec::Ns)
    }

    /// Resolves this endpoint to an absolute time given the capture's
    /// range. Percentages scale over `duration + 1` so `0%` is the
    /// first instant and `100%` lies just past the last — a window of
    /// `--since 0% --until 100%` covers every record.
    #[must_use]
    pub fn resolve(&self, t_min_ns: u64, t_max_ns: u64) -> u64 {
        match self {
            WindowSpec::Ns(off) => t_min_ns.saturating_add(*off),
            WindowSpec::Percent(pct) => {
                let duration_plus = (t_max_ns.saturating_sub(t_min_ns)).saturating_add(1);
                let off = (duration_plus as f64 * pct / 100.0).floor();
                t_min_ns.saturating_add(off as u64)
            }
        }
    }
}

/// Resolves a `--since`/`--until` pair to the half-open window
/// `[since, until)`. Missing endpoints default to the full capture
/// (`since = t_min`, `until = t_max + 1`). `since >= until` yields an
/// empty window, never a panic.
#[must_use]
pub fn resolve_window(
    since: Option<WindowSpec>,
    until: Option<WindowSpec>,
    t_min_ns: u64,
    t_max_ns: u64,
) -> (u64, u64) {
    let lo = since.map_or(t_min_ns, |s| s.resolve(t_min_ns, t_max_ns));
    let hi = until.map_or_else(
        || t_max_ns.saturating_add(1),
        |u| u.resolve(t_min_ns, t_max_ns),
    );
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event_line(ts_us: u64) -> String {
        format!(
            "{{\"ts_us\":{ts_us},\"thread\":1,\"type\":\"event\",\"span\":null,\
             \"name\":\"e\",\"fields\":{{}}}}"
        )
    }

    fn span_enter(span: u64, parent: Option<u64>, name: &str, ts_us: u64) -> String {
        let parent = parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        format!(
            "{{\"ts_us\":{ts_us},\"thread\":1,\"type\":\"span_enter\",\"span\":{span},\
             \"parent\":{parent},\"name\":\"{name}\",\"fields\":{{}}}}"
        )
    }

    fn span_exit(span: u64, name: &str, ts_us: u64, elapsed_ns: u64) -> String {
        format!(
            "{{\"ts_us\":{ts_us},\"thread\":1,\"type\":\"span_exit\",\"span\":{span},\
             \"name\":\"{name}\",\"elapsed_ns\":{elapsed_ns}}}"
        )
    }

    fn capture() -> String {
        // Span 1 "run" covers [1_000, 101_000) ns; child span 2 "inner"
        // covers [2_000, 52_000). An event at 200 us, outside any span,
        // still extends the capture's range.
        [
            span_enter(1, None, "run", 1),
            span_enter(2, Some(1), "inner", 2),
            span_exit(2, "inner", 52, 50_000),
            span_exit(1, "run", 101, 100_000),
            event_line(200),
        ]
        .join("\n")
    }

    #[test]
    fn parse_reads_spans_and_range() {
        let cap = TimelineCapture::parse(&capture()).expect("parses");
        assert_eq!(cap.spans.len(), 2);
        assert_eq!(cap.t_min_ns, 1_000);
        assert_eq!(cap.t_max_ns, 200_000);
        assert_eq!(cap.spans[&1].end_ns, Some(101_000));
        assert_eq!(cap.orphan_exits, 0);
    }

    #[test]
    fn window_spec_parses_ns_and_percent() {
        assert_eq!(WindowSpec::parse("1234"), Some(WindowSpec::Ns(1234)));
        assert_eq!(WindowSpec::parse("50%"), Some(WindowSpec::Percent(50.0)));
        assert_eq!(WindowSpec::parse("0%"), Some(WindowSpec::Percent(0.0)));
        assert_eq!(WindowSpec::parse("101%"), None);
        assert_eq!(WindowSpec::parse("-3"), None);
        assert_eq!(WindowSpec::parse("x"), None);
    }

    #[test]
    fn window_algebra_full_half_empty() {
        let (t0, t1) = (1_000u64, 201_000u64);
        // Full: no endpoints.
        let full = resolve_window(None, None, t0, t1);
        assert_eq!(full, (1_000, 201_001));
        // 0%..100% is also the full window.
        let pct = resolve_window(
            Some(WindowSpec::Percent(0.0)),
            Some(WindowSpec::Percent(100.0)),
            t0,
            t1,
        );
        assert_eq!(pct, (1_000, 201_001));
        // Half-open: until is exclusive.
        let half = resolve_window(None, Some(WindowSpec::Ns(100_000)), t0, t1);
        assert_eq!(half, (1_000, 101_000));
        // since >= until: an empty window, not a panic.
        let empty = resolve_window(
            Some(WindowSpec::Ns(200_000)),
            Some(WindowSpec::Ns(100_000)),
            t0,
            t1,
        );
        assert_eq!(empty, (201_000, 101_000));
    }
}
