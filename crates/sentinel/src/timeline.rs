//! Parses a `NANOCOST_TRACE` JSONL capture once into its samples and
//! span intervals, and answers the windowed metric questions over it.
//!
//! `nanocost-trace` produces timestamped metric samples (one point per
//! counter/gauge/histogram update, written when the trace flushes);
//! this module is the reading side. [`TimelineCapture::parse`]
//! reconstructs the sample stream and the span intervals, keyed by span
//! id, from a JSONL capture — the one span reconstruction behind every
//! `trace_profile` view ([`crate::profile::Profile`] computes span time
//! from it). [`WindowSpec`] implements the `--since`/`--until` algebra
//! (ns offsets or percentages, resolved to a half-open `[since, until)`
//! window); [`metric_summaries`] and [`counter_folded`] power
//! `trace_profile --metrics`.

use std::collections::BTreeMap;

use crate::json::{self, JsonValue};
use crate::{schema, SentinelError};

/// One timeline point read back from a capture.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePoint {
    /// Nanoseconds since the capture's trace epoch.
    pub t_ns: u64,
    /// Originating thread id.
    pub thread: u64,
    /// Metric name.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub metric_kind: String,
    /// Sampled value (`None` when the producer wrote `null` for a
    /// non-finite float).
    pub value: Option<f64>,
}

/// One span's time interval, reconstructed from its enter/exit records.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanInterval {
    /// Process-unique span id.
    pub span: u64,
    /// Enclosing span id, if any.
    pub parent: Option<u64>,
    /// Owning thread.
    pub thread: u64,
    /// Span name.
    pub name: String,
    /// Entry time, nanoseconds since the trace epoch (the enter
    /// record's `ts_us` scaled up).
    pub start_ns: u64,
    /// Exclusive end time (`start_ns + elapsed_ns`); `None` while the
    /// span never closed in the capture.
    pub end_ns: Option<u64>,
}

/// A capture's timeline view: samples, span intervals, and the observed
/// time range.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimelineCapture {
    /// All sample records, in file order.
    pub samples: Vec<SamplePoint>,
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
    /// not sample or span records still contribute to the time range.
    ///
    /// # Errors
    ///
    /// [`SentinelError::Parse`] on malformed JSON,
    /// [`SentinelError::Schema`] when a sample or span record lacks its
    /// keys.
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
            let thread = v.get("thread").and_then(JsonValue::as_u64).unwrap_or(0);
            let mut observe = |t: u64| {
                t_min = t_min.min(t);
                t_max = t_max.max(t);
            };
            if let Some(t) = ts_ns {
                observe(t);
            }
            match v.get("type").and_then(JsonValue::as_str) {
                Some("sample") => {
                    let name = v
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| schema(lineno, "sample missing `name`"))?
                        .to_string();
                    let metric_kind = v
                        .get("metric_kind")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| schema(lineno, "sample missing `metric_kind`"))?
                        .to_string();
                    let t_ns = v
                        .get("t_ns")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| schema(lineno, "sample missing `t_ns`"))?;
                    let value = v.get("value").and_then(JsonValue::as_f64);
                    observe(t_ns);
                    cap.samples.push(SamplePoint { t_ns, thread, name, metric_kind, value });
                }
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
                        SpanInterval { span, parent, thread, name, start_ns, end_ns: None },
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

    /// The innermost closed span containing time `t` on `thread` (the
    /// containing interval with the latest start; ties go to the larger
    /// id, which a thread allocates later), if any.
    #[must_use]
    pub fn enclosing_span(&self, thread: u64, t: u64) -> Option<&SpanInterval> {
        self.spans
            .values()
            .filter(|s| s.thread == thread && s.start_ns <= t)
            .filter(|s| s.end_ns.is_some_and(|e| t < e))
            .max_by_key(|s| s.start_ns)
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

/// Is `t` inside the half-open window?
#[must_use]
pub fn in_window(t: u64, window: (u64, u64)) -> bool {
    window.0 <= t && t < window.1
}

// ---------------------------------------------------------------------
// Per-window metric summaries
// ---------------------------------------------------------------------

/// Per-window summary of one metric's timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Metric name.
    pub name: String,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub metric_kind: String,
    /// Samples inside the window.
    pub count: u64,
    /// Smallest value in the window.
    pub min: f64,
    /// Arithmetic mean over the window.
    pub mean: f64,
    /// Largest value in the window.
    pub max: f64,
    /// Value at the latest `t_ns` in the window (ties: the later line).
    pub last: f64,
}

/// Summarizes every metric's samples that fall inside `window`,
/// sorted by metric name. Samples with a `null` value are skipped.
#[must_use]
pub fn metric_summaries(samples: &[SamplePoint], window: (u64, u64)) -> Vec<MetricSummary> {
    // The flush drains per-thread buffers one thread at a time, so file
    // order is not time order: `last` tracks the latest `t_ns` instead.
    let mut by_name: BTreeMap<&str, (MetricSummary, u64)> = BTreeMap::new();
    for s in samples {
        if !in_window(s.t_ns, window) {
            continue;
        }
        let Some(v) = s.value else { continue };
        let (row, last_t_ns) = by_name.entry(&s.name).or_insert_with(|| {
            let row = MetricSummary {
                name: s.name.clone(),
                metric_kind: s.metric_kind.clone(),
                count: 0,
                min: f64::INFINITY,
                mean: 0.0,
                max: f64::NEG_INFINITY,
                last: v,
            };
            (row, s.t_ns)
        });
        row.count += 1;
        row.min = row.min.min(v);
        row.max = row.max.max(v);
        // Running mean, numerically stable for long windows.
        row.mean += (v - row.mean) / row.count as f64;
        if s.t_ns >= *last_t_ns {
            *last_t_ns = s.t_ns;
            row.last = v;
        }
    }
    by_name.into_values().map(|(row, _)| row).collect()
}

/// Folds windowed counter deltas onto the enclosing span stack:
/// one line per `stack;metric delta`, sorted — a "counter flamegraph"
/// attributing counter movement to the code that caused it. Samples
/// with no enclosing span fold under `(no span)`.
#[must_use]
pub fn counter_folded(capture: &TimelineCapture, window: (u64, u64)) -> String {
    // A counter sample carries the process-global running total, and the
    // flush writes one thread's samples after another's. The total only
    // grows, so value order is update order: sorted by value, each delta
    // is exactly one update's increment, whichever thread made it.
    let mut by_name: BTreeMap<&str, Vec<(f64, &SamplePoint)>> = BTreeMap::new();
    for s in &capture.samples {
        if s.metric_kind != "counter" {
            continue;
        }
        if let Some(v) = s.value {
            by_name.entry(&s.name).or_default().push((v, s));
        }
    }
    let mut by_stack: BTreeMap<String, f64> = BTreeMap::new();
    for (name, mut points) in by_name {
        points.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut prev = 0.0;
        for (v, s) in points {
            let delta = v - prev;
            prev = v;
            if !in_window(s.t_ns, window) || delta <= 0.0 {
                continue;
            }
            let stack = capture
                .enclosing_span(s.thread, s.t_ns)
                .map_or_else(|| "(no span)".to_string(), |sp| capture.stack_path(sp.span));
            *by_stack.entry(format!("{stack};{name}")).or_insert(0.0) += delta;
        }
    }
    let mut out = String::new();
    for (stack, delta) in by_stack {
        out.push_str(&format!("{stack} {}\n", delta.round() as i64));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_line(t_ns: u64, thread: u64, name: &str, kind: &str, value: f64) -> String {
        format!(
            "{{\"ts_us\":{},\"thread\":{thread},\"type\":\"sample\",\"name\":\"{name}\",\
             \"metric_kind\":\"{kind}\",\"t_ns\":{t_ns},\"value\":{value}}}",
            t_ns / 1_000
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
        // covers [2_000, 52_000). Counter c ticks at 10_000 (inside
        // inner), 60_000 (inside run only), 200_000 (outside any span).
        [
            span_enter(1, None, "run", 1),
            span_enter(2, Some(1), "inner", 2),
            sample_line(10_000, 1, "c", "counter", 5.0),
            sample_line(20_000, 1, "g", "gauge", 1.5),
            span_exit(2, "inner", 52, 50_000),
            sample_line(60_000, 1, "c", "counter", 9.0),
            span_exit(1, "run", 101, 100_000),
            sample_line(200_000, 1, "c", "counter", 12.0),
        ]
        .join("\n")
    }

    #[test]
    fn parse_reads_samples_spans_and_range() {
        let cap = TimelineCapture::parse(&capture()).expect("parses");
        assert_eq!(cap.samples.len(), 4);
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
        assert!(in_window(t0, full) && in_window(t1, full));
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
        assert!(in_window(100_999, half));
        assert!(!in_window(101_000, half));
        // since >= until: empty, nothing is inside.
        let empty = resolve_window(
            Some(WindowSpec::Ns(200_000)),
            Some(WindowSpec::Ns(100_000)),
            t0,
            t1,
        );
        assert!(!in_window(t0, empty) && !in_window(t1, empty));
        assert!(!in_window(150_000 + t0, empty));
    }

    #[test]
    fn summaries_respect_the_window() {
        let cap = TimelineCapture::parse(&capture()).expect("parses");
        let full = resolve_window(None, None, cap.t_min_ns, cap.t_max_ns);
        let all = metric_summaries(&cap.samples, full);
        assert_eq!(all.len(), 2);
        let c = &all[0];
        assert_eq!((c.name.as_str(), c.count), ("c", 3));
        assert!((c.last - 12.0).abs() < 1e-12);
        assert!((c.min - 5.0).abs() < 1e-12 && (c.max - 12.0).abs() < 1e-12);
        // Window ending at 100_000 ns drops the last two counter ticks.
        let early = resolve_window(None, Some(WindowSpec::Ns(50_000)), cap.t_min_ns, cap.t_max_ns);
        let some = metric_summaries(&cap.samples, early);
        let c = some.iter().find(|m| m.name == "c").expect("counter present");
        assert_eq!(c.count, 1);
        assert!((c.last - 5.0).abs() < 1e-12);
    }

    #[test]
    fn counter_deltas_fold_onto_the_enclosing_stack() {
        let cap = TimelineCapture::parse(&capture()).expect("parses");
        let full = resolve_window(None, None, cap.t_min_ns, cap.t_max_ns);
        let folded = counter_folded(&cap, full);
        let lines: Vec<&str> = folded.lines().collect();
        // +5 inside run;inner, +4 inside run, +3 outside any span.
        assert!(lines.contains(&"run;inner;c 5"), "{folded}");
        assert!(lines.contains(&"run;c 4"), "{folded}");
        assert!(lines.contains(&"(no span);c 3"), "{folded}");
        // Deltas are computed across the whole capture even when the
        // window clips attribution: a window starting after the first
        // tick must not re-attribute the pre-window total.
        let late =
            resolve_window(Some(WindowSpec::Ns(30_000)), None, cap.t_min_ns, cap.t_max_ns);
        let folded = counter_folded(&cap, late);
        assert!(folded.lines().any(|l| l == "run;c 4"), "{folded}");
        assert!(!folded.contains("inner"), "pre-window tick excluded: {folded}");
    }

    #[test]
    fn summary_last_is_the_latest_sample_not_the_last_line() {
        // Thread 1's buffer flushed before thread 2's, so file order and
        // time order disagree; equal times keep the later line.
        let text = [
            sample_line(300, 1, "g", "gauge", 5.0),
            sample_line(100, 2, "g", "gauge", 7.0),
            sample_line(200, 1, "h", "gauge", 1.0),
            sample_line(200, 2, "h", "gauge", 2.0),
        ]
        .join("\n");
        let cap = TimelineCapture::parse(&text).expect("parses");
        let full = resolve_window(None, None, cap.t_min_ns, cap.t_max_ns);
        let last: Vec<(String, f64)> =
            metric_summaries(&cap.samples, full).into_iter().map(|m| (m.name, m.last)).collect();
        assert_eq!(last, [("g".to_string(), 5.0), ("h".to_string(), 2.0)]);
    }

    #[test]
    fn counter_flamegraph_conserves_a_multi_thread_total() {
        // Two threads bumped one process-global counter in turn (1 and 3
        // on thread 1, 2 and 4 on thread 2); the flush wrote thread 1's
        // buffer, then thread 2's. Four increments of one: the folded
        // deltas must sum to the last total, 4.
        let text = [
            span_enter(1, None, "run", 0),
            sample_line(100, 1, "c", "counter", 1.0),
            sample_line(300, 1, "c", "counter", 3.0),
            sample_line(200, 2, "c", "counter", 2.0),
            sample_line(400, 2, "c", "counter", 4.0),
            span_exit(1, "run", 1, 1_000),
        ]
        .join("\n");
        let cap = TimelineCapture::parse(&text).expect("parses");
        let full = resolve_window(None, None, cap.t_min_ns, cap.t_max_ns);
        let folded = counter_folded(&cap, full);
        assert_eq!(folded, "(no span);c 2\nrun;c 2\n");
    }
}
