//! Consumes the `"type":"sample"` timeline stream: windowing, metric
//! summaries, counter flamegraphs, sparklines, and the `trace_tail`
//! dashboard state.
//!
//! `nanocost-trace` produces timestamped metric samples (one point per
//! counter/gauge/histogram update); this module is the reading side.
//! [`TimelineCapture::parse`] reconstructs the sample stream and the
//! span intervals from a JSONL capture; [`WindowSpec`] implements the
//! `--since`/`--until` algebra (ns offsets or percentages, resolved to
//! a half-open `[since, until)` window); [`metric_summaries`] and
//! [`counter_folded`] power `trace_profile --metrics`; [`Dashboard`]
//! holds the sliding-window state the `trace_tail` bin renders.

use std::collections::{BTreeMap, VecDeque};

use crate::json::{self, JsonValue};
use crate::{LogHistogram, SentinelError};

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
    /// All span intervals, in enter order.
    pub spans: Vec<SpanInterval>,
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
        let mut open: BTreeMap<u64, usize> = BTreeMap::new();
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
                    open.insert(span, cap.spans.len());
                    cap.spans.push(SpanInterval {
                        span,
                        parent,
                        thread,
                        name,
                        start_ns,
                        end_ns: None,
                    });
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
                    if let Some(&idx) = open.get(&span) {
                        if let Some(interval) = cap.spans.get_mut(idx) {
                            let end = interval.start_ns.saturating_add(elapsed);
                            interval.end_ns = Some(end);
                            t_min = t_min.min(interval.start_ns);
                            t_max = t_max.max(end);
                        }
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
    /// containing interval with the latest start), if any.
    #[must_use]
    pub fn enclosing_span(&self, thread: u64, t: u64) -> Option<&SpanInterval> {
        self.spans
            .iter()
            .filter(|s| s.thread == thread && s.start_ns <= t)
            .filter(|s| s.end_ns.is_some_and(|e| t < e))
            .max_by_key(|s| s.start_ns)
    }

    /// The `;`-joined ancestor path of a span interval, root first.
    #[must_use]
    pub fn stack_path(&self, interval: &SpanInterval) -> String {
        let by_id: BTreeMap<u64, &SpanInterval> =
            self.spans.iter().map(|s| (s.span, s)).collect();
        let mut names: Vec<&str> = vec![&interval.name];
        let mut cursor = interval.parent;
        // Bounded walk guards against a corrupt capture with a parent
        // cycle; real traces are trees.
        for _ in 0..1024 {
            let Some(pid) = cursor else { break };
            let Some(node) = by_id.get(&pid) else { break };
            names.push(&node.name);
            cursor = node.parent;
        }
        names.reverse();
        names.join(";")
    }
}

fn schema(line: usize, message: &str) -> SentinelError {
    SentinelError::Schema { line, message: message.to_string() }
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
    /// Last value in the window (file order).
    pub last: f64,
}

/// Summarizes every metric's samples that fall inside `window`,
/// sorted by metric name. Samples with a `null` value are skipped.
#[must_use]
pub fn metric_summaries(samples: &[SamplePoint], window: (u64, u64)) -> Vec<MetricSummary> {
    let mut by_name: BTreeMap<&str, MetricSummary> = BTreeMap::new();
    for s in samples {
        if !in_window(s.t_ns, window) {
            continue;
        }
        let Some(v) = s.value else { continue };
        let row = by_name.entry(&s.name).or_insert_with(|| MetricSummary {
            name: s.name.clone(),
            metric_kind: s.metric_kind.clone(),
            count: 0,
            min: f64::INFINITY,
            mean: 0.0,
            max: f64::NEG_INFINITY,
            last: v,
        });
        row.count += 1;
        row.min = row.min.min(v);
        row.max = row.max.max(v);
        // Running mean, numerically stable for long windows.
        row.mean += (v - row.mean) / row.count as f64;
        row.last = v;
    }
    by_name.into_values().collect()
}

/// Folds windowed counter deltas onto the enclosing span stack:
/// one line per `stack;metric delta`, sorted — a "counter flamegraph"
/// attributing counter movement to the code that caused it. Samples
/// with no enclosing span fold under `(no span)`.
#[must_use]
pub fn counter_folded(capture: &TimelineCapture, window: (u64, u64)) -> String {
    let mut prev: BTreeMap<(u64, &str), f64> = BTreeMap::new();
    let mut by_stack: BTreeMap<String, f64> = BTreeMap::new();
    for s in &capture.samples {
        if s.metric_kind != "counter" {
            continue;
        }
        let Some(v) = s.value else { continue };
        let slot = prev.entry((s.thread, &s.name)).or_insert(0.0);
        let delta = v - *slot;
        *slot = v;
        if !in_window(s.t_ns, window) || delta <= 0.0 {
            continue;
        }
        let stack = capture
            .enclosing_span(s.thread, s.t_ns)
            .map_or_else(|| "(no span)".to_string(), |sp| capture.stack_path(sp));
        *by_stack.entry(format!("{stack};{}", s.name)).or_insert(0.0) += delta;
    }
    let mut out = String::new();
    for (stack, delta) in by_stack {
        out.push_str(&format!("{stack} {}\n", delta.round() as i64));
    }
    out
}

// ---------------------------------------------------------------------
// Sparklines
// ---------------------------------------------------------------------

/// The eight block heights a sparkline cell can take.
const SPARK_LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders values as a unicode-block sparkline of at most `width`
/// cells: values are bucketed by position, each bucket's mean mapped to
/// one of eight block heights scaled over the observed min..max range.
#[must_use]
pub fn sparkline(values: &[f64], width: usize) -> String {
    if values.is_empty() || width == 0 {
        return String::new();
    }
    let cells = width.min(values.len());
    let mut bucket_sum = vec![0.0f64; cells];
    let mut bucket_n = vec![0u64; cells];
    for (i, v) in values.iter().enumerate() {
        let b = (i * cells) / values.len();
        let b = b.min(cells - 1);
        bucket_sum[b] += v;
        bucket_n[b] += 1;
    }
    let means: Vec<f64> = bucket_sum
        .iter()
        .zip(&bucket_n)
        .map(|(s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
        .collect();
    let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let range = hi - lo;
    means
        .iter()
        .map(|m| {
            let level = if range > 0.0 {
                (((m - lo) / range) * 7.0).round() as usize
            } else {
                3
            };
            SPARK_LEVELS[level.min(7)]
        })
        .collect()
}

// ---------------------------------------------------------------------
// trace_tail dashboard state
// ---------------------------------------------------------------------

/// One metric's sliding-window point store.
#[derive(Debug, Clone, PartialEq)]
struct Series {
    metric_kind: String,
    points: VecDeque<(u64, f64)>,
}

/// Incremental dashboard over a growing JSONL capture: feed it lines as
/// they arrive ([`Dashboard::ingest_line`]), render a frame on a timer
/// ([`Dashboard::render`]). Keeps only the sliding window in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Dashboard {
    window_ns: u64,
    series: BTreeMap<String, Series>,
    /// Total lines fed in (including non-sample records).
    pub lines_ingested: u64,
    /// Lines that failed to parse or lacked sample keys (a growing
    /// file's final line is routinely half-written; these are expected
    /// and merely counted).
    pub parse_errors: u64,
    /// Latest sample timestamp seen (ns).
    pub last_t_ns: u64,
}

impl Dashboard {
    /// A dashboard keeping `window_ns` of trailing samples per metric.
    #[must_use]
    pub fn new(window_ns: u64) -> Self {
        Dashboard {
            window_ns: window_ns.max(1),
            series: BTreeMap::new(),
            lines_ingested: 0,
            parse_errors: 0,
            last_t_ns: 0,
        }
    }

    /// Feeds one line from the capture. Only `"type":"sample"` records
    /// change the dashboard; anything else (other record types, blank
    /// lines) is counted and skipped, and malformed JSON — routine for
    /// the last, still-being-written line of a live file — increments
    /// [`Self::parse_errors`] instead of failing.
    pub fn ingest_line(&mut self, line: &str) {
        self.lines_ingested += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return;
        }
        let Ok(v) = json::parse(trimmed) else {
            self.parse_errors += 1;
            return;
        };
        if v.get("type").and_then(JsonValue::as_str) != Some("sample") {
            return;
        }
        let (Some(name), Some(kind), Some(t_ns)) = (
            v.get("name").and_then(JsonValue::as_str),
            v.get("metric_kind").and_then(JsonValue::as_str),
            v.get("t_ns").and_then(JsonValue::as_u64),
        ) else {
            self.parse_errors += 1;
            return;
        };
        let Some(value) = v.get("value").and_then(JsonValue::as_f64) else {
            return;
        };
        self.last_t_ns = self.last_t_ns.max(t_ns);
        let horizon = self.last_t_ns.saturating_sub(self.window_ns);
        // A capture interleaves per-thread sample buffers, so one
        // metric's points can arrive out of time order: a late point
        // already behind the window is dropped, the rest are inserted
        // at their `t_ns` position so each series stays sorted.
        if t_ns < horizon {
            return;
        }
        let series = self.series.entry(name.to_string()).or_insert_with(|| Series {
            metric_kind: kind.to_string(),
            points: VecDeque::new(),
        });
        let at = series.points.partition_point(|&(t, _)| t <= t_ns);
        series.points.insert(at, (t_ns, value));
        // Evict everything that slid out of the window.
        for s in self.series.values_mut() {
            while s.points.front().is_some_and(|&(t, _)| t < horizon) {
                s.points.pop_front();
            }
        }
    }

    /// Number of metrics with at least one point in the window.
    #[must_use]
    pub fn live_metrics(&self) -> usize {
        self.series.values().filter(|s| !s.points.is_empty()).count()
    }

    /// Renders one dashboard frame: a header line, then one block per
    /// metric — sparkline plus kind-appropriate stats (gauges:
    /// last/min/max; counters: total and rate per second; histograms:
    /// p50/p90/p99 from a window [`LogHistogram`]).
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        let width = width.clamp(8, 120);
        let mut out = format!(
            "trace_tail  t={:.3}s  window={:.1}s  metrics={}  lines={}  unparsed={}\n",
            self.last_t_ns as f64 / 1.0e9,
            self.window_ns as f64 / 1.0e9,
            self.live_metrics(),
            self.lines_ingested,
            self.parse_errors
        );
        let name_w = self
            .series
            .iter()
            .filter(|(_, s)| !s.points.is_empty())
            .map(|(n, _)| n.len())
            .max()
            .unwrap_or(4);
        for (name, series) in &self.series {
            if series.points.is_empty() {
                continue;
            }
            let values: Vec<f64> = series.points.iter().map(|&(_, v)| v).collect();
            let spark = sparkline(&values, width);
            let stats = match series.metric_kind.as_str() {
                "counter" => {
                    let first = series.points.front().map_or(0.0, |&(_, v)| v);
                    let last = series.points.back().map_or(0.0, |&(_, v)| v);
                    let t0 = series.points.front().map_or(0, |&(t, _)| t);
                    let t1 = series.points.back().map_or(0, |&(t, _)| t);
                    let dt_s = t1.saturating_sub(t0) as f64 / 1.0e9;
                    let rate = if dt_s > 0.0 { (last - first) / dt_s } else { 0.0 };
                    format!("total={last:.0} rate={rate:.1}/s")
                }
                "histogram" => {
                    let mut h = LogHistogram::new();
                    for v in &values {
                        h.record(*v);
                    }
                    let q = |p: f64| h.quantile(p).unwrap_or(0.0);
                    format!("n={} p50={:.3e} p90={:.3e} p99={:.3e}", h.count(), q(0.5), q(0.9), q(0.99))
                }
                _ => {
                    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
                    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                    let last = values.last().copied().unwrap_or(0.0);
                    format!("last={last:.4} min={lo:.4} max={hi:.4}")
                }
            };
            out.push_str(&format!(
                "{name:<name_w$}  {spark:<width$}  [{kind}] {stats}\n",
                kind = series.metric_kind
            ));
        }
        out
    }
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
        assert_eq!(cap.spans[0].end_ns, Some(101_000));
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
    fn sparkline_maps_range_to_blocks() {
        let flat = sparkline(&[2.0, 2.0, 2.0], 3);
        assert_eq!(flat.chars().count(), 3);
        let ramp = sparkline(&[0.0, 1.0, 2.0, 3.0], 4);
        assert_eq!(ramp.chars().next(), Some('▁'));
        assert_eq!(ramp.chars().last(), Some('█'));
        assert_eq!(sparkline(&[], 10), "");
        // More values than width: buckets average without panicking.
        let squeezed = sparkline(&(0..100).map(f64::from).collect::<Vec<_>>(), 8);
        assert_eq!(squeezed.chars().count(), 8);
    }

    #[test]
    fn dashboard_ingests_renders_and_slides() {
        let mut d = Dashboard::new(500_000);
        for line in capture().lines() {
            d.ingest_line(line);
        }
        // Half-written trailing line: counted, not fatal.
        d.ingest_line("{\"ts_us\":3,\"type\":\"sam");
        assert_eq!(d.parse_errors, 1);
        assert_eq!(d.live_metrics(), 2);
        let frame = d.render(40);
        assert!(frame.contains("trace_tail"), "{frame}");
        assert!(frame.contains("[counter]"), "{frame}");
        assert!(frame.contains("[gauge]"), "{frame}");
        assert!(frame.contains("rate="), "{frame}");
        // A far-future sample slides everything else out of the window.
        d.ingest_line(&sample_line(10_000_000, 1, "g", "gauge", 9.0));
        assert_eq!(d.live_metrics(), 1);
    }

    #[test]
    fn late_samples_keep_series_in_time_order() {
        // A sample older than the window is dropped, not rendered as
        // the series' latest value.
        let mut d = Dashboard::new(10);
        d.ingest_line(&sample_line(100, 1, "g", "gauge", 1.0));
        d.ingest_line(&sample_line(5, 2, "g", "gauge", 2.0));
        assert_eq!(d.series["g"].points, [(100, 1.0)]);
        assert!(d.render(40).contains("last=1.0000"), "{}", d.render(40));
        // An in-window late point lands at its time position, so a
        // counter's rate still spans first..last.
        let mut d = Dashboard::new(1_000_000_000);
        for (t, thread, v) in [(1_000, 1, 1.0), (3_000_000, 1, 4.0), (2_000_000, 2, 3.0)] {
            d.ingest_line(&sample_line(t, thread, "c", "counter", v));
        }
        let times: Vec<u64> = d.series["c"].points.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, [1_000, 2_000_000, 3_000_000]);
        let frame = d.render(40);
        assert!(frame.contains("total=4"), "{frame}");
        assert!(!frame.contains("rate=0.0/s"), "{frame}");
    }

    #[test]
    fn histogram_series_render_percentiles() {
        let mut d = Dashboard::new(1_000_000);
        for i in 0..50u64 {
            d.ingest_line(&sample_line(1_000 + i * 100, 1, "lat", "histogram", 0.001 * i as f64 + 0.001));
        }
        let frame = d.render(30);
        assert!(frame.contains("[histogram]"), "{frame}");
        assert!(frame.contains("p99="), "{frame}");
    }
}
