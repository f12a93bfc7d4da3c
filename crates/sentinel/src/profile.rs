//! Folds a `NANOCOST_TRACE` JSONL capture into a profile.
//!
//! The first half of this module turns a parsed capture
//! ([`TimelineCapture`], the one span reconstruction) into (1)
//! folded-stack lines (`root;child;leaf <self_ns>`), the interchange
//! format every flamegraph renderer accepts, and (2) a self/total-time
//! hotspot table. Self time is a span's elapsed time minus the elapsed
//! time of its direct children, so the folded lines sum to the root
//! spans' wall time — the invariant the acceptance tests pin.
//!
//! The second half of this module aggregates the *sampling* profiler's
//! `"type":"stack_sample"` records (emitted by
//! `nanocost-trace::stack_registry` at `NANOCOST_PROFILE_HZ`) into a
//! [`ProfileReport`]: per-frame self/total sample counts, folded
//! stacks, per-endpoint and per-request attribution, all with
//! byte-deterministic JSON so two reports of the same window compare
//! equal and `profile_diff` can gate on the relative self-share shift.

use std::collections::{BTreeMap, BTreeSet};

use crate::json::{self, JsonValue};
use crate::timeline::{SpanInterval, TimelineCapture};
use crate::{escape_json, schema, SentinelError};

/// Clipped time of one closed span that overlaps the window.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SpanTime<'a> {
    span: &'a SpanInterval,
    /// Elapsed nanoseconds, clipped to the window.
    elapsed_ns: u64,
    /// Sum of direct timed children's clipped elapsed nanoseconds.
    children_ns: u64,
}

/// A span profile over one parsed capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile<'a> {
    capture: &'a TimelineCapture,
    /// Closed spans that overlap the window, keyed by span id.
    timed: BTreeMap<u64, SpanTime<'a>>,
    /// Spans that entered but never exited (a crash or truncated
    /// capture); they are excluded from timing but kept for stack paths.
    pub unclosed: usize,
    /// Closed spans whose interval missed the window entirely; their
    /// time is excluded but their names still anchor stack paths.
    pub windowed_out: usize,
}

/// One row of the hotspot table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hotspot {
    /// Span name.
    pub name: String,
    /// Number of closed spans with this name.
    pub calls: u64,
    /// Total elapsed nanoseconds (including children).
    pub total_ns: u64,
    /// Self nanoseconds (elapsed minus direct children).
    pub self_ns: u64,
}

impl<'a> Profile<'a> {
    /// Times the spans of `capture`, restricted to the half-open window
    /// `[since, until)` in epoch nanoseconds (`None` = whole capture).
    /// A span's elapsed time is clipped to its overlap with the window;
    /// spans with no overlap contribute no time (but still anchor their
    /// descendants' stack paths) and are counted in
    /// [`Profile::windowed_out`].
    #[must_use]
    pub fn from_capture(capture: &'a TimelineCapture, window: Option<(u64, u64)>) -> Self {
        let mut p = Profile {
            capture,
            timed: BTreeMap::new(),
            unclosed: 0,
            windowed_out: 0,
        };
        let mut child_time: Vec<(u64, u64)> = Vec::new();
        for (&id, span) in &capture.spans {
            let Some(end) = span.end_ns else {
                p.unclosed += 1;
                continue;
            };
            // Children nest inside parents in time, so clipped child
            // time never exceeds clipped parent time and the self-time
            // invariant survives windowing.
            let elapsed_ns = match window {
                None => end - span.start_ns,
                Some((lo, hi)) => end.min(hi).saturating_sub(span.start_ns.max(lo)),
            };
            if window.is_some() && elapsed_ns == 0 {
                p.windowed_out += 1;
                continue;
            }
            p.timed.insert(id, SpanTime { span, elapsed_ns, children_ns: 0 });
            if let Some(parent) = span.parent {
                child_time.push((parent, elapsed_ns));
            }
        }
        for (parent, elapsed_ns) in child_time {
            if let Some(t) = p.timed.get_mut(&parent) {
                t.children_ns += elapsed_ns;
            }
        }
        p
    }

    /// Number of spans reconstructed (closed or not).
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.capture.spans.len()
    }

    /// Total elapsed nanoseconds of closed root spans (no parent).
    #[must_use]
    pub fn root_total_ns(&self) -> u64 {
        self.timed.values().filter(|t| t.span.parent.is_none()).map(|t| t.elapsed_ns).sum()
    }

    /// Sum of self time over all closed spans; equals
    /// [`Self::root_total_ns`] for a complete, well-nested capture.
    #[must_use]
    pub fn total_self_ns(&self) -> u64 {
        self.timed.values().map(|t| t.elapsed_ns.saturating_sub(t.children_ns)).sum()
    }

    /// Folded-stack lines, one per distinct stack with positive self
    /// time, sorted by stack path: `root;child;leaf <self_ns>`.
    #[must_use]
    pub fn folded_stacks(&self) -> String {
        let mut by_stack: BTreeMap<String, u64> = BTreeMap::new();
        for (&id, t) in &self.timed {
            let self_ns = t.elapsed_ns.saturating_sub(t.children_ns);
            if self_ns > 0 {
                *by_stack.entry(self.capture.stack_path(id)).or_insert(0) += self_ns;
            }
        }
        let mut out = String::new();
        for (stack, ns) in by_stack {
            out.push_str(&format!("{stack} {ns}\n"));
        }
        out
    }

    /// Per-name hotspot rows, sorted by self time descending (ties by
    /// name for determinism).
    #[must_use]
    pub fn hotspots(&self) -> Vec<Hotspot> {
        let mut by_name: BTreeMap<&str, Hotspot> = BTreeMap::new();
        for t in self.timed.values() {
            let row = by_name.entry(&t.span.name).or_insert_with(|| Hotspot {
                name: t.span.name.clone(),
                calls: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.calls += 1;
            row.total_ns += t.elapsed_ns;
            row.self_ns += t.elapsed_ns.saturating_sub(t.children_ns);
        }
        let mut rows: Vec<Hotspot> = by_name.into_values().collect();
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// Human-readable hotspot table with a totals footer.
    #[must_use]
    pub fn hotspot_table(&self) -> String {
        let rows = self.hotspots();
        let name_w = rows.iter().map(|r| r.name.len()).max().unwrap_or(4).max("name".len());
        let mut out = format!("{:>8}  {:>12}  {:>12}  name\n", "calls", "total", "self");
        for r in &rows {
            out.push_str(&format!(
                "{:>8}  {:>12}  {:>12}  {:<name_w$}\n",
                r.calls,
                fmt_ns(r.total_ns),
                fmt_ns(r.self_ns),
                r.name
            ));
        }
        out.push_str(&format!(
            "\n{} spans, root total {}, self total {}",
            self.span_count(),
            fmt_ns(self.root_total_ns()),
            fmt_ns(self.total_self_ns()),
        ));
        let orphan_exits = self.capture.orphan_exits;
        if self.unclosed > 0 || orphan_exits > 0 {
            out.push_str(&format!(" ({} unclosed, {orphan_exits} orphan exits)", self.unclosed));
        }
        if self.windowed_out > 0 {
            out.push_str(&format!(" ({} spans outside the window)", self.windowed_out));
        }
        out.push('\n');
        out
    }
}

/// Renders nanoseconds with an SI prefix suited to the magnitude.
fn fmt_ns(ns: u64) -> String {
    let secs = ns as f64 / 1.0e9;
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1.0e-3 {
        format!("{:.3} ms", secs * 1.0e3)
    } else if secs >= 1.0e-6 {
        format!("{:.3} us", secs * 1.0e6)
    } else {
        format!("{ns} ns")
    }
}

// ---------------------------------------------------------------------
// Stack-sample aggregation (the sampling profiler's report)
// ---------------------------------------------------------------------

/// [`ProfileReport`] JSON schema version.
pub const REPORT_SCHEMA: u64 = 1;

/// How many request ids the report's attribution table keeps.
const TOP_REQUESTS: usize = 10;

/// Span-name prefix the query server gives its per-endpoint spans; the
/// report attributes a sample to the endpoint of its innermost such
/// frame.
pub const ENDPOINT_FRAME_PREFIX: &str = "serve.endpoint.";

/// One parsed `stack_sample` record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackSample {
    /// Nanoseconds since the emitter's trace epoch at sample time.
    pub t_ns: u64,
    /// The sampled thread.
    pub thread: u64,
    /// The sampled thread's request scope, if any.
    pub req_id: Option<String>,
    /// Span names, outermost first.
    pub frames: Vec<String>,
    /// Full logical stack depth (≥ `frames.len()` when clamped).
    pub depth: u64,
}

/// Extracts every `stack_sample` record from a JSONL capture; other
/// record types are skipped.
///
/// # Errors
///
/// [`SentinelError::Parse`] on malformed JSON, [`SentinelError::Schema`]
/// when a `stack_sample` record lacks its keys.
pub fn stack_samples_from_jsonl(text: &str) -> Result<Vec<StackSample>, SentinelError> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|error| SentinelError::Parse { line: lineno, error })?;
        if v.get("type").and_then(JsonValue::as_str) != Some("stack_sample") {
            continue;
        }
        let t_ns = v
            .get("t_ns")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| schema(lineno, "stack_sample missing `t_ns`"))?;
        let thread = v
            .get("thread")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| schema(lineno, "stack_sample missing `thread`"))?;
        let Some(JsonValue::Arr(raw_frames)) = v.get("frames") else {
            return Err(schema(lineno, "stack_sample missing `frames` array"));
        };
        let mut frames = Vec::with_capacity(raw_frames.len());
        for f in raw_frames {
            match f.as_str() {
                Some(name) if !name.is_empty() => frames.push(name.to_string()),
                _ => return Err(schema(lineno, "stack_sample frame is not a non-empty string")),
            }
        }
        if frames.is_empty() {
            return Err(schema(lineno, "stack_sample has an empty `frames` array"));
        }
        let depth = v
            .get("depth")
            .and_then(JsonValue::as_u64)
            .unwrap_or(frames.len() as u64);
        let req_id = v.get("req_id").and_then(JsonValue::as_str).map(str::to_string);
        out.push(StackSample { t_ns, thread, req_id, frames, depth });
    }
    Ok(out)
}

/// One frame's sample counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameStat {
    /// Span name.
    pub name: String,
    /// Samples whose *leaf* frame this was (CPU attribution).
    pub self_samples: u64,
    /// Samples whose stack contained this frame anywhere.
    pub total_samples: u64,
}

/// A time-windowed aggregation of stack samples — the sampling
/// profiler's analogue of the span-based [`Profile`]. Serialization is
/// byte-deterministic: every map is ordered and every list carries a
/// total order, so identical windows render identical JSON.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileReport {
    /// Smallest sample `t_ns` included (0 when empty).
    pub since_ns: u64,
    /// Largest sample `t_ns` included plus one (0 when empty).
    pub until_ns: u64,
    /// Samples aggregated.
    pub samples: u64,
    /// Distinct threads sampled.
    pub threads: u64,
    /// Samples whose logical depth exceeded the captured frames.
    pub truncated: u64,
    /// Per-frame counts, self-samples descending (ties by name).
    pub frames: Vec<FrameStat>,
    /// Folded stacks (`root;child;leaf` → sample count).
    pub folded: BTreeMap<String, u64>,
    /// Samples per endpoint (innermost `serve.endpoint.*` frame).
    pub endpoints: BTreeMap<String, u64>,
    /// Distinct request ids observed.
    pub distinct_requests: u64,
    /// The ten (`TOP_REQUESTS`) most-sampled request ids (count desc, id
    /// asc): the requests that burned the most CPU in the window.
    pub top_requests: Vec<(String, u64)>,
}

impl ProfileReport {
    /// Aggregates `samples`, keeping only those with `t_ns` inside the
    /// half-open `window` (`None` = all).
    #[must_use]
    pub fn from_samples(samples: &[StackSample], window: Option<(u64, u64)>) -> ProfileReport {
        let mut report = ProfileReport::default();
        let mut threads: BTreeSet<u64> = BTreeSet::new();
        let mut frames: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        let mut requests: BTreeMap<String, u64> = BTreeMap::new();
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for s in samples {
            if let Some((since, until)) = window {
                if s.t_ns < since || s.t_ns >= until {
                    continue;
                }
            }
            report.samples += 1;
            lo = lo.min(s.t_ns);
            hi = hi.max(s.t_ns);
            threads.insert(s.thread);
            if s.depth > s.frames.len() as u64 {
                report.truncated += 1;
            }
            if let Some(leaf) = s.frames.last() {
                frames.entry(leaf.clone()).or_insert((0, 0)).0 += 1;
            }
            // Total counts each distinct name once per sample, so a
            // recursive frame cannot exceed the sample count.
            let distinct: BTreeSet<&String> = s.frames.iter().collect();
            for name in distinct {
                frames.entry(name.clone()).or_insert((0, 0)).1 += 1;
            }
            *report.folded.entry(s.frames.join(";")).or_insert(0) += 1;
            if let Some(endpoint) = s
                .frames
                .iter()
                .rev()
                .find_map(|f| f.strip_prefix(ENDPOINT_FRAME_PREFIX))
            {
                *report.endpoints.entry(endpoint.to_string()).or_insert(0) += 1;
            }
            if let Some(id) = &s.req_id {
                *requests.entry(id.clone()).or_insert(0) += 1;
            }
        }
        if report.samples > 0 {
            report.since_ns = lo;
            report.until_ns = hi.saturating_add(1);
        }
        report.threads = threads.len() as u64;
        report.frames = frames
            .into_iter()
            .map(|(name, (self_samples, total_samples))| FrameStat {
                name,
                self_samples,
                total_samples,
            })
            .collect();
        report
            .frames
            .sort_by(|a, b| b.self_samples.cmp(&a.self_samples).then_with(|| a.name.cmp(&b.name)));
        report.distinct_requests = requests.len() as u64;
        let mut top: Vec<(String, u64)> = requests.into_iter().collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top.truncate(TOP_REQUESTS);
        report.top_requests = top;
        report
    }

    /// Renders the report as one deterministic JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":{REPORT_SCHEMA},\"since_ns\":{},\"until_ns\":{},\"samples\":{},\
             \"threads\":{},\"truncated\":{}",
            self.since_ns, self.until_ns, self.samples, self.threads, self.truncated
        );
        out.push_str(",\"frames\":[");
        for (i, f) in self.frames.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"self\":{},\"total\":{}}}",
                escape_json(&f.name),
                f.self_samples,
                f.total_samples
            ));
        }
        out.push_str("],\"folded\":[");
        for (i, (stack, count)) in self.folded.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stack\":{},\"count\":{count}}}",
                escape_json(stack)
            ));
        }
        out.push_str("],\"endpoints\":{");
        for (i, (endpoint, count)) in self.endpoints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{count}", escape_json(endpoint)));
        }
        out.push_str(&format!(
            "}},\"requests\":{{\"distinct\":{},\"top\":[",
            self.distinct_requests
        ));
        for (i, (id, count)) in self.top_requests.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"req_id\":{},\"count\":{count}}}",
                escape_json(id)
            ));
        }
        out.push_str("]}}");
        out
    }

    /// Parses a report rendered by [`ProfileReport::to_json`] (the
    /// `/v1/profile` payload and `profile_diff` inputs).
    ///
    /// # Errors
    ///
    /// [`SentinelError::Parse`] on malformed JSON, [`SentinelError::Schema`]
    /// on missing keys or an unknown schema version.
    pub fn from_json(text: &str) -> Result<ProfileReport, SentinelError> {
        const LINE: usize = 1;
        let v = json::parse(text).map_err(|error| SentinelError::Parse { line: LINE, error })?;
        let schema_v = v
            .get("schema")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| schema(LINE, "profile report missing `schema`"))?;
        if schema_v != REPORT_SCHEMA {
            return Err(SentinelError::Schema {
                line: LINE,
                message: format!("unsupported profile report schema {schema_v}"),
            });
        }
        let field = |name: &'static str| -> Result<u64, SentinelError> {
            v.get(name)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| schema(LINE, name))
        };
        let mut report = ProfileReport {
            since_ns: field("since_ns")?,
            until_ns: field("until_ns")?,
            samples: field("samples")?,
            threads: field("threads")?,
            truncated: field("truncated")?,
            ..ProfileReport::default()
        };
        let Some(JsonValue::Arr(frames)) = v.get("frames") else {
            return Err(schema(LINE, "profile report missing `frames` array"));
        };
        for f in frames {
            let name = f
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| schema(LINE, "frame missing `name`"))?
                .to_string();
            let self_samples = f
                .get("self")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| schema(LINE, "frame missing `self`"))?;
            let total_samples = f
                .get("total")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| schema(LINE, "frame missing `total`"))?;
            report.frames.push(FrameStat { name, self_samples, total_samples });
        }
        if let Some(JsonValue::Arr(folded)) = v.get("folded") {
            for entry in folded {
                let stack = entry
                    .get("stack")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| schema(LINE, "folded entry missing `stack`"))?
                    .to_string();
                let count = entry
                    .get("count")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| schema(LINE, "folded entry missing `count`"))?;
                report.folded.insert(stack, count);
            }
        }
        if let Some(JsonValue::Obj(endpoints)) = v.get("endpoints") {
            for (endpoint, count) in endpoints {
                let count = count
                    .as_u64()
                    .ok_or_else(|| schema(LINE, "endpoint count is not a number"))?;
                report.endpoints.insert(endpoint.clone(), count);
            }
        }
        if let Some(requests) = v.get("requests") {
            report.distinct_requests =
                requests.get("distinct").and_then(JsonValue::as_u64).unwrap_or(0);
            if let Some(JsonValue::Arr(top)) = requests.get("top") {
                for entry in top {
                    let id = entry
                        .get("req_id")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| schema(LINE, "top request missing `req_id`"))?
                        .to_string();
                    let count = entry
                        .get("count")
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| schema(LINE, "top request missing `count`"))?;
                    report.top_requests.push((id, count));
                }
            }
        }
        Ok(report)
    }

    /// Merges two reports into one, as the federation layer does with
    /// per-replica `/v1/profile` scrapes. Folded-stack counts add and
    /// the per-frame self/total table is recomputed from the merged
    /// folds, so merging is associative and commutative and agrees
    /// with having aggregated both sample streams at once. `threads`
    /// add — replicas sample disjoint OS threads even when their small
    /// per-process integer ids collide — and the `[since_ns, until_ns)`
    /// window is the envelope of both (meaningful per replica only, as
    /// each process stamps its own trace epoch). Request attribution
    /// merges by id; a federator should namespace ids per replica
    /// first (see `federate`), since raw `r<N>` ids recur across
    /// processes.
    #[must_use]
    pub fn merged(&self, other: &ProfileReport) -> ProfileReport {
        let mut report = ProfileReport {
            samples: self.samples + other.samples,
            threads: self.threads + other.threads,
            truncated: self.truncated + other.truncated,
            ..ProfileReport::default()
        };
        report.since_ns = match (self.samples, other.samples) {
            (0, _) => other.since_ns,
            (_, 0) => self.since_ns,
            _ => self.since_ns.min(other.since_ns),
        };
        report.until_ns = self.until_ns.max(other.until_ns);
        report.folded = self.folded.clone();
        for (stack, count) in &other.folded {
            *report.folded.entry(stack.clone()).or_insert(0) += count;
        }
        // Rebuild the frame table from the merged folds: leaves carry
        // self counts, distinct names per stack carry total counts —
        // the same accounting `from_samples` does per sample.
        let mut frames: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (stack, &count) in &report.folded {
            if let Some(leaf) = stack.rsplit(';').next() {
                frames.entry(leaf).or_insert((0, 0)).0 += count;
            }
            let distinct: BTreeSet<&str> = stack.split(';').collect();
            for name in distinct {
                frames.entry(name).or_insert((0, 0)).1 += count;
            }
        }
        report.frames = frames
            .into_iter()
            .map(|(name, (self_samples, total_samples))| FrameStat {
                name: name.to_string(),
                self_samples,
                total_samples,
            })
            .collect();
        report
            .frames
            .sort_by(|a, b| b.self_samples.cmp(&a.self_samples).then_with(|| a.name.cmp(&b.name)));
        report.endpoints = self.endpoints.clone();
        for (endpoint, count) in &other.endpoints {
            *report.endpoints.entry(endpoint.clone()).or_insert(0) += count;
        }
        report.distinct_requests = self.distinct_requests + other.distinct_requests;
        let mut requests: BTreeMap<String, u64> = BTreeMap::new();
        for (id, count) in self.top_requests.iter().chain(&other.top_requests) {
            *requests.entry(id.clone()).or_insert(0) += count;
        }
        let mut top: Vec<(String, u64)> = requests.into_iter().collect();
        top.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        top.truncate(TOP_REQUESTS);
        report.top_requests = top;
        report
    }

    /// A frame's share of all self samples in `[0, 1]`.
    #[must_use]
    pub fn self_share(&self, name: &str) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let own = self
            .frames
            .iter()
            .find(|f| f.name == name)
            .map_or(0, |f| f.self_samples);
        own as f64 / self.samples as f64
    }

    /// Folded-stack lines (`root;child;leaf <count>`), sorted by stack.
    #[must_use]
    pub fn folded_text(&self) -> String {
        let mut out = String::new();
        for (stack, count) in &self.folded {
            out.push_str(&format!("{stack} {count}\n"));
        }
        out
    }

    /// Human-readable top-frames table with attribution footers.
    #[must_use]
    pub fn hotspot_table(&self) -> String {
        let mut out = format!("{:>8}  {:>8}  {:>6}  name\n", "self", "total", "self%");
        for f in &self.frames {
            let share = if self.samples == 0 {
                0.0
            } else {
                f.self_samples as f64 * 100.0 / self.samples as f64
            };
            out.push_str(&format!(
                "{:>8}  {:>8}  {share:>5.1}%  {}\n",
                f.self_samples, f.total_samples, f.name
            ));
        }
        out.push_str(&format!(
            "\n{} samples across {} threads, window [{} ns, {} ns)",
            self.samples, self.threads, self.since_ns, self.until_ns
        ));
        if self.truncated > 0 {
            out.push_str(&format!(" ({} depth-truncated)", self.truncated));
        }
        out.push('\n');
        if !self.endpoints.is_empty() {
            out.push_str("endpoint attribution:\n");
            for (endpoint, count) in &self.endpoints {
                out.push_str(&format!("  {endpoint:<12} {count}\n"));
            }
        }
        if !self.top_requests.is_empty() {
            out.push_str(&format!(
                "top requests ({} distinct):\n",
                self.distinct_requests
            ));
            for (id, count) in &self.top_requests {
                out.push_str(&format!("  {id:<12} {count}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(span: u64, parent: Option<u64>, name: &str) -> String {
        let parent = parent.map_or_else(|| "null".to_string(), |p| p.to_string());
        format!(
            "{{\"ts_us\":1,\"thread\":0,\"type\":\"span_enter\",\"span\":{span},\
             \"parent\":{parent},\"name\":\"{name}\",\"fields\":{{}}}}"
        )
    }

    fn exit(span: u64, name: &str, elapsed_ns: u64) -> String {
        format!(
            "{{\"ts_us\":2,\"thread\":0,\"type\":\"span_exit\",\"span\":{span},\
             \"name\":\"{name}\",\"elapsed_ns\":{elapsed_ns}}}"
        )
    }

    fn nested_capture() -> String {
        // root (1000ns) -> a (600ns) -> b (200ns); plus a second call to
        // a (100ns) directly under root.
        [
            enter(1, None, "root"),
            enter(2, Some(1), "a"),
            enter(3, Some(2), "b"),
            exit(3, "b", 200),
            exit(2, "a", 600),
            enter(4, Some(1), "a"),
            exit(4, "a", 100),
            exit(1, "root", 1000),
        ]
        .join("\n")
    }

    #[test]
    fn self_time_sums_to_the_root_span() {
        let cap = TimelineCapture::parse(&nested_capture()).expect("parses");
        let p = Profile::from_capture(&cap, None);
        assert_eq!(p.root_total_ns(), 1000);
        assert_eq!(p.total_self_ns(), 1000);
        assert_eq!(p.unclosed, 0);
    }

    #[test]
    fn folded_stacks_carry_full_paths_and_self_times() {
        let cap = TimelineCapture::parse(&nested_capture()).expect("parses");
        let p = Profile::from_capture(&cap, None);
        let folded = p.folded_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert!(lines.contains(&"root 300"), "root self = 1000-600-100: {folded}");
        assert!(lines.contains(&"root;a 500"), "both `a` calls fold together: {folded}");
        assert!(lines.contains(&"root;a;b 200"), "{folded}");
        let total: u64 = lines
            .iter()
            .filter_map(|l| l.rsplit(' ').next())
            .filter_map(|n| n.parse::<u64>().ok())
            .sum();
        assert_eq!(total, p.root_total_ns());
    }

    #[test]
    fn hotspots_aggregate_by_name() {
        let cap = TimelineCapture::parse(&nested_capture()).expect("parses");
        let p = Profile::from_capture(&cap, None);
        let rows = p.hotspots();
        let a = rows.iter().find(|r| r.name == "a").expect("has `a`");
        assert_eq!(a.calls, 2);
        assert_eq!(a.total_ns, 700);
        assert_eq!(a.self_ns, 500);
        // Sorted by self time descending: `a` (500) beats `root` (300).
        assert_eq!(rows[0].name, "a");
        let table = p.hotspot_table();
        assert!(table.contains("name"), "{table}");
    }

    #[test]
    fn unclosed_and_orphan_spans_are_counted_not_fatal() {
        let text = [enter(1, None, "root"), exit(9, "ghost", 50)].join("\n");
        let cap = TimelineCapture::parse(&text).expect("parses");
        let p = Profile::from_capture(&cap, None);
        assert_eq!(p.unclosed, 1);
        assert_eq!(cap.orphan_exits, 1);
        assert_eq!(p.root_total_ns(), 0);
    }

    #[test]
    fn non_span_records_are_skipped() {
        let text = concat!(
            "{\"ts_us\":1,\"thread\":0,\"type\":\"event\",\"span\":null,",
            "\"name\":\"e\",\"fields\":{}}\n",
            "{\"ts_us\":1,\"thread\":0,\"type\":\"metric\",\"name\":\"m\",",
            "\"metric_kind\":\"counter\",\"fields\":{}}\n"
        );
        let cap = TimelineCapture::parse(text).expect("parses");
        assert_eq!(Profile::from_capture(&cap, None).span_count(), 0);
    }

    #[test]
    fn windowing_clips_and_excludes_span_time() {
        // root: [1000ns, 2000ns); a: [1000ns, 1600ns) nested inside;
        // late: [5000ns, 5400ns) — note ts_us 1 -> 1000ns etc.
        fn enter_at(span: u64, parent: Option<u64>, name: &str, ts_us: u64) -> String {
            let parent = parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            format!(
                "{{\"ts_us\":{ts_us},\"thread\":0,\"type\":\"span_enter\",\"span\":{span},\
                 \"parent\":{parent},\"name\":\"{name}\",\"fields\":{{}}}}"
            )
        }
        let text = [
            enter_at(1, None, "root", 1),
            enter_at(2, Some(1), "a", 1),
            exit(2, "a", 600),
            exit(1, "root", 1000),
            enter_at(3, None, "late", 5),
            exit(3, "late", 400),
        ]
        .join("\n");
        // Full capture: root 1000 + late 400.
        let cap = TimelineCapture::parse(&text).expect("parses");
        let p = Profile::from_capture(&cap, None);
        assert_eq!(p.root_total_ns(), 1400);
        // Window [1000, 1500): root clipped to 500, `a` clipped to 500,
        // `late` excluded entirely.
        let w = Profile::from_capture(&cap, Some((1_000, 1_500)));
        assert_eq!(w.root_total_ns(), 500);
        assert_eq!(w.total_self_ns(), 500);
        assert_eq!(w.windowed_out, 1);
        assert_eq!(w.unclosed, 0);
        let folded = w.folded_stacks();
        assert!(folded.contains("root;a 500"), "{folded}");
        assert!(!folded.contains("late"), "{folded}");
        // Empty window: nothing survives, nothing panics.
        let e = Profile::from_capture(&cap, Some((9_000, 9_000)));
        assert_eq!(e.root_total_ns(), 0);
        assert_eq!(e.windowed_out, 3);
    }

    #[test]
    fn malformed_lines_fail_with_the_line_number() {
        let text = format!("{}\nnot json\n", enter(1, None, "root"));
        match TimelineCapture::parse(&text) {
            Err(SentinelError::Parse { line: 2, .. }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    // --- stack-sample aggregation ---

    fn sample_line(ts_us: u64, thread: u64, t_ns: u64, req: Option<&str>, frames: &[&str], depth: u64) -> String {
        let req_part = req.map_or(String::new(), |r| format!("\"req_id\":\"{r}\","));
        let arr: Vec<String> = frames.iter().map(|f| format!("\"{f}\"")).collect();
        format!(
            "{{\"ts_us\":{ts_us},\"thread\":{thread},{req_part}\"type\":\"stack_sample\",\
             \"depth\":{depth},\"t_ns\":{t_ns},\"frames\":[{}]}}",
            arr.join(",")
        )
    }

    fn fixture_samples() -> Vec<StackSample> {
        let text = [
            sample_line(10, 1, 1_000, Some("r1"), &["serve.request", "serve.endpoint.cost"], 2),
            sample_line(11, 1, 2_000, Some("r1"), &["serve.request", "serve.endpoint.cost"], 2),
            sample_line(12, 2, 2_500, Some("r2"), &["serve.request", "serve.endpoint.batch"], 2),
            sample_line(13, 2, 3_000, None, &["figure4.panel"], 33),
            // A non-sample record interleaved: must be skipped.
            "{\"ts_us\":14,\"thread\":2,\"type\":\"metric\",\"name\":\"x\",\"kind\":\"counter\",\"fields\":{}}".to_string(),
        ]
        .join("\n");
        stack_samples_from_jsonl(&text).expect("parses")
    }

    #[test]
    fn stack_samples_parse_and_skip_other_records() {
        let samples = fixture_samples();
        assert_eq!(samples.len(), 4);
        assert_eq!(samples[0].req_id.as_deref(), Some("r1"));
        assert_eq!(samples[0].frames, ["serve.request", "serve.endpoint.cost"]);
        assert_eq!(samples[3].depth, 33);
        assert_eq!(samples[3].req_id, None);
    }

    #[test]
    fn malformed_stack_samples_are_rejected() {
        for bad in [
            // missing frames
            "{\"ts_us\":1,\"thread\":1,\"type\":\"stack_sample\",\"depth\":1,\"t_ns\":5}",
            // empty frames
            "{\"ts_us\":1,\"thread\":1,\"type\":\"stack_sample\",\"depth\":1,\"t_ns\":5,\"frames\":[]}",
            // empty frame name
            "{\"ts_us\":1,\"thread\":1,\"type\":\"stack_sample\",\"depth\":1,\"t_ns\":5,\"frames\":[\"\"]}",
            // missing t_ns
            "{\"ts_us\":1,\"thread\":1,\"type\":\"stack_sample\",\"depth\":1,\"frames\":[\"a\"]}",
        ] {
            match stack_samples_from_jsonl(bad) {
                Err(SentinelError::Schema { line: 1, .. }) => {}
                other => panic!("unexpected for {bad}: {other:?}"),
            }
        }
    }

    #[test]
    fn report_aggregates_self_total_endpoints_and_requests() {
        let report = ProfileReport::from_samples(&fixture_samples(), None);
        assert_eq!(report.samples, 4);
        assert_eq!(report.threads, 2);
        assert_eq!(report.truncated, 1);
        assert_eq!(report.since_ns, 1_000);
        assert_eq!(report.until_ns, 3_001);
        // Leading frame by self time: serve.endpoint.cost (2 leaf hits).
        assert_eq!(report.frames[0].name, "serve.endpoint.cost");
        assert_eq!(report.frames[0].self_samples, 2);
        assert_eq!(report.frames[0].total_samples, 2);
        let serve = report.frames.iter().find(|f| f.name == "serve.request").expect("serve.request");
        assert_eq!(serve.self_samples, 0);
        assert_eq!(serve.total_samples, 3);
        assert_eq!(report.endpoints.get("cost"), Some(&2));
        assert_eq!(report.endpoints.get("batch"), Some(&1));
        assert_eq!(report.distinct_requests, 2);
        assert_eq!(report.top_requests[0], ("r1".to_string(), 2));
        assert_eq!(
            report.folded.get("serve.request;serve.endpoint.cost"),
            Some(&2)
        );
        assert!((report.self_share("serve.endpoint.cost") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn report_window_clips_samples() {
        let report = ProfileReport::from_samples(&fixture_samples(), Some((2_000, 3_000)));
        assert_eq!(report.samples, 2);
        assert_eq!(report.since_ns, 2_000);
        assert_eq!(report.until_ns, 2_501);
        assert_eq!(report.truncated, 0);
        // Empty window aggregates to an all-zero report.
        let empty = ProfileReport::from_samples(&fixture_samples(), Some((9_000, 9_000)));
        assert_eq!(empty.samples, 0);
        assert_eq!(empty.since_ns, 0);
        assert_eq!(empty.to_json(), ProfileReport::default().to_json());
    }

    #[test]
    fn report_json_is_deterministic_and_round_trips() {
        let report = ProfileReport::from_samples(&fixture_samples(), None);
        let a = report.to_json();
        let b = ProfileReport::from_samples(&fixture_samples(), None).to_json();
        assert_eq!(a, b, "same window must render identical bytes");
        crate::json::parse(&a).expect("report is valid JSON");
        let parsed = ProfileReport::from_json(&a).expect("round-trips");
        assert_eq!(parsed, report);
        assert_eq!(parsed.to_json(), a);
        // Unknown schema version is refused.
        let bumped = a.replacen("\"schema\":1", "\"schema\":99", 1);
        assert!(ProfileReport::from_json(&bumped).is_err());
    }

    #[test]
    fn merged_reports_agree_with_single_stream_aggregation() {
        // Split the fixture stream across two "replicas" (disjoint
        // threads and request ids, as distinct processes would have
        // after namespacing) and merge the per-replica reports.
        let samples = fixture_samples();
        let a = ProfileReport::from_samples(&samples[..2], None);
        let b = ProfileReport::from_samples(&samples[2..], None);
        let merged = a.merged(&b);
        let whole = ProfileReport::from_samples(&samples, None);
        assert_eq!(merged, whole, "merge must equal one-stream aggregation");
        assert_eq!(merged.to_json(), whole.to_json());
        assert_eq!(a.merged(&b), b.merged(&a), "merge is commutative");
        // The empty report is the identity.
        assert_eq!(whole.merged(&ProfileReport::default()), whole);
        assert_eq!(ProfileReport::default().merged(&whole), whole);
    }

    #[test]
    fn report_renders_folded_text_and_table() {
        let report = ProfileReport::from_samples(&fixture_samples(), None);
        let folded = report.folded_text();
        assert!(folded.contains("serve.request;serve.endpoint.cost 2\n"), "{folded}");
        let table = report.hotspot_table();
        assert!(table.contains("serve.endpoint.cost"), "{table}");
        assert!(table.contains("4 samples across 2 threads"), "{table}");
        assert!(table.contains("(1 depth-truncated)"), "{table}");
        assert!(table.contains("endpoint attribution:"), "{table}");
        assert!(table.contains("top requests (2 distinct):"), "{table}");
    }
}
