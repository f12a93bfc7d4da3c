//! The three trace exporters: human-readable span tree, JSONL, and
//! Chrome trace-event format.
//!
//! Exporters are pure record-to-string transducers so golden tests can
//! drive them with a fixed record sequence and diff the output
//! byte-for-byte. The [`WriterSubscriber`](crate::WriterSubscriber)
//! couples one to an output stream.

use std::collections::HashMap;

use crate::record::{Record, RecordKind};
use crate::value::{fields_json, fields_text, json_string};

/// Which exporter the environment selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Indented, human-readable span tree.
    Text,
    /// One JSON object per line.
    Jsonl,
    /// Chrome trace-event JSON (load in `chrome://tracing` or Perfetto).
    Chrome,
}

impl Format {
    /// Parses a `NANOCOST_TRACE` value: `text`, `jsonl` or `chrome`;
    /// `1`/`on`/`true` mean [`Format::Text`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Format> {
        match s.trim().to_ascii_lowercase().as_str() {
            "text" | "1" | "on" | "true" => Some(Format::Text),
            "jsonl" => Some(Format::Jsonl),
            "chrome" => Some(Format::Chrome),
            _ => None,
        }
    }

    /// Builds the exporter for this format.
    #[must_use]
    pub fn exporter(self) -> Box<dyn Exporter + Send> {
        match self {
            Format::Text => Box::new(TextTreeExporter::new()),
            Format::Jsonl => Box::new(JsonlExporter::new()),
            Format::Chrome => Box::new(ChromeExporter::new()),
        }
    }
}

/// A record-to-string transducer.
pub trait Exporter {
    /// Emitted once before the first record.
    fn begin(&mut self) -> String {
        String::new()
    }

    /// Renders one record (may be empty for records the format skips).
    fn render(&mut self, rec: &Record) -> String;

    /// Emitted once after the last record.
    fn finish(&mut self) -> String {
        String::new()
    }
}

// ---------------------------------------------------------------------
// Text tree
// ---------------------------------------------------------------------

/// Indented span tree for terminals: `>` opens a span, `<` closes it,
/// `.` is an event, `=` a provenance record (one per replayed call),
/// `@` a profiler stack sample.
#[derive(Debug, Default)]
pub struct TextTreeExporter {
    depth: HashMap<u64, usize>,
}

impl TextTreeExporter {
    /// A fresh exporter.
    #[must_use]
    pub fn new() -> Self {
        TextTreeExporter::default()
    }

    fn indent(&self, thread: u64) -> String {
        "  ".repeat(self.depth.get(&thread).copied().unwrap_or(0))
    }
}

impl Exporter for TextTreeExporter {
    fn render(&mut self, rec: &Record) -> String {
        let t = rec.thread;
        match &rec.kind {
            RecordKind::SpanEnter { name, fields, .. } => {
                let line = format!(
                    "[t{t} {:>8}us] {}> {name}{}\n",
                    rec.ts_micros,
                    self.indent(t),
                    fields_text(fields)
                );
                *self.depth.entry(t).or_insert(0) += 1;
                line
            }
            RecordKind::SpanExit { name, elapsed_nanos, .. } => {
                let d = self.depth.entry(t).or_insert(0);
                *d = d.saturating_sub(1);
                format!(
                    "[t{t} {:>8}us] {}< {name} ({})\n",
                    rec.ts_micros,
                    self.indent(t),
                    fmt_nanos(*elapsed_nanos)
                )
            }
            RecordKind::Event { name, fields, .. } => format!(
                "[t{t} {:>8}us] {}. {name}{}\n",
                rec.ts_micros,
                self.indent(t),
                fields_text(fields)
            ),
            RecordKind::Provenance { equation, function, inputs, outputs, .. } => format!(
                "[t{t} {:>8}us] {}= {equation} {function}({}) -> ({})\n",
                rec.ts_micros,
                self.indent(t),
                fields_text(inputs).trim_start(),
                fields_text(outputs).trim_start()
            ),
            RecordKind::Replay { .. } => rec.expand().iter().map(|r| self.render(r)).collect(),
            // Stack samples render flat (semicolon-folded, as a
            // flamegraph line would), not at the thread's span indent:
            // they come from the sampler thread, whose view of the
            // sampled thread's depth is the frame list itself.
            RecordKind::StackSample { frames, depth, t_ns } => format!(
                "[t{t} {:>8}us] @ {} (depth {depth}) @{t_ns}ns\n",
                rec.ts_micros,
                frames.join(";")
            ),
        }
    }
}

/// Renders nanoseconds with an SI prefix suited to the magnitude.
fn fmt_nanos(nanos: u64) -> String {
    let secs = nanos as f64 / 1.0e9;
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1.0e-3 {
        format!("{:.3} ms", secs * 1.0e3)
    } else if secs >= 1.0e-6 {
        format!("{:.3} us", secs * 1.0e6)
    } else {
        format!("{nanos} ns")
    }
}

// ---------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------

/// One JSON object per line: one line per record, and one line per
/// provenance call, so a [`RecordKind::Replay`] renders as the
/// `"type":"provenance"` lines it stands for. The stable schema (`type`
/// tag plus per-kind keys) is the machine-readable trail the CI smoke
/// gate and the provenance replay read.
#[derive(Debug, Default)]
pub struct JsonlExporter;

impl JsonlExporter {
    /// A fresh exporter.
    #[must_use]
    pub fn new() -> Self {
        JsonlExporter
    }
}

fn opt_u64(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| x.to_string())
}

impl Exporter for JsonlExporter {
    fn render(&mut self, rec: &Record) -> String {
        // Schema 2: records emitted under a request scope carry a
        // `req_id` key in the envelope, and records from a labeled
        // fleet replica carry a `replica` key; both are omitted when
        // absent, so pre-existing captures remain valid under the same
        // checker.
        let req = rec
            .req_id
            .as_deref()
            .map(|id| format!(",\"req_id\":{}", json_string(id)))
            .unwrap_or_default();
        let replica = rec
            .replica
            .as_deref()
            .map(|label| format!(",\"replica\":{}", json_string(label)))
            .unwrap_or_default();
        let head = format!(
            "{{\"ts_us\":{},\"thread\":{}{req}{replica},\"type\":{}",
            rec.ts_micros,
            rec.thread,
            json_string(rec.kind.tag())
        );
        let body = match &rec.kind {
            RecordKind::SpanEnter { span, parent, name, fields } => format!(
                ",\"span\":{},\"parent\":{},\"name\":{},\"fields\":{}",
                span,
                opt_u64(*parent),
                json_string(name),
                fields_json(fields)
            ),
            RecordKind::SpanExit { span, name, elapsed_nanos } => format!(
                ",\"span\":{},\"name\":{},\"elapsed_ns\":{}",
                span,
                json_string(name),
                elapsed_nanos
            ),
            RecordKind::Event { span, name, fields } => format!(
                ",\"span\":{},\"name\":{},\"fields\":{}",
                opt_u64(*span),
                json_string(name),
                fields_json(fields)
            ),
            RecordKind::Provenance { span, equation, function, inputs, outputs } => format!(
                ",\"span\":{},\"equation\":{},\"function\":{},\"inputs\":{},\"outputs\":{}",
                opt_u64(*span),
                json_string(equation.id()),
                json_string(function),
                fields_json(inputs),
                fields_json(outputs)
            ),
            RecordKind::Replay { .. } => {
                return rec.expand().iter().map(|r| self.render(r)).collect();
            }
            RecordKind::StackSample { frames, depth, t_ns } => {
                let mut arr = String::from("[");
                for (i, frame) in frames.iter().enumerate() {
                    if i > 0 {
                        arr.push(',');
                    }
                    arr.push_str(&json_string(frame));
                }
                arr.push(']');
                format!(",\"depth\":{depth},\"t_ns\":{t_ns},\"frames\":{arr}")
            }
        };
        format!("{head}{body}}}\n")
    }
}

// ---------------------------------------------------------------------
// Chrome trace-event
// ---------------------------------------------------------------------

/// Chrome trace-event JSON: a single array of event objects. Spans map
/// to `B`/`E` duration events, events, provenance (one per replayed
/// call) and stack samples to `i` instants. Load the file in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
#[derive(Debug, Default)]
pub struct ChromeExporter {
    any: bool,
}

impl ChromeExporter {
    /// A fresh exporter.
    #[must_use]
    pub fn new() -> Self {
        ChromeExporter::default()
    }

    fn sep(&mut self) -> &'static str {
        if self.any {
            ",\n"
        } else {
            self.any = true;
            "\n"
        }
    }
}

/// One chrome event object.
fn chrome_event(ph: &str, name: &str, ts: u64, tid: u64, extra: &str, args: &str) -> String {
    format!(
        "{{\"name\":{},\"ph\":{},\"ts\":{ts},\"pid\":1,\"tid\":{tid}{extra},\"args\":{args}}}",
        json_string(name),
        json_string(ph)
    )
}

impl Exporter for ChromeExporter {
    fn begin(&mut self) -> String {
        "[".to_string()
    }

    fn render(&mut self, rec: &Record) -> String {
        let t = rec.thread;
        let ts = rec.ts_micros;
        let ev = match &rec.kind {
            RecordKind::SpanEnter { name, fields, .. } => {
                chrome_event("B", name, ts, t, "", &fields_json(fields))
            }
            RecordKind::SpanExit { name, .. } => chrome_event("E", name, ts, t, "", "{}"),
            RecordKind::Event { name, fields, .. } => {
                chrome_event("i", name, ts, t, ",\"s\":\"t\"", &fields_json(fields))
            }
            RecordKind::Provenance { equation, function, inputs, outputs, .. } => {
                let args = format!(
                    "{{\"equation\":{},\"inputs\":{},\"outputs\":{}}}",
                    json_string(equation.id()),
                    fields_json(inputs),
                    fields_json(outputs)
                );
                chrome_event("i", function, ts, t, ",\"s\":\"t\"", &args)
            }
            RecordKind::Replay { .. } => {
                return rec.expand().iter().map(|r| self.render(r)).collect();
            }
            // Stack samples become instants named after the leaf frame,
            // plotted on the sampled thread's own track at sample time,
            // with the full stack in args for inspection.
            RecordKind::StackSample { frames, depth, t_ns } => {
                let mut arr = String::from("[");
                for (i, frame) in frames.iter().enumerate() {
                    if i > 0 {
                        arr.push(',');
                    }
                    arr.push_str(&json_string(frame));
                }
                arr.push(']');
                let leaf = frames.last().copied().unwrap_or("(idle)");
                let args = format!("{{\"depth\":{depth},\"frames\":{arr}}}");
                chrome_event("i", leaf, t_ns / 1_000, t, ",\"s\":\"t\"", &args)
            }
        };
        format!("{}{ev}", self.sep())
    }

    fn finish(&mut self) -> String {
        "\n]\n".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provenance::Equation;
    use crate::value::{Field, Value};

    fn records() -> Vec<Record> {
        vec![
            Record::unscoped(
                10,
                1,
                RecordKind::SpanEnter {
                    span: 1,
                    parent: None,
                    name: "outer",
                    fields: vec![Field::new("volume", Value::U64(5_000))],
                },
            ),
            Record::unscoped(
                12,
                1,
                RecordKind::Provenance {
                    span: Some(1),
                    equation: Equation::Eq4,
                    function: "core::transistor_cost",
                    inputs: vec![Field::new("sd", Value::F64(300.0))],
                    outputs: vec![Field::new("c_tr", Value::F64(1.5e-6))],
                },
            ),
            Record::unscoped(
                15,
                1,
                RecordKind::SpanExit { span: 1, name: "outer", elapsed_nanos: 5_000 },
            ),
        ]
    }

    fn run(mut e: Box<dyn Exporter + Send>) -> String {
        let mut out = e.begin();
        for r in records() {
            out.push_str(&e.render(&r));
        }
        out.push_str(&e.finish());
        out
    }

    #[test]
    fn text_tree_indents_and_dedents() {
        let out = run(Box::new(TextTreeExporter::new()));
        assert!(out.contains("> outer volume=5000"));
        assert!(out.contains("  = Eq.4 core::transistor_cost(sd=300) -> (c_tr=0.0000015)"));
        assert!(out.contains("< outer (5.000 us)"));
    }

    #[test]
    fn jsonl_lines_are_each_valid_json() {
        let out = run(Box::new(JsonlExporter::new()));
        assert_eq!(out.lines().count(), 3);
        for line in out.lines() {
            nanocost_sentinel::json::parse(line).expect("line parses as JSON");
        }
        assert!(out.contains("\"equation\":\"Eq.4\""));
        assert!(!out.contains("req_id"), "unscoped records omit req_id");
    }

    #[test]
    fn jsonl_envelope_carries_req_id_when_scoped() {
        let mut rec = records().remove(0);
        rec.req_id = Some(std::sync::Arc::from("r17"));
        let mut e = JsonlExporter::new();
        let line = e.render(&rec);
        nanocost_sentinel::json::parse(line.trim_end()).expect("line parses as JSON");
        assert!(line.starts_with("{\"ts_us\":10,\"thread\":1,\"req_id\":\"r17\",\"type\":\"span_enter\""));
    }

    #[test]
    fn jsonl_envelope_carries_replica_after_req_id_when_labeled() {
        let mut rec = records().remove(0);
        rec.req_id = Some(std::sync::Arc::from("r17"));
        rec.replica = Some(std::sync::Arc::from("a"));
        let mut e = JsonlExporter::new();
        let line = e.render(&rec);
        nanocost_sentinel::json::parse(line.trim_end()).expect("line parses as JSON");
        assert!(
            line.starts_with(
                "{\"ts_us\":10,\"thread\":1,\"req_id\":\"r17\",\"replica\":\"a\",\"type\":\"span_enter\""
            ),
            "{line}"
        );
        // Replica labeling is process-wide, not per-request: an
        // unscoped record from a labeled replica still carries it.
        rec.req_id = None;
        let line = e.render(&rec);
        assert!(
            line.starts_with("{\"ts_us\":10,\"thread\":1,\"replica\":\"a\",\"type\":"),
            "{line}"
        );
    }

    #[test]
    fn chrome_output_is_one_valid_json_array() {
        let out = run(Box::new(ChromeExporter::new()));
        nanocost_sentinel::json::parse(&out).expect("whole document parses");
        assert!(out.starts_with('['));
        assert!(out.trim_end().ends_with(']'));
        assert!(out.contains("\"ph\":\"B\""));
        assert!(out.contains("\"ph\":\"E\""));
    }

    #[test]
    fn format_parsing() {
        assert_eq!(Format::parse("jsonl"), Some(Format::Jsonl));
        assert_eq!(Format::parse("CHROME"), Some(Format::Chrome));
        assert_eq!(Format::parse("1"), Some(Format::Text));
        assert_eq!(Format::parse("bogus"), None);
        for dropped in ["tree", "json", "ndjson", "trace-event", "chrometrace"] {
            assert_eq!(Format::parse(dropped), None, "{dropped}");
        }
    }
}
