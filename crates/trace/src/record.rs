//! The record types delivered to subscribers.

use std::borrow::Cow;
use std::sync::Arc;

use crate::provenance::Equation;
use crate::value::Field;

/// One model-function invocation as provenance stores it: the paper
/// equation, the function, and its inputs and outputs. A memo entry
/// keeps the calls its evaluation emitted and hands them back, shared,
/// in one [`RecordKind::Replay`] on every hit.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvenanceCall {
    /// The paper equation the function implements.
    pub equation: Equation,
    /// Fully qualified function name.
    pub function: &'static str,
    /// Input quantities.
    pub inputs: Vec<Field>,
    /// Output quantities.
    pub outputs: Vec<Field>,
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum RecordKind {
    /// A span opened.
    SpanEnter {
        /// Process-unique span id.
        span: u64,
        /// Enclosing span on the same thread, if any.
        parent: Option<u64>,
        /// Span name.
        name: &'static str,
        /// Fields captured at entry.
        fields: Vec<Field>,
    },
    /// A span closed (guard dropped, including during unwinding).
    SpanExit {
        /// The span that closed.
        span: u64,
        /// Span name (repeated so exporters need no lookup table).
        name: &'static str,
        /// Wall-clock nanoseconds the span was open.
        elapsed_nanos: u64,
    },
    /// A point-in-time event.
    Event {
        /// Innermost open span on this thread, if any.
        span: Option<u64>,
        /// Event name.
        name: &'static str,
        /// Event fields.
        fields: Vec<Field>,
    },
    /// An evaluation-provenance record: one model-function invocation,
    /// the paper equation it implements, and its inputs/outputs.
    Provenance {
        /// Innermost open span on this thread, if any.
        span: Option<u64>,
        /// The paper equation the function implements.
        equation: Equation,
        /// Fully qualified function name.
        function: &'static str,
        /// Input quantities.
        inputs: Vec<Field>,
        /// Output quantities.
        outputs: Vec<Field>,
    },
    /// Stored provenance replayed by a memo hit: it stands for one
    /// [`RecordKind::Provenance`] per call, all under this record's
    /// envelope, and shares the calls with the memo instead of copying
    /// them. Exporters and the test [`Collector`](crate::Collector)
    /// expand it with [`Record::expand`].
    Replay {
        /// Innermost open span on this thread, if any.
        span: Option<u64>,
        /// The replayed calls, in the order they were first emitted.
        calls: Arc<[ProvenanceCall]>,
    },
    /// One stack sample from the in-process profiler: a consistent copy
    /// of the sampled thread's span-name stack, taken by the
    /// [`crate::stack_registry`] sampler thread. The record's envelope
    /// carries the *sampled* thread's id and request scope, not the
    /// sampler's, so per-request CPU attribution falls out of the same
    /// `req_id` plumbing every other record uses.
    StackSample {
        /// Span names, outermost first (clamped to
        /// [`crate::stack_registry::MAX_FRAMES`] entries).
        frames: Vec<&'static str>,
        /// The sampled thread's full logical stack depth; exceeds
        /// `frames.len()` when the stack was deeper than the clamp.
        depth: u64,
        /// Nanoseconds since the process trace epoch at sample time
        /// (monotone per sampled thread).
        t_ns: u64,
    },
}

impl RecordKind {
    /// Stable lowercase tag used by the JSONL exporter's `type` key.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            RecordKind::SpanEnter { .. } => "span_enter",
            RecordKind::SpanExit { .. } => "span_exit",
            RecordKind::Event { .. } => "event",
            RecordKind::Provenance { .. } | RecordKind::Replay { .. } => "provenance",
            RecordKind::StackSample { .. } => "stack_sample",
        }
    }
}

/// One record: when, where, what — and, under a request scope, *whose*.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Microseconds since the process trace epoch.
    pub ts_micros: u64,
    /// Small integer id of the emitting thread.
    pub thread: u64,
    /// The request this record was emitted on behalf of, when the
    /// emitting thread had a [`crate::request_scope`] open (the query
    /// server opens one per `serve.request` span). `None` for every
    /// record emitted outside a request scope — batch pipelines and
    /// benches.
    pub req_id: Option<std::sync::Arc<str>>,
    /// The fleet replica this record was emitted by, when the process
    /// was labeled (`NANOCOST_REPLICA` or [`crate::set_replica`]).
    /// `None` in unlabeled single-process runs. Timestamps are only
    /// comparable *within* one replica — each process has its own trace
    /// epoch — so federated tooling keys on `(replica, t)` pairs.
    pub replica: Option<std::sync::Arc<str>>,
    /// Payload.
    pub kind: RecordKind,
}

impl Record {
    /// A record with no request attribution — the common case for
    /// anything not emitted under [`crate::request_scope`]. The replica
    /// label still applies: it is process-wide, not per-request.
    #[must_use]
    pub fn unscoped(ts_micros: u64, thread: u64, kind: RecordKind) -> Self {
        Record { ts_micros, thread, req_id: None, replica: crate::current_replica(), kind }
    }

    /// The records this one stands for: a [`RecordKind::Replay`] is one
    /// [`RecordKind::Provenance`] per call under its envelope (`ts`,
    /// thread, `req_id`, replica, span), so a hit's replayed calls share
    /// one timestamp; any other record is itself.
    #[must_use]
    pub fn expand(&self) -> Cow<'_, [Record]> {
        let RecordKind::Replay { span, calls } = &self.kind else {
            return Cow::Borrowed(std::slice::from_ref(self));
        };
        let expanded = calls
            .iter()
            .map(|call| Record {
                ts_micros: self.ts_micros,
                thread: self.thread,
                req_id: self.req_id.clone(),
                replica: self.replica.clone(),
                kind: RecordKind::Provenance {
                    span: *span,
                    equation: call.equation,
                    function: call.function,
                    inputs: call.inputs.clone(),
                    outputs: call.outputs.clone(),
                },
            })
            .collect();
        Cow::Owned(expanded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tags_are_stable() {
        let e = RecordKind::Event { span: None, name: "x", fields: vec![] };
        assert_eq!(e.tag(), "event");
        let s = RecordKind::StackSample { frames: vec![], depth: 0, t_ns: 0 };
        assert_eq!(s.tag(), "stack_sample");
        let r = RecordKind::Replay { span: None, calls: Arc::from([]) };
        assert_eq!(r.tag(), "provenance");
    }
}
