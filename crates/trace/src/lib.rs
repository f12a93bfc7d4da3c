//! `nanocost-trace` — a dependency-free tracing and
//! evaluation-provenance layer for the nanocost model pipeline.
//!
//! The paper's argument stands or falls on *which* equation (eqs. 1–7)
//! produced each number under *which* inputs. This crate makes every
//! model evaluation observable without adding a single external
//! dependency:
//!
//! * **Spans** ([`span!`]) — a thread-local span stack with
//!   guard-on-drop semantics; nesting survives early returns and panics.
//!   A span's exit record carries its elapsed time, so a timed region
//!   is a span.
//! * **Events** ([`event!`]) — point-in-time records with typed
//!   key-value fields.
//! * **Provenance** ([`provenance!`]) — each instrumented model function
//!   reports the paper equation it implements ([`Equation`]) plus its
//!   inputs and outputs, so a full Figure-4 sweep can be replayed as an
//!   audit trail. A memo hit hands its stored calls back as one shared
//!   [`RecordKind::Replay`] ([`provenance::replay`]), which every
//!   exporter renders as the provenance records it stands for.
//! * **Stack profiler** ([`stack_registry`]) — span guards publish the
//!   live stack into per-thread seqlock slots; a background sampler
//!   walks them at `NANOCOST_PROFILE_HZ` and emits
//!   `"type":"stack_sample"` records with per-request attribution.
//! * **Exporters** — human-readable span tree, JSONL, and Chrome
//!   trace-event format (loadable in `chrome://tracing` / Perfetto),
//!   selected via environment variables (see [`init_from_env`]).
//!
//! Every macro first asks [`is_enabled`], which reads four relaxed
//! atomics: the global subscriber flag, the profiler flag, and the
//! thread-local collector and capture-frame counts (each count only
//! sends the check on to this thread's own slot when it is non-zero).
//! With none of them set, a macro allocates nothing, takes no branch
//! and reads no clock; a guard test asserts it allocates nothing. An
//! armed profiler keeps the check true on every thread, so under
//! `NANOCOST_PROFILE_HZ` every span builds its records even when no
//! subscriber takes them.
//!
//! # Environment variables
//!
//! | variable | meaning |
//! |----------|---------|
//! | `NANOCOST_TRACE` | enables tracing; value selects the format (`text`, `jsonl`, `chrome`; `1`/`on`/`true` mean `text`; `0`/`off`/`false`/empty leave it off; anything else is reported and leaves it off) |
//! | `NANOCOST_TRACE_FILE` | writes the trace to this path instead of the default (stderr for `text`/`jsonl`, `nanocost_trace.chrome.json` for `chrome`) |
//! | `NANOCOST_PROFILE_HZ` | starts the stack-sampling profiler (see [`stack_registry`]) at this rate; `0`/`off` disables, `1`/`on` use the 99 Hz default |
//!
//! # Example
//!
//! ```
//! use nanocost_trace::{span, event, with_collector, RecordKind};
//!
//! let (records, _) = with_collector(|| {
//!     let _outer = span!("figure4.panel", volume = 5_000u64);
//!     event!("optimum.found", sd = 300.0, cost = 1.2e-6);
//! });
//! assert!(matches!(records[0].kind, RecordKind::SpanEnter { .. }));
//! ```

pub mod export;
pub mod provenance;
pub mod record;
pub mod span;
pub mod stack_registry;
pub mod subscriber;
pub mod value;

pub use export::{ChromeExporter, Exporter, Format, JsonlExporter, TextTreeExporter};
pub use provenance::Equation;
pub use record::{ProvenanceCall, Record, RecordKind};
pub use span::Span;
pub use subscriber::{Collector, Subscriber, WriterSubscriber};
pub use value::{Field, Value};

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The globally installed subscriber, if any.
static GLOBAL: OnceLock<Box<dyn Subscriber + Send + Sync>> = OnceLock::new();

/// Fast-path switch for the global subscriber.
static GLOBAL_ENABLED: AtomicBool = AtomicBool::new(false);

/// Number of threads currently running under a thread-local collector
/// (see [`with_collector`]). Zero in production, so the disabled fast
/// path never touches thread-local storage.
static LOCAL_COUNT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Thread-local subscriber override, used by tests so concurrent
    /// `cargo test` threads do not share one global sink.
    static LOCAL: RefCell<Option<Rc<dyn Subscriber>>> = const { RefCell::new(None) };
}

/// Number of capture frames currently open across all threads (see
/// [`with_capture`]). Zero in production unless a request or a cache
/// miss is being recorded, so the disabled fast path never touches
/// thread-local storage.
static CAPTURE_COUNT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stack of open capture frames. Unlike [`LOCAL`],
    /// captures *tee*: every record is appended to each open frame and
    /// still delivered to the thread-local or global subscriber.
    static CAPTURE: RefCell<Vec<Vec<Record>>> = const { RefCell::new(Vec::new()) };

    /// This thread's stack of open request scopes (see
    /// [`request_scope`]). The innermost scope's id is stamped on every
    /// record dispatched from this thread.
    static REQ_SCOPE: RefCell<Vec<std::sync::Arc<str>>> = const { RefCell::new(Vec::new()) };
}

/// Monotonic epoch shared by every record in the process; timestamps are
/// microseconds since the first record (or subscriber installation).
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// The process-wide fleet replica label (set once, from
/// `NANOCOST_REPLICA` or [`set_replica`]); every dispatched record
/// carries a clone so multi-replica captures stay distinguishable after
/// they are merged.
static REPLICA: OnceLock<std::sync::Arc<str>> = OnceLock::new();

/// Monotonically increasing span-id source.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Thread-id source (std's `ThreadId` has no stable integer accessor).
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// This thread's small integer id, assigned on first use.
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// Is any subscriber (global or thread-local) listening, or the stack
/// profiler armed? This is the fast path every macro checks first: a
/// handful of relaxed atomic loads, nothing else. Profiling counts as
/// enabled because span guards are what publish the stacks the sampler
/// reads — with no subscriber installed their records are simply
/// dropped at dispatch.
#[inline]
#[must_use]
pub fn is_enabled() -> bool {
    GLOBAL_ENABLED.load(Ordering::Relaxed)
        || stack_registry::profiling_enabled()
        || (LOCAL_COUNT.load(Ordering::Relaxed) > 0 && has_local())
        || (CAPTURE_COUNT.load(Ordering::Relaxed) > 0 && has_capture())
}

/// Does *this* thread have a local collector installed?
fn has_local() -> bool {
    LOCAL
        .try_with(|l| l.try_borrow().map(|s| s.is_some()).unwrap_or(false))
        .unwrap_or(false)
}

/// Does *this* thread have an open capture frame?
fn has_capture() -> bool {
    CAPTURE
        .try_with(|c| c.try_borrow().map(|s| !s.is_empty()).unwrap_or(false))
        .unwrap_or(false)
}

/// Microseconds since the process trace epoch.
#[must_use]
pub fn epoch_micros() -> u64 {
    let e = EPOCH.get_or_init(Instant::now);
    u64::try_from(e.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Nanoseconds since the process trace epoch — the finer clock the
/// stack sampler stamps its samples with.
#[must_use]
pub fn epoch_nanos() -> u64 {
    let e = EPOCH.get_or_init(Instant::now);
    u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// This thread's small integer id.
#[must_use]
pub fn current_thread_id() -> u64 {
    THREAD_ID.try_with(|t| *t).unwrap_or(0)
}

/// Allocates a fresh span id.
pub(crate) fn next_span_id() -> u64 {
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// RAII guard returned by [`request_scope`]; pops the scope on drop
/// (including during unwinding), so attribution cannot leak across
/// requests even when a handler panics.
#[derive(Debug)]
pub struct RequestScope {
    installed: bool,
}

impl Drop for RequestScope {
    fn drop(&mut self) {
        if self.installed {
            let _ = REQ_SCOPE.try_with(|s| {
                if let Ok(mut stack) = s.try_borrow_mut() {
                    stack.pop();
                }
            });
        }
    }
}

/// Opens a request scope on this thread: until the returned guard
/// drops, every record dispatched from this thread carries `id` in its
/// [`Record::req_id`] field. Scopes nest (innermost wins), so a
/// sub-request recorded inside a batch keeps its own attribution. The
/// query server opens one scope per `serve.request` span; everything
/// emitted while handling the request — span enter/exit, events,
/// provenance — is thereby tagged, which is what lets
/// a histogram exemplar's `req_id` resolve to a full trace later.
#[must_use]
pub fn request_scope(id: &str) -> RequestScope {
    let installed = REQ_SCOPE
        .try_with(|s| {
            if let Ok(mut stack) = s.try_borrow_mut() {
                stack.push(std::sync::Arc::from(id));
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    RequestScope { installed }
}

/// The innermost open request scope's id on this thread, if any.
#[must_use]
pub fn current_request_id() -> Option<std::sync::Arc<str>> {
    REQ_SCOPE
        .try_with(|s| s.try_borrow().ok().and_then(|stack| stack.last().cloned()))
        .unwrap_or(None)
}

/// Labels this process as one replica of a fleet: every record
/// dispatched from now on carries the label in [`Record::replica`], so
/// captures from different replicas can be merged without confusing
/// their (per-process, epoch-relative) timestamps. First caller wins —
/// the label is process-wide identity, not per-request state. Returns
/// `false` when a label was already set (including by
/// [`init_from_env`] reading `NANOCOST_REPLICA`). Empty labels are
/// ignored: an unlabeled process stays unlabeled rather than claiming
/// the empty string as an identity.
pub fn set_replica(label: &str) -> bool {
    let label = label.trim();
    if label.is_empty() {
        return false;
    }
    REPLICA.set(std::sync::Arc::from(label)).is_ok()
}

/// The process's fleet replica label, if one was set.
#[must_use]
pub fn current_replica() -> Option<std::sync::Arc<str>> {
    REPLICA.get().cloned()
}

/// Delivers a record to the active subscriber (thread-local collector
/// first, then the global sink). A no-op when nothing is listening.
pub fn dispatch(kind: RecordKind) {
    let rec = Record {
        ts_micros: epoch_micros(),
        thread: current_thread_id(),
        req_id: current_request_id(),
        replica: current_replica(),
        kind,
    };
    deliver(&rec);
}

/// [`dispatch`] with an explicit origin and request attribution: the
/// stack sampler emits another thread's stack with *that* thread's id
/// and request scope, not the sampler thread's own (which has none).
pub fn dispatch_stamped(ts_micros: u64, thread: u64, req_id: Option<&str>, kind: RecordKind) {
    let rec = Record {
        ts_micros,
        thread,
        req_id: req_id.map(std::sync::Arc::from),
        replica: current_replica(),
        kind,
    };
    deliver(&rec);
}

/// The shared back half of dispatch: tee into captures, then the
/// thread-local collector, then the global subscriber.
fn deliver(rec: &Record) {
    // Tee into every open capture frame on this thread first, so a
    // capture sees the record even when a local collector or the
    // global subscriber also consumes it.
    if CAPTURE_COUNT.load(Ordering::Relaxed) > 0 {
        let _ = CAPTURE.try_with(|c| {
            if let Ok(mut frames) = c.try_borrow_mut() {
                for frame in frames.iter_mut() {
                    frame.push(rec.clone());
                }
            }
        });
    }
    if LOCAL_COUNT.load(Ordering::Relaxed) > 0 {
        let handled = LOCAL
            .try_with(|l| {
                l.try_borrow()
                    .ok()
                    .and_then(|slot| slot.as_ref().map(|s| s.record(rec)))
                    .is_some()
            })
            .unwrap_or(false);
        if handled {
            return;
        }
    }
    if GLOBAL_ENABLED.load(Ordering::Relaxed) {
        if let Some(s) = GLOBAL.get() {
            s.record(rec);
        }
    }
}

/// Installs the process-global subscriber. Returns `false` (and leaves
/// the existing subscriber in place) if one was already installed.
pub fn set_subscriber(sub: Box<dyn Subscriber + Send + Sync>) -> bool {
    let fresh = GLOBAL.set(sub).is_ok();
    if fresh {
        // Anchor the epoch before the first record, then open the gate.
        let _ = epoch_micros();
        GLOBAL_ENABLED.store(true, Ordering::Release);
    }
    fresh
}

/// Runs `f` with a thread-local [`Collector`] installed, returning the
/// captured records alongside `f`'s result. Only this thread's records
/// are captured; the global subscriber (if any) is shadowed for the
/// duration. Designed for tests.
pub fn with_collector<R>(f: impl FnOnce() -> R) -> (Vec<Record>, R) {
    let collector = Rc::new(Collector::new());
    let installed = LOCAL
        .try_with(|l| {
            if let Ok(mut slot) = l.try_borrow_mut() {
                *slot = Some(collector.clone() as Rc<dyn Subscriber>);
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    if installed {
        LOCAL_COUNT.fetch_add(1, Ordering::Relaxed);
    }
    let result = f();
    if installed {
        let _ = LOCAL.try_with(|l| {
            if let Ok(mut slot) = l.try_borrow_mut() {
                *slot = None;
            }
        });
        LOCAL_COUNT.fetch_sub(1, Ordering::Relaxed);
    }
    (collector.take(), result)
}

/// Runs `f` with a *tee* capture frame open on this thread, returning
/// the records `f` emitted alongside its result. Unlike
/// [`with_collector`], a capture does not shadow anything: every record
/// is appended to the frame **and** still delivered to the thread-local
/// or global subscriber. Captures nest (inner records also land in
/// outer frames), and while a frame is open the trace macros are
/// enabled even with no subscriber installed — this is how the scenario
/// cache records the provenance of a miss and how the query server
/// snapshots a request for `/v1/trace/<id>` replay.
pub fn with_capture<R>(f: impl FnOnce() -> R) -> (Vec<Record>, R) {
    let installed = CAPTURE
        .try_with(|c| {
            if let Ok(mut frames) = c.try_borrow_mut() {
                frames.push(Vec::new());
                true
            } else {
                false
            }
        })
        .unwrap_or(false);
    if installed {
        CAPTURE_COUNT.fetch_add(1, Ordering::Relaxed);
    }
    let result = f();
    let records = if installed {
        CAPTURE_COUNT.fetch_sub(1, Ordering::Relaxed);
        CAPTURE
            .try_with(|c| {
                c.try_borrow_mut()
                    .ok()
                    .and_then(|mut frames| frames.pop())
                    .unwrap_or_default()
            })
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    (records, result)
}

/// Finalizes the global subscriber's sink (exporter footer, output
/// buffers). Idempotent.
pub fn flush() {
    if let Some(s) = GLOBAL.get() {
        s.flush();
    }
}

/// RAII guard returned by [`init_from_env`]; flushes the trace
/// (exporter footer, output buffers) when dropped.
#[derive(Debug)]
pub struct TraceGuard {
    active: bool,
}

impl TraceGuard {
    /// A guard that does nothing on drop (tracing disabled).
    #[must_use]
    pub fn inactive() -> Self {
        TraceGuard { active: false }
    }

    /// Is a subscriber actually installed behind this guard?
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if self.active {
            flush();
        }
    }
}

/// Reads `NANOCOST_TRACE` / `NANOCOST_TRACE_FILE` and installs a
/// [`WriterSubscriber`]
/// accordingly; also adopts `NANOCOST_REPLICA` as the process's fleet
/// label (see [`set_replica`]) whether or not a sink is configured.
/// Call once near the top of `main` and keep the returned guard alive
/// for the whole run:
///
/// ```no_run
/// let _trace = nanocost_trace::init_from_env();
/// // ... workload ...
/// // the guard drops at the end of `main`: exporter finalized
/// ```
#[must_use]
pub fn init_from_env() -> TraceGuard {
    // The replica label applies regardless of whether a trace sink is
    // configured: capture frames (the serve trace ring) tee records
    // even with no global subscriber, and those records must still be
    // distinguishable once merged across a fleet.
    if let Ok(label) = std::env::var("NANOCOST_REPLICA") {
        let _ = set_replica(&label);
    }
    let Some(spec) = std::env::var_os("NANOCOST_TRACE") else {
        return TraceGuard::inactive();
    };
    let format = match parse_trace_format(&spec.to_string_lossy()) {
        Ok(Some(format)) => format,
        Ok(None) => return TraceGuard::inactive(),
        #[expect(
            clippy::print_stderr,
            reason = "env misconfiguration diagnostic during init; library has no other channel and must not abort the host's run"
        )]
        Err(msg) => {
            eprintln!("nanocost-trace: {msg}; tracing stays off");
            return TraceGuard::inactive();
        }
    };
    let exporter = format.exporter();
    let out: Box<dyn std::io::Write + Send> = match trace_output_path(format) {
        Some(path) => match std::fs::File::create(&path) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            #[expect(
                clippy::print_stderr,
                reason = "last-resort diagnostic when the trace sink itself cannot be opened; stderr is the only channel left"
            )]
            Err(e) => {
                eprintln!("nanocost-trace: cannot open {path}: {e}; falling back to stderr");
                Box::new(std::io::BufWriter::new(std::io::stderr()))
            }
        },
        None => Box::new(std::io::BufWriter::new(std::io::stderr())),
    };
    let installed = set_subscriber(Box::new(WriterSubscriber::new(exporter, out)));
    if installed {
        match stack_registry::profile_hz_from_env() {
            Ok(stack_registry::ProfileHz::Hz(hz)) => {
                let _ = stack_registry::start_sampler(hz);
            }
            Ok(_) => {}
            #[expect(
                clippy::print_stderr,
                reason = "env misconfiguration diagnostic during init; library has no other channel and must not abort the host's run"
            )]
            Err(msg) => {
                eprintln!("nanocost-trace: {msg}; profiler stays off");
            }
        }
    }
    TraceGuard { active: installed }
}

/// Parses `NANOCOST_TRACE`: a [`Format`] name or on-switch selects that
/// format, `0`/`off`/`false`/empty leave tracing off, and anything else
/// is an error, so a typo like `jsnol` fails loudly instead of tracing
/// the text tree to stderr.
fn parse_trace_format(raw: &str) -> Result<Option<Format>, String> {
    match raw.trim().to_ascii_lowercase().as_str() {
        "" | "0" | "off" | "false" => Ok(None),
        spec => Format::parse(spec)
            .map(Some)
            .ok_or_else(|| format!("NANOCOST_TRACE: not a format or on/off switch: {raw:?}")),
    }
}

/// Where the trace stream goes: an explicit `NANOCOST_TRACE_FILE`, the
/// Chrome default file (the format is only useful loaded from a file),
/// or `None` for stderr.
fn trace_output_path(format: Format) -> Option<String> {
    match std::env::var("NANOCOST_TRACE_FILE") {
        Ok(p) if !p.trim().is_empty() => Some(p),
        _ => match format {
            Format::Chrome => Some("nanocost_trace.chrome.json".to_string()),
            Format::Text | Format::Jsonl => None,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        assert!(!is_enabled() || GLOBAL_ENABLED.load(Ordering::Relaxed));
    }

    #[test]
    fn collector_captures_and_uninstalls() {
        let (records, value) = with_collector(|| {
            dispatch(RecordKind::Event {
                span: None,
                name: "unit.test",
                fields: vec![],
            });
            42
        });
        assert_eq!(value, 42);
        assert_eq!(records.len(), 1);
        // After the closure, this thread no longer collects.
        assert!(!has_local());
    }

    #[test]
    fn capture_tees_into_a_shadowing_collector() {
        // The collector shadows the global sink; the capture must still
        // see every record, and the collector must too (tee semantics).
        let (collected, (captured, _)) = with_collector(|| {
            with_capture(|| {
                dispatch(RecordKind::Event {
                    span: None,
                    name: "unit.capture",
                    fields: vec![],
                });
            })
        });
        assert_eq!(collected.len(), 1);
        assert_eq!(captured.len(), 1);
        assert_eq!(collected[0].kind, captured[0].kind);
    }

    #[test]
    fn capture_enables_macros_without_a_subscriber() {
        // No global, no collector: a capture frame alone switches the
        // macros on for the duration.
        let (captured, _) = with_capture(|| {
            event!("unit.capture.solo", v = 1.5);
        });
        assert_eq!(captured.len(), 1);
        assert!(!has_capture(), "frame must close");
    }

    #[test]
    fn captures_nest_and_outer_sees_inner() {
        let (outer, (inner, _)) = with_capture(|| {
            with_capture(|| {
                dispatch(RecordKind::Event { span: None, name: "unit.nested", fields: vec![] });
            })
        });
        assert_eq!(inner.len(), 1);
        assert_eq!(outer.len(), 1);
    }

    #[test]
    fn request_scope_tags_records_and_pops_on_drop() {
        let (records, _) = with_capture(|| {
            dispatch(RecordKind::Event { span: None, name: "unit.before", fields: vec![] });
            {
                let _scope = request_scope("r42");
                dispatch(RecordKind::Event { span: None, name: "unit.inside", fields: vec![] });
            }
            dispatch(RecordKind::Event { span: None, name: "unit.after", fields: vec![] });
        });
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].req_id, None);
        assert_eq!(records[1].req_id.as_deref(), Some("r42"));
        assert_eq!(records[2].req_id, None);
    }

    #[test]
    fn request_scopes_nest_innermost_wins() {
        let _outer = request_scope("outer");
        assert_eq!(current_request_id().as_deref(), Some("outer"));
        {
            let _inner = request_scope("inner");
            assert_eq!(current_request_id().as_deref(), Some("inner"));
        }
        assert_eq!(current_request_id().as_deref(), Some("outer"));
    }

    #[test]
    fn thread_ids_are_stable_within_a_thread() {
        assert_eq!(current_thread_id(), current_thread_id());
    }

    #[test]
    fn epoch_is_monotone() {
        let a = epoch_micros();
        let b = epoch_micros();
        assert!(b >= a);
    }

    #[test]
    fn trace_format_parses_strictly() {
        for (spec, format) in [
            ("text", Format::Text),
            ("1", Format::Text),
            ("On", Format::Text),
            ("true", Format::Text),
            (" jsonl ", Format::Jsonl),
            ("CHROME", Format::Chrome),
        ] {
            assert_eq!(parse_trace_format(spec), Ok(Some(format)), "{spec:?}");
        }
        for off in ["", " ", "0", "off", "FALSE"] {
            assert_eq!(parse_trace_format(off), Ok(None), "{off:?}");
        }
        for typo in ["jsnol", "json", "tree", "yes"] {
            let err = parse_trace_format(typo).expect_err(typo);
            assert_eq!(err, format!("NANOCOST_TRACE: not a format or on/off switch: {typo:?}"));
        }
    }

    #[test]
    fn inactive_guard_is_inert() {
        let g = TraceGuard::inactive();
        assert!(!g.is_active());
        drop(g);
    }
}
