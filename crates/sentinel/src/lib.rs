//! nanocost-sentinel: the observability gate for the nanocost pipeline.
//!
//! Maly's argument (DAC 2001) is about *drift*: `s_d` and
//! cost-per-transistor quietly worsening release over release until the
//! economics break. The reproduction has the same exposure — a hot-path
//! regression or a silent numeric change in Eq.1–7 would go unnoticed
//! without a checking layer. This crate is that layer, and it is
//! deliberately dependency-free so every other crate may depend on it:
//!
//! - [`histogram::LogHistogram`] — HDR-style log-linear histogram with a
//!   bounded relative error, lossless merging, and per-bucket
//!   [`histogram::Exemplar`]s (the most recent `(req_id, value, t_ns)`
//!   per bucket) that pivot an anonymous p99 to a fetchable request
//!   trace; backs the serve endpoint latency and queue-wait tables.
//! - [`slo`] — dual-window (fast/slow) SLO burn-rate evaluation over
//!   cumulative good/bad snapshots; backs the query server's
//!   `GET /v1/health` verdict and loadgen's soak pass/fail criteria.
//! - [`stats::mann_whitney`] — rank-based two-sample test used by the
//!   `bench_diff` bin to separate real latency shifts from noise.
//! - [`bench`](mod@bench) — parsing and statistical diffing of
//!   `NANOCOST_BENCH_JSON` capture files: the parent commit's pooled
//!   suite runs against the change's, in `scripts/ci.sh`'s paired
//!   perf gate.
//! - [`profile`] — times the spans of a parsed capture into
//!   folded-stack flamegraph lines and a self/total-time hotspot table
//!   (the `trace_profile` bin), with optional time-windowing; also
//!   aggregates the sampling profiler's `stack_sample` records into a
//!   deterministic [`profile::ProfileReport`] that `/v1/profile` serves
//!   and the `profile_diff` bin gates on.
//! - [`timeline`] — the one parse of a JSONL capture (id-keyed span
//!   intervals and the time range) that every `trace_profile` span view
//!   reads, plus the `--since`/`--until` window algebra.
//! - [`fingerprint`] — canonical digests of the Eq.1–7 provenance
//!   stream, checked into `FINGERPRINTS.json` so numeric drift in the
//!   cost model fails CI with a per-equation diff (the `fingerprint`
//!   bin).
//! - [`attach`] — the workspace's one zero-dependency HTTP/1.1 client:
//!   bounded single-attempt requests for `loadgen` and the serve
//!   tests, and retrying scrapes of a live `nanocost-serve`'s
//!   `/v1/metrics/raw` and `/v1/profile` for `fleet_report`.
//! - [`federate`] — the mergeable raw-metrics wire format behind
//!   `GET /v1/metrics/raw` and the N-replica aggregation (fleet
//!   quantiles, per-replica skew, summed burn verdicts, merged
//!   profiles) behind the `fleet_report` bin.
//! - [`json`] — the minimal value-tree JSON parser the above share.

pub mod attach;
pub mod bench;
pub mod federate;
pub mod fingerprint;
pub mod histogram;
pub mod json;
pub mod profile;
pub mod slo;
pub mod stats;
pub mod timeline;

pub use federate::{FleetView, RawSnapshot};
pub use histogram::{Exemplar, LogHistogram, RawHistogram};
pub use slo::{BurnReport, Objective, SloMonitor};
pub use stats::{mann_whitney, MannWhitney, MIN_SAMPLES};

use std::fmt;

/// Errors produced by the sentinel library.
#[derive(Debug, Clone, PartialEq)]
pub enum SentinelError {
    /// A histogram grid that is not a power of two in `1..=4096`.
    BadGrid(u32),
    /// Attempted to merge histograms built with different grids.
    GridMismatch(u32, u32),
    /// A JSON document failed to parse (line number is 1-based; 0 when
    /// the input is a single document rather than a line stream).
    Parse {
        /// 1-based line of the offending document, 0 for whole-input.
        line: usize,
        /// Underlying parser diagnostic.
        error: json::JsonError,
    },
    /// A parsed document is valid JSON but not the expected shape.
    Schema {
        /// 1-based line of the offending document, 0 for whole-input.
        line: usize,
        /// What was missing or mistyped.
        message: String,
    },
    /// An I/O failure, tagged with the path involved.
    Io {
        /// The file being read or written.
        path: String,
        /// The OS error text.
        message: String,
    },
}

impl fmt::Display for SentinelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SentinelError::BadGrid(g) => {
                write!(f, "histogram grid must be a power of two in 1..=4096, got {g}")
            }
            SentinelError::GridMismatch(a, b) => {
                write!(f, "cannot merge histograms with different grids ({a} vs {b})")
            }
            SentinelError::Parse { line: 0, error } => write!(f, "JSON parse error: {error}"),
            SentinelError::Parse { line, error } => {
                write!(f, "JSON parse error on line {line}: {error}")
            }
            SentinelError::Schema { line: 0, message } => write!(f, "schema error: {message}"),
            SentinelError::Schema { line, message } => {
                write!(f, "schema error on line {line}: {message}")
            }
            SentinelError::Io { path, message } => write!(f, "{path}: {message}"),
        }
    }
}

impl std::error::Error for SentinelError {}

impl SentinelError {
    /// Wraps an I/O error with the path it occurred on.
    #[must_use]
    pub fn io(path: &str, err: &std::io::Error) -> Self {
        SentinelError::Io { path: path.to_string(), message: err.to_string() }
    }
}

/// A [`SentinelError::Schema`] for a line that parsed as JSON but is
/// not the expected shape.
pub(crate) fn schema(line: usize, message: &str) -> SentinelError {
    SentinelError::Schema { line, message: message.to_string() }
}

/// Renders a string as a quoted JSON literal. Objective names, frame
/// names and request ids are plain identifiers, but every rendered
/// document must stay valid JSON for any input.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
