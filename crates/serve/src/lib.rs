//! `nanocost-serve` — a zero-dependency query server over the nanocost
//! cost models.
//!
//! The paper's eqs. 1–7 are *queries* a design team asks repeatedly
//! while exploring the `(λ, s_d, N_tr, N_w, Y)` space; this crate turns
//! the reproduction into the long-running service that exploration loop
//! wants. Plain `std::net` HTTP/1.1, a fixed worker pool, and JSON
//! endpoints backed by the [`nanocost_core::ScenarioCache`]:
//!
//! | Endpoint | Method | Answers |
//! |---|---|---|
//! | `/v1/cost` | POST | eq. 4 cost breakdown at a design point |
//! | `/v1/yield` | POST | eq. 7 generalized report (yield surface) |
//! | `/v1/optimum` | POST | §3.1 cost-optimal `s_d*` |
//! | `/v1/batch` | POST | eq.-4 grid evaluation, in request order |
//! | `/v1/metrics` | GET | latency quantiles + p99 exemplars + counters + cache hit rates |
//! | `/v1/metrics/raw` | GET | mergeable raw state (histogram buckets, windowed SLO counters) for federation |
//! | `/v1/health` | GET | SLO burn-rate verdict (200 ok / 503 firing) |
//! | `/v1/trace/<req-id>` | GET | the request's full trace capture (JSONL) |
//! | `/v1/provenance/<req-id>` | GET | alias of `/v1/trace/<req-id>` |
//!
//! Every model request runs inside a `nanocost-trace` capture frame
//! under an installed request scope, so every captured record carries
//! the request's `req_id`; captures are stored in a configurable ring
//! and replayable as JSONL that passes `trace_check`. Per-endpoint
//! latencies feed `nanocost-sentinel`
//! [`LogHistogram`](nanocost_sentinel::LogHistogram)s whose per-bucket
//! exemplars let `/v1/metrics` link an anonymous p99 to a fetchable
//! trace, and latency/shed events feed dual-window
//! [`SloMonitor`](nanocost_sentinel::SloMonitor)s behind `/v1/health`.
//! The `loadgen` bin drives concurrent request mixes, checks soak
//! pass/fail criteria against those SLOs, and emits a
//! `NANOCOST_BENCH_JSON` capture so `bench_diff` can gate server
//! latency like any other benchmark. `/v1/metrics/raw` publishes a
//! replica's *mergeable* state (raw histogram buckets with
//! replica-tagged exemplars, summable windowed SLO counters) in the
//! [`nanocost_sentinel::federate`] wire format; each replica of a
//! fleet is labeled via `NANOCOST_REPLICA`, and `fleet_report` is the
//! one reader of live state, folding one replica or N into a
//! fleet-wide view.

#![warn(missing_docs)]

pub mod api;
pub mod http;
pub mod server;
pub mod state;

pub use api::handle;
pub use http::{read_request, ParseError, Request, Response};
pub use server::{Server, ServerConfig};
pub use state::{render_access_record, ServerState, ServerStateConfig};
