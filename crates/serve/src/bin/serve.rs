//! nanocost-serve — serve the cost models over HTTP.
//!
//! Run with: `cargo run -p nanocost-serve --bin serve -- --port 8077`
//!
//! Options:
//!   --addr HOST:PORT   bind address (default 127.0.0.1:8077)
//!   --port PORT        shorthand for 127.0.0.1:PORT (0 = ephemeral)
//!   --workers N        worker thread count (default 4)
//!
//! Observability is configured through the environment (a typo'd value
//! refuses to start rather than serving with the wrong configuration):
//!   NANOCOST_SERVE_TRACE_RING   trace-capture ring capacity (256;
//!                               the ring also keeps within 64 MiB)
//!   NANOCOST_SERVE_ACCESS_LOG   JSONL access-log path (off)
//!   NANOCOST_PROFILE_HZ         span-stack sampling rate for the
//!                               continuous profiler (default 99;
//!                               0/off disables, on = default rate)
//!   NANOCOST_REPLICA            this replica's fleet label (unset =
//!                               unlabeled); stamped onto trace
//!                               records, p99 exemplars, and the
//!                               /v1/metrics/raw envelope so
//!                               fleet_report can merge replicas
//!
//! The SLO objectives are fixed: a request slower than 250 ms is bad
//! for the latency objective (target 0.99), the shed objective targets
//! 0.95, and `/v1/health` fires when both the 60 s and the 1,800 s
//! burn rates exceed 2.0. The profile ring keeps 65,536 samples.
//!
//! The process exits cleanly (status 0) on SIGTERM or SIGINT; pair it
//! with `loadgen` for a driven run, `fleet_report <host:port>...` for
//! a live view of one replica or many (it reads the mergeable state on
//! `GET /v1/metrics/raw`), `GET /v1/metrics` for quantiles with
//! exemplars, `GET /v1/health` for the SLO burn verdict, and
//! `GET /v1/profile?window_s=N` (merged into `fleet_report`'s artifact)
//! for the continuous sampling profiler's hotspot report.

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

use std::sync::atomic::{AtomicBool, Ordering};

use nanocost_serve::{Server, ServerConfig, ServerState, ServerStateConfig};

static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

extern "C" {
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let _trace = nanocost_trace::init_from_env();
    let mut config = ServerConfig {
        addr: "127.0.0.1:8077".to_string(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.next().ok_or("--addr needs HOST:PORT")?,
            "--port" => {
                let port: u16 = args.next().ok_or("--port needs a number")?.parse()?;
                config.addr = format!("127.0.0.1:{port}");
            }
            "--workers" => config.workers = args.next().ok_or("--workers needs a number")?.parse()?,
            "--help" | "-h" => {
                println!("usage: serve [--addr HOST:PORT | --port PORT] [--workers N]");
                return Ok(());
            }
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }
    unsafe {
        signal(SIGTERM, on_signal);
        signal(SIGINT, on_signal);
    }
    let state_cfg = ServerStateConfig::from_env()?;
    let state = ServerState::with_config(state_cfg)?;
    let server = Server::bind_with_state(config, state)?;
    // The "listening on" line is the readiness handshake scripts wait
    // for; flush so a pipe reader sees it immediately.
    println!("nanocost-serve listening on {}", server.local_addr()?);
    use std::io::Write as _;
    std::io::stdout().flush()?;
    server.run(&SHUTDOWN)?;
    let stats = server.state().cache().stats();
    println!(
        "nanocost-serve shut down cleanly; cache {} hits / {} misses",
        stats.hits, stats.misses
    );
    Ok(())
}
