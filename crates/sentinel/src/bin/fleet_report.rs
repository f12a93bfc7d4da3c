//! `fleet_report` — snapshot a fleet of `nanocost-serve` replicas into
//! one federated JSON artifact.
//!
//! ```text
//! fleet_report 127.0.0.1:8077 127.0.0.1:8078            # print fleet view
//! fleet_report url... --health                          # exit 1 if an SLO fires
//! fleet_report url... --reconcile                       # cross-check merge sums
//! fleet_report url... -o fleet.json --window-s 10
//! ```
//!
//! Each target's `GET /v1/metrics/raw` scrape is parsed into a
//! [`RawSnapshot`], the snapshots are merged with
//! [`FleetView::from_snapshots`] (histogram buckets add losslessly,
//! windowed SLO counters sum before the burn ratio is re-derived,
//! worker and cache counters total), and a best-effort
//! `GET /v1/profile` scrape per replica folds into one fleet hotspot
//! table with request ids namespaced `<replica>/<req-id>`. Replicas
//! that run unlabeled (no `NANOCOST_REPLICA`) are identified by their
//! scrape target instead, so the merge never aliases two replicas.
//!
//! `--health` turns the federated burn verdict into an exit code (1
//! when any fleet-wide objective fires), `--reconcile` re-checks the
//! merge against the inputs (federated counts must equal the per-replica
//! sums and every fleet quantile must sit inside the per-replica
//! envelope) and fails loudly when the invariants do not hold.
//!
//! Exit code 0 on success, 1 when `--health` finds a firing objective,
//! 2 on usage, transport, parse, or reconciliation errors.

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

use std::process::ExitCode;

use nanocost_sentinel::attach::{parse_attach_target, scrape, scrape_ok};
use nanocost_sentinel::federate::{merge_profiles, FleetView, RawSnapshot};
use nanocost_sentinel::profile::ProfileReport;

const USAGE: &str = "usage: fleet_report <host:port>... [--window-s N] [--health] \
                     [--reconcile] [-o FILE]";

/// Default `/v1/profile` window each replica is asked for, in seconds.
const DEFAULT_PROFILE_WINDOW_S: u64 = 30;

/// HTTP status a successful profile scrape answers with.
const HTTP_OK: u16 = 200;

/// Parsed command line.
struct Options {
    /// Normalized `host:port` scrape targets, one per replica.
    targets: Vec<String>,
    /// Profile window requested from each replica.
    window_s: u64,
    /// Exit 1 when the federated SLO verdict is firing.
    health: bool,
    /// Cross-check the merge against the input snapshots.
    reconcile: bool,
    /// Write the artifact here instead of stdout.
    out: Option<String>,
}

fn parse_args(argv: &[String]) -> Result<Options, String> {
    let mut targets = Vec::new();
    let mut window_s = DEFAULT_PROFILE_WINDOW_S;
    let mut health = false;
    let mut reconcile = false;
    let mut out = None;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--health" => health = true,
            "--reconcile" => reconcile = true,
            "--window-s" => {
                let raw = args.next().ok_or_else(|| format!("--window-s needs a value\n{USAGE}"))?;
                window_s = raw
                    .parse()
                    .map_err(|_| format!("--window-s {raw}: not a number\n{USAGE}"))?;
            }
            "-o" | "--out" => {
                out = Some(args.next().ok_or_else(|| format!("-o needs a path\n{USAGE}"))?.clone());
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"))
            }
            other => targets.push(parse_attach_target(other).map_err(|e| format!("{e}\n{USAGE}"))?),
        }
    }
    if targets.is_empty() {
        return Err(format!("at least one replica target is required\n{USAGE}"));
    }
    Ok(Options { targets, window_s, health, reconcile, out })
}

/// Scrapes every target, federates, and returns the JSON artifact plus
/// the fleet health verdict.
fn run(opts: &Options) -> Result<(String, bool), String> {
    let mut snapshots = Vec::new();
    let mut profiles = Vec::new();
    for target in &opts.targets {
        let body = scrape_ok(target, "/v1/metrics/raw")?;
        let mut snap = RawSnapshot::parse(&body).map_err(|e| format!("{target}: {e}"))?;
        if snap.replica.is_empty() {
            // An unlabeled replica: its scrape target is the next-best
            // stable identity, and keeps the merge from aliasing two
            // unlabeled processes into one.
            snap.replica = target.clone();
        }
        let label = snap.replica.clone();
        // Best-effort: a replica with profiling off (or predating the
        // endpoint) simply contributes nothing to the fleet hotspots.
        let profile_path = format!("/v1/profile?window_s={}", opts.window_s);
        if let Ok((HTTP_OK, body)) = scrape(target, &profile_path) {
            if let Ok(report) = ProfileReport::from_json(&body) {
                if report.samples > 0 {
                    profiles.push((label, report));
                }
            }
        }
        snapshots.push(snap);
    }
    let mut view = FleetView::from_snapshots(&snapshots).map_err(|e| e.to_string())?;
    if !profiles.is_empty() {
        view.profile = Some(merge_profiles(&profiles));
    }
    if opts.reconcile {
        view.reconcile(&snapshots)
            .map_err(|violations| format!("fleet reconciliation failed:\n{violations}"))?;
    }
    let mut artifact = view.to_json();
    artifact.push('\n');
    Ok((artifact, view.healthy()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&argv) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok((artifact, healthy)) => {
            if let Some(path) = &opts.out {
                if let Err(e) = std::fs::write(path, &artifact) {
                    eprintln!("fleet_report: write {path}: {e}");
                    return ExitCode::from(2);
                }
                println!(
                    "fleet_report: {} replicas -> {path} ({})",
                    opts.targets.len(),
                    if healthy { "healthy" } else { "FIRING" }
                );
            } else {
                print!("{artifact}");
            }
            if opts.health && !healthy {
                eprintln!("fleet_report: an SLO burn objective is firing fleet-wide");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("fleet_report: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::{Read as _, Write as _};

    use nanocost_sentinel::federate::{RawSlo, RawWorker};
    use nanocost_sentinel::LogHistogram;

    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn arg_parsing_covers_flags_and_errors() {
        let o = parse_args(&args(&[
            "http://127.0.0.1:8077/v1/metrics",
            "127.0.0.1:8078",
            "--health",
            "--reconcile",
            "--window-s",
            "7",
            "-o",
            "fleet.json",
        ]))
        .expect("parses");
        assert_eq!(o.targets, vec!["127.0.0.1:8077", "127.0.0.1:8078"]);
        assert!(o.health && o.reconcile);
        assert_eq!(o.window_s, 7);
        assert_eq!(o.out.as_deref(), Some("fleet.json"));
        assert!(parse_args(&args(&[])).is_err(), "no targets is a usage error");
        assert!(parse_args(&args(&["no-port"])).is_err());
        assert!(parse_args(&args(&["h:1", "--window-s", "abc"])).is_err());
        assert!(parse_args(&args(&["h:1", "--bogus"])).is_err());
        assert!(parse_args(&args(&["h:1", "-o"])).is_err());
    }

    /// A canned replica: answers `/v1/metrics/raw` with the given JSON
    /// and 404s everything else, for `connections` sequential requests.
    fn canned_replica(raw_json: String, connections: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let handle = std::thread::spawn(move || {
            for _ in 0..connections {
                let (mut sock, _) = listener.accept().expect("accept");
                let mut request = Vec::new();
                let mut buf = [0u8; 1024];
                while !request.windows(4).any(|w| w == b"\r\n\r\n") {
                    let n = sock.read(&mut buf).expect("read request");
                    assert!(n > 0, "request truncated");
                    request.extend_from_slice(&buf[..n]);
                }
                let request = String::from_utf8_lossy(&request).into_owned();
                let (status, body) = if request.starts_with("GET /v1/metrics/raw ") {
                    ("200 OK", raw_json.clone())
                } else {
                    ("404 Not Found", String::new())
                };
                let reply = format!(
                    "HTTP/1.1 {status}\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                sock.write_all(reply.as_bytes()).expect("write response");
            }
        });
        (addr, handle)
    }

    /// One hand-built replica snapshot with a healthy latency SLO.
    fn snapshot(replica: &str, latencies_us: &[f64], good: u64, bad: u64) -> RawSnapshot {
        let mut hist = LogHistogram::new();
        for v in latencies_us {
            hist.record(*v);
        }
        let mut snap = RawSnapshot {
            replica: replica.to_string(),
            t_ns: 1_000_000,
            ..RawSnapshot::default()
        };
        snap.counters.insert("requests_total".to_string(), latencies_us.len() as u64);
        snap.slo.push(RawSlo {
            name: "latency".to_string(),
            target: 0.99,
            max_burn: 2.0,
            fast_ns: 60_000_000_000,
            slow_ns: 1_800_000_000_000,
            good,
            bad,
            fast_good: good,
            fast_bad: bad,
            slow_good: good,
            slow_bad: bad,
        });
        snap.workers.push(RawWorker { busy_ns: 500, idle_ns: 500, served: latencies_us.len() as u64 });
        snap.endpoints.insert("cost".to_string(), hist);
        snap
    }

    #[test]
    fn federates_two_live_replicas_into_one_artifact() {
        // Replica "a" is labeled; the second runs unlabeled and must be
        // identified by its scrape target. Two connections per replica:
        // the raw scrape plus the best-effort (404) profile scrape.
        let snap_a = snapshot("a", &[100.0, 200.0], 199, 1);
        let snap_b = snapshot("", &[400.0, 800.0], 99, 1);
        let (addr_a, server_a) = canned_replica(snap_a.to_json(), 2);
        let (addr_b, server_b) = canned_replica(snap_b.to_json(), 2);
        let opts = parse_args(&args(&[&addr_a, &addr_b, "--reconcile"])).expect("parses");
        let (artifact, healthy) = run(&opts).expect("federates");
        server_a.join().expect("server a");
        server_b.join().expect("server b");
        assert!(healthy, "no objective fires at 0.5% bad");
        let doc = nanocost_sentinel::json::parse(&artifact).expect("artifact is JSON");
        let replicas = doc.get("replicas").and_then(nanocost_sentinel::json::JsonValue::as_arr).expect("replicas");
        assert_eq!(replicas.len(), 2);
        assert!(
            artifact.contains(&format!("\"{addr_b}\"")),
            "unlabeled replica is identified by its target: {artifact}"
        );
        let count = doc
            .get("endpoints")
            .and_then(|e| e.get("cost"))
            .and_then(|c| c.get("count"))
            .and_then(nanocost_sentinel::json::JsonValue::as_u64);
        assert_eq!(count, Some(4), "federated count is the sum of both replicas");
        let requests = doc
            .get("counters")
            .and_then(|c| c.get("requests_total"))
            .and_then(nanocost_sentinel::json::JsonValue::as_u64);
        assert_eq!(requests, Some(4));
        // The fleet burn verdict is rendered per objective.
        assert!(artifact.contains("\"latency\""), "{artifact}");
    }

    #[test]
    fn health_verdict_reflects_a_fleet_wide_firing_objective() {
        // Half the requests are bad: burn = 0.5/0.01 = 50 >> 2.0 on
        // both windows, so the federated objective fires.
        let snap = snapshot("a", &[100.0], 5, 5);
        let (addr, server) = canned_replica(snap.to_json(), 2);
        let opts = parse_args(&args(&[&addr])).expect("parses");
        let (artifact, healthy) = run(&opts).expect("federates");
        server.join().expect("server");
        assert!(!healthy, "a firing objective must flip the verdict: {artifact}");
        assert!(artifact.contains("\"healthy\":false"), "{artifact}");
    }
}
