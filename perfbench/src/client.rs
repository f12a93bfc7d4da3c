//! The HTTP side: the `serve` child process, a timed one-shot client,
//! the closed-loop callers and the `/v1/metrics` scrape.

use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use nanocost_sentinel::attach;
use nanocost_sentinel::json::{self, JsonValue};

use crate::gen::{Plan, Spec};

const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `serve` process in its shipped configuration.
pub struct ServerProc {
    child: Child,
    // Held open so the server's shutdown line never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Starts `serve --port 0 --workers N` with every `NANOCOST_*`
    /// setting removed, and waits for its "listening on" line.
    pub fn start(bin: &str, workers: usize) -> Result<ServerProc, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["--port", "0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("NANOCOST_") {
                cmd.env_remove(key);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {bin}: {e}"))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server stdout is not piped".into());
        };
        let mut stdout = BufReader::new(stdout);
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line.trim().rsplit(' ').next().unwrap_or("").to_string();
        if read.is_err() || !line.contains("listening on") || addr.is_empty() {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not report readiness: {line:?}"));
        }
        Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// The server's `/proc/<pid>/status` file.
    #[must_use]
    pub fn status_path(&self) -> String {
        format!("/proc/{}/status", self.child.id())
    }

    /// Stops the server and waits for it to exit.
    pub fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MB (0 if unreadable).
#[must_use]
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The exact bytes the client sends for `spec`.
#[must_use]
pub fn request_bytes(addr: &str, spec: &Spec) -> Vec<u8> {
    let body = spec.body();
    format!(
        "POST {} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        spec.path(),
        body.len()
    )
    .into_bytes()
}

/// Client-side phase times of one exchange, in nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    /// `connect` returning.
    pub connect: u64,
    /// Connected to the first response byte (request write included).
    pub to_first_byte: u64,
    /// First response byte to end of stream.
    pub read: u64,
}

/// One completed exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub status: u16,
    pub body: Vec<u8>,
    /// Connect to last response byte, nanoseconds.
    pub total_ns: u64,
    /// Filled only when timed with phases.
    pub phases: Phases,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Sends one request on a fresh connection and reads the response to
/// end of stream. With `phases`, also times connect, first byte and read.
pub fn exchange(addr: &str, request: &[u8], phases: bool) -> std::io::Result<Exchange> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let t1 = if phases { Instant::now() } else { t0 };
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    stream.write_all(request)?;
    let mut raw = Vec::with_capacity(4096);
    let mut first = [0u8; 4096];
    let n = stream.read(&mut first)?;
    let t3 = if phases { Instant::now() } else { t0 };
    raw.extend_from_slice(&first[..n]);
    if n > 0 {
        stream.read_to_end(&mut raw)?;
    }
    let t4 = Instant::now();
    let status = std::str::from_utf8(raw.get(9..12).unwrap_or(&[]))
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = match raw.windows(4).position(|w| w == b"\r\n\r\n") {
        Some(i) => raw[i + 4..].to_vec(),
        None => Vec::new(),
    };
    let phases = if phases {
        Phases {
            connect: ns(t1 - t0),
            to_first_byte: ns(t3 - t1),
            read: ns(t4 - t3),
        }
    } else {
        Phases::default()
    };
    Ok(Exchange {
        status,
        body,
        total_ns: ns(t4 - t0),
        phases,
    })
}

/// One request of a closed-loop run.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Stream position.
    pub seq: usize,
    /// Distinct-body id (see [`Plan::request`]).
    pub id: usize,
    pub endpoint: &'static str,
    pub points: usize,
    pub request_bytes: usize,
    /// Completion time, seconds since the phase began.
    pub done_s: f64,
    /// `None` on a transport error.
    pub exchange: Option<Exchange>,
}

impl Sample {
    /// True for a 2xx response.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.exchange
            .as_ref()
            .is_some_and(|e| (200..300).contains(&e.status))
    }
}

/// A closed-loop run: every sample, the phase's wall time and, when
/// probed, the server's peak resident set at the probe's completion.
pub struct Run {
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
    pub peak_rss_mb: Option<f64>,
}

/// Reads a process's peak resident set when a closed-loop run completes
/// its `at_completions`-th request, so the reading covers the same work
/// however fast the program serves it.
pub struct RssProbe {
    pub status_path: String,
    pub at_completions: usize,
}

/// Distance between two callers' stream positions.
pub const CALLER_STRIDE: usize = 1 << 40;

/// Drives `connections` closed-loop callers against `addr` until
/// `seconds` have passed. Caller `c` owns the stream positions
/// `c * CALLER_STRIDE + start`, `… + start + 1`, …, so every caller
/// sees the same request mix; it waits for each answer before asking
/// the next question.
pub fn closed_loop(
    addr: &str,
    plan: &dyn Plan,
    connections: usize,
    start: usize,
    seconds: f64,
    phases: bool,
    rss_probe: Option<&RssProbe>,
) -> Run {
    let begin = Instant::now();
    let deadline = begin + Duration::from_secs_f64(seconds);
    let completions = AtomicUsize::new(0);
    let rss = OnceLock::new();
    let (completions, rss_at) = (&completions, &rss);
    let per_caller: Vec<(Vec<Sample>, Instant)> = std::thread::scope(|scope| {
        let callers: Vec<_> = (0..connections)
            .map(|c| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut seq = c * CALLER_STRIDE + start;
                    while Instant::now() < deadline {
                        let (id, spec) = plan.request(seq);
                        let request = request_bytes(addr, &spec);
                        let exchange = exchange(addr, &request, phases).ok();
                        mine.push(Sample {
                            seq,
                            id,
                            endpoint: spec.endpoint(),
                            points: spec.points(),
                            request_bytes: request.len(),
                            done_s: begin.elapsed().as_secs_f64(),
                            exchange,
                        });
                        seq += 1;
                        if let Some(p) = rss_probe {
                            if completions.fetch_add(1, Ordering::Relaxed) + 1 == p.at_completions {
                                let _ = rss_at.set(peak_rss_mb(&p.status_path));
                            }
                        }
                    }
                    (mine, Instant::now())
                })
            })
            .collect();
        callers
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let end = per_caller.iter().map(|(_, t)| *t).max().unwrap_or(begin);
    let mut samples: Vec<Sample> = per_caller.into_iter().flat_map(|(s, _)| s).collect();
    samples.sort_by_key(|s| s.seq);
    Run {
        samples,
        elapsed_s: (end - begin).as_secs_f64(),
        peak_rss_mb: rss.into_inner(),
    }
}

/// Sends each spec once, sequentially: the cache warm-up pass.
pub fn warm_up(addr: &str, plan: &[Spec]) -> Result<(), String> {
    for spec in plan {
        let request = request_bytes(addr, spec);
        let e = exchange(addr, &request, false).map_err(|e| format!("warm-up: {e}"))?;
        if e.status != 200 {
            return Err(format!("warm-up {} -> {}", spec.path(), e.status));
        }
    }
    Ok(())
}

/// The server's counters that the per-layer report reads.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    pub busy_ns: f64,
    pub idle_ns: f64,
    pub trace_ring_evicted: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub chiplet_hits: f64,
    pub chiplet_misses: f64,
    /// `(endpoint, p50 µs)` from the server's own histograms.
    pub endpoint_p50_us: Vec<(String, f64)>,
}

/// `GET /v1/metrics`, parsed.
pub fn scrape(addr: &str) -> Result<Scrape, String> {
    let text = attach::http_get_ok(addr, "/v1/metrics")?;
    let doc = json::parse(&text).map_err(|e| format!("/v1/metrics is not JSON: {e}"))?;
    let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).unwrap_or(0.0);
    let mut out = Scrape {
        trace_ring_evicted: num(doc
            .get("counters")
            .and_then(|c| c.get("trace_ring_evicted"))),
        cache_hits: num(doc.get("cache").and_then(|c| c.get("hits"))),
        cache_misses: num(doc.get("cache").and_then(|c| c.get("misses"))),
        chiplet_hits: num(doc.get("chiplet_cache").and_then(|c| c.get("hits"))),
        chiplet_misses: num(doc.get("chiplet_cache").and_then(|c| c.get("misses"))),
        ..Scrape::default()
    };
    for w in doc
        .get("workers")
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
    {
        out.busy_ns += num(w.get("busy_ns"));
        out.idle_ns += num(w.get("idle_ns"));
    }
    if let Some(JsonValue::Obj(endpoints)) = doc.get("endpoints") {
        for (name, h) in endpoints {
            out.endpoint_p50_us
                .push((name.clone(), num(h.get("p50_us"))));
        }
    }
    Ok(out)
}
