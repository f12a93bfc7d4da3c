//! Shared server state: the scenario cache, per-endpoint latency
//! histograms with exemplars, the replayable per-request trace ring,
//! SLO burn-rate monitors, and the structured access log.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use nanocost_chiplet::ChipletCache;
use nanocost_core::ScenarioCache;
use nanocost_sentinel::federate::{RawCache, RawSlo, RawSnapshot, RawWorker};
use nanocost_sentinel::profile::{ProfileReport, StackSample};
use nanocost_sentinel::slo::Objective;
use nanocost_sentinel::{LogHistogram, SloMonitor};
use nanocost_trace::export::{Exporter, JsonlExporter};
use nanocost_trace::stack_registry::{ProfileHz, StackSnapshot, DEFAULT_PROFILE_HZ};
use nanocost_trace::value::json_string;
use nanocost_trace::{counter, gauge, Record};

/// Default per-request trace-capture ring capacity (see
/// [`ServerStateConfig::trace_ring`]).
pub const TRACE_RING_DEFAULT: usize = 256;

/// Upper bound on the configurable trace ring: each slot holds a full
/// rendered JSONL capture, so an unbounded ring is an OOM waiting on a
/// typo in the environment.
pub const TRACE_RING_MAX: usize = 65_536;

/// Latency-SLO threshold: a request slower than this many microseconds
/// is a "bad" event for the `latency` objective.
pub const SLO_LATENCY_US: f64 = 250_000.0;

/// Target good fraction for the `latency` objective.
pub const SLO_LATENCY_TARGET: f64 = 0.99;

/// Target non-shed fraction for the `shed_rate` objective.
pub const SLO_SHED_TARGET: f64 = 0.95;

/// Stack-sample ring capacity: at the default 99 Hz this holds roughly
/// ten minutes of a busy 4-worker pool.
pub const PROFILE_RING_CAPACITY: usize = 65_536;

/// Upper bound accepted for `/v1/profile?window_s=N` (one hour).
pub const PROFILE_WINDOW_MAX_S: u64 = 3_600;

/// Everything [`ServerState`] is configured with. Build one by hand in
/// tests or via [`ServerStateConfig::from_env`] in the `serve` bin.
#[derive(Debug, Clone)]
pub struct ServerStateConfig {
    /// Trace-capture ring capacity (`NANOCOST_SERVE_TRACE_RING`,
    /// default 256, clamped to `1..=65536`).
    pub trace_ring: usize,
    /// Structured JSONL access-log path (`NANOCOST_SERVE_ACCESS_LOG`);
    /// `None` disables access logging.
    pub access_log: Option<String>,
    /// Stack-profiler sample rate in Hz (`NANOCOST_PROFILE_HZ`); 0
    /// disables the sampler. Unlike the trace bins — which leave
    /// profiling off unless asked — the server profiles continuously by
    /// default, at [`DEFAULT_PROFILE_HZ`].
    pub profile_hz: u32,
    /// This replica's fleet label (`NANOCOST_REPLICA`) — stamped onto
    /// exemplars and the `/v1/metrics/raw` envelope so federated merges
    /// can tell replicas apart. Empty means unlabeled; federators
    /// substitute the scrape target.
    pub replica: String,
}

impl Default for ServerStateConfig {
    fn default() -> Self {
        ServerStateConfig {
            trace_ring: TRACE_RING_DEFAULT,
            access_log: None,
            profile_hz: DEFAULT_PROFILE_HZ,
            replica: String::new(),
        }
    }
}

impl ServerStateConfig {
    /// Reads `NANOCOST_SERVE_TRACE_RING`, `NANOCOST_SERVE_ACCESS_LOG`,
    /// `NANOCOST_PROFILE_HZ` and `NANOCOST_REPLICA`, falling back to
    /// the defaults for anything unset.
    ///
    /// # Errors
    ///
    /// Returns a description of the first variable that is set but does
    /// not parse (a silently ignored typo would serve with the wrong
    /// configuration, which is worse than refusing to start).
    pub fn from_env() -> Result<Self, String> {
        let mut cfg = ServerStateConfig::default();
        if let Some(ring) = env_parsed::<usize>("NANOCOST_SERVE_TRACE_RING")? {
            cfg.trace_ring = ring.clamp(1, TRACE_RING_MAX);
        }
        if let Ok(path) = std::env::var("NANOCOST_SERVE_ACCESS_LOG") {
            if !path.trim().is_empty() {
                cfg.access_log = Some(path);
            }
        }
        // The shared trace-crate spelling, but with the server's
        // always-on default: unset keeps DEFAULT_PROFILE_HZ, an explicit
        // off-switch disables, and a typo refuses to start.
        match nanocost_trace::stack_registry::profile_hz_from_env()? {
            ProfileHz::Unset => {}
            ProfileHz::Off => cfg.profile_hz = 0,
            ProfileHz::Hz(hz) => cfg.profile_hz = hz,
        }
        // Shared with the trace crate's init_from_env: one variable
        // names the replica for traces, exemplars, and the raw envelope.
        if let Ok(label) = std::env::var("NANOCOST_REPLICA") {
            cfg.replica = label.trim().to_string();
        }
        Ok(cfg)
    }
}

/// Reads and parses one environment variable; unset or empty is `None`.
fn env_parsed<T: std::str::FromStr>(name: &str) -> Result<Option<T>, String> {
    match std::env::var(name) {
        Ok(raw) if !raw.trim().is_empty() => raw
            .trim()
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{name} does not parse: `{raw}`")),
        _ => Ok(None),
    }
}

/// One retained stack sample (frames stay `&'static str` in-process;
/// they are only materialized into owned strings at report time).
#[derive(Debug, Clone)]
struct RingSample {
    t_ns: u64,
    thread: u64,
    req_id: Option<String>,
    frames: Vec<&'static str>,
    depth: u64,
}

/// Bounded in-memory ring of profiler stack samples, fed by a
/// [`nanocost_trace::stack_registry`] sink and drained by
/// `GET /v1/profile?window_s=N`. `Arc`-held so the sink (a
/// process-lifetime callback) can hold a `Weak` and outlive the server.
#[derive(Debug)]
pub struct ProfileRing {
    cap: usize,
    samples: Mutex<VecDeque<RingSample>>,
    dropped: AtomicU64,
}

impl ProfileRing {
    /// An empty ring holding at most `cap` samples.
    #[must_use]
    pub fn new(cap: usize) -> Self {
        ProfileRing {
            cap: cap.max(1),
            samples: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends one sampler batch, evicting the oldest samples past
    /// capacity (counted in `dropped`).
    pub fn push_batch(&self, snaps: &[StackSnapshot], t_ns: u64) {
        let mut dropped = 0u64;
        {
            let mut ring = lock(&self.samples);
            for s in snaps {
                if ring.len() >= self.cap {
                    ring.pop_front();
                    dropped += 1;
                }
                ring.push_back(RingSample {
                    t_ns,
                    thread: s.thread,
                    req_id: s.req_id.clone(),
                    frames: s.frames.clone(),
                    depth: s.depth,
                });
            }
        }
        if dropped > 0 {
            self.dropped.fetch_add(dropped, Ordering::Relaxed);
        }
    }

    /// Samples whose `t_ns` falls in the half-open `[since, until)`,
    /// materialized for the sentinel aggregator.
    #[must_use]
    pub fn window(&self, since: u64, until: u64) -> Vec<StackSample> {
        let ring = lock(&self.samples);
        ring.iter()
            .filter(|s| s.t_ns >= since && s.t_ns < until)
            .map(|s| StackSample {
                t_ns: s.t_ns,
                thread: s.thread,
                req_id: s.req_id.clone(),
                frames: s.frames.iter().map(|f| (*f).to_string()).collect(),
                depth: s.depth,
            })
            .collect()
    }

    /// Samples currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.samples).len()
    }

    /// Whether the ring holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Samples evicted so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Cumulative busy/idle wall-clock and served-connection counts for one
/// worker thread; the worker owns an `Arc` and adds as it goes, the
/// metrics endpoint reads whatever is current.
#[derive(Debug, Default)]
pub struct WorkerStat {
    /// Nanoseconds spent handling connections.
    pub busy_ns: AtomicU64,
    /// Nanoseconds spent waiting on the connection queue.
    pub idle_ns: AtomicU64,
    /// Connections handled to completion.
    pub served: AtomicU64,
}

/// Everything the worker threads share.
pub struct ServerState {
    cache: ScenarioCache,
    chiplet: ChipletCache,
    next_id: AtomicU64,
    endpoints: Mutex<BTreeMap<&'static str, LogHistogram>>,
    /// The per-request trace ring: full JSONL captures keyed by req_id.
    traces: Mutex<VecDeque<(String, String)>>,
    trace_ring: usize,
    ring_evicted: AtomicU64,
    /// Model requests completed (any status) — the latency objective's
    /// event stream and the shed objective's "good" side.
    completed: AtomicU64,
    /// Completed requests slower than the latency threshold.
    latency_bad: AtomicU64,
    /// Connections shed with a 503 by the accept loop.
    shed: AtomicU64,
    /// The `[latency, shed_rate]` monitors. The three counters above
    /// move only under this lock, so every feed's totals are
    /// consistent and ordered like the feeds.
    slo: Mutex<[SloMonitor; 2]>,
    /// The structured access log sink, when configured.
    access: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
    /// Configured stack-profiler rate; 0 = sampler off.
    profile_hz: u32,
    /// The stack-sample ring `/v1/profile` reports over.
    profile: Arc<ProfileRing>,
    /// Per-worker telemetry, installed by the server's run loop.
    workers: Mutex<Vec<Arc<WorkerStat>>>,
    /// Connections currently queued for a worker.
    queue_depth: AtomicU64,
    /// Connections accepted but not yet fully handled (queued + in
    /// flight).
    accept_backlog: AtomicU64,
    /// Highest numeric request id evicted from the trace ring; lets
    /// `/v1/trace/<id>` distinguish "evicted" (410) from "never
    /// existed" (404).
    evicted_watermark: AtomicU64,
    /// Fleet label stamped onto exemplars and the raw-metrics envelope.
    replica: String,
    started: Instant,
}

impl std::fmt::Debug for ServerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerState")
            .field("cache", &self.cache)
            .field("chiplet", &self.chiplet)
            .field("requests", &self.next_id.load(Ordering::Relaxed))
            .field("trace_ring", &self.trace_ring)
            .finish_non_exhaustive()
    }
}

impl Default for ServerState {
    fn default() -> Self {
        ServerState::new()
    }
}

impl ServerState {
    /// Fresh state over the paper-Figure-4 scenario cache with the
    /// default configuration (no access log, default trace ring).
    #[must_use]
    pub fn new() -> Self {
        ServerState::build(&ServerStateConfig::default(), None)
    }

    /// Builds state from an explicit configuration.
    ///
    /// # Errors
    ///
    /// Returns a description when the access log cannot be opened;
    /// refusing to start beats serving with silently absent logs.
    pub fn with_config(cfg: ServerStateConfig) -> Result<Self, String> {
        let access = match &cfg.access_log {
            Some(path) => {
                let file = std::fs::File::create(path)
                    .map_err(|e| format!("cannot open access log {path}: {e}"))?;
                Some(Mutex::new(std::io::BufWriter::new(file)))
            }
            None => None,
        };
        Ok(ServerState::build(&cfg, access))
    }

    /// State from `cfg` with an already-opened access-log sink.
    fn build(
        cfg: &ServerStateConfig,
        access: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
    ) -> Self {
        let objective = |name: &str, target| {
            SloMonitor::new(Objective { name: name.to_string(), target })
        };
        ServerState {
            cache: ScenarioCache::paper_figure4(),
            #[expect(
                clippy::expect_used,
                reason = "documented invariant: chiplet default constants are valid"
            )]
            chiplet: ChipletCache::defaults()
                .expect("chiplet default constants are valid"),
            next_id: AtomicU64::new(0),
            endpoints: Mutex::new(BTreeMap::new()),
            traces: Mutex::new(VecDeque::with_capacity(cfg.trace_ring.min(TRACE_RING_DEFAULT))),
            trace_ring: cfg.trace_ring.clamp(1, TRACE_RING_MAX),
            ring_evicted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            latency_bad: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            slo: Mutex::new([
                objective("latency", SLO_LATENCY_TARGET),
                objective("shed_rate", SLO_SHED_TARGET),
            ]),
            access,
            profile_hz: cfg.profile_hz,
            profile: Arc::new(ProfileRing::new(PROFILE_RING_CAPACITY)),
            workers: Mutex::new(Vec::new()),
            queue_depth: AtomicU64::new(0),
            accept_backlog: AtomicU64::new(0),
            evicted_watermark: AtomicU64::new(0),
            replica: cfg.replica.clone(),
            started: Instant::now(),
        }
    }

    /// The scenario cache all model endpoints evaluate through.
    #[must_use]
    pub fn cache(&self) -> &ScenarioCache {
        &self.cache
    }

    /// The chiplet cache the `/v1/chiplet` endpoint evaluates through.
    #[must_use]
    pub fn chiplet_cache(&self) -> &ChipletCache {
        &self.chiplet
    }

    /// The configured trace-ring capacity.
    #[must_use]
    pub fn trace_ring_capacity(&self) -> usize {
        self.trace_ring
    }

    /// The configured stack-profiler rate (0 = off).
    #[must_use]
    pub fn profile_hz(&self) -> u32 {
        self.profile_hz
    }

    /// The stack-sample ring the sampler sink feeds.
    #[must_use]
    pub fn profile_ring(&self) -> &Arc<ProfileRing> {
        &self.profile
    }

    /// Renders the `/v1/profile` document: the deterministic
    /// [`ProfileReport`] over the trailing `window_s` seconds of ring
    /// samples.
    #[must_use]
    pub fn profile_report_json(&self, window_s: u64) -> String {
        let now = nanocost_trace::epoch_nanos();
        let since = now.saturating_sub(window_s.saturating_mul(1_000_000_000));
        let samples = self.profile.window(since, now.saturating_add(1));
        ProfileReport::from_samples(&samples, None).to_json()
    }

    /// Installs `n` fresh per-worker telemetry slots, returning one
    /// handle per worker; previous telemetry (a restarted run loop) is
    /// replaced.
    #[must_use]
    pub fn install_workers(&self, n: usize) -> Vec<Arc<WorkerStat>> {
        let stats: Vec<Arc<WorkerStat>> = (0..n).map(|_| Arc::new(WorkerStat::default())).collect();
        *lock(&self.workers) = stats.clone();
        stats
    }

    /// One connection entered the worker queue.
    pub fn note_queue_push(&self) {
        let depth = self.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        gauge!("serve.queue.depth", depth as f64);
    }

    /// One connection left the worker queue for a worker.
    pub fn note_queue_pop(&self) {
        let prev = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)))
            .unwrap_or(0);
        gauge!("serve.queue.depth", prev.saturating_sub(1) as f64);
    }

    /// One connection was accepted (queued, in flight, or about to be
    /// shed).
    pub fn note_conn_open(&self) {
        let backlog = self.accept_backlog.fetch_add(1, Ordering::Relaxed) + 1;
        gauge!("serve.accept.backlog", backlog as f64);
    }

    /// One accepted connection finished (handled or shed).
    pub fn note_conn_close(&self) {
        let prev = self
            .accept_backlog
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)))
            .unwrap_or(0);
        gauge!("serve.accept.backlog", prev.saturating_sub(1) as f64);
    }

    /// Whether `req_id` was plausibly evicted from the trace ring: ids
    /// are issued and stored in near-monotonic order, so anything at or
    /// below the highest evicted id is gone rather than unknown.
    #[must_use]
    pub fn likely_evicted(&self, req_id: &str) -> bool {
        let Some(n) = req_id.strip_prefix('r').and_then(|n| n.parse::<u64>().ok()) else {
            return false;
        };
        n > 0
            && n <= self.evicted_watermark.load(Ordering::Relaxed)
            && n <= self.next_id.load(Ordering::Relaxed)
    }

    /// Allocates the next request id (`r1`, `r2`, …).
    #[must_use]
    pub fn next_request_id(&self) -> String {
        format!("r{}", self.next_id.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Records one completed request for `endpoint`: latency into the
    /// endpoint histogram (with an exemplar when the request produced a
    /// stored trace), and a good/bad event into both SLO monitors.
    /// `t_ns` is the trace-epoch observation time exemplars and SLO
    /// snapshots are stamped with.
    pub fn observe(
        &self,
        endpoint: &'static str,
        latency_us: f64,
        exemplar_req: Option<&str>,
        t_ns: u64,
    ) {
        {
            let mut endpoints = lock(&self.endpoints);
            let hist = endpoints.entry(endpoint).or_default();
            match exemplar_req {
                Some(req_id) => {
                    hist.record_exemplar_tagged(latency_us, req_id, t_ns, &self.replica);
                }
                None => hist.record(latency_us),
            }
        }
        self.feed_slo(t_ns, || {
            self.completed.fetch_add(1, Ordering::Relaxed);
            if latency_us > SLO_LATENCY_US {
                self.latency_bad.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Counts one connection shed with a 503 by the accept loop.
    pub fn note_shed(&self, t_ns: u64) {
        counter!("serve.shed", 1);
        self.feed_slo(t_ns, || {
            self.shed.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// Runs `count` and pushes the resulting cumulative totals into
    /// both monitors, all under the monitors lock: a feed that loaded
    /// its totals outside the lock could reach a monitor after a later
    /// feed and look like a restarted counter.
    fn feed_slo(&self, t_ns: u64, count: impl FnOnce()) {
        let mut monitors = lock(&self.slo);
        count();
        let completed = self.completed.load(Ordering::Relaxed);
        let latency_bad = self.latency_bad.load(Ordering::Relaxed);
        let shed = self.shed.load(Ordering::Relaxed);
        let [latency, shed_rate] = &mut *monitors;
        latency.observe(t_ns, completed.saturating_sub(latency_bad), latency_bad);
        shed_rate.observe(t_ns, completed, shed);
    }

    /// Evaluates every SLO monitor as of `now_ns` and renders the
    /// `/v1/health` document. Returns `(200, …)` when no objective is
    /// firing and `(503, …)` when at least one is.
    #[must_use]
    pub fn health_json(&self, now_ns: u64) -> (u16, String) {
        let reports: Vec<_> = {
            let monitors = lock(&self.slo);
            monitors.iter().map(|m| m.report(now_ns)).collect()
        };
        let firing = reports.iter().any(|r| r.firing);
        let mut out = format!(
            "{{\"status\":{},\"t_ns\":{now_ns},\"objectives\":[",
            if firing { "\"failing\"" } else { "\"ok\"" }
        );
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}");
        (if firing { 503 } else { 200 }, out)
    }

    /// Stores a request's captured trace records, rendered as JSONL,
    /// under its request id; evicts the oldest capture past the
    /// configured ring capacity (counted in `serve.trace_ring.evicted`).
    pub fn store_trace(&self, req_id: &str, records: &[Record]) {
        let mut exporter = JsonlExporter;
        let mut text = String::new();
        for r in records {
            // render() already terminates each line with '\n'.
            text.push_str(&exporter.render(r));
        }
        let evicted = {
            let mut ring = lock(&self.traces);
            let evicted = if ring.len() >= self.trace_ring {
                ring.pop_front().map(|(id, _)| id)
            } else {
                None
            };
            ring.push_back((req_id.to_string(), text));
            evicted
        };
        if let Some(old_id) = evicted {
            if let Some(n) = old_id.strip_prefix('r').and_then(|n| n.parse::<u64>().ok()) {
                self.evicted_watermark.fetch_max(n, Ordering::Relaxed);
            }
            self.ring_evicted.fetch_add(1, Ordering::Relaxed);
            counter!("serve.trace_ring.evicted", 1);
        }
    }

    /// The stored JSONL capture for `req_id`, if still in the ring.
    #[must_use]
    pub fn trace(&self, req_id: &str) -> Option<String> {
        lock(&self.traces)
            .iter()
            .rev()
            .find(|(id, _)| id == req_id)
            .map(|(_, text)| text.clone())
    }

    /// The most recently stored request id, if any (used by `loadgen`
    /// to pick a replayable capture).
    #[must_use]
    pub fn last_request_id(&self) -> Option<String> {
        lock(&self.traces).back().map(|(id, _)| id.clone())
    }

    /// Appends one structured access-log record (a no-op when no log
    /// was configured). Each line is flushed so `tail -f` and the soak
    /// gate see records as they happen.
    pub fn log_access(
        &self,
        req_id: &str,
        endpoint: &str,
        status: u16,
        latency_ns: u64,
        cache_hits: u64,
        cache_misses: u64,
    ) {
        let Some(sink) = &self.access else {
            return;
        };
        let line =
            render_access_record(req_id, endpoint, status, latency_ns, cache_hits, cache_misses);
        let mut w = lock(sink);
        let _ = w.write_all(line.as_bytes());
        let _ = w.flush();
    }

    /// Renders the `/v1/metrics` document (schema 2): uptime, the
    /// scrape instant `t_ns`, cumulative counters, per-endpoint latency
    /// quantiles (p50/p90/p99/p999 in microseconds) with the p99
    /// exemplar, and cache traffic.
    #[must_use]
    pub fn metrics_json(&self) -> String {
        let uptime = self.started.elapsed().as_secs_f64();
        let requests = self.next_id.load(Ordering::Relaxed);
        let t_ns = nanocost_trace::epoch_nanos();
        let mut out = String::from("{\"schema\":2,");
        out.push_str(&format!(
            "\"uptime_s\":{uptime:e},\"t_ns\":{t_ns},\"requests\":{requests},"
        ));
        out.push_str(&format!(
            "\"counters\":{{\"requests_total\":{},\"completed_total\":{},\"shed_total\":{},\"latency_bad_total\":{},\"trace_ring_evicted\":{}}},",
            requests,
            self.completed.load(Ordering::Relaxed),
            self.shed.load(Ordering::Relaxed),
            self.latency_bad.load(Ordering::Relaxed),
            self.ring_evicted.load(Ordering::Relaxed),
        ));
        // Instantaneous gauges: present regardless of whether profiling
        // is on — queue pressure is load telemetry, not profiler output.
        out.push_str(&format!(
            "\"gauges\":{{\"queue.depth\":{},\"accept.backlog\":{}}},",
            self.queue_depth.load(Ordering::Relaxed),
            self.accept_backlog.load(Ordering::Relaxed),
        ));
        out.push_str("\"workers\":[");
        {
            let workers = lock(&self.workers);
            for (i, w) in workers.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"busy_ns\":{},\"idle_ns\":{},\"served\":{}}}",
                    w.busy_ns.load(Ordering::Relaxed),
                    w.idle_ns.load(Ordering::Relaxed),
                    w.served.load(Ordering::Relaxed),
                ));
            }
        }
        out.push_str("],");
        out.push_str(&format!(
            "\"profile\":{{\"hz\":{},\"ring_capacity\":{},\"samples\":{},\"dropped\":{}}},",
            self.profile_hz,
            self.profile.capacity(),
            self.profile.len(),
            self.profile.dropped(),
        ));
        out.push_str("\"endpoints\":{");
        {
            let endpoints = lock(&self.endpoints);
            let mut first = true;
            for (name, hist) in endpoints.iter() {
                if !first {
                    out.push(',');
                }
                first = false;
                let exemplar = hist
                    .quantile_exemplar(0.99)
                    .map(|e| {
                        format!(
                            "{{\"req_id\":{},\"value_us\":{:e},\"t_ns\":{}}}",
                            json_string(&e.req_id),
                            e.value,
                            e.t_ns
                        )
                    })
                    .unwrap_or_else(|| "null".to_string());
                out.push_str(&format!(
                    "{}:{{\"count\":{},\"min_us\":{:e},\"max_us\":{:e},\"mean_us\":{:e},\"p50_us\":{:e},\"p90_us\":{:e},\"p99_us\":{:e},\"p999_us\":{:e},\"p99_exemplar\":{}}}",
                    json_string(name),
                    hist.count(),
                    hist.min().unwrap_or(0.0),
                    hist.max().unwrap_or(0.0),
                    hist.mean().unwrap_or(0.0),
                    hist.p50().unwrap_or(0.0),
                    hist.p90().unwrap_or(0.0),
                    hist.p99().unwrap_or(0.0),
                    hist.p999().unwrap_or(0.0),
                    exemplar,
                ));
            }
        }
        out.push_str("},\"cache\":");
        let stats = self.cache.stats();
        out.push_str(&format!(
            "{{\"hits\":{},\"misses\":{},\"entries\":{},\"capacity\":{},\"hit_rate\":{:e}}}",
            stats.hits,
            stats.misses,
            stats.entries,
            stats.capacity,
            stats.hit_rate()
        ));
        out.push_str(",\"chiplet_cache\":");
        let chiplet = self.chiplet.stats();
        out.push_str(&format!(
            "{{\"hits\":{},\"misses\":{},\"entries\":{},\"capacity\":{},\"hit_rate\":{:e}}}",
            chiplet.hits,
            chiplet.misses,
            chiplet.entries,
            chiplet.capacity,
            chiplet.hit_rate()
        ));
        out.push('}');
        out
    }

    /// This replica's configured fleet label (empty when unlabeled).
    #[must_use]
    pub fn replica(&self) -> &str {
        &self.replica
    }

    /// Renders the `/v1/metrics/raw` document: the full *mergeable*
    /// state behind [`ServerState::metrics_json`], as the
    /// byte-deterministic schema-1 wire format owned by
    /// [`nanocost_sentinel::federate`]. Where `/v1/metrics` publishes
    /// pre-computed quantiles (which cannot be combined across
    /// replicas), this publishes raw histogram buckets, cumulative and
    /// windowed SLO counters, and worker/cache counters — everything a
    /// federator needs to reconstruct fleet-level truth losslessly.
    #[must_use]
    pub fn metrics_raw_json(&self) -> String {
        let t_ns = nanocost_trace::epoch_nanos();
        let mut counters = BTreeMap::new();
        counters.insert("requests_total".to_string(), self.next_id.load(Ordering::Relaxed));
        counters.insert("completed_total".to_string(), self.completed.load(Ordering::Relaxed));
        counters.insert("shed_total".to_string(), self.shed.load(Ordering::Relaxed));
        counters.insert("latency_bad_total".to_string(), self.latency_bad.load(Ordering::Relaxed));
        counters
            .insert("trace_ring_evicted".to_string(), self.ring_evicted.load(Ordering::Relaxed));
        let slo: Vec<RawSlo> = {
            let monitors = lock(&self.slo);
            monitors.iter().map(|m| RawSlo::from_monitor(m, t_ns)).collect()
        };
        let workers: Vec<RawWorker> = {
            let workers = lock(&self.workers);
            workers
                .iter()
                .map(|w| RawWorker {
                    busy_ns: w.busy_ns.load(Ordering::Relaxed),
                    idle_ns: w.idle_ns.load(Ordering::Relaxed),
                    served: w.served.load(Ordering::Relaxed),
                })
                .collect()
        };
        let endpoints: BTreeMap<String, LogHistogram> = {
            let endpoints = lock(&self.endpoints);
            endpoints.iter().map(|(name, hist)| ((*name).to_string(), hist.clone())).collect()
        };
        let stats = self.cache.stats();
        RawSnapshot {
            replica: self.replica.clone(),
            t_ns,
            counters,
            slo,
            workers,
            cache: RawCache {
                hits: stats.hits,
                misses: stats.misses,
                entries: stats.entries as u64,
                capacity: stats.capacity as u64,
            },
            endpoints,
        }
        .to_json()
    }
}

/// Renders one access-log record with a fixed, documented field order:
/// `req_id`, `endpoint`, `status`, `latency_ns`, `cache_hits`,
/// `cache_misses`. Pure so the golden test can pin the bytes.
#[must_use]
pub fn render_access_record(
    req_id: &str,
    endpoint: &str,
    status: u16,
    latency_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
) -> String {
    format!(
        "{{\"req_id\":{},\"endpoint\":{},\"status\":{status},\"latency_ns\":{latency_ns},\"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses}}}\n",
        json_string(req_id),
        json_string(endpoint),
    )
}

/// Locks a mutex, recovering the data from a poisoned lock (a panicking
/// worker must not take the whole server down).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_ids_are_sequential() {
        let state = ServerState::new();
        assert_eq!(state.next_request_id(), "r1");
        assert_eq!(state.next_request_id(), "r2");
    }

    #[test]
    fn trace_ring_evicts_oldest_and_counts_evictions() {
        let state = ServerState::new();
        for i in 0..(TRACE_RING_DEFAULT + 5) {
            state.store_trace(&format!("r{i}"), &[]);
        }
        assert!(state.trace("r0").is_none());
        assert!(state.trace(&format!("r{}", TRACE_RING_DEFAULT + 4)).is_some());
        assert_eq!(
            state.last_request_id().as_deref(),
            Some(format!("r{}", TRACE_RING_DEFAULT + 4).as_str())
        );
        assert!(state.metrics_json().contains("\"trace_ring_evicted\":5"));
    }

    #[test]
    fn trace_ring_capacity_is_configurable() {
        let cfg = ServerStateConfig { trace_ring: 2, ..ServerStateConfig::default() };
        let state = ServerState::with_config(cfg).expect("valid config");
        assert_eq!(state.trace_ring_capacity(), 2);
        for i in 0..3 {
            state.store_trace(&format!("r{i}"), &[]);
        }
        assert!(state.trace("r0").is_none(), "capacity 2 keeps only the newest 2");
        assert!(state.trace("r1").is_some());
        assert!(state.trace("r2").is_some());
    }

    #[test]
    fn metrics_json_is_valid_json_with_exemplars() {
        let state = ServerState::new();
        state.observe("cost", 120.0, Some("r1"), 10);
        state.observe("cost", 240.0, Some("r2"), 20);
        let doc = state.metrics_json();
        nanocost_sentinel::json::parse(&doc).expect("metrics must be valid JSON");
        assert!(doc.contains("\"schema\":2"));
        assert!(doc.contains("\"p50_us\""));
        assert!(doc.contains("\"p99_us\""));
        assert!(doc.contains("\"p99_exemplar\":{\"req_id\":\"r2\""), "{doc}");
        assert!(doc.contains("\"shed_total\":0"));
    }

    #[test]
    fn raw_metrics_round_trip_through_the_federation_parser() {
        let cfg = ServerStateConfig { replica: "a".to_string(), ..ServerStateConfig::default() };
        let state = ServerState::with_config(cfg).expect("valid config");
        let _ = state.next_request_id();
        let _ = state.next_request_id();
        state.observe("cost", 120.0, Some("r1"), 10);
        state.observe("cost", 240.0, Some("r2"), 20);
        state.observe("batch", 80.0, None, 30);
        let workers = state.install_workers(1);
        workers[0].busy_ns.fetch_add(900, Ordering::Relaxed);
        workers[0].idle_ns.fetch_add(100, Ordering::Relaxed);
        let doc = state.metrics_raw_json();
        nanocost_sentinel::json::parse(&doc).expect("raw metrics must be valid JSON");
        let snap = RawSnapshot::parse(&doc).expect("federation parser accepts it");
        assert_eq!(snap.replica, "a");
        assert_eq!(snap.counters.get("requests_total"), Some(&2));
        assert_eq!(snap.counters.get("completed_total"), Some(&3));
        let cost = snap.endpoints.get("cost").expect("cost endpoint");
        assert_eq!(cost.count(), 2);
        // The exemplar carries the replica tag for cross-process merges.
        let e = cost.quantile_exemplar(0.99).expect("exemplar");
        assert_eq!(e.replica, "a");
        assert_eq!(e.req_id, "r2");
        // Both monitors ship summable window counters.
        assert_eq!(snap.slo.len(), 2);
        assert_eq!(snap.slo[0].name, "latency");
        assert_eq!(snap.slo[0].good, 3);
        assert_eq!(snap.workers.len(), 1);
        assert_eq!(snap.workers[0].busy_ns, 900);
        // Determinism: the same state renders byte-identical documents
        // modulo the scrape instant.
        let mut again = RawSnapshot::parse(&state.metrics_raw_json()).expect("parses");
        again.t_ns = snap.t_ns;
        assert_eq!(again.to_json(), snap.to_json());
    }

    /// A latency past [`SLO_LATENCY_US`]: a bad event for the latency
    /// objective.
    const SLOW_US: f64 = 300_000.0;

    #[test]
    fn health_flips_to_503_under_sustained_burn() {
        // Every request is slower than the threshold, so the latency
        // objective burns at 100x budget immediately.
        let state = ServerState::new();
        let (status, body) = state.health_json(10);
        assert_eq!(status, 200, "idle server is healthy: {body}");
        let minute = 60 * 1_000_000_000u64;
        for i in 0..200u64 {
            state.observe("cost", SLOW_US, None, (i + 1) * minute / 4);
        }
        let (status, body) = state.health_json(200 * minute / 4);
        assert_eq!(status, 503, "{body}");
        nanocost_sentinel::json::parse(&body).expect("health must be valid JSON");
        assert!(body.contains("\"status\":\"failing\""), "{body}");
        assert!(body.contains("\"name\":\"latency\""), "{body}");
        assert!(body.contains("\"name\":\"shed_rate\""), "{body}");
    }

    #[test]
    fn one_early_stamped_feed_does_not_page_on_lifetime_totals() {
        let state = ServerState::new();
        let s = 1_000_000_000u64;
        // 100 slow requests in minute 1, then 40 minutes of healthy
        // traffic: the incident has left both burn windows.
        for i in 0..100u64 {
            state.observe("cost", SLOW_US, None, i * s * 6 / 10);
        }
        let end = 41 * 60 * s;
        let mut t = 60 * s;
        while t <= end {
            state.observe("cost", 100.0, None, t);
            t += 2 * s;
        }
        // A concurrent request stamped its clock just before the last
        // one but reached the monitors after it.
        state.observe("cost", 100.0, None, t - 2 * s - 1_000);
        let (status, body) = state.health_json(end);
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"fast_burn\":0.0,"), "{body}");
    }

    #[test]
    fn access_record_field_order_is_stable() {
        assert_eq!(
            render_access_record("r7", "cost", 200, 12345, 1, 0),
            "{\"req_id\":\"r7\",\"endpoint\":\"cost\",\"status\":200,\"latency_ns\":12345,\"cache_hits\":1,\"cache_misses\":0}\n"
        );
    }

    #[test]
    fn profile_ring_bounds_retention_and_counts_drops() {
        let ring = ProfileRing::new(3);
        let snap = |thread: u64| nanocost_trace::stack_registry::StackSnapshot {
            thread,
            frames: vec!["serve.request", "serve.endpoint.cost"],
            depth: 2,
            req_id: Some(format!("r{thread}")),
        };
        ring.push_batch(&[snap(1), snap(2)], 1_000);
        ring.push_batch(&[snap(3), snap(4)], 2_000);
        assert_eq!(ring.len(), 3, "capacity 3 keeps the newest 3");
        assert_eq!(ring.dropped(), 1);
        // The oldest sample (thread 1 @ 1000) was evicted.
        let all = ring.window(0, u64::MAX);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].thread, 2);
        // Half-open windowing.
        assert_eq!(ring.window(2_000, 2_001).len(), 2);
        assert_eq!(ring.window(0, 1_000).len(), 0);
        let report = ProfileReport::from_samples(&all, None);
        assert_eq!(report.samples, 3);
        assert_eq!(report.endpoints.get("cost"), Some(&3));
    }

    #[test]
    fn profile_report_json_is_served_from_the_ring() {
        let state = ServerState::new();
        let now = nanocost_trace::epoch_nanos();
        let snap = nanocost_trace::stack_registry::StackSnapshot {
            thread: 7,
            frames: vec!["serve.request"],
            depth: 1,
            req_id: None,
        };
        state.profile_ring().push_batch(&[snap], now);
        let doc = state.profile_report_json(60);
        nanocost_sentinel::json::parse(&doc).expect("profile report is valid JSON");
        let report = ProfileReport::from_json(&doc).expect("parses back");
        assert_eq!(report.samples, 1);
        assert_eq!(report.frames[0].name, "serve.request");
    }

    #[test]
    fn gauges_and_worker_telemetry_render_in_metrics() {
        let state = ServerState::new();
        let workers = state.install_workers(2);
        workers[0].busy_ns.fetch_add(750, Ordering::Relaxed);
        workers[0].idle_ns.fetch_add(250, Ordering::Relaxed);
        workers[0].served.fetch_add(3, Ordering::Relaxed);
        state.note_conn_open();
        state.note_queue_push();
        let doc = state.metrics_json();
        nanocost_sentinel::json::parse(&doc).expect("metrics must be valid JSON");
        assert!(doc.contains("\"gauges\":{\"queue.depth\":1,\"accept.backlog\":1}"), "{doc}");
        assert!(doc.contains("\"workers\":[{\"busy_ns\":750,\"idle_ns\":250,\"served\":3},"), "{doc}");
        assert!(doc.contains("\"profile\":{\"hz\":99,"), "{doc}");
        state.note_queue_pop();
        state.note_conn_close();
        let doc = state.metrics_json();
        assert!(doc.contains("\"gauges\":{\"queue.depth\":0,\"accept.backlog\":0}"), "{doc}");
        // Underflow is clamped, not wrapped.
        state.note_queue_pop();
        state.note_conn_close();
        assert!(state.metrics_json().contains("\"queue.depth\":0"));
    }

    #[test]
    fn eviction_watermark_distinguishes_evicted_from_unknown() {
        let cfg = ServerStateConfig { trace_ring: 2, ..ServerStateConfig::default() };
        let state = ServerState::with_config(cfg).expect("valid config");
        // Issue ids so the watermark check can bound by them.
        for _ in 0..4 {
            let _ = state.next_request_id();
        }
        for i in 1..=4 {
            state.store_trace(&format!("r{i}"), &[]);
        }
        // r1, r2 evicted; r3, r4 live; r9 never issued.
        assert!(state.likely_evicted("r1"));
        assert!(state.likely_evicted("r2"));
        assert!(!state.likely_evicted("r3"), "r3 is still in the ring");
        assert!(!state.likely_evicted("r9"), "r9 was never issued");
        assert!(!state.likely_evicted("bogus"));
    }

    #[test]
    fn config_from_env_rejects_typos() {
        // Uses a process-global env var: keep the key unique per test.
        std::env::set_var("NANOCOST_SERVE_TRACE_RING", "not-a-number");
        let err = ServerStateConfig::from_env().expect_err("typo must refuse to start");
        assert!(err.contains("NANOCOST_SERVE_TRACE_RING"), "{err}");
        std::env::set_var("NANOCOST_SERVE_TRACE_RING", "512");
        let cfg = ServerStateConfig::from_env().expect("valid");
        assert_eq!(cfg.trace_ring, 512);
        std::env::remove_var("NANOCOST_SERVE_TRACE_RING");
    }
}
