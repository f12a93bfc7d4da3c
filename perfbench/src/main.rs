//! nanocost-perfbench — the repository benchmark.
//!
//! Usage (normally through `perfbench/run.py`, which builds this binary
//! and the `serve` binary first):
//!
//! ```text
//! nanocost-perfbench --serve-bin PATH --workload explore|sweep|figures
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric by name with its unit, the run environment as one
//! `{"env":…}` line, and, as the last line, the result object
//! `{"correct","attempted","failed","metrics"}`. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones. See README.md.

mod check;
mod client;
mod figures;
mod gen;
mod layers;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::client::{closed_loop, RssProbe, Run, ServerProc};
use crate::gen::{ChipletSpec, CostSpec, Explore, Plan, Spec, Sweep, ENDPOINTS};
use crate::stats::{mean, median, p99, sort, Windows, TAIL_WINDOW_MIN_SAMPLES, WINDOW_MIN_SAMPLES};

/// Stage-table residual above this share of the client p50 is flagged.
const RESIDUAL_WARN_SHARE: f64 = 0.10;

/// Wall-time budget of the in-process replay of a traced run.
const REPLAY_BUDGET: Duration = Duration::from_secs(6);

/// Set-up repeats, a short pause apart, until it has run at least
/// `SETUP_MIN_REPS` times and for `SETUP_MIN_TIME`, at most
/// `SETUP_MAX_REPS` times, so the repeats span the machine's slow and
/// fast phases; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 300;
const SETUP_MIN_TIME: Duration = Duration::from_secs(4);
const SETUP_PAUSE: Duration = Duration::from_millis(20);

/// Whether another set-up repeat is due after `done` taking `spent`.
fn more_setups(done: usize, spent: Duration) -> bool {
    let due = done < SETUP_MIN_REPS || (done < SETUP_MAX_REPS && spent < SETUP_MIN_TIME);
    if due && done > 0 {
        std::thread::sleep(SETUP_PAUSE);
    }
    due
}

struct Args {
    serve_bin: String,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        serve_bin: String::new(),
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--serve-bin" => args.serve_bin = value()?,
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !matches!(args.workload.as_str(), "explore" | "sweep" | "figures") {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.workload != "figures" && args.serve_bin.is_empty() {
        return Err("--serve-bin is required for HTTP workloads".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Named metrics in report order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    fn set(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.0.push((name.into(), value, unit.to_string()));
    }
}

/// What one run reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    env: BTreeMap<&'static str, String>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// Median and reported p99 of `values`.
fn p50_p99(mut values: Vec<f64>) -> (f64, f64) {
    let sorted = sort(&mut values);
    (median(sorted), p99(sorted))
}

/// One completed unit of work: a request or a figure pass.
struct Work {
    /// Completion time, seconds since the measured phase began.
    done_s: f64,
    /// Its latency.
    ns: f64,
    /// Cost-model answers it delivered.
    points: usize,
}

/// The sorted latencies and the points delivered in each of `windows`.
fn by_window(work: &[Work], windows: Windows) -> (Vec<Vec<f64>>, Vec<usize>) {
    let mut latencies = vec![Vec::new(); windows.count()];
    let mut points = vec![0usize; windows.count()];
    for w in work {
        let k = windows.slot(w.done_s);
        latencies[k].push(w.ns);
        points[k] += w.points;
    }
    for ns in &mut latencies {
        sort(ns);
    }
    (latencies, points)
}

/// The end-to-end timing metrics of a measured phase of `span` seconds:
/// each is the median over the phase's [`Windows`] of its per-window
/// value, the p99 over windows large enough for a true p99. `setup_s`
/// is the median of the set-up repeats. Whole-phase values and those of
/// the busiest window go to `env`.
fn end_to_end(
    m: &mut Metrics,
    env: &mut BTreeMap<&'static str, String>,
    setups: &mut [f64],
    work: &[Work],
    span: f64,
) {
    let windows = Windows::cut(work.len(), span, WINDOW_MIN_SAMPLES);
    let (latencies, points) = by_window(work, windows);
    let p50s: Vec<f64> = latencies.iter().map(|ns| median(ns)).collect();
    let rates: Vec<f64> = latencies
        .iter()
        .map(|ns| ns.len() as f64 / windows.width())
        .collect();
    let point_rates: Vec<f64> = points.iter().map(|&p| p as f64 / windows.width()).collect();
    let tail_windows = Windows::cut(work.len(), span, TAIL_WINDOW_MIN_SAMPLES);
    let p99s: Vec<f64> = by_window(work, tail_windows)
        .0
        .iter()
        .map(|ns| p99(ns))
        .collect();
    let busiest = (0..windows.count())
        .max_by(|&a, &b| rates[a].total_cmp(&rates[b]))
        .unwrap_or(0);
    let (all_p50, all_p99) = p50_p99(work.iter().map(|w| w.ns).collect());
    env.insert("setup_repeats", setups.len().to_string());
    env.insert("windows", windows.count().to_string());
    env.insert("window_seconds", format!("{:.3}", windows.width()));
    env.insert("tail_windows", tail_windows.count().to_string());
    env.insert("whole_phase_p50_ms", format!("{:.4}", ms(all_p50)));
    env.insert("whole_phase_p99_ms", format!("{:.4}", ms(all_p99)));
    env.insert(
        "whole_phase_rate",
        format!("{:.3}", work.len() as f64 / span),
    );
    env.insert("busiest_window_p50_ms", format!("{:.4}", ms(p50s[busiest])));
    env.insert("busiest_window_rate", format!("{:.3}", rates[busiest]));
    let med = |mut v: Vec<f64>| median(sort(&mut v));
    m.set("setup_s", median(sort(setups)), "s");
    m.set("latency_p50_ms", ms(med(p50s)), "ms");
    m.set("latency_p99_ms", ms(med(p99s)), "ms");
    m.set("throughput_rps", med(rates), "1/s");
    m.set("points_per_s", med(point_rates), "points/s");
}

// ---- HTTP workloads ----------------------------------------------------

/// The workload's request stream plus what its setup and per-layer
/// report need.
struct HttpWorkload {
    plan: Box<dyn Plan>,
    /// Requests sent once during setup (the cache warm-up pass).
    warm: Vec<Spec>,
    /// Inputs of the direct cache-tier calls.
    tier_points: Vec<CostSpec>,
    tier_batches: Vec<Vec<CostSpec>>,
    /// The server's peak resident set is read when the measured phase
    /// has completed this many requests, so it covers the same work
    /// however fast the server is: it grows with requests served, as the
    /// rendered traces of the 256-entry trace ring fragment the heap.
    /// Each count is reached about halfway through a 35 s run, after the
    /// ring has turned over several times.
    rss_at: usize,
}

fn explore_chiplets(seed: u64) -> Vec<ChipletSpec> {
    Explore::new(seed)
        .distinct
        .into_iter()
        .filter_map(|s| match s {
            Spec::Chiplet(c) => Some(c),
            _ => None,
        })
        .collect()
}

/// Seeded sweep-lattice points and batches, for the cache-tier calls.
fn sweep_tier_inputs(seed: u64) -> (Vec<CostSpec>, Vec<Vec<CostSpec>>) {
    let plan = Sweep::new(seed);
    let batches: Vec<Vec<CostSpec>> = (0..8)
        .filter_map(|k| match plan.request(k * gen::SWEEP_BATCH_EVERY).1 {
            Spec::Batch(q) => Some(q),
            _ => None,
        })
        .collect();
    let points = batches
        .first()
        .map(|b| b[..256].to_vec())
        .unwrap_or_default();
    (points, batches)
}

fn http_workload(name: &str, seed: u64) -> HttpWorkload {
    if name == "explore" {
        let plan = Explore::new(seed);
        let mut tier_points = Vec::new();
        let mut tier_batches = Vec::new();
        for s in &plan.distinct {
            match s {
                Spec::Cost(c) => tier_points.push(*c),
                Spec::Batch(q) => tier_batches.push(q.clone()),
                _ => {}
            }
        }
        let warm = plan.distinct.clone();
        HttpWorkload {
            plan: Box::new(plan),
            warm,
            tier_points,
            tier_batches,
            rss_at: 8_000,
        }
    } else {
        let (tier_points, tier_batches) = sweep_tier_inputs(seed);
        HttpWorkload {
            plan: Box::new(Sweep::new(seed)),
            warm: Vec::new(),
            tier_points,
            tier_batches,
            rss_at: 1_000,
        }
    }
}

fn run_http(args: &Args) -> Result<Outcome, String> {
    let workers = nproc();
    let connections = workers;
    let w = http_workload(&args.workload, args.seed);

    // Set-up: server start, readiness and the warm-up pass, several
    // times; the last server serves the measured phase.
    let mut setups = Vec::new();
    let mut server: Option<ServerProc> = None;
    let started = Instant::now();
    while more_setups(setups.len(), started.elapsed()) {
        if let Some(previous) = server.take() {
            previous.stop();
        }
        let t = Instant::now();
        let s = ServerProc::start(&args.serve_bin, workers)?;
        let warmed = client::warm_up(&s.addr, &w.warm);
        setups.push(t.elapsed().as_secs_f64());
        if let Err(e) = warmed {
            s.stop();
            return Err(e);
        }
        server = Some(s);
    }
    let server = server.ok_or("no server started")?;
    let addr = server.addr.clone();

    // Measured phase(s). A traced run first repeats an untraced half so
    // its tracing overhead is measured against the same server.
    let mut runs: Vec<Run> = Vec::new();
    let mut scrapes = None;
    let rss_probe = RssProbe {
        status_path: server.status_path(),
        at_completions: w.rss_at,
    };
    let measured = (|| -> Result<(), String> {
        if args.trace {
            let half = args.seconds / 2.0;
            runs.push(closed_loop(
                &addr,
                w.plan.as_ref(),
                connections,
                0,
                half,
                false,
                None,
            ));
            let start = runs[0]
                .samples
                .iter()
                .map(|s| s.seq % client::CALLER_STRIDE + 1)
                .max()
                .unwrap_or(0);
            let before = client::scrape(&addr)?;
            runs.push(closed_loop(
                &addr,
                w.plan.as_ref(),
                connections,
                start,
                half,
                true,
                None,
            ));
            scrapes = Some((before, client::scrape(&addr)?));
        } else {
            runs.push(closed_loop(
                &addr,
                w.plan.as_ref(),
                connections,
                0,
                args.seconds,
                false,
                Some(&rss_probe),
            ));
        }
        Ok(())
    })();
    // A phase too short to reach the probe's count reads at its end.
    let peak_rss_mb = runs
        .last()
        .and_then(|r| r.peak_rss_mb)
        .unwrap_or_else(|| client::peak_rss_mb(&rss_probe.status_path));
    server.stop();
    measured?;

    // Reference check, after every timed phase.
    let all: Vec<client::Sample> = runs
        .iter()
        .flat_map(|r| r.samples.iter().cloned())
        .collect();
    let mut attempted = all.len();
    let reference = |id: usize| check::reference(&w.plan.spec(id));
    let mut failed = check::count_failures(&all, nproc(), &reference);

    let mut env = BTreeMap::new();
    env.insert("server_workers", workers.to_string());
    env.insert("connections", connections.to_string());
    env.insert("requests", attempted.to_string());
    let measured_run = runs.last().ok_or("no measured run")?;
    let ok: Vec<&client::Sample> = measured_run.samples.iter().filter(|s| s.ok()).collect();
    env.insert("latency_samples", ok.len().to_string());
    for ep in ENDPOINTS {
        let n = measured_run
            .samples
            .iter()
            .filter(|s| s.endpoint == ep)
            .count();
        env.insert(endpoint_key(ep), n.to_string());
    }

    let mut metrics = Metrics::default();
    if args.trace {
        let (before, after) = scrapes.ok_or("traced run without scrapes")?;
        let p50_of = |samples: &[client::Sample]| {
            let ns = samples
                .iter()
                .filter(|s| s.ok())
                .filter_map(|s| s.exchange.as_ref());
            p50_p99(ns.map(|e| e.total_ns as f64).collect()).0
        };
        let (p50_ns, untraced_p50) = (p50_of(&measured_run.samples), p50_of(&runs[0].samples));
        let ctx = TraceContext {
            workload: &w,
            seed: args.seed,
            addr: &addr,
            samples: &ok,
            client_p50_ns: p50_ns,
            untraced_p50_ns: untraced_p50,
            before: &before,
            after: &after,
        };
        http_layers(&ctx, &mut metrics, &mut env);
        let (checks, wrong) = figure_layer(&mut metrics)?;
        attempted += checks;
        failed += wrong;
    } else {
        let work: Vec<Work> = ok
            .iter()
            .filter_map(|s| {
                Some(Work {
                    done_s: s.done_s,
                    ns: s.exchange.as_ref()?.total_ns as f64,
                    points: s.points,
                })
            })
            .collect();
        end_to_end(
            &mut metrics,
            &mut env,
            &mut setups,
            &work,
            measured_run.elapsed_s,
        );
        metrics.set(
            "ok_share",
            (attempted - failed) as f64 / attempted.max(1) as f64,
            "ratio",
        );
        metrics.set("peak_rss_mb", peak_rss_mb, "MB");
        let rss_read_at = match measured_run.peak_rss_mb {
            Some(_) => w.rss_at.to_string(),
            None => "end".into(),
        };
        env.insert("peak_rss_read_at_request", rss_read_at);
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        env,
    })
}

fn endpoint_key(ep: &str) -> &'static str {
    match ep {
        "cost" => "requests_cost",
        "yield" => "requests_yield",
        "optimum" => "requests_optimum",
        "batch" => "requests_batch",
        _ => "requests_chiplet",
    }
}

struct TraceContext<'a> {
    workload: &'a HttpWorkload,
    seed: u64,
    addr: &'a str,
    samples: &'a [&'a client::Sample],
    client_p50_ns: f64,
    untraced_p50_ns: f64,
    before: &'a client::Scrape,
    after: &'a client::Scrape,
}

/// Per-layer metrics of an HTTP workload: client socket phases, the
/// in-process replay of the same stream, and the `/v1/metrics` deltas.
fn http_layers(ctx: &TraceContext<'_>, m: &mut Metrics, env: &mut BTreeMap<&'static str, String>) {
    // (b) Replay the traced stream in-process, warmed like the server.
    let states = layers::ReplayStates::warmed(&ctx.workload.warm);
    let started = Instant::now();
    let mut replayed: Vec<(&client::Sample, layers::Replayed)> = Vec::new();
    for s in ctx.samples {
        if started.elapsed() > REPLAY_BUDGET {
            break;
        }
        let (_, spec) = ctx.workload.plan.request(s.seq);
        let request = client::request_bytes(ctx.addr, &spec);
        let r = layers::replay(&states, &request, &spec, &format!("x{}", s.seq));
        replayed.push((s, r));
    }
    env.insert("replayed_requests", replayed.len().to_string());

    let phase = |f: fn(&client::Phases) -> u64| -> Vec<f64> {
        ctx.samples
            .iter()
            .filter_map(|s| s.exchange.as_ref())
            .map(|e| f(&e.phases) as f64)
            .collect()
    };
    let col = |f: fn(&layers::Replayed) -> f64| -> Vec<f64> {
        replayed.iter().map(|(_, r)| f(r)).collect()
    };
    let waits: Vec<f64> = replayed
        .iter()
        .filter_map(|(s, r)| {
            let e = s.exchange.as_ref()?;
            Some(e.phases.to_first_byte as f64 - (r.parse_ns + r.handle_ns + r.encode_ns))
        })
        .collect();
    let (wait_p50, wait_p99) = p50_p99(waits);
    let (connect_p50, _) = p50_p99(phase(|p| p.connect));
    let (read_p50, _) = p50_p99(phase(|p| p.read));
    let (parse_p50, _) = p50_p99(col(|r| r.parse_ns));
    let (encode_p50, _) = p50_p99(col(|r| r.encode_ns));
    let (handle_p50, _) = p50_p99(col(|r| r.handle_ns));
    let (decode_p50, _) = p50_p99(col(|r| r.decode_ns));
    let (store_p50, _) = p50_p99(col(|r| r.store_ns));
    let decoded_bytes: f64 = replayed.iter().map(|(_, r)| r.body_bytes as f64).sum();
    let decode_ns: f64 = col(|r| r.decode_ns).iter().sum();

    let (before, after) = (ctx.before, ctx.after);
    let busy = after.busy_ns - before.busy_ns;
    let idle = after.idle_ns - before.idle_ns;
    let share = |h: f64, miss: f64| if h + miss > 0.0 { h / (h + miss) } else { 0.0 };

    m.set("server.wait_us.p50", us(wait_p50), "us");
    m.set("server.wait_us.p99", us(wait_p99), "us");
    m.set("server.worker_busy_share", share(busy, idle), "ratio");
    m.set("net.connect_us.p50", us(connect_p50), "us");
    m.set("net.read_us.p50", us(read_p50), "us");
    m.set("http.parse_us.p50", us(parse_p50), "us");
    m.set("http.encode_us.p50", us(encode_p50), "us");
    m.set(
        "http.request_bytes.mean",
        mean(
            &ctx.samples
                .iter()
                .map(|s| s.request_bytes as f64)
                .collect::<Vec<_>>(),
        ),
        "bytes",
    );
    m.set(
        "http.response_bytes.mean",
        mean(&col(|r| r.response_bytes as f64)),
        "bytes",
    );
    m.set("api.handle_us.p50", us(handle_p50), "us");
    m.set("json.decode_us.p50", us(decode_p50), "us");
    m.set(
        "json.decode_mb_s",
        if decode_ns > 0.0 {
            decoded_bytes / decode_ns * 1e3
        } else {
            0.0
        },
        "MB/s",
    );
    for ep in ENDPOINTS {
        let of_ep = |f: fn(&layers::Replayed) -> f64| -> Vec<f64> {
            replayed
                .iter()
                .filter(|(_, r)| r.endpoint == ep)
                .map(|(_, r)| f(r))
                .collect()
        };
        let (p50, p99) = p50_p99(of_ep(|r| r.handle_ns));
        m.set(format!("api.handle_us.p50.{ep}"), us(p50), "us");
        m.set(format!("api.handle_us.p99.{ep}"), us(p99), "us");
        let server_p50 = after
            .endpoint_p50_us
            .iter()
            .find(|(n, _)| n == ep)
            .map_or(0.0, |(_, v)| *v);
        m.set(format!("state.endpoint_p50_us.{ep}"), server_p50, "us");
        m.set(
            format!("trace.records_per_request.{ep}"),
            mean(&of_ep(|r| r.records as f64)),
            "count",
        );
        let (overhead, _) = p50_p99(of_ep(|r| r.capture_overhead_ns));
        m.set(
            format!("trace.capture_overhead_us.p50.{ep}"),
            us(overhead),
            "us",
        );
    }
    m.set(
        "state.trace_ring_evicted",
        after.trace_ring_evicted - before.trace_ring_evicted,
        "count",
    );
    m.set("trace.store_us.p50", us(store_p50), "us");
    m.set(
        "cache.hit_rate",
        share(
            after.cache_hits - before.cache_hits,
            after.cache_misses - before.cache_misses,
        ),
        "ratio",
    );
    m.set(
        "chiplet_cache.hit_rate",
        share(
            after.chiplet_hits - before.chiplet_hits,
            after.chiplet_misses - before.chiplet_misses,
        ),
        "ratio",
    );
    cache_tier_metrics(
        m,
        &ctx.workload.tier_points,
        &explore_chiplets(ctx.seed),
        &ctx.workload.tier_batches,
    );

    // The stage table: blocking stages of one request, then the residual.
    let stages = [
        ("net.connect", connect_p50),
        ("server.wait", wait_p50),
        ("http.parse", parse_p50),
        ("api.handle", handle_p50),
        ("http.encode", encode_p50),
        ("net.read", read_p50),
    ];
    let sum: f64 = stages.iter().map(|(_, v)| v).sum();
    let residual = ctx.client_p50_ns - sum;
    m.set("client.latency_us.p50", us(ctx.client_p50_ns), "us");
    m.set("unattributed_us.p50", us(residual), "us");
    m.set(
        "trace.overhead_ms",
        ms(ctx.client_p50_ns - ctx.untraced_p50_ns),
        "ms",
    );

    let mut table = String::from("stage table (p50, us):\n");
    for (name, v) in &stages {
        let _ = writeln!(table, "  {name:<22}{:>12.1}", us(*v));
        if *name == "api.handle" {
            let _ = writeln!(table, "    {:<20}{:>12.1}", "(json.decode)", us(decode_p50));
            let _ = writeln!(table, "    {:<20}{:>12.1}", "(trace.store)", us(store_p50));
        }
    }
    let _ = writeln!(table, "  {:<22}{:>12.1}", "sum of stages", us(sum));
    let _ = writeln!(
        table,
        "  {:<22}{:>12.1}",
        "client latency",
        us(ctx.client_p50_ns)
    );
    let _ = write!(table, "  {:<22}{:>12.1}", "unattributed", us(residual));
    println!("{table}");
    if residual.abs() > RESIDUAL_WARN_SHARE * ctx.client_p50_ns {
        println!(
            "warning: unattributed p50 is {:.1}% of the client p50 (limit {:.0}%)",
            100.0 * residual / ctx.client_p50_ns,
            100.0 * RESIDUAL_WARN_SHARE
        );
    }
}

fn cache_tier_metrics(
    m: &mut Metrics,
    points: &[CostSpec],
    chiplets: &[ChipletSpec],
    batches: &[Vec<CostSpec>],
) {
    let t = layers::cache_tiers(points, chiplets, batches);
    for (name, tier) in [
        ("point", t.point),
        ("mask", t.mask),
        ("report", t.report),
        ("optimum", t.optimum),
    ] {
        m.set(format!("cache.hit_ns.{name}"), tier.hit_ns, "ns");
        m.set(format!("cache.miss_ns.{name}"), tier.miss_ns, "ns");
    }
    m.set("chiplet_cache.hit_ns", t.chiplet.hit_ns, "ns");
    m.set("chiplet_cache.miss_ns", t.chiplet.miss_ns, "ns");
    m.set("cache.batch_ns_per_query", t.batch_ns_per_query, "ns");
    for (name, tier) in [
        ("point", t.point),
        ("mask", t.mask),
        ("report", t.report),
        ("optimum", t.optimum),
        ("chiplet", t.chiplet),
    ] {
        m.set(
            format!("model.recompute_ns.{name}"),
            tier.recompute_ns,
            "ns",
        );
        let ratio = if tier.recompute_ns > 0.0 {
            tier.hit_ns / tier.recompute_ns
        } else {
            0.0
        };
        m.set(format!("cache.hit_over_recompute.{name}"), ratio, "ratio");
    }
}

// ---- figures ---------------------------------------------------------

/// How long a traced HTTP run also times the figure pipelines, so the
/// `bench::figures` layer is measured on the workloads the benchmark
/// gates on.
const FIGURE_LAYER_TIME: Duration = Duration::from_secs(2);

/// The median time of each figure pipeline over `times`.
fn figure_metrics(m: &mut Metrics, times: &[figures::PassTimes]) {
    let p50 = |f: fn(&figures::PassTimes) -> f64| {
        ms(median(sort(&mut times.iter().map(f).collect::<Vec<_>>())))
    };
    m.set("figures.figure4_ms", p50(|t| t.figure4_ns), "ms");
    m.set(
        "figures.chiplet_crossover_ms",
        p50(|t| t.crossover_ns),
        "ms",
    );
    m.set("figures.optimum_surface_ms", p50(|t| t.surface_ns), "ms");
}

/// Figure passes for `FIGURE_LAYER_TIME`, timed per pipeline, then
/// checked as on `figures`: each pass against the uncached reference,
/// and the provenance digests against `FINGERPRINTS.json` once.
/// Returns the checks made and the checks failed.
fn figure_layer(m: &mut Metrics) -> Result<(usize, usize), String> {
    let reference = figures::reference(figures::pass()?.0.crossover)?;
    let deadline = Instant::now() + FIGURE_LAYER_TIME;
    let mut times = Vec::new();
    let mut failed = fingerprint_failures()?;
    while Instant::now() < deadline {
        let (out, pass_times) = figures::pass()?;
        times.push(pass_times);
        if out != reference {
            failed += 1;
        }
    }
    figure_metrics(m, &times);
    Ok((times.len() + 2, failed))
}

/// Provenance digests of `figure4` and `chiplet_crossover` that differ
/// from the blessed `FINGERPRINTS.json`.
fn fingerprint_failures() -> Result<usize, String> {
    let fingerprints = std::fs::read_to_string("FINGERPRINTS.json")
        .map_err(|e| format!("cannot read FINGERPRINTS.json: {e}"))?;
    figures::fingerprint_failures(&fingerprints)
}

fn run_figures(args: &Args) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while more_setups(setups.len(), started.elapsed()) {
        let t = Instant::now();
        last = Some(figures::pass()?.0);
        setups.push(t.elapsed().as_secs_f64());
    }
    // The uncached reference; the crossover's comes from a set-up pass,
    // which the fingerprint check pins.
    let crossover = last.map(|o| o.crossover).unwrap_or_default();
    let reference = figures::reference(crossover)?;

    // Measured phase: only the passes themselves are timed; comparing
    // each output with the reference happens between the timers.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut times = Vec::new();
    let mut wall = Vec::new();
    let mut failed = 0;
    let mut points = 0;
    while Instant::now() < deadline {
        let t = Instant::now();
        let (out, pass_times) = figures::pass()?;
        wall.push(t.elapsed().as_nanos() as f64);
        times.push(pass_times);
        points = out.points();
        if out != reference {
            failed += 1;
        }
    }
    // Completion times run on the clock of pass time alone.
    let busy_s: f64 = wall.iter().sum::<f64>() / 1e9;
    let work: Vec<Work> = wall
        .iter()
        .scan(0.0, |clock, &ns| {
            *clock += ns / 1e9;
            Some(Work {
                done_s: *clock,
                ns,
                points,
            })
        })
        .collect();
    let peak_rss_mb = client::peak_rss_mb("/proc/self/status");
    failed += fingerprint_failures()?;
    let passes = wall.len();
    let attempted = passes + 2;

    let mut env = BTreeMap::new();
    env.insert("passes", passes.to_string());
    env.insert("latency_samples", passes.to_string());
    env.insert("points_per_pass", points.to_string());

    let mut metrics = Metrics::default();
    if args.trace {
        let (points, batches) = sweep_tier_inputs(args.seed);
        cache_tier_metrics(
            &mut metrics,
            &points,
            &explore_chiplets(args.seed),
            &batches,
        );
        figure_metrics(&mut metrics, &times);
    } else {
        end_to_end(&mut metrics, &mut env, &mut setups, &work, busy_s);
        metrics.set(
            "ok_share",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        );
        metrics.set("peak_rss_mb", peak_rss_mb, "MB");
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        env,
    })
}

// ---- output ------------------------------------------------------------

/// Puts `metrics` in the order `BENCHMARK.json` lists them (the
/// per-layer list when `trace`, else the end-to-end one). A per-layer
/// metric of a layer this workload does not run reads 0. A measured
/// metric the file does not list, or a missing end-to-end one, is an
/// error, so the report and the file cannot drift apart.
fn complete(metrics: &mut Metrics, trace: bool) -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let doc = nanocost_sentinel::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let listed = doc
        .get(key)
        .and_then(|v| v.as_arr())
        .ok_or(format!("BENCHMARK.json has no {key}"))?;
    let mut measured = std::mem::take(&mut metrics.0);
    for entry in listed {
        let name = entry
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or("unnamed metric")?;
        let unit = entry
            .get("unit")
            .and_then(|v| v.as_str())
            .ok_or("metric without unit")?;
        match measured.iter().position(|(n, _, _)| n == name) {
            Some(i) => {
                let (n, value, u) = measured.remove(i);
                if u != unit {
                    return Err(format!("{name} is measured in {u}, listed in {unit}"));
                }
                metrics.0.push((n, value, u));
            }
            None if trace => metrics.set(name, 0.0, unit),
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    if let Some((name, _, _)) = measured.first() {
        return Err(format!("{name} is not listed in BENCHMARK.json"));
    }
    Ok(())
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.workload == "figures" {
        run_figures(&args)
    } else {
        run_http(&args)
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = complete(&mut outcome.metrics, args.trace) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    outcome.env.insert("workload", args.workload.clone());
    outcome.env.insert("seed", args.seed.to_string());
    outcome.env.insert("seconds", args.seconds.to_string());
    outcome
        .env
        .insert("trace", u8::from(args.trace).to_string());
    outcome.env.insert("nproc", nproc().to_string());
    outcome.env.insert("rustc", rustc_version());
    outcome
        .env
        .insert("attempted", outcome.attempted.to_string());
    outcome.env.insert("failed", outcome.failed.to_string());

    println!(
        "{} seed={} trace={}: {} attempted, {} failed (failed_share {:.6})",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for (name, value, unit) in &outcome.metrics.0 {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    let env: Vec<String> = outcome
        .env
        .iter()
        .map(|(k, v)| {
            format!(
                "{}:{}",
                nanocost_trace::value::json_string(k),
                nanocost_trace::value::json_string(v)
            )
        })
        .collect();
    println!("{{\"env\":{{{}}}}}", env.join(","));
    let metrics: Vec<String> = outcome
        .metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                nanocost_trace::value::json_string(name),
                json_num(*value),
                nanocost_trace::value::json_string(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
}
