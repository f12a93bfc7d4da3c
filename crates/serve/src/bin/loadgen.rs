//! loadgen — drive a running nanocost-serve with a concurrent request
//! mix and capture client-side latencies.
//!
//! Run with:
//!   `cargo run -p nanocost-serve --bin loadgen -- --addr 127.0.0.1:8077 \
//!      --requests 200 --mix cost,optimum,batch`
//!
//! Options:
//!   --addr HOST:PORT        server address (required unless --replica)
//!   --replica URL           fleet replica to drive (repeatable; replaces
//!                           --addr). Requests route by a consistent hash
//!                           of `"{endpoint}:{body}"`, so one request
//!                           always lands on the same replica — per-replica cache locality under
//!                           fan-out, and a stable assignment when a
//!                           replica is added or removed
//!   --requests N            total requests (default 200)
//!   --mix a,b,c             endpoints to cycle through: cost, yield,
//!                           optimum, batch, chiplet (default
//!                           cost,optimum,batch)
//!   --chiplet-share F       divert this fraction of requests (0..=1) to
//!                           /v1/chiplet instead of the --mix cycle; the
//!                           chiplet grid overlaps so the server's
//!                           chiplet cache has hits to report, and the
//!                           scenario keys route through the same
//!                           consistent-hash ring as everything else
//!   --require-chiplet-hits  fail unless /v1/metrics/raw reports chiplet
//!                           cache hits afterwards
//!   --chiplet-provenance-out PATH  fetch the /v1/trace capture of one
//!                           chiplet request, require Eq.C provenance in
//!                           it, and save it
//!   --concurrency C         client threads (default 4)
//!   --provenance-out PATH   fetch one `/v1/trace/<req-id>` and save it
//!
//! Soak criteria (the SLO-aware pass/fail checks the CI soak gate uses):
//!   --allow-shed            a 503 counts as shed load, not a failure
//!   --max-shed-rate F       fail if shed/total exceeds F (requires --allow-shed)
//!   --slo-p99-us N          fail if the client-observed overall p99 exceeds N us
//!   --exemplar-traces PREFIX  fetch /v1/metrics/raw, follow every
//!                           endpoint's p99 exemplar (the one /v1/metrics
//!                           renders) to `/v1/trace/<req-id>`, and save
//!                           each capture to `PREFIX.<endpoint>.jsonl`; fail
//!                           if no endpoint produced an exemplar
//!   --max-evicted-exemplars N  tolerate up to N exemplars answering
//!                           410 (evicted from the trace ring under
//!                           load) instead of failing the drill-down
//!                           check (default 0)
//!   --profile-out PATH      fetch /v1/profile?window_s=60 afterwards and
//!                           save the sampling-profiler report JSON
//!
//! Exits non-zero on any non-2xx response (except shed 503s under
//! --allow-shed) or any violated soak criterion, so CI can gate on it.
//! Live server state after the run — quantiles, cache counters, the
//! SLO verdict — is `fleet_report`'s to read, for one replica or many.
//!
//! The request grid deliberately overlaps (a handful of distinct design
//! points cycled many times) — the paper's interactive exploration
//! pattern — so the server's scenario cache has hits to report.

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

use std::time::Instant;

use nanocost_sentinel::attach::{http_get, http_get_ok, request};
use nanocost_sentinel::json;
use nanocost_sentinel::RawSnapshot;

struct Options {
    addr: String,
    /// Fleet targets; when non-empty, requests consistent-hash across
    /// them and `addr` must be unset.
    replicas: Vec<String>,
    requests: usize,
    mix: Vec<String>,
    /// Entries `0..cycle_len` of `mix` cycle round-robin; anything past
    /// that (the appended `chiplet` lane) is filled by `--chiplet-share`.
    cycle_len: usize,
    /// Fraction of requests diverted to `/v1/chiplet` (0 = none).
    chiplet_share: f64,
    require_chiplet_hits: bool,
    chiplet_provenance_out: Option<String>,
    concurrency: usize,
    provenance_out: Option<String>,
    allow_shed: bool,
    max_shed_rate: Option<f64>,
    slo_p99_us: Option<f64>,
    exemplar_traces: Option<String>,
    max_evicted_exemplars: usize,
    profile_out: Option<String>,
}

fn parse_options() -> Result<Options, Box<dyn std::error::Error>> {
    let mut opts = Options {
        addr: String::new(),
        replicas: Vec::new(),
        requests: 200,
        mix: vec!["cost".into(), "optimum".into(), "batch".into()],
        cycle_len: 0,
        chiplet_share: 0.0,
        require_chiplet_hits: false,
        chiplet_provenance_out: None,
        concurrency: 4,
        provenance_out: None,
        allow_shed: false,
        max_shed_rate: None,
        slo_p99_us: None,
        exemplar_traces: None,
        max_evicted_exemplars: 0,
        profile_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => opts.addr = args.next().ok_or("--addr needs HOST:PORT")?,
            "--replica" => {
                let url = args.next().ok_or("--replica needs a URL")?;
                opts.replicas
                    .push(nanocost_sentinel::attach::parse_attach_target(&url)?);
            }
            "--requests" => opts.requests = args.next().ok_or("--requests needs N")?.parse()?,
            "--mix" => {
                opts.mix = args
                    .next()
                    .ok_or("--mix needs a,b,c")?
                    .split(',')
                    .map(str::to_string)
                    .collect();
            }
            "--chiplet-share" => {
                opts.chiplet_share = args.next().ok_or("--chiplet-share needs F")?.parse()?;
            }
            "--require-chiplet-hits" => opts.require_chiplet_hits = true,
            "--chiplet-provenance-out" => {
                opts.chiplet_provenance_out =
                    Some(args.next().ok_or("--chiplet-provenance-out needs PATH")?);
            }
            "--concurrency" => {
                opts.concurrency = args.next().ok_or("--concurrency needs C")?.parse()?;
            }
            "--provenance-out" => {
                opts.provenance_out = Some(args.next().ok_or("--provenance-out needs PATH")?);
            }
            "--allow-shed" => opts.allow_shed = true,
            "--max-shed-rate" => {
                opts.max_shed_rate = Some(args.next().ok_or("--max-shed-rate needs F")?.parse()?);
            }
            "--slo-p99-us" => {
                opts.slo_p99_us = Some(args.next().ok_or("--slo-p99-us needs N")?.parse()?);
            }
            "--exemplar-traces" => {
                opts.exemplar_traces =
                    Some(args.next().ok_or("--exemplar-traces needs PREFIX")?);
            }
            "--max-evicted-exemplars" => {
                opts.max_evicted_exemplars =
                    args.next().ok_or("--max-evicted-exemplars needs N")?.parse()?;
            }
            "--profile-out" => {
                opts.profile_out = Some(args.next().ok_or("--profile-out needs PATH")?);
            }
            "--help" | "-h" => {
                println!("usage: loadgen (--addr HOST:PORT | --replica URL ...) [--requests N] [--mix cost,optimum,batch,chiplet] [--chiplet-share F] [--require-chiplet-hits] [--chiplet-provenance-out PATH] [--concurrency C] [--provenance-out PATH] [--allow-shed] [--max-shed-rate F] [--slo-p99-us N] [--exemplar-traces PREFIX] [--max-evicted-exemplars N] [--profile-out PATH]");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}").into()),
        }
    }
    match (opts.addr.is_empty(), opts.replicas.is_empty()) {
        (true, true) => return Err("--addr or --replica is required".into()),
        (false, false) => {
            return Err("--addr and --replica are mutually exclusive".into());
        }
        _ => {}
    }
    if opts.mix.is_empty() || opts.requests == 0 {
        return Err("--mix and --requests must be non-empty".into());
    }
    if opts.max_shed_rate.is_some() && !opts.allow_shed {
        return Err("--max-shed-rate requires --allow-shed".into());
    }
    for m in &opts.mix {
        if !matches!(m.as_str(), "cost" | "yield" | "optimum" | "batch" | "chiplet") {
            return Err(format!("unknown endpoint in --mix: {m}").into());
        }
    }
    if !(0.0..=1.0).contains(&opts.chiplet_share) {
        return Err("--chiplet-share must be in [0, 1]".into());
    }
    opts.cycle_len = opts.mix.len();
    if opts.chiplet_share > 0.0 {
        if opts.mix.iter().any(|m| m == "chiplet") {
            return Err(
                "--chiplet-share with `chiplet` already in --mix is ambiguous; pick one".into(),
            );
        }
        // The diverted lane reports (and bench-captures) under its own
        // endpoint label, appended past the round-robin cycle.
        opts.mix.push("chiplet".into());
    }
    if opts.chiplet_provenance_out.is_some() && !opts.mix.iter().any(|m| m == "chiplet") {
        return Err(
            "--chiplet-provenance-out needs a chiplet lane (--chiplet-share or chiplet in --mix)"
                .into(),
        );
    }
    Ok(opts)
}

/// The overlapping design-point grid every endpoint cycles through.
const LAMBDAS: [f64; 3] = [0.25, 0.18, 0.13];
const SDS: [f64; 6] = [150.0, 250.0, 350.0, 450.0, 550.0, 650.0];
const SCENARIOS: [(u64, f64); 2] = [(5_000, 0.4), (50_000, 0.9)];

/// Chiplet counts the chiplet lane cycles through. Together with the
/// lambda/sd/assembly cycles the grid has twelve distinct points, so a
/// chiplet-heavy run revisits them and the server's chiplet cache hits.
const CHIPLET_SPLITS: [u32; 4] = [1, 2, 4, 8];

fn body_for(endpoint: &str, i: usize) -> String {
    let lambda = LAMBDAS[i % LAMBDAS.len()];
    let sd = SDS[i % SDS.len()];
    let (volume, fab_yield) = SCENARIOS[i % SCENARIOS.len()];
    match endpoint {
        "chiplet" => {
            let chiplets = CHIPLET_SPLITS[i % CHIPLET_SPLITS.len()];
            let assembly = if i.is_multiple_of(2) { "rdl" } else { "si" };
            format!(
                "{{\"lambda_um\":{lambda},\"sd\":{sd},\"transistors\":1e8,\"units\":1000000,\"chiplets\":{chiplets},\"distinct_designs\":{chiplets},\"assembly\":\"{assembly}\"}}"
            )
        }
        "cost" => format!(
            "{{\"lambda_um\":{lambda},\"sd\":{sd},\"transistors\":1e7,\"volume\":{volume},\"fab_yield\":{fab_yield}}}"
        ),
        "yield" => format!(
            "{{\"lambda_um\":{lambda},\"sd\":{sd},\"transistors\":1e7,\"volume\":{volume}}}"
        ),
        "optimum" => format!(
            "{{\"lambda_um\":{lambda},\"transistors\":1e7,\"volume\":{volume},\"fab_yield\":{fab_yield}}}"
        ),
        _batch => {
            // Twelve queries over six distinct points, so the batch
            // reports `unique` below `requested`.
            let mut queries = Vec::with_capacity(12);
            for k in 0..12 {
                let sd = SDS[k % SDS.len()];
                queries.push(format!(
                    "{{\"lambda_um\":{lambda},\"sd\":{sd},\"transistors\":1e7,\"volume\":{volume},\"fab_yield\":{fab_yield}}}"
                ));
            }
            format!("{{\"queries\":[{}]}}", queries.join(","))
        }
    }
}

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a: a tiny, stable, dependency-free 64-bit hash. Stability
/// matters — the same scenario key must route to the same replica
/// across loadgen runs, so the scenario cache on each replica warms.
fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for byte in data {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Multiplier constants of the splitmix64 finalizer.
const MIX_MUL_1: u64 = 0xbf58_476d_1ce4_e5b9;
const MIX_MUL_2: u64 = 0x94d0_49bb_1331_11eb;

/// Finalizing mix (splitmix64's): FNV-1a of short keys leaves the
/// *high* bits poorly avalanched, and ring position is ordered by the
/// full `u64` — without this mix a three-replica ring can starve one
/// replica entirely.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(MIX_MUL_1);
    x ^= x >> 27;
    x = x.wrapping_mul(MIX_MUL_2);
    x ^ (x >> 31)
}

/// Virtual nodes per replica on the consistent-hash ring. More nodes
/// smooth the key distribution; 64 keeps the worst-case imbalance low
/// for single-digit fleets without making ring construction noticeable.
const VNODES_PER_REPLICA: usize = 64;

/// A consistent-hash ring over replica indices: each replica owns
/// [`VNODES_PER_REPLICA`] points on the `u64` circle, and a key routes
/// to the replica owning the first point at or after the key's hash
/// (wrapping). Adding or removing one replica only remaps the keys in
/// the segments that replica owned — every other scenario keeps its
/// replica, and with it that replica's warm cache entries.
struct HashRing {
    /// `(point, replica index)`, sorted by point.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    fn new(replicas: &[String]) -> HashRing {
        let mut points = Vec::with_capacity(replicas.len() * VNODES_PER_REPLICA);
        for (idx, replica) in replicas.iter().enumerate() {
            for vnode in 0..VNODES_PER_REPLICA {
                points.push((mix64(fnv1a(format!("{replica}#{vnode}").as_bytes())), idx));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// Routes a scenario key to a replica index.
    fn route(&self, key: &str) -> usize {
        let hash = mix64(fnv1a(key.as_bytes()));
        let at = self.points.partition_point(|(point, _)| *point < hash);
        // Past the last point, the circle wraps to the first.
        self.points[at % self.points.len()].1
    }
}

#[derive(Default)]
struct Outcome {
    /// (endpoint index in mix, latency seconds) per 2xx response.
    latencies: Vec<(usize, f64)>,
    non_2xx: usize,
    /// 503s counted as shed load under `--allow-shed`.
    shed: usize,
    /// (target index, req_id) usable for a provenance replay — the
    /// replay must go to the replica that served the request.
    req_id: Option<(usize, String)>,
    /// Same, but specifically for a `/v1/chiplet` request, so the
    /// chiplet provenance path can be gated independently.
    chiplet_req_id: Option<(usize, String)>,
    /// Requests planned per target, in `targets()` order.
    routed: Vec<usize>,
}

/// The addresses this run drives: the fleet when `--replica` was given,
/// otherwise the single `--addr`.
fn targets(opts: &Options) -> Vec<String> {
    if opts.replicas.is_empty() {
        vec![opts.addr.clone()]
    } else {
        opts.replicas.clone()
    }
}

fn drive(opts: &Options) -> Outcome {
    let addrs = targets(opts);
    // Fleet routing: one design point always hashes to one replica, so
    // each replica's scenario cache sees the same working set run after
    // run. A single target degenerates to "everything routes to 0".
    let ring = HashRing::new(&addrs);
    // Requests the share diverts go to the chiplet lane (the appended
    // last mix entry); the rest cycle round-robin as before. Chiplet
    // scenario keys ride the same consistent-hash ring, so a chiplet
    // design point also pins to one replica's warm cache.
    let cycle = opts.cycle_len;
    let mut cycled = 0usize;
    let mut diverted = 0usize;
    let plan: Vec<(usize, String, usize)> = (0..opts.requests)
        .map(|i| {
            let share = opts.chiplet_share;
            let divert = share > 0.0
                && ((i + 1) as f64 * share).floor() > (i as f64 * share).floor();
            let (e, body) = if divert {
                let body = body_for("chiplet", diverted);
                diverted += 1;
                (opts.mix.len() - 1, body)
            } else {
                let e = cycled % cycle;
                let body = body_for(&opts.mix[e], cycled / cycle);
                cycled += 1;
                (e, body)
            };
            let target = ring.route(&format!("{}:{body}", opts.mix[e]));
            (e, body, target)
        })
        .collect();
    let mut routed = vec![0usize; addrs.len()];
    for (_, _, target) in &plan {
        routed[*target] += 1;
    }
    let workers = opts.concurrency.max(1);
    let results = std::sync::Mutex::new(Vec::<Outcome>::new());
    std::thread::scope(|scope| {
        for w in 0..workers {
            let plan = &plan;
            let results = &results;
            let addrs = &addrs;
            let opts_ref = &*opts;
            scope.spawn(move || {
                let mut mine = Outcome::default();
                for (i, (endpoint_idx, body, target)) in plan.iter().enumerate() {
                    if i % workers != w {
                        continue;
                    }
                    let endpoint = &opts_ref.mix[*endpoint_idx];
                    let path = format!("/v1/{endpoint}");
                    let started = Instant::now();
                    match request(&addrs[*target], "POST", &path, Some(body)) {
                        Ok((status, payload)) if (200..300).contains(&status) => {
                            mine.latencies
                                .push((*endpoint_idx, started.elapsed().as_secs_f64()));
                            if mine.req_id.is_none() {
                                mine.req_id = req_id_of(&payload).map(|id| (*target, id));
                            }
                            if endpoint == "chiplet" && mine.chiplet_req_id.is_none() {
                                mine.chiplet_req_id =
                                    req_id_of(&payload).map(|id| (*target, id));
                            }
                        }
                        Ok((503, _)) if opts_ref.allow_shed => mine.shed += 1,
                        Ok((status, _)) => {
                            eprintln!("loadgen: {path} -> {status}");
                            mine.non_2xx += 1;
                        }
                        Err(e) => {
                            eprintln!("loadgen: {path} -> {e}");
                            mine.non_2xx += 1;
                        }
                    }
                }
                if let Ok(mut all) = results.lock() {
                    all.push(mine);
                }
            });
        }
    });
    let mut merged = Outcome { routed, ..Outcome::default() };
    if let Ok(all) = results.into_inner() {
        for mut o in all {
            merged.latencies.append(&mut o.latencies);
            merged.non_2xx += o.non_2xx;
            merged.shed += o.shed;
            merged.req_id = merged.req_id.or(o.req_id);
            merged.chiplet_req_id = merged.chiplet_req_id.or(o.chiplet_req_id);
        }
    }
    merged
}

fn req_id_of(payload: &str) -> Option<String> {
    json::parse(payload)
        .ok()
        .and_then(|doc| doc.get("req_id").and_then(|v| v.as_str().map(str::to_string)))
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_options()?;
    let outcome = drive(&opts);
    let addrs = targets(&opts);
    let ok = outcome.latencies.len();
    println!(
        "loadgen: {}/{} ok, {} shed, {} non-2xx",
        ok, opts.requests, outcome.shed, outcome.non_2xx
    );
    if addrs.len() > 1 {
        let spread: Vec<String> = addrs
            .iter()
            .zip(&outcome.routed)
            .map(|(addr, n)| format!("{addr}={n}"))
            .collect();
        println!("loadgen: consistent-hash routing: {}", spread.join(" "));
    }
    for (e, name) in opts.mix.iter().enumerate() {
        let mut samples: Vec<f64> = outcome
            .latencies
            .iter()
            .filter(|(idx, _)| *idx == e)
            .map(|(_, s)| *s)
            .collect();
        if samples.is_empty() {
            continue;
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        println!(
            "  {name:>8}: n={} p50={:.1}us p99={:.1}us",
            samples.len(),
            percentile(&samples, 0.5) * 1e6,
            percentile(&samples, 0.99) * 1e6,
        );
    }
    if let Some(path) = &opts.provenance_out {
        let (target, id) = outcome
            .req_id
            .clone()
            .ok_or("no req_id captured for provenance replay")?;
        let (status, body) = http_get(&addrs[target], &format!("/v1/trace/{id}"))?;
        if status != 200 || body.is_empty() {
            return Err(format!("/v1/trace/{id} -> {status}").into());
        }
        std::fs::write(path, &body)?;
        println!("loadgen: provenance capture ({id}) -> {path}");
    }
    if let Some(path) = &opts.chiplet_provenance_out {
        let (target, id) = outcome
            .chiplet_req_id
            .clone()
            .ok_or("no chiplet req_id captured for provenance replay")?;
        let (status, body) = http_get(&addrs[target], &format!("/v1/trace/{id}"))?;
        if status != 200 || body.is_empty() {
            return Err(format!("/v1/trace/{id} -> {status}").into());
        }
        // A chiplet trace without chiplet-equation provenance means the
        // replay silently dropped the model's Eq.C records.
        if !body.contains("\"equation\":\"Eq.C") {
            return Err(format!("chiplet trace {id} carries no Eq.C provenance").into());
        }
        std::fs::write(path, &body)?;
        println!("loadgen: chiplet provenance capture ({id}) -> {path}");
    }
    if let Some(prefix) = &opts.exemplar_traces {
        let fetched = fetch_exemplar_traces(&addrs[0], prefix, opts.max_evicted_exemplars)?;
        if fetched == 0 {
            return Err("no endpoint produced a p99 exemplar".into());
        }
    }
    if let Some(path) = &opts.profile_out {
        let query = "/v1/profile?window_s=60";
        let (status, body) = http_get(&addrs[0], query)?;
        if status != 200 || body.is_empty() {
            return Err(format!("{query} -> {status}").into());
        }
        std::fs::write(path, &body)?;
        println!("loadgen: profile report -> {path}");
    }
    if outcome.non_2xx > 0 {
        return Err(format!("{} non-2xx responses", outcome.non_2xx).into());
    }
    if opts.require_chiplet_hits {
        let hits = raw_snapshot(&addrs[0])?.chiplet_cache.hits;
        if hits == 0 {
            return Err("chiplet cache reported zero hits".into());
        }
        println!("loadgen: chiplet cache hits {hits}");
    }
    if let Some(max) = opts.max_shed_rate {
        let rate = outcome.shed as f64 / opts.requests.max(1) as f64;
        if rate > max {
            return Err(format!("shed rate {rate:.3} exceeds --max-shed-rate {max}").into());
        }
    }
    if let Some(slo) = opts.slo_p99_us {
        let mut all: Vec<f64> = outcome.latencies.iter().map(|&(_, s)| s * 1e6).collect();
        all.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let p99 = percentile(&all, 0.99);
        if p99 > slo {
            return Err(format!("client-observed p99 {p99:.1}us exceeds --slo-p99-us {slo}").into());
        }
        println!("loadgen: client p99 {p99:.1}us within SLO {slo}us");
    }
    Ok(())
}

/// The server's `/v1/metrics/raw` snapshot.
fn raw_snapshot(addr: &str) -> Result<RawSnapshot, Box<dyn std::error::Error>> {
    Ok(RawSnapshot::parse(&http_get_ok(addr, "/v1/metrics/raw")?)?)
}

/// Follows every endpoint's p99 exemplar (the one `/v1/metrics`
/// renders) to its stored `/v1/trace/<req-id>` capture, saving one
/// JSONL file per endpoint as `<prefix>.<endpoint>.jsonl`. Returns how many exemplars
/// round-tripped; an advertised exemplar whose trace is missing is an
/// error (the drill-down contract is exactly that link) — except a 410
/// with the `serve.trace_ring.evicted` context, which means the ring
/// legitimately rolled past the exemplar under sustained load. Up to
/// `max_evicted` such answers are tolerated (they still count as
/// coverage: the server knew the id and said so machine-readably).
fn fetch_exemplar_traces(
    addr: &str,
    prefix: &str,
    max_evicted: usize,
) -> Result<usize, Box<dyn std::error::Error>> {
    let mut fetched = 0;
    let mut evicted = 0;
    for (endpoint, hist) in &raw_snapshot(addr)?.endpoints {
        let Some(req_id) = hist.quantile_exemplar(0.99).map(|e| e.req_id.as_str()) else {
            continue;
        };
        let (status, capture) = http_get(addr, &format!("/v1/trace/{req_id}"))?;
        if status == 410 && capture.contains("serve.trace_ring.evicted") {
            evicted += 1;
            if evicted > max_evicted {
                return Err(format!(
                    "{evicted} exemplars evicted from the trace ring exceeds \
                     --max-evicted-exemplars {max_evicted} (last: {req_id} for {endpoint})"
                )
                .into());
            }
            println!("loadgen: exemplar trace {endpoint} ({req_id}) evicted ({evicted}/{max_evicted} tolerated)");
            fetched += 1;
            continue;
        }
        if status != 200 || capture.is_empty() {
            return Err(format!(
                "exemplar {req_id} for {endpoint} did not round-trip: /v1/trace -> {status}"
            )
            .into());
        }
        let path = format!("{prefix}.{endpoint}.jsonl");
        std::fs::write(&path, &capture)?;
        println!("loadgen: exemplar trace {endpoint} ({req_id}) -> {path}");
        fetched += 1;
    }
    Ok(fetched)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn fnv1a_is_stable_across_runs() {
        // Reference vectors for 64-bit FNV-1a; a drifting hash would
        // silently reshuffle every fleet's scenario assignment.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn ring_routes_deterministically_and_covers_every_replica() {
        let ring = HashRing::new(&addrs(&["h:1", "h:2", "h:3"]));
        let mut hit = [0usize; 3];
        for i in 0..BALANCE_KEYS {
            let key = format!("cost:{{\"sd\":{}}}", f64::from(i));
            let first = ring.route(&key);
            assert_eq!(first, ring.route(&key), "routing must be deterministic");
            hit[first] += 1;
        }
        assert!(hit.iter().all(|n| *n > 0), "every replica owns keys: {hit:?}");
    }

    /// Keys routed per replica in the balance test.
    const BALANCE_KEYS: u32 = 300;

    #[test]
    fn removing_a_replica_only_remaps_its_own_keys() {
        let three = HashRing::new(&addrs(&["h:1", "h:2", "h:3"]));
        let two = HashRing::new(&addrs(&["h:1", "h:2"]));
        for i in 0..BALANCE_KEYS {
            let key = format!("optimum:{{\"lambda\":{}}}", f64::from(i));
            let before = three.route(&key);
            // The surviving replicas' ring points are unchanged, so any
            // key they owned still routes to them.
            if before < 2 {
                assert_eq!(two.route(&key), before, "consistency violated for {key}");
            }
        }
    }

    #[test]
    fn single_target_routes_everything_to_it() {
        let ring = HashRing::new(&addrs(&["h:1"]));
        for i in 0..BALANCE_KEYS {
            assert_eq!(ring.route(&format!("k{i}")), 0);
        }
    }
}
