//! Fleet federation: the mergeable raw-metrics wire format and the
//! multi-replica aggregation behind `fleet_report`, the one reader of
//! live server state for one replica or many.
//!
//! Maly's thesis (DAC 2001) is that nanometer-era cost control needs
//! *aggregate* visibility — portfolio-level truth assembled from
//! independently characterized parts, not per-die point estimates. The
//! serving plane has the same structure: one `nanocost-serve` replica
//! publishes pre-computed quantiles on `/v1/metrics`, but quantiles do
//! not merge — the moment a second replica exists, "the fleet's p99"
//! can only be computed from the *raw* mergeable state. This module
//! owns that state's wire format and its aggregation:
//!
//! * [`RawSnapshot`] — the byte-deterministic schema-1 JSON document
//!   `GET /v1/metrics/raw` ships: raw [`LogHistogram`] buckets (grid,
//!   sparse `index -> count` pairs, exact min/max/sum, exemplars tagged
//!   with a replica id), cumulative *and* windowed SLO good/bad
//!   counters (windowed deltas are what make burn rates summable),
//!   per-worker busy/idle counters, both caches' counters, gauges and
//!   profile-ring counts. A server takes one snapshot per document,
//!   reading the SLO monitors, then the endpoint histograms, then the
//!   request counter, so `completed_total ≤ Σ endpoint counts ≤
//!   requests_total` holds in each; its `/v1/metrics`
//!   ([`RawSnapshot::to_metrics_json`], the fleet of one) and
//!   `/v1/health` ([`RawSnapshot::health_json`]) render that snapshot.
//! * [`FleetView`] — parses N scrapes, merges per-endpoint histograms
//!   via [`LogHistogram::merge`] (lossless; grid mismatches are
//!   rejected exactly as in-process merges are), derives fleet
//!   p50/p90/p99/p999 plus per-replica skew (max/min replica p99
//!   ratio), computes a fleet [`BurnReport`] from summed SLO counters,
//!   and carries a merged [`ProfileReport`] fleet hotspot table.
//!
//! Counts ride JSON numbers and are exact up to 2^53 — far beyond any
//! scrape horizon. Floats render in shortest-roundtrip form, so a
//! histogram survives serialize → parse → merge bit-for-bit (the
//! property suite in `tests/federate_props.rs` pins this against the
//! in-process merge).

use std::collections::{BTreeMap, BTreeSet};

use crate::histogram::{LogHistogram, RawHistogram};
use crate::json::{self, JsonValue};
use crate::profile::ProfileReport;
pub use crate::slo::RawSlo;
use crate::slo::{fmt_f64, BurnReport};
use crate::{escape_json, SentinelError};

/// Raw-snapshot wire schema version.
pub const RAW_SCHEMA: u64 = 1;

/// Quantiles the fleet artifact reports per endpoint.
const Q_P50: f64 = 0.50;
/// 90th percentile.
const Q_P90: f64 = 0.90;
/// 99th percentile (also the skew pivot).
const Q_P99: f64 = 0.99;
/// 99.9th percentile.
const Q_P999: f64 = 0.999;

/// Tolerance multiplier for the merged-quantile bound check in
/// [`FleetView::reconcile`]: both sides of the comparison are bucket
/// midpoints (with exact-extreme clamping), so the mixture-quantile
/// envelope holds only up to twice the histogram's relative error.
const SKEW_BOUND_SLACK: f64 = 2.0;

impl RawSlo {
    fn parse(v: &JsonValue) -> Result<RawSlo, SentinelError> {
        let n = |key| req_u64(v, key, "slo entry");
        Ok(RawSlo {
            name: req_str(v, "name", "slo entry")?.to_string(),
            target: req_f64(v, "target", "slo entry")?,
            max_burn: req_f64(v, "max_burn", "slo entry")?,
            fast_ns: n("fast_ns")?,
            slow_ns: n("slow_ns")?,
            good: n("good")?,
            bad: n("bad")?,
            fast_good: n("fast_good")?,
            fast_bad: n("fast_bad")?,
            slow_good: n("slow_good")?,
            slow_bad: n("slow_bad")?,
        })
    }
}

/// One worker thread's cumulative busy/idle accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RawWorker {
    /// Nanoseconds spent serving requests.
    pub busy_ns: u64,
    /// Nanoseconds spent waiting for work.
    pub idle_ns: u64,
    /// Requests served.
    pub served: u64,
}

impl RawWorker {
    fn parse(v: &JsonValue) -> Result<RawWorker, SentinelError> {
        let n = |key| req_u64(v, key, "worker entry");
        Ok(RawWorker { busy_ns: n("busy_ns")?, idle_ns: n("idle_ns")?, served: n("served")? })
    }
}

/// One cache's counters (the scenario cache or the chiplet cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RawCache {
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Configured capacity.
    pub capacity: u64,
}

impl RawCache {
    /// Hit fraction in `[0, 1]`, 0 before the first lookup.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }

    /// The raw document's members: hits, misses, entries, capacity.
    fn fields(self) -> String {
        let Self { hits, misses, entries, capacity } = self;
        format!(
            "\"hits\":{hits},\"misses\":{misses},\"entries\":{entries},\"capacity\":{capacity}"
        )
    }

    /// The cache row every view renders: the counters plus `hit_rate`.
    fn to_json(self) -> String {
        format!("{{{},\"hit_rate\":{}}}", self.fields(), fmt_f64(self.hit_rate()))
    }

    fn parse(v: &JsonValue, ctx: &str) -> Result<RawCache, SentinelError> {
        let n = |key| req_u64(v, key, ctx);
        let (hits, misses) = (n("hits")?, n("misses")?);
        Ok(RawCache { hits, misses, entries: n("entries")?, capacity: n("capacity")? })
    }

    fn add(&mut self, other: &RawCache) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.entries += other.entries;
        self.capacity += other.capacity;
    }
}

/// Instantaneous queue-pressure gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RawGauges {
    /// Connections queued for a worker.
    pub queue_depth: u64,
    /// Connections accepted but not yet fully handled.
    pub accept_backlog: u64,
}

impl RawGauges {
    fn to_json(self) -> String {
        let Self { queue_depth, accept_backlog } = self;
        format!("{{\"queue.depth\":{queue_depth},\"accept.backlog\":{accept_backlog}}}")
    }

    fn parse(v: &JsonValue) -> Result<RawGauges, SentinelError> {
        let n = |key| req_u64(v, key, "gauges");
        Ok(RawGauges { queue_depth: n("queue.depth")?, accept_backlog: n("accept.backlog")? })
    }
}

/// The stack profiler's rate and sample-ring counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RawProfile {
    /// Sample rate in Hz (0 = sampler off).
    pub hz: u64,
    /// Sample-ring capacity.
    pub ring_capacity: u64,
    /// Samples currently retained.
    pub samples: u64,
    /// Samples evicted so far.
    pub dropped: u64,
}

impl RawProfile {
    fn to_json(self) -> String {
        let Self { hz, ring_capacity, samples, dropped } = self;
        format!(
            "{{\"hz\":{hz},\"ring_capacity\":{ring_capacity},\"samples\":{samples},\
             \"dropped\":{dropped}}}"
        )
    }

    fn parse(v: &JsonValue) -> Result<RawProfile, SentinelError> {
        let n = |key| req_u64(v, key, "profile");
        let (hz, ring_capacity) = (n("hz")?, n("ring_capacity")?);
        Ok(RawProfile { hz, ring_capacity, samples: n("samples")?, dropped: n("dropped")? })
    }
}

/// The counters `/v1/metrics` renders, in its order.
const METRICS_COUNTERS: [&str; 5] =
    ["requests_total", "completed_total", "shed_total", "latency_bad_total", "trace_ring_evicted"];

/// The full mergeable state of one replica as of one scrape: the
/// `GET /v1/metrics/raw` payload, and the one snapshot `/v1/metrics`
/// and `/v1/health` render too. Rendering is byte-deterministic:
/// identical state renders identical bytes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RawSnapshot {
    /// The replica's configured label (may be empty; federators
    /// substitute the scrape target before merging).
    pub replica: String,
    /// The replica's trace-epoch clock at snapshot time (comparable
    /// only within this replica).
    pub t_ns: u64,
    /// Cumulative process counters, keyed by name.
    pub counters: BTreeMap<String, u64>,
    /// Per-objective summable SLO state.
    pub slo: Vec<RawSlo>,
    /// Per-worker busy/idle counters.
    pub workers: Vec<RawWorker>,
    /// Scenario-cache counters.
    pub cache: RawCache,
    /// Per-endpoint latency histograms, full mergeable state.
    pub endpoints: BTreeMap<String, LogHistogram>,
    /// Accept-to-dequeue wait of the replica's connections, in
    /// microseconds.
    pub queue_wait: LogHistogram,
    /// Chiplet-cache counters.
    pub chiplet_cache: RawCache,
    /// Queue-pressure gauges.
    pub gauges: RawGauges,
    /// Stack-profiler ring counts.
    pub profile: RawProfile,
}

impl RawSnapshot {
    /// Renders the snapshot as the schema-1 wire document.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":{RAW_SCHEMA},\"replica\":{},\"t_ns\":{},\"counters\":{{{}}},\
             \"slo\":[{}],\"workers\":{},\"cache\":{{{}}},\"endpoints\":{{{}}},\"queue_wait\":{},\
             \"chiplet_cache\":{{{}}},\"gauges\":{},\"profile\":{}}}",
            escape_json(&self.replica),
            self.t_ns,
            counters_json(&self.counters),
            join(&self.slo, RawSlo::to_json),
            workers_json(&self.workers),
            self.cache.fields(),
            join(&self.endpoints, |(name, h)| {
                format!("{}:{}", escape_json(name), histogram_raw_json(h))
            }),
            histogram_raw_json(&self.queue_wait),
            self.chiplet_cache.fields(),
            self.gauges.to_json(),
            self.profile.to_json()
        )
    }

    /// Parses a wire document rendered by [`RawSnapshot::to_json`].
    /// Every key is required.
    ///
    /// # Errors
    ///
    /// [`SentinelError::Parse`] on malformed JSON and
    /// [`SentinelError::Schema`] on a missing key, a mistyped value, an
    /// unknown schema version, or an internally inconsistent histogram.
    pub fn parse(text: &str) -> Result<RawSnapshot, SentinelError> {
        let v = json::parse(text).map_err(|error| SentinelError::Parse { line: 0, error })?;
        let schema_v = req_u64(&v, "schema", "raw snapshot")?;
        if schema_v != RAW_SCHEMA {
            return Err(schema_err(format!(
                "unsupported raw metrics schema {schema_v} (want {RAW_SCHEMA})"
            )));
        }
        let member = |key: &str| {
            v.get(key).ok_or_else(|| schema_err(format!("raw snapshot missing `{key}`")))
        };
        let object = |key: &str| match member(key)? {
            JsonValue::Obj(members) => Ok(members),
            _ => Err(schema_err(format!("raw snapshot `{key}` is not an object"))),
        };
        let array = |key: &str| {
            member(key)?
                .as_arr()
                .ok_or_else(|| schema_err(format!("raw snapshot `{key}` is not an array")))
        };
        Ok(RawSnapshot {
            replica: req_str(&v, "replica", "raw snapshot")?.to_string(),
            t_ns: req_u64(&v, "t_ns", "raw snapshot")?,
            counters: object("counters")?
                .iter()
                .map(|(name, n)| {
                    let not_a_count = || schema_err(format!("counter `{name}` is not a count"));
                    Ok((name.clone(), n.as_u64().ok_or_else(not_a_count)?))
                })
                .collect::<Result<_, SentinelError>>()?,
            slo: array("slo")?.iter().map(RawSlo::parse).collect::<Result<_, _>>()?,
            workers: array("workers")?.iter().map(RawWorker::parse).collect::<Result<_, _>>()?,
            cache: RawCache::parse(member("cache")?, "cache")?,
            endpoints: object("endpoints")?
                .iter()
                .map(|(name, h)| Ok((name.clone(), histogram_from_raw(h)?)))
                .collect::<Result<_, SentinelError>>()?,
            queue_wait: histogram_from_raw(member("queue_wait")?)?,
            chiplet_cache: RawCache::parse(member("chiplet_cache")?, "chiplet_cache")?,
            gauges: RawGauges::parse(member("gauges")?)?,
            profile: RawProfile::parse(member("profile")?)?,
        })
    }

    /// Renders the schema-2 `/v1/metrics` document: this snapshot as a
    /// fleet of one, with quantiles instead of buckets. `uptime_s` is
    /// the process's age, which the snapshot does not carry.
    #[must_use]
    pub fn to_metrics_json(&self, uptime_s: f64) -> String {
        let counter = |name: &str| self.counters.get(name).copied().unwrap_or(0);
        format!(
            "{{\"schema\":2,\"uptime_s\":{},\"t_ns\":{},\"requests\":{},\"counters\":{{{}}},\
             \"gauges\":{},\"workers\":{},\"profile\":{},\"endpoints\":{{{}}},\"cache\":{},\
             \"chiplet_cache\":{}}}",
            fmt_f64(uptime_s),
            self.t_ns,
            counter("requests_total"),
            join(METRICS_COUNTERS, |name| format!("\"{name}\":{}", counter(name))),
            self.gauges.to_json(),
            workers_json(&self.workers),
            self.profile.to_json(),
            join(&self.endpoints, |(name, h)| {
                format!("{}:{{{}}}", escape_json(name), endpoint_fields(h, false))
            }),
            self.cache.to_json(),
            self.chiplet_cache.to_json()
        )
    }

    /// Renders the `/v1/health` document: every objective's burn
    /// verdict as of the snapshot's `t_ns`. Returns `(200, …)` when no
    /// objective is firing and `(503, …)` when at least one is.
    #[must_use]
    pub fn health_json(&self) -> (u16, String) {
        let reports: Vec<BurnReport> = self.slo.iter().map(BurnReport::from_counts).collect();
        let firing = reports.iter().any(|r| r.firing);
        let body = format!(
            "{{\"status\":{},\"t_ns\":{},\"objectives\":[{}]}}",
            if firing { "\"failing\"" } else { "\"ok\"" },
            self.t_ns,
            join(&reports, BurnReport::to_json)
        );
        (if firing { 503 } else { 200 }, body)
    }
}

/// Renders a histogram's full mergeable state as a JSON object:
/// `{"grid":…,"underflow":…,"count":…,"sum":…,"min":…,"max":…,
/// "buckets":[[index,count],…],"exemplars":[[index,{…}],…]}`. `min` and
/// `max` are omitted while the histogram is empty (their sentinels are
/// not JSON numbers). Floats render in shortest-roundtrip form, so
/// [`histogram_from_raw`] reconstructs the histogram bit-for-bit.
#[must_use]
pub fn histogram_raw_json(h: &LogHistogram) -> String {
    let raw = h.raw_parts();
    let mut out = format!(
        "{{\"grid\":{},\"underflow\":{},\"count\":{},\"sum\":{}",
        raw.grid,
        raw.underflow,
        raw.count,
        fmt_f64(raw.sum)
    );
    if raw.count > 0 {
        out.push_str(&format!(",\"min\":{},\"max\":{}", fmt_f64(raw.min), fmt_f64(raw.max)));
    }
    out.push_str(",\"buckets\":[");
    for (i, (idx, n)) in raw.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("[{idx},{n}]"));
    }
    out.push_str("],\"exemplars\":[");
    for (i, (idx, e)) in raw.exemplars.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "[{idx},{{\"req_id\":{},\"value\":{},\"t_ns\":{},\"replica\":{}}}]",
            escape_json(&e.req_id),
            fmt_f64(e.value),
            e.t_ns,
            escape_json(&e.replica)
        ));
    }
    out.push_str("]}");
    out
}

/// Reconstructs a histogram from [`histogram_raw_json`] output.
///
/// # Errors
///
/// [`SentinelError::Schema`] on missing or mistyped keys,
/// [`SentinelError::BadGrid`] on an invalid grid, and the
/// [`LogHistogram::from_raw_parts`] consistency rejections.
pub fn histogram_from_raw(v: &JsonValue) -> Result<LogHistogram, SentinelError> {
    let grid = u32::try_from(req_u64(v, "grid", "histogram")?)
        .map_err(|_| schema_err("histogram `grid` out of range".to_string()))?;
    let count = req_u64(v, "count", "histogram")?;
    let (min, max) = if count > 0 {
        (req_f64(v, "min", "histogram")?, req_f64(v, "max", "histogram")?)
    } else {
        (f64::INFINITY, f64::NEG_INFINITY)
    };
    let mut raw = RawHistogram {
        grid,
        underflow: req_u64(v, "underflow", "histogram")?,
        count,
        sum: req_f64(v, "sum", "histogram")?,
        min,
        max,
        buckets: Vec::new(),
        exemplars: Vec::new(),
    };
    let Some(JsonValue::Arr(buckets)) = v.get("buckets") else {
        return Err(schema_err("histogram missing `buckets` array".to_string()));
    };
    for pair in buckets {
        let Some([idx, n]) = pair.as_arr().and_then(|p| <&[JsonValue; 2]>::try_from(p).ok())
        else {
            return Err(schema_err("histogram bucket is not an [index, count] pair".to_string()));
        };
        let idx = as_i64(idx)
            .ok_or_else(|| schema_err("histogram bucket index is not an integer".to_string()))?;
        let n = n
            .as_u64()
            .ok_or_else(|| schema_err("histogram bucket count is not a count".to_string()))?;
        raw.buckets.push((idx, n));
    }
    let Some(JsonValue::Arr(exemplars)) = v.get("exemplars") else {
        return Err(schema_err("histogram missing `exemplars` array".to_string()));
    };
    for pair in exemplars {
        let Some([idx, e]) = pair.as_arr().and_then(|p| <&[JsonValue; 2]>::try_from(p).ok())
        else {
            return Err(schema_err(
                "histogram exemplar is not an [index, exemplar] pair".to_string(),
            ));
        };
        let idx = as_i64(idx)
            .ok_or_else(|| schema_err("histogram exemplar index is not an integer".to_string()))?;
        raw.exemplars.push((
            idx,
            crate::histogram::Exemplar {
                req_id: req_str(e, "req_id", "exemplar")?.to_string(),
                value: req_f64(e, "value", "exemplar")?,
                t_ns: req_u64(e, "t_ns", "exemplar")?,
                replica: req_str(e, "replica", "exemplar")?.to_string(),
            },
        ));
    }
    LogHistogram::from_raw_parts(raw)
}

/// Per-endpoint p99 spread across replicas: which replica is slowest,
/// which fastest, and by what ratio — the federation's drift signal.
#[derive(Debug, Clone, PartialEq)]
pub struct EndpointSkew {
    /// Replica with the smallest p99 (among replicas that saw traffic).
    pub min_replica: String,
    /// That replica's p99.
    pub min_p99: f64,
    /// Replica with the largest p99.
    pub max_replica: String,
    /// That replica's p99.
    pub max_p99: f64,
    /// `max_p99 / min_p99` (1.0 means a perfectly balanced fleet).
    pub ratio: f64,
}

/// One replica's utilization row in the fleet view.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicaUtilization {
    /// Replica label.
    pub replica: String,
    /// Worker thread count.
    pub workers: u64,
    /// Busy fraction across all workers in `[0, 1]` (0 when idle).
    pub busy_fraction: f64,
    /// Requests served by the worker pool.
    pub served: u64,
    /// The replica's `requests_total` counter (0 when absent).
    pub requests: u64,
}

/// The federated view of N replica snapshots: merged histograms, fleet
/// quantiles and skew, a fleet burn verdict from summed counters, and
/// (optionally) a merged profile.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetView {
    /// Replica labels in scrape order.
    pub replicas: Vec<String>,
    /// Counters summed across replicas.
    pub counters: BTreeMap<String, u64>,
    /// Per-endpoint merged histograms (lossless).
    pub endpoints: BTreeMap<String, LogHistogram>,
    /// Per-endpoint p99 skew across replicas.
    pub skew: BTreeMap<String, EndpointSkew>,
    /// Fleet burn verdicts, one per objective, computed from summed
    /// windowed counters.
    pub slo: Vec<BurnReport>,
    /// Per-replica utilization rows, in scrape order.
    pub utilization: Vec<ReplicaUtilization>,
    /// Accept-to-dequeue wait merged across replicas (lossless).
    pub queue_wait: LogHistogram,
    /// Cache counters summed across replicas.
    pub cache: RawCache,
    /// Chiplet-cache counters summed across replicas.
    pub chiplet_cache: RawCache,
    /// Queue-pressure gauges summed across replicas.
    pub gauges: RawGauges,
    /// Merged profile report, when profiles were scraped too.
    pub profile: Option<ProfileReport>,
}

impl FleetView {
    /// Federates N snapshots.
    ///
    /// # Errors
    ///
    /// [`SentinelError::Schema`] when no snapshot was given, replica
    /// labels are empty or repeat, or two replicas disagree on an
    /// objective's configuration; [`SentinelError::GridMismatch`] when
    /// endpoint histograms were built with different grids.
    pub fn from_snapshots(snapshots: &[RawSnapshot]) -> Result<FleetView, SentinelError> {
        if snapshots.is_empty() {
            return Err(schema_err("cannot federate zero snapshots".to_string()));
        }
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for snap in snapshots {
            if snap.replica.is_empty() {
                return Err(schema_err(
                    "cannot federate a snapshot with an empty replica label".to_string(),
                ));
            }
            if !seen.insert(&snap.replica) {
                return Err(schema_err(format!(
                    "duplicate replica label `{}`",
                    snap.replica
                )));
            }
        }
        let mut view = FleetView {
            replicas: snapshots.iter().map(|s| s.replica.clone()).collect(),
            counters: BTreeMap::new(),
            endpoints: BTreeMap::new(),
            skew: BTreeMap::new(),
            slo: Vec::new(),
            utilization: Vec::new(),
            queue_wait: LogHistogram::new(),
            cache: RawCache::default(),
            chiplet_cache: RawCache::default(),
            gauges: RawGauges::default(),
            profile: None,
        };
        // Counters, caches, gauges, utilization: plain sums.
        for snap in snapshots {
            for (name, value) in &snap.counters {
                *view.counters.entry(name.clone()).or_insert(0) += value;
            }
            view.cache.add(&snap.cache);
            view.chiplet_cache.add(&snap.chiplet_cache);
            view.gauges.queue_depth += snap.gauges.queue_depth;
            view.gauges.accept_backlog += snap.gauges.accept_backlog;
            let busy: u64 = snap.workers.iter().map(|w| w.busy_ns).sum();
            let idle: u64 = snap.workers.iter().map(|w| w.idle_ns).sum();
            let wall = busy + idle;
            view.utilization.push(ReplicaUtilization {
                replica: snap.replica.clone(),
                workers: snap.workers.len() as u64,
                busy_fraction: if wall == 0 { 0.0 } else { busy as f64 / wall as f64 },
                served: snap.workers.iter().map(|w| w.served).sum(),
                requests: snap.counters.get("requests_total").copied().unwrap_or(0),
            });
        }
        // Histograms: lossless merge plus per-replica p99 skew.
        for snap in snapshots {
            view.queue_wait.merge(&snap.queue_wait)?;
            for (endpoint, hist) in &snap.endpoints {
                match view.endpoints.get_mut(endpoint) {
                    Some(merged) => merged.merge(hist)?,
                    None => {
                        view.endpoints.insert(endpoint.clone(), hist.clone());
                    }
                }
                let Some(p99) = hist.p99() else { continue };
                match view.skew.get_mut(endpoint) {
                    Some(skew) => {
                        if p99 < skew.min_p99 {
                            skew.min_p99 = p99;
                            skew.min_replica = snap.replica.clone();
                        }
                        if p99 > skew.max_p99 {
                            skew.max_p99 = p99;
                            skew.max_replica = snap.replica.clone();
                        }
                        skew.ratio = if skew.min_p99 > 0.0 {
                            skew.max_p99 / skew.min_p99
                        } else {
                            f64::NAN
                        };
                    }
                    None => {
                        view.skew.insert(
                            endpoint.clone(),
                            EndpointSkew {
                                min_replica: snap.replica.clone(),
                                min_p99: p99,
                                max_replica: snap.replica.clone(),
                                max_p99: p99,
                                ratio: 1.0,
                            },
                        );
                    }
                }
            }
        }
        // SLOs: group by objective, refuse configuration drift, sum the
        // windowed counters, and re-derive burn from the sums.
        let mut by_name: BTreeMap<&str, RawSlo> = BTreeMap::new();
        let mut order: Vec<&str> = Vec::new();
        for snap in snapshots {
            for slo in &snap.slo {
                match by_name.get_mut(slo.name.as_str()) {
                    Some(total) => {
                        let same_config = total.target.to_bits() == slo.target.to_bits()
                            && total.max_burn.to_bits() == slo.max_burn.to_bits()
                            && total.fast_ns == slo.fast_ns
                            && total.slow_ns == slo.slow_ns;
                        if !same_config {
                            return Err(schema_err(format!(
                                "replicas disagree on objective `{}` configuration",
                                slo.name
                            )));
                        }
                        total.good += slo.good;
                        total.bad += slo.bad;
                        total.fast_good += slo.fast_good;
                        total.fast_bad += slo.fast_bad;
                        total.slow_good += slo.slow_good;
                        total.slow_bad += slo.slow_bad;
                    }
                    None => {
                        order.push(slo.name.as_str());
                        by_name.insert(slo.name.as_str(), slo.clone());
                    }
                }
            }
        }
        let totals = order.iter().filter_map(|name| by_name.get(name));
        view.slo = totals.map(BurnReport::from_counts).collect();
        Ok(view)
    }

    /// Is no fleet objective firing?
    #[must_use]
    pub fn healthy(&self) -> bool {
        !self.slo.iter().any(|r| r.firing)
    }

    /// Cross-checks the federated view against the snapshots it was
    /// built from: every merged endpoint count must equal the sum of
    /// the per-replica counts, and every fleet p99 must lie inside the
    /// per-replica p99 envelope (up to the histogram's quantization
    /// slack — all quantiles here are bucket midpoints).
    ///
    /// # Errors
    ///
    /// A newline-joined list of every violated identity.
    pub fn reconcile(&self, snapshots: &[RawSnapshot]) -> Result<(), String> {
        let mut violations: Vec<String> = Vec::new();
        for (endpoint, merged) in &self.endpoints {
            let replica_total: u64 = snapshots
                .iter()
                .filter_map(|s| s.endpoints.get(endpoint).map(LogHistogram::count))
                .sum();
            if merged.count() != replica_total {
                violations.push(format!(
                    "endpoint `{endpoint}`: fleet count {} != per-replica sum {replica_total}",
                    merged.count()
                ));
            }
            let per_replica_p99: Vec<f64> = snapshots
                .iter()
                .filter_map(|s| s.endpoints.get(endpoint).and_then(LogHistogram::p99))
                .collect();
            let (Some(fleet_p99), Some(lo), Some(hi)) = (
                merged.p99(),
                per_replica_p99.iter().copied().reduce(f64::min),
                per_replica_p99.iter().copied().reduce(f64::max),
            ) else {
                continue;
            };
            let slack = merged.relative_error_bound() * SKEW_BOUND_SLACK;
            if fleet_p99 < lo * (1.0 - slack) || fleet_p99 > hi * (1.0 + slack) {
                violations.push(format!(
                    "endpoint `{endpoint}`: fleet p99 {fleet_p99} outside replica envelope \
                     [{lo}, {hi}]"
                ));
            }
        }
        let wait_total: u64 = snapshots.iter().map(|s| s.queue_wait.count()).sum();
        if self.queue_wait.count() != wait_total {
            violations.push(format!(
                "queue_wait: fleet count {} != per-replica sum {wait_total}",
                self.queue_wait.count()
            ));
        }
        for (name, fleet_total) in &self.counters {
            let replica_total: u64 =
                snapshots.iter().filter_map(|s| s.counters.get(name)).sum();
            if *fleet_total != replica_total {
                violations.push(format!(
                    "counter `{name}`: fleet total {fleet_total} != per-replica sum \
                     {replica_total}"
                ));
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations.join("\n"))
        }
    }

    /// Renders the fleet artifact as one deterministic JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let endpoint = |(name, hist): (&String, &LogHistogram)| {
            let skew = self.skew.get(name).map_or_else(
                || "null".to_string(),
                |skew| {
                    format!(
                        "{{\"min_replica\":{},\"min_p99_us\":{},\"max_replica\":{},\
                         \"max_p99_us\":{},\"ratio\":{}}}",
                        escape_json(&skew.min_replica),
                        fmt_f64(skew.min_p99),
                        escape_json(&skew.max_replica),
                        fmt_f64(skew.max_p99),
                        fmt_f64(skew.ratio)
                    )
                },
            );
            format!("{}:{{{},\"skew\":{skew}}}", escape_json(name), endpoint_fields(hist, true))
        };
        let utilization = |u: &ReplicaUtilization| {
            format!(
                "{{\"replica\":{},\"workers\":{},\"busy_fraction\":{},\"served\":{},\
                 \"requests\":{}}}",
                escape_json(&u.replica),
                u.workers,
                fmt_f64(u.busy_fraction),
                u.served,
                u.requests
            )
        };
        format!(
            "{{\"schema\":{RAW_SCHEMA},\"replicas\":[{}],\"healthy\":{},\"counters\":{{{}}},\
             \"slo\":[{}],\"endpoints\":{{{}}},\"queue_wait\":{{{}}},\"utilization\":[{}],\
             \"cache\":{},\"chiplet_cache\":{},\"gauges\":{},\"profile\":{}}}",
            join(&self.replicas, |r| escape_json(r)),
            self.healthy(),
            counters_json(&self.counters),
            join(&self.slo, BurnReport::to_json),
            join(&self.endpoints, endpoint),
            quantile_fields(&self.queue_wait),
            join(&self.utilization, utilization),
            self.cache.to_json(),
            self.chiplet_cache.to_json(),
            self.gauges.to_json(),
            self.profile.as_ref().map_or_else(|| "null".to_string(), ProfileReport::to_json)
        )
    }
}

/// Named counters as JSON object members, in key order.
fn counters_json(counters: &BTreeMap<String, u64>) -> String {
    join(counters, |(name, n)| format!("{}:{n}", escape_json(name)))
}

/// Worker rows as a JSON array.
fn workers_json(workers: &[RawWorker]) -> String {
    let row = |w: &RawWorker| {
        format!("{{\"busy_ns\":{},\"idle_ns\":{},\"served\":{}}}", w.busy_ns, w.idle_ns, w.served)
    };
    format!("[{}]", join(workers, row))
}

/// Renders each item and joins the renders with commas.
fn join<I: IntoIterator>(items: I, render: impl FnMut(I::Item) -> String) -> String {
    items.into_iter().map(render).collect::<Vec<_>>().join(",")
}

/// An endpoint row's members: its quantiles, then its p99 exemplar
/// (`null` when none), which names its replica when `tagged`, as a
/// fleet row must.
fn endpoint_fields(hist: &LogHistogram, tagged: bool) -> String {
    let exemplar = match hist.quantile_exemplar(Q_P99) {
        Some(e) => format!(
            "{{{}\"req_id\":{},\"value_us\":{},\"t_ns\":{}}}",
            if tagged {
                format!("\"replica\":{},", escape_json(&e.replica))
            } else {
                String::new()
            },
            escape_json(&e.req_id),
            fmt_f64(e.value),
            e.t_ns
        ),
        None => "null".to_string(),
    };
    format!("{},\"p99_exemplar\":{exemplar}", quantile_fields(hist))
}

/// A histogram's count and quantiles as JSON object members
/// (`"count":…,"min_us":…,…,"p999_us":…`); an empty histogram renders
/// its count only.
fn quantile_fields(hist: &LogHistogram) -> String {
    let mut out = format!("\"count\":{}", hist.count());
    for (key, q) in [
        ("min_us", hist.min()),
        ("max_us", hist.max()),
        ("mean_us", hist.mean()),
        ("p50_us", hist.quantile(Q_P50)),
        ("p90_us", hist.quantile(Q_P90)),
        ("p99_us", hist.quantile(Q_P99)),
        ("p999_us", hist.quantile(Q_P999)),
    ] {
        if let Some(value) = q {
            out.push_str(&format!(",\"{key}\":{}", fmt_f64(value)));
        }
    }
    out
}

/// Merges per-replica `/v1/profile` reports into one fleet report,
/// namespacing request ids as `<replica>/<req_id>` first — raw `r<N>`
/// ids recur across processes and would otherwise collide.
#[must_use]
pub fn merge_profiles(labeled: &[(String, ProfileReport)]) -> ProfileReport {
    let mut merged = ProfileReport::default();
    for (replica, report) in labeled {
        let mut namespaced = report.clone();
        for (id, _) in &mut namespaced.top_requests {
            *id = format!("{replica}/{id}");
        }
        merged = merged.merged(&namespaced);
    }
    merged
}

fn schema_err(message: String) -> SentinelError {
    SentinelError::Schema { line: 0, message }
}

fn req_u64(v: &JsonValue, key: &str, ctx: &str) -> Result<u64, SentinelError> {
    v.get(key)
        .and_then(JsonValue::as_u64)
        .ok_or_else(|| schema_err(format!("{ctx} missing `{key}`")))
}

fn req_f64(v: &JsonValue, key: &str, ctx: &str) -> Result<f64, SentinelError> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| schema_err(format!("{ctx} missing `{key}`")))
}

fn req_str<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a str, SentinelError> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| schema_err(format!("{ctx} missing `{key}`")))
}

/// A JSON number as a signed integer, when it is exactly one (bucket
/// indices are negative for sub-1.0 values, so `as_u64` is not enough).
fn as_i64(v: &JsonValue) -> Option<i64> {
    const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    match v.as_f64() {
        // nanocost-audit: allow(R2, reason = "exact integrality test: fract() returns 0.0 precisely for whole numbers")
        Some(n) if n.fract() == 0.0 && n.abs() < EXACT => Some(n as i64),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{Objective, SloMonitor};

    fn sample_histogram(replica: &str, scale: f64) -> LogHistogram {
        let mut h = LogHistogram::new();
        for i in 1..=300u32 {
            h.record(f64::from(i) * scale);
        }
        h.record_exemplar_tagged(250.0 * scale, &format!("{replica}-r9"), 42, replica);
        h
    }

    fn sample_snapshot(replica: &str, scale: f64) -> RawSnapshot {
        let monitor = {
            let mut m =
                SloMonitor::new(Objective { name: "latency_p99".to_string(), target: 0.99 });
            m.observe(1_000_000_000, 990, 10);
            m
        };
        let mut counters = BTreeMap::new();
        counters.insert("requests_total".to_string(), 300);
        counters.insert("completed_total".to_string(), 298);
        let mut endpoints = BTreeMap::new();
        endpoints.insert("cost".to_string(), sample_histogram(replica, scale));
        RawSnapshot {
            replica: replica.to_string(),
            t_ns: 1_000_000_000,
            counters,
            slo: vec![RawSlo::from_monitor(&monitor, 1_000_000_000)],
            workers: vec![RawWorker { busy_ns: 750, idle_ns: 250, served: 150 }],
            cache: RawCache { hits: 40, misses: 10, entries: 10, capacity: 64 },
            endpoints,
            queue_wait: (1..=50u32).fold(LogHistogram::new(), |mut h, i| {
                h.record(f64::from(i) * scale);
                h
            }),
            ..RawSnapshot::default()
        }
    }

    #[test]
    fn snapshot_json_is_deterministic_and_round_trips() {
        let snap = sample_snapshot("a", 1.0);
        let a = snap.to_json();
        let b = sample_snapshot("a", 1.0).to_json();
        assert_eq!(a, b, "identical state must render identical bytes");
        crate::json::parse(&a).expect("valid JSON");
        let parsed = RawSnapshot::parse(&a).expect("round-trips");
        assert_eq!(parsed, snap);
        assert_eq!(parsed.to_json(), a);
    }

    #[test]
    fn unknown_schema_versions_are_refused() {
        let bumped = sample_snapshot("a", 1.0)
            .to_json()
            .replacen("\"schema\":1", "\"schema\":9", 1);
        assert!(RawSnapshot::parse(&bumped).is_err());
    }

    #[test]
    fn fleet_merge_sums_counters_and_bounds_p99() {
        let snaps = [sample_snapshot("a", 1.0), sample_snapshot("b", 2.0)];
        let view = FleetView::from_snapshots(&snaps).expect("federates");
        assert_eq!(view.replicas, ["a", "b"]);
        assert_eq!(view.counters.get("requests_total"), Some(&600));
        let cost = view.endpoints.get("cost").expect("merged endpoint");
        // 300 plain records + 1 exemplar record per replica.
        assert_eq!(cost.count(), 602);
        let fleet_p99 = cost.p99().expect("non-empty");
        let (a_p99, b_p99) = (
            snaps[0].endpoints["cost"].p99().expect("a"),
            snaps[1].endpoints["cost"].p99().expect("b"),
        );
        assert!(
            fleet_p99 >= a_p99.min(b_p99) && fleet_p99 <= a_p99.max(b_p99),
            "fleet p99 {fleet_p99} outside [{a_p99}, {b_p99}]"
        );
        let skew = view.skew.get("cost").expect("skew row");
        assert_eq!(skew.min_replica, "a");
        assert_eq!(skew.max_replica, "b");
        assert!(skew.ratio > 1.5 && skew.ratio < 2.5, "ratio {}", skew.ratio);
        // Burn from summed counters: both replicas burned identically,
        // so the fleet verdict matches theirs (healthy at burn ~1).
        assert_eq!(view.slo.len(), 1);
        assert!(view.healthy());
        assert_eq!(view.slo[0].good, 1_980);
        assert_eq!(view.slo[0].bad, 20);
        assert_eq!(view.queue_wait.count(), 100, "queue waits merge across replicas");
        view.reconcile(&snaps).expect("identities hold");
        let artifact = view.to_json();
        crate::json::parse(&artifact).expect("fleet artifact is valid JSON");
        assert!(artifact.contains(",\"queue_wait\":{\"count\":100,"), "{artifact}");
    }

    #[test]
    fn federation_rejects_label_and_config_drift() {
        let dup = [sample_snapshot("a", 1.0), sample_snapshot("a", 2.0)];
        assert!(FleetView::from_snapshots(&dup).is_err());
        let mut unlabeled = sample_snapshot("a", 1.0);
        unlabeled.replica = String::new();
        assert!(FleetView::from_snapshots(&[unlabeled]).is_err());
        let mut drifted = sample_snapshot("b", 1.0);
        drifted.slo[0].target = 0.95;
        assert!(FleetView::from_snapshots(&[sample_snapshot("a", 1.0), drifted]).is_err());
        assert!(FleetView::from_snapshots(&[]).is_err());
    }

    #[test]
    fn grid_mismatch_is_rejected_over_the_wire() {
        let a = sample_snapshot("a", 1.0);
        let mut b = sample_snapshot("b", 1.0);
        let mut coarse = LogHistogram::with_grid(32).expect("valid grid");
        coarse.record(5.0);
        b.endpoints.insert("cost".to_string(), coarse);
        // Through the wire and back: the mismatch must survive parsing.
        let a = RawSnapshot::parse(&a.to_json()).expect("parses");
        let b = RawSnapshot::parse(&b.to_json()).expect("parses");
        assert!(matches!(
            FleetView::from_snapshots(&[a, b]),
            Err(SentinelError::GridMismatch(64, 32))
        ));
    }

    #[test]
    fn profile_merge_namespaces_request_ids() {
        let mut a = ProfileReport {
            samples: 2,
            distinct_requests: 1,
            top_requests: vec![("r1".to_string(), 2)],
            ..ProfileReport::default()
        };
        a.folded.insert("serve.request;serve.endpoint.cost".to_string(), 2);
        let mut b = a.clone();
        b.samples = 3;
        *b.folded.get_mut("serve.request;serve.endpoint.cost").expect("stack") = 3;
        b.top_requests = vec![("r1".to_string(), 3)];
        let merged = merge_profiles(&[("a".to_string(), a), ("b".to_string(), b)]);
        assert_eq!(merged.samples, 5);
        assert_eq!(merged.distinct_requests, 2);
        assert_eq!(
            merged.top_requests,
            vec![("b/r1".to_string(), 3), ("a/r1".to_string(), 2)]
        );
        assert_eq!(
            merged.folded.get("serve.request;serve.endpoint.cost"),
            Some(&5)
        );
    }
}
