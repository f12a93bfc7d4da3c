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
//!   per-worker busy/idle counters, and cache counters.
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
use crate::slo::{
    burn_rate, fmt_f64, BurnReport, SloMonitor, FAST_WINDOW_NS, MAX_BURN, SLOW_WINDOW_NS,
};
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

/// One objective's summable SLO state as of a scrape: identity and
/// configuration, lifetime totals, and the good/bad deltas inside each
/// burn window. The windowed deltas are the federation enabler — burn
/// rates themselves cannot be averaged, but their numerators and
/// denominators add.
#[derive(Debug, Clone, PartialEq)]
pub struct RawSlo {
    /// Objective name (`latency_p99`, `shed_rate`, …).
    pub name: String,
    /// Target good fraction in `(0, 1)`.
    pub target: f64,
    /// Firing threshold both windows must exceed.
    pub max_burn: f64,
    /// Fast window length in nanoseconds.
    pub fast_ns: u64,
    /// Slow window length in nanoseconds.
    pub slow_ns: u64,
    /// Lifetime good events.
    pub good: u64,
    /// Lifetime bad events.
    pub bad: u64,
    /// Good events inside the fast window.
    pub fast_good: u64,
    /// Bad events inside the fast window.
    pub fast_bad: u64,
    /// Good events inside the slow window.
    pub slow_good: u64,
    /// Bad events inside the slow window.
    pub slow_bad: u64,
}

impl RawSlo {
    /// Snapshots a live monitor's summable state as of `now_ns`.
    #[must_use]
    pub fn from_monitor(monitor: &SloMonitor, now_ns: u64) -> RawSlo {
        let report = monitor.report(now_ns);
        let (fast_good, fast_bad) = monitor.window_counts(now_ns, FAST_WINDOW_NS);
        let (slow_good, slow_bad) = monitor.window_counts(now_ns, SLOW_WINDOW_NS);
        RawSlo {
            name: report.name,
            target: report.target,
            max_burn: MAX_BURN,
            fast_ns: FAST_WINDOW_NS,
            slow_ns: SLOW_WINDOW_NS,
            good: report.good,
            bad: report.bad,
            fast_good,
            fast_bad,
            slow_good,
            slow_bad,
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"target\":{},\"max_burn\":{},\"fast_ns\":{},\"slow_ns\":{},\
             \"good\":{},\"bad\":{},\"fast_good\":{},\"fast_bad\":{},\
             \"slow_good\":{},\"slow_bad\":{}}}",
            escape_json(&self.name),
            fmt_f64(self.target),
            fmt_f64(self.max_burn),
            self.fast_ns,
            self.slow_ns,
            self.good,
            self.bad,
            self.fast_good,
            self.fast_bad,
            self.slow_good,
            self.slow_bad
        )
    }

    fn parse(v: &JsonValue) -> Result<RawSlo, SentinelError> {
        Ok(RawSlo {
            name: req_str(v, "name", "slo entry")?.to_string(),
            target: req_f64(v, "target", "slo entry")?,
            max_burn: req_f64(v, "max_burn", "slo entry")?,
            fast_ns: req_u64(v, "fast_ns", "slo entry")?,
            slow_ns: req_u64(v, "slow_ns", "slo entry")?,
            good: req_u64(v, "good", "slo entry")?,
            bad: req_u64(v, "bad", "slo entry")?,
            fast_good: req_u64(v, "fast_good", "slo entry")?,
            fast_bad: req_u64(v, "fast_bad", "slo entry")?,
            slow_good: req_u64(v, "slow_good", "slo entry")?,
            slow_bad: req_u64(v, "slow_bad", "slo entry")?,
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

/// Scenario-cache counters.
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

/// The full mergeable state of one replica as of one scrape — the
/// `GET /v1/metrics/raw` payload. Rendering is byte-deterministic:
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
}

impl RawSnapshot {
    /// Renders the snapshot as the schema-1 wire document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"schema\":{RAW_SCHEMA},\"replica\":{},\"t_ns\":{},\"counters\":{{",
            escape_json(&self.replica),
            self.t_ns
        );
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{value}", escape_json(name)));
        }
        out.push_str("},\"slo\":[");
        for (i, slo) in self.slo.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&slo.to_json());
        }
        out.push_str("],\"workers\":[");
        for (i, w) in self.workers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"busy_ns\":{},\"idle_ns\":{},\"served\":{}}}",
                w.busy_ns, w.idle_ns, w.served
            ));
        }
        out.push_str(&format!(
            "],\"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"capacity\":{}}},\
             \"endpoints\":{{",
            self.cache.hits, self.cache.misses, self.cache.entries, self.cache.capacity
        ));
        for (i, (name, hist)) in self.endpoints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{}", escape_json(name), histogram_raw_json(hist)));
        }
        out.push_str("}}");
        out
    }

    /// Parses a wire document rendered by [`RawSnapshot::to_json`].
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
        let mut snap = RawSnapshot {
            replica: req_str(&v, "replica", "raw snapshot")?.to_string(),
            t_ns: req_u64(&v, "t_ns", "raw snapshot")?,
            counters: BTreeMap::new(),
            slo: Vec::new(),
            workers: Vec::new(),
            cache: RawCache::default(),
            endpoints: BTreeMap::new(),
        };
        let Some(JsonValue::Obj(counters)) = v.get("counters") else {
            return Err(schema_err("raw snapshot missing `counters` object".to_string()));
        };
        for (name, value) in counters {
            let value = value
                .as_u64()
                .ok_or_else(|| schema_err(format!("counter `{name}` is not a count")))?;
            snap.counters.insert(name.clone(), value);
        }
        let Some(JsonValue::Arr(slo)) = v.get("slo") else {
            return Err(schema_err("raw snapshot missing `slo` array".to_string()));
        };
        for entry in slo {
            snap.slo.push(RawSlo::parse(entry)?);
        }
        let Some(JsonValue::Arr(workers)) = v.get("workers") else {
            return Err(schema_err("raw snapshot missing `workers` array".to_string()));
        };
        for w in workers {
            snap.workers.push(RawWorker {
                busy_ns: req_u64(w, "busy_ns", "worker entry")?,
                idle_ns: req_u64(w, "idle_ns", "worker entry")?,
                served: req_u64(w, "served", "worker entry")?,
            });
        }
        let cache = v
            .get("cache")
            .ok_or_else(|| schema_err("raw snapshot missing `cache` object".to_string()))?;
        snap.cache = RawCache {
            hits: req_u64(cache, "hits", "cache")?,
            misses: req_u64(cache, "misses", "cache")?,
            entries: req_u64(cache, "entries", "cache")?,
            capacity: req_u64(cache, "capacity", "cache")?,
        };
        let Some(JsonValue::Obj(endpoints)) = v.get("endpoints") else {
            return Err(schema_err("raw snapshot missing `endpoints` object".to_string()));
        };
        for (name, hist) in endpoints {
            snap.endpoints.insert(name.clone(), histogram_from_raw(hist)?);
        }
        Ok(snap)
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
    /// Cache counters summed across replicas.
    pub cache: RawCache,
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
            cache: RawCache::default(),
            profile: None,
        };
        // Counters, cache, utilization: plain sums.
        for snap in snapshots {
            for (name, value) in &snap.counters {
                *view.counters.entry(name.clone()).or_insert(0) += value;
            }
            view.cache.hits += snap.cache.hits;
            view.cache.misses += snap.cache.misses;
            view.cache.entries += snap.cache.entries;
            view.cache.capacity += snap.cache.capacity;
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
        for name in order {
            let Some(total) = by_name.get(name) else { continue };
            let fast_burn = burn_rate(total.fast_good, total.fast_bad, total.target);
            let slow_burn = burn_rate(total.slow_good, total.slow_bad, total.target);
            view.slo.push(BurnReport {
                name: total.name.clone(),
                target: total.target,
                fast_burn,
                slow_burn,
                max_burn: total.max_burn,
                firing: fast_burn > total.max_burn && slow_burn > total.max_burn,
                good: total.good,
                bad: total.bad,
            });
        }
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
        let mut out = format!("{{\"schema\":{RAW_SCHEMA},\"replicas\":[");
        for (i, replica) in self.replicas.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&escape_json(replica));
        }
        out.push_str(&format!("],\"healthy\":{},\"counters\":{{", self.healthy()));
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{value}", escape_json(name)));
        }
        out.push_str("},\"slo\":[");
        for (i, report) in self.slo.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&report.to_json());
        }
        out.push_str("],\"endpoints\":{");
        for (i, (name, hist)) in self.endpoints.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{{\"count\":{}", escape_json(name), hist.count()));
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
            match hist.quantile_exemplar(Q_P99) {
                Some(e) => out.push_str(&format!(
                    ",\"p99_exemplar\":{{\"replica\":{},\"req_id\":{},\"value_us\":{},\
                     \"t_ns\":{}}}",
                    escape_json(&e.replica),
                    escape_json(&e.req_id),
                    fmt_f64(e.value),
                    e.t_ns
                )),
                None => out.push_str(",\"p99_exemplar\":null"),
            }
            match self.skew.get(name) {
                Some(skew) => out.push_str(&format!(
                    ",\"skew\":{{\"min_replica\":{},\"min_p99_us\":{},\"max_replica\":{},\
                     \"max_p99_us\":{},\"ratio\":{}}}",
                    escape_json(&skew.min_replica),
                    fmt_f64(skew.min_p99),
                    escape_json(&skew.max_replica),
                    fmt_f64(skew.max_p99),
                    fmt_f64(skew.ratio)
                )),
                None => out.push_str(",\"skew\":null"),
            }
            out.push('}');
        }
        out.push_str("},\"utilization\":[");
        for (i, u) in self.utilization.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"replica\":{},\"workers\":{},\"busy_fraction\":{},\"served\":{},\
                 \"requests\":{}}}",
                escape_json(&u.replica),
                u.workers,
                fmt_f64(u.busy_fraction),
                u.served,
                u.requests
            ));
        }
        let lookups = self.cache.hits + self.cache.misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            self.cache.hits as f64 / lookups as f64
        };
        out.push_str(&format!(
            "],\"cache\":{{\"hits\":{},\"misses\":{},\"entries\":{},\"capacity\":{},\
             \"hit_rate\":{}}}",
            self.cache.hits,
            self.cache.misses,
            self.cache.entries,
            self.cache.capacity,
            fmt_f64(hit_rate)
        ));
        match &self.profile {
            Some(report) => out.push_str(&format!(",\"profile\":{}", report.to_json())),
            None => out.push_str(",\"profile\":null"),
        }
        out.push('}');
        out
    }
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
    use crate::slo::Objective;

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
        view.reconcile(&snaps).expect("identities hold");
        crate::json::parse(&view.to_json()).expect("fleet artifact is valid JSON");
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
