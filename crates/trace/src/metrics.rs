//! A process-global metrics registry: counters, gauges, and
//! histograms, with monotonic-clock timing.
//!
//! Metrics accumulate silently while the program runs and are flushed
//! as [`RecordKind::Metric`] records when [`crate::flush`] runs (the
//! [`TraceGuard`](crate::TraceGuard) does this on drop). Histogram
//! samples stream into a [`nanocost_sentinel::LogHistogram`] — bounded
//! memory no matter how many samples arrive, and percentile summaries
//! (p50/p90/p99/p99.9) with a guaranteed relative-error bound instead
//! of the coarse mode-bin summary earlier revisions reported.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use nanocost_sentinel::LogHistogram;

use crate::record::RecordKind;
use crate::value::{Field, Value};
use crate::{dispatch, is_enabled};

static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());
static GAUGES: Mutex<BTreeMap<&'static str, f64>> = Mutex::new(BTreeMap::new());
static HISTOGRAMS: Mutex<BTreeMap<&'static str, LogHistogram>> = Mutex::new(BTreeMap::new());

/// A poisoned metrics mutex only means another thread panicked while
/// holding it; the map itself is still coherent, so recover it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Adds `n` to the named counter. With timeline sampling on, the
/// post-update running total also lands on the counter's timeline.
pub fn add_counter(name: &'static str, n: u64) {
    if !is_enabled() {
        return;
    }
    let total = {
        let mut counters = lock(&COUNTERS);
        let slot = counters.entry(name).or_insert(0);
        *slot += n;
        *slot
    };
    crate::timeline::record_sample(name, "counter", total as f64);
}

/// Sets the named gauge to `v` (last write wins). With timeline
/// sampling on, every write lands on the gauge's timeline.
pub fn set_gauge(name: &'static str, v: f64) {
    if !is_enabled() {
        return;
    }
    lock(&GAUGES).insert(name, v);
    crate::timeline::record_sample(name, "gauge", v);
}

/// Records one sample into the named histogram. With timeline sampling
/// on, the raw observation also lands on the histogram's timeline.
pub fn record_histogram(name: &'static str, v: f64) {
    if !is_enabled() {
        return;
    }
    lock(&HISTOGRAMS).entry(name).or_default().record(v);
    crate::timeline::record_sample(name, "histogram", v);
}

/// Current value of a counter (0 if never touched). Intended for tests.
#[must_use]
pub fn counter_value(name: &str) -> u64 {
    lock(&COUNTERS).get(name).copied().unwrap_or(0)
}

/// Times a region with the monotonic clock and records the elapsed
/// seconds into a histogram metric on drop.
#[derive(Debug)]
pub struct Timer {
    name: &'static str,
    start: Option<Instant>,
}

impl Timer {
    /// Starts timing; inert when tracing is disabled.
    #[must_use]
    pub fn start(name: &'static str) -> Self {
        Timer {
            name,
            start: is_enabled().then(Instant::now),
        }
    }
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            record_histogram(self.name, start.elapsed().as_secs_f64());
        }
    }
}

/// Drains the registry and emits one [`RecordKind::Metric`] record per
/// metric. Counters and gauges carry a single `value` field; histograms
/// carry `count`/`min`/`max`/`mean`/`p50`/`p90`/`p99`/`p999` — the
/// summary stats are exact, the percentiles come from the log-linear
/// buckets with relative error at most
/// [`LogHistogram::relative_error_bound`].
pub fn flush_metrics() {
    let counters = std::mem::take(&mut *lock(&COUNTERS));
    for (name, v) in counters {
        dispatch(RecordKind::Metric {
            name,
            metric_kind: "counter",
            fields: vec![Field::new("value", Value::U64(v))],
        });
    }
    let gauges = std::mem::take(&mut *lock(&GAUGES));
    for (name, v) in gauges {
        dispatch(RecordKind::Metric {
            name,
            metric_kind: "gauge",
            fields: vec![Field::new("value", Value::F64(v))],
        });
    }
    let histograms = std::mem::take(&mut *lock(&HISTOGRAMS));
    for (name, hist) in histograms {
        if hist.is_empty() {
            continue;
        }
        dispatch(RecordKind::Metric {
            name,
            metric_kind: "histogram",
            fields: summarize(&hist),
        });
    }
}

/// Builds the summary fields for one histogram metric.
fn summarize(hist: &LogHistogram) -> Vec<Field> {
    // All quantile calls succeed on a non-empty histogram; 0.0 is an
    // unreachable fallback that keeps this path panic-free.
    let q = |p: f64| Value::F64(hist.quantile(p).unwrap_or(0.0));
    vec![
        Field::new("count", Value::U64(hist.count())),
        Field::new("min", Value::F64(hist.min().unwrap_or(0.0))),
        Field::new("max", Value::F64(hist.max().unwrap_or(0.0))),
        Field::new("mean", Value::F64(hist.mean().unwrap_or(0.0))),
        Field::new("p50", q(0.50)),
        Field::new("p90", q(0.90)),
        Field::new("p99", q(0.99)),
        Field::new("p999", q(0.999)),
    ]
}

/// Increments a named counter; free when disabled.
///
/// ```
/// nanocost_trace::counter!("mc.wafers", 25u64);
/// ```
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {
        if $crate::is_enabled() {
            $crate::metrics::add_counter($name, $n);
        }
    };
    ($name:expr) => {
        $crate::counter!($name, 1u64)
    };
}

/// Sets a named gauge; free when disabled.
#[macro_export]
macro_rules! gauge {
    ($name:expr, $v:expr) => {
        if $crate::is_enabled() {
            $crate::metrics::set_gauge($name, $v);
        }
    };
}

/// Records one sample into a named histogram metric; free when
/// disabled.
#[macro_export]
macro_rules! metric_histogram {
    ($name:expr, $v:expr) => {
        if $crate::is_enabled() {
            $crate::metrics::record_histogram($name, $v);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RecordKind;
    use crate::with_collector;

    /// The registry is process-global and `flush_metrics` drains it
    /// into the calling thread's collector, so tests that flush run one
    /// at a time or they steal each other's metrics.
    static FLUSHING: Mutex<()> = Mutex::new(());

    #[test]
    fn metrics_accumulate_and_flush_as_records() {
        let _serial = lock(&FLUSHING);
        let (records, _) = with_collector(|| {
            counter!("unit.counter", 2);
            counter!("unit.counter");
            gauge!("unit.gauge", 2.5);
            metric_histogram!("unit.hist", 1.0);
            metric_histogram!("unit.hist", 3.0);
            metric_histogram!("unit.hist", 3.0);
            flush_metrics();
        });
        let metric = |n: &str| {
            records
                .iter()
                .find_map(|r| match &r.kind {
                    RecordKind::Metric { name, metric_kind, fields } if *name == n => {
                        Some((*metric_kind, fields.clone()))
                    }
                    _ => None,
                })
                .expect("metric present")
        };
        let (kind, fields) = metric("unit.counter");
        assert_eq!(kind, "counter");
        assert_eq!(fields[0].value, Value::U64(3));
        let (kind, _) = metric("unit.gauge");
        assert_eq!(kind, "gauge");
        let (kind, fields) = metric("unit.hist");
        assert_eq!(kind, "histogram");
        assert_eq!(fields[0], Field::new("count", Value::U64(3)));
        let names: Vec<&str> = fields.iter().map(|f| f.name).collect();
        assert_eq!(names, ["count", "min", "max", "mean", "p50", "p90", "p99", "p999"]);
        // Median of {1, 3, 3} is 3, up to the histogram's bucket width.
        let Value::F64(p50) = fields[4].value else { panic!("p50 not f64") };
        assert!((p50 - 3.0).abs() / 3.0 < 0.01, "p50 {p50}");
        // Tail percentiles are monotone and capped by the exact max.
        let Value::F64(p999) = fields[7].value else { panic!("p999 not f64") };
        assert!(p999 >= p50 && p999 <= 3.0, "p999 {p999}");
    }

    #[test]
    fn flush_drains_the_registry() {
        let _serial = lock(&FLUSHING);
        let _ = with_collector(|| {
            counter!("unit.drained", 5);
            flush_metrics();
        });
        assert_eq!(counter_value("unit.drained"), 0);
    }

    #[test]
    fn timer_records_into_a_histogram() {
        let _serial = lock(&FLUSHING);
        let (records, _) = with_collector(|| {
            {
                let _t = Timer::start("unit.timer");
            }
            flush_metrics();
        });
        assert!(records.iter().any(|r| matches!(
            &r.kind,
            RecordKind::Metric { name: "unit.timer", metric_kind: "histogram", .. }
        )));
    }

    #[test]
    fn degenerate_histogram_percentiles_are_the_value() {
        let mut h = LogHistogram::new();
        h.record(4.0);
        h.record(4.0);
        let fields = summarize(&h);
        // The [min, max] clamp makes every percentile exact here.
        assert_eq!(fields[4], Field::new("p50", Value::F64(4.0)));
        assert_eq!(fields[7], Field::new("p999", Value::F64(4.0)));
    }
}
