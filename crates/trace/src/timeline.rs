//! Timestamped metric sampling: counter/gauge/histogram *timelines*.
//!
//! The metrics registry ([`crate::metrics`]) reports end-of-run
//! aggregates; this module answers the question those aggregates
//! cannot — *when* did a counter move during the figure-4 λ×s_d sweep
//! or the wafer-map Monte-Carlo? With sampling enabled (see
//! [`enable_sampling`] / the `NANOCOST_TRACE_SAMPLE` on/off switch),
//! every `counter!`/`gauge!`/`metric_histogram!` update also appends a
//! `(t_ns, name, value)` point to a bounded per-thread ring buffer of
//! [`DEFAULT_CAPACITY`] samples. [`flush_samples`] (run by
//! [`crate::flush`], which the trace guard calls at process exit)
//! drains the buffers through the normal exporter fan-out as
//! [`RecordKind::Sample`] records — JSONL `"type":"sample"` lines and
//! Chrome trace-event `"ph":"C"` counter tracks, so a sweep renders as
//! a counter graph in `chrome://tracing` / Perfetto. Samples reach the
//! capture only at that flush: the timeline is a post-run view.
//!
//! Loss is never silent. Below capacity the buffer is lossless; on
//! overflow it performs deterministic 2:1 decimation — every other
//! retained sample is dropped, the keep-stride doubles, and an exact
//! `dropped` count is maintained so `kept + dropped == observed` holds
//! at every instant. When a buffer flushes with `dropped > 0`, a
//! `timeline.decimation` event reports the exact accounting.
//!
//! When sampling is disabled (the default), the hook in the metrics
//! registry is a single relaxed atomic load — the zero-alloc guarantee
//! of the disabled trace path extends to sampling.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::record::RecordKind;
use crate::value::{Field, Value};

/// Default per-thread ring-buffer capacity (samples).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Smallest usable capacity: 2:1 decimation needs at least two slots.
const MIN_CAPACITY: usize = 2;

/// Is the sampling layer on? Checked (relaxed) on every metric update.
static SAMPLING: AtomicBool = AtomicBool::new(false);

/// Per-thread sample buffers, keyed by the trace thread id.
static BUFFERS: Mutex<BTreeMap<u64, SampleBuffer>> = Mutex::new(BTreeMap::new());

/// A poisoned buffer mutex only means another thread panicked while
/// holding it; the map itself is still coherent, so recover it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One timeline point held in a ring buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Nanoseconds since the process trace epoch at capture time.
    pub t_ns: u64,
    /// Metric name.
    pub name: &'static str,
    /// `"counter"`, `"gauge"`, or `"histogram"`.
    pub metric_kind: &'static str,
    /// Sampled value.
    pub value: f64,
}

/// A bounded sample buffer with deterministic 2:1 overflow decimation.
///
/// Invariants, checked by the property tests:
///
/// * `kept() + dropped() == observed()` — count conservation, always;
/// * `kept() <= capacity` — bounded memory;
/// * the retained samples are exactly the observations whose 0-based
///   index is a multiple of [`stride`](Self::stride), so decimation is
///   uniform over the whole run, not biased toward its start or end;
/// * `stride` is a power of two (it starts at 1 and only ever doubles).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleBuffer {
    samples: Vec<Sample>,
    capacity: usize,
    /// Keep one observation per `stride` offered; doubles on overflow.
    stride: u64,
    observed: u64,
    dropped: u64,
}

impl SampleBuffer {
    /// An empty buffer holding at most `capacity` samples (clamped to a
    /// minimum of 2 so decimation always makes progress).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SampleBuffer {
            samples: Vec::new(),
            capacity: capacity.max(MIN_CAPACITY),
            stride: 1,
            observed: 0,
            dropped: 0,
        }
    }

    /// Offers one sample. Kept losslessly below capacity; decimated
    /// deterministically (and counted) above it.
    pub fn push(&mut self, sample: Sample) {
        let index = self.observed;
        self.observed += 1;
        if !index.is_multiple_of(self.stride) {
            self.dropped += 1;
            return;
        }
        if self.samples.len() >= self.capacity {
            self.decimate();
        }
        self.samples.push(sample);
    }

    /// 2:1 decimation: drop the odd retained positions and double the
    /// stride. Because the retained observations were the multiples of
    /// the old stride (starting at index 0), the survivors are exactly
    /// the multiples of the new stride — the post-decimation buffer is
    /// indistinguishable from one that sampled at the coarser rate all
    /// along.
    fn decimate(&mut self) {
        let before = self.samples.len();
        let mut position = 0usize;
        self.samples.retain(|_| {
            let keep = position.is_multiple_of(2);
            position += 1;
            keep
        });
        self.dropped += (before - self.samples.len()) as u64;
        self.stride = self.stride.saturating_mul(2);
    }

    /// The retained samples, oldest first.
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples currently retained.
    #[must_use]
    pub fn kept(&self) -> usize {
        self.samples.len()
    }

    /// Total samples offered so far.
    #[must_use]
    pub fn observed(&self) -> u64 {
        self.observed
    }

    /// Exact number of samples decimated away so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Current keep-stride (1 until the first overflow).
    #[must_use]
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

/// Is metric sampling currently enabled?
#[inline]
#[must_use]
pub fn sampling_enabled() -> bool {
    SAMPLING.load(Ordering::Relaxed)
}

/// Turns sampling on; each thread's buffer holds [`DEFAULT_CAPACITY`]
/// samples before it decimates.
pub fn enable_sampling() {
    SAMPLING.store(true, Ordering::Relaxed);
}

/// Turns sampling off (already-buffered samples stay until the next
/// [`flush_samples`]). Intended for tests.
pub fn disable_sampling() {
    SAMPLING.store(false, Ordering::Relaxed);
}

/// Records one timeline point for the calling thread. A single relaxed
/// atomic load when sampling is disabled; called by the metrics
/// registry on every counter/gauge/histogram update.
pub fn record_sample(name: &'static str, metric_kind: &'static str, value: f64) {
    if !sampling_enabled() {
        return;
    }
    let t_ns = crate::epoch_nanos();
    let thread = crate::current_thread_id();
    let mut buffers = lock(&BUFFERS);
    buffers
        .entry(thread)
        .or_insert_with(|| SampleBuffer::new(DEFAULT_CAPACITY))
        .push(Sample { t_ns, name, metric_kind, value });
}

/// Drains every per-thread buffer into the active subscriber as
/// [`RecordKind::Sample`] records (each stamped with its *originating*
/// thread and capture time, not the flushing thread), followed by one
/// `timeline.decimation` event per buffer that lost samples — the exact
/// loss accounting that keeps decimation honest. Called by
/// [`crate::flush`].
pub fn flush_samples() {
    dispatch_buffers(std::mem::take(&mut *lock(&BUFFERS)));
}

/// The dispatching half of [`flush_samples`], one buffer per thread.
fn dispatch_buffers(buffers: BTreeMap<u64, SampleBuffer>) {
    for (thread, buffer) in buffers {
        for s in buffer.samples() {
            crate::dispatch_origin(
                s.t_ns / 1_000,
                thread,
                RecordKind::Sample {
                    name: s.name,
                    metric_kind: s.metric_kind,
                    t_ns: s.t_ns,
                    value: s.value,
                },
            );
        }
        if buffer.dropped() > 0 {
            crate::dispatch(RecordKind::Event {
                span: None,
                name: "timeline.decimation",
                fields: vec![
                    Field::new("sampled_thread", Value::U64(thread)),
                    Field::new("observed", Value::U64(buffer.observed())),
                    Field::new("kept", Value::U64(buffer.kept() as u64)),
                    Field::new("dropped", Value::U64(buffer.dropped())),
                    Field::new("stride", Value::U64(buffer.stride())),
                ],
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_collector;

    fn sample(i: u64) -> Sample {
        Sample { t_ns: i, name: "t.metric", metric_kind: "gauge", value: i as f64 }
    }

    #[test]
    fn lossless_below_capacity() {
        let mut b = SampleBuffer::new(8);
        for i in 0..8 {
            b.push(sample(i));
        }
        assert_eq!(b.kept(), 8);
        assert_eq!(b.dropped(), 0);
        assert_eq!(b.observed(), 8);
        assert_eq!(b.stride(), 1);
    }

    #[test]
    fn overflow_decimates_two_to_one_with_exact_accounting() {
        let mut b = SampleBuffer::new(4);
        for i in 0..9 {
            b.push(sample(i));
        }
        // First overflow at the 5th push: {0,1,2,3} -> {0,2}, stride 2;
        // 4 and 6 pass the stride gate, 5 and 7 do not. Observation 8
        // refills the buffer to capacity and decimates again:
        // {0,2,4,6} -> {0,4}, stride 4, then 8 lands.
        assert_eq!(b.observed(), 9);
        assert_eq!(b.kept() as u64 + b.dropped(), b.observed());
        let kept: Vec<u64> = b.samples().iter().map(|s| s.t_ns).collect();
        assert_eq!(kept, [0, 4, 8]);
        assert_eq!(b.stride(), 4);
    }

    #[test]
    fn repeated_overflow_keeps_uniform_multiples_of_the_stride() {
        let mut b = SampleBuffer::new(4);
        for i in 0..100 {
            b.push(sample(i));
        }
        assert!(b.kept() <= 4 + 1);
        assert_eq!(b.kept() as u64 + b.dropped(), b.observed());
        assert!(b.stride().is_power_of_two());
        for s in b.samples() {
            assert_eq!(s.t_ns % b.stride(), 0, "kept {} with stride {}", s.t_ns, b.stride());
        }
    }

    #[test]
    fn flush_emits_sample_records_with_origin_thread() {
        let (records, _) = with_collector(|| {
            enable_sampling();
            for i in 0..5 {
                record_sample("t.flush_probe", "counter", f64::from(i));
            }
            flush_samples();
            disable_sampling();
        });
        let my_thread = crate::current_thread_id();
        let samples: Vec<&crate::Record> = records
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::Sample { name: "t.flush_probe", .. }))
            .collect();
        assert!(!samples.is_empty(), "sample records flushed");
        for r in &samples {
            assert_eq!(r.thread, my_thread, "sample stamped with its origin thread");
        }
        // And a second flush finds nothing.
        let (again, _) = with_collector(flush_samples);
        assert!(again
            .iter()
            .all(|r| !matches!(r.kind, RecordKind::Sample { name: "t.flush_probe", .. })));
    }

    #[test]
    fn lossy_buffers_flush_an_exact_decimation_event() {
        let mut buffer = SampleBuffer::new(2);
        for i in 0..5 {
            buffer.push(sample(i));
        }
        let (records, _) = with_collector(|| dispatch_buffers(BTreeMap::from([(7, buffer)])));
        let origins: Vec<u64> = records
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::Sample { .. }))
            .map(|r| r.thread)
            .collect();
        assert_eq!(origins, [7, 7], "kept samples, stamped with the sampled thread");
        let accounting: Vec<(&str, Value)> = records
            .iter()
            .find_map(|r| match &r.kind {
                RecordKind::Event { name: "timeline.decimation", fields, .. } => Some(fields),
                _ => None,
            })
            .expect("decimation event")
            .iter()
            .map(|f| (f.name, f.value.clone()))
            .collect();
        assert_eq!(
            accounting,
            [
                ("sampled_thread", Value::U64(7)),
                ("observed", Value::U64(5)),
                ("kept", Value::U64(2)),
                ("dropped", Value::U64(3)),
                ("stride", Value::U64(4)),
            ]
        );
    }

    #[test]
    fn sample_timestamps_are_monotone_per_thread() {
        let (records, _) = with_collector(|| {
            enable_sampling();
            for i in 0..10 {
                record_sample("t.monotone_probe", "gauge", f64::from(i));
            }
            flush_samples();
            disable_sampling();
        });
        let mut last = 0u64;
        for r in &records {
            if let RecordKind::Sample { name: "t.monotone_probe", t_ns, .. } = r.kind {
                assert!(t_ns >= last, "t_ns {t_ns} < {last}");
                last = t_ns;
            }
        }
    }

    #[test]
    fn disabled_sampling_records_nothing() {
        disable_sampling();
        record_sample("t.disabled_probe", "gauge", 1.0);
        let (records, _) = with_collector(flush_samples);
        assert!(records
            .iter()
            .all(|r| !matches!(r.kind, RecordKind::Sample { name: "t.disabled_probe", .. })));
    }
}
