//! A log-linear histogram with a bounded relative error, in the style of
//! HDR histograms.
//!
//! Every power-of-two range (octave) of positive values is divided into
//! `grid` equal-width sub-buckets, so the bucket containing a value `v`
//! is never wider than `v / grid`, and reporting the bucket *midpoint*
//! for any member is off by at most `1 / (2·grid)` in relative terms
//! (see [`LogHistogram::relative_error_bound`]). The paper's drift
//! argument needs exactly this: tail latencies (`p99`, `p99.9`) that
//! stay trustworthy while the histogram itself stays O(octaves·grid)
//! in memory, no matter how many samples are recorded.
//!
//! Two histograms with the same grid merge losslessly
//! ([`LogHistogram::merge`]): bucket counts add, so merging is
//! associative and commutative over the quantile structure — the
//! property tests in `tests/histogram_props.rs` pin this down.

use std::collections::BTreeMap;

use crate::SentinelError;

/// Default sub-buckets per octave: relative error ≤ 1/(2·64) ≈ 0.78 %.
const DEFAULT_GRID: u32 = 64;

/// Largest accepted grid; beyond this the memory trade-off is absurd.
const MAX_GRID: u32 = 4096;

/// IEEE-754 double-precision exponent bias.
const F64_EXP_BIAS: i64 = 1023;

/// Number of explicit mantissa bits in an `f64`.
const F64_MANTISSA_BITS: u32 = 52;

/// One concrete observation retained for a bucket: the request that
/// produced it, the exact value, and when it was recorded. Exemplars
/// turn an anonymous quantile into a drill-down: the p99 bucket's
/// exemplar names a `req_id` whose full trace can be fetched from the
/// query server's `/v1/trace/<req-id>` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The request the observation was made on behalf of.
    pub req_id: String,
    /// The exact observed value (not the bucket midpoint).
    pub value: f64,
    /// Nanoseconds since the process trace epoch at observation time.
    pub t_ns: u64,
    /// The replica that recorded the observation (empty for a single
    /// process). `t_ns` values are only comparable *within* one
    /// replica — each process has its own trace epoch — so cross-replica
    /// exemplar merging orders on the replica tag first.
    pub replica: String,
}

impl Exemplar {
    /// Keep-latest ordering keyed on `(replica, t_ns, req_id)`: within
    /// one replica the newest observation wins, with `req_id` as a
    /// deterministic tiebreak so merging is commutative even at equal
    /// timestamps. Across replicas the tag itself decides — their trace
    /// epochs are unrelated, so comparing raw `t_ns` values would let a
    /// replica with a larger clock base silently shadow every other
    /// replica's exemplars.
    fn superseded_by(&self, other: &Exemplar) -> bool {
        (other.replica.as_str(), other.t_ns, other.req_id.as_str())
            > (self.replica.as_str(), self.t_ns, self.req_id.as_str())
    }
}

/// The full mergeable state of a [`LogHistogram`], decomposed for wire
/// transport. [`LogHistogram::raw_parts`] produces it and
/// [`LogHistogram::from_raw_parts`] reconstructs the histogram exactly
/// (bit-for-bit, including exemplars), which is what lets a federation
/// layer merge scrapes from independent replicas losslessly.
#[derive(Debug, Clone, PartialEq)]
pub struct RawHistogram {
    /// Sub-buckets per octave (must be a power of two in `1..=4096`).
    pub grid: u32,
    /// Samples ≤ 0.
    pub underflow: u64,
    /// Total recorded samples, including underflow.
    pub count: u64,
    /// Exact running sum of all recorded samples.
    pub sum: f64,
    /// Exact minimum (`+inf` when empty).
    pub min: f64,
    /// Exact maximum (`-inf` when empty).
    pub max: f64,
    /// Sparse `(bucket index, count)` pairs in ascending index order.
    pub buckets: Vec<(i64, u64)>,
    /// `(bucket index, exemplar)` pairs in ascending index order.
    pub exemplars: Vec<(i64, Exemplar)>,
}

/// A mergeable log-linear histogram over positive `f64` samples with
/// percentile queries of bounded relative error.
///
/// Non-positive samples are counted in a dedicated underflow bucket
/// (they sort below every positive bucket and are reported as the exact
/// tracked minimum); non-finite samples are ignored. Exact `count`,
/// `min`, `max`, and `sum` are tracked alongside the buckets, so the
/// summary statistics carry no quantization error at all — only the
/// interior percentiles do, and those are bounded.
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Sub-buckets per octave; a power of two so bucket indexing is
    /// exact bit arithmetic with no float rounding at the boundaries.
    grid: u32,
    /// Sparse bucket table: `index -> count` (see [`Self::bucket_index`]).
    buckets: BTreeMap<i64, u64>,
    /// Samples ≤ 0 (timing pipelines never produce them, but a histogram
    /// that silently dropped them would lie about `count`).
    underflow: u64,
    /// Total recorded samples, including underflow.
    count: u64,
    /// Exact running sum of all recorded samples.
    sum: f64,
    /// Exact minimum recorded sample.
    min: f64,
    /// Exact maximum recorded sample.
    max: f64,
    /// Per-bucket exemplars (most recent observation per bucket), kept
    /// to the side of the count table: recording with or without
    /// exemplars yields byte-identical quantile answers.
    exemplars: BTreeMap<i64, Exemplar>,
}

impl Default for LogHistogram {
    fn default() -> Self {
        // DEFAULT_GRID is a compile-time power of two, so this cannot
        // actually fail; fall back to an explicit construction to keep
        // the default path panic-free.
        LogHistogram::with_grid(DEFAULT_GRID).unwrap_or(LogHistogram {
            grid: DEFAULT_GRID,
            buckets: BTreeMap::new(),
            underflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            exemplars: BTreeMap::new(),
        })
    }
}

impl LogHistogram {
    /// A histogram with the default grid (64 sub-buckets per octave,
    /// relative error ≤ 0.78 %).
    #[must_use]
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// A histogram with `grid` sub-buckets per octave.
    ///
    /// # Errors
    ///
    /// Returns [`SentinelError::BadGrid`] unless `grid` is a power of
    /// two in `1..=4096` — powers of two keep bucket indexing exact.
    pub fn with_grid(grid: u32) -> Result<Self, SentinelError> {
        if grid == 0 || grid > MAX_GRID || !grid.is_power_of_two() {
            return Err(SentinelError::BadGrid(grid));
        }
        Ok(LogHistogram {
            grid,
            buckets: BTreeMap::new(),
            underflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            exemplars: BTreeMap::new(),
        })
    }

    /// The grid (sub-buckets per octave) this histogram was built with.
    #[must_use]
    pub fn grid(&self) -> u32 {
        self.grid
    }

    /// The guaranteed bound on the relative error of any percentile
    /// query: `1 / (2·grid)`.
    #[must_use]
    pub fn relative_error_bound(&self) -> f64 {
        1.0 / (2.0 * f64::from(self.grid))
    }

    /// Records one sample. Non-finite values are ignored; values ≤ 0 go
    /// to the underflow bucket.
    pub fn record(&mut self, v: f64) {
        self.record_n(v, 1);
    }

    /// Records `n` identical samples in one step.
    pub fn record_n(&mut self, v: f64, n: u64) {
        if !v.is_finite() || n == 0 {
            return;
        }
        self.count += n;
        self.sum += v * n as f64;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        match self.bucket_index(v) {
            Some(idx) => *self.buckets.entry(idx).or_insert(0) += n,
            None => self.underflow += n,
        }
    }

    /// Records one sample and retains it as its bucket's exemplar when
    /// it is the newest observation that bucket has seen (keep-latest
    /// by `t_ns`, `req_id` as the deterministic tiebreak). The count
    /// table is updated exactly as [`Self::record`] would — exemplars
    /// never alter quantile math. Non-finite and non-positive samples
    /// update the counts only; the underflow bucket keeps no exemplar.
    pub fn record_exemplar(&mut self, v: f64, req_id: &str, t_ns: u64) {
        self.record_exemplar_tagged(v, req_id, t_ns, "");
    }

    /// [`Self::record_exemplar`] with an explicit replica tag, for
    /// processes that expect their histograms to be federated: the tag
    /// rides along with the exemplar so a cross-replica merge can order
    /// observations without comparing unrelated clocks.
    pub fn record_exemplar_tagged(&mut self, v: f64, req_id: &str, t_ns: u64, replica: &str) {
        self.record(v);
        if !v.is_finite() {
            return;
        }
        if let Some(idx) = self.bucket_index(v) {
            let candidate = Exemplar {
                req_id: req_id.to_string(),
                value: v,
                t_ns,
                replica: replica.to_string(),
            };
            match self.exemplars.get_mut(&idx) {
                Some(existing) => {
                    if existing.superseded_by(&candidate) {
                        *existing = candidate;
                    }
                }
                None => {
                    self.exemplars.insert(idx, candidate);
                }
            }
        }
    }

    /// All retained exemplars in bucket order (ascending value range).
    pub fn exemplars(&self) -> impl Iterator<Item = &Exemplar> {
        self.exemplars.values()
    }

    /// The exemplar attached to the bucket holding quantile `q`'s rank,
    /// falling back to the nearest bucket (by index distance, ties to
    /// the lower bucket) that retained one. `None` when the histogram
    /// is empty or no exemplar was ever recorded.
    ///
    /// This is the metrics-to-trace pivot: `quantile_exemplar(0.99)`
    /// names a request whose latency landed in (or next to) the p99
    /// bucket, and whose full trace the server can replay.
    #[must_use]
    pub fn quantile_exemplar(&self, q: f64) -> Option<&Exemplar> {
        if self.count == 0 || self.exemplars.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // Walk the count table to the bucket holding the rank (the
        // underflow ranks pivot on the lowest populated bucket).
        let mut target = None;
        let mut seen = self.underflow;
        if rank > self.underflow {
            for (&idx, &n) in &self.buckets {
                seen += n;
                if seen >= rank {
                    target = Some(idx);
                    break;
                }
            }
        }
        let target = target.or_else(|| self.buckets.keys().next().copied())?;
        if let Some(hit) = self.exemplars.get(&target) {
            return Some(hit);
        }
        self.exemplars
            .iter()
            .min_by_key(|(idx, _)| (idx.abs_diff(target), **idx))
            .map(|(_, e)| e)
    }

    /// Total recorded samples (including underflow).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Has nothing been recorded?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded sample, if any.
    #[must_use]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded sample, if any.
    #[must_use]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of all recorded samples, if any.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// The value at quantile `q ∈ [0, 1]` by the nearest-rank rule,
    /// reported as the midpoint of the bucket holding that rank and
    /// clamped to the exact `[min, max]` envelope. `None` when empty.
    ///
    /// The reported value differs from the true sample at that rank by
    /// at most [`Self::relative_error_bound`] in relative terms (for
    /// positive samples; underflow ranks report the exact minimum). The
    /// extreme ranks are exact: rank 1 is the recorded minimum and rank
    /// `count` the recorded maximum.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank, 1-based: the smallest k with k ≥ q·count.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        if rank <= self.underflow {
            return Some(self.min);
        }
        let mut seen = self.underflow;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Some(self.bucket_midpoint(idx).clamp(self.min, self.max));
            }
        }
        // Unreachable in practice (counts always sum to `count`), but
        // the max is the honest answer for a rank past every bucket.
        Some(self.max)
    }

    /// Median (p50).
    #[must_use]
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    #[must_use]
    pub fn p90(&self) -> Option<f64> {
        self.quantile(0.90)
    }

    /// 99th percentile.
    #[must_use]
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    #[must_use]
    pub fn p999(&self) -> Option<f64> {
        self.quantile(0.999)
    }

    /// Merges another histogram into this one by adding bucket counts.
    /// Lossless: the result is identical to having recorded both sample
    /// streams into one histogram (up to float-sum rounding in `mean`).
    ///
    /// # Errors
    ///
    /// Returns [`SentinelError::GridMismatch`] when the two histograms
    /// were built with different grids — their buckets do not align.
    pub fn merge(&mut self, other: &LogHistogram) -> Result<(), SentinelError> {
        if self.grid != other.grid {
            return Err(SentinelError::GridMismatch(self.grid, other.grid));
        }
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
        // Exemplars keep the newest observation per bucket, so merge
        // order cannot change which exemplar survives.
        for (&idx, theirs) in &other.exemplars {
            match self.exemplars.get_mut(&idx) {
                Some(ours) => {
                    if ours.superseded_by(theirs) {
                        *ours = theirs.clone();
                    }
                }
                None => {
                    self.exemplars.insert(idx, theirs.clone());
                }
            }
        }
        self.underflow += other.underflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }

    /// Number of non-empty buckets (memory footprint proxy).
    #[must_use]
    pub fn bucket_count(&self) -> usize {
        self.buckets.len() + usize::from(self.underflow > 0)
    }

    /// Decomposes the histogram into its full mergeable state — the
    /// payload `GET /v1/metrics/raw` ships and the federation layer
    /// reconstructs. Round-tripping through
    /// [`Self::from_raw_parts`] yields a histogram equal to this one.
    #[must_use]
    pub fn raw_parts(&self) -> RawHistogram {
        RawHistogram {
            grid: self.grid,
            underflow: self.underflow,
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self.buckets.iter().map(|(&idx, &n)| (idx, n)).collect(),
            exemplars: self
                .exemplars
                .iter()
                .map(|(&idx, e)| (idx, e.clone()))
                .collect(),
        }
    }

    /// Reconstructs a histogram from [`Self::raw_parts`] output (or a
    /// parsed wire payload claiming to be one).
    ///
    /// # Errors
    ///
    /// [`SentinelError::BadGrid`] for an invalid grid, and
    /// [`SentinelError::Schema`] when the parts are internally
    /// inconsistent: a zero or duplicated bucket count, a total `count`
    /// that is not `underflow` plus the bucket counts, an exemplar
    /// pointing at an empty bucket, or a `min`/`max` envelope that
    /// cannot have produced the counts.
    pub fn from_raw_parts(raw: RawHistogram) -> Result<Self, SentinelError> {
        let mut h = LogHistogram::with_grid(raw.grid)?;
        let inconsistent = |message: &str| SentinelError::Schema {
            line: 0,
            message: message.to_string(),
        };
        let mut bucket_total = raw.underflow;
        for &(idx, n) in &raw.buckets {
            if n == 0 {
                return Err(inconsistent("raw histogram bucket with a zero count"));
            }
            if h.buckets.insert(idx, n).is_some() {
                return Err(inconsistent("raw histogram repeats a bucket index"));
            }
            bucket_total = bucket_total.saturating_add(n);
        }
        if bucket_total != raw.count {
            return Err(inconsistent(
                "raw histogram count does not equal underflow plus bucket counts",
            ));
        }
        // An unordered (NaN) envelope is as inconsistent as an inverted one.
        let envelope = raw.min.partial_cmp(&raw.max);
        if raw.count > 0 && matches!(envelope, None | Some(std::cmp::Ordering::Greater)) {
            return Err(inconsistent("raw histogram min/max envelope is inverted"));
        }
        for (idx, e) in raw.exemplars {
            if !h.buckets.contains_key(&idx) {
                return Err(inconsistent("raw histogram exemplar points at an empty bucket"));
            }
            if h.exemplars.insert(idx, e).is_some() {
                return Err(inconsistent("raw histogram repeats an exemplar index"));
            }
        }
        h.underflow = raw.underflow;
        h.count = raw.count;
        h.sum = raw.sum;
        if raw.count > 0 {
            h.min = raw.min;
            h.max = raw.max;
        }
        Ok(h)
    }

    /// The bucket index of a positive finite value, or `None` for the
    /// underflow bucket.
    ///
    /// For normal `v = (1 + f) · 2^e` with `f ∈ [0, 1)`, the index is
    /// `e·grid + floor(f·grid)` — computed from the raw IEEE-754 bits,
    /// so boundary values land deterministically with no float rounding.
    /// Subnormals (< 2^-1022, far below any timing signal) share the
    /// underflow bucket rather than complicating the arithmetic.
    fn bucket_index(&self, v: f64) -> Option<i64> {
        if v <= 0.0 {
            return None;
        }
        let bits = v.to_bits();
        let raw_exp = (bits >> F64_MANTISSA_BITS) & 0x7ff;
        if raw_exp == 0 {
            return None; // subnormal
        }
        let e = raw_exp as i64 - F64_EXP_BIAS;
        let sub_shift = F64_MANTISSA_BITS - self.grid.trailing_zeros();
        let mantissa = bits & ((1u64 << F64_MANTISSA_BITS) - 1);
        let sub = (mantissa >> sub_shift) as i64;
        Some(e * i64::from(self.grid) + sub)
    }

    /// The midpoint of bucket `idx`: the bucket spans
    /// `[2^e·(1 + k/grid), 2^e·(1 + (k+1)/grid))`.
    fn bucket_midpoint(&self, idx: i64) -> f64 {
        let grid = i64::from(self.grid);
        let e = idx.div_euclid(grid);
        let k = idx.rem_euclid(grid);
        let octave = exp2_i64(e);
        let width = octave / f64::from(self.grid);
        octave + width * (k as f64 + 0.5)
    }
}

/// `2^e` for the exponent range reachable from normal `f64` values.
fn exp2_i64(e: i64) -> f64 {
    // i32 conversion is safe: bucket indices derive from f64 exponents,
    // which span only [-1022, 1023].
    f64::powi(2.0, i32::try_from(e).unwrap_or(if e > 0 { 1024 } else { -1075 }))
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_answers_none() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut h = LogHistogram::new();
        h.record(3.7e-4);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let got = h.quantile(q).expect("non-empty");
            assert!((got - 3.7e-4).abs() <= f64::EPSILON, "q={q} got {got}");
        }
    }

    #[test]
    fn grid_must_be_power_of_two_in_range() {
        assert!(LogHistogram::with_grid(64).is_ok());
        assert!(LogHistogram::with_grid(1).is_ok());
        assert!(LogHistogram::with_grid(0).is_err());
        assert!(LogHistogram::with_grid(48).is_err());
        assert!(LogHistogram::with_grid(8192).is_err());
    }

    #[test]
    fn quantiles_respect_the_relative_error_bound() {
        let mut h = LogHistogram::new();
        let samples: Vec<f64> = (1..=1000).map(|i| 1e-6 * i as f64).collect();
        for &s in &samples {
            h.record(s);
        }
        let bound = h.relative_error_bound();
        for (q, truth) in [(0.5, 500e-6), (0.9, 900e-6), (0.99, 990e-6)] {
            let got = h.quantile(q).expect("non-empty");
            let rel = (got - truth).abs() / truth;
            assert!(rel <= bound, "q={q}: got {got}, want {truth}, rel {rel} > {bound}");
        }
    }

    #[test]
    fn min_max_mean_are_exact() {
        let mut h = LogHistogram::new();
        for v in [2.0, 8.0, 4.0, 16.0] {
            h.record(v);
        }
        assert_eq!(h.min(), Some(2.0));
        assert_eq!(h.max(), Some(16.0));
        assert_eq!(h.mean(), Some(7.5));
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn underflow_and_nonfinite_handling() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert!(h.is_empty(), "non-finite samples are ignored");
        h.record(-1.0);
        h.record(0.0);
        h.record(5.0);
        assert_eq!(h.count(), 3);
        // The two underflow ranks report the exact minimum.
        assert_eq!(h.quantile(0.0), Some(-1.0));
        assert_eq!(h.min(), Some(-1.0));
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 1..=400u32 {
            let v = f64::from(i) * 1.3e-5;
            all.record(v);
            if i % 3 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        a.merge(&b).expect("same grid");
        assert_eq!(a.count(), all.count());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    fn merge_rejects_grid_mismatch() {
        let mut a = LogHistogram::with_grid(32).expect("valid grid");
        let b = LogHistogram::with_grid(64).expect("valid grid");
        assert!(matches!(a.merge(&b), Err(SentinelError::GridMismatch(32, 64))));
    }

    #[test]
    fn exemplars_keep_latest_per_bucket_and_fall_back_to_nearest() {
        let mut h = LogHistogram::new();
        h.record_exemplar(100.0, "r1", 10);
        h.record_exemplar(100.0, "r2", 20); // same bucket, newer: wins
        h.record_exemplar(100.0, "r0", 15); // same bucket, older: loses
        let hit = h.quantile_exemplar(0.5).expect("bucket has an exemplar");
        assert_eq!(hit.req_id, "r2");
        assert_eq!(hit.value, 100.0);
        assert_eq!(hit.t_ns, 20);
        // A plain record into a far bucket leaves that bucket without
        // an exemplar; queries there fall back to the nearest one.
        for _ in 0..1_000 {
            h.record(100_000.0);
        }
        let p99 = h.quantile_exemplar(0.99).expect("fallback exemplar");
        assert_eq!(p99.req_id, "r2");
        assert_eq!(h.exemplars().count(), 1);
    }

    #[test]
    fn exemplar_timestamp_tie_breaks_on_req_id_for_commutativity() {
        let mut a = LogHistogram::new();
        a.record_exemplar(5.0, "ra", 7);
        let mut b = LogHistogram::new();
        b.record_exemplar(5.0, "rb", 7);
        let mut ab = a.clone();
        ab.merge(&b).expect("same grid");
        let mut ba = b.clone();
        ba.merge(&a).expect("same grid");
        assert_eq!(
            ab.quantile_exemplar(0.5),
            ba.quantile_exemplar(0.5),
            "merge order must not decide the surviving exemplar"
        );
        assert_eq!(ab.quantile_exemplar(0.5).map(|e| e.req_id.as_str()), Some("rb"));
    }

    #[test]
    fn cross_replica_exemplar_merge_ignores_clock_bases() {
        // Replica "a" booted long after "b": its trace epoch is newer,
        // so its raw t_ns values are *smaller* for the same wall-clock
        // instant. Ordering on t_ns alone would let "b" shadow "a"
        // forever; the (replica, t_ns, req_id) key keeps the merge
        // commutative and clock-base-independent.
        let mut a = LogHistogram::new();
        a.record_exemplar_tagged(5.0, "ra", 10, "a");
        let mut b = LogHistogram::new();
        b.record_exemplar_tagged(5.0, "rb", 1_000_000_000, "b");
        let mut ab = a.clone();
        ab.merge(&b).expect("same grid");
        let mut ba = b.clone();
        ba.merge(&a).expect("same grid");
        assert_eq!(
            ab.quantile_exemplar(0.5),
            ba.quantile_exemplar(0.5),
            "cross-replica merge order must not decide the surviving exemplar"
        );
        let survivor = ab.quantile_exemplar(0.5).expect("exemplar survives");
        assert_eq!(survivor.replica, "b", "replica tag decides, not the raw clock");
        // Within one replica the newest observation still wins.
        let mut a2 = LogHistogram::new();
        a2.record_exemplar_tagged(5.0, "r-old", 10, "a");
        a2.record_exemplar_tagged(5.0, "r-new", 20, "a");
        assert_eq!(
            a2.quantile_exemplar(0.5).map(|e| e.req_id.as_str()),
            Some("r-new")
        );
    }

    #[test]
    fn raw_parts_round_trip_is_exact() {
        let mut h = LogHistogram::new();
        h.record(-2.0);
        for i in 1..=500u32 {
            h.record(f64::from(i) * 3.7e-5);
        }
        h.record_exemplar_tagged(1.25e-3, "r7", 42, "a");
        let back = LogHistogram::from_raw_parts(h.raw_parts()).expect("valid parts");
        assert_eq!(back, h, "round trip must be bit-for-bit");
        // Empty histograms round-trip too (min/max sentinels survive).
        let empty = LogHistogram::new();
        let back = LogHistogram::from_raw_parts(empty.raw_parts()).expect("valid parts");
        assert_eq!(back, empty);
    }

    #[test]
    fn from_raw_parts_rejects_inconsistent_state() {
        let mut h = LogHistogram::new();
        h.record_exemplar(4.0, "r1", 1);
        let good = h.raw_parts();
        assert!(matches!(
            LogHistogram::from_raw_parts(RawHistogram { grid: 48, ..good.clone() }),
            Err(SentinelError::BadGrid(48))
        ));
        let wrong_count = RawHistogram { count: 7, ..good.clone() };
        assert!(LogHistogram::from_raw_parts(wrong_count).is_err());
        let mut dup = good.clone();
        dup.buckets.extend_from_slice(&good.buckets);
        dup.count += good.buckets.iter().map(|&(_, n)| n).sum::<u64>();
        assert!(LogHistogram::from_raw_parts(dup).is_err());
        let mut stray = good.clone();
        stray.exemplars[0].0 += 1;
        assert!(LogHistogram::from_raw_parts(stray).is_err());
    }

    #[test]
    fn underflow_and_nonfinite_keep_no_exemplar() {
        let mut h = LogHistogram::new();
        h.record_exemplar(-1.0, "neg", 1);
        h.record_exemplar(f64::NAN, "nan", 2);
        assert_eq!(h.count(), 1, "NaN ignored, underflow counted");
        assert!(h.quantile_exemplar(0.5).is_none());
        assert!(h.exemplars().next().is_none());
    }

    #[test]
    fn bucket_count_stays_bounded() {
        let mut h = LogHistogram::new();
        for i in 0..100_000u32 {
            // Spread over ~3 octaves.
            h.record(1e-3 * (1.0 + f64::from(i % 7000) / 1000.0));
        }
        assert!(h.bucket_count() <= 64 * 4, "bucket count {}", h.bucket_count());
        assert_eq!(h.count(), 100_000);
    }
}
