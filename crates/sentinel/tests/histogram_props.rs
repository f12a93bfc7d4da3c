//! Property tests for [`nanocost_sentinel::LogHistogram`]: percentile
//! monotonicity, the advertised relative-error bound against exact
//! nearest-rank quantiles, and merge algebra (commutative, associative,
//! lossless). Randomness comes from the workspace's deterministic
//! xoshiro generator, so every run sees the same samples.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "test code: a failed unwrap or panic is a failed test, and output is diagnostics"
)]

use nanocost_numeric::Rng64;
use nanocost_sentinel::LogHistogram;

/// Log-uniform samples spanning nanoseconds to kiloseconds, the range a
/// bench capture actually covers.
fn log_uniform_samples(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let exponent = rng.next_f64() * 12.0 - 9.0; // 1e-9 ..= 1e3
            10f64.powf(exponent)
        })
        .collect()
}

/// Exact nearest-rank quantile on a sorted slice, the definition the
/// histogram approximates.
fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn histogram_of(samples: &[f64]) -> LogHistogram {
    let mut h = LogHistogram::new();
    for &s in samples {
        h.record(s);
    }
    h
}

#[test]
fn percentiles_are_monotone_in_q() {
    for seed in [1, 7, 42] {
        let h = histogram_of(&log_uniform_samples(seed, 5_000));
        let mut last = f64::NEG_INFINITY;
        for i in 0..=1000 {
            let q = f64::from(i) / 1000.0;
            let v = h.quantile(q).expect("non-empty histogram");
            assert!(
                v >= last,
                "seed {seed}: quantile({q}) = {v} < previous {last}"
            );
            last = v;
        }
    }
}

#[test]
fn quantiles_honor_the_relative_error_bound() {
    for seed in [3, 11, 99] {
        let mut samples = log_uniform_samples(seed, 4_000);
        let h = histogram_of(&samples);
        samples.sort_by(|a, b| a.total_cmp(b));
        let bound = h.relative_error_bound();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&samples, q);
            let approx = h.quantile(q).expect("non-empty histogram");
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= bound,
                "seed {seed} q {q}: approx {approx} vs exact {exact} (rel {rel:.3e} > bound {bound:.3e})"
            );
        }
    }
}

#[test]
fn min_max_and_count_are_exact() {
    let samples = log_uniform_samples(5, 2_000);
    let h = histogram_of(&samples);
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(h.count(), samples.len() as u64);
    assert_eq!(h.min(), Some(lo));
    assert_eq!(h.max(), Some(hi));
    assert_eq!(h.quantile(1.0), Some(hi), "p100 is the exact maximum");
    assert_eq!(h.quantile(0.0), Some(lo), "p0 is the exact minimum");
}

/// Structural equality up to float-summation order: the `sum` field is
/// an order-dependent float accumulation, so two merge orders agree on
/// it only to rounding; everything else must match exactly.
fn assert_same_distribution(a: &LogHistogram, b: &LogHistogram, what: &str) {
    assert_eq!(a.count(), b.count(), "{what}: counts differ");
    assert_eq!(a.min(), b.min(), "{what}: minima differ");
    assert_eq!(a.max(), b.max(), "{what}: maxima differ");
    for i in 0..=200 {
        let q = f64::from(i) / 200.0;
        assert_eq!(a.quantile(q), b.quantile(q), "{what}: quantile({q}) differs");
    }
    let (ma, mb) = (a.mean().expect("non-empty"), b.mean().expect("non-empty"));
    assert!(
        ((ma - mb) / ma).abs() < 1e-12,
        "{what}: means differ beyond rounding ({ma} vs {mb})"
    );
}

#[test]
fn merge_is_commutative_and_associative() {
    let a = histogram_of(&log_uniform_samples(21, 1_500));
    let b = histogram_of(&log_uniform_samples(22, 900));
    let c = histogram_of(&log_uniform_samples(23, 300));

    let mut ab = a.clone();
    ab.merge(&b).expect("same grid");
    let mut ba = b.clone();
    ba.merge(&a).expect("same grid");
    assert_eq!(ab, ba, "merge must be commutative");

    let mut ab_c = ab.clone();
    ab_c.merge(&c).expect("same grid");
    let mut bc = b.clone();
    bc.merge(&c).expect("same grid");
    let mut a_bc = a.clone();
    a_bc.merge(&bc).expect("same grid");
    assert_same_distribution(&ab_c, &a_bc, "merge must be associative");
}

#[test]
fn merge_equals_recording_the_concatenation() {
    let xs = log_uniform_samples(31, 800);
    let ys = log_uniform_samples(32, 700);
    let mut merged = histogram_of(&xs);
    merged.merge(&histogram_of(&ys)).expect("same grid");
    let mut both = xs;
    both.extend_from_slice(&ys);
    assert_same_distribution(&merged, &histogram_of(&both), "merge must be lossless");
}

/// Records `samples` with exemplars, tagging sample `i` as request
/// `r<i>` observed at `t_ns = base + i`.
fn histogram_with_exemplars(samples: &[f64], base: u64) -> LogHistogram {
    let mut h = LogHistogram::new();
    for (i, &s) in samples.iter().enumerate() {
        h.record_exemplar(s, &format!("r{i}"), base + i as u64);
    }
    h
}

#[test]
fn exemplars_never_alter_quantile_math() {
    for seed in [13, 77, 1234] {
        let samples = log_uniform_samples(seed, 3_000);
        let plain = histogram_of(&samples);
        let tagged = histogram_with_exemplars(&samples, 0);
        assert_same_distribution(&plain, &tagged, "exemplar recording");
        for i in 0..=500 {
            let q = f64::from(i) / 500.0;
            assert_eq!(
                plain.quantile(q),
                tagged.quantile(q),
                "seed {seed}: quantile({q}) shifted by exemplar bookkeeping"
            );
        }
    }
}

#[test]
fn merge_keeps_the_newest_exemplar_per_bucket() {
    let samples = log_uniform_samples(55, 1_000);
    // The same value stream recorded twice with disjoint timestamp
    // ranges: after a merge every surviving exemplar must come from the
    // newer recording, whichever side of the merge it sat on.
    let older = histogram_with_exemplars(&samples, 0);
    let newer = histogram_with_exemplars(&samples, 1_000_000);
    for (a, b, what) in [
        (older.clone(), newer.clone(), "older.merge(newer)"),
        (newer.clone(), older.clone(), "newer.merge(older)"),
    ] {
        let mut merged = a;
        merged.merge(&b).expect("same grid");
        for e in merged.exemplars() {
            assert!(
                e.t_ns >= 1_000_000,
                "{what}: bucket kept a stale exemplar ({} @ {})",
                e.req_id,
                e.t_ns
            );
        }
        assert_eq!(
            merged.exemplars().count(),
            newer.exemplars().count(),
            "{what}: exemplar coverage changed"
        );
    }
}

#[test]
fn merged_exemplars_are_order_independent() {
    // Interleaved timestamps across two shards: the merged exemplar
    // table must be identical regardless of merge direction.
    let xs = log_uniform_samples(91, 600);
    let mut a = LogHistogram::new();
    let mut b = LogHistogram::new();
    for (i, &v) in xs.iter().enumerate() {
        if i % 2 == 0 {
            a.record_exemplar(v, &format!("a{i}"), i as u64);
        } else {
            b.record_exemplar(v, &format!("b{i}"), i as u64);
        }
    }
    let mut ab = a.clone();
    ab.merge(&b).expect("same grid");
    let mut ba = b.clone();
    ba.merge(&a).expect("same grid");
    let lhs: Vec<_> = ab.exemplars().cloned().collect();
    let rhs: Vec<_> = ba.exemplars().cloned().collect();
    assert_eq!(lhs, rhs, "merge direction changed the exemplar table");
    // And the quantile pivot resolves to the same request either way.
    for q in [0.5, 0.9, 0.99] {
        assert_eq!(
            ab.quantile_exemplar(q).map(|e| e.req_id.clone()),
            ba.quantile_exemplar(q).map(|e| e.req_id.clone()),
            "q {q}"
        );
    }
}

#[test]
fn quantile_exemplar_lands_near_the_quantile() {
    let samples = log_uniform_samples(17, 5_000);
    let h = histogram_with_exemplars(&samples, 0);
    for q in [0.5, 0.9, 0.99, 0.999] {
        let value = h.quantile(q).expect("non-empty");
        let e = h.quantile_exemplar(q).expect("dense stream: every bucket tagged");
        // A dense log-uniform stream tags every populated bucket, so
        // the exemplar must come from the rank's own bucket: its exact
        // value lies within one bucket width of the reported quantile.
        let rel = (e.value - value).abs() / value;
        assert!(
            rel <= 2.0 * h.relative_error_bound(),
            "q {q}: exemplar {} ({}) is {rel:.3e} away from quantile {value}",
            e.req_id,
            e.value
        );
    }
}

#[test]
fn empty_and_single_sample_edges() {
    let empty = LogHistogram::new();
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.quantile(0.5), None);
    assert_eq!(empty.p999(), None);

    let mut one = LogHistogram::new();
    one.record(2.5e-3);
    for q in [0.0, 0.5, 0.999, 1.0] {
        assert_eq!(
            one.quantile(q),
            Some(2.5e-3),
            "every quantile of a single sample is that sample (q {q})"
        );
    }
}
