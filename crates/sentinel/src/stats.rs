//! Rank-based two-sample testing for benchmark regression detection.
//!
//! Benchmark timings are heavy-tailed and contaminated by scheduler
//! noise, so comparing means (or even medians alone) misclassifies
//! runs. The Mann–Whitney U test asks the distribution-free question
//! that matters for drift detection: *do samples from the candidate run
//! systematically rank above samples from the parent run?* The
//! `bench_diff` gate combines this p-value with a relative-median noise
//! threshold, mirroring how Maly's Figures 1–4 separate a real `s_d`
//! trend from scatter.

/// Result of a two-sided Mann–Whitney U test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MannWhitney {
    /// The U statistic of the first sample.
    pub u: f64,
    /// Normal-approximation z score (tie-corrected, continuity-corrected).
    pub z: f64,
    /// Two-sided p-value under the normal approximation.
    pub p: f64,
}

/// Minimum per-side sample count for the normal approximation to be
/// honest; below this the test reports no verdict.
pub const MIN_SAMPLES: usize = 5;

/// Two-sided Mann–Whitney U test of `a` versus `b` with mid-rank tie
/// handling, tie-corrected variance, and continuity correction.
///
/// Returns `None` when either side has fewer than [`MIN_SAMPLES`]
/// samples or a non-finite value: no shift between such samples counts
/// as significant. When every observation is tied the variance
/// collapses; the test reports `z = 0`, `p = 1`.
#[must_use]
pub fn mann_whitney(a: &[f64], b: &[f64]) -> Option<MannWhitney> {
    if a.len() < MIN_SAMPLES || b.len() < MIN_SAMPLES {
        return None;
    }
    if a.iter().chain(b).any(|v| !v.is_finite()) {
        return None;
    }
    let n1 = a.len() as f64;
    let n2 = b.len() as f64;
    let n = n1 + n2;

    // Pool, remembering group membership, and sort by value.
    let mut pooled: Vec<(f64, bool)> = a
        .iter()
        .map(|&v| (v, true))
        .chain(b.iter().map(|&v| (v, false)))
        .collect();
    pooled.sort_by(|x, y| x.0.total_cmp(&y.0));

    // Mid-rank assignment with tie bookkeeping (Σ t³ − t per tie group).
    let mut rank_sum_a = 0.0;
    let mut tie_term = 0.0;
    let mut i = 0usize;
    while i < pooled.len() {
        let mut j = i + 1;
        while j < pooled.len() && pooled[j].0.total_cmp(&pooled[i].0).is_eq() {
            j += 1;
        }
        let t = (j - i) as f64;
        // Ranks are 1-based: positions i..j share the average rank.
        let mid_rank = (i + 1 + j) as f64 / 2.0;
        let in_a = pooled[i..j].iter().filter(|(_, g)| *g).count() as f64;
        rank_sum_a += mid_rank * in_a;
        tie_term += t * t * t - t;
        i = j;
    }

    let u = rank_sum_a - n1 * (n1 + 1.0) / 2.0;
    let mean_u = n1 * n2 / 2.0;
    let variance = n1 * n2 / 12.0 * ((n + 1.0) - tie_term / (n * (n - 1.0)));
    if variance <= 0.0 {
        return Some(MannWhitney { u, z: 0.0, p: 1.0 });
    }
    // Continuity correction shrinks |U - mean| by one half toward zero.
    let delta = u - mean_u;
    let corrected = (delta.abs() - 0.5).max(0.0);
    let z = delta.signum() * corrected / variance.sqrt();
    let p = (2.0 * normal_sf(z.abs())).min(1.0);
    Some(MannWhitney { u, z, p })
}

/// Standard-normal survival function `P(Z > x)` for `x ≥ 0`, via the
/// Abramowitz & Stegun 7.1.26 erf approximation (|error| < 1.5e-7,
/// ample for a significance gate).
#[must_use]
pub fn normal_sf(x: f64) -> f64 {
    let z = x / std::f64::consts::SQRT_2;
    0.5 * erfc_as(z)
}

/// Complementary error function via Abramowitz & Stegun 7.1.26.
fn erfc_as(x: f64) -> f64 {
    // Coefficients from Abramowitz & Stegun, eq. 7.1.26.
    const P: f64 = 0.327_591_1;
    const A1: f64 = 0.254_829_592;
    const A2: f64 = -0.284_496_736;
    const A3: f64 = 1.421_413_741;
    const A4: f64 = -1.453_152_027;
    const A5: f64 = 1.061_405_429;
    let t = 1.0 / (1.0 + P * x.abs());
    let poly = t * (A1 + t * (A2 + t * (A3 + t * (A4 + t * A5))));
    let tail = poly * (-x * x).exp();
    if x >= 0.0 {
        tail
    } else {
        2.0 - tail
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_samples_are_not_significant() {
        let a: Vec<f64> = (0..20).map(|i| 1.0 + 0.01 * f64::from(i)).collect();
        let r = mann_whitney(&a, &a).expect("enough samples");
        assert!(r.p > 0.9, "p = {}", r.p);
        assert!(r.z.abs() < 1e-9, "z = {}", r.z);
    }

    #[test]
    fn clearly_shifted_samples_are_significant() {
        let a: Vec<f64> = (0..30).map(|i| 1.0 + 0.001 * f64::from(i)).collect();
        let b: Vec<f64> = a.iter().map(|v| v * 2.0).collect();
        let r = mann_whitney(&a, &b).expect("enough samples");
        assert!(r.p < 1e-6, "p = {}", r.p);
        assert!(r.z < 0.0, "a ranks below b: z = {}", r.z);
    }

    #[test]
    fn too_few_samples_yield_no_verdict() {
        assert!(mann_whitney(&[1.0, 2.0], &[3.0, 4.0]).is_none());
        let a = [1.0; 10];
        assert!(mann_whitney(&a, &[f64::NAN; 10]).is_none());
    }

    #[test]
    fn all_tied_collapses_to_p_one() {
        let a = [2.5; 12];
        let r = mann_whitney(&a, &a).expect("enough samples");
        assert!((r.p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normal_sf_matches_known_points() {
        // Φ̄(0) = 0.5, Φ̄(1.96) ≈ 0.025, Φ̄(3) ≈ 1.35e-3.
        assert!((normal_sf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_sf(1.96) - 0.025).abs() < 5e-4);
        assert!((normal_sf(3.0) - 0.00135).abs() < 5e-5);
    }

    #[test]
    fn symmetry_of_the_two_sided_p() {
        let a: Vec<f64> = (0..15).map(|i| 1.0 + 0.01 * f64::from(i)).collect();
        let b: Vec<f64> = a.iter().map(|v| v + 0.5).collect();
        let ab = mann_whitney(&a, &b).expect("enough samples");
        let ba = mann_whitney(&b, &a).expect("enough samples");
        assert!((ab.p - ba.p).abs() < 1e-12);
        assert!((ab.z + ba.z).abs() < 1e-12);
    }
}
