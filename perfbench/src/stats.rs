//! Order statistics over timing samples.

/// Samples that must lie above a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Sorts in place (NaN-free input) and returns the slice.
pub fn sort(v: &mut [f64]) -> &[f64] {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of sorted samples (0 when empty).
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of sorted samples.
#[must_use]
pub fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5)
}

/// Index of the reported p99: the nearest-rank p99, lowered when needed
/// so at least [`MIN_TAIL_SAMPLES`] samples lie above it. With fewer
/// than 1,100 samples this is therefore a lower percentile.
#[must_use]
pub fn p99_index(n: usize) -> usize {
    let nearest = ((0.99 * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1;
    nearest.min(n.saturating_sub(MIN_TAIL_SAMPLES + 1))
}

/// The reported p99 of sorted samples (see [`p99_index`]).
#[must_use]
pub fn p99(sorted: &[f64]) -> f64 {
    sorted.get(p99_index(sorted.len())).copied().unwrap_or(0.0)
}

/// Arithmetic mean (0 when empty).
#[must_use]
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.iter().sum::<f64>() / v.len() as f64
}

/// Shortest window a measured phase is cut into, seconds.
pub const WINDOW_S: f64 = 1.0;

/// Fewest completions a window for medians and rates is sized for.
pub const WINDOW_MIN_SAMPLES: usize = 100;

/// Fewest completions a window for the p99 is sized for, so that a
/// window's p99 is its nearest-rank p99 with at least
/// [`MIN_TAIL_SAMPLES`] above it.
pub const TAIL_WINDOW_MIN_SAMPLES: usize = 1_100;

/// A measured phase of `span` seconds cut into equal windows of at least
/// [`WINDOW_S`], each expected to hold at least a given number of
/// completions (one window when the phase holds fewer). A timing metric
/// is the median over the windows of its per-window value: outside load
/// that slows fewer than half the windows does not move it, while a
/// program that is slower in most windows, steadily or in recurring
/// bursts, does.
#[derive(Debug, Clone, Copy)]
pub struct Windows {
    width: f64,
    count: usize,
}

impl Windows {
    /// Windows of `[0, span)` for a phase of `completions` units of work,
    /// each expected to hold at least `min_samples` of them.
    #[must_use]
    pub fn cut(completions: usize, span: f64, min_samples: usize) -> Windows {
        let count = (completions / min_samples)
            .min((span / WINDOW_S) as usize)
            .max(1);
        Windows {
            width: span / count as f64,
            count,
        }
    }

    /// The window that work completing at `t` falls in.
    #[must_use]
    pub fn slot(&self, t: f64) -> usize {
        ((t.max(0.0) / self.width) as usize).min(self.count - 1)
    }

    /// Number of windows.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Length of one window, seconds.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_hold_enough_samples() {
        let w = Windows::cut(10_000, 25.0, TAIL_WINDOW_MIN_SAMPLES);
        assert_eq!(w.count(), 9);
        assert_eq!(w.slot(0.0), 0);
        assert_eq!(w.slot(24.999), 8);
        assert_eq!(w.slot(30.0), 8);
        // A full tail window reports its true nearest-rank p99.
        assert_eq!(p99_index(TAIL_WINDOW_MIN_SAMPLES), 1_088);
        // Too few completions for two windows: the whole phase is one.
        assert_eq!(
            Windows::cut(1_600, 25.0, TAIL_WINDOW_MIN_SAMPLES).count(),
            1
        );
        assert_eq!(Windows::cut(1_600, 25.0, WINDOW_MIN_SAMPLES).count(), 16);
        // A fast phase is still cut into windows of at least WINDOW_S.
        assert_eq!(Windows::cut(1_000_000, 4.5, WINDOW_MIN_SAMPLES).count(), 4);
    }

    #[test]
    fn p99_leaves_ten_samples_above() {
        for n in [11, 50, 999, 1_000, 1_099, 1_100, 1_101, 5_000, 100_000] {
            let idx = p99_index(n);
            assert!(n - 1 - idx >= MIN_TAIL_SAMPLES, "n={n} idx={idx}");
            let mut v: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let sorted = sort(&mut v);
            let above = sorted.iter().filter(|&&x| x > p99(sorted)).count();
            assert!(above >= MIN_TAIL_SAMPLES, "n={n}: {above} above");
        }
        // Large samples report the true nearest-rank p99.
        assert_eq!(p99_index(100_000), 98_999);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
