//! Numeric primitives for the `nanocost` workspace.
//!
//! Everything the cost models need and nothing more: least-squares
//! [fits](linear_fit) (linear / power-law / exponential trends),
//! derivative-free [minimization](refine_min), descriptive
//! [statistics](summarize), seeded [Monte-Carlo sampling](Sampler) with
//! [bootstrap confidence intervals](bootstrap_mean_ci), and the
//! [`Series`]/[`Chart`] types that carry reproduced figures.
//!
//! # Example
//!
//! Fit Moore's-law style density growth and project it:
//!
//! ```
//! use nanocost_numeric::exponential_fit;
//!
//! let years = [1994.0, 1996.0, 1998.0, 2000.0];
//! let density = [1.0e6, 2.0e6, 4.0e6, 8.0e6]; // doubles every 2 years
//! let fit = exponential_fit(&years, &density)?;
//! assert!((fit.doubling_time() - 2.0).abs() < 1e-9);
//! # Ok::<(), nanocost_numeric::NumericError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bootstrap;
mod error;
mod mc;
mod optimize;
mod regression;
mod rng;
mod series;
mod stats;

pub use error::NumericError;
pub use bootstrap::{bootstrap_mean_ci, ConfidenceInterval};
pub use mc::{McConfig, Sampler};
pub use optimize::{refine_min, Minimum};
pub use regression::{
    exponential_fit, linear_fit, power_law_fit, ExponentialFit, LinearFit, PowerLawFit,
};
pub use rng::{Rng64, SampleRange, UniformSample};
pub use series::{Chart, Series};
pub use stats::{percentile, summarize, Summary};

#[cfg(test)]
mod proptests {
    //! Randomized property checks, driven by the in-tree [`Rng64`] stream so
    //! the suite runs fully offline (the external `proptest` crate is gone).

    use super::*;
    use crate::optimize::{golden_section_min, grid_min};

    const CASES: usize = 256;

    #[test]
    fn golden_section_lands_inside_bracket() {
        let mut r = Rng64::seed_from_u64(0xA11CE);
        for _ in 0..CASES {
            let lo = r.random_range(-100.0f64..0.0);
            let hi = lo + r.random_range(1.0f64..100.0);
            let vertex = r.random_range(-50.0f64..50.0);
            let m = golden_section_min(lo, hi, 1e-9, |x| (x - vertex).powi(2)).unwrap();
            assert!(m.x >= lo - 1e-9 && m.x <= hi + 1e-9);
            // The located minimum is the projection of the vertex onto the bracket.
            let expect = vertex.clamp(lo, hi);
            assert!((m.x - expect).abs() < 1e-4);
        }
    }

    #[test]
    fn grid_min_never_beats_true_minimum() {
        let mut r = Rng64::seed_from_u64(0xB0B);
        for _ in 0..CASES {
            let vertex = r.random_range(-5.0f64..5.0);
            let m = grid_min(-5.0, 5.0, 501, |x| (x - vertex).powi(2)).unwrap();
            assert!(m.value >= 0.0);
            assert!(m.value <= 0.02 * 0.02 + 1e-9); // grid step is 0.02
        }
    }

    #[test]
    fn linear_fit_is_exact_on_lines() {
        let mut r = Rng64::seed_from_u64(0xC0FFEE);
        for _ in 0..CASES {
            let a = r.random_range(-10.0f64..10.0);
            let b = r.random_range(-10.0f64..10.0);
            let xs: Vec<f64> = (0..6).map(|k| k as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|&x| a + b * x).collect();
            let fit = linear_fit(&xs, &ys).unwrap();
            assert!((fit.intercept - a).abs() < 1e-8);
            assert!((fit.slope - b).abs() < 1e-8);
        }
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        let mut r = Rng64::seed_from_u64(0xFADE);
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        for _ in 0..CASES {
            let p1 = r.random_range(0.0f64..100.0);
            let p2 = r.random_range(0.0f64..100.0);
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            let a = percentile(&xs, lo).unwrap();
            let b = percentile(&xs, hi).unwrap();
            assert!(a <= b + 1e-12);
        }
    }

    #[test]
    fn sampler_uniform_stays_in_range() {
        let mut r = Rng64::seed_from_u64(0x5EED);
        for _ in 0..64 {
            let seed = r.random_range(0u64..1000);
            let lo = r.random_range(-10.0f64..0.0);
            let span = r.random_range(0.1f64..10.0);
            let mut s = Sampler::seeded(seed);
            for _ in 0..32 {
                let v = s.uniform(lo, lo + span);
                assert!(v >= lo && v < lo + span);
            }
        }
    }
}
