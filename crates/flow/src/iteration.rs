//! The design-iteration (timing-closure) simulator.
//!
//! §2.4's causal story: design cost ∝ number of design iterations, and the
//! iteration count is set by how well early-stage predictions match
//! post-layout reality. This module simulates that loop directly:
//!
//! 1. the team commits to a target with some *tolerance* (slack) — tight
//!    for aggressive densities near `s_d0`, generous for relaxed ones;
//! 2. each iteration realizes a prediction error drawn from the
//!    [`PredictionModel`](crate::PredictionModel); if the error exceeds the
//!    tolerance the iteration fails and the team retries with better
//!    information (the error spread contracts by a learning factor);
//! 3. the project closes when an iteration lands inside the tolerance.

use nanocost_numeric::{McConfig, Sampler};
use nanocost_trace::{counter, provenance, span};
use nanocost_units::{DecompressionIndex, FeatureSize, UnitError};

use crate::predictor::PredictionModel;

/// Timing-closure loop simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosureSimulator {
    prediction: PredictionModel,
    /// Best-possible density: tolerance vanishes as `s_d → s_d0`.
    sd0: f64,
    /// Relative tolerance available to an unconstrained (very sparse)
    /// design.
    base_tolerance: f64,
    /// Per-failed-iteration contraction of the error spread (learning).
    learning_factor: f64,
    /// Iteration budget before a project is abandoned (counts as the
    /// budget itself — a censored observation).
    max_iterations: usize,
}

impl ClosureSimulator {
    /// Creates a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] unless `sd0 > 0`, `base_tolerance > 0`,
    /// `learning_factor ∈ (0, 1]`, and `max_iterations > 0`.
    pub fn new(
        prediction: PredictionModel,
        sd0: f64,
        base_tolerance: f64,
        learning_factor: f64,
        max_iterations: usize,
    ) -> Result<Self, UnitError> {
        for (name, v) in [("s_d0", sd0), ("base tolerance", base_tolerance)] {
            if !v.is_finite() {
                return Err(UnitError::NonFinite { quantity: name });
            }
            if v <= 0.0 {
                return Err(UnitError::NotPositive { quantity: name, value: v });
            }
        }
        if !learning_factor.is_finite() || learning_factor <= 0.0 || learning_factor > 1.0 {
            return Err(UnitError::OutOfRange {
                quantity: "learning factor",
                value: learning_factor,
                min: 0.0,
                max: 1.0,
            });
        }
        if max_iterations == 0 {
            return Err(UnitError::NotPositive {
                quantity: "iteration budget",
                value: 0.0,
            });
        }
        Ok(ClosureSimulator {
            prediction,
            sd0,
            base_tolerance,
            learning_factor,
            max_iterations,
        })
    }

    /// A default calibration: the default [`PredictionModel`],
    /// `s_d0 = 100`, 20 % base tolerance, 15 % learning per spin, and a
    /// 50-iteration budget.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid"
    )]
    pub fn nanometer_default() -> Self {
        ClosureSimulator::new(PredictionModel::nanometer_default(), 100.0, 0.20, 0.85, 50) // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            .expect("constants are valid")
    }

    /// The relative tolerance available at density `sd`:
    /// `base · (1 − s_d0/s_d)`, vanishing as the design approaches the
    /// best-possible density and saturating at `base` for sparse designs.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::OutOfRange`] if `sd <= s_d0`.
    pub fn tolerance(&self, sd: DecompressionIndex) -> Result<f64, UnitError> {
        let s = sd.squares();
        if s <= self.sd0 {
            return Err(UnitError::OutOfRange {
                quantity: "decompression index s_d",
                value: s,
                min: self.sd0,
                max: f64::INFINITY,
            });
        }
        Ok(self.base_tolerance * (1.0 - self.sd0 / s))
    }

    /// Simulates one project: the number of iterations until closure (or
    /// the budget, for abandoned projects).
    ///
    /// # Errors
    ///
    /// As [`ClosureSimulator::tolerance`].
    pub fn simulate_project(
        &self,
        sampler: &mut Sampler,
        lambda: FeatureSize,
        sd: DecompressionIndex,
        reuse_factor: f64,
    ) -> Result<usize, UnitError> {
        let tolerance = self.tolerance(sd)?;
        let mut spread_scale = 1.0;
        for iteration in 1..=self.max_iterations {
            let error = self.prediction.sample_error(sampler, lambda, reuse_factor) * spread_scale;
            if error.abs() <= tolerance {
                return Ok(iteration);
            }
            spread_scale *= self.learning_factor;
        }
        Ok(self.max_iterations)
    }

    /// Mean iterations-to-closure over a Monte-Carlo ensemble.
    ///
    /// # Errors
    ///
    /// As [`ClosureSimulator::tolerance`], or if `config.trials` is zero.
    pub fn mean_iterations(
        &self,
        config: McConfig,
        lambda: FeatureSize,
        sd: DecompressionIndex,
        reuse_factor: f64,
    ) -> Result<f64, UnitError> {
        // Surface the domain error before burning trials.
        self.tolerance(sd)?;
        let _span = span!(
            "flow.iteration.mean_iterations",
            sd = sd.squares(),
            lambda_um = lambda.microns(),
            reuse_factor = reuse_factor,
            trials = config.trials,
        );
        let mut sampler = config.sampler();
        let mut total = 0usize;
        let trials = config.trials.max(1);
        for _ in 0..trials {
            total += self.simulate_project(&mut sampler, lambda, sd, reuse_factor)?;
            counter!("flow.iteration.projects", 1);
        }
        let mean = total as f64 / trials as f64;
        provenance!(
            equation: Eq6,
            function: "nanocost_flow::iteration::ClosureSimulator::mean_iterations",
            inputs: [sd = sd.squares(), lambda_um = lambda.microns(), reuse_factor = reuse_factor],
            outputs: [mean_iterations = mean],
        );
        Ok(mean)
    }
}

impl Default for ClosureSimulator {
    fn default() -> Self {
        ClosureSimulator::nanometer_default()
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    fn sd(v: f64) -> DecompressionIndex {
        DecompressionIndex::new(v).unwrap()
    }

    fn mc(seed: u64) -> McConfig {
        McConfig { seed, trials: 400 }
    }

    #[test]
    fn tolerance_shape_matches_paper_story() {
        let sim = ClosureSimulator::nanometer_default();
        let tight = sim.tolerance(sd(105.0)).unwrap();
        let loose = sim.tolerance(sd(1000.0)).unwrap();
        assert!(tight < 0.02);
        assert!(loose > 0.15);
        assert!(sim.tolerance(sd(100.0)).is_err());
    }

    #[test]
    fn denser_targets_need_more_iterations() {
        let sim = ClosureSimulator::nanometer_default();
        let relaxed = sim.mean_iterations(mc(1), um(0.25), sd(500.0), 1.0).unwrap();
        let aggressive = sim.mean_iterations(mc(1), um(0.25), sd(115.0), 1.0).unwrap();
        assert!(
            aggressive > 1.5 * relaxed,
            "aggressive {aggressive} vs relaxed {relaxed}"
        );
    }

    #[test]
    fn smaller_nodes_need_more_iterations() {
        let sim = ClosureSimulator::nanometer_default();
        let old = sim.mean_iterations(mc(2), um(0.35), sd(250.0), 1.0).unwrap();
        let new = sim.mean_iterations(mc(2), um(0.07), sd(250.0), 1.0).unwrap();
        assert!(new > old, "new {new} vs old {old}");
    }

    #[test]
    fn regularity_cuts_iterations() {
        // §3.2's claim, quantified: high pattern reuse closes faster.
        let sim = ClosureSimulator::nanometer_default();
        let irregular = sim.mean_iterations(mc(3), um(0.1), sd(150.0), 1.0).unwrap();
        let regular = sim.mean_iterations(mc(3), um(0.1), sd(150.0), 500.0).unwrap();
        assert!(
            regular < irregular * 0.75,
            "regular {regular} vs irregular {irregular}"
        );
    }

    #[test]
    fn iterations_bounded_by_budget() {
        let sim = ClosureSimulator::new(
            PredictionModel::nanometer_default(),
            100.0,
            1e-6, // absurdly tight: nothing ever closes
            1.0,  // no learning
            7,
        )
        .unwrap();
        let mut s = Sampler::seeded(0);
        let n = sim.simulate_project(&mut s, um(0.25), sd(101.0), 1.0).unwrap();
        assert_eq!(n, 7);
    }

    #[test]
    fn determinism_per_seed() {
        let sim = ClosureSimulator::nanometer_default();
        let a = sim.mean_iterations(mc(9), um(0.18), sd(200.0), 4.0).unwrap();
        let b = sim.mean_iterations(mc(9), um(0.18), sd(200.0), 4.0).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn constructor_validation() {
        let p = PredictionModel::nanometer_default();
        assert!(ClosureSimulator::new(p, 0.0, 0.2, 0.9, 10).is_err());
        assert!(ClosureSimulator::new(p, 100.0, 0.0, 0.9, 10).is_err());
        assert!(ClosureSimulator::new(p, 100.0, 0.2, 0.0, 10).is_err());
        assert!(ClosureSimulator::new(p, 100.0, 0.2, 1.1, 10).is_err());
        assert!(ClosureSimulator::new(p, 100.0, 0.2, 0.9, 0).is_err());
    }
}
