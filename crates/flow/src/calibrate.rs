//! Calibration: recover eq.-6-shaped parameters from simulated data.
//!
//! The paper's (A0, p1, p2) came from "a limited set of real life
//! design/cost data" that is not public. Our substitution: run the
//! iteration simulator over a density sweep, convert iteration counts to
//! dollars with the team model, and fit `cost = c · (s_d − s_d0)^(−p2)` —
//! demonstrating that the simulated design process *has* the functional
//! form eq. 6 asserts.

use nanocost_numeric::{power_law_fit, McConfig, NumericError, PowerLawFit};
use nanocost_units::{DecompressionIndex, FeatureSize, TransistorCount, UnitError};

use crate::iteration::ClosureSimulator;
use crate::team::DesignTeamModel;

/// One calibration observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationPoint {
    /// Target density.
    pub sd: f64,
    /// Mean iterations to closure.
    pub mean_iterations: f64,
    /// Mean project cost in dollars.
    pub mean_cost: f64,
}

/// The recovered eq.-6 shape.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationResult {
    /// The fitted `cost ≈ c·(s_d − s_d0)^(−p2)` exponent, reported
    /// positively (so comparable with the paper's `p2 = 1.2`).
    pub p2: f64,
    /// The fitted multiplier (the paper's `A0·N_tr^p1` lump).
    pub coefficient: f64,
    /// R² of the log-log fit.
    pub r_squared: f64,
    /// The observations the fit used.
    pub points: Vec<CalibrationPoint>,
}

/// Errors from calibration: either the simulation domain or the fit can
/// fail.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibrateError {
    /// A simulated density was at or below `s_d0`.
    Domain(UnitError),
    /// The regression failed (degenerate sweep).
    Fit(NumericError),
}

impl std::fmt::Display for CalibrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CalibrateError::Domain(e) => write!(f, "calibration domain error: {e}"),
            CalibrateError::Fit(e) => write!(f, "calibration fit error: {e}"),
        }
    }
}

impl std::error::Error for CalibrateError {}

impl From<UnitError> for CalibrateError {
    fn from(e: UnitError) -> Self {
        CalibrateError::Domain(e)
    }
}

impl From<NumericError> for CalibrateError {
    fn from(e: NumericError) -> Self {
        CalibrateError::Fit(e)
    }
}

/// Sweeps the simulator over `sd_values` and fits the eq.-6 shape.
///
/// `sd0` must match the simulator's own divergence point for the fit to be
/// meaningful.
///
/// # Errors
///
/// Returns [`CalibrateError`] if any density is at or below `sd0`, or the
/// sweep has fewer than two points.
#[allow(
    clippy::too_many_arguments,
    reason = "a calibration sweep has this many knobs"
)]
pub fn calibrate_effort_shape(
    simulator: &ClosureSimulator,
    team: &DesignTeamModel,
    config: McConfig,
    lambda: FeatureSize,
    transistors: TransistorCount,
    reuse_factor: f64,
    sd0: f64,
    sd_values: &[f64],
) -> Result<CalibrationResult, CalibrateError> {
    let mut points = Vec::with_capacity(sd_values.len());
    for (k, &sd) in sd_values.iter().enumerate() {
        let density = DecompressionIndex::new(sd)?;
        let cfg = McConfig {
            seed: config.seed.wrapping_add(k as u64),
            trials: config.trials,
        };
        let iters = simulator.mean_iterations(cfg, lambda, density, reuse_factor)?;
        let cost = team.project_cost(transistors, iters);
        points.push(CalibrationPoint {
            sd,
            mean_iterations: iters,
            mean_cost: cost.amount(),
        });
    }
    let margins: Vec<f64> = points.iter().map(|p| p.sd - sd0).collect();
    let costs: Vec<f64> = points.iter().map(|p| p.mean_cost).collect();
    let fit: PowerLawFit = power_law_fit(&margins, &costs)?;
    Ok(CalibrationResult {
        p2: -fit.exponent,
        coefficient: fit.coefficient,
        r_squared: fit.r_squared,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_design_process_has_eq6_shape() {
        let sim = ClosureSimulator::nanometer_default();
        let team = DesignTeamModel::nanometer_default();
        let result = calibrate_effort_shape(
            &sim,
            &team,
            McConfig { seed: 42, trials: 600 },
            FeatureSize::from_microns(0.18).unwrap(),
            TransistorCount::from_millions(10.0),
            1.0,
            100.0,
            &[110.0, 130.0, 160.0, 200.0, 260.0, 340.0, 450.0, 600.0],
        )
        .unwrap();
        // Cost falls with margin: a decisively positive recovered p2 in the
        // broad vicinity of the paper's 1.2.
        assert!(
            (0.1..2.5).contains(&result.p2),
            "recovered p2 = {}",
            result.p2
        );
        assert!(result.r_squared > 0.7, "R² = {}", result.r_squared);
        // Monotone: tighter density, higher cost.
        for w in result.points.windows(2) {
            assert!(w[0].mean_cost >= w[1].mean_cost * 0.95);
        }
    }

    #[test]
    fn regular_designs_calibrate_cheaper() {
        let sim = ClosureSimulator::nanometer_default();
        let team = DesignTeamModel::nanometer_default();
        let run = |reuse: f64| {
            calibrate_effort_shape(
                &sim,
                &team,
                McConfig { seed: 7, trials: 300 },
                FeatureSize::from_microns(0.13).unwrap(),
                TransistorCount::from_millions(10.0),
                reuse,
                100.0,
                &[120.0, 180.0, 300.0, 500.0],
            )
            .unwrap()
        };
        let irregular = run(1.0);
        let regular = run(200.0);
        let total = |r: &CalibrationResult| -> f64 { r.points.iter().map(|p| p.mean_cost).sum() };
        assert!(total(&regular) < total(&irregular));
    }

    #[test]
    fn domain_error_surfaces() {
        let sim = ClosureSimulator::nanometer_default();
        let team = DesignTeamModel::nanometer_default();
        let err = calibrate_effort_shape(
            &sim,
            &team,
            McConfig { seed: 1, trials: 10 },
            FeatureSize::from_microns(0.25).unwrap(),
            TransistorCount::from_millions(1.0),
            1.0,
            100.0,
            &[90.0, 200.0],
        )
        .unwrap_err();
        assert!(matches!(err, CalibrateError::Domain(_)));
    }
}
