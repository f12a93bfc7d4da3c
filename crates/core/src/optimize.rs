//! Locating the cost-optimal design density `s_d*`.
//!
//! §3.1's prescription: neither the smallest die (minimal `s_d`) nor the
//! maximal yield should be the objective — minimize `C_tr` itself. These
//! routines search the density axis of eq. 4 and eq. 7 for the optimum and
//! map how it moves with volume and yield.

use nanocost_numeric::{refine_min, NumericError};
use nanocost_trace::{event, span};
use nanocost_units::{
    DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError, WaferCount, Yield,
};

use crate::generalized::{DesignPoint, GeneralizedCostModel};
use crate::total::TotalCostModel;

/// A located cost optimum on the density axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityOptimum {
    /// The optimal decompression index `s_d*`.
    pub sd: f64,
    /// The per-transistor cost at the optimum.
    pub cost: Dollars,
}

/// Errors from optimum search.
#[derive(Debug, Clone, PartialEq)]
pub enum OptimizeError {
    /// The cost model rejected a probe point (domain violation).
    Model(UnitError),
    /// The numeric minimizer failed.
    Numeric(NumericError),
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptimizeError::Model(e) => write!(f, "cost model error: {e}"),
            OptimizeError::Numeric(e) => write!(f, "optimizer error: {e}"),
        }
    }
}

impl std::error::Error for OptimizeError {}

impl From<UnitError> for OptimizeError {
    fn from(e: UnitError) -> Self {
        OptimizeError::Model(e)
    }
}

impl From<NumericError> for OptimizeError {
    fn from(e: NumericError) -> Self {
        OptimizeError::Numeric(e)
    }
}

const GRID_SAMPLES: usize = 256;
const TOL: f64 = 1e-4;

/// Finds the `s_d` minimizing the eq.-4 total cost on `[sd_lo, sd_hi]`.
///
/// # Errors
///
/// Returns [`OptimizeError`] if the bracket dips into eq. 6's forbidden
/// region (`sd_lo` at or below `s_d0`) or the bracket is degenerate.
#[allow(
    clippy::too_many_arguments,
    reason = "eq. 4 genuinely has this many knobs"
)]
pub fn optimal_sd_total(
    model: &TotalCostModel,
    lambda: FeatureSize,
    transistors: TransistorCount,
    volume: WaferCount,
    fab_yield: Yield,
    mask_cost: Dollars,
    sd_lo: f64,
    sd_hi: f64,
) -> Result<DensityOptimum, OptimizeError> {
    let _span = span!(
        "core.optimize.sd_total",
        sd_lo = sd_lo,
        sd_hi = sd_hi,
        volume = volume.as_f64(),
        fab_yield = fab_yield.value(),
    );
    // Probe the lower edge first so domain violations surface as model
    // errors, not NaNs inside the minimizer.
    model.transistor_cost(
        lambda,
        DecompressionIndex::new(sd_lo)?,
        transistors,
        volume,
        fab_yield,
        mask_cost,
    )?;
    let objective = |s: f64| {
        DecompressionIndex::new(s).map_or(f64::INFINITY, |sd| {
            model
                .transistor_cost(lambda, sd, transistors, volume, fab_yield, mask_cost)
                .map_or(f64::INFINITY, |b| b.total().amount())
        })
    };
    let m = refine_min(sd_lo, sd_hi, GRID_SAMPLES, TOL, objective)?;
    event!("core.optimize.optimum", sd = m.x, cost = m.value);
    Ok(DensityOptimum {
        sd: m.x,
        cost: Dollars::new(m.value),
    })
}

/// Finds the `s_d` minimizing the eq.-7 generalized cost on
/// `[sd_lo, sd_hi]`.
///
/// # Errors
///
/// As [`optimal_sd_total`].
pub fn optimal_sd_generalized(
    model: &GeneralizedCostModel,
    lambda: FeatureSize,
    transistors: TransistorCount,
    volume: WaferCount,
    sd_lo: f64,
    sd_hi: f64,
) -> Result<DensityOptimum, OptimizeError> {
    let _span = span!(
        "core.optimize.sd_generalized",
        sd_lo = sd_lo,
        sd_hi = sd_hi,
        volume = volume.as_f64(),
    );
    model.evaluate(DesignPoint {
        lambda,
        sd: DecompressionIndex::new(sd_lo)?,
        transistors,
        volume,
    })?;
    let objective = |s: f64| {
        DecompressionIndex::new(s).map_or(f64::INFINITY, |sd| {
            model
                .evaluate(DesignPoint {
                    lambda,
                    sd,
                    transistors,
                    volume,
                })
                .map_or(f64::INFINITY, |r| r.transistor_cost.amount())
        })
    };
    let m = refine_min(sd_lo, sd_hi, GRID_SAMPLES, TOL, objective)?;
    event!("core.optimize.optimum", sd = m.x, cost = m.value);
    Ok(DensityOptimum {
        sd: m.x,
        cost: Dollars::new(m.value),
    })
}

/// One cell of the volume × yield optimum surface.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimumCell {
    /// Production volume.
    pub volume: u64,
    /// Assumed yield.
    pub fab_yield: f64,
    /// The located optimum.
    pub optimum: DensityOptimum,
}

/// Maps the eq.-4 optimum over a volume × yield grid (the EXT-VOL
/// experiment: how the Figure-4 optimum migrates).
///
/// # Errors
///
/// As [`optimal_sd_total`]; also if a yield value is invalid.
#[allow(
    clippy::too_many_arguments,
    reason = "eq. 4's knobs plus the volume and yield axes"
)]
pub fn optimum_surface(
    model: &TotalCostModel,
    lambda: FeatureSize,
    transistors: TransistorCount,
    mask_cost: Dollars,
    volumes: &[u64],
    yields: &[f64],
    sd_lo: f64,
    sd_hi: f64,
) -> Result<Vec<OptimumCell>, OptimizeError> {
    let _span = span!(
        "core.optimize.surface",
        volumes = volumes.len(),
        yields = yields.len(),
    );
    let mut out = Vec::with_capacity(volumes.len() * yields.len());
    for &v in volumes {
        for &y in yields {
            let optimum = optimal_sd_total(
                model,
                lambda,
                transistors,
                WaferCount::new(v)?,
                Yield::new(y)?,
                mask_cost,
                sd_lo,
                sd_hi,
            )?;
            out.push(OptimumCell {
                volume: v,
                fab_yield: y,
                optimum,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    fn setup() -> (TotalCostModel, TransistorCount, Dollars) {
        (
            TotalCostModel::paper_figure4(),
            TransistorCount::from_millions(10.0),
            Dollars::new(200_000.0),
        )
    }

    #[test]
    fn figure4a_optimum_is_interior() {
        let (m, n, mask) = setup();
        let opt = optimal_sd_total(
            &m,
            um(0.18),
            n,
            WaferCount::new(5_000).unwrap(),
            Yield::new(0.4).unwrap(),
            mask,
            105.0,
            2_000.0,
        )
        .unwrap();
        assert!(
            opt.sd > 150.0 && opt.sd < 1_000.0,
            "low-volume optimum s_d* = {}",
            opt.sd
        );
    }

    #[test]
    fn optimum_moves_denser_with_volume_and_yield() {
        // The paper's Figure-4 conclusion: the 4(b) scenario (50k wafers,
        // Y = 0.9) optimizes at a substantially denser layout than 4(a)
        // (5k wafers, Y = 0.4).
        let (m, n, mask) = setup();
        let a = optimal_sd_total(
            &m,
            um(0.18),
            n,
            WaferCount::new(5_000).unwrap(),
            Yield::new(0.4).unwrap(),
            mask,
            105.0,
            2_000.0,
        )
        .unwrap();
        let b = optimal_sd_total(
            &m,
            um(0.18),
            n,
            WaferCount::new(50_000).unwrap(),
            Yield::new(0.9).unwrap(),
            mask,
            105.0,
            2_000.0,
        )
        .unwrap();
        assert!(
            b.sd < a.sd * 0.75,
            "4(b) optimum {} should be well below 4(a) optimum {}",
            b.sd,
            a.sd
        );
        assert!(b.cost.amount() < a.cost.amount());
    }

    #[test]
    fn surface_is_monotone_in_volume() {
        let (m, n, mask) = setup();
        let cells = optimum_surface(
            &m,
            um(0.18),
            n,
            mask,
            &[2_000, 20_000, 200_000],
            &[0.6],
            105.0,
            2_000.0,
        )
        .unwrap();
        assert_eq!(cells.len(), 3);
        assert!(cells[0].optimum.sd > cells[1].optimum.sd);
        assert!(cells[1].optimum.sd > cells[2].optimum.sd);
    }

    #[test]
    fn generalized_optimum_also_interior_and_volume_sensitive() {
        let g = GeneralizedCostModel::nanometer_default();
        let n = TransistorCount::from_millions(10.0);
        let low = optimal_sd_generalized(
            &g,
            um(0.18),
            n,
            WaferCount::new(5_000).unwrap(),
            105.0,
            2_000.0,
        )
        .unwrap();
        let high = optimal_sd_generalized(
            &g,
            um(0.18),
            n,
            WaferCount::new(100_000).unwrap(),
            105.0,
            2_000.0,
        )
        .unwrap();
        assert!(low.sd > 105.0 && low.sd < 2_000.0);
        assert!(high.sd < low.sd);
    }

    #[test]
    fn bracket_in_forbidden_region_is_model_error() {
        let (m, n, mask) = setup();
        let err = optimal_sd_total(
            &m,
            um(0.18),
            n,
            WaferCount::new(5_000).unwrap(),
            Yield::new(0.4).unwrap(),
            mask,
            50.0,
            2_000.0,
        )
        .unwrap_err();
        assert!(matches!(err, OptimizeError::Model(_)));
    }

    #[test]
    fn the_eq4_provenance_counts_every_probe_of_the_search() {
        use nanocost_trace::{with_collector, Equation, RecordKind};
        // The search's probe count lives in its Eq.4 provenance: one
        // record per objective probe (283 here) plus the lower-edge
        // check, each under the search's own span.
        let (m, n, mask) = setup();
        let (records, found) = with_collector(|| {
            optimal_sd_total(
                &m,
                um(0.18),
                n,
                WaferCount::new(5_000).unwrap(),
                Yield::new(0.4).unwrap(),
                mask,
                105.0,
                2_000.0,
            )
        });
        found.unwrap();
        let search = records
            .iter()
            .find_map(|r| match r.kind {
                RecordKind::SpanEnter { span, name: "core.optimize.sd_total", .. } => Some(span),
                _ => None,
            })
            .expect("search span");
        let eq4: Vec<Option<u64>> = records
            .iter()
            .filter_map(|r| match r.kind {
                RecordKind::Provenance { span, equation: Equation::Eq4, .. } => Some(span),
                _ => None,
            })
            .collect();
        assert_eq!(eq4.len(), 283 + 1);
        assert!(eq4.iter().all(|&span| span == Some(search)), "{eq4:?}");
    }
}
