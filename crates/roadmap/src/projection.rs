//! Trend fitting and projection over roadmap data.

use nanocost_numeric::{exponential_fit, ExponentialFit, NumericError};
use nanocost_trace::provenance;

use crate::entry::RoadmapEntry;

/// Fitted exponential trends over a roadmap: transistor growth, feature
/// shrink, and density growth, each against calendar year.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadmapTrends {
    /// Transistors-per-chip trend (growth factor > 1).
    pub transistors: ExponentialFit,
    /// Feature-size trend (growth factor < 1: shrinking).
    pub feature: ExponentialFit,
    /// Transistor-density trend (growth factor > 1).
    pub density: ExponentialFit,
}

impl RoadmapTrends {
    /// Fits all three trends.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError`] for fewer than two entries.
    pub fn fit(roadmap: &[RoadmapEntry]) -> Result<Self, NumericError> {
        let years: Vec<f64> = roadmap.iter().map(|e| f64::from(e.year)).collect();
        let tr: Vec<f64> = roadmap.iter().map(|e| e.transistors_millions).collect();
        let nm: Vec<f64> = roadmap.iter().map(|e| e.feature_nm).collect();
        let dens: Vec<f64> = roadmap
            .iter()
            .map(|e| e.transistor_density().per_cm2())
            .collect();
        Ok(RoadmapTrends {
            transistors: exponential_fit(&years, &tr)?,
            feature: exponential_fit(&years, &nm)?,
            density: exponential_fit(&years, &dens)?,
        })
    }

    /// Projects a synthetic roadmap entry for an arbitrary year from the
    /// fitted trends (chip area follows from transistors / density; the
    /// wafer diameter is carried from the nearest tabulated entry).
    #[must_use]
    pub fn project(&self, roadmap: &[RoadmapEntry], year: u32) -> RoadmapEntry {
        let y = f64::from(year);
        let transistors_millions = self.transistors.eval(y);
        let density = self.density.eval(y);
        let chip_cm2 = transistors_millions * 1.0e6 / density;
        let wafer_mm = roadmap
            .iter()
            .min_by_key(|e| e.year.abs_diff(year))
            .map_or(300.0, |e| e.wafer_mm);
        let entry = RoadmapEntry {
            year,
            feature_nm: self.feature.eval(y),
            transistors_millions,
            chip_mm2: chip_cm2 * 100.0,
            wafer_mm,
        };
        provenance!(
            equation: Eq2,
            function: "nanocost_roadmap::projection::RoadmapTrends::project",
            inputs: [year = year, density_per_cm2 = density],
            outputs: [
                feature_nm = entry.feature_nm,
                transistors_millions = entry.transistors_millions,
                chip_mm2 = entry.chip_mm2,
            ],
        );
        entry
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;
    use crate::itrs1999::itrs_1999;

    #[test]
    fn transistor_trend_doubles_every_two_years_or_so() {
        let trends = RoadmapTrends::fit(&itrs_1999()).unwrap();
        let dt = trends.transistors.doubling_time();
        assert!((1.5..3.0).contains(&dt), "doubling time {dt}");
        assert!(trends.transistors.r_squared > 0.98);
    }

    #[test]
    fn feature_trend_shrinks() {
        let trends = RoadmapTrends::fit(&itrs_1999()).unwrap();
        assert!(trends.feature.growth_factor < 1.0);
        // Roughly 0.7x every two-ish years: annual factor ~0.87-0.92.
        assert!((0.85..0.95).contains(&trends.feature.growth_factor));
    }

    #[test]
    fn projection_interpolates_sensibly() {
        let roadmap = itrs_1999();
        let trends = RoadmapTrends::fit(&roadmap).unwrap();
        let p2003 = trends.project(&roadmap, 2003);
        // Between the 2002 (130nm, 76M) and 2005 (100nm, 200M) entries.
        assert!(p2003.feature_nm < 135.0 && p2003.feature_nm > 95.0);
        assert!(p2003.transistors_millions > 70.0 && p2003.transistors_millions < 210.0);
        assert!(p2003.chip_mm2 > 100.0 && p2003.chip_mm2 < 400.0);
    }

    #[test]
    fn projection_beyond_horizon_keeps_growing() {
        let roadmap = itrs_1999();
        let trends = RoadmapTrends::fit(&roadmap).unwrap();
        let p2016 = trends.project(&roadmap, 2016);
        assert!(p2016.transistors_millions > 3600.0);
        assert!(p2016.feature_nm < 35.0);
        assert_eq!(p2016.wafer_mm, 450.0); // nearest entry is 2014
    }
}
