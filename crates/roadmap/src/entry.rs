//! Roadmap entries: one technology generation per record.

use nanocost_trace::provenance;
use nanocost_units::{
    Area, DecompressionIndex, FeatureSize, TransistorCount, TransistorDensity, UnitError,
};

/// One generation of the ITRS-1999-style roadmap for cost-performance
/// microprocessors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoadmapEntry {
    /// Production year.
    pub year: u32,
    /// Minimum feature size in nanometers.
    pub feature_nm: f64,
    /// Transistors per chip, in millions (cost-performance MPU).
    pub transistors_millions: f64,
    /// Chip size at production, in mm².
    pub chip_mm2: f64,
    /// Production wafer diameter in millimeters.
    pub wafer_mm: f64,
}

impl RoadmapEntry {
    /// The feature size as a typed quantity.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the stored value is invalid (cannot happen
    /// for the embedded dataset, which is test-verified).
    pub fn feature_size(&self) -> Result<FeatureSize, UnitError> {
        FeatureSize::from_microns(self.feature_nm / 1000.0)
    }

    /// The chip area as a typed quantity.
    #[must_use]
    pub fn chip_area(&self) -> Area {
        Area::from_mm2(self.chip_mm2)
    }

    /// The transistor count as a typed quantity.
    #[must_use]
    pub fn transistors(&self) -> TransistorCount {
        TransistorCount::from_millions(self.transistors_millions)
    }

    /// The transistor density `T_d = N_tr / A_ch` this generation implies.
    #[must_use]
    pub fn transistor_density(&self) -> TransistorDensity {
        TransistorDensity::from_chip(self.transistors(), self.chip_area())
    }

    /// The decompression index `s_d` implied by this generation's density
    /// and feature size — the paper's Figure-2 computation
    /// (`s_d = 1/(T_d·λ²)`, eq. 2).
    #[must_use]
    pub fn implied_sd(&self) -> DecompressionIndex {
        #[expect(
            clippy::expect_used,
            reason = "documented invariant: dataset is validated"
        )]
        let sd = self
            .transistor_density()
            .decompression_index(self.feature_size().expect("dataset is validated"));
        provenance!(
            equation: Eq2,
            function: "nanocost_roadmap::entry::RoadmapEntry::implied_sd",
            inputs: [
                lambda_nm = self.feature_nm,
                n_tr = self.transistors().count(),
                a_ch_cm2 = self.chip_area().cm2(),
            ],
            outputs: [sd = sd.squares()],
        );
        sd
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry() -> RoadmapEntry {
        RoadmapEntry {
            year: 1999,
            feature_nm: 180.0,
            transistors_millions: 21.0,
            chip_mm2: 170.0,
            wafer_mm: 200.0,
        }
    }

    #[test]
    fn typed_accessors() {
        let e = entry();
        assert!((e.feature_size().unwrap().microns() - 0.18).abs() < 1e-12);
        assert!((e.chip_area().cm2() - 1.7).abs() < 1e-12);
        assert!((e.transistors().millions() - 21.0).abs() < 1e-12);
    }

    #[test]
    fn implied_sd_matches_hand_computation() {
        // 1.7 cm² / (21e6 · (0.18e-4 cm)²) ≈ 249.9
        let sd = entry().implied_sd().squares();
        assert!((sd - 249.9).abs() < 0.5, "{sd}");
    }

    #[test]
    fn density_is_transistors_over_area() {
        let e = entry();
        let d = e.transistor_density().per_cm2();
        assert!((d - 21.0e6 / 1.7).abs() < 1.0);
    }
}
