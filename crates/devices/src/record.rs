//! Device records: one published industrial design per record.

use nanocost_trace::provenance;
use nanocost_units::{
    Area, DecompressionIndex, FeatureSize, TransistorCount, UnitError,
};

use crate::taxonomy::DeviceClass;

/// One row of the paper's Table A1: a published IC design with its die
/// size, feature size, transistor counts (split into memory and logic where
/// the source reported them), per-region areas, and the `s_d` values the
/// paper printed.
///
/// The `published_*` fields carry the paper's printed numbers verbatim;
/// [`DeviceRecord::computed_sd_logic`] and friends recompute them from the
/// raw columns so the dataset is self-checking.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRecord {
    /// Row number in Table A1 (1-based).
    pub id: u32,
    /// Total die size in cm².
    pub die_cm2: f64,
    /// Minimum feature size in µm.
    pub feature_um: f64,
    /// Total transistors, in millions.
    pub total_mtr: f64,
    /// Memory transistors in millions, where reported.
    pub mem_mtr: Option<f64>,
    /// Logic transistors in millions, where reported.
    pub logic_mtr: Option<f64>,
    /// Memory area in cm², where reported.
    pub mem_area_cm2: Option<f64>,
    /// Logic area in cm², where reported.
    pub logic_area_cm2: Option<f64>,
    /// The paper's printed memory `s_d`, where present.
    pub published_sd_mem: Option<f64>,
    /// The paper's printed logic `s_d`, where present.
    pub published_sd_logic: Option<f64>,
    /// Device taxonomy class.
    pub class: DeviceClass,
    /// The paper's "type of device" label, verbatim.
    pub label: &'static str,
}

impl DeviceRecord {
    /// The feature size as a typed quantity.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the stored value is invalid (cannot happen
    /// for the embedded dataset, which is test-verified).
    pub fn feature_size(&self) -> Result<FeatureSize, UnitError> {
        FeatureSize::from_microns(self.feature_um)
    }

    /// The total die area as a typed quantity.
    #[must_use]
    pub fn die_area(&self) -> Area {
        Area::from_cm2(self.die_cm2)
    }

    /// The total transistor count as a typed quantity.
    #[must_use]
    pub fn transistors(&self) -> TransistorCount {
        TransistorCount::from_millions(self.total_mtr)
    }

    /// Recomputes the logic-region `s_d` from the raw columns
    /// (`logic area / (logic transistors · λ²)`), if the split is reported.
    #[must_use]
    pub fn computed_sd_logic(&self) -> Option<DecompressionIndex> {
        let (area, mtr) = (self.logic_area_cm2?, self.logic_mtr?);
        let lambda = FeatureSize::from_microns(self.feature_um).ok()?;
        Some(DecompressionIndex::from_layout(
            Area::from_cm2(area),
            TransistorCount::from_millions(mtr),
            lambda,
        ))
    }

    /// Recomputes the memory-region `s_d`, if the split is reported.
    #[must_use]
    pub fn computed_sd_mem(&self) -> Option<DecompressionIndex> {
        let (area, mtr) = (self.mem_area_cm2?, self.mem_mtr?);
        let lambda = FeatureSize::from_microns(self.feature_um).ok()?;
        Some(DecompressionIndex::from_layout(
            Area::from_cm2(area),
            TransistorCount::from_millions(mtr),
            lambda,
        ))
    }

    /// The whole-die `s_d` from total area and total transistors — the
    /// value plotted in the paper's Figure 1 for devices without a
    /// mem/logic split.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: dataset is validated"
    )]
    pub fn computed_sd_total(&self) -> DecompressionIndex {
        DecompressionIndex::from_layout(
            self.die_area(),
            self.transistors(),
            FeatureSize::from_microns(self.feature_um).expect("dataset is validated"),
        )
    }

    /// The best available logic `s_d`: the split-region value when
    /// reported, otherwise the whole-die value. This is the Figure-1
    /// quantity, i.e. eq. 2 solved for `s_d = A / (N_tr · λ²)`.
    #[must_use]
    pub fn effective_sd_logic(&self) -> DecompressionIndex {
        let sd = self
            .computed_sd_logic()
            .unwrap_or_else(|| self.computed_sd_total());
        provenance!(
            equation: Eq2,
            function: "nanocost_devices::record::DeviceRecord::effective_sd_logic",
            inputs: [
                lambda_um = self.feature_um,
                n_tr = self.transistors().count(),
                a_ch_cm2 = self.die_area().cm2(),
            ],
            outputs: [sd = sd.squares()],
        );
        sd
    }

    /// True if the record reports a memory/logic split.
    #[must_use]
    pub fn has_split(&self) -> bool {
        self.mem_mtr.is_some() && self.logic_mtr.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(
        clippy::approx_constant,
        reason = "6.28 is the P6's published logic-transistor count in millions, not τ"
    )]
    fn sample() -> DeviceRecord {
        DeviceRecord {
            id: 1,
            die_cm2: 1.18,
            feature_um: 0.25,
            total_mtr: 7.5,
            mem_mtr: Some(1.23),
            logic_mtr: Some(6.28),
            mem_area_cm2: Some(0.04),
            logic_area_cm2: Some(1.14),
            published_sd_mem: Some(52.08),
            published_sd_logic: Some(290.0),
            class: DeviceClass::Cpu,
            label: "Pent II (P6)",
        }
    }

    #[test]
    fn typed_accessors_match_raw_fields() {
        let r = sample();
        assert!((r.feature_size().unwrap().microns() - 0.25).abs() < 1e-12);
        assert!((r.die_area().cm2() - 1.18).abs() < 1e-12);
        assert!((r.transistors().millions() - 7.5).abs() < 1e-12);
        assert!(r.has_split());
    }

    #[test]
    fn computed_sd_uses_region_columns() {
        let r = sample();
        // logic: 1.14 / (6.28e6 · (0.25e-4)²) = 1.14 / 3.925e-3 ≈ 290.4
        let sd = r.computed_sd_logic().unwrap().squares();
        assert!((sd - 290.4).abs() < 1.0, "{sd}");
        let sd_mem = r.computed_sd_mem().unwrap().squares();
        assert!((sd_mem - 52.0).abs() < 1.5, "{sd_mem}");
    }

    #[test]
    fn effective_sd_falls_back_to_total() {
        let mut r = sample();
        r.mem_mtr = None;
        r.logic_mtr = None;
        r.mem_area_cm2 = None;
        r.logic_area_cm2 = None;
        assert!(r.computed_sd_logic().is_none());
        let total = r.computed_sd_total().squares();
        assert!((r.effective_sd_logic().squares() - total).abs() < 1e-12);
        // 1.18/(7.5e6·6.25e-10) ≈ 251.7
        assert!((total - 251.7).abs() < 0.5);
    }
}
