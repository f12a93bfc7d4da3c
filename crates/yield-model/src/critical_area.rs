//! Critical-area abstraction: how much of a die is actually at risk from a
//! defect, and how that depends on the design's density.
//!
//! The paper notes (§2.5) that yield is a function of *design density* as
//! well as area: a dense layout (small `s_d`) packs more failure
//! opportunities per cm², while a sparse one wastes area but is locally
//! robust. This module models that coupling with the standard
//! sensitivity-fraction approach: `A_crit = A_ch · f(s_d)`.

use nanocost_units::{Area, DecompressionIndex, UnitError};

/// Maps a die's drawn area and design density to its defect-critical area.
///
/// The sensitivity fraction interpolates between `sparse_fraction` (large
/// `s_d`, routing-dominated layouts with generous spacing) and
/// `dense_fraction` (λ-rule-limited custom layout at the reference density
/// `reference_sd`):
///
/// ```text
/// f(s_d) = sparse + (dense − sparse) · (reference_sd / s_d)^shape
/// ```
///
/// clamped to `[sparse_fraction, dense_fraction]`.
///
/// ```
/// use nanocost_units::{Area, DecompressionIndex};
/// use nanocost_yield::CriticalAreaModel;
///
/// let model = CriticalAreaModel::default();
/// let die = Area::from_cm2(1.0);
/// let dense = model.critical_area(die, DecompressionIndex::new(100.0)?);
/// let sparse = model.critical_area(die, DecompressionIndex::new(800.0)?);
/// assert!(dense.cm2() > sparse.cm2());
/// # Ok::<(), nanocost_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalAreaModel {
    dense_fraction: f64,
    sparse_fraction: f64,
    reference_sd: f64,
    shape: f64,
}

impl CriticalAreaModel {
    /// Creates a critical-area model — the density dependence of yield
    /// the paper notes in §2.5.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] unless
    /// `0 < sparse_fraction <= dense_fraction <= 1`, `reference_sd > 0`,
    /// and `shape > 0`.
    pub fn new(
        dense_fraction: f64,
        sparse_fraction: f64,
        reference_sd: f64,
        shape: f64,
    ) -> Result<Self, UnitError> {
        for (name, v) in [
            ("dense critical fraction", dense_fraction),
            ("sparse critical fraction", sparse_fraction),
            ("reference s_d", reference_sd),
            ("shape exponent", shape),
        ] {
            if !v.is_finite() {
                return Err(UnitError::NonFinite { quantity: name });
            }
            if v <= 0.0 {
                return Err(UnitError::NotPositive { quantity: name, value: v });
            }
        }
        if dense_fraction > 1.0 {
            return Err(UnitError::OutOfRange {
                quantity: "dense critical fraction",
                value: dense_fraction,
                min: 0.0,
                max: 1.0,
            });
        }
        if sparse_fraction > dense_fraction {
            return Err(UnitError::OutOfRange {
                quantity: "sparse critical fraction",
                value: sparse_fraction,
                min: 0.0,
                max: dense_fraction,
            });
        }
        Ok(CriticalAreaModel {
            dense_fraction,
            sparse_fraction,
            reference_sd,
            shape,
        })
    }

    /// The sensitivity fraction `f(s_d)` in `[sparse, dense]`, mapping
    /// eq. 2's decompression index to the fraction of the die at defect
    /// risk.
    #[must_use]
    pub fn sensitivity_fraction(&self, sd: DecompressionIndex) -> f64 {
        let raw = self.sparse_fraction
            + (self.dense_fraction - self.sparse_fraction)
                * (self.reference_sd / sd.squares()).powf(self.shape);
        raw.clamp(self.sparse_fraction, self.dense_fraction)
    }

    /// The defect-critical area of a die: `A_ch · f(s_d)`, with `A_ch`
    /// the eq.-2 chip area.
    #[must_use]
    pub fn critical_area(&self, die_area: Area, sd: DecompressionIndex) -> Area {
        die_area * self.sensitivity_fraction(sd)
    }
}

impl Default for CriticalAreaModel {
    /// Defaults calibrated to the paper's framing: fully dense custom layout
    /// (`s_d = 100`, the paper's `s_d0`) has ~60 % critical area; very
    /// sparse ASICs bottom out at ~25 %.
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: default parameters are valid"
    )]
    fn default() -> Self {
        CriticalAreaModel::new(0.6, 0.25, 100.0, 1.0).expect("default parameters are valid") // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;

    fn sd(v: f64) -> DecompressionIndex {
        DecompressionIndex::new(v).unwrap()
    }

    #[test]
    fn fraction_caps_at_dense_limit_below_reference() {
        let m = CriticalAreaModel::default();
        // At or denser than the reference the fraction saturates.
        assert!((m.sensitivity_fraction(sd(100.0)) - 0.6).abs() < 1e-12);
        assert!((m.sensitivity_fraction(sd(30.0)) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn fraction_decreases_toward_sparse_floor() {
        let m = CriticalAreaModel::default();
        let f200 = m.sensitivity_fraction(sd(200.0));
        let f800 = m.sensitivity_fraction(sd(800.0));
        assert!(f200 > f800);
        assert!(f800 >= 0.25);
        // Huge s_d approaches (but never crosses) the floor.
        let f_huge = m.sensitivity_fraction(sd(1.0e6));
        assert!((f_huge - 0.25).abs() < 1e-3);
    }

    #[test]
    fn critical_area_scales_with_die_area() {
        let m = CriticalAreaModel::default();
        let a1 = m.critical_area(Area::from_cm2(1.0), sd(400.0));
        let a2 = m.critical_area(Area::from_cm2(2.0), sd(400.0));
        assert!((a2.cm2() / a1.cm2() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(CriticalAreaModel::new(1.5, 0.2, 100.0, 1.0).is_err()); // >1
        assert!(CriticalAreaModel::new(0.5, 0.6, 100.0, 1.0).is_err()); // sparse>dense
        assert!(CriticalAreaModel::new(0.5, 0.2, 0.0, 1.0).is_err());
        assert!(CriticalAreaModel::new(0.5, 0.2, 100.0, -1.0).is_err());
        assert!(CriticalAreaModel::new(f64::NAN, 0.2, 100.0, 1.0).is_err());
    }

    #[test]
    fn equal_fractions_make_density_irrelevant() {
        let m = CriticalAreaModel::new(0.4, 0.4, 100.0, 1.0).unwrap();
        assert_eq!(m.sensitivity_fraction(sd(50.0)), 0.4);
        assert_eq!(m.sensitivity_fraction(sd(5000.0)), 0.4);
    }
}
