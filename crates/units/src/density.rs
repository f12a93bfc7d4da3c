//! Design density quantities: the decompression index `s_d`, the design
//! density index `d_d`, and physical transistor density `T_d`.
//!
//! These are the paper's central design attributes (eq. 2):
//!
//! ```text
//! T_d = N_tr / A_ch = 1 / (λ² · s_d) = d_d / λ²
//! ```
//!
//! so `s_d` — the number of λ×λ squares needed to draw an average transistor
//! — cleanly separates *design* contribution to integration density from the
//! *process* contribution (λ).

use std::fmt;

use crate::area::Area;
use crate::count::TransistorCount;
use crate::error::{ensure_positive, UnitError};
use crate::length::FeatureSize;

/// The design decompression index `s_d`: λ²-squares per average transistor.
///
/// Smaller is denser. The paper's empirical range spans roughly 30 (SRAM
/// arrays) to 1000 (sparse ASICs); the "best possible" full-custom logic
/// value `s_d0` is taken to be ≈ 100.
///
/// ```
/// use nanocost_units::{DecompressionIndex, FeatureSize, TransistorCount, Area};
///
/// // Pentium II (P6) at 0.25µm: 7.5M transistors on 1.18 cm² (table A1 row 9 inputs).
/// let sd = DecompressionIndex::from_layout(
///     Area::from_cm2(1.18),
///     TransistorCount::from_millions(7.5),
///     FeatureSize::from_microns(0.25)?,
/// );
/// assert!((sd.squares() - 251.7).abs() < 0.5);
/// # Ok::<(), nanocost_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct DecompressionIndex(f64);

impl DecompressionIndex {
    /// Creates a decompression index from a number of λ² squares per
    /// transistor.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `squares` is non-finite or not strictly
    /// positive.
    pub fn new(squares: f64) -> Result<Self, UnitError> {
        ensure_positive("decompression index s_d", squares).map(DecompressionIndex)
    }

    /// Measures `s_d` from chip area, transistor count, and feature size
    /// (eq. 2 inverted: `s_d = A_ch / (N_tr · λ²)`).
    #[must_use]
    pub fn from_layout(area: Area, transistors: TransistorCount, lambda: FeatureSize) -> Self {
        let squares = area.cm2() / (transistors.count() * lambda.square().cm2());
        DecompressionIndex(squares)
    }

    /// The index value in λ² squares per transistor.
    #[must_use]
    pub fn squares(self) -> f64 {
        self.0
    }

    /// The inverse design density index `d_d = 1/s_d`.
    #[must_use]
    pub fn density_index(self) -> DesignDensity {
        DesignDensity(1.0 / self.0)
    }

    /// The physical transistor density `T_d = 1/(λ²·s_d)` at a given node
    /// (eq. 2).
    #[must_use]
    pub fn transistor_density(self, lambda: FeatureSize) -> TransistorDensity {
        TransistorDensity(1.0 / (lambda.square().cm2() * self.0))
    }

    /// The silicon area occupied by `transistors` drawn at this density on a
    /// `lambda` process: `A_ch = N_tr · s_d · λ²` (eq. 2 rearranged).
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the product overflows to infinity (finite
    /// but huge `N_tr` and `s_d`, e.g. `1e300` each).
    pub fn chip_area(
        self,
        transistors: TransistorCount,
        lambda: FeatureSize,
    ) -> Result<Area, UnitError> {
        Area::try_from_cm2(transistors.count() * self.0 * lambda.square().cm2())
    }
}

impl fmt::Display for DecompressionIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} λ²/tr", self.0)
    }
}

/// The design density index `d_d = 1/s_d`: transistors per λ² square.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct DesignDensity(f64);

impl DesignDensity {
    /// Creates a design density index.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `per_square` is non-finite or not strictly
    /// positive.
    pub fn new(per_square: f64) -> Result<Self, UnitError> {
        ensure_positive("design density d_d", per_square).map(DesignDensity)
    }

    /// Transistors per λ² square.
    #[must_use]
    pub fn per_square(self) -> f64 {
        self.0
    }

    /// The inverse decompression index `s_d = 1/d_d`.
    #[must_use]
    pub fn decompression_index(self) -> DecompressionIndex {
        DecompressionIndex(1.0 / self.0)
    }
}

impl fmt::Display for DesignDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} tr/λ²", self.0)
    }
}

/// Physical transistor density `T_d`, in transistors per square centimeter.
///
/// This is the quantity the industry traditionally reports; the paper's point
/// is that it conflates process progress (λ) with design quality (`s_d`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct TransistorDensity(f64);

impl TransistorDensity {
    /// Creates a density from transistors per square centimeter.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `per_cm2` is non-finite or not strictly
    /// positive.
    pub fn new(per_cm2: f64) -> Result<Self, UnitError> {
        ensure_positive("transistor density", per_cm2).map(TransistorDensity)
    }

    /// Derives density from a chip's transistor count and area,
    /// `T_d = N_tr / A_ch`.
    #[must_use]
    pub fn from_chip(transistors: TransistorCount, area: Area) -> Self {
        TransistorDensity(transistors.count() / area.cm2())
    }

    /// Transistors per square centimeter.
    #[must_use]
    pub fn per_cm2(self) -> f64 {
        self.0
    }

    /// Factors out the process contribution, recovering the design attribute
    /// `s_d = 1/(T_d·λ²)` (eq. 2). This is exactly the computation behind the
    /// paper's Figure 2.
    #[must_use]
    pub fn decompression_index(self, lambda: FeatureSize) -> DecompressionIndex {
        DecompressionIndex(1.0 / (self.0 * lambda.square().cm2()))
    }
}

impl fmt::Display for TransistorDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3e} tr/cm²", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    #[test]
    fn eq2_identity_sd_dd_inverse() {
        let sd = DecompressionIndex::new(250.0).unwrap();
        let dd = sd.density_index();
        assert!((dd.per_square() - 0.004).abs() < 1e-12);
        assert!((dd.decompression_index().squares() - 250.0).abs() < 1e-9);
    }

    #[test]
    fn eq2_density_round_trip_through_lambda() {
        // s_d -> T_d -> s_d is the identity for any λ.
        let sd = DecompressionIndex::new(150.0).unwrap();
        let lambda = um(0.18);
        let td = sd.transistor_density(lambda);
        let back = td.decompression_index(lambda);
        assert!((back.squares() - 150.0).abs() < 1e-6);
    }

    #[test]
    fn from_layout_matches_hand_computation() {
        // 1 cm², 1M transistors, 1µm process: λ² = 1e-8 cm², so
        // s_d = 1 / (1e6 · 1e-8) = 100.
        let sd = DecompressionIndex::from_layout(
            Area::from_cm2(1.0),
            TransistorCount::from_millions(1.0),
            um(1.0),
        );
        assert!((sd.squares() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn chip_area_inverts_from_layout() {
        let sd = DecompressionIndex::new(320.0).unwrap();
        let n = TransistorCount::from_millions(10.0);
        let lambda = um(0.13);
        let area = sd.chip_area(n, lambda).unwrap();
        let back = DecompressionIndex::from_layout(area, n, lambda);
        assert!((back.squares() - 320.0).abs() < 1e-6);
    }

    #[test]
    fn density_from_chip_matches_division() {
        let td = TransistorDensity::from_chip(
            TransistorCount::from_millions(7.5),
            Area::from_cm2(1.18),
        );
        assert!((td.per_cm2() - 7.5e6 / 1.18).abs() < 1.0);
    }

    #[test]
    fn table_a1_row2_pentium_p5_checks_out() {
        // Row 3 of Table A1: Pentium (P5), 0.8µm, 3.1M tr, 2.85 cm² logic
        // area, published s_d ≈ 143.6 (printed 146.4 uses slightly different
        // rounding; we verify the physics is in that range).
        let sd = DecompressionIndex::from_layout(
            Area::from_cm2(2.85),
            TransistorCount::from_millions(3.1),
            um(0.8),
        );
        assert!(sd.squares() > 130.0 && sd.squares() < 160.0, "{}", sd);
    }

    #[test]
    fn rejects_invalid_values() {
        assert!(DecompressionIndex::new(0.0).is_err());
        assert!(DesignDensity::new(-1.0).is_err());
        assert!(TransistorDensity::new(f64::NAN).is_err());
    }

    #[test]
    fn display_formats() {
        assert_eq!(
            DecompressionIndex::new(123.45).unwrap().to_string(),
            "123.5 λ²/tr"
        );
        assert_eq!(DesignDensity::new(0.01).unwrap().to_string(), "0.0100 tr/λ²");
    }
}
