//! Lithography interaction neighborhoods.
//!
//! §3.2 of the paper argues that the region of mutual interaction between
//! IC elements "will grow in relative size" as λ shrinks: optical proximity
//! effects reach a fixed *physical* radius (set by the illumination
//! wavelength and the resist/etch stack), so measured in λ units the
//! relevant neighborhood expands — and with it the cost of accurate
//! simulation and the error of early-stage prediction. This module
//! quantifies that radius; the design-flow simulator consumes it.

use nanocost_units::{FeatureSize, UnitError};

/// Optical-proximity interaction model.
///
/// The interaction radius is a physical length (microns) roughly equal to a
/// few illumination wavelengths; expressed in λ units it is
/// `radius_um / λ`, which grows without bound as λ shrinks below the
/// wavelength.
///
/// ```
/// use nanocost_units::FeatureSize;
/// use nanocost_fab::ProximityModel;
///
/// let p = ProximityModel::default();
/// let at_350 = p.neighborhood_lambdas(FeatureSize::from_microns(0.35)?);
/// let at_070 = p.neighborhood_lambdas(FeatureSize::from_microns(0.07)?);
/// assert!(at_070 > 4.0 * at_350);
/// # Ok::<(), nanocost_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProximityModel {
    /// Physical interaction radius in microns (a few λ_light).
    radius_um: f64,
}

impl ProximityModel {
    /// Creates a proximity model with the given physical interaction radius
    /// in microns.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the radius is not strictly positive and
    /// finite.
    pub fn new(radius_um: f64) -> Result<Self, UnitError> {
        if !radius_um.is_finite() {
            return Err(UnitError::NonFinite {
                quantity: "interaction radius",
            });
        }
        if radius_um <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "interaction radius",
                value: radius_um,
            });
        }
        Ok(ProximityModel { radius_um })
    }

    /// The physical interaction radius in microns.
    #[must_use]
    pub fn radius_um(self) -> f64 {
        self.radius_um
    }

    /// The interaction radius measured in λ units at the given node.
    #[must_use]
    pub fn neighborhood_lambdas(self, lambda: FeatureSize) -> f64 {
        self.radius_um / lambda.microns()
    }

    /// The number of λ² *cells* inside the interaction disc — the size of
    /// the context a simulator must consider per pattern. Grows as `1/λ²`.
    #[must_use]
    pub fn neighborhood_cells(self, lambda: FeatureSize) -> f64 {
        let r = self.neighborhood_lambdas(lambda);
        std::f64::consts::PI * r * r
    }

    /// A dimensionless simulation-complexity factor relative to a reference
    /// node: how much more context each pattern needs than it did at
    /// `reference`.
    #[must_use]
    pub fn complexity_factor(self, reference: FeatureSize, target: FeatureSize) -> f64 {
        self.neighborhood_cells(target) / self.neighborhood_cells(reference)
    }
}

impl Default for ProximityModel {
    /// 1.0 µm physical radius — a few 248/193 nm wavelengths, the regime the
    /// paper describes.
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constant is valid"
    )]
    fn default() -> Self {
        ProximityModel::new(1.0).expect("constant is valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    #[test]
    fn neighborhood_in_lambdas_grows_as_lambda_shrinks() {
        let p = ProximityModel::default();
        assert!((p.neighborhood_lambdas(um(1.0)) - 1.0).abs() < 1e-12);
        assert!((p.neighborhood_lambdas(um(0.1)) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cells_grow_quadratically() {
        let p = ProximityModel::default();
        let c1 = p.neighborhood_cells(um(0.2));
        let c2 = p.neighborhood_cells(um(0.1));
        assert!((c2 / c1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn complexity_factor_is_relative() {
        let p = ProximityModel::default();
        let f = p.complexity_factor(um(0.25), um(0.125));
        assert!((f - 4.0).abs() < 1e-9);
        assert!((p.complexity_factor(um(0.25), um(0.25)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn validation() {
        assert!(ProximityModel::new(0.0).is_err());
        assert!(ProximityModel::new(-1.0).is_err());
        assert!(ProximityModel::new(f64::INFINITY).is_err());
    }
}
