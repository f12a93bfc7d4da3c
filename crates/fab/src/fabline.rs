//! Fabline capital economics: the "billions of dollars" of the paper's
//! title, turned into a per-wafer depreciation charge.
//!
//! The empirical regularity (often called Moore's second law, or Rock's
//! law) is that fab capital cost roughly doubles per process generation
//! (a 0.7× linear shrink). This module models capex as a power law in λ and
//! amortizes it over the line's wafer output.

use nanocost_units::{Dollars, FeatureSize, UnitError};

/// Capital cost model for a wafer fabrication line.
///
/// ```text
/// capex(λ) = reference_capex · (λ_ref / λ)^exponent
/// ```
///
/// with `exponent = ln 2 / ln(1/0.7) ≈ 1.94` reproducing capex doubling per
/// 0.7× generation.
///
/// ```
/// use nanocost_units::{Dollars, FeatureSize};
/// use nanocost_fab::FablineModel;
///
/// let fab = FablineModel::default();
/// let at_250 = fab.capex(FeatureSize::from_microns(0.25)?);
/// let at_175 = fab.capex(FeatureSize::from_microns(0.175)?);
/// // One 0.7x generation later: about twice the capital.
/// assert!((at_175.amount() / at_250.amount() - 2.0).abs() < 0.05);
/// # Ok::<(), nanocost_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FablineModel {
    reference_capex: Dollars,
    reference_lambda_um: f64,
    exponent: f64,
    /// Straight-line depreciation horizon in years.
    depreciation_years: f64,
    /// Capacity in wafer starts per month at full utilization.
    wafer_starts_per_month: f64,
    /// Long-run line utilization in `(0, 1]`.
    utilization: f64,
}

impl FablineModel {
    /// Creates a fabline model.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if any parameter is non-finite or out of its
    /// physical range (positive capex, exponent, years, capacity;
    /// utilization in `(0, 1]`).
    pub fn new(
        reference_capex: Dollars,
        reference_lambda: FeatureSize,
        exponent: f64,
        depreciation_years: f64,
        wafer_starts_per_month: f64,
        utilization: f64,
    ) -> Result<Self, UnitError> {
        for (name, v) in [
            ("capex exponent", exponent),
            ("depreciation years", depreciation_years),
            ("wafer starts per month", wafer_starts_per_month),
        ] {
            if !v.is_finite() {
                return Err(UnitError::NonFinite { quantity: name });
            }
            if v <= 0.0 {
                return Err(UnitError::NotPositive { quantity: name, value: v });
            }
        }
        if reference_capex.amount() <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "reference capex",
                value: reference_capex.amount(),
            });
        }
        if !utilization.is_finite() || utilization <= 0.0 || utilization > 1.0 {
            return Err(UnitError::OutOfRange {
                quantity: "fab utilization",
                value: utilization,
                min: 0.0,
                max: 1.0,
            });
        }
        Ok(FablineModel {
            reference_capex,
            reference_lambda_um: reference_lambda.microns(),
            exponent,
            depreciation_years,
            wafer_starts_per_month,
            utilization,
        })
    }

    /// The doubling-per-generation exponent `ln 2 / ln(1/0.7)`.
    #[must_use]
    pub fn moores_second_law_exponent() -> f64 {
        2f64.ln() / (1.0 / 0.7f64).ln()
    }

    /// Capital cost of a line for node `lambda`.
    #[must_use]
    pub fn capex(&self, lambda: FeatureSize) -> Dollars {
        let ratio = self.reference_lambda_um / lambda.microns();
        self.reference_capex * ratio.powf(self.exponent)
    }

    /// Wafers produced over the depreciation horizon.
    #[must_use]
    pub fn lifetime_wafers(&self) -> f64 {
        self.depreciation_years * 12.0 * self.wafer_starts_per_month * self.utilization
    }

    /// Depreciation charge per processed wafer at node `lambda`.
    #[must_use]
    pub fn depreciation_per_wafer(&self, lambda: FeatureSize) -> Dollars {
        self.capex(lambda) / self.lifetime_wafers()
    }
}

impl Default for FablineModel {
    /// A late-1990s reference: $1.5 B line at 0.25 µm, capex doubling per
    /// generation, 5-year depreciation, 25 000 wafer starts/month, 85 %
    /// utilization.
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constant is valid; constants are valid"
    )]
    fn default() -> Self {
        FablineModel::new(
            Dollars::from_billions(1.5),
            FeatureSize::from_microns(0.25).expect("constant is valid"),
            FablineModel::moores_second_law_exponent(),
            5.0,
            25_000.0,
            0.85,
        )
        .expect("constants are valid")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    #[test]
    fn capex_at_reference_node_is_reference() {
        let fab = FablineModel::default();
        assert!((fab.capex(um(0.25)).amount() - 1.5e9).abs() < 1.0);
    }

    #[test]
    fn capex_reaches_many_billions_at_nanometer_nodes() {
        // The paper's premise: nanometer fablines cost "billions of dollars".
        let fab = FablineModel::default();
        let at_50nm = fab.capex(um(0.05));
        assert!(
            at_50nm.amount() > 30.0e9,
            "50nm line should cost tens of billions, got {at_50nm}"
        );
    }

    #[test]
    fn capex_doubles_per_generation() {
        let fab = FablineModel::default();
        let mut lambda = 0.5;
        let mut prev = fab.capex(um(lambda)).amount();
        for _ in 0..4 {
            lambda *= 0.7;
            let now = fab.capex(um(lambda)).amount();
            assert!((now / prev - 2.0).abs() < 1e-9);
            prev = now;
        }
    }

    #[test]
    fn depreciation_per_wafer_is_plausible() {
        let fab = FablineModel::default();
        // $1.5B over 5y·12·25000·0.85 ≈ 1.275M wafers ≈ $1176/wafer.
        let d = fab.depreciation_per_wafer(um(0.25));
        assert!(d.amount() > 1_000.0 && d.amount() < 1_400.0, "{d}");
    }

    #[test]
    fn lifetime_wafers_counts_utilization() {
        let full = FablineModel::new(
            Dollars::from_billions(1.0),
            um(0.25),
            1.9,
            5.0,
            10_000.0,
            1.0,
        )
        .unwrap();
        let half = FablineModel::new(
            Dollars::from_billions(1.0),
            um(0.25),
            1.9,
            5.0,
            10_000.0,
            0.5,
        )
        .unwrap();
        assert!((full.lifetime_wafers() / half.lifetime_wafers() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        let l = um(0.25);
        let c = Dollars::from_billions(1.0);
        assert!(FablineModel::new(Dollars::ZERO, l, 1.9, 5.0, 1e4, 0.9).is_err());
        assert!(FablineModel::new(c, l, 0.0, 5.0, 1e4, 0.9).is_err());
        assert!(FablineModel::new(c, l, 1.9, -1.0, 1e4, 0.9).is_err());
        assert!(FablineModel::new(c, l, 1.9, 5.0, 0.0, 0.9).is_err());
        assert!(FablineModel::new(c, l, 1.9, 5.0, 1e4, 0.0).is_err());
        assert!(FablineModel::new(c, l, 1.9, 5.0, 1e4, 1.5).is_err());
    }
}
