//! The paper's design-effort model, eq. (6):
//!
//! ```text
//! C_DE = A0 · N_tr^p1 / (s_d − s_d0)^p2
//! ```
//!
//! Design cost explodes as the target density approaches the "best
//! possible" full-custom density `s_d0 ≈ 100`, because the number of
//! unsuccessful design iterations grows (§2.4). The tuning constants the
//! paper uses — `A0 = 1000`, `p1 = 1.0`, `p2 = 1.2` — are carried as
//! defaults.

use nanocost_trace::provenance;
use nanocost_units::{DecompressionIndex, Dollars, TransistorCount, UnitError};

/// The eq.-6 design-effort model.
///
/// ```
/// use nanocost_units::{DecompressionIndex, TransistorCount};
/// use nanocost_flow::DesignEffortModel;
///
/// let model = DesignEffortModel::paper_defaults();
/// let n = TransistorCount::from_millions(10.0);
/// let relaxed = model.design_cost(n, DecompressionIndex::new(400.0)?)?;
/// let aggressive = model.design_cost(n, DecompressionIndex::new(120.0)?)?;
/// // Pushing density toward s_d0 = 100 costs dramatically more.
/// assert!(aggressive.amount() > 3.0 * relaxed.amount());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignEffortModel {
    a0: f64,
    p1: f64,
    p2: f64,
    sd0: f64,
}

impl DesignEffortModel {
    /// Creates a model with explicit tuning parameters.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if any parameter is non-finite or not strictly
    /// positive.
    pub fn new(a0: f64, p1: f64, p2: f64, sd0: f64) -> Result<Self, UnitError> {
        for (name, v) in [("A0", a0), ("p1", p1), ("p2", p2), ("s_d0", sd0)] {
            if !v.is_finite() {
                return Err(UnitError::NonFinite { quantity: name });
            }
            if v <= 0.0 {
                return Err(UnitError::NotPositive { quantity: name, value: v });
            }
        }
        Ok(DesignEffortModel { a0, p1, p2, sd0 })
    }

    /// The paper's constants: `A0 = 1000`, `p1 = 1.0`, `p2 = 1.2`,
    /// `s_d0 = 100` (§2.4, with the footnote's "illustration purpose"
    /// caveat).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: paper constants are valid"
    )]
    pub fn paper_defaults() -> Self {
        DesignEffortModel::new(1000.0, 1.0, 1.2, 100.0).expect("paper constants are valid") // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
    }

    /// The best-possible decompression index `s_d0`.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: validated at construction"
    )]
    pub fn sd0(&self) -> DecompressionIndex {
        DecompressionIndex::new(self.sd0).expect("validated at construction")
    }

    /// The `(A0, p1, p2)` tuning constants.
    #[must_use]
    pub fn parameters(&self) -> (f64, f64, f64) {
        (self.a0, self.p1, self.p2)
    }

    /// Total design cost `C_DE` for a design of `transistors` targeting
    /// density `sd`.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::OutOfRange`] if `sd <= s_d0`: the model's
    /// domain is strictly sparser-than-best-possible (eq. 6 diverges at
    /// `s_d0` — no finite budget buys the theoretical optimum).
    pub fn design_cost(
        &self,
        transistors: TransistorCount,
        sd: DecompressionIndex,
    ) -> Result<Dollars, UnitError> {
        let margin = sd.squares() - self.sd0;
        if margin <= 0.0 {
            return Err(UnitError::OutOfRange {
                quantity: "decompression index s_d",
                value: sd.squares(),
                min: self.sd0,
                max: f64::INFINITY,
            });
        }
        let cost = self.a0 * transistors.count().powf(self.p1) / margin.powf(self.p2);
        provenance!(
            equation: Eq6,
            function: "nanocost_flow::effort::DesignEffortModel::design_cost",
            inputs: [n_tr = transistors.count(), sd = sd.squares(), sd0 = self.sd0],
            outputs: [c_de = cost],
        );
        Dollars::try_new(cost)
    }

    /// Derivative of design cost with respect to `s_d` (always negative on
    /// the domain): the marginal saving of relaxing density by one λ²
    /// square per transistor.
    ///
    /// # Errors
    ///
    /// As [`DesignEffortModel::design_cost`].
    pub fn marginal_cost(
        &self,
        transistors: TransistorCount,
        sd: DecompressionIndex,
    ) -> Result<f64, UnitError> {
        let margin = sd.squares() - self.sd0;
        if margin <= 0.0 {
            return Err(UnitError::OutOfRange {
                quantity: "decompression index s_d",
                value: sd.squares(),
                min: self.sd0,
                max: f64::INFINITY,
            });
        }
        Ok(-self.p2 * self.a0 * transistors.count().powf(self.p1) / margin.powf(self.p2 + 1.0))
    }
}

impl DesignEffortModel {
    /// Fits an effort model to observed `(s_d, cost)` points, holding
    /// `sd0` and `p1` fixed (the design size exponent is not identifiable
    /// from a single-design sweep): a power-law fit of cost against the
    /// margin `s_d − s_d0` recovers `p2` and, given the design size, `A0`.
    ///
    /// This turns a [`calibrate_effort_shape`](crate::calibrate_effort_shape)
    /// sweep (or real project ledgers) into a usable model.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::OutOfRange`] if any point is at or below
    /// `sd0`, or [`UnitError::NonFinite`] if the fit degenerates (fewer
    /// than two valid points, zero costs).
    pub fn fit(
        points: &[(f64, f64)],
        sd0: f64,
        transistors: TransistorCount,
        p1: f64,
    ) -> Result<Self, UnitError> {
        for &(sd, _) in points {
            if sd <= sd0 {
                return Err(UnitError::OutOfRange {
                    quantity: "decompression index s_d",
                    value: sd,
                    min: sd0,
                    max: f64::INFINITY,
                });
            }
        }
        let margins: Vec<f64> = points.iter().map(|&(sd, _)| sd - sd0).collect();
        let costs: Vec<f64> = points.iter().map(|&(_, c)| c).collect();
        let fit = nanocost_numeric::power_law_fit(&margins, &costs).map_err(|_| {
            UnitError::NonFinite {
                quantity: "effort fit",
            }
        })?;
        let a0 = fit.coefficient / transistors.count().powf(p1);
        DesignEffortModel::new(a0, p1, -fit.exponent, sd0)
    }
}

impl Default for DesignEffortModel {
    fn default() -> Self {
        DesignEffortModel::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sd(v: f64) -> DecompressionIndex {
        DecompressionIndex::new(v).unwrap()
    }

    fn mt(v: f64) -> TransistorCount {
        TransistorCount::from_millions(v)
    }

    #[test]
    fn paper_point_value_checks_out() {
        // A0·N^p1/(s_d−100)^p2 = 1000·1e7/(100)^1.2 ≈ $39.8M at s_d = 200.
        let m = DesignEffortModel::paper_defaults();
        let c = m.design_cost(mt(10.0), sd(200.0)).unwrap();
        assert!((c.amount() - 3.981e7).abs() / 3.981e7 < 1e-3, "{c}");
    }

    #[test]
    fn cost_diverges_approaching_sd0() {
        let m = DesignEffortModel::paper_defaults();
        let far = m.design_cost(mt(10.0), sd(500.0)).unwrap();
        let near = m.design_cost(mt(10.0), sd(101.0)).unwrap();
        assert!(near.amount() > 100.0 * far.amount());
    }

    #[test]
    fn domain_excludes_sd0_and_below() {
        let m = DesignEffortModel::paper_defaults();
        assert!(m.design_cost(mt(1.0), sd(100.0)).is_err());
        assert!(m.design_cost(mt(1.0), sd(50.0)).is_err());
        assert!(m.marginal_cost(mt(1.0), sd(99.0)).is_err());
    }

    #[test]
    fn cost_linear_in_transistors_with_p1_one() {
        let m = DesignEffortModel::paper_defaults();
        let one = m.design_cost(mt(1.0), sd(300.0)).unwrap();
        let ten = m.design_cost(mt(10.0), sd(300.0)).unwrap();
        assert!((ten.amount() / one.amount() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn marginal_cost_is_negative_and_matches_finite_difference() {
        let m = DesignEffortModel::paper_defaults();
        let n = mt(10.0);
        let x = 250.0;
        let h = 1e-4;
        let analytic = m.marginal_cost(n, sd(x)).unwrap();
        let numeric = (m.design_cost(n, sd(x + h)).unwrap().amount()
            - m.design_cost(n, sd(x - h)).unwrap().amount())
            / (2.0 * h);
        assert!(analytic < 0.0);
        assert!((analytic - numeric).abs() / numeric.abs() < 1e-5);
    }

    #[test]
    fn fit_round_trips_the_paper_model() {
        // Generate exact eq.-6 costs from the paper constants; the fit
        // must recover them.
        let truth = DesignEffortModel::paper_defaults();
        let n = mt(10.0);
        let points: Vec<(f64, f64)> = [120.0, 160.0, 220.0, 320.0, 500.0, 800.0]
            .iter()
            .map(|&s| (s, truth.design_cost(n, sd(s)).unwrap().amount()))
            .collect();
        let fitted = DesignEffortModel::fit(&points, 100.0, n, 1.0).unwrap();
        let (a0, p1, p2) = fitted.parameters();
        assert!((a0 - 1000.0).abs() / 1000.0 < 1e-6, "A0 {a0}");
        assert!((p1 - 1.0).abs() < 1e-12);
        assert!((p2 - 1.2).abs() < 1e-6, "p2 {p2}");
        // And predictions agree off the fitting grid.
        let predicted = fitted.design_cost(n, sd(250.0)).unwrap().amount();
        let actual = truth.design_cost(n, sd(250.0)).unwrap().amount();
        assert!((predicted - actual).abs() / actual < 1e-6);
    }

    #[test]
    fn fit_rejects_points_below_sd0() {
        let n = mt(1.0);
        assert!(DesignEffortModel::fit(&[(90.0, 1.0e6), (200.0, 5.0e5)], 100.0, n, 1.0).is_err());
        assert!(DesignEffortModel::fit(&[(150.0, 1.0e6)], 100.0, n, 1.0).is_err());
    }

    #[test]
    fn custom_parameters_validated() {
        assert!(DesignEffortModel::new(0.0, 1.0, 1.2, 100.0).is_err());
        assert!(DesignEffortModel::new(1000.0, -1.0, 1.2, 100.0).is_err());
        assert!(DesignEffortModel::new(1000.0, 1.0, f64::NAN, 100.0).is_err());
    }
}
