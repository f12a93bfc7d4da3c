//! The composite yield surface `Y(λ, s_d, N_tr, N_w)` used by the
//! generalized cost model (eq. 7 of the paper).
//!
//! Composition order:
//!
//! 1. cumulative volume → defect density via the [`LearningCurve`];
//! 2. defect density rescaled from the curve's reference node to the
//!    target λ (smaller features see more killer particles);
//! 3. die area from `A_ch = N_tr · s_d · λ²` (eq. 2);
//! 4. die area × density-dependent sensitivity fraction → critical area;
//! 5. critical area × defect density → defect-limited yield under a chosen
//!    [`YieldModel`];
//! 6. multiplied by the volume-driven [`SystematicRamp`].

use nanocost_units::{
    Area, DecompressionIndex, FeatureSize, TransistorCount, UnitError, WaferCount, Yield,
};

use crate::critical_area::CriticalAreaModel;
use crate::maturity::{LearningCurve, SystematicRamp};
use crate::models::{NegativeBinomialModel, YieldModel};

/// A fully parameterized yield surface.
///
/// This is the `Y(A_w, λ, N_w, s_d, N_tr)` of the paper's eq. 7: every
/// argument the paper lists is an input of [`YieldSurface::evaluate`]
/// (wafer area enters through the learning curve's volume normalization).
///
/// ```
/// use nanocost_units::{DecompressionIndex, FeatureSize, TransistorCount, WaferCount};
/// use nanocost_yield::YieldSurface;
///
/// let surface = YieldSurface::nanometer_default();
/// let y = surface.evaluate(
///     FeatureSize::from_microns(0.18)?,
///     DecompressionIndex::new(250.0)?,
///     TransistorCount::from_millions(10.0),
///     WaferCount::new(50_000)?,
/// )?;
/// assert!(y.value() > 0.0 && y.value() <= 1.0);
/// # Ok::<(), nanocost_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldSurface {
    /// Node at which the learning curve's densities are quoted.
    reference_node_um: f64,
    /// Defect-density sensitivity exponent for λ scaling (≈ 2 from the
    /// 1/x³ defect-size tail).
    lambda_exponent: f64,
    learning: LearningCurve,
    systematic: SystematicRamp,
    critical_area: CriticalAreaModel,
    defect_model: NegativeBinomialModel,
}

impl YieldSurface {
    /// Creates a yield surface from its components — the
    /// `Y(A_w, λ, N_w, s_d, N_tr)` term of the paper's eq. 7.
    #[must_use]
    pub fn new(
        reference_node: FeatureSize,
        lambda_exponent: f64,
        learning: LearningCurve,
        systematic: SystematicRamp,
        critical_area: CriticalAreaModel,
        defect_model: NegativeBinomialModel,
    ) -> Self {
        YieldSurface {
            reference_node_um: reference_node.microns(),
            lambda_exponent,
            learning,
            systematic,
            critical_area,
            defect_model,
        }
    }

    /// A default surface representative of a late-1990s logic process
    /// quoted at the 0.25 µm node: initial D0 = 1.2 /cm² learning to
    /// 0.25 /cm² over 20 k wafers, systematic yield ramping 0.6 → 0.95,
    /// α = 2 clustering, λ-sensitivity exponent 1.8 — a concrete `Y`
    /// surface for eq. 7's generalized model.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constant is valid; constants are valid"
    )]
    pub fn nanometer_default() -> Self {
        use crate::defect::DefectDensity;
        use nanocost_units::Yield as Y;
        YieldSurface::new(
            FeatureSize::from_microns(0.25).expect("constant is valid"), // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            1.8, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            LearningCurve::new(
                DefectDensity::per_cm2(1.2).expect("constant is valid"), // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
                DefectDensity::per_cm2(0.25).expect("constant is valid"), // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
                20_000.0, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            )
            .expect("constants are valid"),
            SystematicRamp::new(
                Y::new(0.6).expect("constant is valid"), // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
                Y::new(0.95).expect("constant is valid"), // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
                30_000.0, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            )
            .expect("constants are valid"),
            CriticalAreaModel::default(),
            NegativeBinomialModel::new(2.0).expect("constant is valid"),
        )
    }

    /// Evaluates the surface — eq. 7's `Y(λ, s_d, N_tr, N_w)`: the yield
    /// of a die with `n_tr` transistors drawn at density `sd` on node
    /// `lambda`, for a production run of `volume` wafers.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the eq.-2 die area overflows (see
    /// [`DecompressionIndex::chip_area`]).
    pub fn evaluate(
        &self,
        lambda: FeatureSize,
        sd: DecompressionIndex,
        n_tr: TransistorCount,
        volume: WaferCount,
    ) -> Result<Yield, UnitError> {
        let die_area = sd.chip_area(n_tr, lambda)?;
        Ok(self.evaluate_area(lambda, sd, die_area, volume))
    }

    /// Like [`YieldSurface::evaluate`] but for an explicitly given die area
    /// (used when the area comes from a measured layout rather than eq. 2).
    #[must_use]
    pub fn evaluate_area(
        &self,
        lambda: FeatureSize,
        sd: DecompressionIndex,
        die_area: Area,
        volume: WaferCount,
    ) -> Yield {
        #[expect(
            clippy::expect_used,
            reason = "documented invariant: validated at construction"
        )]
        let reference =
            FeatureSize::from_microns(self.reference_node_um).expect("validated at construction");
        let d0 = self
            .learning
            .defect_density(volume)
            .scaled_to(reference, lambda, self.lambda_exponent);
        let a_crit = self.critical_area.critical_area(die_area, sd);
        let defect_limited = self.defect_model.die_yield(a_crit, d0);
        let systematic = self.systematic.systematic_yield(volume);
        defect_limited * systematic
    }

    /// The underlying learning curve — the process-maturity dependence
    /// the paper's §2.5 yield discussion demands.
    #[must_use]
    pub fn learning(&self) -> &LearningCurve {
        &self.learning
    }

    /// The underlying systematic ramp — the volume dependence of eq. 7's
    /// `Y(N_w)`.
    #[must_use]
    pub fn systematic(&self) -> &SystematicRamp {
        &self.systematic
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    fn sd(x: f64) -> DecompressionIndex {
        DecompressionIndex::new(x).unwrap()
    }

    fn mt(x: f64) -> TransistorCount {
        TransistorCount::from_millions(x)
    }

    fn wafers(n: u64) -> WaferCount {
        WaferCount::new(n).unwrap()
    }

    #[test]
    fn yield_improves_with_volume() {
        let s = YieldSurface::nanometer_default();
        let early = s
            .evaluate(um(0.25), sd(250.0), mt(10.0), wafers(500))
            .unwrap();
        let late = s
            .evaluate(um(0.25), sd(250.0), mt(10.0), wafers(200_000))
            .unwrap();
        assert!(late.value() > early.value());
    }

    #[test]
    fn yield_falls_with_transistor_count() {
        let s = YieldSurface::nanometer_default();
        let small = s
            .evaluate(um(0.25), sd(250.0), mt(5.0), wafers(50_000))
            .unwrap();
        let big = s
            .evaluate(um(0.25), sd(250.0), mt(50.0), wafers(50_000))
            .unwrap();
        assert!(small.value() > big.value());
    }

    #[test]
    fn density_tradeoff_both_directions_matter() {
        // Sparser layout: bigger die (hurts) but lower sensitivity (helps).
        // With the default calibration the area term dominates, so yield
        // falls with s_d — the effect the paper's Fig. 4 denominator needs.
        let s = YieldSurface::nanometer_default();
        let dense = s
            .evaluate(um(0.25), sd(120.0), mt(10.0), wafers(50_000))
            .unwrap();
        let sparse = s
            .evaluate(um(0.25), sd(600.0), mt(10.0), wafers(50_000))
            .unwrap();
        assert!(
            dense.value() > sparse.value(),
            "dense {} sparse {}",
            dense,
            sparse
        );
    }

    #[test]
    fn smaller_node_same_design_yields_better() {
        // Shrinking the same design (fixed N_tr, s_d) shrinks the die by
        // λ²; even with the higher defect sensitivity (exponent 1.8 < 2 the
        // area win dominates), yield should not collapse.
        let s = YieldSurface::nanometer_default();
        let old = s
            .evaluate(um(0.35), sd(250.0), mt(10.0), wafers(50_000))
            .unwrap();
        let new = s
            .evaluate(um(0.25), sd(250.0), mt(10.0), wafers(50_000))
            .unwrap();
        assert!(new.value() >= old.value() * 0.9, "old {} new {}", old, new);
    }

    #[test]
    fn evaluate_area_consistent_with_evaluate() {
        let s = YieldSurface::nanometer_default();
        let lambda = um(0.18);
        let d = sd(300.0);
        let n = mt(20.0);
        let via_count = s
            .evaluate(lambda, d, n, wafers(10_000))
            .unwrap();
        let via_area = s.evaluate_area(lambda, d, d.chip_area(n, lambda).unwrap(), wafers(10_000));
        assert!((via_count.value() - via_area.value()).abs() < 1e-12);
    }

    #[test]
    fn yield_always_in_unit_interval() {
        let s = YieldSurface::nanometer_default();
        for &l in &[1.5, 0.8, 0.35, 0.18, 0.1, 0.05] {
            for &d in &[30.0, 100.0, 500.0, 1000.0] {
                for &m in &[0.2, 10.0, 200.0] {
                    let y = s
                        .evaluate(um(l), sd(d), mt(m), wafers(5_000))
                        .unwrap();
                    assert!(y.value() > 0.0 && y.value() <= 1.0);
                }
            }
        }
    }
}
