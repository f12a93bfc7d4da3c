//! The Figure-4 scenarios: `C_tr(s_d)` curves under the paper's stated
//! parameters.
//!
//! §3.1 gives the exact configuration: `N_tr = 10 000 000`, and
//! (a) `N_w = 5 000`, `Y = 0.4`; (b) `N_w = 50 000`, `Y = 0.9` — each
//! plotted over `s_d` for a few process nodes.

use nanocost_fab::MaskCostModel;
use nanocost_numeric::{Chart, NumericError, Series};
use nanocost_units::{
    DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError, WaferCount, Yield,
};

use crate::cache::{BatchRequest, CostQuery, ScenarioCache};
use crate::optimize::{optimal_sd_total, DensityOptimum, OptimizeError};
use crate::total::TotalCostModel;

/// One Figure-4 panel configuration.
#[derive(Debug, Clone)]
pub struct Figure4Scenario {
    /// Panel label (`"4a"` / `"4b"`).
    pub label: &'static str,
    /// Design size (the paper: 10 M transistors).
    pub transistors: TransistorCount,
    /// Production volume `N_w`.
    pub volume: WaferCount,
    /// Assumed yield `Y`.
    pub fab_yield: Yield,
    /// Nodes to plot, in microns.
    pub lambdas_um: Vec<f64>,
    /// Density sweep `[lo, hi]`.
    pub sd_range: (f64, f64),
    /// Points per curve.
    pub samples: usize,
}

impl Figure4Scenario {
    /// Figure 4(a): 5 000 wafers at 40 % yield — a low-volume,
    /// early-process product, with the §3.1 parameters.
    ///
    /// # Panics
    ///
    /// Never panics in practice: the constants are valid.
    #[must_use]
    pub fn paper_4a() -> Self {
        Figure4Scenario {
            label: "4a",
            transistors: TransistorCount::from_millions(10.0),
            // nanocost-audit: allow(R1, reason = "documented panic contract; Figure 4(a) constants are statically valid")
            volume: WaferCount::new(5_000).expect("constant is valid"),
            // nanocost-audit: allow(R1, reason = "documented panic contract; Figure 4(a) constants are statically valid")
            fab_yield: Yield::new(0.4).expect("constant is valid"),
            lambdas_um: vec![0.25, 0.18, 0.13],
            sd_range: (110.0, 1_500.0),
            samples: 60,
        }
    }

    /// Figure 4(b): 50 000 wafers at 90 % yield — a high-volume, mature
    /// product, otherwise sharing panel (a)'s §3.1 parameters.
    ///
    /// # Panics
    ///
    /// Never panics in practice: the constants are valid.
    #[must_use]
    pub fn paper_4b() -> Self {
        Figure4Scenario {
            // nanocost-audit: allow(R1, reason = "documented panic contract; Figure 4(b) constants are statically valid")
            volume: WaferCount::new(50_000).expect("constant is valid"),
            // nanocost-audit: allow(R1, reason = "documented panic contract; Figure 4(b) constants are statically valid")
            fab_yield: Yield::new(0.9).expect("constant is valid"),
            label: "4b",
            ..Figure4Scenario::paper_4a()
        }
    }

    /// Sweeps `C_tr(s_d)` for one node.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the sweep dips into eq. 6's forbidden
    /// region, or [`NumericError`] (as `UnitError` cannot occur here) is
    /// impossible; series construction cannot fail for finite costs.
    pub fn curve(
        &self,
        model: &TotalCostModel,
        masks: &MaskCostModel,
        lambda_um: f64,
    ) -> Result<Series, Figure4Error> {
        let lambda = FeatureSize::from_microns(lambda_um)?;
        let mask_cost: Dollars = masks.mask_set_cost(lambda);
        let (lo, hi) = self.sd_range;
        let mut pts = Vec::with_capacity(self.samples);
        for k in 0..self.samples {
            let s = lo + (hi - lo) * k as f64 / (self.samples - 1) as f64;
            let b = model.transistor_cost(
                lambda,
                DecompressionIndex::new(s)?,
                self.transistors,
                self.volume,
                self.fab_yield,
                mask_cost,
            )?;
            pts.push((s, b.total().amount()));
        }
        Ok(Series::new(format!("λ={lambda_um}µm"), pts)?)
    }

    /// Builds the full Figure-4 panel: one `C_tr(s_d)` curve per node, as
    /// a [`Chart`].
    ///
    /// # Errors
    ///
    /// As [`Figure4Scenario::curve`].
    pub fn chart(
        &self,
        model: &TotalCostModel,
        masks: &MaskCostModel,
    ) -> Result<Chart, Figure4Error> {
        let mut chart = Chart::new(
            format!(
                "Figure {}: C_tr(s_d), N_tr = {}, N_w = {}, Y = {}",
                self.label, self.transistors, self.volume, self.fab_yield
            ),
            "s_d [λ²/tr]",
            "C_tr [$]",
        );
        for &um in &self.lambdas_um {
            chart.push(self.curve(model, masks, um)?);
        }
        Ok(chart)
    }

    /// As [`Figure4Scenario::curve`], but evaluated through a
    /// [`ScenarioCache`] batch: the mask cost (eq. 5) is served from the
    /// cache when already known, with provenance replayed so figure
    /// fingerprints match the uncached sweep bit for bit.
    ///
    /// # Errors
    ///
    /// As [`Figure4Scenario::curve`].
    pub fn curve_cached(
        &self,
        cache: &ScenarioCache,
        lambda_um: f64,
    ) -> Result<Series, Figure4Error> {
        let lambda = FeatureSize::from_microns(lambda_um)?;
        let mask_cost: Dollars = cache.mask_set_cost(lambda);
        let (lo, hi) = self.sd_range;
        let mut grid = Vec::with_capacity(self.samples);
        let mut queries = Vec::with_capacity(self.samples);
        for k in 0..self.samples {
            let s = lo + (hi - lo) * k as f64 / (self.samples - 1) as f64;
            grid.push(s);
            queries.push(CostQuery {
                lambda,
                sd: DecompressionIndex::new(s)?,
                transistors: self.transistors,
                volume: self.volume,
                fab_yield: self.fab_yield,
                mask_cost,
            });
        }
        let response = cache.evaluate_batch(&BatchRequest { queries });
        let mut pts = Vec::with_capacity(self.samples);
        for (s, result) in grid.into_iter().zip(response.results) {
            pts.push((s, result?.total().amount()));
        }
        Ok(Series::new(format!("λ={lambda_um}µm"), pts)?)
    }

    /// As [`Figure4Scenario::chart`], but with every curve evaluated
    /// through the [`ScenarioCache`] batch path (Figure 4's panels
    /// share each node's eq.-5 mask cost, which hits after the first
    /// curve).
    ///
    /// # Errors
    ///
    /// As [`Figure4Scenario::chart`].
    pub fn chart_cached(&self, cache: &ScenarioCache) -> Result<Chart, Figure4Error> {
        let mut chart = Chart::new(
            format!(
                "Figure {}: C_tr(s_d), N_tr = {}, N_w = {}, Y = {}",
                self.label, self.transistors, self.volume, self.fab_yield
            ),
            "s_d [λ²/tr]",
            "C_tr [$]",
        );
        for &um in &self.lambdas_um {
            chart.push(self.curve_cached(cache, um)?);
        }
        Ok(chart)
    }

    /// As [`Figure4Scenario::optimum`], but memoized: a repeated §3.1
    /// optimum query replays the whole recorded search provenance from
    /// the [`ScenarioCache`] instead of re-running the bracket search.
    ///
    /// # Errors
    ///
    /// As [`Figure4Scenario::optimum`].
    pub fn optimum_cached(
        &self,
        cache: &ScenarioCache,
        lambda_um: f64,
    ) -> Result<DensityOptimum, Figure4Error> {
        let lambda = FeatureSize::from_microns(lambda_um)?;
        let mask_cost = cache.mask_set_cost(lambda);
        let (lo, hi) = self.sd_range;
        Ok(cache.optimal_sd(
            lambda,
            self.transistors,
            self.volume,
            self.fab_yield,
            mask_cost,
            lo,
            hi,
        )?)
    }

    /// Locates the optimum for one node — the cost-minimizing `s_d` that
    /// Figure 4 shows shifting with volume and yield.
    ///
    /// # Errors
    ///
    /// As [`optimal_sd_total`].
    pub fn optimum(
        &self,
        model: &TotalCostModel,
        masks: &MaskCostModel,
        lambda_um: f64,
    ) -> Result<DensityOptimum, Figure4Error> {
        let lambda = FeatureSize::from_microns(lambda_um)?;
        let (lo, hi) = self.sd_range;
        Ok(optimal_sd_total(
            model,
            lambda,
            self.transistors,
            self.volume,
            self.fab_yield,
            masks.mask_set_cost(lambda),
            lo,
            hi,
        )?)
    }
}

/// Errors from Figure-4 evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Figure4Error {
    /// Invalid unit or domain violation.
    Unit(UnitError),
    /// Numeric failure in series construction or optimization.
    Numeric(NumericError),
    /// Optimizer failure.
    Optimize(OptimizeError),
}

impl std::fmt::Display for Figure4Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Figure4Error::Unit(e) => write!(f, "figure 4 unit error: {e}"),
            Figure4Error::Numeric(e) => write!(f, "figure 4 numeric error: {e}"),
            Figure4Error::Optimize(e) => write!(f, "figure 4 optimizer error: {e}"),
        }
    }
}

impl std::error::Error for Figure4Error {}

impl From<UnitError> for Figure4Error {
    fn from(e: UnitError) -> Self {
        Figure4Error::Unit(e)
    }
}

impl From<NumericError> for Figure4Error {
    fn from(e: NumericError) -> Self {
        Figure4Error::Numeric(e)
    }
}

impl From<OptimizeError> for Figure4Error {
    fn from(e: OptimizeError) -> Self {
        Figure4Error::Optimize(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_panels_produce_full_charts() {
        let model = TotalCostModel::paper_figure4();
        let masks = MaskCostModel::default();
        for scenario in [Figure4Scenario::paper_4a(), Figure4Scenario::paper_4b()] {
            let chart = scenario.chart(&model, &masks).unwrap();
            assert_eq!(chart.series().len(), 3);
            for s in chart.series() {
                assert_eq!(s.len(), 60);
                assert!(s.ys().iter().all(|&y| y > 0.0));
            }
        }
    }

    #[test]
    fn cached_chart_is_bitwise_identical_to_uncached() {
        let model = TotalCostModel::paper_figure4();
        let masks = MaskCostModel::default();
        let cache = crate::cache::ScenarioCache::paper_figure4();
        for scenario in [Figure4Scenario::paper_4a(), Figure4Scenario::paper_4b()] {
            let plain = scenario.chart(&model, &masks).unwrap();
            let cached = scenario.chart_cached(&cache).unwrap();
            for (p, c) in plain.series().iter().zip(cached.series()) {
                for (a, b) in p.points().iter().zip(c.points()) {
                    assert_eq!(a.0.to_bits(), b.0.to_bits());
                    assert_eq!(a.1.to_bits(), b.1.to_bits());
                }
            }
            let plain_opt = scenario.optimum(&model, &masks, 0.18).unwrap();
            let cached_opt = scenario.optimum_cached(&cache, 0.18).unwrap();
            assert_eq!(plain_opt.sd.to_bits(), cached_opt.sd.to_bits());
        }
        assert!(cache.stats().hits > 0, "panels must share cached subterms");
    }

    #[test]
    fn curves_are_u_shaped() {
        let model = TotalCostModel::paper_figure4();
        let masks = MaskCostModel::default();
        let s = Figure4Scenario::paper_4a()
            .curve(&model, &masks, 0.18)
            .unwrap();
        let (sd_min, _) = s.argmin().unwrap();
        let first = s.points()[0];
        let last = s.points()[s.len() - 1];
        assert!(sd_min > first.0 && sd_min < last.0, "minimum at {sd_min}");
    }

    #[test]
    fn panel_b_optimum_denser_and_cheaper_than_panel_a() {
        let model = TotalCostModel::paper_figure4();
        let masks = MaskCostModel::default();
        let a = Figure4Scenario::paper_4a().optimum(&model, &masks, 0.18).unwrap();
        let b = Figure4Scenario::paper_4b().optimum(&model, &masks, 0.18).unwrap();
        assert!(b.sd < a.sd, "4b s_d* {} vs 4a s_d* {}", b.sd, a.sd);
        assert!(b.cost.amount() < a.cost.amount());
    }

    #[test]
    fn smaller_nodes_are_cheaper_per_transistor_at_optimum() {
        // λ² wins: the per-transistor optimum cost falls with the node even
        // though mask costs rise.
        let model = TotalCostModel::paper_figure4();
        let masks = MaskCostModel::default();
        let scenario = Figure4Scenario::paper_4b();
        let at_025 = scenario.optimum(&model, &masks, 0.25).unwrap();
        let at_013 = scenario.optimum(&model, &masks, 0.13).unwrap();
        assert!(at_013.cost.amount() < at_025.cost.amount());
    }
}
