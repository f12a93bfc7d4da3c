//! Builders for every table and figure of the paper, plus the extension
//! experiments committed in `DESIGN.md`.

use nanocost_chiplet::{AssemblyKind, ChipletCache, ChipletReport, ChipletScenario};
use nanocost_core::{
    optimal_sd_generalized, optimum_surface, DensityOptimum, DesignPoint, Figure4Error,
    Figure4Scenario, GeneralizedCostModel, OptimumCell, ProfitModel, ProfitReport, ScenarioCache,
    TotalCostModel,
};
use nanocost_devices::{figure1_by_class, figure1_by_vendor, table_a1, DeviceRecord};
use nanocost_fab::{MaskCostModel, TestCostModel};
use nanocost_flow::{
    calibrate_effort_shape, CalibrationResult, ClosureSimulator, DesignTeamModel,
    RegularityEffect,
};
use nanocost_layout::{
    Layout, MemoryArrayGenerator, RandomBlockGenerator, RegularityAnalysis, RegularityReport,
    StdCellGenerator,
};
use nanocost_numeric::{Chart, McConfig, NumericError, Sampler, Series};
use nanocost_roadmap::{
    figure3, itrs_1999, ConstantCostAssumptions, Figure3Point, Scenario,
};
use nanocost_units::{
    Area, ChipCount, DecompressionIndex, FeatureSize, TransistorCount, UnitError, Utilization,
    WaferCount, Yield,
};
use nanocost_yield::{DefectDensity, DefectProcess, WaferMapResult, WaferMapSimulator};

/// The dataset rows with recomputed density columns — Table A1.
#[must_use]
pub fn table_a1_rows() -> Vec<DeviceRecord> {
    table_a1()
}

/// Figure 1: the published-design density scatter, by device class and by
/// vendor.
///
/// # Errors
///
/// Returns [`NumericError`] only for a corrupted dataset (test-excluded).
pub fn figure1() -> Result<(Vec<Series>, Vec<Series>), NumericError> {
    let rows = table_a1();
    Ok((figure1_by_class(&rows)?, figure1_by_vendor(&rows)?))
}

/// Figure 2: ITRS-implied `s_d` versus feature size.
///
/// # Errors
///
/// Returns [`NumericError`] only for a corrupted roadmap (test-excluded).
pub fn figure2() -> Result<Series, NumericError> {
    let pts: Vec<(f64, f64)> = itrs_1999()
        .iter()
        .map(|e| (e.feature_nm, e.implied_sd().squares()))
        .collect();
    Series::new("ITRS s_d", pts)
}

/// Figure 3: the affordability ratio per generation, under the paper's
/// optimistic anchors.
///
/// # Errors
///
/// Returns [`UnitError`] only for a corrupted roadmap (test-excluded).
pub fn figure3_points() -> Result<Vec<Figure3Point>, UnitError> {
    figure3(&itrs_1999(), &ConstantCostAssumptions::paper_1999())
}

/// Figure 3 under an erosion scenario (EXT: pessimistic variants).
///
/// # Errors
///
/// As [`figure3_points`].
pub fn figure3_scenario(scenario: Scenario) -> Result<Vec<Figure3Point>, UnitError> {
    scenario.figure3(&itrs_1999(), &ConstantCostAssumptions::paper_1999())
}

/// One Figure-4 panel: the chart and the per-node optima.
///
/// # Errors
///
/// Returns [`Figure4Error`] if the sweep violates the eq.-6 domain
/// (impossible for the embedded scenarios).
pub fn figure4_panel(
    scenario: &Figure4Scenario,
) -> Result<(Chart, Vec<(f64, DensityOptimum)>), Figure4Error> {
    // Deliberately uncached: this is the reference implementation the
    // fingerprint test compares [`figure4_panel_cached`] against, and
    // the benches pin its per-evaluation cost without cache overhead.
    let model = TotalCostModel::paper_figure4();
    let masks = MaskCostModel::default();
    let chart = scenario.chart(&model, &masks)?;
    let mut optima = Vec::new();
    for &um in &scenario.lambdas_um {
        optima.push((um, scenario.optimum(&model, &masks, um)?));
    }
    Ok((chart, optima))
}

/// As [`figure4_panel`], but evaluated through a shared [`ScenarioCache`]
/// batch: the `figure4` bin reuses one cache across both panels, so the
/// per-node mask costs (and any revisited grid points) are served from
/// the cache with their provenance replayed.
///
/// # Errors
///
/// As [`figure4_panel`].
pub fn figure4_panel_cached(
    cache: &ScenarioCache,
    scenario: &Figure4Scenario,
) -> Result<(Chart, Vec<(f64, DensityOptimum)>), Figure4Error> {
    let chart = scenario.chart_cached(cache)?;
    let mut optima = Vec::new();
    for &um in &scenario.lambdas_um {
        optima.push((um, scenario.optimum_cached(cache, um)?));
    }
    Ok((chart, optima))
}

/// One design size of the monolithic-vs-SiP crossover sweep: the
/// monolithic baseline and the cheapest disaggregated build found over
/// the chiplet-count × assembly-technology grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossoverRow {
    /// Design size the row prices.
    pub transistors: TransistorCount,
    /// The single-die baseline (`chiplets = 1`).
    pub monolithic: ChipletReport,
    /// Chiplet count of the cheapest build (1 = stay monolithic).
    pub best_chiplets: u32,
    /// Assembly technology of the cheapest build.
    pub best_assembly: AssemblyKind,
    /// The cheapest build's full cost breakdown.
    pub best: ChipletReport,
}

/// Chiplet counts the crossover sweep probes. The monolithic baseline
/// (`n = 1`, RDL-keyed) is evaluated first, so its probe here is a
/// guaranteed cache hit whose provenance is replayed into the capture.
pub const CROSSOVER_SPLITS: [u32; 4] = [1, 2, 4, 8];

/// Design sizes (millions of transistors) the crossover sweep prices.
pub const CROSSOVER_SIZES_M: [f64; 6] = [25.0, 50.0, 100.0, 200.0, 400.0, 800.0];

/// EXT-CHIPLET: the monolithic-vs-SiP crossover — per design size, the
/// monolithic unit cost against the cheapest build over
/// [`CROSSOVER_SPLITS`] × {RDL, silicon interposer}, all evaluated
/// through one shared [`ChipletCache`] (the monolithic baseline is
/// keyed identically to the RDL `n = 1` probe, so that revisit replays
/// its provenance from the cache).
///
/// # Errors
///
/// Returns [`UnitError`] if a sweep point violates the model domain
/// (impossible for the fixed grid used).
pub fn chiplet_crossover_study(cache: &ChipletCache) -> Result<Vec<CrossoverRow>, UnitError> {
    let lambda = FeatureSize::from_microns(0.07)?;
    let sd = DecompressionIndex::new(300.0)?;
    let units = ChipCount::new(1_000_000);
    let mut rows = Vec::new();
    for millions in CROSSOVER_SIZES_M {
        let base = ChipletScenario {
            lambda,
            sd,
            transistors: TransistorCount::from_millions(millions),
            units,
            chiplets: 1,
            distinct_designs: 1,
            assembly: AssemblyKind::Rdl,
        };
        let monolithic = cache.evaluate(&base)?;
        let mut best = (1, AssemblyKind::Rdl, monolithic);
        for kind in [AssemblyKind::Rdl, AssemblyKind::SiliconInterposer] {
            for n in CROSSOVER_SPLITS {
                // A heterogeneous split: every chiplet is a distinct
                // design, so the SiP still pays `n` mask sets and `n`
                // design efforts. (With `distinct_designs = 1` the NRE
                // itself would shrink with the split and disaggregation
                // would trivially always win — no crossover to find.)
                let report = cache.evaluate(&ChipletScenario {
                    chiplets: n,
                    distinct_designs: n,
                    assembly: kind,
                    ..base
                })?;
                if report.unit_cost.amount() < best.2.unit_cost.amount() {
                    best = (n, kind, report);
                }
            }
        }
        rows.push(CrossoverRow {
            transistors: base.transistors,
            monolithic,
            best_chiplets: best.0,
            best_assembly: best.1,
            best: best.2,
        });
    }
    Ok(rows)
}

/// EXT-U: cost per useful transistor across utilizations and volumes.
///
/// # Errors
///
/// Returns [`UnitError`] for domain violations (impossible for the fixed
/// grid used).
pub fn utilization_study() -> Result<Vec<(f64, u64, f64)>, UnitError> {
    let lambda = FeatureSize::from_microns(0.18)?;
    let transistors = TransistorCount::from_millions(10.0);
    let sd = DecompressionIndex::new(300.0)?;
    let mut out = Vec::new();
    for &u in &[1.0, 0.8, 0.5, 0.25, 0.1] {
        let model = GeneralizedCostModel::nanometer_default()
            .with_utilization(Utilization::new(u)?);
        for &v in &[5_000u64, 50_000, 500_000] {
            let r = model.evaluate(DesignPoint {
                lambda,
                sd,
                transistors,
                volume: WaferCount::new(v)?,
            })?;
            out.push((u, v, r.transistor_cost.amount()));
        }
    }
    Ok(out)
}

/// EXT-TEST: relative cost overhead of production test across design
/// sizes.
///
/// # Errors
///
/// As [`utilization_study`].
pub fn test_cost_study() -> Result<Vec<(f64, f64)>, UnitError> {
    let lambda = FeatureSize::from_microns(0.18)?;
    let sd = DecompressionIndex::new(300.0)?;
    let volume = WaferCount::new(50_000)?;
    let base = GeneralizedCostModel::nanometer_default();
    let tested = GeneralizedCostModel::nanometer_default().with_test(TestCostModel::default());
    let mut out = Vec::new();
    for &m in &[1.0, 3.0, 10.0, 30.0, 100.0] {
        let transistors = TransistorCount::from_millions(m);
        let point = DesignPoint {
            lambda,
            sd,
            transistors,
            volume,
        };
        let a = base.evaluate(point)?.transistor_cost.amount();
        let b = tested.evaluate(point)?.transistor_cost.amount();
        out.push((m, (b - a) / a));
    }
    Ok(out)
}

/// EXT-VOL: the optimum-density surface over volume × yield.
///
/// # Errors
///
/// Propagates optimizer errors (impossible for the fixed grid used).
pub fn optimum_surface_study() -> Result<Vec<OptimumCell>, nanocost_core::OptimizeError> {
    // Deliberately uncached — the reference path the cached variant is
    // checked against; see [`figure4_panel`].
    optimum_surface(
        &TotalCostModel::paper_figure4(),
        FeatureSize::from_microns(0.18)?,
        TransistorCount::from_millions(10.0),
        MaskCostModel::default().mask_set_cost(FeatureSize::from_microns(0.18)?),
        &[1_000, 5_000, 20_000, 50_000, 200_000],
        &[0.4, 0.6, 0.8, 0.9],
        105.0,
        2_500.0,
    )
}

/// As [`optimum_surface_study`], but every volume × yield optimum is
/// memoized in the given [`ScenarioCache`], so repeated studies (the
/// server's `/v1/optimum` traffic, or a re-run of the bin) replay
/// instead of re-searching.
///
/// # Errors
///
/// As [`optimum_surface_study`].
pub fn optimum_surface_study_cached(
    cache: &ScenarioCache,
) -> Result<Vec<OptimumCell>, nanocost_core::OptimizeError> {
    use nanocost_units::Yield;
    let lambda = FeatureSize::from_microns(0.18)?;
    let transistors = TransistorCount::from_millions(10.0);
    let mask_cost = cache.mask_set_cost(lambda);
    let mut out = Vec::with_capacity(20);
    for &v in &[1_000u64, 5_000, 20_000, 50_000, 200_000] {
        for &y in &[0.4, 0.6, 0.8, 0.9] {
            let optimum = cache.optimal_sd(
                lambda,
                transistors,
                WaferCount::new(v)?,
                Yield::new(y)?,
                mask_cost,
                105.0,
                2_500.0,
            )?;
            out.push(OptimumCell { volume: v, fab_yield: y, optimum });
        }
    }
    Ok(out)
}

/// The three benchmark layouts of the regularity experiment, with matched
/// parameters.
///
/// # Panics
///
/// Never panics in practice: generator parameters are constants.
#[must_use]
pub fn regularity_layouts() -> Vec<(&'static str, Layout)> {
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid; generation cannot fail for valid constants"
    )]
    let memory = MemoryArrayGenerator::new(32, 48)
        .expect("constants are valid")
        .generate()
        .expect("generation cannot fail for valid constants");
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid; generation cannot fail for valid constants"
    )]
    let custom = RandomBlockGenerator::new(
        memory.grid().width(),
        memory.grid().height(),
        memory.transistors(),
        7,
    )
    .expect("constants are valid")
    .generate()
    .expect("generation cannot fail for valid constants");
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid; generation cannot fail for valid constants"
    )]
    let std_cells = StdCellGenerator::new(24, 1200, 20, 0.8, 42)
        .expect("constants are valid")
        .generate()
        .expect("generation cannot fail for valid constants");
    vec![("memory", memory), ("std-cell", std_cells), ("custom", custom)]
}

/// EXT-REG: pattern-extraction reports for the three benchmark layouts.
///
/// # Panics
///
/// Never panics in practice: the window is valid for all three layouts.
#[must_use]
pub fn regularity_reports() -> Vec<(&'static str, RegularityReport)> {
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid"
    )]
    let window = RegularityAnalysis::tiling_rect(14, 13).expect("constants are valid");
    regularity_layouts()
        .into_iter()
        .map(|(name, layout)| {
            #[expect(
                clippy::expect_used,
                reason = "documented invariant: window fits all benchmark layouts"
            )]
            let report = window
                .analyze(layout.grid())
                .expect("window fits all benchmark layouts");
            (name, report)
        })
        .collect()
}

/// EXT-REG continued: iterations and design cost per layout style.
///
/// # Errors
///
/// Returns [`UnitError`] for domain violations (impossible for the fixed
/// target used).
pub fn regularity_cost_table() -> Result<Vec<(&'static str, f64, f64)>, UnitError> {
    let sim = ClosureSimulator::nanometer_default();
    let team = DesignTeamModel::nanometer_default();
    let lambda = FeatureSize::from_microns(0.10)?;
    let sd = DecompressionIndex::new(150.0)?;
    let transistors = TransistorCount::from_millions(10.0);
    let config = McConfig { seed: 11, trials: 1_000 };
    let mut out = Vec::new();
    for (name, report) in regularity_reports() {
        let effect = RegularityEffect::from_report(&report);
        let iters = sim.mean_iterations(config, lambda, sd, effect.reuse_factor)?;
        let cost = team.project_cost(transistors, iters);
        out.push((name, iters, cost.amount()));
    }
    Ok(out)
}

/// EXT-ITER: calibrate the simulated design process against the eq.-6
/// shape.
///
/// # Errors
///
/// Returns [`nanocost_flow::CalibrateError`] for degenerate sweeps
/// (impossible for the fixed sweep used).
pub fn iteration_calibration() -> Result<CalibrationResult, nanocost_flow::CalibrateError> {
    calibrate_effort_shape(
        &ClosureSimulator::nanometer_default(),
        &DesignTeamModel::nanometer_default(),
        McConfig { seed: 42, trials: 400 },
        FeatureSize::from_microns(0.18)?,
        TransistorCount::from_millions(10.0),
        1.0,
        100.0,
        &[110.0, 130.0, 160.0, 200.0, 260.0, 340.0, 450.0, 600.0],
    )
}

/// EXT-GEN: eq. 4 (paper anchors) versus eq. 7 (substrates) across
/// volumes — the lower-bound property as data.
///
/// # Errors
///
/// Returns [`UnitError`] for domain violations (impossible for the fixed
/// grid used).
pub fn generalized_vs_simple() -> Result<Vec<(u64, f64, f64)>, UnitError> {
    use nanocost_units::{Dollars, Yield};
    let lambda = FeatureSize::from_microns(0.18)?;
    let sd = DecompressionIndex::new(300.0)?;
    let transistors = TransistorCount::from_millions(10.0);
    let eq4 = TotalCostModel::paper_figure4();
    let eq7 = GeneralizedCostModel::nanometer_default();
    let mask = Dollars::new(200_000.0);
    let mut out = Vec::new();
    for &v in &[2_000u64, 5_000, 20_000, 50_000, 200_000] {
        let volume = WaferCount::new(v)?;
        let simple = eq4
            .transistor_cost(lambda, sd, transistors, volume, Yield::new(0.8)?, mask)?
            .total()
            .amount();
        let full = eq7
            .evaluate(DesignPoint {
                lambda,
                sd,
                transistors,
                volume,
            })?
            .transistor_cost
            .amount();
        out.push((v, simple, full));
    }
    Ok(out)
}

/// The generalized-model optimum used by EXT-GEN reporting.
///
/// # Errors
///
/// Propagates optimizer errors (impossible for the fixed bracket used).
pub fn generalized_optimum(volume: u64) -> Result<DensityOptimum, nanocost_core::OptimizeError> {
    optimal_sd_generalized(
        &GeneralizedCostModel::nanometer_default(),
        FeatureSize::from_microns(0.18)?,
        TransistorCount::from_millions(10.0),
        WaferCount::new(volume)?,
        105.0,
        2_500.0,
    )
}

/// EXT-SIM: wafer-map Monte-Carlo yield vs the analytic models, for a
/// uniform and a clustered defect process at equal mean density.
///
/// # Errors
///
/// Returns [`UnitError`] for invalid configuration (impossible for the
/// constants used).
pub fn wafer_map_study() -> Result<Vec<(&'static str, WaferMapResult)>, UnitError> {
    let sim = WaferMapSimulator::new(
        nanocost_fab::WaferSpec::standard_200mm(),
        Area::from_cm2(1.5),
        0.5,
    )?;
    let density = DefectDensity::per_cm2(0.6)?;
    let mut out = Vec::new();
    let mut sampler = Sampler::seeded(404);
    out.push((
        "uniform",
        sim.simulate(&mut sampler, DefectProcess::Uniform { density }, 150),
    ));
    let mut sampler = Sampler::seeded(404);
    out.push((
        "clustered",
        sim.simulate(
            &mut sampler,
            DefectProcess::Clustered {
                density,
                mean_per_cluster: 8.0,
                sigma_mm: 2.0,
            },
            150,
        ),
    ));
    Ok(out)
}

/// EXT-TTM: profit-optimal vs cost-optimal density under fast and slow
/// markets.
///
/// # Errors
///
/// Propagates optimizer errors (impossible for the fixed bracket used).
pub fn time_to_market_study(
) -> Result<Vec<(&'static str, ProfitReport, ProfitReport)>, nanocost_core::OptimizeError> {
    let lambda = FeatureSize::from_microns(0.18)?;
    let transistors = TransistorCount::from_millions(10.0);
    let demand = 2.0e6;
    let y = Yield::new(0.8)?;
    let mut out = Vec::new();
    for (name, model) in [
        ("competitive", ProfitModel::competitive_default()),
        ("slow-market", ProfitModel::slow_market_default()),
    ] {
        let profit = model.optimal_sd(lambda, transistors, demand, y, 110.0, 1_200.0)?;
        let cost = model.optimal_sd_cost(lambda, transistors, demand, y, 110.0, 1_200.0)?;
        out.push((name, profit, cost));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builder_produces_its_artifact() {
        assert_eq!(table_a1_rows().len(), 49);
        let (by_class, by_vendor) = figure1().unwrap();
        assert!(!by_class.is_empty() && !by_vendor.is_empty());
        assert_eq!(figure2().unwrap().len(), 7);
        assert_eq!(figure3_points().unwrap().len(), 7);
        let (chart, optima) = figure4_panel(&Figure4Scenario::paper_4a()).unwrap();
        assert_eq!(chart.series().len(), 3);
        assert_eq!(optima.len(), 3);
        assert_eq!(utilization_study().unwrap().len(), 15);
        assert_eq!(test_cost_study().unwrap().len(), 5);
        assert_eq!(optimum_surface_study().unwrap().len(), 20);
        assert_eq!(regularity_reports().len(), 3);
        assert_eq!(regularity_cost_table().unwrap().len(), 3);
        assert!(iteration_calibration().unwrap().p2 > 0.0);
        assert_eq!(generalized_vs_simple().unwrap().len(), 5);
        assert!(generalized_optimum(20_000).unwrap().sd > 105.0);
    }

    #[test]
    fn extension_builders_produce_their_artifacts() {
        let maps = wafer_map_study().unwrap();
        assert_eq!(maps.len(), 2);
        assert!(maps[1].1.dispersion() > maps[0].1.dispersion());
        let ttm = time_to_market_study().unwrap();
        assert_eq!(ttm.len(), 2);
        for (_, profit, cost) in &ttm {
            assert!(profit.profit.amount() >= cost.profit.amount() - 1.0);
        }
    }
}
