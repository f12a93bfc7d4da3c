//! The `figures` workload: the cached figure pipelines in-process, one
//! thread, fresh caches every pass as the bins run them.

use std::time::Instant;

use nanocost_bench::figures::{
    chiplet_crossover_study, figure4_panel, figure4_panel_cached, optimum_surface_study,
    optimum_surface_study_cached, CrossoverRow,
};
use nanocost_chiplet::ChipletCache;
use nanocost_core::{DensityOptimum, Figure4Scenario, OptimumCell, ScenarioCache};
use nanocost_numeric::Chart;
use nanocost_sentinel::fingerprint::{diff_pipeline, fingerprint_jsonl, parse_fingerprint_file};
use nanocost_trace::export::{Exporter, JsonlExporter};
use nanocost_trace::with_collector;

/// What one pass produces.
#[derive(Debug, Clone, PartialEq)]
pub struct PassOutput {
    pub figure4: Vec<(Chart, Vec<(f64, DensityOptimum)>)>,
    pub crossover: Vec<CrossoverRow>,
    pub surface: Vec<OptimumCell>,
}

impl PassOutput {
    /// Model answers the pass delivered: curve points, optima, crossover
    /// probes (the baseline plus 2 × 4 splits per row) and surface cells.
    #[must_use]
    pub fn points(&self) -> usize {
        let curves: usize = self
            .figure4
            .iter()
            .map(|(chart, optima)| {
                chart.series().iter().map(|s| s.len()).sum::<usize>() + optima.len()
            })
            .sum();
        curves + self.crossover.len() * 9 + self.surface.len()
    }
}

/// Wall time of each pipeline in one pass, nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTimes {
    pub figure4_ns: f64,
    pub crossover_ns: f64,
    pub surface_ns: f64,
}

fn scenarios() -> [Figure4Scenario; 2] {
    [Figure4Scenario::paper_4a(), Figure4Scenario::paper_4b()]
}

/// One pass: both Figure-4 panels on one fresh `ScenarioCache`, the
/// chiplet crossover on a fresh `ChipletCache`, and the optimum surface
/// on another fresh `ScenarioCache`.
pub fn pass() -> Result<(PassOutput, PassTimes), String> {
    let t = Instant::now();
    let cache = ScenarioCache::paper_figure4();
    let figure4 = scenarios()
        .iter()
        .map(|s| figure4_panel_cached(&cache, s))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("figure4: {e}"))?;
    let figure4_ns = t.elapsed().as_nanos() as f64;

    let t = Instant::now();
    let chiplets = ChipletCache::defaults().map_err(|e| format!("chiplet cache: {e}"))?;
    let crossover = chiplet_crossover_study(&chiplets).map_err(|e| format!("crossover: {e}"))?;
    let crossover_ns = t.elapsed().as_nanos() as f64;

    let t = Instant::now();
    let cache = ScenarioCache::paper_figure4();
    let surface = optimum_surface_study_cached(&cache).map_err(|e| format!("surface: {e}"))?;
    let surface_ns = t.elapsed().as_nanos() as f64;

    Ok((
        PassOutput {
            figure4,
            crossover,
            surface,
        },
        PassTimes {
            figure4_ns,
            crossover_ns,
            surface_ns,
        },
    ))
}

/// The uncached reference pipelines. The crossover has no uncached
/// builder; its reference is a pass's own output, pinned by the
/// provenance fingerprint instead.
pub fn reference(crossover: Vec<CrossoverRow>) -> Result<PassOutput, String> {
    let figure4 = scenarios()
        .iter()
        .map(figure4_panel)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("figure4 reference: {e}"))?;
    let surface = optimum_surface_study().map_err(|e| format!("surface reference: {e}"))?;
    Ok(PassOutput {
        figure4,
        crossover,
        surface,
    })
}

fn fingerprint_of(
    records: &[nanocost_trace::Record],
) -> Result<nanocost_sentinel::fingerprint::PipelineFingerprint, String> {
    let mut exporter = JsonlExporter;
    let mut text = String::new();
    for r in records {
        text.push_str(&exporter.render(r));
        text.push('\n');
    }
    fingerprint_jsonl(&text).map_err(|e| format!("fingerprint: {e}"))
}

/// Checks the `figure4` and `chiplet_crossover` provenance digests of
/// fresh cached pipelines against `fingerprints` (the text of
/// `FINGERPRINTS.json`). Returns the number of pipelines that drifted.
pub fn fingerprint_failures(fingerprints: &str) -> Result<usize, String> {
    let blessed =
        parse_fingerprint_file(fingerprints).map_err(|e| format!("FINGERPRINTS.json: {e}"))?;
    let (figure4, _) = with_collector(|| {
        let cache = ScenarioCache::paper_figure4();
        for s in &scenarios() {
            let _ = figure4_panel_cached(&cache, s);
        }
    });
    let (crossover, _) =
        with_collector(|| ChipletCache::defaults().map(|cache| chiplet_crossover_study(&cache)));
    let mut failed = 0;
    for (name, records) in [("figure4", figure4), ("chiplet_crossover", crossover)] {
        let pinned = blessed
            .pipelines
            .get(name)
            .ok_or(format!("no `{name}` pipeline pinned"))?;
        let drift = diff_pipeline(pinned, &fingerprint_of(&records)?);
        if !drift.is_empty() {
            eprintln!(
                "perfbench: {name} fingerprint drifted:\n{}",
                drift.join("\n")
            );
            failed += 1;
        }
    }
    Ok(failed)
}
