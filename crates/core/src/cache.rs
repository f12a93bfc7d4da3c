//! A scenario cache and batch evaluator over the cost model.
//!
//! The paper frames eqs. 1–7 as *queries* a design team asks repeatedly
//! while exploring the `(λ, s_d, N_tr, N_w, Y)` space — and the queries
//! overlap heavily: Figure 4's two panels share every node's mask cost
//! (eq. 5), and an interactive sweep revisits the same grid points over
//! and over. [`ScenarioCache`] memoizes the shared subterms that cost
//! more to recompute than to look up — eq.-5 mask-set costs, eq.-7
//! generalized reports, and located §3.1 optima — in one [`Memo`] each,
//! keyed on the exact bits of their inputs, so a cached answer always
//! equals the uncached one and carries the same replayed
//! Eq.-provenance. The three tables share one lock.
//!
//! Eq.-4 points are not memoized: an evaluation is a few dozen flops,
//! cheaper than a lookup under the shared lock, so
//! [`ScenarioCache::transistor_cost`] and [`ScenarioCache::evaluate_batch`]
//! call the model for every query.

use nanocost_fab::MaskCostModel;
use nanocost_units::{
    DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError, WaferCount, Yield,
};

use crate::generalized::{DesignPoint, GeneralizedCostModel, GeneralizedReport};
use crate::memo::{CacheStats, Locked, Memo};
use crate::optimize::{optimal_sd_total, DensityOptimum, OptimizeError};
use crate::total::{CostBreakdown, TotalCostModel};

// The lattice steps below are the resolution workload generators snap
// their inputs to. They no longer shape cache keys: keys are exact
// input bits.

/// Lattice step for feature size `λ`, in microns (eq. 1's node axis).
pub const LAMBDA_QUANTUM_UM: f64 = 1e-9;

/// Lattice step for the decompression index `s_d` (eq. 2's density axis).
pub const SD_QUANTUM: f64 = 1e-6;

/// Lattice step for the transistor count `N_tr` (eq. 4): one transistor.
pub const TRANSISTOR_QUANTUM: f64 = 1.0;

/// Lattice step for yield `Y` (eq. 3).
pub const YIELD_QUANTUM: f64 = 1e-9;

/// Default per-table entry capacity of [`ScenarioCache::paper_figure4`].
pub const DEFAULT_CAPACITY: usize = 4096;

/// One eq.-4 query: everything [`TotalCostModel::transistor_cost`]
/// needs to price a transistor at a design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostQuery {
    /// Process node `λ`.
    pub lambda: FeatureSize,
    /// Decompression index `s_d` (eq. 2).
    pub sd: DecompressionIndex,
    /// Design size `N_tr`.
    pub transistors: TransistorCount,
    /// Production volume `N_w`.
    pub volume: WaferCount,
    /// Assumed fab yield `Y` (eq. 3).
    pub fab_yield: Yield,
    /// Mask-set cost `C_ma` (eq. 5).
    pub mask_cost: Dollars,
}

impl CostQuery {
    fn key(&self) -> [u64; 6] {
        [
            self.lambda.microns().to_bits(),
            self.sd.squares().to_bits(),
            self.transistors.count().to_bits(),
            self.volume.count(),
            self.fab_yield.value().to_bits(),
            self.mask_cost.amount().to_bits(),
        ]
    }
}

/// A batch of eq.-4 queries evaluated as one unit.
#[derive(Debug, Clone, Default)]
pub struct BatchRequest {
    /// The query points, in response order.
    pub queries: Vec<CostQuery>,
}

/// The shape of one [`ScenarioCache::evaluate_batch`] request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Points requested (including duplicates).
    pub requested: usize,
    /// Distinct inputs among the requested points.
    pub unique: usize,
}

/// The result of one batch evaluation: per-point eq.-4 breakdowns in
/// request order, plus the request's shape.
#[derive(Debug, Clone)]
pub struct BatchResponse {
    /// One result per requested query, in order.
    pub results: Vec<Result<CostBreakdown, UnitError>>,
    /// Requested and distinct point counts of this batch.
    pub stats: BatchStats,
}

/// A thread-safe memo of cost-model evaluations keyed on exact inputs,
/// with shared Eq.-provenance replay on hits.
///
/// Wraps the three models the repeated queries of §3.1/§4 touch: the
/// eq.-4 [`TotalCostModel`] (whose points are evaluated directly; only
/// its §3.1 optima are memoized), the eq.-5 [`MaskCostModel`], and the
/// eq.-7 [`GeneralizedCostModel`].
#[derive(Debug)]
pub struct ScenarioCache {
    model: TotalCostModel,
    mask_model: MaskCostModel,
    generalized: GeneralizedCostModel,
    tables: Locked<Tables>,
}

#[derive(Debug)]
struct Tables {
    masks: Memo<u64, Dollars>,
    reports: Memo<[u64; 4], GeneralizedReport>,
    optima: Memo<[u64; 7], DensityOptimum>,
}

impl ScenarioCache {
    /// Builds a cache over the given models with the given per-table
    /// LRU capacity (clamped to at least one entry). The models are
    /// the eq.-4/5/7 implementations the cache memoizes.
    #[must_use]
    pub fn new(
        model: TotalCostModel,
        mask_model: MaskCostModel,
        generalized: GeneralizedCostModel,
        capacity: usize,
    ) -> Self {
        ScenarioCache {
            model,
            mask_model,
            generalized,
            tables: Locked::new(Tables {
                masks: Memo::new(capacity),
                reports: Memo::new(capacity),
                optima: Memo::new(capacity),
            }),
        }
    }

    /// The cache configured exactly as the paper's Figure 4:
    /// [`TotalCostModel::paper_figure4`], the default eq.-5 mask model,
    /// and the nanometer-default eq.-7 model.
    #[must_use]
    pub fn paper_figure4() -> Self {
        ScenarioCache::new(
            TotalCostModel::paper_figure4(),
            MaskCostModel::default(),
            GeneralizedCostModel::nanometer_default(),
            DEFAULT_CAPACITY,
        )
    }

    /// The eq.-4 model behind every point query and optimum search.
    #[must_use]
    pub fn model(&self) -> &TotalCostModel {
        &self.model
    }

    /// The eq.-5 mask model this cache evaluates on misses.
    #[must_use]
    pub fn mask_model(&self) -> &MaskCostModel {
        &self.mask_model
    }

    /// The eq.-7 generalized model this cache evaluates on misses.
    #[must_use]
    pub fn generalized_model(&self) -> &GeneralizedCostModel {
        &self.generalized
    }

    /// Eq.-4 transistor cost: a direct call to
    /// [`TotalCostModel::transistor_cost`], which is cheaper than any
    /// lookup.
    ///
    /// # Errors
    ///
    /// As the underlying model: domain violations (eq. 6's forbidden
    /// region, zero volume, …).
    #[allow(clippy::too_many_arguments, reason = "mirrors eq. 4's knobs")]
    pub fn transistor_cost(
        &self,
        lambda: FeatureSize,
        sd: DecompressionIndex,
        transistors: TransistorCount,
        volume: WaferCount,
        fab_yield: Yield,
        mask_cost: Dollars,
    ) -> Result<CostBreakdown, UnitError> {
        self.model
            .transistor_cost(lambda, sd, transistors, volume, fab_yield, mask_cost)
    }

    /// Eq.-5 mask-set cost through the cache; identical in value and
    /// provenance to calling [`MaskCostModel::mask_set_cost`].
    #[must_use]
    pub fn mask_set_cost(&self, lambda: FeatureSize) -> Dollars {
        let result: Result<_, std::convert::Infallible> =
            self.tables
                .get_or_compute(|t| &mut t.masks, lambda.microns().to_bits(), || {
                    Ok(self.mask_model.mask_set_cost(lambda))
                });
        match result {
            Ok((value, _hit)) => value,
            Err(never) => match never {},
        }
    }

    /// Eq.-7 generalized evaluation through the cache — the yield
    /// surface (eq. 3 by way of eq. 7) plus cost densities at a point.
    ///
    /// # Errors
    ///
    /// As [`GeneralizedCostModel::evaluate`]; errors are never cached.
    pub fn evaluate_generalized(
        &self,
        point: DesignPoint,
    ) -> Result<GeneralizedReport, UnitError> {
        let key = [
            point.lambda.microns().to_bits(),
            point.sd.squares().to_bits(),
            point.transistors.count().to_bits(),
            point.volume.count(),
        ];
        self.tables
            .get_or_compute(|t| &mut t.reports, key, || self.generalized.evaluate(point))
            .map(|(value, _hit)| value)
    }

    /// §3.1 optimum search through the cache. A miss runs the full
    /// [`optimal_sd_total`] bracket search and stores its entire
    /// Eq.-provenance stream (every probe), so a traced hit replays
    /// the search's provenance as one record that shares it.
    ///
    /// # Errors
    ///
    /// As [`optimal_sd_total`]; errors are never cached.
    #[allow(
        clippy::too_many_arguments,
        reason = "mirrors eq. 4's knobs plus the bracket"
    )]
    pub fn optimal_sd(
        &self,
        lambda: FeatureSize,
        transistors: TransistorCount,
        volume: WaferCount,
        fab_yield: Yield,
        mask_cost: Dollars,
        sd_lo: f64,
        sd_hi: f64,
    ) -> Result<DensityOptimum, OptimizeError> {
        let key = [
            lambda.microns().to_bits(),
            transistors.count().to_bits(),
            volume.count(),
            fab_yield.value().to_bits(),
            mask_cost.amount().to_bits(),
            sd_lo.to_bits(),
            sd_hi.to_bits(),
        ];
        self.tables
            .get_or_compute(|t| &mut t.optima, key, || {
                optimal_sd_total(
                    &self.model,
                    lambda,
                    transistors,
                    volume,
                    fab_yield,
                    mask_cost,
                    sd_lo,
                    sd_hi,
                )
            })
            .map(|(value, _hit)| value)
    }

    /// Evaluates a batch of eq.-4 queries in request order, calling the
    /// model for every query (duplicates included), so a traced batch
    /// emits exactly the uncached model's provenance.
    #[must_use]
    pub fn evaluate_batch(&self, request: &BatchRequest) -> BatchResponse {
        let unique: std::collections::HashSet<_> =
            request.queries.iter().map(CostQuery::key).collect();
        let stats = BatchStats {
            requested: request.queries.len(),
            unique: unique.len(),
        };
        let results = request
            .queries
            .iter()
            .map(|q| {
                self.transistor_cost(
                    q.lambda,
                    q.sd,
                    q.transistors,
                    q.volume,
                    q.fab_yield,
                    q.mask_cost,
                )
            })
            .collect();
        BatchResponse { results, stats }
    }

    /// Snapshot of the lifetime hit/miss counters and occupancy — the
    /// observability handle the §4-style serving loop exports.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let tables = self
            .tables
            .read(|t| [t.masks.stats(), t.reports.stats(), t.optima.stats()]);
        CacheStats {
            hits: tables.iter().map(|t| t.hits).sum(),
            misses: tables.iter().map(|t| t.misses).sum(),
            entries: tables.iter().map(|t| t.entries).sum(),
            capacity: tables[0].capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    fn query(sd: f64) -> CostQuery {
        CostQuery {
            lambda: um(0.18),
            sd: DecompressionIndex::new(sd).unwrap(),
            transistors: TransistorCount::from_millions(10.0),
            volume: WaferCount::new(5_000).unwrap(),
            fab_yield: Yield::new(0.4).unwrap(),
            mask_cost: Dollars::new(200_000.0),
        }
    }

    /// Sorted provenance lines of `records`, from `"equation"` on (the
    /// timestamp, thread and span id before it vary between runs).
    fn provenance_multiset(records: &[nanocost_trace::Record]) -> Vec<String> {
        use nanocost_trace::export::{Exporter, JsonlExporter};
        let mut exporter = JsonlExporter;
        let mut lines: Vec<String> = records
            .iter()
            .filter(|r| matches!(r.kind, nanocost_trace::RecordKind::Provenance { .. }))
            .map(|r| {
                let line = exporter.render(r);
                line[line.find("\"equation\"").unwrap()..].to_string()
            })
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn near_duplicate_inputs_are_distinct_entries() {
        // A quarter of the s_d lattice step apart: each input gets
        // its own eq.-7 entry and the model's own answer, whatever came
        // first.
        let cache = ScenarioCache::paper_figure4();
        let uncached = GeneralizedCostModel::nanometer_default();
        for sd in [400.0, 400.0 + SD_QUANTUM * 0.25, 400.0] {
            let point = DesignPoint {
                lambda: um(0.13),
                sd: DecompressionIndex::new(sd).unwrap(),
                transistors: TransistorCount::from_millions(10.0),
                volume: WaferCount::new(20_000).unwrap(),
            };
            let cached = cache.evaluate_generalized(point).unwrap();
            let direct = uncached.evaluate(point).unwrap();
            assert_eq!(
                cached.transistor_cost.amount().to_bits(),
                direct.transistor_cost.amount().to_bits()
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
    }

    #[test]
    fn batch_reports_its_shape_and_matches_the_uncached_model() {
        let cache = ScenarioCache::paper_figure4();
        let request = BatchRequest {
            queries: vec![query(250.0), query(350.0), query(250.0), query(250.0)],
        };
        let (batch_records, response) =
            nanocost_trace::with_collector(|| cache.evaluate_batch(&request));
        assert_eq!(
            response.stats,
            BatchStats {
                requested: 4,
                unique: 2
            }
        );
        let totals: Vec<u64> = response
            .results
            .iter()
            .map(|r| r.as_ref().unwrap().total().amount().to_bits())
            .collect();
        assert_eq!(totals[0], totals[2]);
        assert_eq!(totals[0], totals[3]);
        assert_ne!(totals[0], totals[1]);
        // Every query, duplicates included, is one model evaluation: the
        // traced batch emits the uncached model's provenance multiset.
        let model = TotalCostModel::paper_figure4();
        let (direct_records, _) = nanocost_trace::with_collector(|| {
            for q in &request.queries {
                let _ = model.transistor_cost(
                    q.lambda,
                    q.sd,
                    q.transistors,
                    q.volume,
                    q.fab_yield,
                    q.mask_cost,
                );
            }
        });
        let batch = provenance_multiset(&batch_records);
        assert!(!batch.is_empty(), "a traced batch emits eq.-4 provenance");
        assert_eq!(batch, provenance_multiset(&direct_records));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 0, 0));
    }

    #[test]
    fn cached_optimum_matches_uncached() {
        let cache = ScenarioCache::paper_figure4();
        let direct = optimal_sd_total(
            cache.model(),
            um(0.18),
            TransistorCount::from_millions(10.0),
            WaferCount::new(5_000).unwrap(),
            Yield::new(0.4).unwrap(),
            Dollars::new(200_000.0),
            110.0,
            1_500.0,
        )
        .unwrap();
        for _ in 0..2 {
            let cached = cache
                .optimal_sd(
                    um(0.18),
                    TransistorCount::from_millions(10.0),
                    WaferCount::new(5_000).unwrap(),
                    Yield::new(0.4).unwrap(),
                    Dollars::new(200_000.0),
                    110.0,
                    1_500.0,
                )
                .unwrap();
            assert_eq!(cached.sd.to_bits(), direct.sd.to_bits());
            assert_eq!(cached.cost.amount().to_bits(), direct.cost.amount().to_bits());
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn generalized_reports_are_cached() {
        let cache = ScenarioCache::paper_figure4();
        let point = DesignPoint {
            lambda: um(0.13),
            sd: DecompressionIndex::new(400.0).unwrap(),
            transistors: TransistorCount::from_millions(10.0),
            volume: WaferCount::new(20_000).unwrap(),
        };
        let a = cache.evaluate_generalized(point).unwrap();
        let b = cache.evaluate_generalized(point).unwrap();
        assert_eq!(
            a.transistor_cost.amount().to_bits(),
            b.transistor_cost.amount().to_bits()
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }
}
