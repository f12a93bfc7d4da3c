//! A memo over SiP evaluations: one core
//! [`Memo`](nanocost_core::memo::Memo), like each table of the core
//! [`ScenarioCache`](nanocost_core::ScenarioCache).
//!
//! Crossover sweeps revisit the same `(λ, s_d, N_tr, V, n)` points from
//! both the figure bin and the query server, so the chiplet model gets
//! the same treatment as eqs. 4/5/7: an LRU memo keyed on the exact
//! scenario inputs, where a traced hit replays the stored Eq.-C*
//! provenance as one shared record. Hit and miss are indistinguishable to the
//! fingerprint pipeline — the cached==uncached invariant the serve and
//! bench tests pin.

use nanocost_core::memo::{Locked, Memo};
use nanocost_core::{CacheStats, DEFAULT_CAPACITY};
use nanocost_units::UnitError;

use crate::assembly::AssemblyKind;
use crate::scenario::{ChipletModels, ChipletReport, ChipletScenario};

/// Exact identity of one SiP query: the bits of `λ`, `s_d`, `N_tr`,
/// the unit volume, then the split and its assembly.
type SipKey = ([u64; 4], u32, u32, AssemblyKind);

/// A thread-safe memo of SiP evaluations keyed on exact scenario
/// inputs, with shared Eq.-C* provenance replay on hits.
#[derive(Debug)]
pub struct ChipletCache {
    models: ChipletModels,
    reports: Locked<Memo<SipKey, ChipletReport>>,
}

impl ChipletCache {
    /// Builds a cache over the given model stack with the given LRU
    /// capacity (clamped to at least one entry).
    #[must_use]
    pub fn new(models: ChipletModels, capacity: usize) -> Self {
        ChipletCache { models, reports: Locked::new(Memo::new(capacity)) }
    }

    /// The cache over [`ChipletModels::defaults`] at the core cache's
    /// default capacity.
    ///
    /// # Errors
    ///
    /// Propagates [`UnitError`] from the default model constants
    /// (pinned valid by the test suite).
    pub fn defaults() -> Result<Self, UnitError> {
        Ok(ChipletCache::new(ChipletModels::defaults()?, DEFAULT_CAPACITY))
    }

    /// The model stack this cache evaluates on misses.
    #[must_use]
    pub fn models(&self) -> &ChipletModels {
        &self.models
    }

    /// SiP evaluation through the cache; identical in value and
    /// provenance to calling [`ChipletModels::evaluate`]. Errors are
    /// never cached.
    ///
    /// # Errors
    ///
    /// As [`ChipletModels::evaluate`].
    pub fn evaluate(&self, scenario: &ChipletScenario) -> Result<ChipletReport, UnitError> {
        // Validate before keying so degenerate scenarios (chiplets = 0,
        // inconsistent distinct_designs) never touch the table.
        scenario.validate()?;
        let key = (
            [
                scenario.lambda.microns().to_bits(),
                scenario.sd.squares().to_bits(),
                scenario.transistors.count().to_bits(),
                scenario.units.count(),
            ],
            scenario.chiplets,
            scenario.distinct_designs,
            scenario.assembly,
        );
        self.reports
            .get_or_compute(|m| m, key, || self.models.evaluate(scenario))
            .map(|(value, _hit)| value)
    }

    /// Snapshot of the lifetime hit/miss counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.reports.read(Memo::stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanocost_trace::export::{Exporter, JsonlExporter};
    use nanocost_trace::record::RecordKind;
    use nanocost_trace::with_collector;
    use nanocost_units::{ChipCount, DecompressionIndex, FeatureSize, TransistorCount};

    fn scenario(chiplets: u32) -> ChipletScenario {
        ChipletScenario {
            lambda: FeatureSize::from_microns(0.07).unwrap(),
            sd: DecompressionIndex::new(300.0).unwrap(),
            transistors: TransistorCount::from_millions(400.0),
            units: ChipCount::new(1_000_000),
            chiplets,
            distinct_designs: 1,
            assembly: AssemblyKind::Rdl,
        }
    }

    #[test]
    fn distinct_split_counts_are_distinct_entries() {
        let cache = ChipletCache::defaults().unwrap();
        cache.evaluate(&scenario(1)).unwrap();
        cache.evaluate(&scenario(2)).unwrap();
        let mut s = scenario(2);
        s.assembly = AssemblyKind::SiliconInterposer;
        cache.evaluate(&s).unwrap();
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 3));
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn hits_replay_the_full_chiplet_chain() {
        let cache = ChipletCache::defaults().unwrap();
        let s = scenario(4);
        let render = |records: &[nanocost_trace::record::Record]| -> Vec<String> {
            let mut exporter = JsonlExporter::new();
            records
                .iter()
                .filter(|r| matches!(r.kind, RecordKind::Provenance { .. }))
                .map(|r| {
                    let line = exporter.render(r);
                    let tail = line.find(",\"thread\"").unwrap_or(0);
                    line[tail..].to_string()
                })
                .collect()
        };
        let (miss, _) = with_collector(|| cache.evaluate(&s).unwrap());
        let (hit, _) = with_collector(|| cache.evaluate(&s).unwrap());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        let miss = render(&miss);
        assert_eq!(miss, render(&hit));
        // The full chiplet chain is present: C1, C2 (die + substrate),
        // C3, C4, C5, plus the NRE's paper eq. 5/6 emissions.
        for wanted in ["Eq.C1", "Eq.C2", "Eq.C3", "Eq.C4", "Eq.C5", "Eq.5", "Eq.6"] {
            assert!(
                miss.iter().any(|l| l.contains(&format!("\"equation\":\"{wanted}\""))),
                "missing {wanted} in {miss:?}"
            );
        }
    }
}
