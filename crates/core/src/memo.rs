//! The one memo behind every model cache in the workspace.
//!
//! The paper's §3.1 loop asks eqs. 1–7 the same questions again and
//! again. A [`Memo`] table answers a repeated question from a stored
//! entry behind a stamp-scan LRU; a [`Locked`] holds a cache's tables
//! behind one lock and runs every lookup. Callers key a memo on the
//! inputs' exact bit
//! patterns (`f64::to_bits` plus the integer fields), so every stored
//! answer is the model's answer at exactly that input: cached ==
//! uncached for every input, and no answer depends on which request
//! came first.
//!
//! The memo is provenance-transparent: on a miss while tracing is
//! enabled, the evaluation runs under a [`with_capture`] frame and the
//! captured Eq.-provenance calls are stored with the value, the calls
//! inside any inner hit's replay included. A hit hands them back as one
//! [`RecordKind::Replay`] record that shares the stored calls
//! ([`provenance::replay`]); every exporter renders it as the calls it
//! stands for. A traced sweep therefore produces the *same* provenance
//! multiset — and the same pipeline fingerprint — whether it was
//! served from the memo or computed fresh.
//!
//! While tracing is *disabled* the capture is skipped entirely — a
//! `with_capture` frame would force-enable the instrumentation macros
//! and pay their record-materialization cost for nobody — and the
//! entry is stored replay-less. Should tracing later be enabled and
//! hit such an entry, the memo recomputes it under capture (counted
//! as a miss) so the provenance invariant holds unconditionally.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use nanocost_trace::provenance;
use nanocost_trace::record::{ProvenanceCall, Record, RecordKind};
use nanocost_trace::with_capture;

/// Aggregate hit/miss/occupancy counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a stored entry.
    pub hits: u64,
    /// Lookups that fell through to a model evaluation.
    pub misses: u64,
    /// Entries currently stored across all tables.
    pub entries: usize,
    /// Per-table entry capacity.
    pub capacity: usize,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when no lookups happened) — the
    /// figure-of-merit for the paper's repeated-query exploration loop.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }
}

thread_local! {
    static TALLY: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// This thread's lifetime `(hits, misses)` across every [`Memo`]: its
/// share of the §3.1 loop's repeated queries. Work that runs on one
/// thread reads it before and after to learn its own cache traffic,
/// untouched by lookups on other threads.
#[must_use]
pub fn thread_tally() -> (u64, u64) {
    TALLY.with(Cell::get)
}

/// The provenance calls in a capture frame: each provenance record's,
/// and every call of each inner memo hit's replay, in emission order.
fn replay_of(records: &[Record]) -> Arc<[ProvenanceCall]> {
    let mut calls = Vec::new();
    for r in records {
        match &r.kind {
            RecordKind::Provenance { equation, function, inputs, outputs, .. } => {
                calls.push(ProvenanceCall {
                    equation: *equation,
                    function,
                    inputs: inputs.clone(),
                    outputs: outputs.clone(),
                });
            }
            RecordKind::Replay { calls: replayed, .. } => calls.extend_from_slice(replayed),
            _ => {}
        }
    }
    calls.into()
}

/// Stored provenance, shared so a hit hands it to the trace by refcount
/// bump instead of copying what can be an ~850-call optimum-search
/// stream. `None` marks an entry stored while tracing was disabled; a
/// traced computation that emitted zero provenance stores
/// `Some(empty)`, which still counts as captured — the two must not
/// share a sentinel or such entries would recompute on every traced
/// lookup.
type Replay = Option<Arc<[ProvenanceCall]>>;

struct Entry<V> {
    stamp: u64,
    value: V,
    replay: Replay,
}

/// A small LRU memo of fallible evaluations with shared
/// Eq.-provenance replay on hits, and its lookup counters. Recency is a
/// monotone stamp and eviction scans for the minimum: O(capacity)
/// eviction is deliberate — it runs only when a full table inserts,
/// and inserts follow misses that cost far more than the scan (an
/// optimum search, an eq.-7 report, a chiplet scenario) — so this
/// beats a linked-list LRU without any unsafe code. Lookups go through
/// the [`Locked`] that holds the memo; errors are never cached.
pub struct Memo<K, V> {
    map: HashMap<K, Entry<V>>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl<K, V> std::fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("Memo")
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("entries", &stats.entries)
            .field("capacity", &stats.capacity)
            .finish_non_exhaustive()
    }
}

impl<K, V> Memo<K, V> {
    /// An empty memo for one family of §3.1's repeated queries, holding
    /// at most `capacity` entries (clamped to at least one).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Memo {
            map: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Lifetime hit/miss counters and current occupancy — how often the
    /// §3.1 loop asked a question twice.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            entries: self.map.len(),
            capacity: self.capacity,
        }
    }
}

impl<K: Eq + Hash + Copy, V: Clone> Memo<K, V> {
    /// Looks `key` up and counts the outcome. An entry stored
    /// replay-less is a miss while tracing is `enabled`.
    fn lookup(&mut self, key: &K, enabled: bool) -> Option<(V, Replay)> {
        self.clock += 1;
        let clock = self.clock;
        let found = self.map.get_mut(key).and_then(|e| {
            e.stamp = clock;
            (!enabled || e.replay.is_some()).then(|| (e.value.clone(), e.replay.clone()))
        });
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    fn insert(&mut self, key: K, value: V, replay: Replay) {
        self.clock += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
        let stamp = self.clock;
        self.map.insert(key, Entry { stamp, value, replay });
    }
}

/// A cache's memo tables behind one lock.
///
/// All of a cache's tables share the lock. Each hold is one lookup or
/// one insert: a batch takes it for the eq.-5 mask-set cost of each
/// query, an optimum or yield request for its one search or report. A
/// lock per table would let optimum searches stop queueing behind that
/// mask traffic, which is no saving on two cores: when the tables were
/// last split this way, the freed searches took CPU from the
/// 1,000-query `sweep` batches and cost them about a quarter in p99
/// latency.
#[derive(Debug)]
pub struct Locked<T>(Mutex<T>);

impl<T> Locked<T> {
    /// Puts `tables` (one [`Memo`] or a struct of them, one per family
    /// of §3.1's repeated queries) behind one lock.
    #[must_use]
    pub fn new(tables: T) -> Self {
        Locked(Mutex::new(tables))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, T> {
        // A poisoned lock only means another thread panicked mid-insert;
        // the map itself is still structurally sound, so keep serving.
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Reads the tables under the lock, e.g. to sum their §3.1 lookup
    /// counters.
    pub fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.lock())
    }

    /// The stored answer to a repeated §3.1 query `key` in the memo
    /// `table` picks, or `compute()`'s, reporting whether it was a hit.
    /// The lookup and its hit/miss count take one lock acquisition.
    ///
    /// With tracing enabled, a miss computes under [`with_capture`] and
    /// stores the provenance calls for replay — even when the capture
    /// is legitimately empty — and a hit replays them as one shared
    /// record. With tracing disabled the capture is skipped and the
    /// entry is stored replay-less; a later traced lookup of it
    /// recomputes under capture and re-stores.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns; errors are never stored.
    pub fn get_or_compute<K, V, E>(
        &self,
        table: fn(&mut T) -> &mut Memo<K, V>,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E>
    where
        K: Eq + Hash + Copy,
        V: Clone,
    {
        let enabled = nanocost_trace::is_enabled();
        let found = table(&mut self.lock()).lookup(&key, enabled);
        let hit = found.is_some();
        TALLY.with(|t| {
            let (hits, misses) = t.get();
            t.set((hits + u64::from(hit), misses + u64::from(!hit)));
        });
        if let Some((value, stored)) = found {
            if let Some(calls) = &stored {
                provenance::replay(calls);
            }
            return Ok((value, true));
        }
        let (stored, result) = if enabled {
            let (records, result) = with_capture(compute);
            (Some(replay_of(&records)), result)
        } else {
            (None, compute())
        };
        let value = result?;
        table(&mut self.lock()).insert(key, value.clone(), stored);
        Ok((value, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanocost_fab::MaskCostModel;
    use nanocost_trace::export::{Exporter, JsonlExporter};
    use nanocost_trace::with_collector;
    use nanocost_units::{Dollars, FeatureSize};

    fn memo<V>(capacity: usize) -> Locked<Memo<u64, V>> {
        Locked::new(Memo::new(capacity))
    }

    fn stats<V>(memo: &Locked<Memo<u64, V>>) -> CacheStats {
        memo.read(Memo::stats)
    }

    fn lookup(memo: &Locked<Memo<u64, u64>>, key: u64) -> bool {
        let computed: Result<_, ()> = memo.get_or_compute(|m| m, key, || Ok(key * 10));
        let (value, hit) = computed.unwrap();
        assert_eq!(value, key * 10);
        hit
    }

    /// Eq.-5 mask-set cost through a memo keyed on λ's bits.
    fn mask_cost(memo: &Locked<Memo<u64, Dollars>>, lambda_um: f64) -> (Dollars, bool) {
        let lambda = FeatureSize::from_microns(lambda_um).unwrap();
        let computed: Result<_, ()> = memo.get_or_compute(|m| m, lambda_um.to_bits(), || {
            Ok(MaskCostModel::default().mask_set_cost(lambda))
        });
        computed.unwrap()
    }

    /// Provenance lines with the volatile timestamp/thread prefix cut.
    fn provenance_lines(records: &[Record]) -> Vec<String> {
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
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let memo = memo(2);
        let hits: Vec<bool> = [200, 300, 200, 400, 200, 300]
            .into_iter()
            .map(|k| lookup(&memo, k))
            .collect();
        // 300 is least recent when 400 arrives, so 300 goes, 200 stays.
        assert_eq!(hits, [false, false, true, false, true, false]);
        let stats = stats(&memo);
        assert_eq!(
            (stats.hits, stats.misses, stats.entries, stats.capacity),
            (2, 4, 2, 2)
        );
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn errors_are_not_cached() {
        let memo: Locked<Memo<u64, u64>> = memo(4);
        for _ in 0..2 {
            assert!(memo.get_or_compute(|m| m, 7, || Err("domain")).is_err());
        }
        let stats = stats(&memo);
        assert_eq!((stats.hits, stats.misses, stats.entries), (0, 2, 0));
    }

    #[test]
    fn traced_entries_with_empty_provenance_still_hit() {
        // A traced computation that legitimately emits zero provenance
        // is stored as "captured but empty", not "never captured" —
        // conflating the two would recompute it on every traced lookup.
        let memo = memo(4);
        let (_, hits) = with_collector(|| (0..3).map(|_| lookup(&memo, 7)).collect::<Vec<_>>());
        assert_eq!(hits, [false, true, true]);
    }

    #[test]
    fn entries_warmed_without_tracing_recapture_on_first_traced_hit() {
        let memo = memo(4);
        // No subscriber here: stored replay-less, no capture overhead.
        let (cold, _) = mask_cost(&memo, 0.18);
        // The first traced lookup must recompute under capture (a miss)
        // rather than silently drop the provenance...
        let (first, (warm, hit)) = with_collector(|| mask_cost(&memo, 0.18));
        assert_eq!(cold.amount().to_bits(), warm.amount().to_bits());
        assert!(!hit);
        assert!(
            !provenance_lines(&first).is_empty(),
            "recapture emits provenance"
        );
        // ...and the recaptured entry then replays on a traced hit.
        let (second, (_, hit)) = with_collector(|| mask_cost(&memo, 0.18));
        assert!(hit);
        assert_eq!(provenance_lines(&first), provenance_lines(&second));
        let stats = stats(&memo);
        assert_eq!((stats.hits, stats.misses), (1, 2));
    }

    #[test]
    fn hits_replay_identical_provenance() {
        let memo = memo(4);
        let (miss, (_, hit)) = with_collector(|| mask_cost(&memo, 0.13));
        assert!(!hit);
        let (again, (_, hit)) = with_collector(|| mask_cost(&memo, 0.13));
        assert!(hit);
        let miss = provenance_lines(&miss);
        assert!(!miss.is_empty(), "miss path must emit provenance");
        assert_eq!(
            miss,
            provenance_lines(&again),
            "hit must replay the miss verbatim"
        );
    }

    #[test]
    fn a_hit_replays_one_record_that_shares_the_stored_calls() {
        let memo = memo(4);
        let (miss, _) = with_capture(|| mask_cost(&memo, 0.13));
        let (hits, _) = with_capture(|| (mask_cost(&memo, 0.13), mask_cost(&memo, 0.13)));
        let shared: Vec<&Arc<[ProvenanceCall]>> = hits
            .iter()
            .map(|r| match &r.kind {
                RecordKind::Replay { calls, .. } => calls,
                other => panic!("a hit dispatched {other:?}"),
            })
            .collect();
        assert_eq!(shared.len(), 2, "one record per hit");
        assert!(Arc::ptr_eq(shared[0], shared[1]), "both hits share the entry's calls");
        let emitted = miss
            .iter()
            .filter(|r| matches!(r.kind, RecordKind::Provenance { .. }))
            .count();
        assert!(emitted > 0);
        assert_eq!(shared[0].len(), emitted);
    }

    #[test]
    fn nested_memos_replay_the_uncached_provenance_multiset() {
        // An outer memo whose evaluation asks an inner one: the outer
        // miss sees the inner hits as replays and must store their
        // calls, or the outer hit would replay less than a fresh run.
        let inner = memo(4);
        let outer: Locked<Memo<u64, Dollars>> = memo(4);
        let outer_cost = || -> (Dollars, bool) {
            let computed: Result<_, ()> = outer.get_or_compute(|m| m, 1, || {
                let (a, _) = mask_cost(&inner, 0.18);
                let (b, _) = mask_cost(&inner, 0.13);
                Ok(a + b)
            });
            computed.unwrap()
        };
        let multiset = |records: &[Record]| {
            let mut lines = provenance_lines(records);
            lines.sort();
            lines
        };
        let (uncached, _) = with_collector(|| {
            let masks = MaskCostModel::default();
            for um in [0.18, 0.13] {
                let _ = masks.mask_set_cost(FeatureSize::from_microns(um).unwrap());
            }
        });
        let uncached = multiset(&uncached);
        assert!(!uncached.is_empty());
        let _ = with_collector(|| (mask_cost(&inner, 0.18), mask_cost(&inner, 0.13)));
        let (miss, (_, hit)) = with_collector(outer_cost);
        assert!(!hit);
        assert_eq!(multiset(&miss), uncached, "outer miss over inner hits");
        let (again, (_, hit)) = with_collector(outer_cost);
        assert!(hit);
        assert_eq!(multiset(&again), uncached, "outer hit");
        let stats = stats(&inner);
        assert_eq!((stats.hits, stats.misses), (2, 2), "the outer miss hit the inner memo");
    }

    #[test]
    fn lookups_are_tallied_per_thread_and_reported() {
        let memo = memo(4);
        let before = thread_tally();
        lookup(&memo, 1);
        lookup(&memo, 1);
        // Another thread's traffic never lands in this thread's tally.
        std::thread::scope(|s| {
            s.spawn(|| lookup(&memo, 2));
        });
        let after = thread_tally();
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1));
        assert_eq!(stats(&memo).misses, 2);
    }
}
