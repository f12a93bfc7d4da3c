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
//! captured Eq.-provenance records are stored with the value; on a hit
//! they are replayed verbatim. A traced sweep therefore produces the
//! *same* provenance multiset — and the same pipeline fingerprint —
//! whether it was served from the memo or computed fresh.
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

use nanocost_trace::provenance::{self, Equation};
use nanocost_trace::record::{Record, RecordKind};
use nanocost_trace::value::Field;
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

/// One stored provenance record, replayed verbatim on every hit so hit
/// and miss paths are indistinguishable to the eq.-fingerprint
/// pipeline.
#[derive(Debug, Clone)]
struct ReplayRecord {
    equation: Equation,
    function: &'static str,
    inputs: Vec<Field>,
    outputs: Vec<Field>,
}

/// Extracts the provenance records from a capture frame.
fn replay_of(records: &[Record]) -> Vec<ReplayRecord> {
    records
        .iter()
        .filter_map(|r| match &r.kind {
            RecordKind::Provenance {
                equation,
                function,
                inputs,
                outputs,
                ..
            } => Some(ReplayRecord {
                equation: *equation,
                function,
                inputs: inputs.clone(),
                outputs: outputs.clone(),
            }),
            _ => None,
        })
        .collect()
}

/// Re-emits stored provenance (cheap no-op when tracing is disabled).
fn replay(replay: &[ReplayRecord]) {
    if !nanocost_trace::is_enabled() {
        return;
    }
    for r in replay {
        provenance::emit(r.equation, r.function, r.inputs.clone(), r.outputs.clone());
    }
}

/// Stored provenance, shared so a hit hands it back by refcount bump
/// instead of deep-cloning what can be an ~850-record optimum-search
/// stream. `None` marks an entry stored while tracing was disabled; a
/// traced computation that emitted zero provenance stores
/// `Some(empty)`, which still counts as captured — the two must not
/// share a sentinel or such entries would recompute on every traced
/// lookup.
type Replay = Option<Arc<Vec<ReplayRecord>>>;

struct Entry<V> {
    stamp: u64,
    value: V,
    replay: Replay,
}

/// A small LRU memo of fallible evaluations with verbatim
/// Eq.-provenance replay on hits, and its lookup counters. Recency is a
/// monotone stamp and eviction scans for the minimum: O(capacity)
/// eviction is deliberate — capacities are a few thousand entries and
/// the scan is branch-predictable, so this beats a linked-list LRU
/// without any unsafe code. Lookups go through the [`Locked`] that
/// holds the memo; errors are never cached.
pub struct Memo<K, V> {
    map: HashMap<K, Entry<V>>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    on_lookup: fn(bool),
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
    /// at most `capacity` entries (clamped to at least one). `on_lookup`
    /// is told each lookup's outcome (`true` on a hit) outside the lock;
    /// owners use it to bump their trace counters.
    #[must_use]
    pub fn new(capacity: usize, on_lookup: fn(bool)) -> Self {
        Memo {
            map: HashMap::new(),
            capacity: capacity.max(1),
            clock: 0,
            hits: 0,
            misses: 0,
            on_lookup,
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
/// All of a cache's tables share the lock so that concurrent lookups
/// contend as they always have. A lock per table was measured to shift
/// CPU between concurrent requests: on two cores, `sweep` optimum
/// searches stopped waiting behind batch inserts and the 1,000-query
/// batches lost about a quarter in p99 latency.
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
    /// stores the provenance for verbatim replay — even when the
    /// capture is legitimately empty. With tracing disabled the capture
    /// is skipped and the entry is stored replay-less; a later traced
    /// lookup of it recomputes under capture and re-stores.
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
        let (found, on_lookup) = {
            let mut tables = self.lock();
            let memo = table(&mut tables);
            (memo.lookup(&key, enabled), memo.on_lookup)
        };
        let hit = found.is_some();
        TALLY.with(|t| {
            let (hits, misses) = t.get();
            t.set((hits + u64::from(hit), misses + u64::from(!hit)));
        });
        on_lookup(hit);
        if let Some((value, stored)) = found {
            if let Some(records) = &stored {
                replay(records);
            }
            return Ok((value, true));
        }
        let (stored, result) = if enabled {
            let (records, result) = with_capture(compute);
            (Some(Arc::new(replay_of(&records))), result)
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

    fn ignore(_hit: bool) {}

    fn memo<V>(capacity: usize, on_lookup: fn(bool)) -> Locked<Memo<u64, V>> {
        Locked::new(Memo::new(capacity, on_lookup))
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
        let memo = memo(2, ignore);
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
        let memo: Locked<Memo<u64, u64>> = memo(4, ignore);
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
        let memo = memo(4, ignore);
        let (_, hits) = with_collector(|| (0..3).map(|_| lookup(&memo, 7)).collect::<Vec<_>>());
        assert_eq!(hits, [false, true, true]);
    }

    #[test]
    fn entries_warmed_without_tracing_recapture_on_first_traced_hit() {
        let memo = memo(4, ignore);
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
        let memo = memo(4, ignore);
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
    fn lookups_are_tallied_per_thread_and_reported() {
        fn flag(hit: bool) {
            SEEN.with(|s| s.set(s.get() + if hit { 10 } else { 1 }));
        }
        thread_local! {
            static SEEN: Cell<u64> = const { Cell::new(0) };
        }
        let memo = memo(4, flag);
        let before = thread_tally();
        lookup(&memo, 1);
        lookup(&memo, 1);
        // Another thread's traffic never lands in this thread's tally.
        std::thread::scope(|s| {
            s.spawn(|| lookup(&memo, 2));
        });
        let after = thread_tally();
        assert_eq!((after.0 - before.0, after.1 - before.1), (1, 1));
        assert_eq!(SEEN.with(Cell::get), 11);
        assert_eq!(stats(&memo).misses, 2);
    }
}
