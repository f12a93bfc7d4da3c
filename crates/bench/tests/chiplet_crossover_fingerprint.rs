//! Satellite check for the chiplet cache: a cached crossover sweep must
//! be provenance-indistinguishable from the uncached one.
//!
//! The full monolithic-vs-SiP sweep runs three ways — straight through
//! [`ChipletModels`], through a cold [`ChipletCache`], and again through
//! the now-warm cache (every point a replayed hit) — and all three
//! Eq.-provenance fingerprints must be bit-identical to each other *and*
//! to the blessed `chiplet_crossover` entry in `FINGERPRINTS.json`,
//! proving the cache's replay is transparent to the CI fingerprint gate.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "test code: a failed unwrap or panic is a failed test, and output is diagnostics"
)]

use nanocost_bench::figures::{
    chiplet_crossover_study, CROSSOVER_SIZES_M, CROSSOVER_SPLITS,
};
use nanocost_chiplet::{AssemblyKind, ChipletCache, ChipletModels, ChipletScenario};
use nanocost_sentinel::fingerprint::{
    diff_pipeline, fingerprint_jsonl, parse_fingerprint_file, PipelineFingerprint,
};
use nanocost_trace::export::{Exporter, JsonlExporter};
use nanocost_trace::{with_collector, Record};
use nanocost_units::{ChipCount, DecompressionIndex, FeatureSize, TransistorCount};

fn to_jsonl(records: &[Record]) -> String {
    let mut exporter = JsonlExporter;
    let mut out = String::new();
    for r in records {
        out.push_str(&exporter.render(r));
        out.push('\n');
    }
    out
}

fn fingerprint_of(records: &[Record]) -> PipelineFingerprint {
    fingerprint_jsonl(&to_jsonl(records)).expect("capture must fingerprint cleanly")
}

/// The crossover sweep evaluated directly on the model stack — the
/// reference stream every cached pass is held to.
fn uncached_sweep(models: &ChipletModels) {
    let lambda = FeatureSize::from_microns(0.07).expect("valid node");
    let sd = DecompressionIndex::new(300.0).expect("valid density");
    let units = ChipCount::new(1_000_000);
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
        models.evaluate(&base).expect("monolithic baseline");
        for kind in [AssemblyKind::Rdl, AssemblyKind::SiliconInterposer] {
            for n in CROSSOVER_SPLITS {
                models
                    .evaluate(&ChipletScenario {
                        chiplets: n,
                        distinct_designs: n,
                        assembly: kind,
                        ..base
                    })
                    .expect("split probe");
            }
        }
    }
}

#[test]
fn cached_and_uncached_sweeps_share_the_blessed_fingerprint() {
    let (uncached_records, ()) = with_collector(|| {
        let models = ChipletModels::defaults().expect("default models");
        uncached_sweep(&models);
    });

    let cache = ChipletCache::defaults().expect("default cache");
    let (cold_records, _) = with_collector(|| {
        chiplet_crossover_study(&cache).expect("cold sweep")
    });
    let misses_after_cold = cache.stats().misses;
    // A second pass over the warm cache: every point replays.
    let (warm_records, _) = with_collector(|| {
        chiplet_crossover_study(&cache).expect("warm sweep")
    });
    let stats = cache.stats();
    assert_eq!(
        stats.misses, misses_after_cold,
        "the warm pass must be hits only: {stats:?}"
    );
    assert!(stats.hits > misses_after_cold, "warm pass served from cache: {stats:?}");

    let uncached = fingerprint_of(&uncached_records);
    let cold = fingerprint_of(&cold_records);
    let warm = fingerprint_of(&warm_records);
    for (label, fp) in [("cold", &cold), ("warm", &warm)] {
        let drift = diff_pipeline(&uncached, fp);
        assert!(
            drift.is_empty(),
            "{label} cached sweep fingerprint drifted from uncached:\n{}",
            drift.join("\n")
        );
    }

    let blessed_text = std::fs::read_to_string("../../FINGERPRINTS.json")
        .expect("FINGERPRINTS.json at the workspace root");
    let blessed = parse_fingerprint_file(&blessed_text).expect("parsable fingerprint file");
    let pinned = blessed
        .pipelines
        .get("chiplet_crossover")
        .expect("a blessed chiplet_crossover pipeline");
    let drift = diff_pipeline(pinned, &warm);
    assert!(
        drift.is_empty(),
        "cached sweep drifted from blessed FINGERPRINTS.json:\n{}",
        drift.join("\n")
    );
}
