//! Satellite check for the scenario cache: a cached figure-4 sweep must
//! be provenance-indistinguishable from the uncached one.
//!
//! Both full sweeps (panels 4a and 4b, curves plus optima) run under a
//! thread-local trace collector; their Eq.-provenance fingerprints must
//! be bit-identical to each other *and* to the blessed `figure4` entry
//! in `FINGERPRINTS.json` — proving the cache's provenance replay is
//! transparent to the CI fingerprint gate.

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

use nanocost_bench::figures::figure4_panel_cached;
use nanocost_core::{Figure4Scenario, ScenarioCache, TotalCostModel};
use nanocost_fab::MaskCostModel;
use nanocost_sentinel::fingerprint::{
    diff_pipeline, fingerprint_jsonl, parse_fingerprint_file, PipelineFingerprint,
};
use nanocost_trace::export::{Exporter, JsonlExporter};
use nanocost_trace::{with_collector, Record};

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

#[test]
fn cached_and_uncached_sweeps_share_the_blessed_fingerprint() {
    let scenarios = [Figure4Scenario::paper_4a(), Figure4Scenario::paper_4b()];

    let (uncached_records, _) = with_collector(|| {
        let model = TotalCostModel::paper_figure4();
        let masks = MaskCostModel::default();
        for scenario in &scenarios {
            scenario.chart(&model, &masks).expect("uncached chart");
            for &um in &scenario.lambdas_um {
                scenario.optimum(&model, &masks, um).expect("uncached optimum");
            }
        }
    });

    let cache = ScenarioCache::paper_figure4();
    let (cached_records, _) = with_collector(|| {
        for scenario in &scenarios {
            figure4_panel_cached(&cache, scenario).expect("cached panel");
        }
    });
    assert!(
        cache.stats().hits > 0,
        "the shared cache must serve some of the sweep: {:?}",
        cache.stats()
    );

    let uncached = fingerprint_of(&uncached_records);
    let cached = fingerprint_of(&cached_records);
    let drift = diff_pipeline(&uncached, &cached);
    assert!(
        drift.is_empty(),
        "cached sweep fingerprint drifted from uncached:\n{}",
        drift.join("\n")
    );

    let blessed_text = std::fs::read_to_string("../../FINGERPRINTS.json")
        .expect("FINGERPRINTS.json at the workspace root");
    let blessed = parse_fingerprint_file(&blessed_text).expect("parsable fingerprint file");
    let figure4 = blessed
        .pipelines
        .get("figure4")
        .expect("a blessed figure4 pipeline");
    let drift = diff_pipeline(figure4, &cached);
    assert!(
        drift.is_empty(),
        "cached sweep drifted from blessed FINGERPRINTS.json:\n{}",
        drift.join("\n")
    );
}
