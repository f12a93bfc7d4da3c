//! Property tests for the federation wire format: a histogram rendered
//! to raw JSON, parsed back, and merged must be *bit-for-bit* equal to
//! the same merge done in-process — the wire adds nothing and loses
//! nothing — and a grid mismatch must be rejected over the wire exactly
//! as it is in-process. Randomness comes from the workspace's
//! deterministic xoshiro generator, so every run sees the same samples.

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

use nanocost_numeric::Rng64;
use nanocost_sentinel::federate::{histogram_from_raw, histogram_raw_json, RawSnapshot};
use nanocost_sentinel::{json, FleetView, LogHistogram, SentinelError};

/// Log-uniform samples spanning nanoseconds to kiloseconds, the range a
/// bench capture actually covers.
fn log_uniform_samples(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = Rng64::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let exponent = rng.next_f64() * 12.0 - 9.0; // 1e-9 ..= 1e3
            10f64.powf(exponent)
        })
        .collect()
}

/// Records the samples as one replica's stream, tagging every fourth
/// observation with an exemplar so the wire carries a realistic mix of
/// tagged and untagged buckets.
fn replica_histogram(seed: u64, n: usize, replica: &str) -> LogHistogram {
    let mut h = LogHistogram::new();
    for (i, v) in log_uniform_samples(seed, n).into_iter().enumerate() {
        if i % 4 == 0 {
            h.record_exemplar_tagged(v, &format!("{replica}-r{i}"), i as u64, replica);
        } else {
            h.record(v);
        }
    }
    h
}

/// Round-trips one histogram through the raw wire document.
fn wire_round_trip(h: &LogHistogram) -> LogHistogram {
    let raw = histogram_raw_json(h);
    let doc = json::parse(&raw).expect("raw histogram JSON parses");
    histogram_from_raw(&doc).expect("raw histogram validates")
}

#[test]
fn wire_round_trip_is_bit_exact() {
    for seed in [1, 7, 42, 1234] {
        let h = replica_histogram(seed, 2_000, "a");
        let back = wire_round_trip(&h);
        assert_eq!(back, h, "seed {seed}: wire round trip must be lossless");
        // And the rendering itself is byte-deterministic.
        assert_eq!(
            histogram_raw_json(&h),
            histogram_raw_json(&back),
            "seed {seed}: re-rendering the round trip must be byte-identical"
        );
    }
}

#[test]
fn empty_and_single_sample_histograms_round_trip() {
    let empty = LogHistogram::new();
    assert_eq!(wire_round_trip(&empty), empty);
    let mut one = LogHistogram::new();
    one.record_exemplar_tagged(2.5e-3, "r0", 17, "b");
    assert_eq!(wire_round_trip(&one), one);
}

#[test]
fn wire_merge_equals_in_process_merge_bit_for_bit() {
    for (seed_a, seed_b) in [(21, 22), (31, 99), (55, 7)] {
        let a = replica_histogram(seed_a, 1_500, "a");
        let b = replica_histogram(seed_b, 900, "b");

        // The reference: both shards merged without ever leaving the
        // process.
        let mut local = a.clone();
        local.merge(&b).expect("same grid");

        // The federated path: each shard crosses the wire first.
        let mut federated = wire_round_trip(&a);
        federated.merge(&wire_round_trip(&b)).expect("same grid");

        assert_eq!(
            federated, local,
            "seeds ({seed_a}, {seed_b}): scraping must not change the merge"
        );
        // The merged state also survives a further round trip — a
        // federator can itself be scraped.
        assert_eq!(wire_round_trip(&federated), local);
    }
}

#[test]
fn snapshot_merge_through_the_wire_matches_in_process_federation() {
    // Two full snapshots federated twice: once as built, once after a
    // to_json/parse round trip. The FleetView artifacts must be
    // byte-identical.
    let mut snapshots = Vec::new();
    for (label, seed) in [("a", 5_u64), ("b", 6_u64)] {
        let mut snap = RawSnapshot {
            replica: label.to_string(),
            t_ns: seed * 1_000,
            ..RawSnapshot::default()
        };
        snap.counters.insert("requests_total".to_string(), 1_000 + seed);
        snap.endpoints.insert("cost".to_string(), replica_histogram(seed, 1_200, label));
        snap.endpoints.insert("batch".to_string(), replica_histogram(seed + 50, 300, label));
        snapshots.push(snap);
    }
    let direct = FleetView::from_snapshots(&snapshots).expect("federates");
    let wired: Vec<RawSnapshot> = snapshots
        .iter()
        .map(|s| RawSnapshot::parse(&s.to_json()).expect("snapshot round trips"))
        .collect();
    assert_eq!(wired, snapshots, "snapshot round trip must be lossless");
    let federated = FleetView::from_snapshots(&wired).expect("federates");
    assert_eq!(
        federated.to_json(),
        direct.to_json(),
        "the fleet artifact must not depend on whether snapshots crossed the wire"
    );
    federated.reconcile(&snapshots).expect("merged counts equal per-replica sums");
}

#[test]
fn grid_mismatch_is_rejected_over_the_wire_exactly_as_in_process() {
    let coarse = {
        let mut h = LogHistogram::with_grid(32).expect("valid grid");
        for v in log_uniform_samples(3, 200) {
            h.record(v);
        }
        h
    };
    let fine = replica_histogram(4, 200, "a");

    // In-process merge refuses...
    let mut local = fine.clone();
    let in_process = local.merge(&coarse).expect_err("grids differ");

    // ...and the same pair refuses identically after crossing the wire.
    let mut federated = wire_round_trip(&fine);
    let over_wire = federated
        .merge(&wire_round_trip(&coarse))
        .expect_err("grids differ over the wire too");
    assert_eq!(format!("{in_process}"), format!("{over_wire}"));
    assert!(
        matches!(over_wire, SentinelError::GridMismatch(64, 32)),
        "unexpected error: {over_wire:?}"
    );
}
