//! End-to-end test of the `bench_diff` CI gate: a deliberately slowed
//! benchmark in the candidate capture must be flagged `regressed` and
//! fail the process with a nonzero exit code, while a same-distribution
//! candidate passes with exit 0. The gate compares exactly one parent
//! capture with one candidate capture.

use std::path::PathBuf;
use std::process::Command;

use nanocost_sentinel::bench::{diff, parse_bench_file, DiffConfig, Verdict};

/// Renders one format-2 record whose sorted samples cluster around
/// `center` seconds with a deterministic ±2% spread.
fn record(name: &str, center: f64) -> String {
    let mut samples: Vec<f64> = (0..30)
        .map(|i| center * (0.98 + 0.04 * f64::from(i) / 29.0))
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    let rendered: Vec<String> = samples.iter().map(|s| format!("{s:e}")).collect();
    format!(
        "{{\"name\":\"{name}\",\"median_s\":{:e},\"min_s\":{:e},\"max_s\":{:e},\"samples\":30,\"iters\":64,\"samples_s\":[{}]}}\n",
        samples[15],
        samples[0],
        samples[29],
        rendered.join(",")
    )
}

fn capture(records: &[(&str, f64)]) -> String {
    let mut out = String::from(
        "{\"manifest\":{\"format\":2,\"rustc\":\"rustc test\",\"opt_level\":\"release\",\"sample_size\":30}}\n",
    );
    for &(name, center) in records {
        out.push_str(&record(name, center));
    }
    out
}

fn write_temp(label: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("bench_diff_gate_{}_{label}.json", std::process::id()));
    std::fs::write(&path, text).expect("write temp capture");
    path
}

#[test]
fn a_slowed_benchmark_is_regressed_and_fails_the_gate() {
    let baseline = capture(&[("suite/stable", 1.0e-3), ("suite/slowed", 2.0e-4)]);
    // `suite/slowed` runs 2x slower in the candidate; `suite/stable` is
    // identical, so the report must separate the two verdicts.
    let candidate = capture(&[("suite/stable", 1.0e-3), ("suite/slowed", 4.0e-4)]);

    let base = parse_bench_file(&baseline).expect("baseline parses");
    let cand = parse_bench_file(&candidate).expect("candidate parses");
    let report = diff(&base, &cand, DiffConfig::default());
    let verdict_of = |name: &str| {
        report
            .entries
            .iter()
            .find(|e| e.name == name)
            .expect("present")
            .verdict
    };
    assert_eq!(verdict_of("suite/slowed"), Verdict::Regressed);
    assert_eq!(verdict_of("suite/stable"), Verdict::Unchanged);
    assert_eq!(report.regressed(), 1);

    let base_path = write_temp("base", &baseline);
    let cand_path = write_temp("cand", &candidate);
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .arg(&base_path)
        .arg(&cand_path)
        .output()
        .expect("bench_diff runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "regression must exit 1: {stdout}");
    assert!(stdout.contains("regressed"), "{stdout}");
    assert!(stdout.contains("suite/slowed"), "{stdout}");
    let _ = std::fs::remove_file(base_path);
    let _ = std::fs::remove_file(cand_path);
}

#[test]
fn an_identical_candidate_passes_with_exit_zero() {
    let text = capture(&[("suite/a", 5.0e-4), ("suite/b", 3.0e-6)]);
    let base_path = write_temp("same_base", &text);
    let cand_path = write_temp("same_cand", &text);
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .arg(&base_path)
        .arg(&cand_path)
        .output()
        .expect("bench_diff runs");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("2 unchanged"));
    let _ = std::fs::remove_file(base_path);
    let _ = std::fs::remove_file(cand_path);
}

#[test]
fn an_improvement_is_reported_but_does_not_fail() {
    let baseline = capture(&[("suite/faster", 8.0e-4)]);
    let candidate = capture(&[("suite/faster", 4.0e-4)]);
    let base_path = write_temp("imp_base", &baseline);
    let cand_path = write_temp("imp_cand", &candidate);
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .arg(&base_path)
        .arg(&cand_path)
        .arg("--json")
        .output()
        .expect("bench_diff runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "improvements never gate: {stdout}");
    assert!(stdout.contains("\"verdict\":\"improved\""), "{stdout}");
    let _ = std::fs::remove_file(base_path);
    let _ = std::fs::remove_file(cand_path);
}

#[test]
fn three_captures_are_a_usage_error() {
    let text = capture(&[("suite/a", 5.0e-4)]);
    let path = write_temp("three", &text);
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args([&path, &path, &path])
        .output()
        .expect("bench_diff runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("usage: bench_diff <parent.json> <candidate.json>"), "{stderr}");
    let _ = std::fs::remove_file(path);
}
