//! Parsing and statistical diffing of `NANOCOST_BENCH_JSON` captures.
//!
//! The bench harness appends one JSON object per line: an optional
//! run-manifest header (`{"manifest":{...}}`, format 2) followed by one
//! record per benchmark. Format-2 records carry the full sorted
//! per-iteration sample array (`samples_s`), which lets
//! [`diff`] run a rank-based Mann–Whitney test instead of eyeballing
//! medians — exactly the discipline Maly's Figures 1–4 apply to `s_d`
//! scatter. Format-1 files (median/min/max only) still parse, and the
//! diff falls back to a median-only comparison for them.

use std::collections::BTreeMap;

use crate::json::{self, JsonValue};
use crate::stats::{mann_whitney, MIN_SAMPLES};
use crate::{schema, SentinelError};

/// The run-manifest header of a format-2 capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Capture format version (2 for per-sample captures).
    pub format: u64,
    /// `rustc --version` of the producing toolchain.
    pub rustc: String,
    /// `debug` or `release`.
    pub opt_level: String,
    /// Samples collected per benchmark.
    pub sample_size: u64,
}

/// One benchmark record from a capture file.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name, `suite/case`.
    pub name: String,
    /// Median per-iteration time in seconds.
    pub median_s: f64,
    /// Fastest per-iteration time in seconds.
    pub min_s: f64,
    /// Slowest per-iteration time in seconds.
    pub max_s: f64,
    /// Number of samples collected.
    pub samples: u64,
    /// Iterations per sample.
    pub iters: u64,
    /// Sorted per-iteration sample times in seconds (empty in format-1
    /// captures).
    pub samples_s: Vec<f64>,
}

/// A parsed capture file: optional manifest plus records in file order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchFile {
    /// The run manifest, when the capture is format 2.
    pub manifest: Option<Manifest>,
    /// Benchmark records in file order.
    pub records: Vec<BenchRecord>,
}

/// Parses a `NANOCOST_BENCH_JSON` capture (one JSON object per line;
/// blank lines ignored).
///
/// # Errors
///
/// [`SentinelError::Parse`] on malformed JSON, [`SentinelError::Schema`]
/// when a line is valid JSON but not a manifest or benchmark record.
pub fn parse_bench_file(text: &str) -> Result<BenchFile, SentinelError> {
    let mut out = BenchFile::default();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|error| SentinelError::Parse { line: lineno, error })?;
        if let Some(m) = v.get("manifest") {
            out.manifest = Some(parse_manifest(m, lineno)?);
            continue;
        }
        out.records.push(parse_record(&v, lineno)?);
    }
    Ok(out)
}

fn parse_manifest(v: &JsonValue, line: usize) -> Result<Manifest, SentinelError> {
    Ok(Manifest {
        format: v
            .get("format")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| schema(line, "manifest missing numeric `format`"))?,
        rustc: v
            .get("rustc")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| schema(line, "manifest missing string `rustc`"))?
            .to_string(),
        opt_level: v
            .get("opt_level")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| schema(line, "manifest missing string `opt_level`"))?
            .to_string(),
        sample_size: v
            .get("sample_size")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| schema(line, "manifest missing numeric `sample_size`"))?,
    })
}

fn parse_record(v: &JsonValue, line: usize) -> Result<BenchRecord, SentinelError> {
    let num = |key: &str| -> Result<f64, SentinelError> {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| schema(line, &format!("record missing numeric `{key}`")))
    };
    let samples_s = match v.get("samples_s") {
        None => Vec::new(),
        Some(arr) => arr
            .as_arr()
            .ok_or_else(|| schema(line, "`samples_s` must be an array"))?
            .iter()
            .map(|s| s.as_f64().ok_or_else(|| schema(line, "`samples_s` holds a non-number")))
            .collect::<Result<Vec<f64>, SentinelError>>()?,
    };
    Ok(BenchRecord {
        name: v
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| schema(line, "record missing string `name`"))?
            .to_string(),
        median_s: num("median_s")?,
        min_s: num("min_s")?,
        max_s: num("max_s")?,
        samples: v
            .get("samples")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| schema(line, "record missing numeric `samples`"))?,
        iters: v
            .get("iters")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| schema(line, "record missing numeric `iters`"))?,
        samples_s,
    })
}

/// Pools several captures into one reference distribution per
/// benchmark: per-sample arrays are concatenated and re-sorted (so a
/// downstream Mann–Whitney test runs against the merged scatter, with
/// tie correction handling the duplicates), `min_s`/`max_s` are the
/// extremes over all runs, `samples` is the total, and `median_s` is
/// the median of the pooled samples — or, for format-1 captures with
/// no per-sample data, the sample-count-weighted mean of the per-run
/// medians. The first manifest seen (if any) is kept. Pooling several
/// baseline runs this way damps single-run machine noise in the perf
/// gate.
#[must_use]
pub fn pool(files: &[BenchFile]) -> BenchFile {
    let mut manifest: Option<Manifest> = None;
    // name -> (pooled record, Σ(median·samples), Σ samples) — the
    // accumulators back the format-1 weighted-median fallback.
    let mut by_name: BTreeMap<String, (BenchRecord, f64, u64)> = BTreeMap::new();
    let mut order: Vec<String> = Vec::new();
    for f in files {
        if manifest.is_none() {
            manifest.clone_from(&f.manifest);
        }
        for r in &f.records {
            let weight = r.samples.max(1);
            match by_name.get_mut(&r.name) {
                None => {
                    order.push(r.name.clone());
                    by_name.insert(
                        r.name.clone(),
                        (r.clone(), r.median_s * weight as f64, weight),
                    );
                }
                Some((acc, median_weighted, total_weight)) => {
                    acc.min_s = acc.min_s.min(r.min_s);
                    acc.max_s = acc.max_s.max(r.max_s);
                    acc.samples += r.samples;
                    acc.samples_s.extend_from_slice(&r.samples_s);
                    *median_weighted += r.median_s * weight as f64;
                    *total_weight += weight;
                }
            }
        }
    }
    let records = order
        .into_iter()
        .filter_map(|name| by_name.remove(&name))
        .map(|(mut r, median_weighted, total_weight)| {
            r.samples_s.sort_by(f64::total_cmp);
            r.median_s = if r.samples_s.is_empty() {
                median_weighted / total_weight as f64
            } else {
                r.samples_s[r.samples_s.len() / 2]
            };
            r
        })
        .collect();
    BenchFile { manifest, records }
}

/// Knobs for [`diff`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Relative-median noise threshold: a shift is only actionable when
    /// `|Δmedian| / baseline_median` exceeds this.
    pub threshold: f64,
    /// Significance level for the Mann–Whitney test.
    pub alpha: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig { threshold: 0.25, alpha: 0.01 }
    }
}

/// Classification of one benchmark in a diff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Median moved down past the threshold, statistically significant.
    Improved,
    /// Median moved up past the threshold, statistically significant.
    Regressed,
    /// Within noise (or the shift is not significant).
    Unchanged,
    /// Present only in the baseline file.
    BaselineOnly,
    /// Present only in the candidate file.
    CandidateOnly,
}

impl Verdict {
    /// Stable lowercase label used in both report formats.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::BaselineOnly => "baseline-only",
            Verdict::CandidateOnly => "candidate-only",
        }
    }
}

/// One benchmark's comparison outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Benchmark name.
    pub name: String,
    /// Classification.
    pub verdict: Verdict,
    /// Baseline median in seconds, when present.
    pub base_median_s: Option<f64>,
    /// Candidate median in seconds, when present.
    pub cand_median_s: Option<f64>,
    /// `(cand − base) / base`, when both medians are present.
    pub rel_change: Option<f64>,
    /// Mann–Whitney two-sided p-value, when per-sample data allowed the
    /// rank test to run.
    pub p_value: Option<f64>,
}

/// Full result of diffing two capture files.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Configuration the diff ran with.
    pub config: DiffConfig,
    /// Per-benchmark outcomes, sorted by name.
    pub entries: Vec<DiffEntry>,
}

impl DiffReport {
    /// Number of benchmarks classified as regressed.
    #[must_use]
    pub fn regressed(&self) -> usize {
        self.entries.iter().filter(|e| e.verdict == Verdict::Regressed).count()
    }

    /// Number of benchmarks classified as improved.
    #[must_use]
    pub fn improved(&self) -> usize {
        self.entries.iter().filter(|e| e.verdict == Verdict::Improved).count()
    }

    /// Human-readable table plus a one-line summary.
    #[must_use]
    pub fn text_report(&self) -> String {
        let mut out = String::new();
        let name_w =
            self.entries.iter().map(|e| e.name.len()).max().unwrap_or(4).max("name".len());
        out.push_str(&format!(
            "{:<name_w$}  {:>12}  {:>12}  {:>8}  {:>10}  verdict\n",
            "name", "base", "candidate", "change", "p"
        ));
        for e in &self.entries {
            let base = e.base_median_s.map_or_else(|| "-".to_string(), format_seconds);
            let cand = e.cand_median_s.map_or_else(|| "-".to_string(), format_seconds);
            let change =
                e.rel_change.map_or_else(|| "-".to_string(), |r| format!("{:+.1}%", r * 100.0));
            let p = e.p_value.map_or_else(|| "-".to_string(), |p| format!("{p:.2e}"));
            out.push_str(&format!(
                "{:<name_w$}  {:>12}  {:>12}  {:>8}  {:>10}  {}\n",
                e.name,
                base,
                cand,
                change,
                p,
                e.verdict.label()
            ));
        }
        out.push_str(&format!(
            "\n{} benchmarks: {} regressed, {} improved, {} unchanged \
             (threshold {:.0}%, alpha {})\n",
            self.entries.len(),
            self.regressed(),
            self.improved(),
            self.entries.iter().filter(|e| e.verdict == Verdict::Unchanged).count(),
            self.config.threshold * 100.0,
            self.config.alpha,
        ));
        out
    }

    /// Machine-readable JSON report (one document).
    #[must_use]
    pub fn json_report(&self) -> String {
        let mut out = String::from("{\"config\":{");
        out.push_str(&format!(
            "\"threshold\":{},\"alpha\":{}}},\"regressed\":{},\"improved\":{},\"entries\":[",
            self.config.threshold,
            self.config.alpha,
            self.regressed(),
            self.improved()
        ));
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":{},\"verdict\":\"{}\"",
                json_escape(&e.name),
                e.verdict.label()
            ));
            if let Some(v) = e.base_median_s {
                out.push_str(&format!(",\"base_median_s\":{v:e}"));
            }
            if let Some(v) = e.cand_median_s {
                out.push_str(&format!(",\"cand_median_s\":{v:e}"));
            }
            if let Some(v) = e.rel_change {
                out.push_str(&format!(",\"rel_change\":{v:.6}"));
            }
            if let Some(v) = e.p_value {
                out.push_str(&format!(",\"p\":{v:e}"));
            }
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Renders a JSON string literal (the subset of escapes bench names can
/// contain; control chars are escaped numerically for safety).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `1.234 ms`-style rendering for a duration in seconds.
fn format_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

/// Compares a candidate capture against a baseline.
///
/// A benchmark is `Regressed`/`Improved` only when **both** the
/// relative-median shift exceeds `config.threshold` **and** the
/// Mann–Whitney test on the per-sample arrays rejects at
/// `config.alpha`. When either side lacks per-sample data (format-1
/// captures, or fewer than [`MIN_SAMPLES`] samples) the verdict falls
/// back to the median threshold alone — noisier, but never silent.
#[must_use]
pub fn diff(base: &BenchFile, cand: &BenchFile, config: DiffConfig) -> DiffReport {
    let base_by_name: BTreeMap<&str, &BenchRecord> =
        base.records.iter().map(|r| (r.name.as_str(), r)).collect();
    let cand_by_name: BTreeMap<&str, &BenchRecord> =
        cand.records.iter().map(|r| (r.name.as_str(), r)).collect();
    let mut names: Vec<&str> = base_by_name.keys().copied().collect();
    for name in cand_by_name.keys() {
        if !base_by_name.contains_key(name) {
            names.push(name);
        }
    }
    names.sort_unstable();

    let entries = names
        .into_iter()
        .filter_map(|name| match (base_by_name.get(name), cand_by_name.get(name)) {
            (Some(b), Some(c)) => Some(classify(b, c, config)),
            (Some(b), None) => Some(DiffEntry {
                name: name.to_string(),
                verdict: Verdict::BaselineOnly,
                base_median_s: Some(b.median_s),
                cand_median_s: None,
                rel_change: None,
                p_value: None,
            }),
            (None, Some(c)) => Some(DiffEntry {
                name: name.to_string(),
                verdict: Verdict::CandidateOnly,
                base_median_s: None,
                cand_median_s: Some(c.median_s),
                rel_change: None,
                p_value: None,
            }),
            // A name always comes from one of the two maps.
            (None, None) => None,
        })
        .collect();
    DiffReport { config, entries }
}

fn classify(base: &BenchRecord, cand: &BenchRecord, config: DiffConfig) -> DiffEntry {
    // Relative change is undefined for a zero/negative baseline median;
    // such a record is already garbage, so treat the shift as absent.
    let rel_change =
        (base.median_s > 0.0).then(|| (cand.median_s - base.median_s) / base.median_s);
    let test = if base.samples_s.len() >= MIN_SAMPLES && cand.samples_s.len() >= MIN_SAMPLES {
        mann_whitney(&base.samples_s, &cand.samples_s)
    } else {
        None
    };
    let p_value = test.map(|t| t.p);
    // Significant unless the rank test ran and says otherwise: with
    // per-sample data the p-value must clear alpha; without it the
    // median threshold alone decides.
    let significant = p_value.is_none_or(|p| p < config.alpha);
    let verdict = match rel_change {
        Some(r) if r > config.threshold && significant => Verdict::Regressed,
        Some(r) if r < -config.threshold && significant => Verdict::Improved,
        _ => Verdict::Unchanged,
    };
    DiffEntry {
        name: base.name.clone(),
        verdict,
        base_median_s: Some(base.median_s),
        cand_median_s: Some(cand.median_s),
        rel_change,
        p_value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, samples_s: Vec<f64>) -> BenchRecord {
        let mut sorted = samples_s.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted[sorted.len() / 2];
        BenchRecord {
            name: name.to_string(),
            median_s: median,
            min_s: sorted[0],
            max_s: sorted[sorted.len() - 1],
            samples: sorted.len() as u64,
            iters: 64,
            samples_s: sorted,
        }
    }

    fn file(records: Vec<BenchRecord>) -> BenchFile {
        BenchFile { manifest: None, records }
    }

    #[test]
    fn parses_format2_capture_with_manifest() {
        let text = concat!(
            "{\"manifest\":{\"format\":2,\"rustc\":\"rustc 1.80.0\",",
            "\"opt_level\":\"release\",\"sample_size\":30}}\n",
            "{\"name\":\"a/b\",\"median_s\":1e-5,\"min_s\":9e-6,\"max_s\":2e-5,",
            "\"samples\":3,\"iters\":64,\"samples_s\":[9e-6,1e-5,2e-5]}\n",
        );
        let f = parse_bench_file(text).expect("parses");
        let m = f.manifest.expect("has manifest");
        assert_eq!(m.format, 2);
        assert_eq!(m.opt_level, "release");
        assert_eq!(f.records.len(), 1);
        assert_eq!(f.records[0].samples_s.len(), 3);
    }

    #[test]
    fn parses_format1_capture_without_samples() {
        let text = "{\"name\":\"a/b\",\"median_s\":1e-5,\"min_s\":9e-6,\
                    \"max_s\":2e-5,\"samples\":30,\"iters\":64}\n";
        let f = parse_bench_file(text).expect("parses");
        assert!(f.manifest.is_none());
        assert!(f.records[0].samples_s.is_empty());
    }

    #[test]
    fn schema_errors_name_the_line() {
        let text = "{\"name\":\"a/b\"}\n";
        match parse_bench_file(text) {
            Err(SentinelError::Schema { line: 1, .. }) => {}
            other => panic!("unexpected result: {other:?}"),
        }
    }

    #[test]
    fn identical_runs_are_unchanged() {
        let samples: Vec<f64> = (0..30).map(|i| 1e-5 * (1.0 + 0.001 * f64::from(i))).collect();
        let base = file(vec![record("s/x", samples.clone())]);
        let cand = file(vec![record("s/x", samples)]);
        let report = diff(&base, &cand, DiffConfig::default());
        assert_eq!(report.entries[0].verdict, Verdict::Unchanged);
        assert_eq!(report.regressed(), 0);
    }

    #[test]
    fn a_doubled_median_is_regressed_and_a_halved_one_improved() {
        let samples: Vec<f64> = (0..30).map(|i| 1e-5 * (1.0 + 0.001 * f64::from(i))).collect();
        let slow: Vec<f64> = samples.iter().map(|v| v * 2.0).collect();
        let fast: Vec<f64> = samples.iter().map(|v| v * 0.5).collect();
        let base = file(vec![record("s/slow", samples.clone()), record("s/fast", samples)]);
        let cand = file(vec![record("s/slow", slow), record("s/fast", fast)]);
        let report = diff(&base, &cand, DiffConfig::default());
        let by_name: BTreeMap<&str, Verdict> =
            report.entries.iter().map(|e| (e.name.as_str(), e.verdict)).collect();
        assert_eq!(by_name["s/slow"], Verdict::Regressed);
        assert_eq!(by_name["s/fast"], Verdict::Improved);
        assert_eq!(report.regressed(), 1);
    }

    #[test]
    fn a_large_but_insignificant_shift_is_unchanged() {
        // Candidate median is 2x, but with wildly overlapping scatter the
        // rank test cannot reject, so the diff must stay quiet.
        let base_samples: Vec<f64> =
            (0..10).map(|i| if i % 2 == 0 { 1e-5 } else { 4e-5 }).collect();
        let cand_samples: Vec<f64> =
            (0..10).map(|i| if i % 2 == 0 { 4e-5 } else { 1.2e-5 }).collect();
        let base = file(vec![record("s/noisy", base_samples)]);
        let cand = file(vec![record("s/noisy", cand_samples)]);
        let report = diff(&base, &cand, DiffConfig::default());
        assert_eq!(report.entries[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn missing_benchmarks_are_flagged_but_not_regressions() {
        let samples: Vec<f64> = (0..30).map(|i| 1e-5 * (1.0 + 0.001 * f64::from(i))).collect();
        let base = file(vec![record("s/old", samples.clone())]);
        let cand = file(vec![record("s/new", samples)]);
        let report = diff(&base, &cand, DiffConfig::default());
        let by_name: BTreeMap<&str, Verdict> =
            report.entries.iter().map(|e| (e.name.as_str(), e.verdict)).collect();
        assert_eq!(by_name["s/old"], Verdict::BaselineOnly);
        assert_eq!(by_name["s/new"], Verdict::CandidateOnly);
        assert_eq!(report.regressed(), 0);
    }

    #[test]
    fn format1_fallback_uses_the_median_threshold_alone() {
        let mut b = record("s/x", vec![1e-5; 30]);
        let mut c = record("s/x", vec![3e-5; 30]);
        b.samples_s.clear();
        c.samples_s.clear();
        let report = diff(&file(vec![b]), &file(vec![c]), DiffConfig::default());
        assert_eq!(report.entries[0].verdict, Verdict::Regressed);
        assert_eq!(report.entries[0].p_value, None);
    }

    #[test]
    fn pooling_merges_samples_and_damps_an_outlier_run() {
        let steady: Vec<f64> = (0..30).map(|i| 1e-5 * (1.0 + 0.001 * f64::from(i))).collect();
        let noisy: Vec<f64> = steady.iter().map(|v| v * 1.8).collect();
        let pooled = pool(&[
            file(vec![record("s/x", steady.clone())]),
            file(vec![record("s/x", steady.clone())]),
            file(vec![record("s/x", noisy)]),
        ]);
        assert_eq!(pooled.records.len(), 1);
        let r = &pooled.records[0];
        assert_eq!(r.samples_s.len(), 90);
        assert_eq!(r.samples, 90);
        assert!(r.samples_s.windows(2).all(|w| w[0] <= w[1]), "re-sorted");
        // Two steady runs outvote the 1.8x outlier: the pooled median
        // stays near the steady median, not the 3-run mean.
        let steady_median = record("s/x", steady.clone()).median_s;
        assert!(
            (r.median_s - steady_median) / steady_median < 0.1,
            "pooled median {} vs steady {}",
            r.median_s,
            steady_median
        );
        // Diffing the steady run against the pooled reference is quiet.
        let report =
            diff(&pooled, &file(vec![record("s/x", steady)]), DiffConfig::default());
        assert_eq!(report.entries[0].verdict, Verdict::Unchanged);
    }

    #[test]
    fn pooling_format1_records_weights_medians_by_sample_count() {
        let mut a = record("s/x", vec![1e-5; 10]);
        let mut b = record("s/x", vec![2e-5; 30]);
        a.samples_s.clear();
        b.samples_s.clear();
        let pooled = pool(&[file(vec![a]), file(vec![b])]);
        let r = &pooled.records[0];
        // (1e-5·10 + 2e-5·30) / 40 = 1.75e-5.
        assert!((r.median_s - 1.75e-5).abs() < 1e-12, "{}", r.median_s);
        assert_eq!(r.samples, 40);
    }

    #[test]
    fn pooling_keeps_benchmarks_distinct_and_the_first_manifest() {
        let m = Manifest {
            format: 2,
            rustc: "rustc 1.80.0".to_string(),
            opt_level: "release".to_string(),
            sample_size: 30,
        };
        let one = BenchFile {
            manifest: Some(m.clone()),
            records: vec![record("s/a", vec![1e-5; 10])],
        };
        let two = BenchFile { manifest: None, records: vec![record("s/b", vec![2e-5; 10])] };
        let pooled = pool(&[one, two]);
        assert_eq!(pooled.manifest, Some(m));
        assert_eq!(pooled.records.len(), 2);
    }

    #[test]
    fn reports_round_trip_shapes() {
        let samples: Vec<f64> = (0..30).map(|i| 1e-5 * (1.0 + 0.001 * f64::from(i))).collect();
        let base = file(vec![record("s/x", samples.clone())]);
        let cand = file(vec![record("s/x", samples)]);
        let report = diff(&base, &cand, DiffConfig::default());
        let text = report.text_report();
        assert!(text.contains("s/x"), "text report lists the benchmark:\n{text}");
        let json_doc = crate::json::parse(&report.json_report()).expect("json report parses");
        assert_eq!(
            json_doc.get("entries").and_then(JsonValue::as_arr).map(<[JsonValue]>::len),
            Some(1)
        );
    }
}
