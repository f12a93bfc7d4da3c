//! Parsing and statistical diffing of `NANOCOST_BENCH_JSON` captures.
//!
//! The bench harness appends one JSON object per line: a run-manifest
//! header (`{"manifest":{...}}`) followed by one record per benchmark,
//! each carrying the full sorted per-iteration sample array
//! (`samples_s`). That lets [`diff`] run a rank-based Mann–Whitney test
//! instead of eyeballing medians — exactly the discipline Maly's
//! Figures 1–4 apply to `s_d` scatter.
//!
//! Several suite runs appended to one file are one capture: a name that
//! repeats pools its samples into a single record, so the paired perf
//! gate diffs the parent's concatenated rounds against the change's.

use std::collections::BTreeMap;

use crate::json::{self, JsonValue};
use crate::stats::mann_whitney;
use crate::{schema, SentinelError};

/// The run-manifest header of a capture.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Capture format version.
    pub format: u64,
    /// `rustc --version` of the producing toolchain.
    pub rustc: String,
    /// `debug` or `release`.
    pub opt_level: String,
    /// Samples collected per benchmark.
    pub sample_size: u64,
}

/// One benchmark's samples, pooled over every record of its name.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name, `suite/case`.
    pub name: String,
    /// Median of `samples_s`, in seconds.
    pub median_s: f64,
    /// Sorted per-iteration sample times in seconds (never empty).
    pub samples_s: Vec<f64>,
}

/// A parsed capture file: the first manifest plus one record per
/// benchmark name, in first-seen order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchFile {
    /// The first run manifest in the file, if any.
    pub manifest: Option<Manifest>,
    /// Benchmark records, one per name.
    pub records: Vec<BenchRecord>,
}

/// Parses a `NANOCOST_BENCH_JSON` capture (one JSON object per line;
/// blank lines ignored). Records that repeat a name — one per appended
/// suite run — pool their samples into one record.
///
/// # Errors
///
/// [`SentinelError::Parse`] on malformed JSON, [`SentinelError::Schema`]
/// when a line is valid JSON but not a manifest or benchmark record.
pub fn parse_bench_file(text: &str) -> Result<BenchFile, SentinelError> {
    let mut out = BenchFile::default();
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|error| SentinelError::Parse { line: lineno, error })?;
        if let Some(m) = v.get("manifest") {
            let m = parse_manifest(m, lineno)?;
            out.manifest.get_or_insert(m);
            continue;
        }
        let (name, samples_s) = parse_record(&v, lineno)?;
        match index.get(&name) {
            Some(&at) => out.records[at].samples_s.extend_from_slice(&samples_s),
            None => {
                index.insert(name.clone(), out.records.len());
                out.records.push(BenchRecord { name, median_s: 0.0, samples_s });
            }
        }
    }
    for r in &mut out.records {
        r.samples_s.sort_by(f64::total_cmp);
        r.median_s = r.samples_s[r.samples_s.len() / 2];
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

/// A record's name and its samples (non-empty, in file order).
fn parse_record(v: &JsonValue, line: usize) -> Result<(String, Vec<f64>), SentinelError> {
    let name = v
        .get("name")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| schema(line, "record missing string `name`"))?
        .to_string();
    let samples_s = v
        .get("samples_s")
        .and_then(JsonValue::as_arr)
        .filter(|arr| !arr.is_empty())
        .ok_or_else(|| schema(line, "record missing non-empty array `samples_s`"))?
        .iter()
        .map(|s| s.as_f64().ok_or_else(|| schema(line, "`samples_s` holds a non-number")))
        .collect::<Result<Vec<f64>, SentinelError>>()?;
    Ok((name, samples_s))
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
                crate::escape_json(&e.name),
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
/// `config.alpha`. A side with fewer than
/// [`MIN_SAMPLES`](crate::stats::MIN_SAMPLES) samples cannot be told
/// from noise, so its benchmark stays `Unchanged`.
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
    let p_value = mann_whitney(&base.samples_s, &cand.samples_s).map(|t| t.p);
    let significant = p_value.is_some_and(|p| p < config.alpha);
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
        let mut sorted = samples_s;
        sorted.sort_by(f64::total_cmp);
        BenchRecord { name: name.to_string(), median_s: sorted[sorted.len() / 2], samples_s: sorted }
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
    fn a_capture_that_repeats_a_name_parses_to_one_pooled_record() {
        // Three appended suite runs, the last 1.8x slower: one record
        // holding all 9 samples, sorted, with the median over the pool.
        let run = |scale: f64| {
            format!(
                "{{\"manifest\":{{\"format\":2,\"rustc\":\"rustc {scale}\",\
                 \"opt_level\":\"release\",\"sample_size\":3}}}}\n\
                 {{\"name\":\"s/x\",\"samples_s\":[{:e},{:e},{:e}]}}\n\
                 {{\"name\":\"s/y\",\"samples_s\":[1e-3,1e-3,1e-3]}}\n",
                1.0e-5 * scale,
                1.1e-5 * scale,
                1.2e-5 * scale
            )
        };
        let text = [run(1.0), run(1.0), run(1.8)].concat();
        let f = parse_bench_file(&text).expect("parses");
        assert_eq!(f.manifest.map(|m| m.rustc), Some("rustc 1".to_string()), "first manifest");
        let names: Vec<&str> = f.records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["s/x", "s/y"]);
        let x = &f.records[0];
        assert_eq!(x.samples_s.len(), 9);
        assert!(x.samples_s.windows(2).all(|w| w[0] <= w[1]), "re-sorted");
        // Two steady runs outvote the 1.8x one: the pooled median is the
        // steady runs' 1.2e-5 (the 5th of 9), not a slow sample.
        assert!((x.median_s - 1.2e-5).abs() < 1e-18, "{}", x.median_s);
    }

    #[test]
    fn a_record_without_samples_is_a_schema_error() {
        let text = "{\"name\":\"a/b\",\"median_s\":1e-5,\"samples_s\":[]}\n";
        match parse_bench_file(text) {
            Err(SentinelError::Schema { line: 1, .. }) => {}
            other => panic!("unexpected result: {other:?}"),
        }
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
