//! A minimal, dependency-free stand-in for the Criterion benchmark API.
//!
//! The workspace must build and run with no network and no registry cache,
//! so the external `criterion` crate is gone. This module keeps the exact
//! call shape the `benches/*.rs` files already use (`Criterion`,
//! `benchmark_group`, `bench_function`, `bench_with_input`, `BenchmarkId`,
//! `criterion_group!`, `criterion_main!`) and times closures with
//! `std::time::Instant`, printing a median-of-samples summary per benchmark.
//!
//! It is intentionally small: warmup, N timed samples, median + min/max.
//! The statistical machinery lives downstream: with `NANOCOST_BENCH_JSON`
//! set, every benchmark appends a record carrying the full sorted
//! per-iteration sample array (plus a once-per-run manifest header).
//! Runs appended to one file pool per benchmark, and
//! `nanocost-sentinel`'s `bench_diff` bin turns a parent capture and a
//! candidate capture into a rank-tested regression verdict.

use std::hint::black_box as std_black_box;
use std::sync::Once;
use std::time::{Duration, Instant};

/// Default timed samples per benchmark (Criterion uses 100; 30 keeps
/// the full suite under a minute while still feeding the rank test).
const DEFAULT_SAMPLE_SIZE: usize = 30;

/// `NANOCOST_BENCH_JSON` capture format version written by this
/// harness. Format 2 added the manifest header and `samples_s`.
const BENCH_JSON_FORMAT: u32 = 2;

/// Re-export so benches can `use nanocost_bench::harness::black_box`.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Top-level benchmark driver, mirroring `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: DEFAULT_SAMPLE_SIZE }
    }
}

impl Criterion {
    /// Times a single benchmark function.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(name, self.sample_size, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.sample_size,
            _parent: self,
        }
    }
}

/// A named group of benchmarks, mirroring `criterion::BenchmarkGroup`.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Overrides the number of timed samples for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(3);
        self
    }

    /// Times one benchmark inside the group.
    pub fn bench_function<S, F>(&mut self, id: S, f: F) -> &mut Self
    where
        S: AsRef<str>,
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, id.as_ref());
        run_one(&full, self.sample_size, f);
        self
    }

    /// Times one benchmark parameterized by `input`.
    pub fn bench_with_input<S, I, F>(&mut self, id: S, input: &I, mut f: F) -> &mut Self
    where
        S: AsRef<str>,
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.as_ref());
        run_one(&full, self.sample_size, |b| f(b, input));
        self
    }

    /// Ends the group (no-op; kept for API compatibility).
    pub fn finish(&mut self) {}
}

/// Identifier for parameterized benchmarks, mirroring
/// `criterion::BenchmarkId`.
#[derive(Debug, Clone)]
pub struct BenchmarkId(String);

impl BenchmarkId {
    /// Builds an id from a parameter value, e.g. a problem size.
    pub fn from_parameter<P: std::fmt::Display>(p: P) -> Self {
        BenchmarkId(p.to_string())
    }

    /// Builds an id from a function name and a parameter value.
    pub fn new<P: std::fmt::Display>(name: &str, p: P) -> Self {
        BenchmarkId(format!("{name}/{p}"))
    }
}

impl AsRef<str> for BenchmarkId {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// Per-benchmark timing handle, mirroring `criterion::Bencher`.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times repeated calls of `routine`, auto-scaling the iteration count
    /// so each sample runs for roughly one millisecond.
    pub fn iter<O, R>(&mut self, mut routine: R)
    where
        R: FnMut() -> O,
    {
        let start = Instant::now();
        for _ in 0..self.iters {
            std_black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

/// Runs one benchmark: calibrate iteration count, warm up, sample, report.
fn run_one<F>(name: &str, samples: usize, mut f: F)
where
    F: FnMut(&mut Bencher),
{
    // Calibrate: grow the per-sample iteration count until one sample takes
    // at least ~1 ms, so short routines aren't lost in timer noise.
    let mut iters: u64 = 1;
    loop {
        let mut b = Bencher { iters, elapsed: Duration::ZERO };
        f(&mut b);
        if b.elapsed >= Duration::from_millis(1) || iters >= 1 << 20 {
            break;
        }
        iters *= 4;
    }

    let mut per_iter: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut b = Bencher { iters, elapsed: Duration::ZERO };
        f(&mut b);
        per_iter.push(b.elapsed.as_secs_f64() / iters as f64);
    }
    per_iter.sort_by(|a, b| a.total_cmp(b));
    let median = per_iter[per_iter.len() / 2];
    let min = per_iter[0];
    let max = per_iter[per_iter.len() - 1];
    println!(
        "bench {name:<48} median {} (min {}, max {}, {} samples x {} iters)",
        fmt_time(median),
        fmt_time(min),
        fmt_time(max),
        samples,
        iters
    );
    nanocost_trace::event!(
        "bench.result",
        name = name,
        median_s = median,
        min_s = min,
        max_s = max,
        samples = samples,
        iters = iters,
    );
    emit_json_record(name, median, min, max, iters, &per_iter);
}

/// Appends one machine-readable result line to the file named by
/// `NANOCOST_BENCH_JSON` (no-op when the variable is unset). The first
/// record of a process is preceded by a run-manifest header (format
/// version, rustc version, opt-level, default sample size); each record
/// carries the full sorted per-iteration sample array so `bench_diff`
/// can rank-test two captures instead of comparing bare medians.
fn emit_json_record(name: &str, median: f64, min: f64, max: f64, iters: u64, per_iter: &[f64]) {
    let Some(path) = std::env::var_os("NANOCOST_BENCH_JSON") else {
        return;
    };
    static MANIFEST: Once = Once::new();
    MANIFEST.call_once(|| {
        let line = format!(
            "{{\"manifest\":{{\"format\":{BENCH_JSON_FORMAT},\"rustc\":{},\"opt_level\":\"{}\",\"sample_size\":{DEFAULT_SAMPLE_SIZE}}}}}\n",
            nanocost_trace::value::json_string(&rustc_version()),
            if cfg!(debug_assertions) { "debug" } else { "release" },
        );
        append_line(&path, &line);
    });
    let samples_s: Vec<String> = per_iter.iter().map(|s| format!("{s:e}")).collect();
    let line = format!(
        "{{\"name\":{},\"median_s\":{median:e},\"min_s\":{min:e},\"max_s\":{max:e},\"samples\":{},\"iters\":{iters},\"samples_s\":[{}]}}\n",
        nanocost_trace::value::json_string(name),
        per_iter.len(),
        samples_s.join(",")
    );
    append_line(&path, &line);
}

/// Appends one line to the capture file, warning (not failing) on error.
fn append_line(path: &std::ffi::OsStr, line: &str) {
    let written = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| std::io::Write::write_all(&mut file, line.as_bytes()));
    if let Err(e) = written {
        eprintln!("bench: cannot append to {}: {e}", path.to_string_lossy());
    }
}

/// The producing toolchain's `rustc --version` line, or `unknown` when
/// rustc is not on PATH (the capture is still comparable, just less
/// traceable).
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Formats seconds with an SI prefix suited to the magnitude.
fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:.3} us", secs * 1e6)
    } else {
        format!("{:.1} ns", secs * 1e9)
    }
}

/// Mirrors `criterion::criterion_group!`: bundles benchmark functions into
/// one runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Mirrors `criterion::criterion_main!`: emits `main` running each group.
/// The generated `main` installs the `NANOCOST_TRACE` subscriber first, so
/// bench suites stream spans/metrics like every other bin.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let _trace = $crate::nanocost_trace::init_from_env();
            $( $group(); )+
        }
    };
}

// Make the macros importable as `nanocost_bench::harness::criterion_group`,
// matching how the bench files previously imported them from `criterion`.
pub use crate::{criterion_group, criterion_main};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        let mut calls = 0u64;
        c.bench_function("smoke/add", |b| {
            b.iter(|| black_box(1u64) + black_box(2u64));
            calls += 1;
        });
        assert!(calls > 0);
    }

    #[test]
    fn group_api_matches_criterion_shape() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shape");
        g.sample_size(3);
        g.bench_function("one", |b| b.iter(|| 2 + 2));
        g.bench_with_input(BenchmarkId::from_parameter(16), &16usize, |b, &n| {
            b.iter(|| (0..n).sum::<usize>())
        });
        g.finish();
    }

    #[test]
    fn benchmark_id_formats() {
        assert_eq!(BenchmarkId::from_parameter(256).as_ref(), "256");
        assert_eq!(BenchmarkId::new("scan", 4).as_ref(), "scan/4");
    }
}
