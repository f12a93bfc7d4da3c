//! Gates on sampling-profile drift: compares two `ProfileReport` JSON
//! documents (saved `/v1/profile` payloads or `trace_profile --samples`
//! output) frame by frame and fails when any frame's share of self
//! samples grew by more than a configurable relative threshold.
//!
//! ```text
//! profile_diff --against base.json current.json
//! profile_diff --against base.json current.json --threshold 0.25 --min-share 0.02
//! ```
//!
//! A frame regresses when its current self-share is at least
//! `--min-share` (frames too small to matter never fail the gate) AND
//! the share grew by more than `--threshold × max(base_share,
//! min_share)` — a *relative* bound, so a frame going 1% → 1.4% at the
//! default 25% threshold fails only once it clears the noise floor.
//! Diffing a report against itself always passes: the gate is
//! self-consistent by construction.
//!
//! Exit code 0 when no frame regresses, 1 on regression, 2 on usage,
//! I/O, or parse errors.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary's console is its interface, and it may abort on a fatal error"
)]

use std::process::ExitCode;

use nanocost_sentinel::profile::ProfileReport;
use nanocost_sentinel::SentinelError;

const USAGE: &str = "usage: profile_diff --against <base.json> <current.json> \
                     [--threshold F] [--min-share F]";

/// Default relative growth bound (25% of the larger of base share and
/// the noise floor).
const DEFAULT_THRESHOLD: f64 = 0.25;

/// Default noise floor: frames below 2% of self samples never regress.
const DEFAULT_MIN_SHARE: f64 = 0.02;

/// One frame's share movement between the two reports.
struct ShareShift {
    name: String,
    base_share: f64,
    cur_share: f64,
    regressed: bool,
}

fn parse_fraction(flag: &str, value: Option<&String>) -> Result<f64, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
    let v: f64 = raw
        .parse()
        .map_err(|_| format!("{flag} {raw}: not a number\n{USAGE}"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{flag} {raw}: must be a non-negative number\n{USAGE}"));
    }
    Ok(v)
}

fn load_report(path: &str) -> Result<ProfileReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| SentinelError::io(path, &e).to_string())?;
    ProfileReport::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Compares every frame present in either report. Returns the shifts
/// sorted by current-share descending so the table leads with what
/// matters now.
fn diff(base: &ProfileReport, cur: &ProfileReport, threshold: f64, min_share: f64) -> Vec<ShareShift> {
    let mut names: Vec<&str> = base
        .frames
        .iter()
        .chain(&cur.frames)
        .map(|f| f.name.as_str())
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut shifts: Vec<ShareShift> = names
        .into_iter()
        .map(|name| {
            let base_share = base.self_share(name);
            let cur_share = cur.self_share(name);
            let allowance = threshold * base_share.max(min_share);
            let regressed = cur_share >= min_share && cur_share - base_share > allowance;
            ShareShift { name: name.to_string(), base_share, cur_share, regressed }
        })
        .collect();
    shifts.sort_by(|a, b| {
        b.cur_share
            .total_cmp(&a.cur_share)
            .then_with(|| a.name.cmp(&b.name))
    });
    shifts
}

/// `Ok(report_text)` when the gate passes, `Err((report_text, code))`
/// when it regresses (1) or the invocation is invalid (2).
fn run(argv: &[String]) -> Result<String, (String, u8)> {
    let mut base_path: Option<&str> = None;
    let mut cur_path: Option<&str> = None;
    let mut threshold = DEFAULT_THRESHOLD;
    let mut min_share = DEFAULT_MIN_SHARE;
    let usage = |msg: String| (msg, 2u8);
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--against" => {
                base_path = Some(
                    args.next()
                        .ok_or_else(|| usage(format!("--against needs a path\n{USAGE}")))?,
                );
            }
            "--threshold" => {
                threshold = parse_fraction("--threshold", args.next()).map_err(usage)?;
            }
            "--min-share" => {
                min_share = parse_fraction("--min-share", args.next()).map_err(usage)?;
            }
            "--help" | "-h" => return Err(usage(USAGE.to_string())),
            other if other.starts_with('-') => {
                return Err(usage(format!("unknown flag `{other}`\n{USAGE}")))
            }
            other => {
                if cur_path.is_some() {
                    return Err(usage(USAGE.to_string()));
                }
                cur_path = Some(other);
            }
        }
    }
    let base_path = base_path.ok_or_else(|| usage(USAGE.to_string()))?;
    let cur_path = cur_path.ok_or_else(|| usage(USAGE.to_string()))?;
    let base = load_report(base_path).map_err(usage)?;
    let cur = load_report(cur_path).map_err(usage)?;
    let shifts = diff(&base, &cur, threshold, min_share);

    let mut out = format!(
        "profile_diff: {} base samples vs {} current samples \
         (threshold {threshold}, min-share {min_share})\n",
        base.samples, cur.samples
    );
    out.push_str(&format!("{:>8}  {:>8}  {:>7}  frame\n", "base", "current", "shift"));
    for s in shifts.iter().filter(|s| s.base_share > 0.0 || s.cur_share > 0.0) {
        out.push_str(&format!(
            "{:>7.2}%  {:>7.2}%  {:>+6.2}%  {}{}\n",
            s.base_share * 100.0,
            s.cur_share * 100.0,
            (s.cur_share - s.base_share) * 100.0,
            s.name,
            if s.regressed { "  << REGRESSED" } else { "" }
        ));
    }
    let regressions = shifts.iter().filter(|s| s.regressed).count();
    if regressions > 0 {
        out.push_str(&format!("{regressions} frame(s) regressed\n"));
        return Err((out, 1));
    }
    out.push_str("no self-share regressions\n");
    Ok(out)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err((msg, 1)) => {
            print!("{msg}");
            ExitCode::from(1)
        }
        Err((msg, code)) => {
            eprintln!("{msg}");
            ExitCode::from(code)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanocost_sentinel::profile::{stack_samples_from_jsonl, ProfileReport};

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    fn write_report(name: &str, report: &ProfileReport) -> String {
        let dir = std::env::temp_dir().join("nanocost_profile_diff_tests");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(name);
        std::fs::write(&path, report.to_json()).expect("write report");
        path.to_string_lossy().into_owned()
    }

    fn report(leaf_counts: &[(&str, u64)]) -> ProfileReport {
        let mut lines = Vec::new();
        let mut t_ns = 1_000u64;
        for (leaf, count) in leaf_counts {
            for _ in 0..*count {
                lines.push(format!(
                    "{{\"ts_us\":1,\"thread\":1,\"type\":\"stack_sample\",\"depth\":2,\
                     \"t_ns\":{t_ns},\"frames\":[\"serve.request\",\"{leaf}\"]}}"
                ));
                t_ns += 100;
            }
        }
        let samples = stack_samples_from_jsonl(&lines.join("\n")).expect("parses");
        ProfileReport::from_samples(&samples, None)
    }

    #[test]
    fn self_diff_always_passes() {
        let path = write_report("self.json", &report(&[("a", 50), ("b", 50)]));
        let out = run(&args(&["--against", &path, &path])).expect("self diff passes");
        assert!(out.contains("no self-share regressions"), "{out}");
    }

    #[test]
    fn a_grown_share_regresses_and_small_frames_do_not() {
        let base = write_report("base.json", &report(&[("a", 80), ("b", 20)]));
        // `b` jumps 20% → 60%: far past 25% relative growth.
        let cur = write_report("cur.json", &report(&[("a", 40), ("b", 60)]));
        let (out, code) = run(&args(&["--against", &base, &cur])).expect_err("regression");
        assert_eq!(code, 1);
        assert!(out.contains("REGRESSED"), "{out}");
        assert!(out.contains("serve.endpoint") || out.contains('b'), "{out}");
        // The same shift with a huge min-share floor passes: too small
        // to matter.
        let out = run(&args(&["--against", &base, &cur, "--min-share", "0.9"]))
            .expect("floored diff passes");
        assert!(out.contains("no self-share regressions"), "{out}");
        // And with a huge threshold it also passes.
        assert!(run(&args(&["--against", &base, &cur, "--threshold", "50"])).is_ok());
    }

    #[test]
    fn shrunken_shares_never_regress() {
        let base = write_report("shrink_base.json", &report(&[("a", 90), ("b", 10)]));
        let cur = write_report("shrink_cur.json", &report(&[("a", 95), ("b", 5)]));
        // `a` grew 90% → 95%: within 25% relative growth (allowance
        // 22.5 points); `b` shrank. No regression.
        assert!(run(&args(&["--against", &base, &cur])).is_ok());
    }

    #[test]
    fn usage_and_io_errors_exit_2() {
        for bad in [
            args(&[]),
            args(&["--against"]),
            args(&["only.json"]),
            args(&["--against", "missing.json", "also-missing.json"]),
            args(&["--against", "a.json", "b.json", "--threshold", "abc"]),
            args(&["--against", "a.json", "b.json", "--min-share", "-1"]),
        ] {
            match run(&bad) {
                Err((_, 2)) => {}
                other => panic!("expected usage error for {bad:?}, got {other:?}"),
            }
        }
    }
}
