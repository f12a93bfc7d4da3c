//! Computes, checks, and blesses Eq.1–7 provenance fingerprints.
//!
//! ```text
//! fingerprint <capture.jsonl>
//!     Print the capture's per-equation fingerprints as JSON.
//!
//! fingerprint --check <pipeline> <capture.jsonl> [--file FINGERPRINTS.json]
//!     Compare against the checked-in fingerprints; exit 1 on drift with
//!     a per-equation diff. With NANOCOST_BLESS_FINGERPRINTS=1 (or
//!     --bless) the check becomes an update: the pipeline's entry is
//!     rewritten in place and the gate passes.
//! ```
//!
//! Exit code 0 clean, 1 on drift, 2 on usage, I/O, or parse errors.

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

use nanocost_sentinel::fingerprint::{
    diff_pipeline, fingerprint_jsonl, parse_fingerprint_file, render_fingerprint_file,
    FingerprintFile, PipelineFingerprint,
};
use nanocost_sentinel::SentinelError;

const USAGE: &str = "usage: fingerprint <capture.jsonl>\n\
                     \x20      fingerprint --check <pipeline> <capture.jsonl> \
                     [--file FINGERPRINTS.json] [--bless]";

/// The env var that turns `--check` into an in-place update.
const BLESS_ENV: &str = "NANOCOST_BLESS_FINGERPRINTS";

struct Args {
    pipeline: Option<String>,
    capture: String,
    file: String,
    bless: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut pipeline = None;
    let mut file = "FINGERPRINTS.json".to_string();
    let mut bless = std::env::var(BLESS_ENV).is_ok_and(|v| v == "1");
    let mut positional: Vec<String> = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--check" | "--file" => {
                let flag = argv[i].clone();
                i += 1;
                let v = argv.get(i).ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
                if flag == "--check" {
                    pipeline = Some(v.clone());
                } else {
                    file = v.clone();
                }
            }
            "--bless" => bless = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{USAGE}"))
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    if positional.len() != 1 {
        return Err(USAGE.to_string());
    }
    Ok(Args { pipeline, capture: positional.remove(0), file, bless })
}

fn compute(path: &str) -> Result<PipelineFingerprint, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| SentinelError::io(path, &e).to_string())?;
    fingerprint_jsonl(&text).map_err(|e| format!("{path}: {e}"))
}

fn render_pipeline(fp: &PipelineFingerprint) -> String {
    let mut file = FingerprintFile::default();
    file.pipelines.insert("capture".to_string(), fp.clone());
    render_fingerprint_file(&file)
}

fn check(args: &Args, pipeline: &str, actual: &PipelineFingerprint) -> Result<bool, String> {
    let mut checked = match std::fs::read_to_string(&args.file) {
        Ok(text) => parse_fingerprint_file(&text).map_err(|e| format!("{}: {e}", args.file))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound && args.bless => {
            FingerprintFile::default()
        }
        Err(e) => return Err(SentinelError::io(&args.file, &e).to_string()),
    };
    if args.bless {
        checked.pipelines.insert(pipeline.to_string(), actual.clone());
        std::fs::write(&args.file, render_fingerprint_file(&checked))
            .map_err(|e| SentinelError::io(&args.file, &e).to_string())?;
        eprintln!("fingerprint: blessed `{pipeline}` in {}", args.file);
        return Ok(true);
    }
    let empty = PipelineFingerprint::new();
    let expected = checked.pipelines.get(pipeline).unwrap_or(&empty);
    let drift = diff_pipeline(expected, actual);
    if drift.is_empty() {
        let eqs: Vec<&str> = actual.keys().map(String::as_str).collect();
        println!("fingerprint: `{pipeline}` clean ({} equations: {})", eqs.len(), eqs.join(", "));
        return Ok(true);
    }
    eprintln!(
        "fingerprint: `{pipeline}` drifted from {} ({} equation(s)):",
        args.file,
        drift.len()
    );
    for line in &drift {
        eprintln!("  {line}");
    }
    eprintln!("(set {BLESS_ENV}=1 and re-run to accept the new fingerprints)");
    Ok(false)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let actual = match compute(&args.capture) {
        Ok(fp) => fp,
        Err(msg) => {
            eprintln!("fingerprint: {msg}");
            return ExitCode::from(2);
        }
    };
    let Some(pipeline) = args.pipeline.clone() else {
        print!("{}", render_pipeline(&actual));
        return ExitCode::SUCCESS;
    };
    match check(&args, &pipeline, &actual) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("fingerprint: {msg}");
            ExitCode::from(2)
        }
    }
}
