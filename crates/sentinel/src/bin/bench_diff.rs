//! Compares a candidate `NANOCOST_BENCH_JSON` capture against its
//! parent's and gates on regressions.
//!
//! ```text
//! bench_diff <parent.json> <candidate.json> [--threshold 0.25]
//!            [--alpha 0.01] [--json]
//! ```
//!
//! Each file may hold several appended suite runs; a benchmark's
//! records pool into one sample set per side before the tie-corrected
//! Mann–Whitney test runs.
//!
//! Exit code 0 when no benchmark regressed, 1 when at least one did,
//! 2 on usage or I/O errors. `--json` swaps the text table for the
//! machine-readable report.

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

use nanocost_sentinel::bench::{diff, parse_bench_file, BenchFile, DiffConfig};
use nanocost_sentinel::SentinelError;

struct Args {
    parent: String,
    candidate: String,
    config: DiffConfig,
    json: bool,
}

fn usage() -> String {
    "usage: bench_diff <parent.json> <candidate.json> [--threshold REL] [--alpha P] [--json]"
        .to_string()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional: Vec<String> = Vec::new();
    let mut config = DiffConfig::default();
    let mut json = false;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--json" => json = true,
            flag @ ("--threshold" | "--alpha") => {
                i += 1;
                let v = argv.get(i).ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
                let parsed = v.parse().map_err(|_| format!("bad {flag} `{v}`"))?;
                if flag == "--threshold" {
                    config.threshold = parsed;
                } else {
                    config.alpha = parsed;
                }
            }
            "--help" | "-h" => return Err(usage()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`\n{}", usage()))
            }
            other => positional.push(other.to_string()),
        }
        i += 1;
    }
    match <[String; 2]>::try_from(positional) {
        Ok([parent, candidate]) => Ok(Args { parent, candidate, config, json }),
        Err(_) => Err(usage()),
    }
}

fn load(path: &str) -> Result<BenchFile, SentinelError> {
    let text = std::fs::read_to_string(path).map_err(|e| SentinelError::io(path, &e))?;
    parse_bench_file(&text)
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
    let (base, cand) = match (load(&args.parent), load(&args.candidate)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("bench_diff: {e}");
            return ExitCode::from(2);
        }
    };
    let report = diff(&base, &cand, args.config);
    if args.json {
        println!("{}", report.json_report());
    } else {
        print!("{}", report.text_report());
    }
    if report.regressed() > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
