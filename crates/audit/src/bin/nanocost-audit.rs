//! Command-line front-end for the `nanocost-audit` static-analysis pass.
//!
//! ```text
//! nanocost-audit [--root DIR] [--format text|json] [--deny]
//!                [--strict-pragmas] [--list-rules] [--explain RULE]
//! ```
//!
//! Exit codes: 0 clean (warnings allowed unless `--deny`), 1 findings failed
//! the run, 2 usage or I/O error.

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

use std::path::PathBuf;
use std::process::ExitCode;

use nanocost_audit::diagnostics::{render_json_report, Severity, EXPLANATIONS};
use nanocost_audit::{audit_workspace, verdict, walk, AuditOptions, Verdict};

/// Parsed command-line options.
struct Options {
    root: Option<PathBuf>,
    json: bool,
    deny: bool,
    strict_pragmas: bool,
    list_rules: bool,
    explain: Option<String>,
    help: bool,
}

const USAGE: &str = "usage: nanocost-audit [--root DIR] [--format text|json] [--deny] \
                     [--strict-pragmas] [--list-rules] [--explain RULE]";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        root: None,
        json: false,
        deny: false,
        strict_pragmas: false,
        list_rules: false,
        explain: None,
        help: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                let dir = it.next().ok_or("--root requires a directory argument")?;
                opts.root = Some(PathBuf::from(dir));
            }
            "--format" => match it.next().map(String::as_str) {
                Some("text") => opts.json = false,
                Some("json") => opts.json = true,
                other => {
                    return Err(format!(
                        "--format must be `text` or `json`, got `{}`",
                        other.unwrap_or("<none>")
                    ))
                }
            },
            "--deny" => opts.deny = true,
            "--strict-pragmas" => opts.strict_pragmas = true,
            "--list-rules" => opts.list_rules = true,
            "--explain" => {
                let rule = it.next().ok_or("--explain requires a rule id (e.g. R8)")?;
                opts.explain = Some(rule.clone());
            }
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(opts)
}

/// Prints the full explanation card for one rule (R2–R5, R7–R10, P0, P1).
fn explain(rule: &str) -> Result<(), String> {
    let wanted = rule.to_ascii_uppercase();
    let entry = EXPLANATIONS
        .iter()
        .find(|e| e.rule.to_string() == wanted)
        .ok_or_else(|| format!("unknown rule `{rule}`; try --list-rules"))?;
    println!("{} ({}): {}", entry.rule, entry.rule.severity(), entry.summary);
    println!();
    println!("why: {}", entry.rationale);
    println!();
    println!("example:");
    for line in entry.example.lines() {
        println!("    {line}");
    }
    println!();
    println!("fix: {}", entry.fix);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    if opts.help {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }

    if let Some(rule) = &opts.explain {
        return match explain(rule) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
        };
    }

    if opts.list_rules {
        for e in EXPLANATIONS {
            println!("{} ({}): {}", e.rule, e.rule.severity(), e.summary);
        }
        return ExitCode::SUCCESS;
    }

    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("nanocost-audit: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match walk::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "nanocost-audit: no workspace Cargo.toml found above {}; pass --root",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    let options = AuditOptions { strict_pragmas: opts.strict_pragmas };
    let diags = match audit_workspace(&root, options) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("nanocost-audit: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.json {
        print!("{}", render_json_report(&diags));
    } else {
        for d in &diags {
            println!("{}", d.render_text());
        }
        let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
        let warnings = diags.len() - errors;
        println!(
            "nanocost-audit: {} error{}, {} warning{}",
            errors,
            if errors == 1 { "" } else { "s" },
            warnings,
            if warnings == 1 { "" } else { "s" },
        );
    }

    match verdict(&diags, opts.deny) {
        Verdict::Pass => ExitCode::SUCCESS,
        Verdict::DeniedWarnings | Verdict::Errors => ExitCode::FAILURE,
    }
}
