//! `nanocost-audit` — an in-tree static-analysis pass that enforces the
//! cost-model's correctness invariants.
//!
//! The pass lexes every `crates/*/src/**/*.rs` file with its own lightweight
//! Rust lexer (no dependencies), runs the per-file structural rules, then
//! builds a workspace-wide symbol table + call graph and runs the dataflow
//! rules over it:
//!
//! | rule | severity | invariant |
//! |------|----------|-----------|
//! | R2   | error    | no direct `==`/`!=` against a floating-point zero or infinity (the compares `clippy::float_cmp` exempts) |
//! | R3   | warning  | no bare numeric literals in model functions outside `const`/calibration code |
//! | R4   | warning  | public model functions take `nanocost-units` newtypes, not raw `f64` |
//! | R5   | warning  | every public model function cites the paper equation/figure/table it implements |
//! | R7   | warning  | `span!`/`event!` names in library code are static lowercase `snake_case` string literals |
//! | R8   | error    | untrusted values (JSON accessors, `std::env`, file reads) are validated before reaching unit constructors, model arithmetic, indexing, or allocation sizing |
//! | R9   | error    | lock discipline: no poison panics, consistent global acquisition order, no I/O under a guard |
//! | R10  | warning  | `core` fns whose docs lead with an equation citation reach matching `provenance!` emits, and emitting fns cite what they emit |
//!
//! There is no R1 or R6: clippy holds the generic rules (no aborts, no
//! console writes in library code, and every other exact float compare),
//! with the lint table in the workspace `Cargo.toml`. `DESIGN.md` §7 maps
//! each retired rule to its lints.
//!
//! Findings can be suppressed inline with a reasoned pragma
//! (`// nanocost-audit: allow(R3, reason = "…")`); a malformed pragma is
//! itself an error under the meta-rule `P0`, and a pragma rule that masked
//! no finding is reported stale under `P1` (an error with
//! `--strict-pragmas`). See the crate's `src/pragma.rs` for the grammar and
//! `README.md` § "Static analysis & lint policy" for the policy rationale.

pub mod context;
pub mod dataflow;
pub mod diagnostics;
pub mod lexer;
pub mod parse;
pub mod pragma;
pub mod rules;
pub mod symbols;
pub mod walk;

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::Path;

use diagnostics::{sort_diagnostics, Diagnostic, RuleId, Severity};
use symbols::{FileData, SymbolTable};

/// Knobs for an audit run.
#[derive(Debug, Clone, Copy, Default)]
pub struct AuditOptions {
    /// Escalate stale-pragma findings (`P1`) from warning to error.
    pub strict_pragmas: bool,
}

/// One file's source, ready to audit.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel: String,
    /// Crate directory name under `crates/`.
    pub crate_name: String,
    /// File contents.
    pub source: String,
}

/// Audits a set of files as one workspace: per-file structural rules,
/// then the symbol-table dataflow rules (R8–R10), then suppression
/// accounting (`P0` malformed, `P1` stale). Returns diagnostics sorted
/// by file, line, rule.
pub fn audit_files(files: &[SourceFile], options: AuditOptions) -> Vec<Diagnostic> {
    // Phase 0: lex + structural context + pragmas, per file.
    let lexed: Vec<(Vec<lexer::Token>, context::FileContext)> = files
        .iter()
        .map(|f| {
            let tokens = lexer::lex(&f.source);
            let ctx = context::analyze(&tokens);
            (tokens, ctx)
        })
        .collect();
    let mut suppressions: Vec<pragma::Suppressions> =
        lexed.iter().map(|(tokens, _)| pragma::collect(tokens)).collect();
    let by_path: HashMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.rel.as_str(), i)).collect();

    // Phase 1: per-file structural rules.
    let mut raw: Vec<Diagnostic> = Vec::new();
    for (i, f) in files.iter().enumerate() {
        let (tokens, ctx) = &lexed[i];
        let input =
            rules::FileInput { path: &f.rel, crate_name: &f.crate_name, tokens, ctx };
        raw.extend(rules::run_all(&input));
    }

    // Phase 2: workspace dataflow rules over the symbol table.
    let data: Vec<FileData<'_>> = files
        .iter()
        .zip(&lexed)
        .map(|(f, (tokens, ctx))| FileData {
            path: &f.rel,
            crate_name: &f.crate_name,
            tokens,
            ctx,
        })
        .collect();
    let table = SymbolTable::build(&data);
    let summaries = dataflow::summarize(&table);
    raw.extend(rules::taint::rule_r8(&data, &table, &summaries));
    raw.extend(rules::locks::rule_r9(&data, &table));
    raw.extend(rules::provenance::rule_r10(&data, &table));

    // Phase 3: suppression with usage accounting.
    let mut diags: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| {
            let Some(&i) = by_path.get(d.file.as_str()) else { return true };
            !suppressions[i].suppress(d.rule, d.line)
        })
        .collect();

    // Phase 4: pragma hygiene — P0 malformed, P1 stale.
    for (i, f) in files.iter().enumerate() {
        for (line, why) in &suppressions[i].malformed {
            diags.push(Diagnostic {
                file: f.rel.clone(),
                line: *line,
                rule: RuleId::P0,
                severity: RuleId::P0.severity(),
                message: format!("malformed nanocost-audit pragma: {why}"),
            });
        }
        for (line, stale_rules) in suppressions[i].stale() {
            let names: Vec<String> = stale_rules.iter().map(|r| r.to_string()).collect();
            let severity = if options.strict_pragmas {
                Severity::Error
            } else {
                RuleId::P1.severity()
            };
            diags.push(Diagnostic {
                file: f.rel.clone(),
                line,
                rule: RuleId::P1,
                severity,
                message: format!(
                    "stale suppression: {} matched no finding; remove the waiver",
                    names.join(", ")
                ),
            });
        }
    }
    sort_diagnostics(&mut diags);
    diags
}

/// Audits one file's source text in isolation (no cross-file resolution
/// beyond the file itself). Suppression pragmas are honored.
pub fn audit_source(rel_path: &str, crate_name: &str, source: &str) -> Vec<Diagnostic> {
    audit_files(
        &[SourceFile {
            rel: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            source: source.to_string(),
        }],
        AuditOptions::default(),
    )
}

/// Audits the whole workspace rooted at `root`. Returns diagnostics sorted
/// by file, line, rule.
pub fn audit_workspace(root: &Path, options: AuditOptions) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for file in walk::collect_sources(root)? {
        let source = fs::read_to_string(&file.abs)?;
        files.push(SourceFile { rel: file.rel, crate_name: file.crate_name, source });
    }
    Ok(audit_files(&files, options))
}

/// Outcome classification for exit-code purposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No findings at all, or only warnings without `--deny`.
    Pass,
    /// Warnings present and `--deny` given.
    DeniedWarnings,
    /// At least one error-severity finding.
    Errors,
}

/// Decides the run verdict from the diagnostics and the `--deny` flag.
pub fn verdict(diags: &[Diagnostic], deny: bool) -> Verdict {
    if diags.iter().any(|d| d.severity == Severity::Error) {
        Verdict::Errors
    } else if deny && !diags.is_empty() {
        Verdict::DeniedWarnings
    } else {
        Verdict::Pass
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppressed_findings_are_dropped() {
        let src = "fn f() -> f64 { 0.37 // nanocost-audit: allow(R3, reason = \"Table A1 calibration\")\n}\n";
        assert!(audit_source("crates/core/src/a.rs", "core", src).is_empty());
    }

    #[test]
    fn unsuppressed_findings_survive() {
        let src = "fn f() -> f64 { 0.37 }\n";
        let diags = audit_source("crates/core/src/a.rs", "core", src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, RuleId::R3);
    }

    #[test]
    fn malformed_pragma_is_a_p0_error() {
        let src = "fn f() -> f64 { 0.37 // nanocost-audit: allow(R3)\n}\n";
        let diags = audit_source("crates/core/src/a.rs", "core", src);
        let rules: Vec<RuleId> = diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, [RuleId::R3, RuleId::P0], "a reason-less pragma must not suppress");
        assert_eq!(diags[1].severity, Severity::Error);
    }

    #[test]
    fn stale_pragma_is_a_p1_warning() {
        let src = "fn f() { g(); // nanocost-audit: allow(R3, reason = \"was needed once\")\n}\n";
        let diags = audit_source("crates/core/src/a.rs", "core", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::P1);
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("R3"));
    }

    #[test]
    fn strict_pragmas_escalates_p1_to_error() {
        let src = "fn f() { g(); // nanocost-audit: allow(R3, reason = \"was needed once\")\n}\n";
        let files = [SourceFile {
            rel: "crates/core/src/a.rs".into(),
            crate_name: "core".into(),
            source: src.into(),
        }];
        let diags = audit_files(&files, AuditOptions { strict_pragmas: true });
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RuleId::P1);
        assert_eq!(diags[0].severity, Severity::Error);
    }

    #[test]
    fn used_pragma_is_not_stale() {
        let src = "fn f() -> f64 { 0.37 // nanocost-audit: allow(R3, reason = \"shim\")\n}\n";
        assert!(audit_source("crates/core/src/a.rs", "core", src).is_empty());
    }

    #[test]
    fn cross_file_taint_is_reported() {
        let files = [
            SourceFile {
                rel: "crates/units/src/lib.rs".into(),
                crate_name: "units".into(),
                source: "impl Dollars { pub fn new(v: f64) -> Dollars { Dollars(v) } }\n".into(),
            },
            SourceFile {
                rel: "crates/serve/src/http.rs".into(),
                crate_name: "serve".into(),
                source: "fn handle(doc: &JsonValue) -> Dollars {\n\
                             let raw = doc.get(\"p\").and_then(JsonValue::as_f64).unwrap_or(0.0);\n\
                             Dollars::new(raw)\n\
                         }\n"
                    .into(),
            },
        ];
        let diags = audit_files(&files, AuditOptions::default());
        assert!(
            diags.iter().any(|d| d.rule == RuleId::R8 && d.file.contains("http.rs")),
            "{diags:?}"
        );
    }

    #[test]
    fn verdict_logic() {
        let warn = Diagnostic {
            file: "a.rs".into(),
            line: 1,
            rule: RuleId::R3,
            severity: Severity::Warning,
            message: String::new(),
        };
        let err = Diagnostic { rule: RuleId::R2, severity: Severity::Error, ..warn.clone() };
        assert_eq!(verdict(&[], true), Verdict::Pass);
        assert_eq!(verdict(std::slice::from_ref(&warn), false), Verdict::Pass);
        assert_eq!(verdict(std::slice::from_ref(&warn), true), Verdict::DeniedWarnings);
        assert_eq!(verdict(&[warn, err], false), Verdict::Errors);
    }
}
