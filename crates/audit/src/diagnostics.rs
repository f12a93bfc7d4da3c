//! Diagnostic records, the rule registry (with rationale/example/fix
//! explanations), and the text/JSON renderings.
//!
//! [`EXPLANATIONS`] is the single source of truth for what each rule
//! means: `--list-rules`, `--explain`, and the crate documentation all
//! render from it, so the help text cannot drift from the rules.

use std::fmt;

/// The audit rules. Each maps to one correctness invariant of the
/// cost-model codebase (see `README.md` § Static analysis & lint policy).
/// The numbers skip R1 (no aborts in library code) and R6 (no console
/// writes in library code): clippy enforces those (`DESIGN.md` §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// No direct `==`/`!=` against a floating-point zero or infinity —
    /// the exact compares `clippy::float_cmp` lets through.
    R2,
    /// No bare numeric literals in model functions outside `const` items and
    /// calibration modules.
    R3,
    /// Public model-crate functions must not take raw `f64` where a
    /// `nanocost-units` newtype exists for the paper symbol.
    R4,
    /// Every public model-crate function documents the paper
    /// equation/figure/table it implements.
    R5,
    /// `span!`/`event!`/metric-macro names in library code must be
    /// static lowercase `snake_case` (dot-separated) string literals, so
    /// flamegraph and fingerprint keys stay stable across runs.
    R7,
    /// Taint: untrusted values (JSON numeric accessors, `std::env`, file
    /// reads) must pass a fallible validator before reaching an
    /// infallible constructor, model arithmetic, slice indexing, or
    /// allocation sizing.
    R8,
    /// Lock discipline: no `.lock().unwrap()`/`.lock().expect()` poison
    /// panics in library code, no inconsistent global lock-acquisition
    /// order, no guard held across I/O or channel sends.
    R9,
    /// Provenance completeness: a `core` function whose doc *leads* with
    /// an `Eq. N` citation must (transitively) emit `Eq.N` provenance,
    /// and every provenance emit site must cite its equation in its doc.
    R10,
    /// Meta-rule: a `nanocost-audit:` suppression pragma is malformed
    /// (unknown rule id, missing mandatory reason, or bad syntax).
    P0,
    /// Meta-rule: a suppression pragma that suppresses zero diagnostics
    /// is stale and must be removed (error under `--strict-pragmas`).
    P1,
}

/// One row of the rule registry: everything `--explain` prints.
pub struct Explanation {
    /// The rule this row explains.
    pub rule: RuleId,
    /// One-line description (used by `--list-rules` and [`RuleId::describe`]).
    pub summary: &'static str,
    /// Why the rule exists — the discipline argument behind it.
    pub rationale: &'static str,
    /// A minimal code shape that fires the rule.
    pub example: &'static str,
    /// The sanctioned fix.
    pub fix: &'static str,
}

/// The rule registry. Ordered as [`RuleId::ALL`] then the meta-rules;
/// a unit test pins the one-row-per-rule invariant.
pub const EXPLANATIONS: &[Explanation] = &[
    Explanation {
        rule: RuleId::R2,
        summary: "no direct ==/!= against a floating-point zero or infinity (clippy::float_cmp holds every other float compare)",
        rationale: "Float equality is representation-dependent; model outputs must be compared \
                    against explicit tolerances so results stay stable across rustc versions \
                    and optimization levels. `clippy::float_cmp` exempts `0.0` and `±INFINITY` \
                    operands on purpose, so those compares are reviewed here.",
        example: "if cost == 0.0 { ... }",
        fix: "Compare with an explicit tolerance, e.g. `(cost - K).abs() < EPS`, or use \
              `total_cmp` for ordering.",
    },
    Explanation {
        rule: RuleId::R3,
        summary: "no bare numeric literals in model functions outside const/calibration code",
        rationale: "Every calibration constant must be named and traceable to the paper; an \
                    inline `0.37` is a silent fork of the model.",
        example: "fn yield_at(d: f64) -> f64 { (-0.37 * d).exp() }",
        fix: "Hoist the value into a `const` with a doc comment citing the paper \
              equation/table it came from.",
    },
    Explanation {
        rule: RuleId::R4,
        summary: "public model functions must use nanocost-units newtypes, not raw f64",
        rationale: "The paper's symbols (lambda, s_d, Y, ...) each have a unit-checked newtype; \
                    raw f64 parameters let callers transpose arguments silently.",
        example: "pub fn chip_cost(lambda: f64) -> f64 { ... }",
        fix: "Take the `nanocost_units` newtype (e.g. `FeatureSize`) named in the diagnostic.",
    },
    Explanation {
        rule: RuleId::R5,
        summary: "every public model function cites the paper equation/figure/table it implements",
        rationale: "Model trustworthiness rests on every output being traceable to a named \
                    equation; an uncited function is unreviewable against the source.",
        example: "/// Computes stuff.\npub fn chip_cost(...) { ... }",
        fix: "Cite the paper in the doc comment: `Implements eq. (4)`, `Figure 4`, `§3.1`, ...",
    },
    Explanation {
        rule: RuleId::R7,
        summary: "span!/event!/metric names in library code must be static lowercase snake_case string literals",
        rationale: "Computed or mixed-case trace names make flamegraph stacks and fingerprint \
                    keys unstable run-to-run, silently breaking bench_diff and the fingerprint \
                    gate.",
        example: "span!(format!(\"run-{i}\"));",
        fix: "Use a static lowercase dotted snake_case literal: `span!(\"figure4.run\")`.",
    },
    Explanation {
        rule: RuleId::R8,
        summary: "untrusted values must pass a fallible validator before infallible constructors, model arithmetic, indexing, or allocation sizing",
        rationale: "JSON admits 1e400 (which parses to +inf), env vars admit anything; an \
                    unvalidated value reaching `Dollars::new` panics a worker permanently \
                    (the PR-5 remote DoS). Validation must be a fallible step the caller \
                    cannot skip.",
        example: "let v = doc.get(\"mask_cost\").and_then(JsonValue::as_f64)?;\nlet c = Dollars::new(v);",
        fix: "Route through the fallible twin (`Dollars::try_new(v)?`) or an explicit range \
              check returning `Result` before the sink.",
    },
    Explanation {
        rule: RuleId::R9,
        summary: "lock discipline: no poison-panic lock(), consistent global lock order, no guard held across I/O or channel sends",
        rationale: "`.lock().unwrap()` turns one panicked thread into a poisoned-forever \
                    subsystem; inconsistent acquisition order deadlocks under load; a guard \
                    held across I/O stalls every other thread behind a slow peer.",
        example: "let a = self.x.lock().unwrap();\nlet b = self.y.lock(); // elsewhere: y before x",
        fix: "Recover with `unwrap_or_else(PoisonError::into_inner)`, acquire locks in one \
              global order, and drop guards before I/O (I/O on the guarded resource itself \
              is exempt).",
    },
    Explanation {
        rule: RuleId::R10,
        summary: "core fns with a leading Eq. citation must emit matching provenance, and emit sites must cite their equation",
        rationale: "The provenance stream is the mechanical audit trail tying every number to \
                    a paper equation (the fingerprint gate hashes it); a doc that claims \
                    `Eq. 4` without emitting it — or an emit without a citation — breaks the \
                    doc/trace cross-check.",
        example: "/// Eq. 4 end to end: ...\npub fn transistor_cost(...) { /* no provenance!(Eq4) */ }",
        fix: "Emit `provenance!(equation: EqN, ...)` in the function (or a callee), or \
              reword the doc so it does not lead with an equation claim.",
    },
    Explanation {
        rule: RuleId::P0,
        summary: "suppression pragma is malformed (unknown rule, missing reason, or bad syntax)",
        rationale: "A suppression without a stated reason is an unreviewable waiver; a typo'd \
                    rule id silently suppresses nothing.",
        example: "// nanocost-audit: allow(R3)",
        fix: "State the reason: `// nanocost-audit: allow(R3, reason = \"Table A1 calibration\")`.",
    },
    Explanation {
        rule: RuleId::P1,
        summary: "suppression pragma suppresses zero diagnostics (stale)",
        rationale: "A pragma that no longer masks anything is a waiver outliving the code it \
                    excused; left in place it will silently swallow the next real finding on \
                    that line.",
        example: "let v = compute(); // nanocost-audit: allow(R3, reason = \"...\") — but nothing fires here",
        fix: "Delete the pragma (or the no-longer-needed rule id from its list).",
    },
];

impl RuleId {
    /// All non-meta rules, in report order.
    pub const ALL: [RuleId; 8] = [
        RuleId::R2,
        RuleId::R3,
        RuleId::R4,
        RuleId::R5,
        RuleId::R7,
        RuleId::R8,
        RuleId::R9,
        RuleId::R10,
    ];

    /// Parses `"R2"`…`"R10"` (case-insensitive). `P0`/`P1` are not
    /// parseable: pragma hygiene cannot itself be suppressed by a pragma.
    pub fn parse(s: &str) -> Option<RuleId> {
        match s.trim().to_ascii_uppercase().as_str() {
            "R2" => Some(RuleId::R2),
            "R3" => Some(RuleId::R3),
            "R4" => Some(RuleId::R4),
            "R5" => Some(RuleId::R5),
            "R7" => Some(RuleId::R7),
            "R8" => Some(RuleId::R8),
            "R9" => Some(RuleId::R9),
            "R10" => Some(RuleId::R10),
            _ => None,
        }
    }

    /// The registry row for this rule.
    #[must_use]
    pub fn explanation(self) -> &'static Explanation {
        // The registry is pinned complete by a unit test; the linear
        // scan is over a 10-element const table.
        EXPLANATIONS
            .iter()
            .find(|e| e.rule == self)
            .unwrap_or(&EXPLANATIONS[0])
    }

    /// One-line description used by `--list-rules` and the docs.
    pub fn describe(self) -> &'static str {
        self.explanation().summary
    }

    /// Default severity for this rule's findings. `P1` escalates to
    /// error under `--strict-pragmas` (handled by the caller).
    pub fn severity(self) -> Severity {
        match self {
            RuleId::R2 | RuleId::R8 | RuleId::R9 | RuleId::P0 => Severity::Error,
            RuleId::R3 | RuleId::R4 | RuleId::R5 | RuleId::R7 | RuleId::R10 | RuleId::P1 => {
                Severity::Warning
            }
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuleId::R2 => write!(f, "R2"),
            RuleId::R3 => write!(f, "R3"),
            RuleId::R4 => write!(f, "R4"),
            RuleId::R5 => write!(f, "R5"),
            RuleId::R7 => write!(f, "R7"),
            RuleId::R8 => write!(f, "R8"),
            RuleId::R9 => write!(f, "R9"),
            RuleId::R10 => write!(f, "R10"),
            RuleId::P0 => write!(f, "P0"),
            RuleId::P1 => write!(f, "P1"),
        }
    }
}

/// How bad a finding is. Errors always fail the run; warnings fail it only
/// under `--deny`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Style/traceability finding; failing only under `--deny`.
    Warning,
    /// Correctness finding; always fails the run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding: a rule violated at a file:line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the workspace root, with forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: u32,
    /// Which rule fired.
    pub rule: RuleId,
    /// Severity the rule assigns to this finding.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Renders `file:line: severity[rule] message`.
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}: {}[{}] {}",
            self.file, self.line, self.severity, self.rule, self.message
        )
    }

    /// Renders one JSON object (stable key order).
    pub fn render_json(&self) -> String {
        format!(
            r#"{{"file":{},"line":{},"rule":"{}","severity":"{}","message":{}}}"#,
            json_string(&self.file),
            self.line,
            self.rule,
            self.severity,
            json_string(&self.message)
        )
    }
}

/// The JSON report schema version. Bumped to 2 when the top-level
/// `"schema"` field itself was introduced (diagnostics sorted by
/// path, line, rule — byte-deterministic for diffing runs).
pub const JSON_SCHEMA_VERSION: u32 = 2;

/// Sorts diagnostics by file, line, then rule, for deterministic output.
pub fn sort_diagnostics(diags: &mut [Diagnostic]) {
    diags.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule))
    });
}

/// Renders the full report as a JSON document:
/// `{"schema":2,"diagnostics":[…],"counts":{"error":N,"warning":M}}`.
/// Output is byte-deterministic: the diagnostics array is sorted by
/// (path, line, rule) and key order is fixed.
pub fn render_json_report(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::render_json).collect();
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    let warnings = diags.iter().filter(|d| d.severity == Severity::Warning).count();
    format!(
        "{{\"schema\":{},\"diagnostics\":[{}],\"counts\":{{\"error\":{},\"warning\":{}}}}}\n",
        JSON_SCHEMA_VERSION,
        items.join(","),
        errors,
        warnings
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: u32, rule: RuleId) -> Diagnostic {
        Diagnostic {
            file: file.into(),
            line,
            rule,
            severity: rule.severity(),
            message: format!("msg for {rule}"),
        }
    }

    #[test]
    fn rule_ids_round_trip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(&r.to_string()), Some(r));
        }
        assert_eq!(RuleId::parse("r3"), Some(RuleId::R3));
        assert_eq!(RuleId::parse("r10"), Some(RuleId::R10));
        assert_eq!(RuleId::parse("R11"), None);
        assert_eq!(RuleId::parse("R1"), None, "clippy holds R1");
        assert_eq!(RuleId::parse("R6"), None, "clippy holds R6");
        assert_eq!(RuleId::parse("P0"), None, "meta-rules are not suppressible");
        assert_eq!(RuleId::parse("P1"), None, "meta-rules are not suppressible");
    }

    #[test]
    fn registry_has_exactly_one_row_per_rule_in_order() {
        let mut expected: Vec<RuleId> = RuleId::ALL.to_vec();
        expected.push(RuleId::P0);
        expected.push(RuleId::P1);
        let rows: Vec<RuleId> = EXPLANATIONS.iter().map(|e| e.rule).collect();
        assert_eq!(rows, expected, "EXPLANATIONS must cover every rule exactly once, in order");
        for e in EXPLANATIONS {
            assert!(!e.summary.is_empty() && !e.rationale.is_empty());
            assert!(!e.example.is_empty() && !e.fix.is_empty());
            assert_eq!(e.summary, e.rule.describe());
        }
    }

    #[test]
    fn text_rendering_has_location_rule_and_severity() {
        let d = diag("crates/core/src/a.rs", 7, RuleId::R2);
        assert_eq!(
            d.render_text(),
            "crates/core/src/a.rs:7: error[R2] msg for R2"
        );
    }

    #[test]
    fn json_escapes_quotes_and_backslashes() {
        let mut d = diag("a.rs", 1, RuleId::R2);
        d.message = "bad \"x\" \\ path".into();
        assert!(d.render_json().contains(r#""message":"bad \"x\" \\ path""#));
    }

    #[test]
    fn report_counts_by_severity_and_carries_schema() {
        let out = render_json_report(&[diag("a.rs", 1, RuleId::R2), diag("a.rs", 2, RuleId::R3)]);
        assert!(out.starts_with("{\"schema\":2,\"diagnostics\":["));
        assert!(out.contains("\"counts\":{\"error\":1,\"warning\":1}"));
    }

    #[test]
    fn sorting_is_stable_by_location() {
        let mut ds = vec![
            diag("b.rs", 1, RuleId::R2),
            diag("a.rs", 9, RuleId::R3),
            diag("a.rs", 9, RuleId::R2),
        ];
        sort_diagnostics(&mut ds);
        assert_eq!(ds[0].file, "a.rs");
        assert_eq!(ds[0].rule, RuleId::R2, "rule breaks line ties");
        assert_eq!(ds[2].file, "b.rs");
    }

    #[test]
    fn new_rule_severities() {
        assert_eq!(RuleId::R8.severity(), Severity::Error);
        assert_eq!(RuleId::R9.severity(), Severity::Error);
        assert_eq!(RuleId::R10.severity(), Severity::Warning);
        assert_eq!(RuleId::P1.severity(), Severity::Warning);
    }
}
