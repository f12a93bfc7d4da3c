//! The audit rules.
//!
//! This module holds the per-file structural rules R2–R7: each is a pure
//! function over one file's token stream plus its structural
//! [`FileContext`](crate::context::FileContext). The workspace-scoped
//! dataflow rules live in submodules — [`taint`] (R8), [`locks`] (R9),
//! [`provenance`] (R10) — and run over the cross-file
//! [`SymbolTable`](crate::symbols::SymbolTable) instead. Suppression
//! pragmas are applied by the caller in `lib.rs` so the rules stay simple.

pub mod locks;
pub mod provenance;
pub mod taint;

use crate::context::FileContext;
use crate::diagnostics::{Diagnostic, RuleId};
use crate::lexer::{Token, TokenKind};

/// Which crates carry the paper's cost model (R3/R4 scope).
const MODEL_CRATES: &[&str] = &["core", "yield-model", "flow"];

/// Which crates must cite the paper in every public fn doc (R5 scope).
const DOC_CITED_CRATES: &[&str] = &["core", "yield-model"];

/// File-name stems exempt from R3: they exist to hold named constants.
const R3_EXEMPT_STEMS: &[&str] = &["const", "calib", "table", "scenario", "data"];

/// Float literal values R3 never flags: structural values that carry no
/// calibration meaning (identity/half/doubling/percent base) plus
/// comparison epsilons at or below 1e-6.
const R3_TRIVIAL: &[f64] = &[0.0, 0.5, 1.0, 2.0, 100.0];

/// Paper-symbol parameter names that have a `nanocost-units` newtype (R4).
/// Maps the raw-`f64` parameter name to the type that should replace it.
const R4_SYMBOLS: &[(&str, &str)] = &[
    ("sd", "DecompressionIndex"),
    ("s_d", "DecompressionIndex"),
    ("decompression", "DecompressionIndex"),
    ("lambda", "FeatureSize"),
    ("feature_size", "FeatureSize"),
    ("yield_", "Yield"),
    ("y0", "Yield"),
    ("cost", "Dollars"),
    ("price", "Dollars"),
    ("capex", "Dollars"),
    ("budget", "Dollars"),
    ("area", "Area"),
    ("wafers", "WaferCount"),
    ("transistors", "TransistorCount"),
    ("utilization", "Utilization"),
    ("density", "DesignDensity"),
];

/// Trace macros whose first argument names a span/event/metric (R7).
/// Stable, literal names keep flamegraph stacks and provenance
/// fingerprint keys comparable across runs and releases.
const R7_MACROS: &[&str] = &["span", "event", "counter", "gauge", "metric_histogram"];

/// Keywords whose presence in a doc comment counts as a paper citation (R5).
/// Matched on word boundaries after lowercasing.
const R5_KEYWORDS: &[&str] = &[
    "eq", "equation", "fig", "figure", "table", "sec", "section", "maly", "dac", "itrs",
    "appendix", "paper", "chapter",
];

/// Everything the rules need to know about the file being audited.
pub struct FileInput<'a> {
    /// Workspace-relative path with forward slashes.
    pub path: &'a str,
    /// Crate directory name under `crates/` (e.g. `"yield-model"`),
    /// or `""` for files outside `crates/`.
    pub crate_name: &'a str,
    /// Lexed tokens.
    pub tokens: &'a [Token],
    /// Structural context over the tokens.
    pub ctx: &'a FileContext,
}

/// Is this path binary (CLI) code, exempt from the library-code rules?
pub(crate) fn is_bin_path(path: &str) -> bool {
    path.contains("/bin/") || path.ends_with("/main.rs")
}

impl FileInput<'_> {
    fn is_bin(&self) -> bool {
        is_bin_path(self.path)
    }

    fn is_model_crate(&self) -> bool {
        MODEL_CRATES.contains(&self.crate_name)
    }

    fn diag(&self, line: u32, rule: RuleId, message: String) -> Diagnostic {
        Diagnostic { file: self.path.to_string(), line, rule, severity: rule.severity(), message }
    }
}

/// Runs every rule over one file.
pub fn run_all(input: &FileInput<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    rule_r2(input, &mut out);
    rule_r3(input, &mut out);
    rule_r4(input, &mut out);
    rule_r5(input, &mut out);
    rule_r7(input, &mut out);
    out
}

/// Index of the next non-trivia token after `i`, if any.
fn next_code(tokens: &[Token], i: usize) -> Option<usize> {
    tokens
        .iter()
        .enumerate()
        .skip(i + 1)
        .find(|(_, t)| !t.is_trivia())
        .map(|(k, _)| k)
}

/// Index of the previous non-trivia token before `i`, if any.
fn prev_code(tokens: &[Token], i: usize) -> Option<usize> {
    tokens[..i].iter().rposition(|t| !t.is_trivia())
}

/// R2: no direct `==`/`!=` against a floating-point zero or infinity.
///
/// `clippy::float_cmp` flags every other exact float compare but lets
/// `0.0` and `±INFINITY` operands through on purpose, so the audit holds
/// just those: a `0.0` literal (optionally negated) on either side, or an
/// `f64::`/`f32::` `INFINITY`/`NEG_INFINITY` constant. Test regions are
/// exempt, as they are from `float_cmp` by a reasoned `allow`.
fn rule_r2(input: &FileInput<'_>, out: &mut Vec<Diagnostic>) {
    let toks = input.tokens;
    let is_zero = |k: usize| match &toks[k].kind {
        TokenKind::Float(text) => float_value(text) == Some(0.0),
        _ => false,
    };
    let is_float_path = |k: usize| toks[k].is_ident("f64") || toks[k].is_ident("f32");
    let is_infinity = |k: usize| toks[k].is_ident("INFINITY") || toks[k].is_ident("NEG_INFINITY");
    for (i, tok) in toks.iter().enumerate() {
        let TokenKind::Punct(op) = &tok.kind else { continue };
        if op != "==" && op != "!=" {
            continue;
        }
        if input.ctx.in_test(i) {
            continue;
        }
        // Left operand: `0.0 ==` or `f64::INFINITY ==`.
        let lhs = prev_code(toks, i).is_some_and(|p| {
            is_zero(p)
                || (is_infinity(p)
                    && prev_code(toks, p).is_some_and(|c| {
                        toks[c].is_punct("::") && prev_code(toks, c).is_some_and(is_float_path)
                    }))
        });
        // Right operand, past an optional unary minus.
        let rhs = next_code(toks, i)
            .and_then(|n| {
                if toks[n].is_punct("-") {
                    next_code(toks, n)
                } else {
                    Some(n)
                }
            })
            .is_some_and(|n| {
                is_zero(n)
                    || (is_float_path(n)
                        && next_code(toks, n).is_some_and(|c| {
                            toks[c].is_punct("::") && next_code(toks, c).is_some_and(is_infinity)
                        }))
            });
        if lhs || rhs {
            out.push(input.diag(
                tok.line,
                RuleId::R2,
                format!("direct `{op}` against a floating-point value; compare with an explicit tolerance"),
            ));
        }
    }
}

/// Parses the numeric value of a float-literal token (`1_000.5f64` → 1000.5).
fn float_value(text: &str) -> Option<f64> {
    let cleaned: String = text.chars().filter(|c| *c != '_').collect();
    let cleaned = cleaned.trim_end_matches("f64").trim_end_matches("f32");
    cleaned.parse().ok()
}

/// R3: no bare float literals inside model-crate function bodies.
///
/// Exemptions: `const`/`static` items, test code, files whose name marks
/// them as constant/calibration tables, trivially-structural values
/// (0, 0.5, 1, 2, 100) and epsilons ≤ 1e-6.
fn rule_r3(input: &FileInput<'_>, out: &mut Vec<Diagnostic>) {
    if !input.is_model_crate() {
        return;
    }
    let stem = input.path.rsplit('/').next().unwrap_or("");
    if R3_EXEMPT_STEMS.iter().any(|s| stem.starts_with(s)) {
        return;
    }
    for (i, tok) in input.tokens.iter().enumerate() {
        let TokenKind::Float(text) = &tok.kind else { continue };
        if input.ctx.in_test(i) || input.ctx.in_const(i) || !input.ctx.in_fn_body(i) {
            continue;
        }
        if let Some(v) = float_value(text) {
            if R3_TRIVIAL.contains(&v) || v.abs() <= 1e-6 {
                continue;
            }
        }
        out.push(input.diag(
            tok.line,
            RuleId::R3,
            format!("bare numeric literal `{text}` in a model function; hoist it into a named const with a paper reference"),
        ));
    }
}

/// R4: public model-crate fns must not take raw `f64` for a quantity that
/// has a `nanocost-units` newtype.
fn rule_r4(input: &FileInput<'_>, out: &mut Vec<Diagnostic>) {
    if !input.is_model_crate() || input.is_bin() {
        return;
    }
    for f in &input.ctx.fns {
        if !f.is_pub || f.in_test {
            continue;
        }
        for p in &f.params {
            if !p.raw_f64 {
                continue;
            }
            let lower = p.name.to_ascii_lowercase();
            let hit = R4_SYMBOLS
                .iter()
                .find(|(sym, _)| lower == *sym || lower.trim_end_matches('_') == *sym);
            if let Some((_, newtype)) = hit {
                out.push(input.diag(
                    p.line,
                    RuleId::R4,
                    format!(
                        "`fn {}` takes `{}: f64`; use the `nanocost_units::{newtype}` newtype",
                        f.name, p.name
                    ),
                ));
            }
        }
    }
}

/// Does `doc` cite the paper? Word-boundary keyword match, plus `§`.
fn cites_paper(doc: &str) -> bool {
    if doc.contains('§') {
        return true;
    }
    let lower = doc.to_ascii_lowercase();
    let mut word = String::new();
    let mut words = Vec::new();
    for c in lower.chars() {
        if c.is_ascii_alphanumeric() {
            word.push(c);
        } else if !word.is_empty() {
            words.push(std::mem::take(&mut word));
        }
    }
    if !word.is_empty() {
        words.push(word);
    }
    words.iter().any(|w| R5_KEYWORDS.contains(&w.as_str()))
}

/// R5: every public fn in the cited crates carries a doc comment that
/// references the paper equation/figure/table/section it implements.
fn rule_r5(input: &FileInput<'_>, out: &mut Vec<Diagnostic>) {
    if !DOC_CITED_CRATES.contains(&input.crate_name) || input.is_bin() {
        return;
    }
    for f in &input.ctx.fns {
        if !f.is_pub || f.in_test || f.body.is_none() {
            continue;
        }
        if f.doc.trim().is_empty() {
            out.push(input.diag(
                f.line,
                RuleId::R5,
                format!("public `fn {}` has no doc comment; cite the paper equation/figure/table it implements", f.name),
            ));
        } else if !cites_paper(&f.doc) {
            out.push(input.diag(
                f.line,
                RuleId::R5,
                format!("doc comment on public `fn {}` does not reference a paper equation/figure/table/section", f.name),
            ));
        }
    }
}

/// Is `s` a stable trace name: lowercase `snake_case`, optionally
/// dot-separated (`mc.wafers`, `figure4.run`)?
fn valid_trace_name(s: &str) -> bool {
    let starts_lower = s.chars().next().is_some_and(|c| c.is_ascii_lowercase());
    starts_lower
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_' || c == '.')
}

/// R7: `span!`/`event!`/`counter!`/`gauge!`/`metric_histogram!` names in
/// library code must be static lowercase `snake_case` string literals.
///
/// A computed or mixed-case name makes flamegraph stacks and metric keys
/// unstable run-to-run, which silently breaks `bench_diff` and the
/// fingerprint gate. Binaries and test regions are exempt; macro
/// definitions that forward `$name` are skipped (the call site is the
/// thing audited).
fn rule_r7(input: &FileInput<'_>, out: &mut Vec<Diagnostic>) {
    if input.is_bin() {
        return;
    }
    let toks = input.tokens;
    for (i, tok) in toks.iter().enumerate() {
        let TokenKind::Ident(name) = &tok.kind else { continue };
        if !R7_MACROS.contains(&name.as_str()) {
            continue;
        }
        if input.ctx.in_test(i) {
            continue;
        }
        // Require the full `name!(` shape so plain fns named `event` or
        // `macro_rules!` definitions (`macro_rules ! span {`) pass by.
        let Some(bang) = next_code(toks, i) else { continue };
        if !toks[bang].is_punct("!") {
            continue;
        }
        let Some(open) = next_code(toks, bang) else { continue };
        if !toks[open].is_punct("(") {
            continue;
        }
        let Some(first) = next_code(toks, open) else { continue };
        match &toks[first].kind {
            // `$crate::span!($name, …)` inside a macro definition: the
            // name is supplied by the call site, which gets its own scan.
            TokenKind::Punct(p) if p == "$" => {}
            TokenKind::Str(content) if valid_trace_name(content) => {}
            TokenKind::Str(content) => {
                out.push(input.diag(
                    tok.line,
                    RuleId::R7,
                    format!(
                        "`{name}!` name \"{content}\" is not lowercase snake_case; unstable names break flamegraph and fingerprint keys"
                    ),
                ));
            }
            _ => {
                out.push(input.diag(
                    tok.line,
                    RuleId::R7,
                    format!(
                        "`{name}!` name must be a static string literal, not a computed expression"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::analyze;
    use crate::lexer::lex;

    fn audit(path: &str, crate_name: &str, src: &str) -> Vec<Diagnostic> {
        let tokens = lex(src);
        let ctx = analyze(&tokens);
        run_all(&FileInput { path, crate_name, tokens: &tokens, ctx: &ctx })
    }

    fn rules_of(diags: &[Diagnostic]) -> Vec<RuleId> {
        diags.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn r2_flags_float_literal_comparison() {
        // The compares clippy::float_cmp lets through: zero and ±infinity.
        for src in [
            "fn f(x: f64) -> bool { x == 0.0 }\n",
            "fn f(x: f64) -> bool { x != f64::INFINITY }\n",
            "fn f(x: f64) -> bool { 0.0 == x }\n",
            "fn f(x: f64) -> bool { x == -0.0 }\n",
            "fn f(x: f32) -> bool { f32::NEG_INFINITY != x }\n",
            "fn f(x: f64) -> bool { x.fract() == 0.0_f64 }\n",
        ] {
            let diags = audit("crates/fab/src/a.rs", "fab", src);
            assert_eq!(rules_of(&diags), [RuleId::R2], "{src}");
        }
    }

    #[test]
    fn r2_leaves_what_clippy_flags_and_integer_comparison() {
        // clippy::float_cmp flags these, so one exemption covers each.
        for src in [
            "fn f(x: f64) -> bool { x == 0.1 }\n",
            "fn f(x: f64) -> bool { x == 1.0 }\n",
            "fn f(x: f64) -> bool { x != f64::MAX }\n",
            "fn f(x: f64, y: f64) -> bool { x == y }\n",
            "fn f(x: u32) -> bool { x == 10 }\n",
        ] {
            let diags = audit("crates/fab/src/a.rs", "fab", src);
            assert!(!rules_of(&diags).contains(&RuleId::R2), "{src}: {diags:?}");
        }
    }

    #[test]
    fn r2_skips_test_regions() {
        let src = "#[cfg(test)]\nmod t { fn g(x: f64) -> bool { x == 0.0 } }\n";
        assert!(audit("crates/fab/src/a.rs", "fab", src).is_empty());
    }

    #[test]
    fn r3_flags_bare_floats_in_model_fns_only() {
        let src = "const K: f64 = 0.3;\nfn f() -> f64 { 0.37 * K }\n";
        let diags = audit("crates/yield-model/src/models.rs", "yield-model", src);
        let r3: Vec<_> = diags.iter().filter(|d| d.rule == RuleId::R3).collect();
        assert_eq!(r3.len(), 1);
        assert_eq!(r3[0].line, 2);
        // Same source in a non-model crate: clean.
        assert!(audit("crates/fab/src/x.rs", "fab", src).iter().all(|d| d.rule != RuleId::R3));
    }

    #[test]
    fn r3_exempts_trivial_values_and_calibration_files() {
        let src = "fn f(x: f64) -> f64 { (x * 0.5 + 1.0) * 2.0 / 100.0 + 1e-9 }\n";
        assert!(audit("crates/core/src/a.rs", "core", src).iter().all(|d| d.rule != RuleId::R3));
        let src = "fn f() -> f64 { 0.123 }\n";
        assert!(audit("crates/flow/src/calibrate.rs", "flow", src)
            .iter()
            .all(|d| d.rule != RuleId::R3));
    }

    #[test]
    fn r4_flags_symbol_named_raw_f64_params() {
        let src = "pub fn chip_cost(lambda: f64, n: u64) -> f64 { 0.0 }\n";
        let diags = audit("crates/core/src/a.rs", "core", src);
        let r4: Vec<_> = diags.iter().filter(|d| d.rule == RuleId::R4).collect();
        assert_eq!(r4.len(), 1);
        assert!(r4[0].message.contains("FeatureSize"));
    }

    #[test]
    fn r4_ignores_private_fns_and_unmapped_names() {
        let src = "fn helper(lambda: f64) {}\npub fn g(ratio: f64) {}\n";
        assert!(audit("crates/core/src/a.rs", "core", src).iter().all(|d| d.rule != RuleId::R4));
    }

    #[test]
    fn r5_requires_paper_citation_in_doc() {
        let src = "/// Computes stuff.\npub fn a() {}\npub fn b() {}\n/// Implements eq. (7) of the paper.\npub fn c() {}\n";
        let diags = audit("crates/core/src/a.rs", "core", src);
        let r5: Vec<_> = diags.iter().filter(|d| d.rule == RuleId::R5).collect();
        assert_eq!(r5.len(), 2);
        assert_eq!((r5[0].line, r5[1].line), (2, 3));
    }

    #[test]
    fn r5_word_boundary_matching() {
        assert!(cites_paper("See Figure 4."));
        assert!(cites_paper("Table A1 row."));
        assert!(cites_paper("per §3.2"));
        assert!(!cites_paper("frequent sequence"));
        assert!(!cites_paper("unstable sectioning-free"));
        assert!(cites_paper("ITRS roadmap"));
    }

    #[test]
    fn r5_skips_trait_method_declarations() {
        let src = "pub trait T { fn m(&self); }\n";
        assert!(audit("crates/core/src/a.rs", "core", src).iter().all(|d| d.rule != RuleId::R5));
    }

    #[test]
    fn r7_flags_bad_and_dynamic_trace_names() {
        let src = "fn f() { span!(\"MonteCarlo.Run\"); event!(name); counter!(\"mc.wafers\", 1u64); }\n";
        let diags = audit("crates/core/src/a.rs", "core", src);
        let r7: Vec<_> = diags.iter().filter(|d| d.rule == RuleId::R7).collect();
        assert_eq!(r7.len(), 2, "{r7:?}");
        assert!(r7[0].message.contains("MonteCarlo.Run"));
        assert!(r7[1].message.contains("static string literal"));
    }

    #[test]
    fn r7_accepts_snake_case_and_dotted_names() {
        let src = "fn f() { span!(\"figure4.run\"); gauge!(\"mc.batch_size\", 4.0); \
                   metric_histogram!(\"wafer_cost_usd\", 1.0); }\n";
        assert!(audit("crates/core/src/a.rs", "core", src).iter().all(|d| d.rule != RuleId::R7));
    }

    #[test]
    fn r7_skips_bins_tests_and_macro_forwarding() {
        let src = "fn main() { span!(NAME); }\n";
        assert!(audit("crates/core/src/bin/tool.rs", "core", src).is_empty());
        let src = "#[cfg(test)]\nmod t { fn g() { event!(\"X\"); } }\n";
        assert!(audit("crates/core/src/a.rs", "core", src).iter().all(|d| d.rule != RuleId::R7));
        // `$crate::counter!($name, 1u64)` inside trace's own macro_rules.
        let src = "macro_rules! hit { ($name:expr) => { $crate::counter!($name, 1u64) }; }\n";
        assert!(audit("crates/trace/src/metrics.rs", "trace", src)
            .iter()
            .all(|d| d.rule != RuleId::R7));
    }

    #[test]
    fn r7_ignores_plain_idents_named_like_macros() {
        let src = "fn f() { let span = 1; event(span); gauge.set(2.0); }\n";
        assert!(audit("crates/core/src/a.rs", "core", src).iter().all(|d| d.rule != RuleId::R7));
    }

    #[test]
    fn r7_name_charset() {
        assert!(valid_trace_name("figure4.run"));
        assert!(valid_trace_name("mc.batch_size"));
        assert!(!valid_trace_name(""));
        assert!(!valid_trace_name("4figure"));
        assert!(!valid_trace_name("Figure.run"));
        assert!(!valid_trace_name("has space"));
        assert!(!valid_trace_name("has-dash"));
    }
}
