//! Inline suppression pragmas.
//!
//! Grammar (inside any comment):
//!
//! ```text
//! // nanocost-audit: allow(R2, R3, reason = "a zero sentinel against a Table A1 constant")
//! // nanocost-audit: allow-file(R3, reason = "calibration constants from Table A1")
//! ```
//!
//! An `allow` pragma that shares a line with code suppresses the named rules
//! on that line; an `allow` on its own line suppresses them on the next line
//! that carries code. `allow-file` suppresses the named rules for the whole
//! file. The `reason` is mandatory: a pragma without a stated reason (or one
//! naming an unknown rule) is itself reported under the meta-rule `P0`, and
//! suppresses nothing.
//!
//! Suppression is *accounted*: each pragma records which of its rules
//! actually masked a finding, and a rule that masked nothing is reported
//! as stale under the meta-rule `P1` (see [`Suppressions::stale`]), so a
//! waiver cannot outlive the code it excused.

use crate::diagnostics::RuleId;
use crate::lexer::{Token, TokenKind};
use std::collections::HashSet;

/// What a line-scoped or file-wide pragma applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// `allow-file(...)`: the whole file.
    File,
    /// `allow(...)`: one source line.
    Line(u32),
}

/// One well-formed pragma.
#[derive(Debug)]
struct Pragma {
    /// Line of the pragma comment itself (where `P1` reports).
    line: u32,
    /// Rules the pragma names.
    rules: Vec<RuleId>,
    /// Scope.
    target: Target,
}

/// Parsed suppression state for one file, with per-rule usage accounting.
#[derive(Debug, Default)]
pub struct Suppressions {
    pragmas: Vec<Pragma>,
    /// Per pragma: the subset of its rules that suppressed ≥1 finding.
    used: Vec<HashSet<RuleId>>,
    /// Pragmas that failed to parse: (line, explanation).
    pub malformed: Vec<(u32, String)>,
}

impl Suppressions {
    /// Is `rule` suppressed at `line`? Read-only (no usage accounting).
    pub fn allows(&self, rule: RuleId, line: u32) -> bool {
        self.pragmas.iter().any(|p| p.rules.contains(&rule) && p.covers(line))
    }

    /// Like [`Suppressions::allows`], but records the hit against every
    /// covering pragma so stale pragmas can be reported afterwards.
    pub fn suppress(&mut self, rule: RuleId, line: u32) -> bool {
        let mut hit = false;
        for (i, p) in self.pragmas.iter().enumerate() {
            if p.rules.contains(&rule) && p.covers(line) {
                self.used[i].insert(rule);
                hit = true;
            }
        }
        hit
    }

    /// Stale entries after all findings were run through
    /// [`Suppressions::suppress`]: for each pragma, the rules it names
    /// that suppressed nothing. Returned as (pragma line, stale rules);
    /// pragmas whose every rule was used do not appear.
    pub fn stale(&self) -> Vec<(u32, Vec<RuleId>)> {
        self.pragmas
            .iter()
            .zip(&self.used)
            .filter_map(|(p, used)| {
                let unused: Vec<RuleId> =
                    p.rules.iter().copied().filter(|r| !used.contains(r)).collect();
                if unused.is_empty() {
                    None
                } else {
                    Some((p.line, unused))
                }
            })
            .collect()
    }
}

impl Pragma {
    fn covers(&self, line: u32) -> bool {
        match self.target {
            Target::File => true,
            Target::Line(l) => l == line,
        }
    }
}

/// The marker every pragma starts with.
const MARKER: &str = "nanocost-audit:";

/// Extracts suppressions from a token stream.
///
/// Line attachment: a pragma comment whose line also carries a non-trivia
/// token applies to its own line; otherwise it applies to the line of the
/// next non-trivia token.
pub fn collect(tokens: &[Token]) -> Suppressions {
    let mut out = Suppressions::default();
    for (idx, tok) in tokens.iter().enumerate() {
        // Only plain comments carry pragmas: doc comments are rendered
        // documentation and may legitimately *describe* the pragma syntax.
        let text = match &tok.kind {
            TokenKind::Comment(t) => t,
            _ => continue,
        };
        let Some(at) = text.find(MARKER) else { continue };
        let body = text[at + MARKER.len()..].trim();
        match parse_pragma(body) {
            Ok((rules, file_wide)) => {
                let target = if file_wide {
                    Target::File
                } else {
                    Target::Line(target_line(tokens, idx))
                };
                out.pragmas.push(Pragma { line: tok.line, rules, target });
                out.used.push(HashSet::new());
            }
            Err(why) => out.malformed.push((tok.line, why)),
        }
    }
    out
}

/// Which line a line-scoped pragma at token `idx` applies to.
fn target_line(tokens: &[Token], idx: usize) -> u32 {
    let own = tokens[idx].line;
    let code_on_own_line = tokens[..idx]
        .iter()
        .rev()
        .take_while(|t| t.line == own)
        .any(|t| !t.is_trivia());
    if code_on_own_line {
        return own;
    }
    tokens[idx + 1..]
        .iter()
        .find(|t| !t.is_trivia())
        .map(|t| t.line)
        .unwrap_or(own)
}

/// Parses `allow(R2, R3, reason = "…")` / `allow-file(…)`.
/// Returns the rules and whether the pragma is file-wide.
fn parse_pragma(body: &str) -> Result<(Vec<RuleId>, bool), String> {
    let (file_wide, rest) = if let Some(r) = body.strip_prefix("allow-file") {
        (true, r)
    } else if let Some(r) = body.strip_prefix("allow") {
        (false, r)
    } else {
        return Err(format!("unknown pragma `{body}`; expected allow(...) or allow-file(...)"));
    };
    let rest = rest.trim();
    let inner = rest
        .strip_prefix('(')
        .and_then(|r| r.rfind(')').map(|end| &r[..end]))
        .ok_or_else(|| "pragma arguments must be parenthesized".to_string())?;

    let mut rules = Vec::new();
    let mut has_reason = false;
    for part in split_args(inner) {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        if let Some(value) = part.strip_prefix("reason") {
            let value = value.trim().strip_prefix('=').map(str::trim);
            match value {
                Some(v) if v.starts_with('"') && v.ends_with('"') && v.len() >= 2 => {
                    has_reason = !v.trim_matches('"').trim().is_empty();
                }
                _ => return Err("reason must be a quoted string".into()),
            }
        } else if let Some(rule) = RuleId::parse(part) {
            rules.push(rule);
        } else {
            return Err(format!("unknown rule id `{part}`"));
        }
    }
    if rules.is_empty() {
        return Err("pragma names no rules".into());
    }
    if !has_reason {
        return Err("pragma is missing a reason = \"…\"".into());
    }
    Ok((rules, file_wide))
}

/// Splits pragma arguments on commas that are outside quoted strings.
fn split_args(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escaped = false;
    for c in s.chars() {
        match c {
            '\\' if in_str && !escaped => {
                escaped = true;
                cur.push(c);
                continue;
            }
            '"' if !escaped => in_str = !in_str,
            ',' if !in_str => {
                out.push(std::mem::take(&mut cur));
                continue;
            }
            _ => {}
        }
        escaped = false;
        cur.push(c);
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn same_line_pragma_targets_its_line() {
        let toks = lex("let x = 0.37; // nanocost-audit: allow(R3, reason = \"Table A1 calibration\")\nlet y = 1;");
        let s = collect(&toks);
        assert!(s.allows(RuleId::R3, 1));
        assert!(!s.allows(RuleId::R3, 2));
    }

    #[test]
    fn own_line_pragma_targets_next_code_line() {
        let src = "// nanocost-audit: allow(R2, reason = \"exact representable\")\nif a == 0.5 {}\n";
        let s = collect(&lex(src));
        assert!(s.allows(RuleId::R2, 2));
        assert!(!s.allows(RuleId::R2, 1));
    }

    #[test]
    fn own_line_pragma_skips_comment_lines() {
        let src = "// nanocost-audit: allow(R3, reason = \"paper constant\")\n// explanatory note\nlet k = 0.7;\n";
        let s = collect(&lex(src));
        assert!(s.allows(RuleId::R3, 3));
    }

    #[test]
    fn file_pragma_covers_everything() {
        let src = "// nanocost-audit: allow-file(R3, reason = \"calibration module\")\nfn f() { 0.123; }\n";
        let s = collect(&lex(src));
        assert!(s.allows(RuleId::R3, 999));
        assert!(!s.allows(RuleId::R2, 999));
    }

    #[test]
    fn doc_comments_do_not_carry_pragmas() {
        let src = "/// nanocost-audit: allow(R3, reason = \"just documentation\")\nfn f() {}\n";
        let s = collect(&lex(src));
        assert!(!s.allows(RuleId::R3, 2));
        assert!(s.malformed.is_empty());
    }

    #[test]
    fn multiple_rules_in_one_pragma() {
        let src = "// nanocost-audit: allow(R3, R2, reason = \"test shim\")\ncall();\n";
        let s = collect(&lex(src));
        assert!(s.allows(RuleId::R3, 2) && s.allows(RuleId::R2, 2));
    }

    #[test]
    fn missing_reason_is_malformed() {
        let s = collect(&lex("// nanocost-audit: allow(R3)\nx();\n"));
        assert!(!s.allows(RuleId::R3, 2));
        assert_eq!(s.malformed.len(), 1);
        assert!(s.malformed[0].1.contains("reason"));
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let s = collect(&lex("// nanocost-audit: allow(R99, reason = \"x\")\nx();\n"));
        assert_eq!(s.malformed.len(), 1);
        // R1 and R6 are clippy lints now: a leftover pragma is reported.
        for retired in ["R1", "R6"] {
            let src = format!("// nanocost-audit: allow({retired}, reason = \"x\")\nx();\n");
            assert_eq!(collect(&lex(&src)).malformed.len(), 1, "{retired}");
        }
    }

    #[test]
    fn new_rule_ids_are_suppressible() {
        let s = collect(&lex("// nanocost-audit: allow(R8, R10, reason = \"seeded fixture\")\nx();\n"));
        assert!(s.malformed.is_empty());
        assert!(s.allows(RuleId::R8, 2));
        assert!(s.allows(RuleId::R10, 2));
    }

    #[test]
    fn comma_inside_reason_is_not_a_separator() {
        let src = "// nanocost-audit: allow(R3, reason = \"a, b, and c\")\nx();\n";
        let s = collect(&lex(src));
        assert!(s.allows(RuleId::R3, 2));
        assert!(s.malformed.is_empty());
    }

    #[test]
    fn unused_pragma_rules_are_stale() {
        let src = "x = 0.37; // nanocost-audit: allow(R3, R2, reason = \"shim\")\n";
        let mut s = collect(&lex(src));
        assert!(s.suppress(RuleId::R3, 1));
        let stale = s.stale();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0], (1, vec![RuleId::R2]), "R2 suppressed nothing");
    }

    #[test]
    fn fully_used_pragma_is_not_stale() {
        let src = "x = 0.37; // nanocost-audit: allow(R3, reason = \"shim\")\n";
        let mut s = collect(&lex(src));
        assert!(s.suppress(RuleId::R3, 1));
        assert!(s.stale().is_empty());
    }

    #[test]
    fn never_hit_file_pragma_is_stale() {
        let src = "// nanocost-audit: allow-file(R7, reason = \"demo\")\nfn f() {}\n";
        let mut s = collect(&lex(src));
        assert!(!s.suppress(RuleId::R3, 2));
        assert_eq!(s.stale(), vec![(1, vec![RuleId::R7])]);
    }
}
