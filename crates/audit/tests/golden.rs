//! Golden-file tests: fixtures in `fixtures/` are audited as if they were
//! `crates/core/src/` files, and the rendered text and JSON reports must
//! match their checked-in `.expected.txt` / `.expected.json` siblings
//! byte-for-byte. Regenerate with `NANOCOST_AUDIT_BLESS=1 cargo test -p
//! nanocost-audit`.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "test code: a failed unwrap or panic is a failed test, and output is diagnostics"
)]

use std::fs;
use std::path::PathBuf;

use nanocost_audit::diagnostics::{render_json_report, sort_diagnostics, Diagnostic, RuleId};
use nanocost_audit::{audit_source, audit_workspace, verdict, AuditOptions, Verdict};

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn audit_fixture(name: &str) -> Vec<Diagnostic> {
    let src = fs::read_to_string(fixture_dir().join(name)).expect("fixture exists");
    let rel = format!("crates/core/src/{name}");
    let mut diags = audit_source(&rel, "core", &src);
    sort_diagnostics(&mut diags);
    diags
}

fn check_golden(name: &str, rendered: &str) {
    let path = fixture_dir().join(name);
    if std::env::var_os("NANOCOST_AUDIT_BLESS").is_some() {
        fs::write(&path, rendered).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path)
        .expect("golden file exists (NANOCOST_AUDIT_BLESS=1 regenerates)");
    assert_eq!(rendered, expected, "golden mismatch for {name}");
}

fn render_text_report(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        out.push_str(&d.render_text());
        out.push('\n');
    }
    out
}

#[test]
fn violations_fixture_matches_goldens() {
    let diags = audit_fixture("violations.rs");
    check_golden("violations.expected.txt", &render_text_report(&diags));
    check_golden("violations.expected.json", &render_json_report(&diags));
}

#[test]
fn violations_fixture_trips_every_main_rule() {
    let diags = audit_fixture("violations.rs");
    for rule in [RuleId::R2, RuleId::R3, RuleId::R4, RuleId::R5] {
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "fixture should trip {rule}: {diags:?}"
        );
    }
}

#[test]
fn r7_fixture_matches_golden_and_honors_exemptions() {
    let diags = audit_fixture("r7_span_names.rs");
    check_golden("r7_span_names.expected.txt", &render_text_report(&diags));
    assert_eq!(diags.len(), 2, "one bad literal + one dynamic name: {diags:?}");
    assert!(diags.iter().all(|d| d.rule == RuleId::R7));
    // The pragma-suppressed event! and the test-module span! are absent.
    assert!(diags.iter().all(|d| d.line < 20));
}

#[test]
fn r8_fixture_matches_golden_and_honors_sanitizers() {
    let diags = audit_fixture("r8_taint.rs");
    check_golden("r8_taint.expected.txt", &render_text_report(&diags));
    assert!(diags.iter().all(|d| d.rule == RuleId::R8), "{diags:?}");
    assert_eq!(diags.len(), 3, "arith + alloc + index, nothing else: {diags:?}");
    // The guarded/parsed/len'd/waived fns audit clean — no diagnostic at
    // or past `guarded`'s first line.
    assert!(diags.iter().all(|d| d.line < 21), "{diags:?}");
}

#[test]
fn r9_fixture_matches_golden_and_credits_discipline() {
    let diags = audit_fixture("r9_locks.rs");
    check_golden("r9_locks.expected.txt", &render_text_report(&diags));
    assert!(diags.iter().all(|d| d.rule == RuleId::R9), "{diags:?}");
    let poison = diags.iter().filter(|d| d.message.contains("poisoned mutex")).count();
    let order = diags.iter().filter(|d| d.message.contains("inconsistent order")).count();
    let io = diags.iter().filter(|d| d.message.contains("I/O call")).count();
    assert_eq!((poison, order, io), (1, 2, 1), "{diags:?}");
}

#[test]
fn r10_fixture_matches_golden_and_checks_both_directions() {
    let diags = audit_fixture("r10_provenance.rs");
    check_golden("r10_provenance.expected.txt", &render_text_report(&diags));
    assert!(diags.iter().all(|d| d.rule == RuleId::R10), "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("cites Eq. 4")), "forward: {diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("never cites Eq. 6")), "reverse: {diags:?}");
    assert_eq!(diags.len(), 2, "clean direct/transitive shapes stay clean: {diags:?}");
}

#[test]
fn clean_fixture_is_clean() {
    let diags = audit_fixture("clean.rs");
    assert!(diags.is_empty(), "clean fixture must audit clean: {diags:?}");
}

#[test]
fn malformed_pragma_fixture_reports_p0() {
    let diags = audit_fixture("malformed_pragma.rs");
    check_golden("malformed_pragma.expected.txt", &render_text_report(&diags));
    assert_eq!(diags.iter().map(|d| d.rule).collect::<Vec<_>>(), [RuleId::P0], "{diags:?}");
}

/// The seeded mini-workspace under `fixtures/seeded/` re-introduces the
/// bug shapes the new rules exist to catch. If this test starts passing
/// with an empty report, the analyzer has gone blind — which is exactly
/// what the assertion (and the matching `scripts/ci.sh` negative gate)
/// exists to detect.
#[test]
fn seeded_workspace_trips_the_dataflow_rules() {
    let root = fixture_dir().join("seeded");
    let mut diags = audit_workspace(&root, AuditOptions::default()).expect("seeded walk");
    sort_diagnostics(&mut diags);
    check_golden("seeded/expected.txt", &render_text_report(&diags));
    assert_eq!(verdict(&diags, true), Verdict::Errors);
    for rule in [RuleId::R8, RuleId::R9, RuleId::R10] {
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "seeded workspace must trip {rule}: {diags:?}"
        );
    }
    // The specific seeded shapes, by name.
    assert!(diags.iter().any(|d| d.message.contains("Dollars::new")), "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("inconsistent order")), "{diags:?}");
    assert!(diags.iter().any(|d| d.message.contains("cites Eq. 5")), "{diags:?}");
}

#[test]
fn json_report_round_trips_through_the_golden() {
    // The golden JSON is the source of truth for the output contract:
    // stable key order, one diagnostics array, and an error/warning count
    // object. Spot-check the structure without a JSON parser.
    let json = fs::read_to_string(fixture_dir().join("violations.expected.json"))
        .expect("golden exists");
    assert!(json.starts_with("{\"schema\":2,\"diagnostics\":["));
    assert!(json.contains("\"counts\":{\"error\":"));
    assert!(json.ends_with("}\n"));
    let reports = audit_fixture("violations.rs");
    assert_eq!(render_json_report(&reports), json);
}
