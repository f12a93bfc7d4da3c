//! Self-audit: the workspace must pass its own static analysis with
//! `--deny` semantics (no errors, no warnings). This is the in-tree
//! equivalent of the CI gate in `scripts/ci.sh`.

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

use std::path::PathBuf;

use nanocost_audit::{audit_workspace, verdict, AuditOptions, Verdict};

#[test]
fn the_workspace_audits_clean_under_deny() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root exists");
    let diags = audit_workspace(&root, AuditOptions { strict_pragmas: true })
        .expect("workspace walk succeeds");
    let rendered: Vec<String> = diags.iter().map(|d| d.render_text()).collect();
    assert_eq!(
        verdict(&diags, true),
        Verdict::Pass,
        "workspace must audit clean under --deny:\n{}",
        rendered.join("\n")
    );
}
