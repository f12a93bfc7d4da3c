//! Shared figure- and table-regeneration routines for the `nanocost`
//! reproduction.
//!
//! Each function builds the artifact behind one of the paper's exhibits;
//! the `src/bin/*` regeneration binaries print them and the in-tree harness
//! benches time them, so the two can never drift apart.

#![warn(missing_docs)]
#![allow(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the bench harness exists to write results to the console"
)]

pub mod figures;
pub mod harness;
pub mod report;

// Re-exported so `criterion_main!`'s generated `main` can install the
// trace subscriber through `$crate::` without each suite naming the dep.
pub use nanocost_trace;
