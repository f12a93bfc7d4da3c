//! R7 fixture: trace-macro names in library code, with every exemption
//! the rule grants — good names, test regions, and a reasoned pragma.

/// Figure 4 pipeline stage with a mixed-case span name; violates R7.
pub fn bad_case() {
    span!("MonteCarlo.Run");
}

/// Table A1 row event named from a runtime variable; violates R7.
pub fn dynamic_name(name: &str) {
    event!(name, row = 1u64);
}

/// Hot loop from Eq. (7) with compliant lowercase dotted names; clean.
pub fn good_names(wafers: u64) {
    span!("figure4.run");
    event!("mc.batch_done", wafers = wafers);
}

/// ITRS bridge that must mirror an external dashboard key; a reasoned
/// pragma suppresses the deliberate mixed-case name.
pub fn external_key() {
    // nanocost-audit: allow(R7, reason = "must match the legacy dashboard series name verbatim")
    event!("Legacy.SeriesName");
}

#[cfg(test)]
mod tests {
    #[test]
    fn scratch_names_are_fine_in_tests() {
        span!("Scratch.Name");
    }
}
