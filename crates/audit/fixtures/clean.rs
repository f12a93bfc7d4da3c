//! Fixture: a file whose only would-be violation is suppressed by a
//! well-formed pragma. Must audit to zero diagnostics.

/// Scales by a calibration constant (cites eq. 1 for R5).
pub fn suppressed() -> f64 {
    let v: f64 = 0.5;
    v * 0.37 // nanocost-audit: allow(R3, reason = "fixture demonstrates suppression")
}
