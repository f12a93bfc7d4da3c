//! Fixture: a pragma without the mandatory reason. The pragma itself is
//! reported as P0 and suppresses nothing.

/// Unwraps behind a bad pragma (cites eq. 1 for R5).
pub fn bad_pragma() -> f64 {
    let v: Option<f64> = Some(0.5);
    v.unwrap() // nanocost-audit: allow(R3)
}
