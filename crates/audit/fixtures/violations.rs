//! Fixture: one (or more) violation per rule, at stable line numbers.
//! Audited as if it lived at `crates/core/src/violations.rs`.

/// Missing a citation on purpose: R5 fires here.
pub fn missing_citation() -> f64 {
    let v: Option<f64> = Some(0.5);
    v.unwrap()
}

/// Compares floats directly (cites eq. 3 so R5 stays quiet).
pub fn direct_compare(x: f64) -> bool {
    x == 0.0 || x == 0.3
}

/// Raw density parameter (cites eq. 2 so R5 stays quiet).
pub fn raw_density(sd: f64) -> f64 {
    sd * 1.234
}
