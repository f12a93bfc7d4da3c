//! Layout-driven critical-area extraction.
//!
//! The parametric [`CriticalAreaModel`](crate::CriticalAreaModel) maps
//! `s_d` to a sensitivity fraction by assumption; this module *measures*
//! the short-circuit critical area of actual artwork. For a defect of
//! diameter `x` landing in a gap of width `g` between two conductors, a
//! short forms when `x > g`; the expected critical width of that gap
//! under the defect-size distribution is `∫ (x − g)⁺ f(x) dx` — for the
//! classical `1/x³` tail this is `x0²/(2g)` when `g ≥ x0`, so *halving
//! spacings doubles sensitivity*: the physics behind the paper's claim
//! that yield depends on design density, not just area.

use nanocost_layout::LambdaGrid;
use nanocost_units::{FeatureSize, UnitError};

use crate::defect::DefectSizeDistribution;

/// Result of scanning a raster for short-circuit critical area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalScan {
    /// Expected short-critical area from horizontal (in-row) gaps, µm².
    pub horizontal_um2: f64,
    /// Expected short-critical area from vertical (in-column) gaps, µm².
    pub vertical_um2: f64,
    /// Total drawn area, µm².
    pub total_um2: f64,
    /// Number of conductor gaps scanned.
    pub gaps: u64,
}

impl CriticalScan {
    /// The measured short-critical fraction of the artwork — the
    /// layout-derived replacement for the parametric sensitivity
    /// fraction behind the paper's §2.5 density-dependent yield.
    #[must_use]
    pub fn critical_fraction(&self) -> f64 {
        ((self.horizontal_um2 + self.vertical_um2) / self.total_um2).min(1.0)
    }
}

/// Expected critical width `∫ (x − g)⁺ f(x) dx` for a gap of `gap_um`
/// microns under `dist` — the classical defect-size statistics of the
/// paper's yield lineage — by trapezoidal integration (exact closed form
/// `x0²/(2g)` exists only for `g ≥ x0`).
#[must_use]
pub fn expected_critical_width_um(dist: DefectSizeDistribution, gap_um: f64) -> f64 {
    if gap_um < 0.0 {
        return 0.0;
    }
    let x0 = dist.peak_um();
    /// Integration cutoff in units of the distribution peak: the `1/x³`
    /// tail beyond `50·x0` contributes less than 0.04 % of the integral.
    const TAIL_CUTOFF_PEAKS: f64 = 50.0;
    /// Minimum cutoff in units of the gap, so wide gaps keep a full bracket.
    const TAIL_CUTOFF_GAPS: f64 = 4.0;
    let upper = (TAIL_CUTOFF_PEAKS * x0).max(gap_um * TAIL_CUTOFF_GAPS + x0);
    let steps = 4_000;
    let h = (upper - gap_um) / steps as f64;
    if h <= 0.0 {
        return 0.0;
    }
    let f = |x: f64| (x - gap_um).max(0.0) * dist.density(x);
    let mut acc = 0.5 * (f(gap_um) + f(upper));
    for k in 1..steps {
        acc += f(gap_um + h * k as f64);
    }
    // Analytic tail beyond the cutoff, where f(x) = x0²·x⁻³ exactly:
    // ∫_U^∞ (x−g)·x0²·x⁻³ dx = x0²·(1/U − g/(2U²)).
    let tail = x0 * x0 * (1.0 / upper - gap_um / (2.0 * upper * upper));
    acc * h + tail.max(0.0)
}

/// Scans a raster for conductor gaps (runs of empty cells bounded by
/// occupied cells on both sides) in both axes and integrates the
/// short-circuit critical area under `dist`, with the grid's λ pitch
/// given by `lambda` — grounding §2.5's yield-versus-density coupling in
/// actual artwork.
///
/// # Errors
///
/// Returns [`UnitError::NotPositive`] for an empty raster (no artwork to
/// scan — distinguishable from artwork with no gaps, which returns a
/// zero-fraction scan).
pub fn critical_scan(
    grid: &LambdaGrid,
    dist: DefectSizeDistribution,
    lambda: FeatureSize,
) -> Result<CriticalScan, UnitError> {
    if grid.occupied_cells() == 0 {
        return Err(UnitError::NotPositive {
            quantity: "occupied cells",
            value: 0.0,
        });
    }
    let lam_um = lambda.microns();
    let mut gaps = 0u64;
    let mut horizontal_um2 = 0.0;
    // Cache expected widths per integer gap size: gaps repeat heavily.
    let mut cache: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    let mut width_for = |gap_cells: u64| -> f64 {
        *cache
            .entry(gap_cells)
            .or_insert_with(|| expected_critical_width_um(dist, gap_cells as f64 * lam_um))
    };
    // Horizontal scan: within each row, gaps between occupied cells.
    for y in 0..grid.height() {
        let row = grid.row(y);
        let mut run_start: Option<usize> = None;
        let mut seen_conductor = false;
        for (x, &c) in row.iter().enumerate() {
            if c == 0 {
                if seen_conductor && run_start.is_none() {
                    run_start = Some(x);
                }
            } else {
                if let Some(start) = run_start.take() {
                    let gap_cells = (x - start) as u64;
                    gaps += 1;
                    // Segment length is one λ (this row's slice of the gap).
                    horizontal_um2 += width_for(gap_cells) * lam_um;
                }
                seen_conductor = true;
            }
        }
    }
    // Vertical scan: same logic down each column.
    let mut vertical_um2 = 0.0;
    for x in 0..grid.width() {
        let mut run_start: Option<usize> = None;
        let mut seen_conductor = false;
        for y in 0..grid.height() {
            #[expect(
                clippy::expect_used,
                reason = "documented invariant: in bounds by loop"
            )]
            let c = grid.get(x as i64, y as i64).expect("in bounds by loop");
            if c == 0 {
                if seen_conductor && run_start.is_none() {
                    run_start = Some(y);
                }
            } else {
                if let Some(start) = run_start.take() {
                    let gap_cells = (y - start) as u64;
                    gaps += 1;
                    vertical_um2 += width_for(gap_cells) * lam_um;
                }
                seen_conductor = true;
            }
        }
    }
    Ok(CriticalScan {
        horizontal_um2,
        vertical_um2,
        total_um2: grid.area_squares() as f64 * lam_um * lam_um,
        gaps,
    })
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;
    use nanocost_layout::{MemoryArrayGenerator, Rect, StdCellGenerator};

    fn um(x: f64) -> FeatureSize {
        FeatureSize::from_microns(x).unwrap()
    }

    fn dist() -> DefectSizeDistribution {
        DefectSizeDistribution::new(0.2).unwrap()
    }

    #[test]
    fn expected_width_matches_closed_form_above_peak() {
        // g ≥ x0: ∫_g^∞ (x−g)·x0²x⁻³ dx = x0²/(2g).
        let d = dist();
        for &g in &[0.2, 0.4, 1.0, 2.0] {
            let numeric = expected_critical_width_um(d, g);
            let analytic = 0.2 * 0.2 / (2.0 * g);
            assert!(
                (numeric - analytic).abs() / analytic < 0.01,
                "g={g}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn zero_gap_has_maximal_expected_width() {
        // g = 0 means every defect of any size shorts: E = mean defect size.
        let d = dist();
        let at_zero = expected_critical_width_um(d, 0.0);
        let at_peak = expected_critical_width_um(d, 0.2);
        assert!(at_zero > at_peak);
        assert!(expected_critical_width_um(d, -1.0) == 0.0);
    }

    #[test]
    fn parallel_wires_scan_matches_hand_construction() {
        // Two long horizontal wires, 2λ gap, on a 1µm process: every
        // column contributes one vertical gap of 2 cells.
        let mut g = LambdaGrid::new(50, 8).unwrap();
        g.fill_rect(Rect::new(0, 2, 50, 3).unwrap(), 3).unwrap();
        g.fill_rect(Rect::new(0, 5, 50, 6).unwrap(), 3).unwrap();
        let scan = critical_scan(&g, dist(), um(1.0)).unwrap();
        assert_eq!(scan.gaps, 50); // one vertical gap per column, no horizontal
        let expect = expected_critical_width_um(dist(), 2.0) * 1.0 * 50.0;
        assert!((scan.vertical_um2 - expect).abs() < 1e-9);
        assert_eq!(scan.horizontal_um2, 0.0);
    }

    #[test]
    fn tighter_spacing_raises_the_critical_fraction() {
        let build = |gap: i64| {
            let mut g = LambdaGrid::new(60, 20).unwrap();
            g.fill_rect(Rect::new(0, 5, 60, 6).unwrap(), 3).unwrap();
            g.fill_rect(Rect::new(0, 6 + gap, 60, 7 + gap).unwrap(), 3).unwrap();
            critical_scan(&g, dist(), um(0.25)).unwrap().critical_fraction()
        };
        assert!(build(1) > build(4));
    }

    #[test]
    fn dense_memory_is_more_critical_than_sparse_std_cells() {
        // The measured analogue of the parametric CriticalAreaModel claim.
        let mem = MemoryArrayGenerator::new(8, 12).unwrap().generate().unwrap();
        let sparse = StdCellGenerator::new(4, 300, 30, 0.4, 5).unwrap().generate().unwrap();
        let lambda = um(0.25);
        let mem_scan = critical_scan(mem.grid(), dist(), lambda).unwrap();
        let sparse_scan = critical_scan(sparse.grid(), dist(), lambda).unwrap();
        assert!(
            mem_scan.critical_fraction() > sparse_scan.critical_fraction(),
            "memory {} vs sparse {}",
            mem_scan.critical_fraction(),
            sparse_scan.critical_fraction()
        );
    }

    #[test]
    fn empty_grid_is_an_error_not_zero() {
        let g = LambdaGrid::new(16, 16).unwrap();
        assert!(critical_scan(&g, dist(), um(0.25)).is_err());
    }

    #[test]
    fn fraction_is_bounded() {
        let mem = MemoryArrayGenerator::new(4, 6).unwrap().generate().unwrap();
        let scan = critical_scan(mem.grid(), dist(), um(0.05)).unwrap();
        assert!((0.0..=1.0).contains(&scan.critical_fraction()));
    }
}
