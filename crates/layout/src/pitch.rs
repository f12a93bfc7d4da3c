//! Dominant-pitch detection: find a layout's repetition period without
//! being told the cell size.
//!
//! The pattern extractor needs a window aligned with the artwork's pitch
//! to report meaningful reuse (a 14 × 13 λ bitcell tiled perfectly looks
//! irregular through a 16 × 16 window). This module recovers that pitch by
//! shift self-similarity: for each candidate shift `p`, the fraction of
//! cells that equal the cell `p` positions over; the smallest shift with a
//! near-perfect match is the pitch. This makes
//! [`RegularityAnalysis`](crate::RegularityAnalysis) self-configuring via
//! [`auto_analysis`].

use crate::error::LayoutError;
use crate::grid::LambdaGrid;
use crate::regularity::RegularityAnalysis;

/// The axis along which a pitch is measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Horizontal (x) shifts.
    Horizontal,
    /// Vertical (y) shifts.
    Vertical,
}

/// Self-similarity of the raster under a shift of `p` cells along `axis`:
/// the fraction of comparable cell pairs `(c, c shifted by p)` that match.
///
/// 1.0 means the layout is perfectly periodic with period `p` (over the
/// compared region); random artwork scores near its background collision
/// rate.
///
/// # Errors
///
/// Returns [`LayoutError::InvalidParameter`] if `shift` is zero or leaves
/// no overlap.
pub fn shift_similarity(
    grid: &LambdaGrid,
    axis: Axis,
    shift: usize,
) -> Result<f64, LayoutError> {
    let (w, h) = (grid.width(), grid.height());
    let limit = match axis {
        Axis::Horizontal => w,
        Axis::Vertical => h,
    };
    if shift == 0 || shift >= limit {
        return Err(LayoutError::InvalidParameter {
            name: "shift",
            reason: "shift must be positive and smaller than the grid",
        });
    }
    let mut matches = 0u64;
    let mut total = 0u64;
    match axis {
        Axis::Horizontal => {
            for y in 0..h {
                let row = grid.row(y);
                for x in 0..w - shift {
                    total += 1;
                    if row[x] == row[x + shift] {
                        matches += 1;
                    }
                }
            }
        }
        Axis::Vertical => {
            for y in 0..h - shift {
                let row_a = grid.row(y);
                let row_b = grid.row(y + shift);
                for x in 0..w {
                    total += 1;
                    if row_a[x] == row_b[x] {
                        matches += 1;
                    }
                }
            }
        }
    }
    Ok(matches as f64 / total as f64)
}

/// A detected pitch: the shift and its similarity score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pitch {
    /// The period, in λ.
    pub period: usize,
    /// Self-similarity at that period, in `[0, 1]`.
    pub similarity: f64,
}

/// Finds the dominant pitch along `axis`: the smallest shift in
/// `[2, max_period]` whose similarity is within 2 % of the best observed,
/// provided the best clears `threshold`.
///
/// Returns `None` when nothing periodic is found (irregular artwork).
///
/// # Errors
///
/// Returns [`LayoutError::InvalidParameter`] if `max_period` does not fit
/// the grid.
pub fn dominant_pitch(
    grid: &LambdaGrid,
    axis: Axis,
    max_period: usize,
    threshold: f64,
) -> Result<Option<Pitch>, LayoutError> {
    let limit = match axis {
        Axis::Horizontal => grid.width(),
        Axis::Vertical => grid.height(),
    };
    if max_period < 2 || max_period >= limit {
        return Err(LayoutError::InvalidParameter {
            name: "max_period",
            reason: "max period must be in [2, grid extent)",
        });
    }
    let mut scores = Vec::with_capacity(max_period - 1);
    for p in 2..=max_period {
        scores.push((p, shift_similarity(grid, axis, p)?));
    }
    let best = scores
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::NEG_INFINITY, f64::max);
    if best < threshold {
        return Ok(None);
    }
    // Smallest period within 2 % of the best: prefer the fundamental over
    // its harmonics. `best` is the max of `scores`, so the find always
    // succeeds; the fallthrough keeps the function total anyway.
    match scores.into_iter().find(|&(_, s)| s >= best - 0.02) {
        Some((period, similarity)) => Ok(Some(Pitch { period, similarity })),
        None => Ok(None),
    }
}

/// Builds a tiling [`RegularityAnalysis`] from the layout's own detected
/// pitches (falling back to `fallback` λ on an axis with no periodicity).
///
/// # Errors
///
/// Returns [`LayoutError`] if the grid is too small to scan or the
/// fallback is zero.
pub fn auto_analysis(
    grid: &LambdaGrid,
    max_period: usize,
    fallback: usize,
) -> Result<RegularityAnalysis, LayoutError> {
    const THRESHOLD: f64 = 0.95;
    let horizontal = dominant_pitch(grid, Axis::Horizontal, max_period, THRESHOLD)?;
    let vertical = dominant_pitch(grid, Axis::Vertical, max_period, THRESHOLD)?;
    let w = horizontal.map_or(fallback, |p| p.period);
    let h = vertical.map_or(fallback, |p| p.period);
    RegularityAnalysis::tiling_rect(w, h)
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;
    use crate::generator::{MemoryArrayGenerator, RandomBlockGenerator};

    #[test]
    fn memory_array_pitch_is_the_bitcell_pitch() {
        let array = MemoryArrayGenerator::new(16, 24).unwrap().generate().unwrap();
        // Scan only the cell region (skip the 20λ decoder strip) by using
        // the full grid: the array dominates, so the pitch still shows.
        let hx = dominant_pitch(array.grid(), Axis::Horizontal, 40, 0.9)
            .unwrap()
            .expect("memory array is periodic in x");
        let vy = dominant_pitch(array.grid(), Axis::Vertical, 40, 0.9)
            .unwrap()
            .expect("memory array is periodic in y");
        assert_eq!(hx.period, 14, "bitcell width");
        assert_eq!(vy.period, 13, "bitcell height");
        assert!(hx.similarity > 0.95 && vy.similarity > 0.95);
    }

    #[test]
    fn random_block_has_no_dominant_pitch() {
        let block = RandomBlockGenerator::new(256, 256, 400, 3)
            .unwrap()
            .generate()
            .unwrap();
        let p = dominant_pitch(block.grid(), Axis::Horizontal, 40, 0.95).unwrap();
        assert!(p.is_none(), "irregular artwork should not be periodic: {p:?}");
    }

    #[test]
    fn auto_analysis_matches_hand_tuned_window_on_memory() {
        let array = MemoryArrayGenerator::new(16, 24).unwrap().generate().unwrap();
        let auto = auto_analysis(array.grid(), 40, 16).unwrap();
        assert_eq!((auto.window_w, auto.window_h), (14, 13));
        // And it finds the same few-pattern structure the hand-tuned
        // window does.
        let report = auto.analyze(array.grid()).unwrap();
        assert!(report.reuse_factor() > 50.0);
    }

    #[test]
    fn auto_analysis_falls_back_on_irregular_artwork() {
        let block = RandomBlockGenerator::new(200, 200, 300, 9)
            .unwrap()
            .generate()
            .unwrap();
        let auto = auto_analysis(block.grid(), 40, 16).unwrap();
        assert_eq!((auto.window_w, auto.window_h), (16, 16));
    }

    #[test]
    fn empty_grid_is_trivially_periodic() {
        let grid = LambdaGrid::new(64, 64).unwrap();
        let s = shift_similarity(&grid, Axis::Horizontal, 5).unwrap();
        assert_eq!(s, 1.0);
        let p = dominant_pitch(&grid, Axis::Vertical, 20, 0.95)
            .unwrap()
            .expect("uniform grid is periodic at every shift");
        assert_eq!(p.period, 2);
    }

    #[test]
    fn parameter_validation() {
        let grid = LambdaGrid::new(32, 32).unwrap();
        assert!(shift_similarity(&grid, Axis::Horizontal, 0).is_err());
        assert!(shift_similarity(&grid, Axis::Horizontal, 32).is_err());
        assert!(dominant_pitch(&grid, Axis::Horizontal, 1, 0.9).is_err());
        assert!(dominant_pitch(&grid, Axis::Horizontal, 32, 0.9).is_err());
    }
}
