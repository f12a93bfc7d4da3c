//! A complete layout: raster artwork plus its transistor census, and the
//! density measurements the cost model consumes.

use nanocost_units::{Area, DecompressionIndex, FeatureSize, TransistorCount};

use crate::error::LayoutError;
use crate::grid::LambdaGrid;

/// A finished block of layout: the λ-grid artwork and how many transistors
/// it implements.
///
/// ```
/// use nanocost_layout::{LambdaGrid, Layout, Rect};
///
/// let mut g = LambdaGrid::new(100, 100)?;
/// g.fill_rect(Rect::new(0, 0, 50, 50)?, 1)?;
/// let layout = Layout::new(g, 40)?;
/// assert_eq!(layout.measured_sd().squares(), 250.0); // 10000 λ² / 40 tr
/// # Ok::<(), nanocost_layout::LayoutError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Layout {
    grid: LambdaGrid,
    transistors: u64,
}

impl Layout {
    /// Creates a layout.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] if the transistor count is
    /// zero.
    pub fn new(grid: LambdaGrid, transistors: u64) -> Result<Self, LayoutError> {
        if transistors == 0 {
            return Err(LayoutError::InvalidParameter {
                name: "transistors",
                reason: "a layout must implement at least one transistor",
            });
        }
        Ok(Layout { grid, transistors })
    }

    /// The artwork raster.
    #[must_use]
    pub fn grid(&self) -> &LambdaGrid {
        &self.grid
    }

    /// The transistor census.
    #[must_use]
    pub fn transistors(&self) -> u64 {
        self.transistors
    }

    /// The transistor count as a typed quantity.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: validated non-zero at construction"
    )]
    pub fn transistor_count(&self) -> TransistorCount {
        TransistorCount::new(self.transistors as f64)
            .expect("validated non-zero at construction")
    }

    /// The measured design decompression index: drawn λ² squares per
    /// transistor (eq. 2 applied to the actual artwork instead of published
    /// die data).
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: positive area over positive count"
    )]
    pub fn measured_sd(&self) -> DecompressionIndex {
        DecompressionIndex::new(self.grid.area_squares() as f64 / self.transistors as f64)
            .expect("positive area over positive count")
    }

    /// The physical die area this layout occupies at node `lambda`.
    #[must_use]
    pub fn physical_area(&self, lambda: FeatureSize) -> Area {
        lambda.square() * self.grid.area_squares() as f64
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;
    use crate::geom::Rect;

    #[test]
    fn measured_sd_is_area_over_transistors() {
        let g = LambdaGrid::new(60, 50).unwrap();
        let l = Layout::new(g, 10).unwrap();
        assert_eq!(l.measured_sd().squares(), 300.0);
    }

    #[test]
    fn physical_area_scales_with_lambda_squared() {
        let g = LambdaGrid::new(1000, 1000).unwrap();
        let l = Layout::new(g, 5000).unwrap();
        let a025 = l.physical_area(FeatureSize::from_microns(0.25).unwrap());
        let a050 = l.physical_area(FeatureSize::from_microns(0.5).unwrap());
        assert!((a050.cm2() / a025.cm2() - 4.0).abs() < 1e-9);
        // 10^6 λ² at 0.25µm = 10^6 · 6.25e-10 cm² = 6.25e-4 cm².
        assert!((a025.cm2() - 6.25e-4).abs() < 1e-12);
    }

    #[test]
    fn zero_transistors_rejected() {
        let g = LambdaGrid::new(4, 4).unwrap();
        assert!(Layout::new(g, 0).is_err());
    }

    #[test]
    fn transistor_count_round_trips() {
        let mut g = LambdaGrid::new(8, 8).unwrap();
        g.fill_rect(Rect::new(0, 0, 2, 2).unwrap(), 1).unwrap();
        let l = Layout::new(g, 4).unwrap();
        assert_eq!(l.transistor_count().count(), 4.0);
    }
}
