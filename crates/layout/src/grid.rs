//! The λ-grid raster: a dense 2-D field of layer codes.
//!
//! Real mask layouts are polygonal; for density and regularity analysis a
//! rasterized abstraction at λ resolution is sufficient and makes window
//! hashing (the pattern extractor's core operation) trivial and fast.

use crate::error::LayoutError;
use crate::geom::Rect;

/// A layer code stored per λ² cell. `0` means empty; small positive values
/// distinguish drawing layers (diffusion, poly, metal-1, …).
pub type LayerCode = u8;

/// A dense raster of [`LayerCode`]s over a `width × height` λ grid.
///
/// ```
/// use nanocost_layout::{LambdaGrid, Rect};
///
/// let mut g = LambdaGrid::new(8, 8)?;
/// g.fill_rect(Rect::new(1, 1, 4, 3)?, 2)?;
/// assert_eq!(g.get(2, 2)?, 2);
/// assert_eq!(g.occupied_cells(), 6);
/// # Ok::<(), nanocost_layout::LayoutError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LambdaGrid {
    width: usize,
    height: usize,
    cells: Vec<LayerCode>,
}

impl LambdaGrid {
    /// Creates an empty grid.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::EmptyGrid`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self, LayoutError> {
        if width == 0 || height == 0 {
            return Err(LayoutError::EmptyGrid { width, height });
        }
        Ok(LambdaGrid {
            width,
            height,
            cells: vec![0; width * height],
        })
    }

    /// Grid width in λ.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height in λ.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total cell count (`width × height`), i.e. the drawn area in λ²
    /// squares.
    #[must_use]
    pub fn area_squares(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    fn index(&self, x: i64, y: i64) -> Result<usize, LayoutError> {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            return Err(LayoutError::OutOfBounds {
                x,
                y,
                width: self.width,
                height: self.height,
            });
        }
        Ok(y as usize * self.width + x as usize)
    }

    /// Reads the layer code at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::OutOfBounds`] outside the grid.
    pub fn get(&self, x: i64, y: i64) -> Result<LayerCode, LayoutError> {
        Ok(self.cells[self.index(x, y)?])
    }

    /// Writes the layer code at `(x, y)`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::OutOfBounds`] outside the grid.
    pub fn set(&mut self, x: i64, y: i64, code: LayerCode) -> Result<(), LayoutError> {
        let i = self.index(x, y)?;
        self.cells[i] = code;
        Ok(())
    }

    /// Fills a rectangle with a layer code.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::OutOfBounds`] if any part of the rectangle
    /// falls outside the grid.
    pub fn fill_rect(&mut self, rect: Rect, code: LayerCode) -> Result<(), LayoutError> {
        // Validate both corners first so the fill is all-or-nothing.
        self.index(rect.x0, rect.y0)?;
        self.index(rect.x1 - 1, rect.y1 - 1)?;
        for y in rect.y0..rect.y1 {
            let row = y as usize * self.width;
            for x in rect.x0..rect.x1 {
                self.cells[row + x as usize] = code;
            }
        }
        Ok(())
    }

    /// Stamps another grid onto this one at offset `(x, y)`; empty (zero)
    /// source cells are transparent.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::OutOfBounds`] if the stamp would not fit.
    pub fn stamp(&mut self, src: &LambdaGrid, x: i64, y: i64) -> Result<(), LayoutError> {
        self.index(x, y)?;
        self.index(x + src.width as i64 - 1, y + src.height as i64 - 1)?;
        for sy in 0..src.height {
            let src_row = sy * src.width;
            let dst_row = (y as usize + sy) * self.width + x as usize;
            for sx in 0..src.width {
                let code = src.cells[src_row + sx];
                if code != 0 {
                    self.cells[dst_row + sx] = code;
                }
            }
        }
        Ok(())
    }

    /// Number of non-empty cells.
    #[must_use]
    pub fn occupied_cells(&self) -> u64 {
        self.cells.iter().filter(|&&c| c != 0).count() as u64
    }

    /// Fraction of cells that are non-empty.
    #[must_use]
    pub fn occupancy(&self) -> f64 {
        self.occupied_cells() as f64 / self.area_squares() as f64
    }

    /// A borrow of one row of cells.
    ///
    /// # Panics
    ///
    /// Panics if `y >= height`.
    #[must_use]
    pub fn row(&self, y: usize) -> &[LayerCode] {
        assert!(y < self.height, "row {y} outside grid of height {}", self.height);
        &self.cells[y * self.width..(y + 1) * self.width]
    }

    /// A stable 64-bit hash of the `window × window` region whose lower-left
    /// corner is `(x, y)` — the pattern signature used by the regularity
    /// extractor. FNV-1a over the raw layer codes.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the window does not fit at that position.
    pub fn window_signature(&self, x: i64, y: i64, window: usize) -> Result<u64, LayoutError> {
        self.rect_signature(x, y, window, window)
    }

    /// A stable 64-bit hash of the `w × h` region whose lower-left corner
    /// is `(x, y)`. Rectangular windows let the extractor align with
    /// non-square cell pitches (e.g. an SRAM bitcell's 14 × 13 λ).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if the window does not fit at that position.
    pub fn rect_signature(&self, x: i64, y: i64, w: usize, h: usize) -> Result<u64, LayoutError> {
        if w == 0 || h == 0 || w > self.width || h > self.height {
            return Err(LayoutError::WindowTooLarge {
                window: w.max(h),
                width: self.width,
                height: self.height,
            });
        }
        self.index(x, y)?;
        self.index(x + w as i64 - 1, y + h as i64 - 1)?;
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for wy in 0..h {
            let row = (y as usize + wy) * self.width + x as usize;
            for &c in &self.cells[row..row + w] {
                hash ^= u64::from(c);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
        }
        Ok(hash)
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;

    #[test]
    fn new_grid_is_empty() {
        let g = LambdaGrid::new(4, 3).unwrap();
        assert_eq!(g.area_squares(), 12);
        assert_eq!(g.occupied_cells(), 0);
        assert_eq!(g.occupancy(), 0.0);
    }

    #[test]
    fn zero_dimension_rejected() {
        assert!(LambdaGrid::new(0, 5).is_err());
        assert!(LambdaGrid::new(5, 0).is_err());
    }

    #[test]
    fn set_get_round_trip_and_bounds() {
        let mut g = LambdaGrid::new(3, 3).unwrap();
        g.set(2, 2, 7).unwrap();
        assert_eq!(g.get(2, 2).unwrap(), 7);
        assert!(g.get(3, 0).is_err());
        assert!(g.get(-1, 0).is_err());
        assert!(g.set(0, 3, 1).is_err());
    }

    #[test]
    fn fill_rect_counts_cells() {
        let mut g = LambdaGrid::new(10, 10).unwrap();
        g.fill_rect(Rect::new(2, 3, 5, 7).unwrap(), 1).unwrap();
        assert_eq!(g.occupied_cells(), 12);
        assert!((g.occupancy() - 0.12).abs() < 1e-12);
    }

    #[test]
    fn fill_rect_out_of_bounds_is_all_or_nothing() {
        let mut g = LambdaGrid::new(4, 4).unwrap();
        assert!(g.fill_rect(Rect::new(2, 2, 6, 6).unwrap(), 1).is_err());
        assert_eq!(g.occupied_cells(), 0);
    }

    #[test]
    fn stamp_is_transparent_for_empty_cells() {
        let mut base = LambdaGrid::new(6, 6).unwrap();
        base.fill_rect(Rect::new(0, 0, 6, 6).unwrap(), 9).unwrap();
        let mut stamp = LambdaGrid::new(2, 2).unwrap();
        stamp.set(0, 0, 3).unwrap();
        base.stamp(&stamp, 1, 1).unwrap();
        assert_eq!(base.get(1, 1).unwrap(), 3);
        // The stamp's empty cell did not erase the base.
        assert_eq!(base.get(2, 2).unwrap(), 9);
    }

    #[test]
    fn stamp_must_fit() {
        let mut base = LambdaGrid::new(4, 4).unwrap();
        let stamp = LambdaGrid::new(3, 3).unwrap();
        assert!(base.stamp(&stamp, 2, 2).is_err());
        assert!(base.stamp(&stamp, 1, 1).is_ok());
    }

    #[test]
    fn window_signature_detects_equality_and_difference() {
        let mut g = LambdaGrid::new(8, 4).unwrap();
        // Two identical 3x3 motifs at x=0 and x=4.
        for &x in &[0i64, 4] {
            g.fill_rect(Rect::new(x, 0, x + 2, 2).unwrap(), 1).unwrap();
            g.set(x + 2, 2, 2).unwrap();
        }
        let a = g.window_signature(0, 0, 3).unwrap();
        let b = g.window_signature(4, 0, 3).unwrap();
        assert_eq!(a, b);
        let c = g.window_signature(1, 0, 3).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn window_signature_validates() {
        let g = LambdaGrid::new(4, 4).unwrap();
        assert!(g.window_signature(0, 0, 0).is_err());
        assert!(g.window_signature(0, 0, 5).is_err());
        assert!(g.window_signature(2, 2, 3).is_err());
    }

    #[test]
    fn row_access() {
        let mut g = LambdaGrid::new(3, 2).unwrap();
        g.set(1, 1, 5).unwrap();
        assert_eq!(g.row(1), &[0, 5, 0]);
    }
}
