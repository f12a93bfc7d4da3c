//! Leaf-cell templates and the standard-cell library.
//!
//! Cells are small λ-grid rasters with a known transistor count. Their
//! geometry is synthetic but dimensionally honest: the SRAM bitcell lands
//! at the paper's `s_d ≈ 30` squares/transistor, and logic cells at
//! 100–160 before routing overhead.

use crate::error::LayoutError;
use crate::geom::Rect;
use crate::grid::{LambdaGrid, LayerCode};

/// A reusable leaf cell: a raster footprint plus its transistor count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellTemplate {
    name: String,
    grid: LambdaGrid,
    transistors: u64,
}

impl CellTemplate {
    /// Creates a template.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] if the transistor count is
    /// zero.
    pub fn new(
        name: impl Into<String>,
        grid: LambdaGrid,
        transistors: u64,
    ) -> Result<Self, LayoutError> {
        if transistors == 0 {
            return Err(LayoutError::InvalidParameter {
                name: "transistors",
                reason: "a cell must contain at least one transistor",
            });
        }
        Ok(CellTemplate {
            name: name.into(),
            grid,
            transistors,
        })
    }

    /// The cell name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell footprint raster.
    #[must_use]
    pub fn grid(&self) -> &LambdaGrid {
        &self.grid
    }

    /// Transistors in the cell.
    #[must_use]
    pub fn transistors(&self) -> u64 {
        self.transistors
    }

    /// Footprint width in λ.
    #[must_use]
    pub fn width(&self) -> usize {
        self.grid.width()
    }

    /// Footprint height in λ.
    #[must_use]
    pub fn height(&self) -> usize {
        self.grid.height()
    }

    /// The cell's intrinsic decompression index: footprint λ² squares per
    /// transistor, before any placement/routing overhead.
    #[must_use]
    pub fn intrinsic_sd(&self) -> f64 {
        self.grid.area_squares() as f64 / self.transistors as f64
    }
}

/// Layer codes used by the synthetic cell artwork.
pub mod layers {
    use super::LayerCode;
    /// Active/diffusion.
    pub const DIFFUSION: LayerCode = 1;
    /// Polysilicon gate.
    pub const POLY: LayerCode = 2;
    /// Metal 1.
    pub const METAL1: LayerCode = 3;
    /// Contact/via.
    pub const CONTACT: LayerCode = 4;
}

fn draw_transistor_pair(
    grid: &mut LambdaGrid,
    x: i64,
    y: i64,
) -> Result<(), LayoutError> {
    // A stylized pair: diffusion strip with a poly gate crossing it and a
    // contact — 4λ wide, 6λ tall.
    grid.fill_rect(Rect::new(x, y, x + 4, y + 2)?, layers::DIFFUSION)?;
    grid.fill_rect(Rect::new(x + 1, y, x + 2, y + 6)?, layers::POLY)?;
    grid.set(x + 3, y + 1, layers::CONTACT)?;
    Ok(())
}

/// Builds the classic six-transistor SRAM bitcell footprint:
/// 14 × 13 λ = 182 λ² for 6 transistors — `s_d ≈ 30`, the paper's
/// memory-density anchor.
///
/// # Panics
///
/// Never panics in practice; the geometry is a compile-time constant
/// exercise of validated drawing calls.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "documented invariant: constant cell is valid"
)]
pub fn sram_bitcell() -> CellTemplate {
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constant dimensions are valid"
    )]
    let mut g = LambdaGrid::new(14, 13).expect("constant dimensions are valid");
    for (i, &(x, y)) in [(0i64, 0i64), (5, 0), (10, 0), (0, 7), (5, 7), (10, 7)]
        .iter()
        .enumerate()
    {
        #[expect(
            clippy::expect_used,
            reason = "documented invariant: bitcell artwork fits"
        )]
        draw_transistor_pair(&mut g, x, y).expect("bitcell artwork fits");
        // Vary one contact position per device so the cell is asymmetric
        // (prevents accidental sub-cell self-similarity in tests).
        let cy = y + (i as i64 % 2) * 4;
        #[expect(clippy::expect_used, reason = "documented invariant: in bounds")]
        g.set(x + 3, cy + 1, layers::CONTACT).expect("in bounds");
    }
    // Word line across the top, bit lines down the sides.
    #[expect(clippy::expect_used, reason = "documented invariant: valid; in bounds")]
    g.fill_rect(Rect::new(0, 12, 14, 13).expect("valid"), layers::METAL1)
        .expect("in bounds");
    CellTemplate::new("sram6t", g, 6).expect("constant cell is valid")
}

/// Builds a standard-cell template with `pairs` transistor pairs on a
/// 40 λ-tall row footprint: inverter (1 pair), NAND2 (2), complex gates
/// (3+), flip-flop (12).
///
/// # Errors
///
/// Returns [`LayoutError::InvalidParameter`] if `pairs` is zero.
pub fn logic_cell(name: &str, pairs: usize) -> Result<CellTemplate, LayoutError> {
    if pairs == 0 {
        return Err(LayoutError::InvalidParameter {
            name: "pairs",
            reason: "a logic cell needs at least one transistor pair",
        });
    }
    let width = pairs * 6 + 2;
    let mut g = LambdaGrid::new(width, 40)?;
    for k in 0..pairs {
        let x = (k * 6 + 1) as i64;
        draw_transistor_pair(&mut g, x, 4)?;
        draw_transistor_pair(&mut g, x, 22)?;
    }
    // Power rails top and bottom.
    g.fill_rect(Rect::new(0, 0, width as i64, 2)?, layers::METAL1)?;
    g.fill_rect(Rect::new(0, 38, width as i64, 40)?, layers::METAL1)?;
    CellTemplate::new(name, g, (pairs * 2) as u64)
}

/// The default standard-cell library: inverter, NAND2, NOR2, AOI22, and a
/// D flip-flop.
///
/// # Panics
///
/// Never panics in practice; all members use validated constant geometry.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "documented invariant: constant cell is valid"
)]
pub fn standard_library() -> Vec<CellTemplate> {
    vec![
        logic_cell("inv", 1).expect("constant cell is valid"),
        logic_cell("nand2", 2).expect("constant cell is valid"),
        logic_cell("nor2", 2).expect("constant cell is valid"),
        logic_cell("aoi22", 4).expect("constant cell is valid"),
        logic_cell("dff", 12).expect("constant cell is valid"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sram_bitcell_hits_paper_density_anchor() {
        let cell = sram_bitcell();
        assert_eq!(cell.transistors(), 6);
        let sd = cell.intrinsic_sd();
        assert!(
            (25.0..40.0).contains(&sd),
            "SRAM bitcell s_d should be ≈30, got {sd}"
        );
    }

    #[test]
    fn logic_cells_are_less_dense_than_sram() {
        for cell in standard_library() {
            assert!(
                cell.intrinsic_sd() > sram_bitcell().intrinsic_sd(),
                "{} should be sparser than SRAM",
                cell.name()
            );
        }
    }

    #[test]
    fn logic_cell_density_is_in_custom_logic_range() {
        let inv = logic_cell("inv", 1).unwrap();
        let sd = inv.intrinsic_sd();
        assert!((100.0..200.0).contains(&sd), "inverter s_d {sd}");
    }

    #[test]
    fn bigger_cells_have_more_transistors_and_area() {
        let inv = logic_cell("inv", 1).unwrap();
        let dff = logic_cell("dff", 12).unwrap();
        assert!(dff.transistors() > inv.transistors());
        assert!(dff.grid().area_squares() > inv.grid().area_squares());
    }

    #[test]
    fn cells_have_nonzero_artwork() {
        for cell in standard_library() {
            assert!(cell.grid().occupancy() > 0.05, "{}", cell.name());
            assert!(cell.grid().occupancy() < 0.9, "{}", cell.name());
        }
        assert!(sram_bitcell().grid().occupancy() > 0.2);
    }

    #[test]
    fn library_names_are_unique() {
        let lib = standard_library();
        let mut names: Vec<&str> = lib.iter().map(CellTemplate::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), lib.len());
    }

    #[test]
    fn zero_parameter_cells_rejected() {
        assert!(logic_cell("bad", 0).is_err());
        let g = LambdaGrid::new(2, 2).unwrap();
        assert!(CellTemplate::new("bad", g, 0).is_err());
    }
}
