//! Hierarchical layouts: master cells instantiated many times.
//!
//! The paper's closing prescription is design from "highly regular,
//! repetitive (across many products) and experimentally pre-characterized
//! building blocks". A [`HierLayout`] captures exactly that structure —
//! masters plus placements — and can be flattened to a raster for density
//! and regularity measurement. Its [`reuse statistics`](ReuseStats) feed
//! the design-cost model's amortization argument.

use crate::cell::CellTemplate;
use crate::error::LayoutError;
use crate::geom::Point;
use crate::grid::LambdaGrid;
use crate::layout::Layout;

/// A hierarchical layout: a set of master cells and their placements on a
/// fixed canvas.
#[derive(Debug, Clone, PartialEq)]
pub struct HierLayout {
    width: usize,
    height: usize,
    masters: Vec<CellTemplate>,
    /// `(master index, lower-left origin)` placements.
    instances: Vec<(usize, Point)>,
}

/// Reuse statistics of a hierarchy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseStats {
    /// Number of distinct masters.
    pub masters: usize,
    /// Number of instances.
    pub instances: usize,
    /// Instances per master (the amortization factor for per-master
    /// characterization effort).
    pub mean_reuse: f64,
}

impl HierLayout {
    /// Creates an empty canvas.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::EmptyGrid`] if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Result<Self, LayoutError> {
        if width == 0 || height == 0 {
            return Err(LayoutError::EmptyGrid { width, height });
        }
        Ok(HierLayout {
            width,
            height,
            masters: Vec::new(),
            instances: Vec::new(),
        })
    }

    /// Registers a master cell, returning its index.
    pub fn add_master(&mut self, master: CellTemplate) -> usize {
        self.masters.push(master);
        self.masters.len() - 1
    }

    /// Places an instance of master `master_idx` with lower-left corner at
    /// `origin`.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] for an unknown master, or
    /// [`LayoutError::OutOfBounds`] if the instance would not fit on the
    /// canvas.
    pub fn place(&mut self, master_idx: usize, origin: Point) -> Result<(), LayoutError> {
        let master = self.masters.get(master_idx).ok_or(LayoutError::InvalidParameter {
            name: "master_idx",
            reason: "no master registered at this index",
        })?;
        let fits = origin.x >= 0
            && origin.y >= 0
            && origin.x as usize + master.width() <= self.width
            && origin.y as usize + master.height() <= self.height;
        if !fits {
            return Err(LayoutError::OutOfBounds {
                x: origin.x,
                y: origin.y,
                width: self.width,
                height: self.height,
            });
        }
        self.instances.push((master_idx, origin));
        Ok(())
    }

    /// The registered masters.
    #[must_use]
    pub fn masters(&self) -> &[CellTemplate] {
        &self.masters
    }

    /// The placements.
    #[must_use]
    pub fn instances(&self) -> &[(usize, Point)] {
        &self.instances
    }

    /// Reuse statistics over the current placements.
    #[must_use]
    pub fn reuse_stats(&self) -> ReuseStats {
        let used_masters = {
            let mut seen = vec![false; self.masters.len()];
            for &(m, _) in &self.instances {
                seen[m] = true;
            }
            seen.iter().filter(|&&s| s).count()
        };
        ReuseStats {
            masters: used_masters,
            instances: self.instances.len(),
            mean_reuse: if used_masters == 0 {
                0.0
            } else {
                self.instances.len() as f64 / used_masters as f64
            },
        }
    }

    /// Flattens the hierarchy to a raster [`Layout`].
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::InvalidParameter`] if no instances are placed
    /// (a layout needs at least one transistor).
    pub fn flatten(&self) -> Result<Layout, LayoutError> {
        let mut grid = LambdaGrid::new(self.width, self.height)?;
        let mut transistors = 0u64;
        for &(m, origin) in &self.instances {
            let master = &self.masters[m];
            grid.stamp(master.grid(), origin.x, origin.y)?;
            transistors += master.transistors();
        }
        Layout::new(grid, transistors)
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;
    use crate::cell::{logic_cell, sram_bitcell};

    #[test]
    fn place_and_flatten_counts_transistors() {
        let mut h = HierLayout::new(100, 100).unwrap();
        let bit = h.add_master(sram_bitcell());
        for i in 0..4 {
            h.place(bit, Point::new(i * 14, 0)).unwrap();
        }
        let flat = h.flatten().unwrap();
        assert_eq!(flat.transistors(), 24);
        assert!(flat.grid().occupancy() > 0.0);
    }

    #[test]
    fn reuse_stats_count_only_used_masters() {
        let mut h = HierLayout::new(200, 200).unwrap();
        let a = h.add_master(sram_bitcell());
        let _unused = h.add_master(logic_cell("inv", 1).unwrap());
        for i in 0..6 {
            h.place(a, Point::new(i * 14, 0)).unwrap();
        }
        let stats = h.reuse_stats();
        assert_eq!(stats.masters, 1);
        assert_eq!(stats.instances, 6);
        assert!((stats.mean_reuse - 6.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_canvas_placement_rejected() {
        let mut h = HierLayout::new(20, 20).unwrap();
        let bit = h.add_master(sram_bitcell()); // 14x13
        assert!(h.place(bit, Point::new(10, 0)).is_err());
        assert!(h.place(bit, Point::new(-1, 0)).is_err());
        assert!(h.place(bit, Point::new(0, 0)).is_ok());
    }

    #[test]
    fn unknown_master_rejected() {
        let mut h = HierLayout::new(50, 50).unwrap();
        assert!(h.place(0, Point::new(0, 0)).is_err());
    }

    #[test]
    fn empty_hierarchy_cannot_flatten() {
        let h = HierLayout::new(10, 10).unwrap();
        assert!(h.flatten().is_err());
        assert_eq!(h.reuse_stats().mean_reuse, 0.0);
    }

    #[test]
    fn flattened_hierarchy_matches_direct_stamping_density() {
        let mut h = HierLayout::new(140, 13).unwrap();
        let bit = h.add_master(sram_bitcell());
        for i in 0..10 {
            h.place(bit, Point::new(i * 14, 0)).unwrap();
        }
        let flat = h.flatten().unwrap();
        // Perfect tiling: measured s_d equals the cell's intrinsic s_d.
        let expect = sram_bitcell().intrinsic_sd();
        assert!((flat.measured_sd().squares() - expect).abs() < 1e-9);
    }
}
