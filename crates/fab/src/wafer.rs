//! Wafer geometry: usable area and gross dice per wafer (`N_ch` of eq. 1).

use nanocost_units::{Area, ChipCount, UnitError};

/// One placed die on a wafer map: lower-left corner and side, in
/// wafer-centered millimeter coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DieSite {
    /// Lower-left x, mm from wafer center.
    pub x_mm: f64,
    /// Lower-left y, mm from wafer center.
    pub y_mm: f64,
    /// Die side (without scribe), mm.
    pub side_mm: f64,
}

impl DieSite {
    /// True if the point `(x, y)` (mm, wafer-centered) lands on this die.
    #[must_use]
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.x_mm
            && x < self.x_mm + self.side_mm
            && y >= self.y_mm
            && y < self.y_mm + self.side_mm
    }
}

/// Physical wafer description.
///
/// ```
/// use nanocost_units::Area;
/// use nanocost_fab::WaferSpec;
///
/// let wafer = WaferSpec::new(200.0, 3.0, 0.1)?;
/// let dice = wafer.gross_dice(Area::from_cm2(1.0));
/// assert!(dice.count() > 200 && dice.count() < 300);
/// # Ok::<(), nanocost_units::UnitError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferSpec {
    diameter_mm: f64,
    edge_exclusion_mm: f64,
    scribe_mm: f64,
}

impl WaferSpec {
    /// Creates a wafer spec.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the diameter is not strictly positive, the
    /// edge exclusion or scribe width is negative, or the edge exclusion
    /// consumes the whole wafer.
    pub fn new(
        diameter_mm: f64,
        edge_exclusion_mm: f64,
        scribe_mm: f64,
    ) -> Result<Self, UnitError> {
        for (name, v) in [
            ("wafer diameter", diameter_mm),
            ("edge exclusion", edge_exclusion_mm),
            ("scribe width", scribe_mm),
        ] {
            if !v.is_finite() {
                return Err(UnitError::NonFinite { quantity: name });
            }
        }
        if diameter_mm <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "wafer diameter",
                value: diameter_mm,
            });
        }
        if edge_exclusion_mm < 0.0 || scribe_mm < 0.0 {
            return Err(UnitError::OutOfRange {
                quantity: "edge exclusion / scribe width",
                value: edge_exclusion_mm.min(scribe_mm),
                min: 0.0,
                max: f64::INFINITY,
            });
        }
        if 2.0 * edge_exclusion_mm >= diameter_mm {
            return Err(UnitError::OutOfRange {
                quantity: "edge exclusion",
                value: edge_exclusion_mm,
                min: 0.0,
                max: diameter_mm / 2.0,
            });
        }
        Ok(WaferSpec {
            diameter_mm,
            edge_exclusion_mm,
            scribe_mm,
        })
    }

    /// A standard 200 mm production wafer (3 mm edge exclusion, 0.1 mm
    /// scribe lanes) — the workhorse of the paper's era.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid"
    )]
    pub fn standard_200mm() -> Self {
        WaferSpec::new(200.0, 3.0, 0.1).expect("constants are valid")
    }

    /// A standard 300 mm wafer as projected for nanometer nodes.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid"
    )]
    pub fn standard_300mm() -> Self {
        WaferSpec::new(300.0, 3.0, 0.1).expect("constants are valid")
    }

    /// Wafer diameter in millimeters.
    #[must_use]
    pub fn diameter_mm(self) -> f64 {
        self.diameter_mm
    }

    /// The radius available for whole dice, in millimeters.
    #[must_use]
    pub fn usable_radius_mm(self) -> f64 {
        self.diameter_mm / 2.0 - self.edge_exclusion_mm
    }

    /// Total wafer area `A_w` (full circle — the unit over which `C_sq` is
    /// accounted).
    #[must_use]
    pub fn total_area(self) -> Area {
        let r_cm = self.diameter_mm / 20.0;
        Area::from_cm2(std::f64::consts::PI * r_cm * r_cm)
    }

    /// Area of the usable (edge-excluded) disc.
    #[must_use]
    pub fn usable_area(self) -> Area {
        let r_cm = self.usable_radius_mm() / 10.0;
        Area::from_cm2(std::f64::consts::PI * r_cm * r_cm)
    }

    /// Exact gross dice per wafer for a square die of the given area,
    /// counted by grid placement: a die is kept when all four corners of
    /// its scribe-padded rectangle lie within the usable radius.
    ///
    /// Returns [`ChipCount::ZERO`] when the die (plus scribe) is larger
    /// than the usable disc.
    #[must_use]
    pub fn gross_dice(self, die_area: Area) -> ChipCount {
        ChipCount::new(self.die_sites(die_area).len() as u64)
    }

    /// The lower-left corners (millimeters, wafer-centered coordinates) of
    /// every whole die that fits the usable disc, for a square die of the
    /// given area with scribe-lane padding. The wafer-map Monte-Carlo
    /// yield simulator consumes these sites.
    #[must_use]
    pub fn die_sites(self, die_area: Area) -> Vec<DieSite> {
        if die_area.is_zero() {
            return Vec::new();
        }
        let pitch_mm = die_area.cm2().sqrt() * 10.0 + self.scribe_mm;
        let side_mm = die_area.cm2().sqrt() * 10.0;
        let r = self.usable_radius_mm();
        if pitch_mm > 2.0 * r {
            return Vec::new();
        }
        let cells_per_side = (2.0 * r / pitch_mm).ceil() as i64 + 2;
        let half = cells_per_side / 2;
        let mut sites = Vec::new();
        for i in -half..=half {
            for j in -half..=half {
                let x0 = i as f64 * pitch_mm;
                let y0 = j as f64 * pitch_mm;
                let x1 = x0 + pitch_mm;
                let y1 = y0 + pitch_mm;
                // Farthest corner from the origin decides containment.
                let fx = x0.abs().max(x1.abs());
                let fy = y0.abs().max(y1.abs());
                if fx * fx + fy * fy <= r * r {
                    sites.push(DieSite {
                        x_mm: x0,
                        y_mm: y0,
                        side_mm,
                    });
                }
            }
        }
        sites
    }

    /// The classical analytic approximation of dice per wafer:
    /// `π·(d/2)²/S − π·d/√(2·S)` with `d` the usable diameter and `S` the
    /// scribe-padded die area. Good to a few percent for dice much smaller
    /// than the wafer; [`WaferSpec::gross_dice`] is the exact count.
    ///
    /// This is Chiplet Actuary's `N_total` (arXiv:2203.12268), and the
    /// chiplet model's eq. C2 (`nanocost_chiplet::ChipletWafer`) prices
    /// its dies with it.
    #[must_use]
    pub fn gross_dice_analytic(self, die_area: Area) -> f64 {
        if die_area.is_zero() {
            return 0.0;
        }
        let side_cm = die_area.cm2().sqrt() + self.scribe_mm / 10.0;
        let s = side_cm * side_cm;
        let d = 2.0 * self.usable_radius_mm() / 10.0;
        let n = std::f64::consts::PI * d * d / (4.0 * s)
            - std::f64::consts::PI * d / (2.0 * s).sqrt();
        n.max(0.0)
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
    fn total_area_of_200mm_wafer() {
        let w = WaferSpec::standard_200mm();
        // π·10² ≈ 314.16 cm²
        assert!((w.total_area().cm2() - 314.159).abs() < 0.01);
    }

    #[test]
    fn usable_area_smaller_than_total() {
        let w = WaferSpec::standard_200mm();
        assert!(w.usable_area().cm2() < w.total_area().cm2());
    }

    #[test]
    fn gross_dice_close_to_analytic_for_small_dice() {
        let w = WaferSpec::standard_200mm();
        for &cm2 in &[0.25, 0.5, 1.0, 2.0] {
            let exact = w.gross_dice(Area::from_cm2(cm2)).as_f64();
            let approx = w.gross_dice_analytic(Area::from_cm2(cm2));
            let rel = (exact - approx).abs() / approx;
            assert!(rel < 0.12, "die {cm2} cm²: exact {exact} vs approx {approx}");
        }
    }

    #[test]
    fn bigger_dice_mean_fewer_chips() {
        let w = WaferSpec::standard_200mm();
        let small = w.gross_dice(Area::from_cm2(0.5)).count();
        let large = w.gross_dice(Area::from_cm2(2.0)).count();
        assert!(small > large * 3);
    }

    #[test]
    fn larger_wafer_holds_more_dice() {
        let die = Area::from_cm2(1.0);
        let n200 = WaferSpec::standard_200mm().gross_dice(die).count();
        let n300 = WaferSpec::standard_300mm().gross_dice(die).count();
        // Area ratio 2.25, edge effects help the bigger wafer even more.
        assert!(n300 as f64 / n200 as f64 > 2.0);
    }

    #[test]
    fn oversized_die_yields_zero() {
        let w = WaferSpec::standard_200mm();
        assert!(w.gross_dice(Area::from_cm2(500.0)).is_zero());
        assert_eq!(w.gross_dice_analytic(Area::from_cm2(50000.0)), 0.0);
    }

    #[test]
    fn zero_area_die_yields_zero_not_infinite() {
        let w = WaferSpec::standard_200mm();
        assert!(w.gross_dice(Area::ZERO).is_zero());
        assert_eq!(w.gross_dice_analytic(Area::ZERO), 0.0);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(WaferSpec::new(0.0, 3.0, 0.1).is_err());
        assert!(WaferSpec::new(200.0, -1.0, 0.1).is_err());
        assert!(WaferSpec::new(200.0, 3.0, -0.1).is_err());
        assert!(WaferSpec::new(200.0, 100.0, 0.1).is_err());
        assert!(WaferSpec::new(f64::NAN, 3.0, 0.1).is_err());
    }

    #[test]
    fn die_sites_count_matches_gross_dice() {
        let w = WaferSpec::standard_200mm();
        let a = Area::from_cm2(1.0);
        assert_eq!(w.die_sites(a).len() as u64, w.gross_dice(a).count());
    }

    #[test]
    fn die_sites_lie_within_usable_radius() {
        let w = WaferSpec::standard_200mm();
        let r = w.usable_radius_mm();
        for site in w.die_sites(Area::from_cm2(1.0)) {
            for (cx, cy) in [
                (site.x_mm, site.y_mm),
                (site.x_mm + site.side_mm, site.y_mm + site.side_mm),
            ] {
                assert!(cx * cx + cy * cy <= r * r + 1e-6);
            }
        }
    }

    #[test]
    fn die_site_containment_is_half_open() {
        let site = DieSite {
            x_mm: 0.0,
            y_mm: 0.0,
            side_mm: 10.0,
        };
        assert!(site.contains(0.0, 0.0));
        assert!(site.contains(9.99, 5.0));
        assert!(!site.contains(10.0, 5.0));
        assert!(!site.contains(-0.01, 5.0));
    }

    #[test]
    fn scribe_width_reduces_count() {
        let tight = WaferSpec::new(200.0, 3.0, 0.0).unwrap();
        let wide = WaferSpec::new(200.0, 3.0, 1.0).unwrap();
        let die = Area::from_cm2(0.5);
        assert!(tight.gross_dice(die).count() > wide.gross_dice(die).count());
    }
}
