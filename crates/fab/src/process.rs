//! Process-node descriptors and the standard node ladder.

use nanocost_units::{FeatureSize, UnitError};

/// A named process technology node.
///
/// Carries the parameters the fab-cost and mask-cost models need: feature
/// size, interconnect stack, mask count, wafer size, and introduction year.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessNode {
    /// Marketing/technical name, e.g. `"0.25um"`.
    pub name: String,
    /// Minimum feature size λ.
    pub lambda: FeatureSize,
    /// Volume-production introduction year.
    pub year: u32,
    /// Metal (interconnect) layers.
    pub metal_layers: u32,
    /// Lithography mask count for a full logic flow.
    pub mask_layers: u32,
    /// Production wafer diameter in millimeters.
    pub wafer_diameter_mm: f64,
}

impl ProcessNode {
    /// Creates a node descriptor.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `wafer_diameter_mm` is not strictly positive
    /// and finite, or if a layer count is zero.
    pub fn new(
        name: impl Into<String>,
        lambda: FeatureSize,
        year: u32,
        metal_layers: u32,
        mask_layers: u32,
        wafer_diameter_mm: f64,
    ) -> Result<Self, UnitError> {
        if !wafer_diameter_mm.is_finite() {
            return Err(UnitError::NonFinite {
                quantity: "wafer diameter",
            });
        }
        if wafer_diameter_mm <= 0.0 {
            return Err(UnitError::NotPositive {
                quantity: "wafer diameter",
                value: wafer_diameter_mm,
            });
        }
        if metal_layers == 0 || mask_layers == 0 {
            return Err(UnitError::NotPositive {
                quantity: "layer count",
                value: 0.0,
            });
        }
        Ok(ProcessNode {
            name: name.into(),
            lambda,
            year,
            metal_layers,
            mask_layers,
            wafer_diameter_mm,
        })
    }
}

/// The standard node ladder from the micron era into the nanometer era,
/// with historically representative interconnect stacks, mask counts, and
/// wafer sizes. Years and counts follow the ITRS-1999 cadence the paper is
/// framed around.
#[must_use]
pub fn standard_nodes() -> Vec<ProcessNode> {
    let mk = |name: &str, um: f64, year, metal, masks, wafer| {
        #[expect(
            clippy::expect_used,
            reason = "documented invariant: ladder constants are valid"
        )]
        ProcessNode::new(
            name,
            FeatureSize::from_microns(um).expect("ladder constants are valid"),
            year,
            metal,
            masks,
            wafer,
        )
        .expect("ladder constants are valid")
    };
    vec![
        mk("1.5um", 1.5, 1982, 2, 12, 100.0),
        mk("1.0um", 1.0, 1985, 2, 14, 125.0),
        mk("0.8um", 0.8, 1989, 3, 16, 150.0),
        mk("0.6um", 0.6, 1992, 3, 18, 150.0),
        mk("0.5um", 0.5, 1993, 4, 19, 200.0),
        mk("0.35um", 0.35, 1995, 4, 21, 200.0),
        mk("0.25um", 0.25, 1997, 5, 23, 200.0),
        mk("0.18um", 0.18, 1999, 6, 25, 200.0),
        mk("0.13um", 0.13, 2001, 7, 27, 200.0),
        mk("100nm", 0.10, 2003, 7, 29, 300.0),
        mk("70nm", 0.07, 2006, 8, 31, 300.0),
        mk("50nm", 0.05, 2009, 9, 33, 300.0),
        mk("35nm", 0.035, 2012, 9, 35, 300.0),
    ]
}

/// Finds the node in [`standard_nodes`] whose λ is closest (by log-distance)
/// to `lambda`.
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "the standard node ladder is a non-empty constant"
)]
pub fn nearest_node(lambda: FeatureSize) -> ProcessNode {
    standard_nodes()
        .into_iter()
        .min_by(|a, b| {
            let da = (a.lambda.microns().ln() - lambda.microns().ln()).abs();
            let db = (b.lambda.microns().ln() - lambda.microns().ln()).abs();
            da.total_cmp(&db)
        })
        .expect("ladder is non-empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_strictly_shrinking_and_chronological() {
        let nodes = standard_nodes();
        assert!(nodes.len() >= 12);
        for w in nodes.windows(2) {
            assert!(w[1].lambda.microns() < w[0].lambda.microns());
            assert!(w[1].year >= w[0].year);
            assert!(w[1].mask_layers >= w[0].mask_layers);
        }
    }

    #[test]
    fn interconnect_grows_toward_nanometer_era() {
        let nodes = standard_nodes();
        assert_eq!(nodes.first().unwrap().metal_layers, 2);
        assert!(nodes.last().unwrap().metal_layers >= 9);
    }

    #[test]
    fn nearest_node_snaps_to_ladder() {
        let n = nearest_node(FeatureSize::from_microns(0.24).unwrap());
        assert_eq!(n.name, "0.25um");
        let n = nearest_node(FeatureSize::from_microns(0.16).unwrap());
        assert_eq!(n.name, "0.18um");
        let n = nearest_node(FeatureSize::from_microns(0.04).unwrap());
        assert_eq!(n.name, "35nm");
    }

    #[test]
    fn constructor_validates() {
        let l = FeatureSize::from_microns(0.25).unwrap();
        assert!(ProcessNode::new("x", l, 2000, 0, 20, 200.0).is_err());
        assert!(ProcessNode::new("x", l, 2000, 5, 0, 200.0).is_err());
        assert!(ProcessNode::new("x", l, 2000, 5, 20, -1.0).is_err());
    }
}
