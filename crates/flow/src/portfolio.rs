//! Cross-product reuse: amortizing pre-characterized blocks over a
//! product family.
//!
//! §3.2's prescription is regularity "across single products or entire
//! family of products … this way one will be able to increase an
//! effective volume used in the computation of `C_DE`". This module
//! prices exactly that: a portfolio of products built from a shared,
//! experimentally pre-characterized block library pays the
//! characterization cost once, and each product's remaining effort covers
//! only its unique content.

use nanocost_units::{DecompressionIndex, Dollars, TransistorCount, UnitError};

use crate::effort::DesignEffortModel;

/// One product in the family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortfolioProduct {
    /// Design size.
    pub transistors: TransistorCount,
    /// Target density.
    pub sd: DecompressionIndex,
    /// Fraction of the design built from the shared block library, in
    /// `[0, 1]`.
    pub shared_fraction: f64,
}

impl PortfolioProduct {
    /// Creates a product description.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError::OutOfRange`] if `shared_fraction` is outside
    /// `[0, 1]` or non-finite.
    pub fn new(
        transistors: TransistorCount,
        sd: DecompressionIndex,
        shared_fraction: f64,
    ) -> Result<Self, UnitError> {
        if !shared_fraction.is_finite() || !(0.0..=1.0).contains(&shared_fraction) {
            return Err(UnitError::OutOfRange {
                quantity: "shared fraction",
                value: shared_fraction,
                min: 0.0,
                max: 1.0,
            });
        }
        Ok(PortfolioProduct {
            transistors,
            sd,
            shared_fraction,
        })
    }
}

/// The family-level design-cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortfolioModel {
    /// The per-design effort model for unique content.
    pub effort: DesignEffortModel,
    /// One-time cost of building and experimentally pre-characterizing
    /// the shared block library.
    pub library_cost: Dollars,
    /// Integration discount on shared content: designing *with* the
    /// library still costs this fraction of from-scratch effort
    /// (floorplanning, hookup, verification), in `[0, 1]`.
    pub integration_fraction: f64,
}

impl PortfolioModel {
    /// Creates a portfolio model.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the library cost is negative or the
    /// integration fraction is outside `[0, 1]`.
    pub fn new(
        effort: DesignEffortModel,
        library_cost: Dollars,
        integration_fraction: f64,
    ) -> Result<Self, UnitError> {
        if library_cost.amount() < 0.0 {
            return Err(UnitError::OutOfRange {
                quantity: "library cost",
                value: library_cost.amount(),
                min: 0.0,
                max: f64::INFINITY,
            });
        }
        if !integration_fraction.is_finite() || !(0.0..=1.0).contains(&integration_fraction) {
            return Err(UnitError::OutOfRange {
                quantity: "integration fraction",
                value: integration_fraction,
                min: 0.0,
                max: 1.0,
            });
        }
        Ok(PortfolioModel {
            effort,
            library_cost,
            integration_fraction,
        })
    }

    /// A representative configuration: paper-default effort, a $25 M
    /// library program, 20 % integration cost on shared content.
    #[must_use]
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: constants are valid"
    )]
    pub fn nanometer_default() -> Self {
        PortfolioModel::new(
            DesignEffortModel::paper_defaults(),
            Dollars::from_millions(25.0), // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
            0.20, // nanocost-audit: allow(R3, reason = "paper-anchored default; the constructor parameters document each value")
        )
        .expect("constants are valid")
    }

    /// Design cost of one product inside the family (library cost not
    /// included): unique content at full eq.-6 effort, shared content at
    /// the integration fraction.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the product's `sd` is at or below the
    /// effort model's `s_d0`.
    pub fn product_cost(&self, product: &PortfolioProduct) -> Result<Dollars, UnitError> {
        let full = self.effort.design_cost(product.transistors, product.sd)?;
        let unique = full * (1.0 - product.shared_fraction);
        let shared = full * (product.shared_fraction * self.integration_fraction);
        Ok(unique + shared)
    }

    /// Total family cost: library program plus every product's cost.
    ///
    /// # Errors
    ///
    /// As [`PortfolioModel::product_cost`].
    pub fn family_cost(&self, products: &[PortfolioProduct]) -> Result<Dollars, UnitError> {
        let mut total = self.library_cost;
        for p in products {
            total += self.product_cost(p)?;
        }
        Ok(total)
    }

    /// Cost of the same products designed independently, from scratch,
    /// with no library (the paper's status quo).
    ///
    /// # Errors
    ///
    /// As [`PortfolioModel::product_cost`].
    pub fn from_scratch_cost(&self, products: &[PortfolioProduct]) -> Result<Dollars, UnitError> {
        let mut total = Dollars::ZERO;
        for p in products {
            total += self.effort.design_cost(p.transistors, p.sd)?;
        }
        Ok(total)
    }

    /// The smallest family size at which the library program pays for
    /// itself, assuming `prototype` repeated; `None` if it never does
    /// within `max_products`.
    ///
    /// # Errors
    ///
    /// As [`PortfolioModel::product_cost`].
    pub fn breakeven_products(
        &self,
        prototype: &PortfolioProduct,
        max_products: usize,
    ) -> Result<Option<usize>, UnitError> {
        let scratch = self.effort.design_cost(prototype.transistors, prototype.sd)?;
        let with_library = self.product_cost(prototype)?;
        let saving_per_product = scratch - with_library;
        if saving_per_product.amount() <= 0.0 {
            return Ok(None);
        }
        for k in 1..=max_products {
            if saving_per_product * k as f64 >= self.library_cost {
                return Ok(Some(k));
            }
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn product(shared: f64) -> PortfolioProduct {
        PortfolioProduct::new(
            TransistorCount::from_millions(10.0),
            DecompressionIndex::new(200.0).unwrap(),
            shared,
        )
        .unwrap()
    }

    #[test]
    fn fully_unique_product_costs_full_effort() {
        let m = PortfolioModel::nanometer_default();
        let p = product(0.0);
        let full = m.effort.design_cost(p.transistors, p.sd).unwrap();
        assert_eq!(m.product_cost(&p).unwrap(), full);
    }

    #[test]
    fn shared_content_is_discounted_by_the_integration_fraction() {
        let m = PortfolioModel::nanometer_default();
        let p = product(1.0);
        let full = m.effort.design_cost(p.transistors, p.sd).unwrap();
        let cost = m.product_cost(&p).unwrap();
        assert!((cost.amount() - full.amount() * 0.2).abs() < 1e-6);
    }

    #[test]
    fn library_pays_for_itself_on_a_small_family() {
        // 10M-tr products at s_d 200 cost ≈ $39.8M from scratch; at 70%
        // shared the saving is ≈ $22M/product, so a $25M library breaks
        // even at the second product.
        let m = PortfolioModel::nanometer_default();
        let p = product(0.7);
        let breakeven = m.breakeven_products(&p, 10).unwrap();
        assert_eq!(breakeven, Some(2));
        // Family of three: library route cheaper than from-scratch.
        let family = vec![p, p, p];
        assert!(
            m.family_cost(&family).unwrap().amount()
                < m.from_scratch_cost(&family).unwrap().amount()
        );
    }

    #[test]
    fn one_off_products_do_not_justify_a_library() {
        let m = PortfolioModel::nanometer_default();
        let p = product(0.7);
        let family = vec![p];
        assert!(
            m.family_cost(&family).unwrap().amount()
                > m.from_scratch_cost(&family).unwrap().amount()
        );
        // And with nothing shared, breakeven never arrives.
        assert_eq!(m.breakeven_products(&product(0.0), 100).unwrap(), None);
    }

    #[test]
    fn more_sharing_means_cheaper_products() {
        let m = PortfolioModel::nanometer_default();
        let lo = m.product_cost(&product(0.3)).unwrap();
        let hi = m.product_cost(&product(0.9)).unwrap();
        assert!(hi.amount() < lo.amount());
    }

    #[test]
    fn validation() {
        let n = TransistorCount::from_millions(1.0);
        let sd = DecompressionIndex::new(200.0).unwrap();
        assert!(PortfolioProduct::new(n, sd, -0.1).is_err());
        assert!(PortfolioProduct::new(n, sd, 1.1).is_err());
        let e = DesignEffortModel::paper_defaults();
        assert!(PortfolioModel::new(e, Dollars::new(-1.0), 0.2).is_err());
        assert!(PortfolioModel::new(e, Dollars::ZERO, 1.5).is_err());
    }
}
