//! Typed physical and economic quantities for IC cost modeling.
//!
//! This crate is the foundation of the `nanocost` workspace — a Rust
//! reproduction of W. Maly, *"IC Design in High-Cost Nanometer-Technologies
//! Era"* (DAC 2001). Every quantity that appears in the paper's cost models
//! gets a dedicated newtype so that formulas written downstream cannot mix
//! up, say, a die area with a wafer area or a yield with a utilization
//! (C-NEWTYPE).
//!
//! # Quantities
//!
//! | Type | Paper symbol | Meaning |
//! |---|---|---|
//! | [`Dollars`] | `C_w`, `C_MA`, `C_DE`, `C_tr`, `C_ch` | money |
//! | [`CostPerArea`] | `C_sq`, `Cm_sq`, `Cd_sq` | $ per cm² of silicon |
//! | [`FeatureSize`] | `λ` | minimum feature size |
//! | [`Area`] | `A_ch`, `A_w` | silicon area |
//! | [`Yield`] | `Y` | manufacturing yield |
//! | [`Utilization`] | `u` | useful-transistor fraction |
//! | [`TransistorCount`] | `N_tr` | transistors per chip |
//! | [`WaferCount`] | `N_w` | wafers per production run |
//! | [`ChipCount`] | `N_ch` | chips per wafer |
//! | [`DecompressionIndex`] | `s_d` | λ² squares per transistor |
//! | [`DesignDensity`] | `d_d` | transistors per λ² square |
//! | [`TransistorDensity`] | `T_d` | transistors per cm² |
//!
//! # Example
//!
//! Price one functioning transistor with eq. (3) of the paper,
//! `C_tr = C_sq · λ² · s_d / Y`:
//!
//! ```
//! use nanocost_units::{CostPerArea, DecompressionIndex, FeatureSize, Yield};
//!
//! let c_sq = CostPerArea::per_cm2(8.0);
//! let lambda = FeatureSize::from_microns(0.18)?;
//! let s_d = DecompressionIndex::new(250.0)?;
//! let y = Yield::new(0.8)?;
//!
//! let c_tr = c_sq.dollars_per_cm2() * lambda.square().cm2() * s_d.squares() / y.value();
//! assert!(c_tr > 0.0 && c_tr < 1e-4); // a fraction of a micro-dollar
//! # Ok::<(), nanocost_units::UnitError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod area;
mod count;
mod density;
mod error;
mod fraction;
mod length;
mod money;

pub use area::Area;
pub use count::{ChipCount, TransistorCount, WaferCount};
pub use density::{DecompressionIndex, DesignDensity, TransistorDensity};
pub use error::UnitError;
pub use fraction::{Utilization, Yield};
pub use length::FeatureSize;
pub use money::{CostPerArea, Dollars};

#[cfg(test)]
mod proptests {
    //! Randomized property checks driven by the in-tree [`Rng64`] stream so
    //! the suite runs fully offline (the external `proptest` crate is gone).

    use super::*;
    use nanocost_numeric::Rng64;

    const CASES: usize = 256;

    /// Positive magnitudes spread across many decades, as the domain does.
    fn finite_positive(r: &mut Rng64) -> f64 {
        10f64.powf(r.random_range(-6.0f64..9.0))
    }

    #[test]
    fn dollars_add_commutes() {
        let mut r = Rng64::seed_from_u64(0x01);
        for _ in 0..CASES {
            let x = Dollars::new(r.random_range(-1e12f64..1e12));
            let y = Dollars::new(r.random_range(-1e12f64..1e12));
            assert_eq!(x + y, y + x);
        }
    }

    #[test]
    fn dollars_millions_round_trip() {
        let mut r = Rng64::seed_from_u64(0x02);
        for _ in 0..CASES {
            let m = finite_positive(&mut r);
            let d = Dollars::from_millions(m);
            assert!((d.to_millions() - m).abs() <= m * 1e-12);
        }
    }

    #[test]
    fn area_conversions_round_trip() {
        let mut r = Rng64::seed_from_u64(0x03);
        for _ in 0..CASES {
            let cm2 = finite_positive(&mut r);
            let a = Area::from_cm2(cm2);
            assert!((Area::from_mm2(a.mm2()).cm2() - cm2).abs() <= cm2 * 1e-9);
            assert!((Area::from_um2(a.um2()).cm2() - cm2).abs() <= cm2 * 1e-9);
        }
    }

    #[test]
    fn feature_size_square_is_monotone() {
        let mut r = Rng64::seed_from_u64(0x04);
        for _ in 0..CASES {
            let a = r.random_range(0.01f64..10.0);
            let b = r.random_range(0.01f64..10.0);
            let fa = FeatureSize::from_microns(a).unwrap();
            let fb = FeatureSize::from_microns(b).unwrap();
            assert_eq!(a < b, fa.square().cm2() < fb.square().cm2());
        }
    }

    #[test]
    fn yield_accepts_exactly_unit_interval() {
        let mut r = Rng64::seed_from_u64(0x05);
        for _ in 0..CASES {
            let v = r.random_range(-1.0f64..2.0);
            let ok = v > 0.0 && v <= 1.0;
            assert_eq!(Yield::new(v).is_ok(), ok);
        }
    }

    #[test]
    fn yield_composition_never_exceeds_components() {
        let mut r = Rng64::seed_from_u64(0x06);
        for _ in 0..CASES {
            let a = r.random_range(1e-6f64..1.0);
            let b = r.random_range(1e-6f64..1.0);
            let y = Yield::new(a).unwrap() * Yield::new(b).unwrap();
            assert!(y.value() <= a && y.value() <= b);
        }
    }

    #[test]
    fn sd_dd_are_mutual_inverses() {
        let mut r = Rng64::seed_from_u64(0x07);
        for _ in 0..CASES {
            let s = finite_positive(&mut r);
            let sd = DecompressionIndex::new(s).unwrap();
            let back = sd.density_index().decompression_index();
            assert!((back.squares() - s).abs() <= s * 1e-12);
        }
    }

    #[test]
    fn eq2_round_trip_any_lambda() {
        let mut r = Rng64::seed_from_u64(0x08);
        for _ in 0..CASES {
            let s = r.random_range(1.0f64..2000.0);
            let um = r.random_range(0.01f64..3.0);
            let sd = DecompressionIndex::new(s).unwrap();
            let lambda = FeatureSize::from_microns(um).unwrap();
            let back = sd.transistor_density(lambda).decompression_index(lambda);
            assert!((back.squares() - s).abs() <= s * 1e-9);
        }
    }

    #[test]
    fn chip_area_scales_linearly_in_transistors() {
        let mut r = Rng64::seed_from_u64(0x09);
        for _ in 0..CASES {
            let s = r.random_range(10.0f64..1000.0);
            let um = r.random_range(0.05f64..1.5);
            let m = r.random_range(0.1f64..100.0);
            let sd = DecompressionIndex::new(s).unwrap();
            let lambda = FeatureSize::from_microns(um).unwrap();
            let a1 = sd
                .chip_area(TransistorCount::from_millions(m), lambda)
                .unwrap();
            let a2 = sd
                .chip_area(TransistorCount::from_millions(2.0 * m), lambda)
                .unwrap();
            assert!((a2.cm2() / a1.cm2() - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cost_density_times_area_is_bilinear() {
        let mut r = Rng64::seed_from_u64(0x0A);
        for _ in 0..CASES {
            let c = r.random_range(0.1f64..100.0);
            let cm2 = r.random_range(0.1f64..1000.0);
            let k = r.random_range(0.1f64..10.0);
            let cd = CostPerArea::per_cm2(c);
            let a = Area::from_cm2(cm2);
            let lhs = (cd * (a * k)).amount();
            let rhs = (cd * a).amount() * k;
            assert!((lhs - rhs).abs() <= lhs.abs() * 1e-12 + 1e-12);
        }
    }
}
