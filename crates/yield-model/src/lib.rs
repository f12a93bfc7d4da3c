//! Semiconductor yield models for the `nanocost` workspace.
//!
//! The Maly cost model divides every manufacturing dollar by yield
//! (eqs. 1/3/4), and its generalized form (eq. 7) demands a yield that
//! responds to wafer volume, feature size, design density, and design size.
//! This crate supplies that substrate:
//!
//! * classical defect-limited models — [`PoissonModel`], [`MurphyModel`],
//!   [`SeedsModel`], [`NegativeBinomialModel`] — behind the [`YieldModel`]
//!   trait;
//! * [`DefectDensity`] with λ-sensitivity scaling and the classical
//!   [`DefectSizeDistribution`] (`1/x³` tail);
//! * [`CriticalAreaModel`] coupling design density `s_d` to the at-risk
//!   fraction of the die — and [`critical_scan`], which *measures* that
//!   fraction from actual λ-grid artwork (short-circuit critical area
//!   under the defect-size distribution);
//! * [`LearningCurve`] and [`SystematicRamp`] for volume-driven maturity;
//! * [`YieldSurface`], the composite `Y(λ, s_d, N_tr, N_w)` consumed by the
//!   generalized transistor cost model;
//! * [`WaferMapSimulator`], a Monte-Carlo ground truth (uniform and
//!   Neyman–Scott clustered defect processes thrown onto a real wafer
//!   map) against which the analytic models are validated;
//! * [`RedundantDie`], repair-aware yield for memories with spare units
//!   (after the paper's ref. \[32\]) and the [`optimal_spares`] tradeoff.
//!
//! # Example
//!
//! ```
//! use nanocost_units::Area;
//! use nanocost_yield::{DefectDensity, NegativeBinomialModel, YieldModel};
//!
//! let model = NegativeBinomialModel::new(2.0)?;
//! let y = model.die_yield(Area::from_cm2(1.2), DefectDensity::per_cm2(0.5)?);
//! assert!(y.value() > 0.5 && y.value() < 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod composite;
mod critical_area;
mod critical_scan;
mod defect;
mod maturity;
mod models;
mod redundancy;
mod simulation;

pub use composite::YieldSurface;
pub use critical_area::CriticalAreaModel;
pub use critical_scan::{critical_scan, expected_critical_width_um, CriticalScan};
pub use defect::{DefectDensity, DefectSizeDistribution};
pub use maturity::{LearningCurve, SystematicRamp};
pub use redundancy::{good_dice_per_cm2, optimal_spares, RedundantDie};
pub use simulation::{DefectProcess, WaferMapResult, WaferMapSimulator};
pub use models::{MurphyModel, NegativeBinomialModel, PoissonModel, SeedsModel, YieldModel};

#[cfg(test)]
mod proptests {
    //! Randomized property checks driven by the in-tree [`Rng64`] stream so
    //! the suite runs fully offline (the external `proptest` crate is gone).

    use super::*;
    use nanocost_numeric::Rng64;
    use nanocost_units::{Area, DecompressionIndex, FeatureSize, TransistorCount, WaferCount};

    const CASES: usize = 128;

    #[test]
    fn all_models_stay_in_unit_interval() {
        let mut r = Rng64::seed_from_u64(0x21);
        for _ in 0..CASES {
            let a = r.random_range(0.0f64..100.0);
            let d = r.random_range(0.0f64..10.0);
            let alpha = r.random_range(0.1f64..50.0);
            let area = Area::from_cm2(a);
            let density = DefectDensity::per_cm2(d).unwrap();
            let models: Vec<Box<dyn YieldModel>> = vec![
                Box::new(PoissonModel),
                Box::new(MurphyModel),
                Box::new(SeedsModel),
                Box::new(NegativeBinomialModel::new(alpha).unwrap()),
            ];
            for m in models {
                let y = m.die_yield(area, density).value();
                assert!(y > 0.0 && y <= 1.0, "{} gave {}", m.name(), y);
            }
        }
    }

    #[test]
    fn negbin_yield_increases_with_alpha() {
        let mut r = Rng64::seed_from_u64(0x22);
        for _ in 0..CASES {
            let a = r.random_range(0.1f64..10.0);
            let d = r.random_range(0.1f64..3.0);
            let alpha_lo = r.random_range(0.2f64..5.0);
            let bump = r.random_range(0.1f64..20.0);
            let area = Area::from_cm2(a);
            let density = DefectDensity::per_cm2(d).unwrap();
            let lo = NegativeBinomialModel::new(alpha_lo).unwrap().die_yield(area, density);
            let hi = NegativeBinomialModel::new(alpha_lo + bump).unwrap().die_yield(area, density);
            // More clustering (smaller alpha) is always at least as good.
            assert!(lo.value() >= hi.value() - 1e-12);
        }
    }

    #[test]
    fn defect_scaling_is_multiplicative() {
        let mut r = Rng64::seed_from_u64(0x23);
        for _ in 0..CASES {
            let d = r.random_range(0.01f64..5.0);
            let l1 = r.random_range(0.05f64..1.0);
            let l2 = r.random_range(0.05f64..1.0);
            let p = r.random_range(0.5f64..3.0);
            let base = DefectDensity::per_cm2(d).unwrap();
            let ref_node = FeatureSize::from_microns(0.25).unwrap();
            let a = FeatureSize::from_microns(l1).unwrap();
            let b = FeatureSize::from_microns(l2).unwrap();
            // Scaling ref->a then a->b equals scaling ref->b.
            let two_step = base.scaled_to(ref_node, a, p).scaled_to(a, b, p);
            let one_step = base.scaled_to(ref_node, b, p);
            assert!(
                (two_step.value() - one_step.value()).abs()
                    <= one_step.value() * 1e-9 + 1e-12
            );
        }
    }

    #[test]
    fn surface_yield_is_valid_everywhere() {
        let mut r = Rng64::seed_from_u64(0x24);
        for _ in 0..CASES {
            let l = r.random_range(0.03f64..2.0);
            let s = r.random_range(30.0f64..1500.0);
            let m = r.random_range(0.1f64..500.0);
            let v = r.random_range(1u64..500_000);
            let surface = YieldSurface::nanometer_default();
            let y = surface
                .evaluate(
                    FeatureSize::from_microns(l).unwrap(),
                    DecompressionIndex::new(s).unwrap(),
                    TransistorCount::from_millions(m),
                    WaferCount::new(v).unwrap(),
                )
                .unwrap();
            assert!(y.value() > 0.0 && y.value() <= 1.0);
        }
    }

    #[test]
    fn repair_yield_bounded_and_monotone_in_spares() {
        let mut r = Rng64::seed_from_u64(0x25);
        for _ in 0..CASES {
            let a_mem = r.random_range(0.1f64..3.0);
            let a_logic = r.random_range(0.05f64..2.0);
            let d = r.random_range(0.05f64..2.0);
            let spares = r.random_range(0u32..16);
            let density = DefectDensity::per_cm2(d).unwrap();
            let make = |k: u32| {
                RedundantDie::new(
                    Area::from_cm2(a_mem),
                    Area::from_cm2(a_logic),
                    k,
                    1.0 / 256.0,
                )
                .unwrap()
            };
            let y0 = make(spares).yield_with_repair(density).value();
            let y1 = make(spares + 1).yield_with_repair(density).value();
            assert!(y0 > 0.0 && y0 <= 1.0);
            // One more spare never hurts per-die yield (it only costs area,
            // which good_dice_per_cm2 accounts separately).
            assert!(y1 >= y0 - 1e-12);
        }
    }

    #[test]
    fn critical_scan_fraction_bounded_on_generated_artwork() {
        let mut r = Rng64::seed_from_u64(0x26);
        for _ in 0..32 {
            let rows = r.random_range(2usize..6);
            let cols = r.random_range(2usize..8);
            let um = r.random_range(0.05f64..1.0);
            let layout = nanocost_layout::MemoryArrayGenerator::new(rows, cols)
                .unwrap()
                .generate()
                .unwrap();
            let dist = DefectSizeDistribution::new(0.2).unwrap();
            let scan = critical_scan(
                layout.grid(),
                dist,
                FeatureSize::from_microns(um).unwrap(),
            )
            .unwrap();
            let f = scan.critical_fraction();
            assert!((0.0..=1.0).contains(&f));
            assert!(scan.gaps > 0);
        }
    }

    #[test]
    fn surface_monotone_in_volume() {
        let mut r = Rng64::seed_from_u64(0x27);
        for _ in 0..CASES {
            let v1 = r.random_range(1u64..100_000);
            let extra = r.random_range(1u64..100_000);
            let surface = YieldSurface::nanometer_default();
            let l = FeatureSize::from_microns(0.18).unwrap();
            let s = DecompressionIndex::new(250.0).unwrap();
            let n = TransistorCount::from_millions(10.0);
            let y1 = surface
                .evaluate(l, s, n, WaferCount::new(v1).unwrap())
                .unwrap();
            let y2 = surface
                .evaluate(l, s, n, WaferCount::new(v1 + extra).unwrap())
                .unwrap();
            assert!(y2.value() >= y1.value() - 1e-12);
        }
    }
}
