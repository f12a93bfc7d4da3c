//! Wafer-map Monte-Carlo defect simulation.
//!
//! The analytic models of [`crate::models`] assume a spatial defect
//! distribution; this module *simulates* one — defects thrown onto an
//! actual wafer map, dice killed by hits in their critical area — so the
//! analytic models can be validated against a ground-truth process:
//!
//! * a **uniform** (complete spatial randomness) process must reproduce
//!   the Poisson model;
//! * a **clustered** (Neyman–Scott: Poisson cluster centers, Gaussian
//!   satellite scatter) process must beat Poisson and match a
//!   negative-binomial with the α recovered from the per-die defect
//!   statistics.
//!
//! This is the experimental half of the paper's call for "yield/cost
//! modeling techniques" (§3.1): model forms should be earned against a
//! process, not assumed.

use nanocost_fab::{DieSite, WaferSpec};
use nanocost_numeric::Sampler;
use nanocost_trace::{provenance, span};
use nanocost_units::{Area, UnitError, Yield};

use crate::defect::DefectDensity;

/// The spatial law defects follow on the wafer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DefectProcess {
    /// Complete spatial randomness at the given mean density.
    Uniform {
        /// Mean defect density.
        density: DefectDensity,
    },
    /// Neyman–Scott clustering: cluster centers arrive uniformly, each
    /// spawning a Poisson number of satellite defects scattered with a
    /// Gaussian radius. The *overall* mean density is preserved.
    Clustered {
        /// Mean defect density (cluster centers × satellites / area).
        density: DefectDensity,
        /// Mean satellites per cluster (> 1 concentrates defects).
        mean_per_cluster: f64,
        /// Gaussian scatter radius of satellites around a center, mm.
        sigma_mm: f64,
    },
}

impl DefectProcess {
    /// The process's mean density — the `D0` shared with the paper's
    /// analytic yield models.
    #[must_use]
    pub fn density(&self) -> DefectDensity {
        match *self {
            DefectProcess::Uniform { density } | DefectProcess::Clustered { density, .. } => {
                density
            }
        }
    }
}

/// Result of simulating one production lot of wafers.
#[derive(Debug, Clone, PartialEq)]
pub struct WaferMapResult {
    /// Wafers simulated.
    pub wafers: usize,
    /// Dice per wafer.
    pub dice_per_wafer: usize,
    /// Fraction of dice with zero killing defects.
    pub empirical_yield: Yield,
    /// Mean killing defects per die.
    pub mean_defects_per_die: f64,
    /// Variance of killing defects per die.
    pub var_defects_per_die: f64,
}

impl WaferMapResult {
    /// Method-of-moments estimate of the negative-binomial clustering
    /// parameter α from the per-die defect statistics:
    /// `α = m² / (v − m)`. Returns `None` for under-dispersed data
    /// (variance ≤ mean — i.e. Poisson or cleaner), where α → ∞.
    /// Recovers the α of the clustered yield model behind the paper's
    /// `Y` term.
    #[must_use]
    pub fn fitted_alpha(&self) -> Option<f64> {
        let m = self.mean_defects_per_die;
        let v = self.var_defects_per_die;
        if v <= m || m == 0.0 { // nanocost-audit: allow(R2, reason = "exact sentinel comparison; the compared value is exactly representable")
            return None;
        }
        Some(m * m / (v - m))
    }

    /// The dispersion index `variance / mean` (1 for Poisson, > 1 for
    /// clustered processes) — the clustering evidence behind the paper's
    /// non-Poisson yield models.
    #[must_use]
    pub fn dispersion(&self) -> f64 {
        if self.mean_defects_per_die == 0.0 { // nanocost-audit: allow(R2, reason = "exact sentinel comparison; the compared value is exactly representable")
            return 1.0;
        }
        self.var_defects_per_die / self.mean_defects_per_die
    }
}

/// The wafer-map simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaferMapSimulator {
    wafer: WaferSpec,
    die_area: Area,
    /// Fraction of a die's area in which a landing defect kills it.
    critical_fraction: f64,
}

impl WaferMapSimulator {
    /// Creates a simulator — the ground-truth process against which the
    /// paper's analytic yield models are validated.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if `critical_fraction` is outside `(0, 1]`,
    /// or the die does not fit the wafer.
    pub fn new(
        wafer: WaferSpec,
        die_area: Area,
        critical_fraction: f64,
    ) -> Result<Self, UnitError> {
        if !critical_fraction.is_finite() {
            return Err(UnitError::NonFinite {
                quantity: "critical fraction",
            });
        }
        if critical_fraction <= 0.0 || critical_fraction > 1.0 {
            return Err(UnitError::OutOfRange {
                quantity: "critical fraction",
                value: critical_fraction,
                min: 0.0,
                max: 1.0,
            });
        }
        if wafer.die_sites(die_area).is_empty() {
            return Err(UnitError::NotPositive {
                quantity: "dice per wafer",
                value: 0.0,
            });
        }
        Ok(WaferMapSimulator {
            wafer,
            die_area,
            critical_fraction,
        })
    }

    /// The die's defect-critical area implied by the configured fraction —
    /// the `A` of the paper's `Y(A·D0)` yield models.
    #[must_use]
    pub fn critical_area(&self) -> Area {
        self.die_area * self.critical_fraction
    }

    /// Simulates `wafers` wafers under `process` and aggregates the
    /// per-die statistics — the Monte-Carlo check on the paper's analytic
    /// yield models.
    ///
    /// # Panics
    ///
    /// Never panics in practice: construction validated the geometry.
    pub fn simulate(
        &self,
        sampler: &mut Sampler,
        process: DefectProcess,
        wafers: usize,
    ) -> WaferMapResult {
        let sites: Vec<DieSite> = self.wafer.die_sites(self.die_area);
        let radius = self.wafer.diameter_mm() / 2.0;
        let wafer_area_cm2 = self.wafer.total_area().cm2();
        let _span = span!(
            "yield.mc.simulate",
            wafers = wafers.max(1),
            dice_per_wafer = sites.len(),
            d0 = process.density().value(),
        );
        let mut kill_counts: Vec<u64> = Vec::with_capacity(sites.len() * wafers.max(1));
        for _ in 0..wafers.max(1) {
            let mut per_die = vec![0u64; sites.len()];
            let defects = self.throw_defects(sampler, process, wafer_area_cm2, radius);
            for (x, y) in defects {
                // Spatial index: sites form a regular grid, but a linear
                // scan is fine at these scales and keeps the code simple.
                if let Some(idx) = sites.iter().position(|s| s.contains(x, y)) {
                    // A defect on the die kills it only if it lands in the
                    // critical fraction of the artwork.
                    if sampler.bernoulli(self.critical_fraction) {
                        per_die[idx] += 1;
                    }
                }
            }
            kill_counts.extend(per_die);
        }
        let n = kill_counts.len() as f64;
        let good = kill_counts.iter().filter(|&&c| c == 0).count() as f64;
        let mean = kill_counts.iter().sum::<u64>() as f64 / n;
        let var = kill_counts
            .iter()
            .map(|&c| {
                let d = c as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / (n - 1.0).max(1.0);
        let empirical_yield = Yield::clamped(good / n);
        provenance!(
            equation: Eq7,
            function: "nanocost_yield::simulation::WaferMapSimulator::simulate",
            inputs: [
                wafers = wafers.max(1),
                dice_per_wafer = sites.len(),
                d0 = process.density().value(),
                critical_area_cm2 = self.critical_area().cm2(),
            ],
            outputs: [
                empirical_yield = empirical_yield.value(),
                mean_defects_per_die = mean,
                var_defects_per_die = var,
            ],
        );
        WaferMapResult {
            wafers: wafers.max(1),
            dice_per_wafer: sites.len(),
            empirical_yield,
            mean_defects_per_die: mean,
            var_defects_per_die: var,
        }
    }

    /// Draws one wafer's worth of defect coordinates (mm, wafer-centered).
    fn throw_defects(
        &self,
        sampler: &mut Sampler,
        process: DefectProcess,
        wafer_area_cm2: f64,
        radius_mm: f64,
    ) -> Vec<(f64, f64)> {
        let mut out = Vec::new();
        let uniform_point = |s: &mut Sampler| loop {
            let x = s.uniform(-radius_mm, radius_mm);
            let y = s.uniform(-radius_mm, radius_mm);
            if x * x + y * y <= radius_mm * radius_mm {
                return (x, y);
            }
        };
        match process {
            DefectProcess::Uniform { density } => {
                let n = sampler.poisson(density.value() * wafer_area_cm2);
                for _ in 0..n {
                    out.push(uniform_point(sampler));
                }
            }
            DefectProcess::Clustered {
                density,
                mean_per_cluster,
                sigma_mm,
            } => {
                let mean_per_cluster = mean_per_cluster.max(1.0);
                let cluster_rate = density.value() * wafer_area_cm2 / mean_per_cluster;
                let clusters = sampler.poisson(cluster_rate);
                for _ in 0..clusters {
                    let (cx, cy) = uniform_point(sampler);
                    let satellites = sampler.poisson(mean_per_cluster);
                    for _ in 0..satellites {
                        let x = cx + sampler.normal(0.0, sigma_mm);
                        let y = cy + sampler.normal(0.0, sigma_mm);
                        out.push((x, y));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{NegativeBinomialModel, PoissonModel, YieldModel};

    fn simulator() -> WaferMapSimulator {
        WaferMapSimulator::new(WaferSpec::standard_200mm(), Area::from_cm2(1.5), 0.5)
            .expect("valid configuration")
    }

    fn d0(v: f64) -> DefectDensity {
        DefectDensity::per_cm2(v).unwrap()
    }

    #[test]
    fn uniform_process_matches_poisson_model() {
        let sim = simulator();
        let mut sampler = Sampler::seeded(101);
        let density = d0(0.5);
        let result = sim.simulate(&mut sampler, DefectProcess::Uniform { density }, 200);
        let analytic = PoissonModel.die_yield(sim.critical_area(), density);
        let diff = (result.empirical_yield.value() - analytic.value()).abs();
        assert!(
            diff < 0.02,
            "empirical {} vs poisson {}",
            result.empirical_yield,
            analytic
        );
        // CSR is not over-dispersed.
        assert!(result.dispersion() < 1.15, "dispersion {}", result.dispersion());
    }

    #[test]
    fn clustering_beats_poisson_at_equal_mean_density() {
        let sim = simulator();
        let density = d0(0.8);
        let mut s1 = Sampler::seeded(7);
        let uniform = sim.simulate(&mut s1, DefectProcess::Uniform { density }, 200);
        let mut s2 = Sampler::seeded(7);
        let clustered = sim.simulate(
            &mut s2,
            DefectProcess::Clustered {
                density,
                mean_per_cluster: 8.0,
                sigma_mm: 2.0,
            },
            200,
        );
        assert!(
            clustered.empirical_yield.value() > uniform.empirical_yield.value() + 0.02,
            "clustered {} should beat uniform {}",
            clustered.empirical_yield,
            uniform.empirical_yield
        );
        assert!(clustered.dispersion() > 1.5);
    }

    #[test]
    fn fitted_alpha_explains_clustered_yield() {
        // Recover α from the simulated per-die statistics and check the
        // negative-binomial model with that α predicts the empirical yield.
        let sim = simulator();
        let density = d0(0.8);
        let mut sampler = Sampler::seeded(13);
        let result = sim.simulate(
            &mut sampler,
            DefectProcess::Clustered {
                density,
                mean_per_cluster: 8.0,
                sigma_mm: 2.0,
            },
            300,
        );
        let alpha = result.fitted_alpha().expect("clustered data is over-dispersed");
        assert!(alpha > 0.05 && alpha < 10.0, "alpha {alpha}");
        // Use the *observed* mean fault count as A·D for the analytic
        // models (edge dice see boundary effects the closed forms ignore).
        // Neyman–Scott is not exactly a gamma-compounded Poisson, so the
        // moment-matched negative binomial is approximate — but it must be
        // close, and far better than Poisson at the same mean.
        let ad = result.mean_defects_per_die;
        let negbin = NegativeBinomialModel::new(alpha)
            .unwrap()
            .die_yield(Area::from_cm2(ad), d0(1.0))
            .value();
        let poisson = (-ad).exp();
        let empirical = result.empirical_yield.value();
        assert!(
            (empirical - negbin).abs() < 0.06,
            "empirical {empirical} vs negbin(α={alpha:.2}) {negbin}"
        );
        assert!(
            (empirical - negbin).abs() < (empirical - poisson).abs(),
            "negbin {negbin} should beat poisson {poisson} at empirical {empirical}"
        );
    }

    #[test]
    fn uniform_data_is_not_overdispersed_so_alpha_is_none_or_huge() {
        let sim = simulator();
        let mut sampler = Sampler::seeded(23);
        let result = sim.simulate(&mut sampler, DefectProcess::Uniform { density: d0(0.4) }, 150);
        match result.fitted_alpha() {
            None => {}
            Some(alpha) => assert!(alpha > 3.0, "CSR should not fit a small alpha: {alpha}"),
        }
    }

    #[test]
    fn determinism_per_seed() {
        let sim = simulator();
        let run = |seed| {
            let mut s = Sampler::seeded(seed);
            sim.simulate(&mut s, DefectProcess::Uniform { density: d0(0.6) }, 20)
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn construction_validates() {
        let w = WaferSpec::standard_200mm();
        let a = Area::from_cm2(1.0);
        assert!(WaferMapSimulator::new(w, a, 0.0).is_err());
        assert!(WaferMapSimulator::new(w, a, 1.5).is_err());
        assert!(WaferMapSimulator::new(w, Area::from_cm2(1000.0), 0.5).is_err());
    }

    #[test]
    fn mean_defects_scale_with_density() {
        let sim = simulator();
        let mut s1 = Sampler::seeded(31);
        let low = sim.simulate(&mut s1, DefectProcess::Uniform { density: d0(0.2) }, 100);
        let mut s2 = Sampler::seeded(31);
        let high = sim.simulate(&mut s2, DefectProcess::Uniform { density: d0(0.8) }, 100);
        let ratio = high.mean_defects_per_die / low.mean_defects_per_die;
        assert!((ratio - 4.0).abs() < 0.5, "ratio {ratio}");
    }
}
