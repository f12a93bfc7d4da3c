//! Seeded request generators for the `explore` and `sweep` workloads.
//!
//! The server only ever sees the JSON bodies rendered here; the
//! structured [`Spec`] stays on the benchmark side so the per-layer
//! replay can call the cache and model layers with the same inputs.

use nanocost_numeric::Rng64;

/// The generator for stream position `index` under `seed`: positions are
/// generated independently, so any caller can start anywhere in the
/// stream. Positions differ in the low bits of the seed word only, which
/// `seed_from_u64`'s splitmix64 expansion spreads over the whole state.
#[must_use]
pub fn rng_at(seed: u64, index: u64) -> Rng64 {
    Rng64::seed_from_u64(Rng64::seed_from_u64(seed).next_u64() ^ index)
}

/// A uniformly chosen element of `items`.
fn pick<T: Copy>(rng: &mut Rng64, items: &[T]) -> T {
    items[rng.random_range(0..items.len())]
}

/// One eq.-4 query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSpec {
    pub lambda_um: f64,
    pub sd: f64,
    pub transistors: f64,
    pub volume: u64,
    pub fab_yield: f64,
}

impl CostSpec {
    fn json(&self) -> String {
        format!(
            "{{\"lambda_um\":{},\"sd\":{},\"transistors\":{},\"volume\":{},\"fab_yield\":{}}}",
            self.lambda_um, self.sd, self.transistors, self.volume, self.fab_yield
        )
    }
}

/// One chiplet scenario (`distinct_designs` equals `chiplets`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipletSpec {
    pub lambda_um: f64,
    pub sd: f64,
    pub transistors: f64,
    pub units: u64,
    pub chiplets: u32,
    pub assembly: &'static str,
}

/// One model request, as the benchmark knows it.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    Cost(CostSpec),
    /// An eq.-7 report; `fab_yield` of the spec is not sent.
    Yield(CostSpec),
    /// A §3.1 optimum over the default bracket; `sd` is not sent.
    Optimum(CostSpec),
    Chiplet(ChipletSpec),
    Batch(Vec<CostSpec>),
}

/// The model endpoints, in the order metrics are reported.
pub const ENDPOINTS: [&str; 5] = ["cost", "yield", "optimum", "batch", "chiplet"];

impl Spec {
    /// The endpoint label (`cost`, `yield`, …).
    #[must_use]
    pub fn endpoint(&self) -> &'static str {
        match self {
            Spec::Cost(_) => "cost",
            Spec::Yield(_) => "yield",
            Spec::Optimum(_) => "optimum",
            Spec::Chiplet(_) => "chiplet",
            Spec::Batch(_) => "batch",
        }
    }

    /// The request path.
    #[must_use]
    pub fn path(&self) -> String {
        format!("/v1/{}", self.endpoint())
    }

    /// Cost-model answers the request delivers: a batch counts its
    /// queries, every other request counts one.
    #[must_use]
    pub fn points(&self) -> usize {
        match self {
            Spec::Batch(q) => q.len(),
            _ => 1,
        }
    }

    /// The JSON body the server receives.
    #[must_use]
    pub fn body(&self) -> String {
        match self {
            Spec::Cost(c) => c.json(),
            Spec::Yield(c) => format!(
                "{{\"lambda_um\":{},\"sd\":{},\"transistors\":{},\"volume\":{}}}",
                c.lambda_um, c.sd, c.transistors, c.volume
            ),
            Spec::Optimum(c) => format!(
                "{{\"lambda_um\":{},\"transistors\":{},\"volume\":{},\"fab_yield\":{}}}",
                c.lambda_um, c.transistors, c.volume, c.fab_yield
            ),
            Spec::Chiplet(c) => format!(
                "{{\"lambda_um\":{},\"sd\":{},\"transistors\":{},\"units\":{},\"chiplets\":{},\"distinct_designs\":{},\"assembly\":\"{}\"}}",
                c.lambda_um, c.sd, c.transistors, c.units, c.chiplets, c.chiplets, c.assembly
            ),
            Spec::Batch(queries) => {
                let items: Vec<String> = queries.iter().map(CostSpec::json).collect();
                format!("{{\"queries\":[{}]}}", items.join(","))
            }
        }
    }
}

/// A request stream: the request at each position, and an id that is
/// equal for two positions exactly when their bodies are equal.
pub trait Plan: Sync {
    /// The request at stream position `i` and its distinct-body id.
    fn request(&self, i: usize) -> (usize, Spec);

    /// The request whose distinct-body id is `id`.
    fn spec(&self, id: usize) -> Spec;
}

// ---- explore -------------------------------------------------------------

/// The overlapping design-point grid of `loadgen`, as a full cross
/// product: 3 λ × 6 s_d × 2 volume/yield scenarios.
const LAMBDAS: [f64; 3] = [0.25, 0.18, 0.13];
const SDS: [f64; 6] = [150.0, 250.0, 350.0, 450.0, 550.0, 650.0];
const SCENARIOS: [(u64, f64); 2] = [(5_000, 0.4), (50_000, 0.9)];
const CHIPLET_SPLITS: [u32; 4] = [1, 2, 4, 8];

/// Relative weights of the `explore` lanes, taken from the repository's
/// own serve smoke traffic (`loadgen --mix cost,optimum,batch
/// --chiplet-share 0.25`): a quarter of the requests go to chiplet and
/// the rest cycle over equal lanes, here cost, yield, optimum and batch
/// (yield is a lane of its own, as the workload covers `/v1/yield`).
/// So chiplet is 4/16 and every other lane 3/16.
const EXPLORE_WEIGHTS: [(&str, usize); 5] = [
    ("cost", 3),
    ("yield", 3),
    ("optimum", 3),
    ("batch", 3),
    ("chiplet", 4),
];

/// The `explore` workload: a seeded order over a fixed grid of 96
/// distinct requests, so after one warm-up pass every lookup hits.
#[derive(Debug, Clone)]
pub struct Explore {
    /// Every distinct request; ids index this list.
    pub distinct: Vec<Spec>,
    seed: u64,
    /// Indices into `distinct`, grouped per endpoint.
    by_endpoint: Vec<(&'static str, Vec<usize>)>,
}

impl Explore {
    #[must_use]
    pub fn new(seed: u64) -> Explore {
        let mut distinct = Vec::new();
        for &lambda_um in &LAMBDAS {
            for &(volume, fab_yield) in &SCENARIOS {
                let point = |sd| CostSpec {
                    lambda_um,
                    sd,
                    transistors: 1e7,
                    volume,
                    fab_yield,
                };
                for &sd in &SDS {
                    distinct.push(Spec::Cost(point(sd)));
                    distinct.push(Spec::Yield(point(sd)));
                }
                distinct.push(Spec::Optimum(point(0.0)));
                // Twelve queries over six distinct points, as loadgen's
                // batches: dedup inside the batch plus hits across.
                distinct.push(Spec::Batch(
                    (0..12).map(|k| point(SDS[k % SDS.len()])).collect(),
                ));
            }
        }
        // loadgen's twelve-point chiplet grid.
        for i in 0..12 {
            let chiplets = CHIPLET_SPLITS[i % CHIPLET_SPLITS.len()];
            distinct.push(Spec::Chiplet(ChipletSpec {
                lambda_um: LAMBDAS[i % LAMBDAS.len()],
                sd: SDS[i % SDS.len()],
                transistors: 1e8,
                units: 1_000_000,
                chiplets,
                assembly: if i % 2 == 0 { "rdl" } else { "si" },
            }));
        }
        let by_endpoint = EXPLORE_WEIGHTS
            .iter()
            .map(|(ep, _)| {
                let ids = (0..distinct.len())
                    .filter(|&i| distinct[i].endpoint() == *ep)
                    .collect();
                (*ep, ids)
            })
            .collect();
        Explore {
            distinct,
            seed,
            by_endpoint,
        }
    }
}

impl Plan for Explore {
    fn request(&self, i: usize) -> (usize, Spec) {
        let mut rng = rng_at(self.seed, i as u64);
        let total: usize = EXPLORE_WEIGHTS.iter().map(|(_, w)| w).sum();
        let mut roll = rng.random_range(0..total);
        let mut lane = 0;
        for (k, (_, w)) in EXPLORE_WEIGHTS.iter().enumerate() {
            if roll < *w {
                lane = k;
                break;
            }
            roll -= w;
        }
        let id = pick(&mut rng, &self.by_endpoint[lane].1);
        (id, self.spec(id))
    }

    fn spec(&self, id: usize) -> Spec {
        self.distinct[id].clone()
    }
}

// ---- sweep ---------------------------------------------------------------

/// Queries per `/v1/batch` request in `sweep` (~85 KB bodies).
pub const SWEEP_BATCH_QUERIES: usize = 1_000;

/// Every `SWEEP_BATCH_EVERY`-th request of `sweep` is a batch; the rest
/// are optimum searches.
pub const SWEEP_BATCH_EVERY: usize = 4;

const SWEEP_LAMBDAS: [f64; 5] = [0.25, 0.18, 0.13, 0.10, 0.07];
const SWEEP_VOLUMES: [u64; 4] = [1_000, 5_000, 20_000, 50_000];
const SWEEP_YIELDS: [f64; 4] = [0.4, 0.6, 0.8, 0.9];

/// Step of the `sweep` s_d lattice: 10⁴ key quanta, so two distinct
/// generated values never share or straddle a cache quantum.
pub const SWEEP_SD_STEP: f64 = 0.01;

/// Step of the `sweep` N_tr lattice (10⁵ key quanta).
pub const SWEEP_TRANSISTOR_STEP: f64 = 1e5;

/// The `sweep` workload: large batches over mostly unique points plus
/// optimum searches at mostly unique (λ, N_tr), so the 4,096-entry LRU
/// misses, inserts and evicts. Each position is generated on demand.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    seed: u64,
}

impl Sweep {
    #[must_use]
    pub fn new(seed: u64) -> Sweep {
        Sweep { seed }
    }

    /// One seeded eq.-4 point on the sweep lattice.
    pub fn point(rng: &mut Rng64) -> CostSpec {
        CostSpec {
            lambda_um: pick(rng, &SWEEP_LAMBDAS),
            sd: 120.0 + SWEEP_SD_STEP * rng.random_range(0..100_000u32) as f64,
            transistors: SWEEP_TRANSISTOR_STEP * rng.random_range(10..510u32) as f64,
            volume: pick(rng, &SWEEP_VOLUMES),
            fab_yield: pick(rng, &SWEEP_YIELDS),
        }
    }
}

impl Plan for Sweep {
    fn request(&self, i: usize) -> (usize, Spec) {
        let mut rng = rng_at(self.seed, i as u64);
        let spec = if i.is_multiple_of(SWEEP_BATCH_EVERY) {
            Spec::Batch(
                (0..SWEEP_BATCH_QUERIES)
                    .map(|_| Sweep::point(&mut rng))
                    .collect(),
            )
        } else {
            let mut p = Sweep::point(&mut rng);
            // Unique-ish design sizes on a 100-transistor lattice.
            p.transistors = 1e6 + 100.0 * rng.random_range(0..1_000_000u32) as f64;
            Spec::Optimum(p)
        };
        (i, spec)
    }

    fn spec(&self, id: usize) -> Spec {
        self.request(id).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanocost_core::{LAMBDA_QUANTUM_UM, SD_QUANTUM, TRANSISTOR_QUANTUM, YIELD_QUANTUM};
    use std::collections::HashMap;

    /// True when every coordinate of `p` sits on its cache-key lattice, so
    /// two points with different keys are at least one quantum apart.
    fn on_key_lattice(p: &CostSpec) -> bool {
        let near = |x: f64, q: f64| ((x / q) - (x / q).round()).abs() < 1e-3;
        near(p.lambda_um, LAMBDA_QUANTUM_UM)
            && near(p.sd, SD_QUANTUM)
            && near(p.transistors, TRANSISTOR_QUANTUM)
            && near(p.fab_yield, YIELD_QUANTUM)
    }

    fn bodies(plan: &dyn Plan, n: usize) -> Vec<String> {
        (0..n).map(|i| plan.request(i).1.body()).collect()
    }

    #[test]
    fn generators_are_deterministic_and_seed_dependent() {
        assert_eq!(bodies(&Explore::new(1), 200), bodies(&Explore::new(1), 200));
        assert_ne!(bodies(&Explore::new(1), 200), bodies(&Explore::new(2), 200));
        assert_eq!(bodies(&Sweep::new(1), 6), bodies(&Sweep::new(1), 6));
        assert_ne!(bodies(&Sweep::new(1), 6), bodies(&Sweep::new(2), 6));
    }

    #[test]
    fn explore_ids_match_bodies() {
        let plan = Explore::new(7);
        assert_eq!(plan.distinct.len(), 96);
        let mut seen: HashMap<usize, String> = HashMap::new();
        for i in 0..2_000 {
            let (id, spec) = plan.request(i);
            let body = spec.body();
            assert_eq!(seen.entry(id).or_insert_with(|| body.clone()), &body);
        }
    }

    #[test]
    fn explore_mix_follows_the_smoke_traffic_shares() {
        let plan = Explore::new(5);
        let n = 32_000;
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for i in 0..n {
            *counts.entry(plan.request(i).1.endpoint()).or_default() += 1;
        }
        for (ep, share) in [
            ("chiplet", 0.25),
            ("cost", 0.1875),
            ("yield", 0.1875),
            ("optimum", 0.1875),
            ("batch", 0.1875),
        ] {
            let got = counts[ep] as f64 / n as f64;
            assert!((got - share).abs() < 0.01, "{ep}: {got}");
        }
    }

    /// Quantized key of a point, as the scenario cache builds it.
    fn key(p: &CostSpec) -> (i64, i64, i64, u64, i64) {
        let q = |x: f64, quantum: f64| (x / quantum).round() as i64;
        (
            q(p.lambda_um, LAMBDA_QUANTUM_UM),
            q(p.sd, SD_QUANTUM),
            q(p.transistors, TRANSISTOR_QUANTUM),
            p.volume,
            q(p.fab_yield, YIELD_QUANTUM),
        )
    }

    #[test]
    fn distinct_sweep_inputs_are_at_least_one_quantum_apart() {
        let plan = Sweep::new(11);
        let mut by_key: HashMap<_, CostSpec> = HashMap::new();
        for i in 0..10 * SWEEP_BATCH_EVERY {
            let (_, spec) = plan.request(i);
            let points = match spec {
                Spec::Batch(q) => q,
                Spec::Optimum(p) => vec![p],
                other => panic!("unexpected sweep request {other:?}"),
            };
            for p in points {
                assert!(on_key_lattice(&p), "{p:?} is off the key lattice");
                // One key, one exact point: no two distinct inputs share
                // a quantum.
                let prev = by_key.entry(key(&p)).or_insert(p);
                assert_eq!(prev.sd.to_bits(), p.sd.to_bits());
                assert_eq!(prev.transistors.to_bits(), p.transistors.to_bits());
            }
        }
        // Mostly unique: several times the 4,096-entry LRU in 10 batches.
        assert!(by_key.len() > 9_000, "{} distinct keys", by_key.len());
    }
}
