//! Per-layer measurements from outside the program: timers around the
//! public functions of each layer, called single-threaded in-process.

use std::io::Cursor;
use std::time::Instant;

use nanocost_chiplet::{AssemblyKind, ChipletCache, ChipletScenario};
use nanocost_core::{
    optimal_sd_total, BatchRequest, CacheStats, CostQuery, DesignPoint, ScenarioCache,
};
use nanocost_sentinel::json;
use nanocost_serve::{api::DEFAULT_SD_BRACKET, handle, read_request, ServerState};
use nanocost_trace::with_capture;
use nanocost_units::{
    ChipCount, DecompressionIndex, FeatureSize, TransistorCount, UnitError, WaferCount, Yield,
};

use crate::gen::{ChipletSpec, CostSpec, Spec};

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Layer timings of one request replayed in-process, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    pub endpoint: &'static str,
    pub parse_ns: f64,
    pub decode_ns: f64,
    pub body_bytes: usize,
    pub handle_ns: f64,
    pub encode_ns: f64,
    pub response_bytes: usize,
    /// Records the cache call emits under `with_capture`.
    pub records: usize,
    /// Captured cache call minus the bare cache call.
    pub capture_overhead_ns: f64,
    pub store_ns: f64,
}

/// Three in-process states that replay one request stream: `served`
/// through `api::handle`, `bare` and `captured` through the endpoint's
/// cache call alone, without and with `with_capture`. Each state sees
/// every request once, in stream order, so a request that missed on the
/// server misses on all three, and the capture overhead is measured on
/// the path the server took.
pub struct ReplayStates {
    served: ServerState,
    bare: ServerState,
    captured: ServerState,
}

impl ReplayStates {
    /// Fresh states, each sent `warm` once as the server was.
    #[must_use]
    pub fn warmed(warm: &[Spec]) -> ReplayStates {
        let states = ReplayStates {
            served: ServerState::new(),
            bare: ServerState::new(),
            captured: ServerState::new(),
        };
        for spec in warm {
            let _ = handle(&states.served, &crate::check::post(spec));
            cache_call(&states.bare, spec);
            cache_call(&states.captured, spec);
        }
        states
    }
}

/// Replays one request through `http::read_request`, `json::parse`,
/// `api::handle` and `Response::write_to`, the endpoint's cache call bare
/// and under `with_capture`, and `store_trace` of the capture.
pub fn replay(states: &ReplayStates, request: &[u8], spec: &Spec, tag: &str) -> Replayed {
    let t = Instant::now();
    std::hint::black_box(cache_call(&states.bare, spec));
    let bare_ns = elapsed_ns(t);
    let t = Instant::now();
    let (records, result) = with_capture(|| cache_call(&states.captured, spec));
    let captured_ns = elapsed_ns(t);
    std::hint::black_box(result);
    let t = Instant::now();
    states.captured.store_trace(tag, &records);
    let store_ns = elapsed_ns(t);

    let state = &states.served;
    let t = Instant::now();
    let req = read_request(&mut Cursor::new(request)).expect("benchmark requests parse");
    let parse_ns = elapsed_ns(t);

    let text = std::str::from_utf8(&req.body).expect("benchmark bodies are UTF-8");
    let t = Instant::now();
    let doc = json::parse(text);
    let decode_ns = elapsed_ns(t);
    std::hint::black_box(doc.is_ok());

    let t = Instant::now();
    let response = handle(state, &req);
    let handle_ns = elapsed_ns(t);

    let mut out = Vec::new();
    let t = Instant::now();
    response
        .write_to(&mut out)
        .expect("writing to a Vec cannot fail");
    let encode_ns = elapsed_ns(t);

    Replayed {
        endpoint: spec.endpoint(),
        parse_ns,
        decode_ns,
        body_bytes: req.body.len(),
        handle_ns,
        encode_ns,
        response_bytes: out.len(),
        records: records.len(),
        capture_overhead_ns: captured_ns - bare_ns,
        store_ns,
    }
}

fn cost_query(cache: &ScenarioCache, c: &CostSpec) -> Result<CostQuery, UnitError> {
    let lambda = FeatureSize::from_microns(c.lambda_um)?;
    Ok(CostQuery {
        lambda,
        sd: DecompressionIndex::new(c.sd)?,
        transistors: TransistorCount::new(c.transistors)?,
        volume: WaferCount::new(c.volume)?,
        fab_yield: Yield::new(c.fab_yield)?,
        mask_cost: cache.mask_set_cost(lambda),
    })
}

fn design_point(c: &CostSpec) -> Result<DesignPoint, UnitError> {
    Ok(DesignPoint {
        lambda: FeatureSize::from_microns(c.lambda_um)?,
        sd: DecompressionIndex::new(c.sd)?,
        transistors: TransistorCount::new(c.transistors)?,
        volume: WaferCount::new(c.volume)?,
    })
}

fn chiplet_scenario(c: &ChipletSpec) -> Result<ChipletScenario, UnitError> {
    Ok(ChipletScenario {
        lambda: FeatureSize::from_microns(c.lambda_um)?,
        sd: DecompressionIndex::new(c.sd)?,
        transistors: TransistorCount::new(c.transistors)?,
        units: ChipCount::new(c.units),
        chiplets: c.chiplets,
        distinct_designs: c.chiplets,
        assembly: AssemblyKind::parse(c.assembly).unwrap_or(AssemblyKind::Rdl),
    })
}

fn optimum(cache: &ScenarioCache, q: &CostQuery) -> bool {
    cache
        .optimal_sd(
            q.lambda,
            q.transistors,
            q.volume,
            q.fab_yield,
            q.mask_cost,
            DEFAULT_SD_BRACKET.0,
            DEFAULT_SD_BRACKET.1,
        )
        .is_ok()
}

/// The cache call an endpoint makes for `spec`; true on success.
fn cache_call(state: &ServerState, spec: &Spec) -> bool {
    let cache = state.cache();
    match spec {
        Spec::Cost(c) => cost_query(cache, c).is_ok_and(|q| {
            cache
                .transistor_cost(
                    q.lambda,
                    q.sd,
                    q.transistors,
                    q.volume,
                    q.fab_yield,
                    q.mask_cost,
                )
                .is_ok()
        }),
        Spec::Yield(c) => design_point(c).is_ok_and(|p| cache.evaluate_generalized(p).is_ok()),
        // The optimum request carries no s_d; any valid one builds the query.
        Spec::Optimum(c) => cost_query(
            cache,
            &CostSpec {
                sd: DEFAULT_SD_BRACKET.0,
                ..*c
            },
        )
        .is_ok_and(|q| optimum(cache, &q)),
        Spec::Chiplet(c) => {
            chiplet_scenario(c).is_ok_and(|s| state.chiplet_cache().evaluate(&s).is_ok())
        }
        Spec::Batch(queries) => {
            let queries: Result<Vec<_>, _> = queries.iter().map(|c| cost_query(cache, c)).collect();
            queries.is_ok_and(|queries| {
                let response = cache.evaluate_batch(&BatchRequest { queries });
                response.results.iter().all(Result::is_ok)
            })
        }
    }
}

// ---- cache tiers -----------------------------------------------------------

/// Median hit, miss and uncached-recompute times of one cache tier.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tier {
    pub hit_ns: f64,
    pub miss_ns: f64,
    pub recompute_ns: f64,
}

/// All tiers plus the batch path.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tiers {
    pub point: Tier,
    pub mask: Tier,
    pub report: Tier,
    pub optimum: Tier,
    pub chiplet: Tier,
    pub batch_ns_per_query: f64,
}

fn med(mut v: Vec<f64>) -> f64 {
    crate::stats::median(crate::stats::sort(&mut v))
}

/// Times `call` on every input of a fresh cache (misses) and again
/// (hits), `reps` times each, keeping only the calls whose `stats()`
/// delta confirms the outcome; and the uncached `recompute`.
fn tier<C, I>(
    fresh: impl Fn() -> C,
    stats: impl Fn(&C) -> CacheStats,
    inputs: &[I],
    reps: usize,
    call: impl Fn(&C, &I),
    recompute: impl Fn(&C, &I),
) -> Tier {
    let (mut hits, mut misses, mut recomputes) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let cache = fresh();
        for pass in 0..2 {
            for input in inputs {
                let before = stats(&cache);
                let t = Instant::now();
                call(&cache, input);
                let dt = elapsed_ns(t);
                let after = stats(&cache);
                match (pass, after.hits - before.hits, after.misses - before.misses) {
                    (0, 0, 1) => misses.push(dt),
                    (1, 1, 0) => hits.push(dt),
                    _ => {}
                }
            }
        }
        for input in inputs {
            let t = Instant::now();
            recompute(&cache, input);
            recomputes.push(elapsed_ns(t));
        }
    }
    Tier {
        hit_ns: med(hits),
        miss_ns: med(misses),
        recompute_ns: med(recomputes),
    }
}

/// Direct single-thread calls to `ScenarioCache` and `ChipletCache` over
/// the workload's own points, with tracing off. `batches` are timed in
/// order on one fresh cache, so a stream of unique points reaches the
/// LRU's eviction regime.
#[must_use]
pub fn cache_tiers(
    points: &[CostSpec],
    chiplets: &[ChipletSpec],
    batches: &[Vec<CostSpec>],
) -> Tiers {
    let fresh = ScenarioCache::paper_figure4;
    let queries: Vec<CostQuery> = {
        let cache = fresh();
        points
            .iter()
            .filter_map(|c| cost_query(&cache, c).ok())
            .collect()
    };
    let design: Vec<DesignPoint> = points.iter().filter_map(|c| design_point(c).ok()).collect();
    let lambdas: Vec<FeatureSize> = {
        let mut l: Vec<f64> = points.iter().map(|c| c.lambda_um).collect();
        l.sort_by(f64::total_cmp);
        l.dedup();
        l.into_iter()
            .filter_map(|um| FeatureSize::from_microns(um).ok())
            .collect()
    };
    let point = tier(
        fresh,
        ScenarioCache::stats,
        &queries,
        5,
        |c, q| {
            let _ = std::hint::black_box(c.transistor_cost(
                q.lambda,
                q.sd,
                q.transistors,
                q.volume,
                q.fab_yield,
                q.mask_cost,
            ));
        },
        |c, q| {
            let _ = std::hint::black_box(c.model().transistor_cost(
                q.lambda,
                q.sd,
                q.transistors,
                q.volume,
                q.fab_yield,
                q.mask_cost,
            ));
        },
    );
    let mask = tier(
        fresh,
        ScenarioCache::stats,
        &lambdas,
        200,
        |c, l| {
            let _ = std::hint::black_box(c.mask_set_cost(*l));
        },
        |c, l| {
            let _ = std::hint::black_box(c.mask_model().mask_set_cost(*l));
        },
    );
    let report = tier(
        fresh,
        ScenarioCache::stats,
        &design,
        5,
        |c, p| {
            let _ = std::hint::black_box(c.evaluate_generalized(*p));
        },
        |c, p| {
            let _ = std::hint::black_box(c.generalized_model().evaluate(*p));
        },
    );
    let optimum_inputs: Vec<CostQuery> = queries.iter().take(8).copied().collect();
    let optimum = tier(
        fresh,
        ScenarioCache::stats,
        &optimum_inputs,
        3,
        |c, q| {
            let _ = std::hint::black_box(optimum(c, q));
        },
        |c, q| {
            let _ = std::hint::black_box(optimal_sd_total(
                c.model(),
                q.lambda,
                q.transistors,
                q.volume,
                q.fab_yield,
                q.mask_cost,
                DEFAULT_SD_BRACKET.0,
                DEFAULT_SD_BRACKET.1,
            ));
        },
    );
    let scenarios: Vec<ChipletScenario> = chiplets
        .iter()
        .filter_map(|c| chiplet_scenario(c).ok())
        .collect();
    let chiplet = tier(
        || ChipletCache::defaults().expect("default chiplet constants are valid"),
        ChipletCache::stats,
        &scenarios,
        20,
        |c, s| {
            let _ = std::hint::black_box(c.evaluate(s));
        },
        |c, s| {
            let _ = std::hint::black_box(c.models().evaluate(s));
        },
    );
    let cache = fresh();
    let requests: Vec<BatchRequest> = batches
        .iter()
        .map(|b| BatchRequest {
            queries: b
                .iter()
                .filter_map(|c| cost_query(&cache, c).ok())
                .collect(),
        })
        .collect();
    let t = Instant::now();
    for r in &requests {
        std::hint::black_box(cache.evaluate_batch(r));
    }
    let total_queries: usize = requests.iter().map(|r| r.queries.len()).sum();
    let batch_ns_per_query = elapsed_ns(t) / total_queries.max(1) as f64;
    Tiers {
        point,
        mask,
        report,
        optimum,
        chiplet,
        batch_ns_per_query,
    }
}
