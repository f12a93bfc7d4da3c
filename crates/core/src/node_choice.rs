//! Node selection: the high-cost-era decision the paper's title points at.
//!
//! When fablines cost billions and mask sets millions, the newest node is
//! not automatically the cheapest home for a design. The framing matters:
//! a product sells a fixed number of *units*, so an advanced node's tiny
//! dice need very few wafers — and the mask set, design effort, and
//! immature yield then amortize over almost nothing. This module sweeps
//! the standard node ladder at fixed unit demand, solving the
//! volume↔yield fixed point per candidate, and finds the cost-minimizing
//! process with its own density optimum per node.

use nanocost_fab::standard_nodes;
use nanocost_numeric::refine_min;
use nanocost_trace::{event, span};
use nanocost_units::{
    DecompressionIndex, Dollars, FeatureSize, TransistorCount, UnitError, WaferCount,
};

use crate::generalized::{DesignPoint, GeneralizedCostModel};
use crate::optimize::OptimizeError;

/// One node's evaluation in a node-selection sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeChoice {
    /// Node name from the standard ladder.
    pub node: String,
    /// Feature size, µm.
    pub lambda_um: f64,
    /// Cost-optimal density at this node.
    pub optimal_sd: f64,
    /// Wafers needed to meet demand at the optimum.
    pub wafers: u64,
    /// Cost per good die at the optimum (NRE included via eq. 7).
    pub die_cost: Dollars,
}

/// Evaluates one node at one density for a fixed unit demand: solves the
/// wafer-volume ↔ yield fixed point (yield improves with volume, volume
/// depends on yield) and returns `(die cost, wafers)`.
fn evaluate_at(
    model: &GeneralizedCostModel,
    lambda: FeatureSize,
    sd: DecompressionIndex,
    transistors: TransistorCount,
    demand_units: f64,
) -> Result<(Dollars, u64), UnitError> {
    let die_area = sd.chip_area(transistors, lambda)?;
    let dice = model.wafer().gross_dice(die_area);
    if dice.is_zero() {
        return Err(UnitError::NotPositive {
            quantity: "chips per wafer",
            value: 0.0,
        });
    }
    // Fixed point: start from an optimistic yield, iterate a few times.
    // The first round is peeled off the loop so the final report is a plain
    // binding rather than an `Option` that must be unwrapped afterwards.
    /// Starting yield guess for the volume↔yield fixed point; any value in
    /// (0, 1] converges in the four damped iterations below.
    const INITIAL_YIELD_GUESS: f64 = 0.6;
    let mut y = INITIAL_YIELD_GUESS;
    let wafers = (demand_units / (dice.as_f64() * y)).ceil().max(1.0) as u64;
    let mut volume = WaferCount::new(wafers)?;
    let mut r = model.evaluate(DesignPoint {
        lambda,
        sd,
        transistors,
        volume,
    })?;
    for _ in 0..3 {
        y = r.effective_yield.value();
        let wafers = (demand_units / (dice.as_f64() * y)).ceil().max(1.0) as u64;
        volume = WaferCount::new(wafers)?;
        r = model.evaluate(DesignPoint {
            lambda,
            sd,
            transistors,
            volume,
        })?;
    }
    Ok((r.die_cost, volume.count()))
}

/// Sweeps the standard node ladder (restricted to `lambda_um_range`) for a
/// product with fixed `demand_units`, and returns every feasible node's
/// optimal-density result, cheapest first. Each node is scored by its
/// eq.-7 cost at its own Figure-4-style density optimum, so NRE and
/// volume-dependent yield drive the ranking.
///
/// # Errors
///
/// Returns [`OptimizeError`] if the density bracket violates the effort
/// model's domain. Nodes where the die cannot fit the wafer are skipped.
pub fn node_sweep(
    model: &GeneralizedCostModel,
    transistors: TransistorCount,
    demand_units: f64,
    lambda_um_range: (f64, f64),
    sd_bracket: (f64, f64),
) -> Result<Vec<NodeChoice>, OptimizeError> {
    let _span = span!(
        "core.node_choice.sweep",
        demand_units = demand_units,
        lambda_lo_um = lambda_um_range.0,
        lambda_hi_um = lambda_um_range.1,
    );
    let mut out = Vec::new();
    for node in standard_nodes() {
        let um = node.lambda.microns();
        if um < lambda_um_range.0 || um > lambda_um_range.1 {
            continue;
        }
        // Probe the dense edge: domain errors are real, fit errors skip.
        match evaluate_at(
            model,
            node.lambda,
            DecompressionIndex::new(sd_bracket.0)?,
            transistors,
            demand_units,
        ) {
            Ok(_) => {}
            Err(UnitError::NotPositive {
                quantity: "chips per wafer",
                ..
            }) => continue,
            Err(e) => return Err(OptimizeError::Model(e)),
        }
        // Huge-but-finite sentinel: the minimizer validates finiteness.
        const INFEASIBLE: f64 = 1.0e30;
        let objective = |s: f64| {
            DecompressionIndex::new(s)
                .ok()
                .and_then(|sd| {
                    evaluate_at(model, node.lambda, sd, transistors, demand_units).ok()
                })
                .map_or(INFEASIBLE, |(cost, _)| cost.amount())
        };
        let minimum = refine_min(sd_bracket.0, sd_bracket.1, 128, 0.5, objective)?;
        let sd = DecompressionIndex::new(minimum.x)?;
        let (die_cost, wafers) =
            evaluate_at(model, node.lambda, sd, transistors, demand_units)
                .map_err(OptimizeError::Model)?;
        event!(
            "core.node_choice.candidate",
            node = node.name.as_str(),
            lambda_um = um,
            optimal_sd = minimum.x,
            wafers = wafers,
            die_cost = die_cost.amount(),
        );
        out.push(NodeChoice {
            node: node.name.clone(),
            lambda_um: um,
            optimal_sd: minimum.x,
            wafers,
            die_cost,
        });
    }
    out.sort_by(|a, b| a.die_cost.amount().total_cmp(&b.die_cost.amount()));
    Ok(out)
}

/// The cheapest node for a design, if any candidate fits — the
/// high-cost-era decision of §2.2 (mask and design NRE make the newest
/// node a high-volume privilege).
///
/// # Errors
///
/// As [`node_sweep`].
pub fn cheapest_node(
    model: &GeneralizedCostModel,
    transistors: TransistorCount,
    demand_units: f64,
    lambda_um_range: (f64, f64),
    sd_bracket: (f64, f64),
) -> Result<Option<NodeChoice>, OptimizeError> {
    Ok(
        node_sweep(model, transistors, demand_units, lambda_um_range, sd_bracket)?
            .into_iter()
            .next(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep(demand_units: f64) -> Vec<NodeChoice> {
        node_sweep(
            &GeneralizedCostModel::nanometer_default(),
            TransistorCount::from_millions(10.0),
            demand_units,
            (0.05, 0.6),
            (105.0, 2_000.0),
        )
        .unwrap()
    }

    #[test]
    fn sweep_covers_the_requested_ladder_segment() {
        let choices = sweep(5.0e6);
        assert!(choices.len() >= 6);
        for c in &choices {
            assert!((0.05..=0.6).contains(&c.lambda_um));
            assert!(c.die_cost.amount() > 0.0);
            assert!(c.wafers >= 1);
        }
        for w in choices.windows(2) {
            assert!(w[0].die_cost.amount() <= w[1].die_cost.amount());
        }
    }

    #[test]
    fn high_demand_prefers_a_newer_node_than_low_demand() {
        // The headline: NRE (masks, design, immature yield) makes the
        // bleeding edge a high-volume privilege.
        let low = sweep(3.0e4); // 30k units — a niche ASIC
        let high = sweep(2.0e7); // 20M units — a mainstream MPU
        assert!(
            high[0].lambda_um < low[0].lambda_um,
            "high demand should pick a smaller node: {} vs {}",
            high[0].node,
            low[0].node
        );
    }

    #[test]
    fn niche_products_do_not_belong_on_the_newest_node() {
        let low = sweep(3.0e4);
        let smallest = low
            .iter()
            .min_by(|a, b| a.lambda_um.partial_cmp(&b.lambda_um).expect("finite"))
            .unwrap();
        assert_ne!(
            low[0].node, smallest.node,
            "a 30k-unit product should not optimize onto the newest node"
        );
    }

    #[test]
    fn wafer_counts_scale_sensibly_with_node() {
        // For the same demand, newer nodes (smaller dice) need fewer wafers.
        let choices = sweep(5.0e6);
        let at = |name: &str| choices.iter().find(|c| c.node == name).expect("in range");
        assert!(at("50nm").wafers < at("0.35um").wafers);
    }

    #[test]
    fn cheapest_node_returns_the_sweep_head() {
        let model = GeneralizedCostModel::nanometer_default();
        let n = TransistorCount::from_millions(10.0);
        let all = node_sweep(&model, n, 5.0e6, (0.05, 0.6), (105.0, 2_000.0)).unwrap();
        let best = cheapest_node(&model, n, 5.0e6, (0.05, 0.6), (105.0, 2_000.0))
            .unwrap()
            .expect("candidates exist");
        assert_eq!(best, all[0]);
        let none = cheapest_node(&model, n, 5.0e6, (5.0, 6.0), (105.0, 2_000.0)).unwrap();
        assert!(none.is_none());
    }
}
