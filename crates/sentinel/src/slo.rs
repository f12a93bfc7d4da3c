//! Dual-window SLO burn-rate evaluation.
//!
//! An objective ("99 % of requests finish under the latency threshold",
//! "95 % of connections are not shed") has an error budget of
//! `1 - target`. The **burn rate** over a time window is the observed
//! bad fraction divided by that budget: burn 1.0 spends the budget
//! exactly at the sustainable pace, burn 10 spends a month's budget in
//! three days. Alerting on a single window forces a bad trade — a short
//! window pages on blips, a long one pages an hour late — so the
//! standard practice (Google SRE workbook, ch. 5) is to require **both**
//! a fast window ([`FAST_WINDOW_NS`], 1 min — is it burning *now*?)
//! and a slow window ([`SLOW_WINDOW_NS`], 30 min — has it burned
//! *enough to matter*?) to exceed [`MAX_BURN`] before firing.
//!
//! [`SloMonitor`] implements this over *cumulative* good/bad counters:
//! the caller feeds snapshots ([`SloMonitor::observe`]), the monitor
//! keeps a pruned ring of them, and [`SloMonitor::report`] differences
//! the ring against each window's start to produce the two burn rates
//! and the firing verdict. The query server evaluates one monitor per
//! objective on `GET /v1/health` (200 when no objective fires, 503
//! otherwise) and `fleet_report --health` sums the same window counts
//! across replicas.

use std::collections::VecDeque;

use crate::escape_json;

/// Fast burn window in nanoseconds (1 min): is it burning now?
pub const FAST_WINDOW_NS: u64 = 60 * 1_000_000_000;

/// Slow burn window in nanoseconds (30 min): has enough burned?
pub const SLOW_WINDOW_NS: u64 = 30 * 60 * 1_000_000_000;

/// Both windows' burn rates must exceed this to fire.
pub const MAX_BURN: f64 = 2.0;

/// Snapshots closer together than this coalesce in place, bounding the
/// ring at ~64 points per fast window regardless of load.
const RESOLUTION_NS: u64 = FAST_WINDOW_NS / 64;

/// One service-level objective: a name and the target good fraction.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Stable identifier, e.g. `latency_p99` or `shed_rate`.
    pub name: String,
    /// Target good fraction in `(0, 1)`; the error budget is `1 - target`.
    pub target: f64,
}

/// One cumulative snapshot: totals as of `t_ns`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct Snapshot {
    t_ns: u64,
    good: u64,
    bad: u64,
}

/// The verdict for one objective at one evaluation instant.
#[derive(Debug, Clone, PartialEq)]
pub struct BurnReport {
    /// The objective's name.
    pub name: String,
    /// The objective's target good fraction.
    pub target: f64,
    /// Burn rate over the fast window (0 when the window saw nothing).
    pub fast_burn: f64,
    /// Burn rate over the slow window (0 when the window saw nothing).
    pub slow_burn: f64,
    /// The firing threshold ([`MAX_BURN`]).
    pub max_burn: f64,
    /// `true` when both windows exceed `max_burn`.
    pub firing: bool,
    /// Lifetime good events (last snapshot's cumulative total).
    pub good: u64,
    /// Lifetime bad events (last snapshot's cumulative total).
    pub bad: u64,
}

/// Rolling burn-rate state for one objective (see the module docs).
#[derive(Debug, Clone)]
pub struct SloMonitor {
    objective: Objective,
    /// Snapshot ring, oldest first; pruned to the slow window plus one
    /// baseline point at or before its left edge.
    points: VecDeque<Snapshot>,
}

impl SloMonitor {
    /// Builds a monitor for `objective` over the module's burn windows.
    #[must_use]
    pub fn new(objective: Objective) -> Self {
        SloMonitor { objective, points: VecDeque::new() }
    }

    /// The objective this monitor evaluates.
    #[must_use]
    pub fn objective(&self) -> &Objective {
        &self.objective
    }

    /// Feeds one cumulative snapshot: `good`/`bad` are lifetime totals
    /// as of `t_ns`. Totals must not decrease; a regression (a
    /// restarted counter) resets the ring rather than reporting a
    /// negative window delta. A `t_ns` older than the newest point (two
    /// concurrent requests stamped their clocks in one order and fed in
    /// the other) coalesces into that point like a feed within the
    /// resolution does, so the window baselines survive it.
    pub fn observe(&mut self, t_ns: u64, good: u64, bad: u64) {
        if let Some(last) = self.points.back_mut() {
            if good < last.good || bad < last.bad {
                self.points.clear();
            } else if t_ns < last.t_ns.saturating_add(RESOLUTION_NS) {
                // Coalesce: the newest totals at (almost) the same
                // instant replace the previous point.
                last.good = good;
                last.bad = bad;
                last.t_ns = last.t_ns.max(t_ns);
                let now = last.t_ns;
                self.prune(now);
                return;
            }
        }
        self.points.push_back(Snapshot { t_ns, good, bad });
        self.prune(t_ns);
    }

    /// Drops points older than the slow window, keeping one point at or
    /// before the window's left edge as the differencing baseline.
    fn prune(&mut self, now_ns: u64) {
        let edge = now_ns.saturating_sub(SLOW_WINDOW_NS);
        while self.points.len() >= 2 {
            // Safe by the length guard; avoids a panic path for R1.
            let (Some(first), Some(second)) = (self.points.front(), self.points.get(1)) else {
                return;
            };
            if first.t_ns < edge && second.t_ns <= edge {
                self.points.pop_front();
            } else {
                return;
            }
        }
    }

    /// The `(good, bad)` event deltas inside the window ending at
    /// `now_ns`. These are the *summable* form of the burn state: a
    /// federation layer can add them across replicas and feed the sums
    /// to [`burn_rate`], which is exactly how a fleet-wide burn verdict
    /// is computed from per-replica scrapes.
    #[must_use]
    pub fn window_counts(&self, now_ns: u64, window_ns: u64) -> (u64, u64) {
        let Some(last) = self.points.back() else {
            return (0, 0);
        };
        let edge = now_ns.saturating_sub(window_ns);
        // Baseline: the newest point at or before the window's left
        // edge; a window older than every point starts from zero.
        let mut baseline = Snapshot::default();
        for p in &self.points {
            if p.t_ns <= edge {
                baseline = *p;
            } else {
                break;
            }
        }
        (
            last.good.saturating_sub(baseline.good),
            last.bad.saturating_sub(baseline.bad),
        )
    }

    /// The burn rate over the window ending at `now_ns`: bad fraction
    /// of the events inside the window divided by the error budget. A
    /// window with no events burns 0 (an idle service is healthy, not
    /// unknown).
    fn window_burn(&self, now_ns: u64, window_ns: u64) -> f64 {
        let (good, bad) = self.window_counts(now_ns, window_ns);
        burn_rate(good, bad, self.objective.target)
    }

    /// Evaluates both windows as of `now_ns`.
    #[must_use]
    pub fn report(&self, now_ns: u64) -> BurnReport {
        let fast_burn = self.window_burn(now_ns, FAST_WINDOW_NS);
        let slow_burn = self.window_burn(now_ns, SLOW_WINDOW_NS);
        let last = self.points.back().copied().unwrap_or_default();
        BurnReport {
            name: self.objective.name.clone(),
            target: self.objective.target,
            fast_burn,
            slow_burn,
            max_burn: MAX_BURN,
            firing: fast_burn > MAX_BURN && slow_burn > MAX_BURN,
            good: last.good,
            bad: last.bad,
        }
    }
}

impl BurnReport {
    /// Renders the report as a JSON object with a stable key order.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\":{},\"target\":{},\"fast_burn\":{},\"slow_burn\":{},\
             \"max_burn\":{},\"firing\":{},\"good\":{},\"bad\":{}}}",
            escape_json(&self.name),
            fmt_f64(self.target),
            fmt_f64(self.fast_burn),
            fmt_f64(self.slow_burn),
            fmt_f64(self.max_burn),
            self.firing,
            self.good,
            self.bad
        )
    }
}

/// The burn rate implied by `good`/`bad` event counts against a target
/// good fraction: bad fraction divided by the error budget
/// (`1 - target`), 0 when the counts are empty. Shared by the
/// per-monitor window evaluation and the federation layer's
/// summed-counter fleet verdict, so both compute burn identically.
#[must_use]
pub fn burn_rate(good: u64, bad: u64, target: f64) -> f64 {
    let total = good + bad;
    if total == 0 {
        return 0.0;
    }
    let bad_fraction = bad as f64 / total as f64;
    let budget = 1.0 - target;
    bad_fraction / budget
}

/// Shortest-roundtrip float rendering that stays valid JSON (never
/// `NaN`/`inf`, which burn math cannot produce but belts and braces).
/// Shared with the federation layer so fleet JSON round-trips floats
/// bit-for-bit.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;

    fn monitor(target: f64) -> SloMonitor {
        SloMonitor::new(Objective { name: "latency_p99".to_string(), target })
    }

    #[test]
    fn idle_monitor_is_healthy() {
        let m = monitor(0.99);
        let r = m.report(3_600 * S);
        assert_eq!(r.fast_burn, 0.0);
        assert_eq!(r.slow_burn, 0.0);
        assert!(!r.firing);
    }

    #[test]
    fn steady_burn_at_the_budget_is_burn_one() {
        let mut m = monitor(0.99);
        // 1 bad per 100 events, continuously: exactly the budget pace.
        for i in 0..2_000u64 {
            let t = i * 2 * S;
            m.observe(t, i * 99, i);
        }
        let r = m.report(2_000 * 2 * S);
        assert!((r.fast_burn - 1.0).abs() < 0.1, "fast {}", r.fast_burn);
        assert!((r.slow_burn - 1.0).abs() < 0.1, "slow {}", r.slow_burn);
        assert!(!r.firing, "burn 1.0 must not fire at max_burn 2.0");
    }

    #[test]
    fn fires_only_when_both_windows_exceed_max_burn() {
        let mut m = monitor(0.99);
        // A long healthy history…
        let mut good = 0u64;
        for i in 0..1_700u64 {
            good += 100;
            m.observe(i * S, good, 0);
        }
        // …then a heavy 10-second 100%-bad spike, large enough that
        // even diluted across the slow window it overspends the budget.
        let mut bad = 0u64;
        for i in 0..10u64 {
            bad += 10_000;
            m.observe((1_700 + i) * S, good, bad);
        }
        let r = m.report(1_710 * S);
        assert!(r.fast_burn > MAX_BURN, "fast {}", r.fast_burn);
        assert!(r.slow_burn > MAX_BURN, "slow {}", r.slow_burn);
        assert!(r.firing, "sustained spike fires");

        // The same spike against a 30-minute flood of good traffic
        // keeps the slow burn under threshold: no firing.
        let mut m2 = monitor(0.99);
        let mut good = 0u64;
        for i in 0..1_799u64 {
            good += 100_000;
            m2.observe(i * S, good, 0);
        }
        m2.observe(1_799 * S, good, 200_000);
        let r2 = m2.report(1_800 * S);
        assert!(r2.fast_burn > MAX_BURN, "fast {}", r2.fast_burn);
        assert!(r2.slow_burn < MAX_BURN, "slow {}", r2.slow_burn);
        assert!(!r2.firing, "short blip must not fire");
    }

    #[test]
    fn recovery_clears_the_fast_window_first() {
        let mut m = monitor(0.95);
        // A bad minute…
        for i in 0..60u64 {
            m.observe(i * S, i, i);
        }
        // …then five healthy minutes.
        for i in 60..360u64 {
            m.observe(i * S, 60 + (i - 60) * 100, 60);
        }
        let r = m.report(360 * S);
        assert_eq!(r.fast_burn, 0.0, "fast window is clean after recovery");
        assert!(r.slow_burn > 0.0, "slow window still remembers the incident");
        assert!(!r.firing);
    }

    #[test]
    fn window_counts_survive_a_feed_stamped_one_ns_early() {
        let mut m = monitor(0.99);
        // A bad half minute, then 39 minutes of healthy traffic.
        m.observe(30 * S, 0, 100);
        for i in 60..=2_400u64 {
            m.observe(i * S, (i - 59) * 10, 100);
        }
        // A concurrent request stamped its clock 1 ns before the newest
        // point but fed after it, with the larger totals.
        m.observe(2_400 * S - 1, 23_415, 100);
        assert_eq!(m.window_counts(2_400 * S, FAST_WINDOW_NS), (605, 0));
        assert_eq!(m.window_counts(2_400 * S, SLOW_WINDOW_NS), (18_005, 0));
        assert!(!m.report(2_400 * S).firing);
    }

    #[test]
    fn ring_stays_bounded_and_counter_reset_clears() {
        let mut m = monitor(0.99);
        for i in 0..1_000_000u64 {
            // A snapshot every millisecond for ~17 minutes.
            m.observe(i * 1_000_000, i, 0);
        }
        assert!(
            m.points.len() <= 64 * 31 + 2,
            "ring must stay bounded, got {}",
            m.points.len()
        );
        // A cumulative total going backwards (process restart) resets.
        m.observe(1_000_000 * 1_000_000, 5, 0);
        assert_eq!(m.points.len(), 1);
    }

    #[test]
    fn report_renders_stable_json() {
        let mut m = monitor(0.99);
        m.observe(10 * S, 99, 1);
        let json = m.report(10 * S).to_json();
        assert!(json.starts_with("{\"name\":\"latency_p99\",\"target\":0.99,"));
        assert!(json.contains("\"firing\":false"));
        assert!(json.ends_with("\"good\":99,\"bad\":1}"));
        crate::json::parse(&json).expect("valid JSON");
    }
}
