//! Evaluation provenance: which paper equation produced which number.
//!
//! Maly's cost argument (DAC 2001) is a chain of seven numbered
//! equations; every instrumented model function reports the one it
//! implements along with its inputs and outputs, so a full figure
//! regeneration can be replayed as an audit trail.

use std::fmt;
use std::sync::Arc;

use crate::record::{ProvenanceCall, RecordKind};
use crate::span::current_span;
use crate::value::Field;
use crate::dispatch;

/// The paper's numbered equations (eqs. 1–7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Equation {
    /// Eq. 1: transistor cost from wafer cost and die count,
    /// `C_tr = C_w / (N_tr · N_ch · Y)`.
    Eq1,
    /// Eq. 2: chip area from transistor count and density,
    /// `A_ch = N_tr · s_d · λ²`.
    Eq2,
    /// Eq. 3: manufacturing cost per functioning transistor,
    /// `C_tr = C_sq · λ² · s_d / Y`.
    Eq3,
    /// Eq. 4: total cost with the design/NRE share,
    /// `C_tr = (Cm_sq + Cd_sq) · λ² · s_d / Y`.
    Eq4,
    /// Eq. 5: fixed costs spread over fabricated silicon,
    /// `Cd_sq = (C_MA + C_DE) / (A_w · V)`.
    Eq5,
    /// Eq. 6: design effort versus density,
    /// `C_DE = a₀ · N_tr^p₁ / (s_d − s_d0)^p₂`.
    Eq6,
    /// Eq. 7: the generalized model with volume-dependent yield, test
    /// cost, and utilization.
    Eq7,
    /// Eq. C1: per-chiplet die yield under negative-binomial defect
    /// clustering per critical layer,
    /// `Y = (1 + D₀ · A / c)^(−c)` (Chiplet Actuary, arXiv:2203.12268).
    EqC1,
    /// Eq. C2: dies per wafer and cost per area from wafer geometry
    /// with scribe-lane and edge-loss losses.
    EqC2,
    /// Eq. C3: known-good-die test cost per good die, `C_test / Y`.
    EqC3,
    /// Eq. C4: assembly yield and cost — per-chiplet bonding plus the
    /// RDL / silicon-interposer substrate.
    EqC4,
    /// Eq. C5: SiP total unit cost with mask/NRE amortization and reuse
    /// across chiplets and products.
    EqC5,
}

impl Equation {
    /// The paper's numbered equations, in paper order.
    pub const ALL: [Equation; 7] = [
        Equation::Eq1,
        Equation::Eq2,
        Equation::Eq3,
        Equation::Eq4,
        Equation::Eq5,
        Equation::Eq6,
        Equation::Eq7,
    ];

    /// The chiplet-extension equations (`Eq.C*`), in model order: the
    /// multi-chiplet SiP cost chain layered on top of the paper's
    /// eqs. 1–7 by the `nanocost-chiplet` crate.
    pub const CHIPLET: [Equation; 5] = [
        Equation::EqC1,
        Equation::EqC2,
        Equation::EqC3,
        Equation::EqC4,
        Equation::EqC5,
    ];

    /// The canonical id string (`"Eq.4"`, `"Eq.C1"`) used by every
    /// exporter.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Equation::Eq1 => "Eq.1",
            Equation::Eq2 => "Eq.2",
            Equation::Eq3 => "Eq.3",
            Equation::Eq4 => "Eq.4",
            Equation::Eq5 => "Eq.5",
            Equation::Eq6 => "Eq.6",
            Equation::Eq7 => "Eq.7",
            Equation::EqC1 => "Eq.C1",
            Equation::EqC2 => "Eq.C2",
            Equation::EqC3 => "Eq.C3",
            Equation::EqC4 => "Eq.C4",
            Equation::EqC5 => "Eq.C5",
        }
    }
}

impl fmt::Display for Equation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// Emits one provenance record attached to the innermost open span.
/// Prefer the [`provenance!`](crate::provenance!) macro, which skips
/// all argument construction when tracing is disabled.
pub fn emit(
    equation: Equation,
    function: &'static str,
    inputs: Vec<Field>,
    outputs: Vec<Field>,
) {
    dispatch(RecordKind::Provenance {
        span: current_span(),
        equation,
        function,
        inputs,
        outputs,
    });
}

/// Replays stored provenance as one [`RecordKind::Replay`] record
/// attached to the innermost open span. The record shares `calls`, so
/// replaying an optimum search's ~850 calls costs one refcount bump,
/// not a copy of each call. Nothing is emitted for an empty replay or
/// while tracing is disabled.
pub fn replay(calls: &Arc<[ProvenanceCall]>) {
    if calls.is_empty() || !crate::is_enabled() {
        return;
    }
    dispatch(RecordKind::Replay { span: current_span(), calls: Arc::clone(calls) });
}

/// Reports one model-function invocation: the paper equation it
/// implements, its input quantities, and its outputs. Free when
/// disabled — no field expression is evaluated.
///
/// ```
/// use nanocost_trace::provenance;
/// let (sd, cost) = (300.0, 1.2e-6);
/// provenance!(
///     equation: Eq3,
///     function: "nanocost_core::manufacturing::transistor_cost",
///     inputs: [sd = sd],
///     outputs: [c_tr = cost],
/// );
/// ```
#[macro_export]
macro_rules! provenance {
    (
        equation: $eq:ident,
        function: $function:expr,
        inputs: [$($ik:ident = $iv:expr),* $(,)?],
        outputs: [$($ok:ident = $ov:expr),* $(,)?] $(,)?
    ) => {
        if $crate::is_enabled() {
            $crate::provenance::emit(
                $crate::Equation::$eq,
                $function,
                ::std::vec![$(
                    $crate::value::Field::new(
                        ::core::stringify!($ik),
                        $crate::value::Value::from($iv),
                    )
                ),*],
                ::std::vec![$(
                    $crate::value::Field::new(
                        ::core::stringify!($ok),
                        $crate::value::Value::from($ov),
                    )
                ),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::with_collector;

    #[test]
    fn ids_cover_the_paper_numbering() {
        let ids: Vec<&str> = Equation::ALL.iter().map(|e| e.id()).collect();
        assert_eq!(ids, ["Eq.1", "Eq.2", "Eq.3", "Eq.4", "Eq.5", "Eq.6", "Eq.7"]);
        assert_eq!(Equation::Eq4.to_string(), "Eq.4");
    }

    #[test]
    fn chiplet_ids_extend_the_numbering_without_colliding() {
        let ids: Vec<&str> = Equation::CHIPLET.iter().map(|e| e.id()).collect();
        assert_eq!(ids, ["Eq.C1", "Eq.C2", "Eq.C3", "Eq.C4", "Eq.C5"]);
        assert_eq!(Equation::EqC1.to_string(), "Eq.C1");
        // Every id keeps the `Eq.` prefix (the fingerprint/trace-check
        // contract) and the two families stay disjoint.
        for c in Equation::CHIPLET {
            assert!(c.id().starts_with("Eq."));
            assert!(!Equation::ALL.contains(&c));
        }
    }

    #[test]
    fn macro_emits_a_full_record() {
        let (records, _) = with_collector(|| {
            provenance!(
                equation: Eq4,
                function: "test::fn",
                inputs: [sd = 300.0, volume = 5_000u64],
                outputs: [c_tr = 1.5e-6],
            );
        });
        assert_eq!(records.len(), 1);
        let RecordKind::Provenance { equation, function, ref inputs, ref outputs, .. } =
            records[0].kind
        else {
            panic!("not provenance: {:?}", records[0]);
        };
        assert_eq!(equation, Equation::Eq4);
        assert_eq!(function, "test::fn");
        assert_eq!(inputs.len(), 2);
        assert_eq!(outputs.len(), 1);
    }

    #[test]
    fn a_replay_is_one_record_sharing_the_calls() {
        let calls: Arc<[ProvenanceCall]> = Arc::from([
            ProvenanceCall { equation: Equation::Eq5, function: "a", inputs: vec![], outputs: vec![] },
            ProvenanceCall { equation: Equation::Eq6, function: "b", inputs: vec![], outputs: vec![] },
        ]);
        let (captured, ()) = crate::with_capture(|| {
            replay(&calls);
            replay(&Arc::from([]));
        });
        assert_eq!(captured.len(), 1, "one record per replay, none for an empty one");
        let RecordKind::Replay { calls: ref shared, .. } = captured[0].kind else {
            panic!("not a replay: {:?}", captured[0]);
        };
        assert!(Arc::ptr_eq(shared, &calls));
        assert_eq!(Arc::strong_count(&calls), 2, "the capture shares, not copies");
    }
}
