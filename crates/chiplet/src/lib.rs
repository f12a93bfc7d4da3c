//! Multi-chiplet SiP cost modeling on top of the paper's eq. 1–7
//! machinery.
//!
//! Maly's argument (DAC 2001) is that nanometer nodes turn IC cost
//! into the design constraint; the industry's answer two decades on is
//! *disaggregation* — split the big die into chiplets, test each
//! before assembly, and integrate on an RDL fan-out or silicon
//! interposer. This crate prices that answer with the same
//! provenance-traced, cache-transparent discipline as the monolithic
//! model, following the Chiplet Actuary cost framework
//! (arXiv:2203.12268; see also arXiv:2206.07308):
//!
//! * [`CriticalLayerYield`] — eq. C1, the `nanocost_yield`
//!   negative-binomial die yield with α = critical levels;
//! * [`ChipletWafer`] — eq. C2, a `nanocost_fab` wafer spec plus a
//!   price: its analytic dies per wafer, and the die cost;
//! * [`KnownGoodDie`] — eq. C3, KGD test cost per good die;
//! * [`AssemblyTech`] — eq. C4, bonding × substrate assembly yield
//!   and cost for [`AssemblyKind::Rdl`] or
//!   [`AssemblyKind::SiliconInterposer`];
//! * [`SipNre`] — mask sets (eq. 5) and design effort (eq. 6) per
//!   distinct chiplet design, amortized over volume;
//! * [`ChipletScenario`] / [`ChipletModels`] — eq. C5, the whole SiP
//!   priced per shipped unit, with the monolithic build as the `n = 1`
//!   degenerate case;
//! * [`ChipletCache`] — the core [`Memo`](nanocost_core::memo::Memo)
//!   keyed on exact scenario inputs, with shared Eq.-C* provenance
//!   replay on hits.
//!
//! ```
//! use nanocost_chiplet::{AssemblyKind, ChipletModels, ChipletScenario};
//! use nanocost_units::{ChipCount, DecompressionIndex, FeatureSize, TransistorCount};
//!
//! let models = ChipletModels::defaults()?;
//! let scenario = ChipletScenario {
//!     lambda: FeatureSize::from_microns(0.07)?,
//!     sd: DecompressionIndex::new(300.0)?,
//!     transistors: TransistorCount::from_millions(400.0),
//!     units: ChipCount::new(1_000_000),
//!     chiplets: 4,
//!     distinct_designs: 1,
//!     assembly: AssemblyKind::Rdl,
//! };
//! let sip = models.evaluate(&scenario)?;
//! let mono = models.monolithic(&scenario)?;
//! // A multi-cm² die wants splitting: yield loss compounds faster
//! // than KGD + assembly overhead accrues.
//! assert!(sip.unit_cost.amount() < mono.unit_cost.amount());
//! # Ok::<(), nanocost_units::UnitError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod assembly;
mod cache;
mod die;
mod kgd;
mod nre;
mod scenario;

pub use assembly::{AssemblyKind, AssemblyTech};
pub use cache::ChipletCache;
pub use die::{ChipletWafer, CriticalLayerYield};
pub use kgd::KnownGoodDie;
pub use nre::SipNre;
pub use scenario::{ChipletModels, ChipletReport, ChipletScenario};
