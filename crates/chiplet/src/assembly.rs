//! SiP assembly: substrate technology, bonding yield, and the
//! combined assembly yield/cost (eq. C4).
//!
//! Two integration substrates, after Chiplet Actuary
//! (arXiv:2203.12268):
//!
//! * **RDL** (redistribution-layer fan-out): cheap organic-panel
//!   routing, low defect density, few critical levels — the budget
//!   option for modest bandwidth between chiplets.
//! * **Silicon interposer**: a coarse-node silicon die under the
//!   chiplets — denser wiring (and TSVs), but it is itself a die with
//!   its own wafer cost and yield curve.
//!
//! Assembly succeeds only if every bond takes *and* the substrate is
//! good: `Y_asm = y_bond^n · Y_sub(A_pkg)`.

use crate::die::{ChipletWafer, CriticalLayerYield};
use nanocost_fab::WaferSpec;
use nanocost_trace::provenance;
use nanocost_units::{Area, Dollars, UnitError, Yield};
use nanocost_yield::DefectDensity;

/// Which integration substrate carries the chiplets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssemblyKind {
    /// Redistribution-layer fan-out on an organic panel.
    Rdl,
    /// A passive silicon interposer die.
    SiliconInterposer,
}

impl AssemblyKind {
    /// The canonical lowercase name used on the wire and in cache keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AssemblyKind::Rdl => "rdl",
            AssemblyKind::SiliconInterposer => "si",
        }
    }

    /// Parses the wire name (`"rdl"` / `"si"`).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "rdl" => Some(AssemblyKind::Rdl),
            "si" => Some(AssemblyKind::SiliconInterposer),
            _ => None,
        }
    }
}

/// One assembly technology: substrate yield curve and panel/wafer
/// economics plus per-chiplet bonding parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssemblyTech {
    substrate_yield: CriticalLayerYield,
    substrate_wafer: ChipletWafer,
    bond_yield: Yield,
    bond_cost: Dollars,
}

impl AssemblyTech {
    /// Default parameters for the given substrate kind: an organic RDL
    /// panel (D₀ = 0.05 /cm², c = 3, $500 per 300 mm panel-equivalent,
    /// 99% bond yield, $0.50 per bond) or a coarse-node silicon
    /// interposer wafer (D₀ = 0.07 /cm², c = 6, $3,000 per 300 mm
    /// wafer, 98% bond yield, $1.00 per bond).
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] only if the built-in constants are
    /// inconsistent, which the test suite pins against.
    pub fn defaults(kind: AssemblyKind) -> Result<Self, UnitError> {
        let (d0, c, wafer_cost, bond_yield, bond_cost) = match kind {
            AssemblyKind::Rdl => (0.05, 3.0, 500.0, 0.99, 0.5),
            AssemblyKind::SiliconInterposer => (0.07, 6.0, 3_000.0, 0.98, 1.0),
        };
        Ok(AssemblyTech {
            substrate_yield: CriticalLayerYield::new(DefectDensity::per_cm2(d0)?, c)?,
            substrate_wafer: ChipletWafer::new(
                WaferSpec::new(300.0, 3.0, 0.2)?,
                Dollars::new(wafer_cost),
            )?,
            bond_yield: Yield::new(bond_yield)?,
            bond_cost: Dollars::new(bond_cost),
        })
    }

    /// Eq. C4: assembly yield and assembly cost for bonding `chiplets`
    /// dies onto a substrate of `package_area`:
    /// `Y_asm = y_bond^n · Y_sub(A_pkg)` and
    /// `C_asm = C_sub(A_pkg) + n · c_bond`.
    ///
    /// # Errors
    ///
    /// Returns [`UnitError`] if the package does not fit the substrate
    /// wafer (see [`ChipletWafer::gross_dice`]) or if `chiplets` is
    /// zero.
    pub fn assemble(
        &self,
        chiplets: u32,
        package_area: Area,
    ) -> Result<(Yield, Dollars), UnitError> {
        if chiplets == 0 {
            return Err(UnitError::NotPositive { quantity: "chiplet count", value: 0.0 });
        }
        let substrate_yield = self.substrate_yield.die_yield(package_area);
        let substrate_cost = self.substrate_wafer.die_cost(package_area)?;
        let n = f64::from(chiplets);
        let asm_yield = Yield::new(self.bond_yield.value().powf(n) * substrate_yield.value())?;
        let asm_cost = substrate_cost + self.bond_cost * n;
        provenance!(
            equation: EqC4,
            function: "nanocost_chiplet::assembly::AssemblyTech::assemble",
            inputs: [
                chiplets = u64::from(chiplets),
                package_area_cm2 = package_area.cm2(),
                bond_yield = self.bond_yield.value(),
                substrate_yield = substrate_yield.value(),
                substrate_cost = substrate_cost.amount(),
            ],
            outputs: [
                assembly_yield = asm_yield.value(),
                assembly_cost = asm_cost.amount(),
            ],
        );
        Ok((asm_yield, asm_cost))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_names_round_trip() {
        for kind in [AssemblyKind::Rdl, AssemblyKind::SiliconInterposer] {
            assert_eq!(AssemblyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(AssemblyKind::parse("emib"), None);
    }

    #[test]
    fn more_chiplets_mean_lower_assembly_yield_and_higher_cost() {
        let tech = AssemblyTech::defaults(AssemblyKind::Rdl).unwrap();
        let area = Area::from_mm2(400.0);
        let (y2, c2) = tech.assemble(2, area).unwrap();
        let (y8, c8) = tech.assemble(8, area).unwrap();
        assert!(y8.value() < y2.value());
        assert!(c8.amount() > c2.amount());
    }

    #[test]
    fn interposer_is_pricier_but_both_substrates_yield_below_one() {
        let area = Area::from_mm2(600.0);
        let rdl = AssemblyTech::defaults(AssemblyKind::Rdl).unwrap();
        let si = AssemblyTech::defaults(AssemblyKind::SiliconInterposer).unwrap();
        let (y_rdl, c_rdl) = rdl.assemble(4, area).unwrap();
        let (y_si, c_si) = si.assemble(4, area).unwrap();
        assert!(c_si.amount() > c_rdl.amount());
        assert!(y_rdl.value() < 1.0 && y_si.value() < 1.0);
    }

    #[test]
    fn zero_chiplets_are_rejected() {
        let tech = AssemblyTech::defaults(AssemblyKind::Rdl).unwrap();
        assert!(tech.assemble(0, Area::from_mm2(100.0)).is_err());
    }
}
