//! The embedded ITRS-1999 cost-performance-MPU roadmap.
//!
//! Headline values from the 1999 International Technology Roadmap for
//! Semiconductors overall-roadmap technology characteristics (the paper's
//! ref. [2]): feature size, transistors per cost-performance MPU, chip size
//! at production, and wafer diameter, for the 1999–2014 horizon the paper
//! analyzes.

use crate::entry::RoadmapEntry;

/// The paper's Figure-3 economic anchors, stated in §2.2.3: maximum
/// acceptable cost-performance MPU die cost, manufacturing cost per cm²,
/// and yield.
pub mod anchors {
    /// Maximum acceptable die cost `C_ch`, dollars.
    pub const DIE_COST_DOLLARS: f64 = 34.0;
    /// Manufacturing cost per cm² `C_sq`, dollars.
    pub const COST_PER_CM2: f64 = 8.0;
    /// Assumed manufacturing yield `Y`.
    pub const YIELD: f64 = 0.8;
}

/// Returns the ITRS-1999 roadmap for cost-performance MPUs, 1999–2014.
#[must_use]
pub fn itrs_1999() -> Vec<RoadmapEntry> {
    let mk = |year, feature_nm, transistors_millions, chip_mm2, wafer_mm| RoadmapEntry {
        year,
        feature_nm,
        transistors_millions,
        chip_mm2,
        wafer_mm,
    };
    vec![
        mk(1999, 180.0, 21.0, 170.0, 200.0),
        mk(2001, 150.0, 40.0, 170.0, 300.0),
        mk(2002, 130.0, 76.0, 170.0, 300.0),
        mk(2005, 100.0, 200.0, 235.0, 300.0),
        mk(2008, 70.0, 520.0, 269.0, 300.0),
        mk(2011, 50.0, 1400.0, 308.0, 300.0),
        mk(2014, 35.0, 3600.0, 354.0, 450.0),
    ]
}

#[cfg(test)]
#[allow(
    clippy::float_cmp,
    reason = "tests pin exact values the code computes bit-for-bit"
)]
mod tests {
    use super::*;

    #[test]
    fn roadmap_is_chronological_and_shrinking() {
        let r = itrs_1999();
        assert_eq!(r.len(), 7);
        for w in r.windows(2) {
            assert!(w[1].year > w[0].year);
            assert!(w[1].feature_nm < w[0].feature_nm);
            assert!(w[1].transistors_millions > w[0].transistors_millions);
        }
    }

    #[test]
    fn transistor_growth_is_moores_law_paced() {
        // ~2x every two years across the horizon: 21M → 3600M over 15
        // years is a doubling time of about two years.
        let r = itrs_1999();
        let first = &r[0];
        let last = &r[r.len() - 1];
        let years = (last.year - first.year) as f64;
        let doublings = (last.transistors_millions / first.transistors_millions).log2();
        let doubling_time = years / doublings;
        assert!(
            (1.5..3.0).contains(&doubling_time),
            "doubling time {doubling_time}"
        );
    }

    #[test]
    fn implied_sd_declines_toward_nanometer_nodes() {
        // The paper's Figure 2: the ITRS's own numbers demand *better*
        // (smaller) s_d in the nanometer era, opposite to the industrial
        // trend of Figure 1.
        let r = itrs_1999();
        let first = r[0].implied_sd().squares();
        let last = r[r.len() - 1].implied_sd().squares();
        assert!(first > 200.0, "1999 implied s_d {first}");
        assert!(last < 120.0, "2014 implied s_d {last}");
        assert!(first / last > 2.0);
    }

    #[test]
    fn every_entry_is_valid() {
        for e in itrs_1999() {
            assert!(e.feature_size().is_ok());
            assert!(e.chip_mm2 > 50.0 && e.chip_mm2 < 1000.0);
            assert!(e.wafer_mm >= 200.0);
        }
    }

    #[test]
    fn anchors_match_the_paper() {
        assert_eq!(anchors::DIE_COST_DOLLARS, 34.0);
        assert_eq!(anchors::COST_PER_CM2, 8.0);
        assert_eq!(anchors::YIELD, 0.8);
    }
}
