//! Analysis over the Table A1 dataset: the computations behind the paper's
//! Figure 1 and its §2.2.2 narrative (worsening MPU density, the
//! Intel-vs-AMD market-position story).

use nanocost_fab::nearest_node;
use nanocost_numeric::{linear_fit, summarize, LinearFit, NumericError, Series, Summary};
use nanocost_units::FeatureSize;

use crate::record::DeviceRecord;
use crate::taxonomy::{DeviceClass, Vendor};

/// Per-class `s_d` statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassSummary {
    /// The class summarized.
    pub class: DeviceClass,
    /// Statistics over the effective logic `s_d` of the class's records.
    pub sd: Summary,
}

/// Summarizes the effective logic `s_d` of every class present in `rows`.
///
/// # Errors
///
/// Returns [`NumericError`] only if a class somehow has no finite values
/// (impossible for the validated embedded dataset).
pub fn class_summaries(rows: &[DeviceRecord]) -> Result<Vec<ClassSummary>, NumericError> {
    let mut out = Vec::new();
    for class in DeviceClass::ALL {
        let values: Vec<f64> = rows
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.effective_sd_logic().squares())
            .collect();
        if values.is_empty() {
            continue;
        }
        out.push(ClassSummary {
            class,
            sd: summarize(&values)?,
        });
    }
    Ok(out)
}

/// The Figure-1 scatter: one [`Series`] per device class, with points
/// `(feature size µm, effective logic s_d)`.
///
/// # Errors
///
/// Returns [`NumericError`] if any computed coordinate is non-finite
/// (impossible for the validated embedded dataset).
pub fn figure1_by_class(rows: &[DeviceRecord]) -> Result<Vec<Series>, NumericError> {
    let mut out = Vec::new();
    for class in DeviceClass::ALL {
        let pts: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.class == class)
            .map(|r| (r.feature_um, r.effective_sd_logic().squares()))
            .collect();
        if !pts.is_empty() {
            out.push(Series::new(class.to_string(), pts)?);
        }
    }
    Ok(out)
}

/// The Figure-1 vendor view: one [`Series`] per vendor for the CPU rows.
///
/// # Errors
///
/// As [`figure1_by_class`].
pub fn figure1_by_vendor(rows: &[DeviceRecord]) -> Result<Vec<Series>, NumericError> {
    let vendors = [
        Vendor::Intel,
        Vendor::Amd,
        Vendor::PowerPcAlliance,
        Vendor::Alpha,
        Vendor::Other,
    ];
    let mut out = Vec::new();
    for vendor in vendors {
        let pts: Vec<(f64, f64)> = rows
            .iter()
            .filter(|r| r.class == DeviceClass::Cpu && Vendor::from_label(r.label) == vendor)
            .map(|r| (r.feature_um, r.effective_sd_logic().squares()))
            .collect();
        if !pts.is_empty() {
            out.push(Series::new(vendor.to_string(), pts)?);
        }
    }
    Ok(out)
}

/// Fits the logic-`s_d`-vs-λ trend for one vendor's CPU rows, regressing
/// `s_d` against `ln(1/λ)` so a positive slope means "density worsens as
/// the technology advances" — the §2.2.2 claim.
///
/// # Errors
///
/// Returns [`NumericError`] if the vendor has fewer than two CPU rows.
pub fn vendor_density_trend(
    rows: &[DeviceRecord],
    vendor: Vendor,
) -> Result<LinearFit, NumericError> {
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.class == DeviceClass::Cpu && Vendor::from_label(r.label) == vendor)
        .map(|r| ((1.0 / r.feature_um).ln(), r.effective_sd_logic().squares()))
        .collect();
    let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
    let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
    linear_fit(&xs, &ys)
}

/// Mean effective logic `s_d` of a vendor's CPU rows, restricted to
/// feature sizes in `[lo_um, hi_um]` so vendors can be compared on
/// contemporary nodes.
///
/// # Errors
///
/// Returns [`NumericError::Empty`] if no rows match.
pub fn vendor_mean_sd(
    rows: &[DeviceRecord],
    vendor: Vendor,
    lo_um: f64,
    hi_um: f64,
) -> Result<Summary, NumericError> {
    let values: Vec<f64> = rows
        .iter()
        .filter(|r| {
            r.class == DeviceClass::Cpu
                && Vendor::from_label(r.label) == vendor
                && r.feature_um >= lo_um
                && r.feature_um <= hi_um
        })
        .map(|r| r.effective_sd_logic().squares())
        .collect();
    summarize(&values)
}

/// Estimates a record's design year from its process node (volume-intro
/// year of the nearest standard node) — Table A1 itself carries no dates,
/// but its feature sizes do.
#[must_use]
pub fn estimated_year(record: &DeviceRecord) -> u32 {
    #[expect(
        clippy::expect_used,
        reason = "documented invariant: dataset is validated"
    )]
    let lambda = FeatureSize::from_microns(record.feature_um).expect("dataset is validated");
    nearest_node(lambda).year
}

/// The chronological Figure-1 view: `(estimated year, effective logic
/// s_d)` for one device class.
///
/// # Errors
///
/// Returns [`NumericError`] only for a corrupted dataset (test-excluded).
pub fn chronology_series(
    rows: &[DeviceRecord],
    class: DeviceClass,
) -> Result<Series, NumericError> {
    let pts: Vec<(f64, f64)> = rows
        .iter()
        .filter(|r| r.class == class)
        .map(|r| {
            (
                f64::from(estimated_year(r)),
                r.effective_sd_logic().squares(),
            )
        })
        .collect();
    Series::new(format!("{class} by year"), pts)
}

/// Fits the `s_d`-versus-time trend for a class: a positive slope is the
/// paper's "worsening design densities" read chronologically.
///
/// # Errors
///
/// Returns [`NumericError`] if the class has fewer than two records.
pub fn density_time_trend(
    rows: &[DeviceRecord],
    class: DeviceClass,
) -> Result<LinearFit, NumericError> {
    let series = chronology_series(rows, class)?;
    let xs: Vec<f64> = series.xs();
    let ys: Vec<f64> = series.ys();
    linear_fit(&xs, &ys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_a1::table_a1;

    #[test]
    fn class_summaries_cover_all_present_classes() {
        let rows = table_a1();
        let summaries = class_summaries(&rows).unwrap();
        assert!(summaries.len() >= 5);
        let cpu = summaries.iter().find(|s| s.class == DeviceClass::Cpu).unwrap();
        assert!(cpu.sd.n >= 30);
    }

    #[test]
    fn asic_class_is_sparser_than_cpu_class() {
        let rows = table_a1();
        let summaries = class_summaries(&rows).unwrap();
        let cpu = summaries.iter().find(|s| s.class == DeviceClass::Cpu).unwrap();
        let asic = summaries.iter().find(|s| s.class == DeviceClass::Asic).unwrap();
        assert!(asic.sd.mean > cpu.sd.mean);
    }

    #[test]
    fn figure1_series_cover_the_dataset() {
        let rows = table_a1();
        let series = figure1_by_class(&rows).unwrap();
        let total: usize = series.iter().map(Series::len).sum();
        assert_eq!(total, rows.len());
    }

    #[test]
    fn intel_density_worsens_toward_smaller_nodes() {
        // §2.2.2: "a clear tendency among major microprocessor producers to
        // introduce products with worsening design densities".
        let rows = table_a1();
        let fit = vendor_density_trend(&rows, Vendor::Intel).unwrap();
        assert!(fit.slope > 0.0, "Intel trend slope {}", fit.slope);
    }

    #[test]
    fn amd_denser_than_intel_in_k5_k6_era() {
        // §2.2.2: AMD the market follower shipped denser (cheaper) parts
        // than Intel on contemporary 0.25-0.35 µm nodes.
        let rows = table_a1();
        let amd = vendor_mean_sd(&rows, Vendor::Amd, 0.25, 0.35).unwrap();
        let intel = vendor_mean_sd(&rows, Vendor::Intel, 0.25, 0.35).unwrap();
        assert!(
            amd.mean < intel.mean,
            "AMD mean {} should undercut Intel mean {}",
            amd.mean,
            intel.mean
        );
    }

    #[test]
    fn estimated_years_span_the_dataset_era() {
        let rows = table_a1();
        let years: Vec<u32> = rows.iter().map(estimated_year).collect();
        assert!(years.iter().all(|&y| (1980..=2005).contains(&y)));
        assert!(years.iter().min().unwrap() <= &1985);
        assert!(years.iter().max().unwrap() >= &1999);
    }

    #[test]
    fn cpu_density_worsens_chronologically() {
        // The paper's Figure-1 narrative read against calendar time.
        let rows = table_a1();
        let fit = density_time_trend(&rows, DeviceClass::Cpu).unwrap();
        assert!(
            fit.slope > 0.0,
            "CPU s_d should rise over the years, slope {}",
            fit.slope
        );
    }

    #[test]
    fn chronology_series_covers_the_class() {
        let rows = table_a1();
        let s = chronology_series(&rows, DeviceClass::Dsp).unwrap();
        assert_eq!(
            s.len(),
            rows.iter().filter(|r| r.class == DeviceClass::Dsp).count()
        );
    }

    #[test]
    fn vendor_series_split_the_cpu_rows() {
        let rows = table_a1();
        let series = figure1_by_vendor(&rows).unwrap();
        let total: usize = series.iter().map(Series::len).sum();
        let cpus = rows.iter().filter(|r| r.class == DeviceClass::Cpu).count();
        assert_eq!(total, cpus);
        assert!(series.iter().any(|s| s.name() == "Intel"));
        assert!(series.iter().any(|s| s.name() == "AMD"));
    }
}
