//! Text rendering of the regenerated exhibits.

use nanocost_devices::DeviceRecord;
use nanocost_roadmap::Figure3Point;

/// Renders Table A1 with both the printed and recomputed `s_d` columns.
#[must_use]
pub fn render_table_a1(rows: &[DeviceRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>3} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}  {}\n",
        "#", "die cm²", "λ µm", "Mtr", "sd_mem", "sd_mem*", "sd_log", "sd_log*", "device"
    ));
    for r in rows {
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:>10.1}"),
            None => format!("{:>10}", "-"),
        };
        out.push_str(&format!(
            "{:>3} {:>8.2} {:>8.2} {:>8.2} {} {} {} {:>10.1}  {}\n",
            r.id,
            r.die_cm2,
            r.feature_um,
            r.total_mtr,
            fmt_opt(r.published_sd_mem),
            fmt_opt(r.computed_sd_mem().map(|s| s.squares())),
            fmt_opt(r.published_sd_logic),
            r.effective_sd_logic().squares(),
            r.label
        ));
    }
    out.push_str("\n(* = recomputed from the row's raw columns via eq. 2)\n");
    out
}

/// Renders the Figure-3 points as an aligned table.
#[must_use]
pub fn render_figure3(points: &[Figure3Point]) -> String {
    let mut out = format!(
        "{:>6} {:>8} {:>10} {:>13} {:>8}\n",
        "year", "node", "ITRS s_d", "required s_d", "ratio"
    );
    for p in points {
        out.push_str(&format!(
            "{:>6} {:>6.0}nm {:>10.1} {:>13.1} {:>8.2}\n",
            p.year, p.feature_nm, p.itrs_sd, p.required_sd, p.ratio
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{figure3_points, table_a1_rows};

    #[test]
    fn table_render_has_one_line_per_row_plus_header_and_footer() {
        let rows = table_a1_rows();
        let text = render_table_a1(&rows);
        assert_eq!(text.lines().count(), rows.len() + 3);
        assert!(text.contains("K7"));
        assert!(text.contains("Alpha"));
    }

    #[test]
    fn figure3_render_contains_every_year() {
        let pts = figure3_points().unwrap();
        let text = render_figure3(&pts);
        for p in &pts {
            assert!(text.contains(&p.year.to_string()));
        }
    }
}
