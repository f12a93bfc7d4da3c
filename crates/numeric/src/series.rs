//! Named data series for figure regeneration.
//!
//! The paper's figures are reproduced as printed tables/series; [`Series`]
//! and [`Chart`] carry the data and render it as aligned text columns and a
//! coarse ASCII scatter so results are inspectable straight from a terminal
//! or a CI log.

use crate::error::NumericError;

/// A named sequence of `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    name: String,
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a named series from points.
    ///
    /// # Errors
    ///
    /// Returns [`NumericError::InvalidInput`] if any coordinate is
    /// non-finite.
    pub fn new(name: impl Into<String>, points: Vec<(f64, f64)>) -> Result<Self, NumericError> {
        if points.iter().any(|&(x, y)| !x.is_finite() || !y.is_finite()) {
            return Err(NumericError::InvalidInput {
                routine: "Series::new",
                reason: "coordinates must be finite",
            });
        }
        Ok(Series {
            name: name.into(),
            points,
        })
    }

    /// The series name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The points of the series.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Number of points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if the series has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Iterates over the points.
    pub fn iter(&self) -> std::slice::Iter<'_, (f64, f64)> {
        self.points.iter()
    }

    /// The y-values alone.
    #[must_use]
    pub fn ys(&self) -> Vec<f64> {
        self.points.iter().map(|&(_, y)| y).collect()
    }

    /// The x-values alone.
    #[must_use]
    pub fn xs(&self) -> Vec<f64> {
        self.points.iter().map(|&(x, _)| x).collect()
    }

    /// The point with the smallest y, if any.
    #[must_use]
    pub fn argmin(&self) -> Option<(f64, f64)> {
        self.points
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Renders as CSV lines `x,y` with a `# name` header.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = format!("# {}\n", self.name);
        for &(x, y) in &self.points {
            out.push_str(&format!("{x},{y}\n"));
        }
        out
    }
}

/// A collection of series sharing axes — one reproduced figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Chart {
    title: String,
    x_label: String,
    y_label: String,
    series: Vec<Series>,
}

impl Chart {
    /// Creates an empty chart with axis labels.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Chart {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            series: Vec::new(),
        }
    }

    /// Adds a series, builder-style.
    #[must_use]
    pub fn with_series(mut self, series: Series) -> Self {
        self.series.push(series);
        self
    }

    /// Adds a series in place.
    pub fn push(&mut self, series: Series) {
        self.series.push(series);
    }

    /// The chart title.
    #[must_use]
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The contained series.
    #[must_use]
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Renders the chart as an aligned text table, one row per x, one column
    /// per series (missing points left blank).
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points().iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let mut out = format!("== {} ==\n", self.title);
        out.push_str(&format!("{:>14}", self.x_label));
        for s in &self.series {
            out.push_str(&format!("  {:>16}", truncate(s.name(), 16)));
        }
        out.push('\n');
        for &x in &xs {
            out.push_str(&format!("{x:>14.5}"));
            for s in &self.series {
                #[expect(
                    clippy::float_cmp,
                    reason = "x is one of the points' own abscissas, so the lookup is an exact match"
                )]
                match s.points().iter().find(|&&(px, _)| px == x) {
                    Some(&(_, y)) => out.push_str(&format!("  {y:>16.6}")),
                    None => out.push_str(&format!("  {:>16}", "")),
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders a coarse ASCII scatter plot (first character of each series
    /// name used as its glyph). Log-scaling is the caller's job: pass
    /// transformed coordinates if needed.
    #[must_use]
    pub fn to_ascii(&self, width: usize, height: usize) -> String {
        let width = width.max(16);
        let height = height.max(8);
        let pts: Vec<(f64, f64)> = self
            .series
            .iter()
            .flat_map(|s| s.points().iter().copied())
            .collect();
        if pts.is_empty() {
            return format!("== {} == (no data)\n", self.title);
        }
        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
        for &(x, y) in &pts {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
            y_min = y_min.min(y);
            y_max = y_max.max(y);
        }
        #[expect(
            clippy::float_cmp,
            reason = "only an exactly degenerate range needs widening before it divides"
        )]
        if x_min == x_max {
            x_max = x_min + 1.0;
        }
        #[expect(
            clippy::float_cmp,
            reason = "only an exactly degenerate range needs widening before it divides"
        )]
        if y_min == y_max {
            y_max = y_min + 1.0;
        }
        let mut grid = vec![vec![' '; width]; height];
        for s in &self.series {
            let glyph = s.name().chars().next().unwrap_or('*');
            for &(x, y) in s.points() {
                let col = (((x - x_min) / (x_max - x_min)) * (width as f64 - 1.0)).round() as usize;
                let row =
                    (((y - y_min) / (y_max - y_min)) * (height as f64 - 1.0)).round() as usize;
                grid[height - 1 - row][col] = glyph;
            }
        }
        let mut out = format!(
            "== {} ==  y: {} [{y_min:.3}..{y_max:.3}]  x: {} [{x_min:.3}..{x_max:.3}]\n",
            self.title, self.y_label, self.x_label
        );
        for row in grid {
            out.push('|');
            out.extend(row);
            out.push('\n');
        }
        out.push('+');
        out.push_str(&"-".repeat(width));
        out.push('\n');
        out
    }
}

fn truncate(s: &str, n: usize) -> &str {
    match s.char_indices().nth(n) {
        Some((idx, _)) => &s[..idx],
        None => s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_series() -> Series {
        Series::new("alpha", vec![(1.0, 10.0), (2.0, 5.0), (3.0, 8.0)]).unwrap()
    }

    #[test]
    fn series_accessors() {
        let s = sample_series();
        assert_eq!(s.name(), "alpha");
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.xs(), vec![1.0, 2.0, 3.0]);
        assert_eq!(s.ys(), vec![10.0, 5.0, 8.0]);
    }

    #[test]
    fn argmin_finds_lowest_point() {
        assert_eq!(sample_series().argmin(), Some((2.0, 5.0)));
        let empty = Series::new("e", vec![]).unwrap();
        assert_eq!(empty.argmin(), None);
    }

    #[test]
    fn series_rejects_non_finite() {
        assert!(Series::new("bad", vec![(f64::NAN, 1.0)]).is_err());
        assert!(Series::new("bad", vec![(1.0, f64::INFINITY)]).is_err());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = sample_series().to_csv();
        assert!(csv.starts_with("# alpha\n"));
        assert_eq!(csv.lines().count(), 4);
    }

    #[test]
    fn chart_table_aligns_series_by_x() {
        let chart = Chart::new("demo", "x", "y")
            .with_series(sample_series())
            .with_series(Series::new("beta", vec![(2.0, 1.0)]).unwrap());
        let table = chart.to_table();
        assert!(table.contains("demo"));
        assert!(table.contains("alpha"));
        assert!(table.contains("beta"));
        // x = 2 row carries both values.
        let row = table.lines().find(|l| l.trim_start().starts_with("2.0")).unwrap();
        assert!(row.contains("5.0"));
        assert!(row.contains("1.0"));
    }

    #[test]
    fn ascii_plot_contains_glyphs_and_frame() {
        let chart = Chart::new("demo", "x", "y").with_series(sample_series());
        let art = chart.to_ascii(40, 10);
        assert!(art.contains('a'));
        assert!(art.contains('+'));
        assert!(art.lines().count() >= 10);
    }

    #[test]
    fn ascii_plot_handles_degenerate_ranges() {
        let chart = Chart::new("flat", "x", "y")
            .with_series(Series::new("f", vec![(1.0, 2.0), (1.0, 2.0)]).unwrap());
        let art = chart.to_ascii(20, 8);
        assert!(art.contains('f'));
    }
}
