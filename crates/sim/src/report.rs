//! Minimal markdown table rendering for experiment output.

use core::fmt;

/// A titled markdown table.
///
/// # Example
///
/// ```
/// use vrcache_sim::report::TableReport;
///
/// let mut t = TableReport::new("Table 6: hit ratios", vec!["sizes", "h1VR", "h1RR"]);
/// t.row(vec!["4K/64K".into(), "0.925".into(), "0.925".into()]);
/// let text = t.to_string();
/// assert!(text.contains("| sizes | h1VR | h1RR |"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableReport {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TableReport {
    /// Creates an empty table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: Vec<&str>) -> Self {
        TableReport {
            title: title.into(),
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
        self
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The cell at (row, col), if present.
    pub fn cell(&self, row: usize, col: usize) -> Option<&str> {
        self.rows.get(row)?.get(col).map(String::as_str)
    }

    /// Looks up a cell by header name within a row.
    pub fn cell_by_header(&self, row: usize, header: &str) -> Option<&str> {
        let col = self.headers.iter().position(|h| h == header)?;
        self.cell(row, col)
    }

    /// Renders the table as RFC-4180-style CSV (quotes cells containing
    /// commas, quotes or newlines), for feeding plots and spreadsheets.
    pub fn to_csv(&self) -> String {
        fn field(s: &str) -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        }
        let mut out = String::new();
        for row in std::iter::once(&self.headers).chain(&self.rows) {
            out.push_str(&row.iter().map(|c| field(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for TableReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "### {}", self.title)?;
        writeln!(f)?;
        writeln!(f, "| {} |", self.headers.join(" | "))?;
        writeln!(
            f,
            "|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        )?;
        for row in &self.rows {
            writeln!(f, "| {} |", row.join(" | "))?;
        }
        Ok(())
    }
}

/// A minimal ASCII line chart for rendering the paper's figures in a
/// terminal: one glyph per series, x left-to-right, y bottom-up.
///
/// # Example
///
/// ```
/// use vrcache_sim::report::ascii_chart;
///
/// let vr: Vec<(f64, f64)> = (0..=10).map(|i| (i as f64, 1.5)).collect();
/// let rr: Vec<(f64, f64)> = (0..=10).map(|i| (i as f64, 1.4 + 0.02 * i as f64)).collect();
/// let chart = ascii_chart(&[("VR", &vr), ("RR", &rr)], 40, 10);
/// assert!(chart.contains("V"));
/// assert!(chart.contains("R"));
/// ```
///
/// # Panics
///
/// Panics if no series or an empty series is supplied, or if width/height
/// are smaller than 2.
pub fn ascii_chart(series: &[(&str, &[(f64, f64)])], width: usize, height: usize) -> String {
    assert!(width >= 2 && height >= 2, "chart too small");
    assert!(
        !series.is_empty() && series.iter().all(|(_, pts)| !pts.is_empty()),
        "chart needs non-empty series"
    );
    let all = series.iter().flat_map(|(_, pts)| pts.iter());
    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (f64::INFINITY, f64::NEG_INFINITY);
    for (x, y) in all {
        x_min = x_min.min(*x);
        x_max = x_max.max(*x);
        y_min = y_min.min(*y);
        y_max = y_max.max(*y);
    }
    if (x_max - x_min).abs() < f64::EPSILON {
        x_max = x_min + 1.0;
    }
    if (y_max - y_min).abs() < f64::EPSILON {
        y_max = y_min + 1.0;
    }
    let mut grid = vec![vec![' '; width]; height];
    for (label, pts) in series {
        let glyph = label.chars().next().unwrap_or('*');
        for (x, y) in *pts {
            let cx = (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y_min) / (y_max - y_min)) * (height - 1) as f64).round() as usize;
            let row = height - 1 - cy;
            grid[row][cx] = glyph;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{y_max:>9.3} +{}\n", "-".repeat(width)));
    for row in grid {
        out.push_str("          |");
        out.extend(row);
        out.push('\n');
    }
    out.push_str(&format!(
        "{y_min:>9.3} +{}\n           {:<8.1}{:>width$.1}\n",
        "-".repeat(width),
        x_min,
        x_max,
        width = width - 8
    ));
    for (label, _) in series {
        out.push_str(&format!(
            "  {} = {label}\n",
            label.chars().next().unwrap_or('*')
        ));
    }
    out
}

/// Formats a ratio the way the paper prints hit ratios (three decimals,
/// leading dot style: `.925`).
pub fn ratio(v: f64) -> String {
    let s = format!("{v:.3}");
    s.strip_prefix('0').map(String::from).unwrap_or(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = TableReport::new("demo", vec!["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.starts_with("### demo"));
        assert!(s.contains("| a | b |"));
        assert!(s.contains("|---|---|"));
        assert!(s.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = TableReport::new("demo", vec!["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn cell_access() {
        let mut t = TableReport::new("demo", vec!["x", "y"]);
        t.row(vec!["7".into(), "8".into()]);
        assert_eq!(t.cell(0, 1), Some("8"));
        assert_eq!(t.cell_by_header(0, "x"), Some("7"));
        assert_eq!(t.cell_by_header(0, "z"), None);
        assert_eq!(t.cell(1, 0), None);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.title(), "demo");
    }

    #[test]
    fn csv_rendering_escapes_properly() {
        let mut t = TableReport::new("demo", vec!["name", "value"]);
        t.row(vec!["plain".into(), "1".into()]);
        t.row(vec!["with,comma".into(), "say \"hi\"".into()]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"with,comma\",\"say \"\"hi\"\"\"");
    }

    #[test]
    fn ascii_chart_plots_both_series() {
        let a: Vec<(f64, f64)> = vec![(0.0, 1.0), (5.0, 1.0), (10.0, 1.0)];
        let b: Vec<(f64, f64)> = vec![(0.0, 0.5), (5.0, 1.5), (10.0, 2.5)];
        let chart = ascii_chart(&[("Alpha", &a), ("Beta", &b)], 30, 8);
        assert!(chart.contains('A'));
        assert!(chart.contains('B'));
        assert!(chart.contains("A = Alpha"));
        assert!(chart.contains("2.500"), "y max labeled");
        assert!(chart.contains("0.500"), "y min labeled");
    }

    #[test]
    fn ascii_chart_handles_flat_series() {
        let a: Vec<(f64, f64)> = vec![(0.0, 1.0), (1.0, 1.0)];
        let chart = ascii_chart(&[("X", &a)], 10, 4);
        assert!(chart.contains('X'));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn ascii_chart_rejects_empty() {
        let _ = ascii_chart(&[("X", &[])], 10, 4);
    }

    #[test]
    fn paper_style_ratio() {
        assert_eq!(ratio(0.925), ".925");
        assert_eq!(ratio(1.0), "1.000");
        assert_eq!(ratio(0.5004), ".500");
    }
}
