//! Report primitives: tables and labelled series, with plain-text and CSV
//! rendering used by the experiment binaries.

use std::fmt;

/// A rectangular table with named columns.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    #[must_use]
    pub fn new(title: impl Into<String>, headers: Vec<String>) -> Self {
        Self {
            title: title.into(),
            headers,
            rows: Vec::new(),
        }
    }

    /// Adds a row.
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the header count.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(
            row.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(row);
    }

    /// The rows.
    #[must_use]
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Renders the table as CSV (headers first).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "== {} ==", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let render = |cells: &[String], f: &mut fmt::Formatter<'_>| -> fmt::Result {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            writeln!(f, "{}", line.join("  "))
        };
        render(&self.headers, f)?;
        for row in &self.rows {
            render(row, f)?;
        }
        Ok(())
    }
}

/// One labelled line of a chart: `(x, y)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesLine {
    label: String,
    points: Vec<(f64, f64)>,
}

impl SeriesLine {
    /// Creates a line.
    #[must_use]
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.into(),
            points,
        }
    }

    /// Line label.
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The points.
    #[must_use]
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// The y value at the largest x, if any.
    #[must_use]
    pub fn final_value(&self) -> Option<f64> {
        self.points.last().map(|(_, y)| *y)
    }
}

/// A chart: several labelled lines over a shared x axis, standing in for one
/// panel of a paper figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Chart {
    title: String,
    x_label: String,
    y_label: String,
    lines: Vec<SeriesLine>,
}

impl Chart {
    /// Creates an empty chart.
    #[must_use]
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        y_label: impl Into<String>,
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            y_label: y_label.into(),
            lines: Vec::new(),
        }
    }

    /// Adds a line (builder style).
    #[must_use]
    pub fn with_line(mut self, line: SeriesLine) -> Self {
        self.lines.push(line);
        self
    }

    /// Adds a line in place.
    pub fn push_line(&mut self, line: SeriesLine) {
        self.lines.push(line);
    }

    /// The chart's lines.
    #[must_use]
    pub fn lines(&self) -> &[SeriesLine] {
        &self.lines
    }

    /// Finds a line by label.
    #[must_use]
    pub fn line(&self, label: &str) -> Option<&SeriesLine> {
        self.lines.iter().find(|l| l.label() == label)
    }

    /// Renders the chart as CSV: one column of x values followed by one
    /// column per line.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.x_label);
        for line in &self.lines {
            out.push(',');
            out.push_str(line.label());
        }
        out.push('\n');
        let xs: Vec<f64> = self
            .lines
            .first()
            .map(|l| l.points().iter().map(|(x, _)| *x).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            out.push_str(&format!("{x}"));
            for line in &self.lines {
                out.push(',');
                if let Some((_, y)) = line.points().get(i) {
                    out.push_str(&format!("{y}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Chart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "== {} ==  ({} vs {})",
            self.title, self.y_label, self.x_label
        )?;
        for line in &self.lines {
            let preview: Vec<String> = line
                .points()
                .iter()
                .map(|(x, y)| format!("({x:.4}, {y:.4})"))
                .collect();
            writeln!(f, "  {}: {}", line.label(), preview.join(" "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_round_trip() {
        let mut table = Table::new("t", vec!["a".into(), "b".into()]);
        table.push_row(vec!["1".into(), "2".into()]);
        table.push_row(vec!["3".into(), "4".into()]);
        assert_eq!(table.rows().len(), 2);
        assert!(table.to_csv().contains("1,2"));
        let rendered = table.to_string();
        assert!(rendered.contains("== t =="));
        assert!(rendered.contains('a'));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        Table::new("t", vec!["a".into()]).push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn chart_lines_and_csv() {
        let chart = Chart::new("cci", "months", "mg/op")
            .with_line(SeriesLine::new("phone", vec![(1.0, 2.0), (2.0, 1.5)]))
            .with_line(SeriesLine::new("server", vec![(1.0, 9.0), (2.0, 5.0)]));
        assert_eq!(chart.lines().len(), 2);
        assert_eq!(chart.line("phone").unwrap().final_value(), Some(1.5));
        assert!(chart.line("laptop").is_none());
        let csv = chart.to_csv();
        assert!(csv.starts_with("months,phone,server"));
        assert!(csv.contains("2,1.5,5"));
        assert!(chart.to_string().contains("cci"));
    }
}
