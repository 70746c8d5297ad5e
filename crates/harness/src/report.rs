//! Structured experiment results, separated from rendering.
//!
//! Experiments produce a [`Report`] — sections of [`ExperimentTable`]s
//! whose rows are typed [`Cell`]s — and renderers turn reports into
//! output. Two renderers ship today: the fixed-width text renderer
//! (built on [`TablePrinter`], byte-compatible with the pre-harness
//! binaries and the committed `results/*.txt`) and a CSV renderer.

use std::fmt;

/// One typed cell of an experiment row.
///
/// Percentage cells hold *fractions* (0.856 renders as `86%` / `85.7%`).
/// [`Cell::Text`] doubles as the escape hatch for pre-formatted values
/// whose exact float expression must be preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Label or pre-formatted text.
    Text(String),
    /// Integer count.
    Count(u64),
    /// Count rendered in millions with two decimals: `12.34M`.
    Millions(u64),
    /// Fraction rendered `{:.0}%`.
    Pct(f64),
    /// Fraction rendered `{:.1}%`.
    Pct1(f64),
    /// Value rendered `{:.N}` (N ≤ 17).
    Fixed(f64, u8),
    /// A `-` placeholder (no data).
    Dash,
    /// An empty cell.
    Empty,
}

impl Cell {
    /// Shorthand for [`Cell::Text`].
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// Renders the cell to its display string.
    pub fn render(&self) -> String {
        match self {
            Cell::Text(s) => s.clone(),
            Cell::Count(v) => v.to_string(),
            Cell::Millions(v) => format!("{:.2}M", *v as f64 / 1e6),
            Cell::Pct(x) => format!("{:.0}%", 100.0 * x),
            Cell::Pct1(x) => format!("{:.1}%", 100.0 * x),
            Cell::Fixed(x, n) => format!("{x:.*}", *n as usize),
            Cell::Dash => "-".to_string(),
            Cell::Empty => String::new(),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// One row of typed cells.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExperimentRow {
    /// The cells, one per table column.
    pub cells: Vec<Cell>,
}

impl From<Vec<Cell>> for ExperimentRow {
    fn from(cells: Vec<Cell>) -> ExperimentRow {
        ExperimentRow { cells }
    }
}

/// A table of typed rows under fixed headers.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentTable {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<ExperimentRow>,
}

impl ExperimentTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> ExperimentTable {
        ExperimentTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch — a bug in the experiment definition.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(ExperimentRow { cells });
    }

    /// Renders with the fixed-width text renderer.
    pub fn render_text(&self) -> String {
        let mut p = TablePrinter::new(self.headers.clone());
        for r in &self.rows {
            p.row(r.cells.iter().map(Cell::render).collect());
        }
        p.render()
    }
}

/// A report section: an optional `== heading ==` plus one table.
#[derive(Debug, Clone, PartialEq)]
pub struct Section {
    /// Section heading, rendered as `== heading ==`.
    pub heading: Option<String>,
    /// The section's table.
    pub table: ExperimentTable,
}

/// A complete experiment result, independent of any output format.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The experiment's registry name (`table1`, `fig6`, ...).
    pub name: String,
    /// The headline printed before the tables.
    pub title: String,
    /// The tables, in order.
    pub sections: Vec<Section>,
    /// Trailing note paragraphs (each rendered as its own lines).
    pub notes: Vec<String>,
}

impl Report {
    /// An empty report.
    pub fn new(name: impl Into<String>, title: impl Into<String>) -> Report {
        Report {
            name: name.into(),
            title: title.into(),
            sections: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a section.
    pub fn section(&mut self, heading: Option<&str>, table: ExperimentTable) {
        self.sections.push(Section {
            heading: heading.map(str::to_string),
            table,
        });
    }

    /// Appends a trailing note paragraph.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Text renderer: byte-compatible with the pre-harness binary
    /// output (title, `== heading ==` sections, aligned tables, note
    /// paragraphs).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.title);
        out.push_str("\n\n");
        for s in &self.sections {
            if let Some(h) = &s.heading {
                out.push_str(&format!("== {h} ==\n"));
            }
            out.push_str(&s.table.render_text());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(n);
            out.push('\n');
        }
        out
    }

    /// CSV renderer: one block per section, preceded by `# name/heading`
    /// comment lines; cells render exactly as in the text output.
    pub fn render_csv(&self) -> String {
        let esc = |s: &str| -> String {
            if s.contains([',', '"', '\n']) {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = format!("# {}\n", self.title);
        for s in &self.sections {
            if let Some(h) = &s.heading {
                out.push_str(&format!("# {h}\n"));
            }
            let headers: Vec<String> = s.table.headers.iter().map(|h| esc(h)).collect();
            out.push_str(&headers.join(","));
            out.push('\n');
            for r in &s.table.rows {
                let cells: Vec<String> = r.cells.iter().map(|c| esc(&c.render())).collect();
                out.push_str(&cells.join(","));
                out.push('\n');
            }
        }
        out
    }
}

/// Minimal fixed-width table printer — the text renderer's core.
#[derive(Debug, Default)]
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TablePrinter {
        TablePrinter {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics on a width mismatch.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                // Right-align numeric-looking cells, left-align names.
                if i == 0 {
                    line.push_str(&format!("{:<w$}", cell, w = widths[i]));
                } else {
                    line.push_str(&format!("{:>w$}", cell, w = widths[i]));
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Geometric mean of a slice (the paper reports GM rows); 0 for empty
/// input.
pub fn geo_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geo_mean_basics() {
        assert!((geo_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geo_mean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geo_mean(&[]), 0.0);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TablePrinter::new(vec!["name", "value"]);
        t.row(vec!["alpha", "1"]);
        t.row(vec!["b", "12345"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(lines[3].ends_with("12345"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TablePrinter::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }

    #[test]
    fn cells_render_paper_formats() {
        assert_eq!(Cell::Pct(0.856).render(), "86%");
        assert_eq!(Cell::Pct1(0.8567).render(), "85.7%");
        assert_eq!(Cell::Fixed(1.0567, 3).render(), "1.057");
        assert_eq!(Cell::Millions(2_330_000).render(), "2.33M");
        assert_eq!(Cell::Count(42).render(), "42");
        assert_eq!(Cell::Dash.render(), "-");
        assert_eq!(Cell::Empty.render(), "");
        assert_eq!(Cell::text("GM").to_string(), "GM");
    }

    #[test]
    fn report_text_layout_matches_legacy_binaries() {
        let mut r = Report::new("demo", "Demo: a title");
        let mut t = ExperimentTable::new(vec!["benchmark", "value"]);
        t.row(vec![Cell::text("quick"), Cell::Fixed(1.5, 3)]);
        r.section(Some("panel A"), t);
        r.note("Trailing note.");
        let s = r.render_text();
        assert_eq!(
            s,
            "Demo: a title\n\n\
             == panel A ==\n\
             benchmark  value\n\
             ----------------\n\
             quick      1.500\n\
             \n\
             Trailing note.\n"
        );
    }

    #[test]
    fn csv_renderer_escapes_and_flattens() {
        let mut r = Report::new("demo", "Demo");
        let mut t = ExperimentTable::new(vec!["a", "b"]);
        t.row(vec![Cell::text("x,y"), Cell::Count(1)]);
        r.section(None, t);
        let csv = r.render_csv();
        assert!(csv.contains("\"x,y\",1"), "{csv}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn experiment_table_rejects_ragged_rows() {
        let mut t = ExperimentTable::new(vec!["a", "b"]);
        t.row(vec![Cell::Dash]);
    }
}
