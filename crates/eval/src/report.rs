//! Report rendering: aligned text tables (the experiment binaries print
//! the same rows the paper's tables report) and CSV. Machine-readable
//! records are built as [`milo_obs::json::JsonValue`]s.

use std::fmt::Write as _;

/// A simple column-aligned table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self { headers: headers.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row; short rows are padded with empty cells.
    pub fn push_row<S: Into<String>>(&mut self, row: impl IntoIterator<Item = S>) {
        let mut cells: Vec<String> = row.into_iter().map(Into::into).collect();
        while cells.len() < self.headers.len() {
            cells.push(String::new());
        }
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Renders the table with aligned columns and a separator line.
    pub fn render(&self) -> String {
        let n_cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().take(n_cols).enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let render_row = |cells: &[String], out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let empty = String::new();
                let cell = cells.get(i).unwrap_or(&empty);
                let _ = write!(out, "{cell:<w$}");
                if i + 1 < n_cols {
                    out.push_str("  ");
                }
            }
            out.push('\n');
        };
        render_row(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (n_cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &mut out);
        }
        out
    }

    /// Renders the table as CSV (naive quoting: commas in cells are
    /// wrapped in double quotes).
    pub fn to_csv(&self) -> String {
        let quote = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(["method", "ppl"]);
        t.push_row(["RTN", "4.81"]);
        t.push_row(["MiLo-s1", "4.03"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("method"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].starts_with("RTN    "));
        assert_eq!(t.n_rows(), 2);
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.push_row(["1"]);
        assert!(t.render().contains('1'));
    }

    #[test]
    fn csv_quotes_commas() {
        let mut t = Table::new(["name", "note"]);
        t.push_row(["x", "a,b"]);
        assert!(t.to_csv().contains("\"a,b\""));
    }
}
