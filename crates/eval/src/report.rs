//! Report rendering: aligned text tables (the experiment binaries print
//! the same rows the paper's tables report). Machine-readable records
//! are built as [`milo_obs::json::JsonValue`]s.

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
        assert_eq!(lines.len(), 4, "header, separator and two rows");
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(["a", "b", "c"]);
        t.push_row(["1"]);
        assert!(t.render().contains('1'));
    }
}
