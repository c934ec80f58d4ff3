//! Aligned text tables in the style of the paper's result tables.

use std::fmt::Write as _;

/// A simple column-aligned text table with a title row, used by the
/// experiment harness binaries to print each reproduced table.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header width.
    pub fn row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.iter().map(|s| s.to_string()).collect());
    }

    /// Appends a row of already-owned cells.
    pub fn row_owned(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Cell accessor for tests (`row`, `col` zero-based).
    pub fn cell(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Renders the table with space-padded, left-aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.title);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        let _ = writeln!(out, "{}", "=".repeat(total.max(self.title.len())));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:width$}", cell, width = widths[i]);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", fmt_row(&self.header));
        let _ = writeln!(out, "{}", "-".repeat(total.max(self.title.len())));
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row));
        }
        out
    }
}

/// Formats a count the way the paper's Table 4 does: `a.bc × 10^e`
/// scientific notation with two fractional digits.
pub fn sci(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let e = v.abs().log10().floor() as i32;
    let mantissa = v / 10f64.powi(e);
    format!("{mantissa:.2}e{e}")
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("Table X", &["Graph", "Value"]);
        t.row(&["tiny", "1"]);
        t.row(&["a-much-longer-name", "123456"]);
        let s = t.render();
        assert!(s.contains("Table X"));
        assert!(s.contains("Graph"));
        let lines: Vec<&str> = s.lines().collect();
        // Rows after the separator align the second column.
        let h_pos = lines[2].find("Value").unwrap();
        let r1_pos = lines[4].find('1').unwrap();
        assert_eq!(h_pos, r1_pos);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_wrong_width() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["only-one"]);
    }

    #[test]
    fn cell_access() {
        let mut t = Table::new("t", &["a"]);
        t.row_owned(vec!["v".to_string()]);
        assert_eq!(t.cell(0, 0), "v");
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn sci_format() {
        assert_eq!(sci(0.0), "0");
        assert_eq!(sci(1_050_000.0), "1.05e6");
        assert_eq!(sci(65_500.0), "6.55e4");
        assert_eq!(sci(2.0), "2.00e0");
    }

    #[test]
    fn empty_table_renders() {
        let t = Table::new("empty", &["a", "b"]);
        let s = t.render();
        assert!(s.contains("empty"));
        assert_eq!(t.num_rows(), 0);
    }
}
