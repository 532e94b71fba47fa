/// A titled, column-aligned table with text and CSV renderers.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// The column headers, in order.
    pub fn column_names(&self) -> &[String] {
        &self.columns
    }

    /// The data rows as raw cells (each row padded to the column count).
    pub fn rows_as_cells(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Appends a row. Shorter rows are padded with empty cells.
    ///
    /// # Panics
    ///
    /// Panics if the row has more cells than the table has columns.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(
            row.len() <= self.columns.len(),
            "row has {} cells but the table has {} columns",
            row.len(),
            self.columns.len()
        );
        row.resize(self.columns.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Renders the table as aligned text with a title line.
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str("== ");
        out.push_str(&self.title);
        out.push_str(" ==\n");
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                // Right-align numeric-looking cells, left-align the rest.
                if looks_numeric(cell) {
                    line.push_str(&format!("{cell:>width$}", width = widths[i]));
                } else {
                    line.push_str(&format!("{cell:<width$}", width = widths[i]));
                }
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.columns));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV (header row first).
    pub fn render_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Renders the table as GitHub-flavored Markdown.
    #[cfg(test)]
    fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("**{}**\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

fn looks_numeric(cell: &str) -> bool {
    if cell.is_empty() {
        return false;
    }
    if let Some(hex) = cell.strip_prefix("0x") {
        return !hex.is_empty() && hex.chars().all(|c| c.is_ascii_hexdigit());
    }
    cell.chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | '%' | 'x' | 'e'))
        && cell.chars().any(|c| c.is_ascii_digit())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("t", &["name", "value"]);
        t.row(["alpha", "1.50"]);
        t.row(["b", "10.25"]);
        t
    }

    #[test]
    fn text_alignment() {
        let text = sample().render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "== t ==");
        // Numbers right-aligned under the value column.
        assert!(lines[3].ends_with(" 1.50"));
        assert!(lines[4].ends_with("10.25"));
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(["x,y", "quo\"te"]);
        let csv = t.render_csv();
        assert_eq!(csv, "a,b\n\"x,y\",\"quo\"\"te\"\n");
    }

    #[test]
    fn markdown_shape() {
        let md = sample().render_markdown();
        assert!(md.contains("| name | value |"));
        assert!(md.contains("|---|---|"));
    }

    #[test]
    fn short_rows_padded() {
        let mut t = Table::new("t", &["a", "b", "c"]);
        t.row(["only"]);
        assert_eq!(t.len(), 1);
        assert!(t.render_csv().contains("only,,"));
    }

    #[test]
    #[should_panic(expected = "row has 3 cells")]
    fn long_rows_rejected() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(["1", "2", "3"]);
    }

    #[test]
    fn empty_table() {
        let t = Table::new("t", &["a"]);
        assert!(t.is_empty());
        assert_eq!(t.render_csv(), "a\n");
    }
}
