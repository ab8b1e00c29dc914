//! Aligned-text + JSON experiment reports.

/// A tabular experiment result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which paper artifact this regenerates, e.g. "Figure 7 (Reuters)".
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells, already formatted.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (workload parameters, caveats).
    pub notes: Vec<String>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Self {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Appends a note line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Renders the aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(
            &"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Machine-readable form.
    pub fn to_json(&self) -> serde_json::Value {
        use serde_json::Value;
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("title".to_owned(), Value::from(self.title.clone()));
        obj.insert("headers".to_owned(), Value::from(self.headers.clone()));
        obj.insert(
            "rows".to_owned(),
            Value::Array(self.rows.iter().map(|r| Value::from(r.clone())).collect()),
        );
        obj.insert("notes".to_owned(), Value::from(self.notes.clone()));
        Value::Object(obj)
    }
}

/// Formats a float with 3 decimal places (quality metrics).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Formats a duration in ms with adaptive precision.
pub fn ms(v: f64) -> String {
    if v < 0.1 {
        format!("{v:.4}")
    } else if v < 10.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.1}")
    }
}

/// Formats a byte count as a human-readable size.
pub fn bytes(v: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut x = v as f64;
    let mut u = 0;
    while x >= 1024.0 && u < UNITS.len() - 1 {
        x /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{v} B")
    } else {
        format!("{x:.1} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new("Test", &["name", "value"]);
        r.push_row(vec!["a".into(), "1".into()]);
        r.push_row(vec!["longer".into(), "22".into()]);
        let text = r.render();
        assert!(text.contains("== Test =="));
        let lines: Vec<&str> = text.lines().collect();
        // title, header, rule, two rows
        assert_eq!(lines.len(), 5);
        assert!(lines[3].starts_with("a     ")); // padded to "longer"'s width
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut r = Report::new("T", &["a", "b"]);
        r.push_row(vec!["x".into()]);
    }

    #[test]
    fn json_round_trip() {
        let mut r = Report::new("T", &["a"]);
        r.push_row(vec!["1".into()]);
        r.push_note("n");
        let j = r.to_json();
        assert_eq!(j["title"], "T");
        assert_eq!(j["rows"][0][0], "1");
        assert_eq!(j["notes"][0], "n");
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(0.98765), "0.988");
        assert_eq!(ms(0.01234), "0.0123");
        assert_eq!(ms(1.234), "1.23");
        assert_eq!(ms(123.4), "123.4");
        assert_eq!(bytes(512), "512 B");
        assert_eq!(bytes(2048), "2.0 KiB");
        assert_eq!(bytes(3 * 1024 * 1024), "3.0 MiB");
    }
}
