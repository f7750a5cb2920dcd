//! Plain-text and markdown table rendering.
//!
//! The benchmark harness prints every paper table/figure as an aligned text
//! table (`paper vs measured` side by side); EXPERIMENTS.md is generated
//! from the same data via [`TextTable::render_markdown`].

use std::fmt::Write as _;

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    /// Left-aligned (default; text columns).
    Left,
    /// Right-aligned (numeric columns).
    Right,
    /// Centered.
    Center,
}

/// A simple table builder that renders to aligned ASCII or markdown.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    aligns: Vec<Align>,
    title: Option<String>,
}

impl TextTable {
    /// Start a table with the given column headers (all left-aligned).
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let aligns = vec![Align::Left; headers.len()];
        Self {
            headers,
            rows: Vec::new(),
            aligns,
            title: None,
        }
    }

    /// Set a title printed above the table.
    pub fn with_title<S: Into<String>>(mut self, title: S) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Set per-column alignment; missing entries default to [`Align::Left`].
    pub fn with_aligns(mut self, aligns: Vec<Align>) -> Self {
        for (i, a) in aligns.into_iter().enumerate() {
            if i < self.aligns.len() {
                self.aligns[i] = a;
            }
        }
        self
    }

    /// Append a row; it is padded or truncated to the header width.
    pub fn add_row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                w[i] = w[i].max(cell.chars().count());
            }
        }
        w
    }

    fn pad(cell: &str, width: usize, align: Align) -> String {
        let len = cell.chars().count();
        let gap = width.saturating_sub(len);
        match align {
            Align::Left => format!("{cell}{}", " ".repeat(gap)),
            Align::Right => format!("{}{cell}", " ".repeat(gap)),
            Align::Center => {
                let left = gap / 2;
                format!("{}{cell}{}", " ".repeat(left), " ".repeat(gap - left))
            }
        }
    }

    /// Render as an aligned ASCII table.
    pub fn render(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "{t}");
        }
        let sep: String = {
            let mut s = String::from("+");
            for w in &widths {
                s.push_str(&"-".repeat(w + 2));
                s.push('+');
            }
            s
        };
        let _ = writeln!(out, "{sep}");
        let mut header_line = String::from("|");
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(header_line, " {} |", Self::pad(h, widths[i], Align::Center));
        }
        let _ = writeln!(out, "{header_line}");
        let _ = writeln!(out, "{sep}");
        for row in &self.rows {
            let mut line = String::from("|");
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, " {} |", Self::pad(cell, widths[i], self.aligns[i]));
            }
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "{sep}");
        out
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "**{t}**\n");
        }
        let _ = writeln!(out, "| {} |", self.headers.join(" | "));
        let dashes: Vec<&str> = self
            .aligns
            .iter()
            .map(|a| match a {
                Align::Left => ":--",
                Align::Right => "--:",
                Align::Center => ":-:",
            })
            .collect();
        let _ = writeln!(out, "| {} |", dashes.join(" | "));
        for row in &self.rows {
            let _ = writeln!(out, "| {} |", row.join(" | "));
        }
        out
    }
}

/// Format an F-score the way the paper prints them (two decimals, `1.0`
/// stays `1.0`).
pub fn fmt_score(x: f64) -> String {
    if x.is_nan() {
        return "n/a".to_string();
    }
    let rounded = (x * 100.0).round() / 100.0;
    if (rounded - 1.0).abs() < f64::EPSILON {
        "1.0".to_string()
    } else {
        format!("{rounded:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_with_alignment() {
        let mut t =
            TextTable::new(vec!["name", "value"]).with_aligns(vec![Align::Left, Align::Right]);
        t.add_row(vec!["alpha", "1"]);
        t.add_row(vec!["b", "12345"]);
        let s = t.render();
        assert!(s.contains("| alpha |     1 |"), "got:\n{s}");
        assert!(s.contains("| b     | 12345 |"), "got:\n{s}");
    }

    #[test]
    fn rows_padded_to_header_width() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.add_row(vec!["only-one"]);
        assert_eq!(t.len(), 1);
        let s = t.render();
        assert!(s.contains("only-one"));
    }

    #[test]
    fn markdown_shape() {
        let mut t = TextTable::new(vec!["x", "y"]).with_aligns(vec![Align::Left, Align::Right]);
        t.add_row(vec!["1", "2"]);
        let md = t.render_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| x | y |");
        assert_eq!(lines[1], "| :-- | --: |");
        assert_eq!(lines[2], "| 1 | 2 |");
    }

    #[test]
    fn title_rendered() {
        let t = TextTable::new(vec!["h"]).with_title("Table 1: Rounding");
        assert!(t.render().starts_with("Table 1: Rounding"));
        assert!(t.render_markdown().starts_with("**Table 1: Rounding**"));
    }

    #[test]
    fn score_formatting() {
        assert_eq!(fmt_score(1.0), "1.0");
        assert_eq!(fmt_score(0.999), "1.0");
        assert_eq!(fmt_score(0.954), "0.95");
        assert_eq!(fmt_score(0.9549), "0.95");
        assert_eq!(fmt_score(f64::NAN), "n/a");
    }
}
