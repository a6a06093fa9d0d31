//! Shared report emission: the workspace JSON value model (re-exported
//! from `amc-config`) and an aligned text-table builder.
//!
//! Every machine-readable artifact the repro binary writes
//! (`BENCH_campaign_*.json`, `BENCH_lifetime.json`) goes through
//! [`Json`] instead of hand-rolled `format!` string concatenation, so
//! escaping, nesting, and number formatting are implemented once. The
//! value model used to live here; it is now `amc-config`'s — the same
//! type campaign files parse into — re-exported under its historical
//! path so report-building code is unchanged while gaining
//! [`Json::parse`] and the `ToConfig` / `FromConfig` machinery.

use std::fmt::Write as _;

pub use amc_config::{write_json, Json};

/// An aligned plain-text table: first column left-aligned, the rest
/// right-aligned, widths fitted to content.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(headers: impl IntoIterator<Item = impl Into<String>>) -> Self {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row(&mut self, cells: impl IntoIterator<Item = impl Into<String>>) -> &mut Self {
        self.rows.push(cells.into_iter().map(Into::into).collect());
        self
    }

    /// Renders the table with a separator under the header.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain([self.headers.len()])
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let measure = |widths: &mut Vec<usize>, cells: &[String]| {
            for (k, c) in cells.iter().enumerate() {
                widths[k] = widths[k].max(c.chars().count());
            }
        };
        measure(&mut widths, &self.headers);
        for r in &self.rows {
            measure(&mut widths, r);
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (k, w) in widths.iter().enumerate() {
                let cell = cells.get(k).map(String::as_str).unwrap_or("");
                if k > 0 {
                    out.push_str("  ");
                }
                if k == 0 {
                    let _ = write!(out, "{cell:<w$}");
                } else {
                    let _ = write!(out, "{cell:>w$}");
                }
            }
            // Trailing pad spaces from the left-aligned last column.
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            render_row(&mut out, r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Int(-3).render(), "-3\n");
        assert_eq!(Json::Num(0.5).render(), "0.5\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::from(None::<f64>).render(), "null\n");
        assert_eq!(Json::Num(1e-9).render(), "1e-9\n");
    }

    #[test]
    fn json_strings_are_escaped() {
        let s = Json::Str("a\"b\\c\nd\u{1}".to_string());
        assert_eq!(s.render(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn json_structures_nest_with_indentation() {
        let v = Json::obj([
            ("name", Json::from("x")),
            ("vals", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("empty", Json::Arr(vec![])),
            ("nested", Json::obj([("k", Json::Bool(false))])),
        ]);
        let text = v.render();
        assert_eq!(
            text,
            "{\n  \"name\": \"x\",\n  \"vals\": [\n    1,\n    2\n  ],\n  \
             \"empty\": [],\n  \"nested\": {\n    \"k\": false\n  }\n}\n"
        );
    }

    #[test]
    fn json_numbers_round_trip_textually() {
        // `{:?}` keeps full precision: parsing the text back yields the
        // same bits.
        for x in [0.1, 1.0 / 3.0, 6.02e23, -1.6e-19] {
            let text = format!("{x:?}");
            assert_eq!(text.parse::<f64>().unwrap(), x);
        }
    }

    #[test]
    fn text_table_aligns_columns() {
        let mut t = TextTable::new(["name", "n", "err"]);
        t.row(["wishart", "64", "0.05"]);
        t.row(["poisson2d", "256", "0.1"]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        assert!(lines[2].contains("wishart"));
        // Numeric columns right-aligned: "64" under "n" ends where "256" ends.
        let n_end_2 = lines[2].find("64").unwrap() + 2;
        let n_end_3 = lines[3].find("256").unwrap() + 3;
        assert_eq!(n_end_2, n_end_3);
    }
}
