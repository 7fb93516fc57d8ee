//! The one result shape every experiment returns.
//!
//! A [`Report`] is built once — a title stating the run's parameters,
//! typed columns, rows of [`Cell`]s, named scalars and closing notes —
//! and renders both ways: [`Report::table`] is the aligned text a person
//! reads, [`Report::json`] the block a script reads. A cell carries the
//! measured value and the text the table shows for it, so the two
//! renderings cannot drift apart.

use serde_json::Value;

use crate::table::{fmt_secs, fmt_speedup, render};

/// One column: a table header, a JSON key, or both. A key may be a
/// dotted path (`"measured.interp"`) into nested objects.
#[derive(Debug, Clone, Copy)]
pub struct Column {
    /// Header in the text table; `None` keeps the column out of it.
    pub header: Option<&'static str>,
    /// Key in each row's JSON object; `None` keeps the column out of it.
    pub key: Option<&'static str>,
}

/// A column in both renderings.
pub fn col(header: &'static str, key: &'static str) -> Column {
    Column {
        header: Some(header),
        key: Some(key),
    }
}

/// A column only the text table shows.
pub fn shown(header: &'static str) -> Column {
    Column {
        header: Some(header),
        key: None,
    }
}

/// A column only the JSON carries.
pub fn keyed(key: &'static str) -> Column {
    Column {
        header: None,
        key: Some(key),
    }
}

/// One measured cell: the value the JSON carries and the text the table
/// shows for it.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub value: Value,
    pub text: String,
}

impl Cell {
    /// A value with its own rendering (`Cell::new(0.42, "42%".into())`).
    pub fn new(value: impl Into<Value>, text: String) -> Cell {
        Cell {
            value: value.into(),
            text,
        }
    }

    /// A label.
    pub fn text(s: impl Into<String>) -> Cell {
        let text = s.into();
        Cell::new(text.clone(), text)
    }

    /// A count.
    pub fn int(n: usize) -> Cell {
        Cell::new(n, n.to_string())
    }

    /// A duration in seconds, shown as µs/ms/s.
    pub fn secs(s: f64) -> Cell {
        Cell::new(s, fmt_secs(s))
    }

    /// A speedup factor, shown as `3.2×`.
    pub fn speedup(x: f64) -> Cell {
        Cell::new(x, fmt_speedup(x))
    }

    /// A ratio, shown to two decimals.
    pub fn ratio(x: f64) -> Cell {
        Cell::new(x, format!("{x:.2}"))
    }

    /// A measurement that was not taken (`null` / `—`).
    pub fn missing() -> Cell {
        Cell::new(Value::Null, "—".to_string())
    }
}

/// What one experiment measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The experiment's JSON key (`"table1"`, `"ablation_atomics"`).
    pub name: &'static str,
    /// Heading line: what was run, at which parameters.
    pub title: String,
    pub columns: Vec<Column>,
    /// One cell per column, in column order.
    pub rows: Vec<Vec<Cell>>,
    /// Named results outside the rows, keyed by a dotted JSON path from
    /// the document root (`"roofline.bytes_per_edge"`).
    pub scalars: Vec<(&'static str, Value)>,
    /// Lines printed under the table.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(name: &'static str, title: String, columns: Vec<Column>) -> Report {
        Report {
            name,
            title,
            columns,
            rows: Vec::new(),
            scalars: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    pub fn scalar(&mut self, path: &'static str, value: impl Into<Value>) {
        self.scalars.push((path, value.into()));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Title, aligned table of the shown columns, notes.
    pub fn table(&self) -> String {
        let header: Vec<&str> = self.columns.iter().filter_map(|c| c.header).collect();
        let shown = |row: &Vec<Cell>| -> Vec<String> {
            let cells = self.columns.iter().zip(row);
            cells
                .filter(|(column, _)| column.header.is_some())
                .map(|(_, cell)| cell.text.clone())
                .collect()
        };
        let rows: Vec<Vec<String>> = self.rows.iter().map(shown).collect();
        let mut out = format!("{}\n\n{}", self.title, render(&header, &rows));
        for note in &self.notes {
            out.push_str(note);
            out.push('\n');
        }
        out
    }

    /// `{ name: [one object per row] }` when any column has a key, plus
    /// every scalar at its path.
    pub fn json(&self) -> Value {
        let mut root = Vec::new();
        if self.columns.iter().any(|c| c.key.is_some()) {
            let rows = self.rows.iter().map(|row| {
                let mut object = Vec::new();
                for (column, cell) in self.columns.iter().zip(row) {
                    if let Some(key) = column.key {
                        insert_path(&mut object, key, cell.value.clone());
                    }
                }
                Value::Object(object)
            });
            root.push((self.name.to_string(), Value::Array(rows.collect())));
        }
        for (path, value) in &self.scalars {
            insert_path(&mut root, path, value.clone());
        }
        Value::Object(root)
    }
}

/// Set `object[a][b]…` for the dotted `path` `"a.b…"`, creating the
/// intermediate objects in first-use order.
fn insert_path(object: &mut Vec<(String, Value)>, path: &str, value: Value) {
    let Some((head, rest)) = path.split_once('.') else {
        object.push((path.to_string(), value));
        return;
    };
    let at = object
        .iter()
        .position(|(k, _)| k == head)
        .unwrap_or_else(|| {
            object.push((head.to_string(), Value::Object(Vec::new())));
            object.len() - 1
        });
    match &mut object[at].1 {
        Value::Object(inner) => insert_path(inner, rest, value),
        other => panic!("{head:?} in {path:?} is already the non-object {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new(
            "demo",
            "Demo — 2 rows".to_string(),
            vec![
                col("Graph", "graph"),
                keyed("paper.secs"),
                col("Runtime", "measured.secs"),
                shown("Speedup"),
            ],
        );
        r.push(vec![
            Cell::text("a"),
            Cell::secs(2.0),
            Cell::secs(0.5),
            Cell::speedup(4.0),
        ]);
        r.push(vec![
            Cell::text("b"),
            Cell::secs(3.0),
            Cell::missing(),
            Cell::missing(),
        ]);
        r.scalar("roofline.bytes_per_edge", 32.0);
        r.note("a note".to_string());
        r
    }

    #[test]
    fn table_shows_only_headed_columns() {
        let t = sample().table();
        assert!(t.starts_with("Demo — 2 rows\n\n+"));
        assert!(t.contains("| Graph | Runtime  | Speedup |"), "{t}");
        assert!(t.contains("| a     | 500.00ms | 4.0×    |"), "{t}");
        assert!(t.contains("| b     | —        | —       |"), "{t}");
        assert!(t.ends_with("a note\n"));
    }

    #[test]
    fn json_nests_dotted_keys_and_skips_unkeyed_columns() {
        let j = sample().json();
        assert_eq!(j["demo"][0]["graph"].as_str(), Some("a"));
        assert_eq!(j["demo"][0]["paper"]["secs"].as_f64(), Some(2.0));
        assert_eq!(j["demo"][0]["measured"]["secs"].as_f64(), Some(0.5));
        assert!(j["demo"][1]["measured"]["secs"].is_null());
        assert_eq!(j["demo"][0].get("Speedup"), None);
        assert_eq!(j["roofline"]["bytes_per_edge"].as_f64(), Some(32.0));
    }

    #[test]
    fn scalars_alone_make_the_document() {
        let mut r = Report::new("solo", String::new(), vec![shown("Mode")]);
        r.push(vec![Cell::text("x")]);
        r.scalar("solo.seconds", 1.5);
        r.scalar("solo.exact", true);
        let j = r.json();
        assert_eq!(j["solo"]["seconds"].as_f64(), Some(1.5));
        assert_eq!(j["solo"]["exact"].as_bool(), Some(true));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn push_checks_the_row_width() {
        sample().push(vec![Cell::int(1)]);
    }
}
