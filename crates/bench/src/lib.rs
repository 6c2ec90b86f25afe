//! # fuzzy-bench
//!
//! Experiment harness regenerating every figure and the Sec.-8 measurement
//! of Gupta's fuzzy-barrier paper. Each binary in `src/bin/` reproduces
//! one artifact (see `DESIGN.md`'s experiment index); this library holds
//! the shared table/CSV formatting and timing utilities.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod schema;

use fuzzy_util::Json;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// A simple aligned text table for experiment output.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn row<S: Display, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        self.rows
            .push(cells.into_iter().map(|c| c.to_string()).collect());
        self
    }

    /// Renders the table with aligned columns.
    #[must_use]
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let w = widths.get(i).copied().unwrap_or(cell.len());
                line.push_str(&format!("{cell:>w$}"));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1))));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
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

    /// Renders the table as a JSON array of row objects keyed by header.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.rows
                .iter()
                .map(|row| {
                    let mut obj = Json::obj();
                    for (h, cell) in self.headers.iter().zip(row) {
                        // Numeric cells export as numbers so downstream
                        // tooling need not re-parse strings.
                        let value = match cell.parse::<f64>() {
                            Ok(x) if x.is_finite() => Json::Num(x),
                            _ => Json::Str(cell.clone()),
                        };
                        obj = obj.field(h, value);
                    }
                    obj
                })
                .collect(),
        )
    }
}

/// Extracts the `--stats-json <path>` (or `--stats-json=<path>`) argument
/// from an argument iterator. Returns `None` when absent.
pub fn stats_json_arg<I: IntoIterator<Item = String>>(args: I) -> Option<PathBuf> {
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        if a == "--stats-json" {
            return args.next().map(PathBuf::from);
        }
        if let Some(path) = a.strip_prefix("--stats-json=") {
            return Some(PathBuf::from(path));
        }
    }
    None
}

/// Convenience: `stats_json_arg` over the process's own arguments.
#[must_use]
pub fn stats_json_arg_from_env() -> Option<PathBuf> {
    stats_json_arg(std::env::args().skip(1))
}

/// Reads the `[--quick] [--stats-json <path>]` command line of a sweep
/// binary and returns whether `--quick` was given. `--help`, an unknown
/// argument or a `--stats-json` without its path prints the usage line and
/// exits 2; the path itself is read again by [`StatsExport::from_env`].
#[must_use]
pub fn quick_arg(bin: &str) -> bool {
    fn usage(bin: &str) -> ! {
        eprintln!("usage: {bin} [--quick] [--stats-json <path>]");
        std::process::exit(2);
    }
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--stats-json" => {
                if args.next().is_none() {
                    usage(bin);
                }
            }
            other if other.starts_with("--stats-json=") => {}
            "--help" | "-h" => usage(bin),
            other => {
                eprintln!("{bin}: unknown argument {other:?}");
                usage(bin);
            }
        }
    }
    quick
}

/// Accumulates the machine-readable output of one experiment run and
/// writes it to the `--stats-json` path, if one was given.
///
/// Every `exp_*` binary builds one of these from its environment; when the
/// flag is absent all recording calls are cheap no-ops, so the human
/// output is unchanged.
#[derive(Debug)]
pub struct StatsExport {
    experiment: String,
    sections: Vec<(String, Json)>,
    path: Option<PathBuf>,
}

impl StatsExport {
    /// Creates an export sink for `experiment`, reading `--stats-json`
    /// from the process arguments.
    #[must_use]
    pub fn from_env(experiment: &str) -> Self {
        Self::to_path(experiment, stats_json_arg_from_env())
    }

    /// Creates an export sink writing to an explicit path (`None`
    /// disables recording entirely).
    #[must_use]
    pub fn to_path(experiment: &str, path: Option<PathBuf>) -> Self {
        StatsExport {
            experiment: experiment.to_string(),
            sections: Vec::new(),
            path,
        }
    }

    /// Whether a `--stats-json` path was supplied.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.path.is_some()
    }

    /// Records a named JSON section (no-op when disabled).
    pub fn section(&mut self, name: &str, json: Json) {
        if self.path.is_some() {
            self.sections.push((name.to_string(), json));
        }
    }

    /// Records a table as a named section of row objects.
    pub fn table(&mut self, name: &str, t: &Table) {
        if self.path.is_some() {
            self.section(name, t.to_json());
        }
    }

    /// Writes the accumulated document, if a path was supplied.
    ///
    /// An experiment explicitly asked to export stats must not silently
    /// drop them, so an unwritable path (including an empty
    /// `--stats-json=`) terminates the process with a diagnostic rather
    /// than letting the run look successful.
    pub fn finish(self) {
        let Some(path) = self.path else { return };
        let mut doc = Json::obj().field("experiment", self.experiment.as_str());
        for (name, json) in self.sections {
            doc = doc.field(&name, json);
        }
        if let Err(e) = write_json(&path, &doc) {
            eprintln!("stats export: cannot write `{}`: {e}", path.display());
            std::process::exit(1);
        }
        println!("stats written to {}", path.display());
    }
}

/// Writes a JSON document to `path` (pretty-printed, trailing newline),
/// creating parent directories as needed.
///
/// # Errors
///
/// Propagates filesystem errors from directory creation or the write.
pub fn write_json(path: &Path, json: &Json) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let mut text = json.to_string_pretty();
    text.push('\n');
    std::fs::write(path, text)
}

/// Prints an experiment banner.
pub fn banner(title: &str, paper_ref: &str) {
    println!("{}", "=".repeat(72));
    println!("{title}");
    println!("(reproduces {paper_ref})");
    println!("{}", "=".repeat(72));
}

/// Formats a duration as microseconds with two decimals.
#[must_use]
pub fn micros(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e6)
}

/// Ratio `a / b`, formatted as e.g. `12.3x`; `inf` when `b` is zero.
#[must_use]
pub fn speedup(a: f64, b: f64) -> String {
    if b == 0.0 {
        "inf".to_string()
    } else {
        format!("{:.1}x", a / b)
    }
}

/// Median of a sample (consumes and sorts it). Returns zero duration for
/// an empty sample.
#[must_use]
pub fn median(mut samples: Vec<Duration>) -> Duration {
    if samples.is_empty() {
        return Duration::ZERO;
    }
    samples.sort_unstable();
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "22222"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("    1"));
    }

    #[test]
    fn csv_is_plain() {
        let mut t = Table::new(["a", "b"]);
        t.row(["1", "2"]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
    }

    #[test]
    fn table_to_json_types_cells() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1.5"]);
        let j = t.to_json();
        let row = &j.as_arr().unwrap()[0];
        assert_eq!(row.get("name"), Some(&Json::Str("alpha".into())));
        assert_eq!(row.get("value").and_then(Json::as_f64), Some(1.5));
    }

    #[test]
    fn stats_json_arg_forms() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            stats_json_arg(args(&["--stats-json", "out.json"])),
            Some(PathBuf::from("out.json"))
        );
        assert_eq!(
            stats_json_arg(args(&["x", "--stats-json=a/b.json"])),
            Some(PathBuf::from("a/b.json"))
        );
        assert_eq!(stats_json_arg(args(&["--stats-json"])), None);
        assert_eq!(stats_json_arg(args(&["--other"])), None);
    }

    #[test]
    fn stats_export_writes_named_sections() {
        let dir = std::env::temp_dir().join("fuzzy_bench_export_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("stats.json");
        let mut export = StatsExport::to_path("demo", Some(path.clone()));
        assert!(export.enabled());
        let mut t = Table::new(["x"]);
        t.row(["7"]);
        export.table("sweep", &t);
        export.section("extra", Json::obj().field("k", 1u64));
        export.finish();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"experiment\": \"demo\""));
        assert!(text.contains("\"sweep\""));
        assert!(text.contains("\"extra\""));
        let _ = std::fs::remove_dir_all(&dir);

        // Disabled sink records nothing and writes nothing.
        let mut off = StatsExport::to_path("demo", None);
        assert!(!off.enabled());
        off.section("s", Json::Null);
        off.finish();
    }

    #[test]
    fn write_json_creates_parents() {
        let dir = std::env::temp_dir().join("fuzzy_bench_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/stats.json");
        write_json(&path, &Json::obj().field("ok", true)).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with("}\n"));
        assert!(text.contains("\"ok\": true"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn helpers() {
        assert_eq!(micros(Duration::from_micros(1500)), "1500.00");
        assert_eq!(speedup(30.0, 3.0), "10.0x");
        assert_eq!(speedup(1.0, 0.0), "inf");
        assert_eq!(
            median(vec![
                Duration::from_secs(3),
                Duration::from_secs(1),
                Duration::from_secs(2)
            ]),
            Duration::from_secs(2)
        );
        assert_eq!(median(vec![]), Duration::ZERO);
    }
}
