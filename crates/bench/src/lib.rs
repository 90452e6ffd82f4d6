//! # tac25d-bench
//!
//! The experiment harness of the `tac25d` reproduction: one binary per
//! paper figure/table (see DESIGN.md §3 for the index) plus shared
//! reporting utilities. Each binary prints the paper's rows/series as an
//! aligned table on stdout and writes a CSV under `results/` (under
//! `results/fast/` for a `--fast` run).
//!
//! Run an experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p tac25d-bench --bin fig5
//! ```
//!
//! Most binaries accept `--fast` (coarser thermal grid / lattice, for smoke
//! runs) and `--benchmark <name>` filters where meaningful.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;

pub mod fig8bench;
pub mod runner;
pub mod sink;

use sink::RenderedReport;

/// A simple aligned-table + CSV reporter.
///
/// # Examples
///
/// ```no_run
/// use tac25d_bench::Report;
///
/// let mut r = Report::new("demo", &["x", "y"]);
/// r.row(&["1".into(), "2".into()]);
/// r.finish().unwrap();
/// ```
pub struct Report {
    name: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Report {
    /// Creates a report named `name` (also the CSV file stem) with the
    /// given column headers.
    pub fn new(name: &str, header: &[&str]) -> Self {
        Report {
            name: name.to_owned(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} != header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells.to_vec());
    }

    /// Emits the report through every default sink: the aligned stdout
    /// table, `<results_dir>/<name>.csv`, the `TAC25D_TRACE` stdout block, and
    /// the obs profile/JSONL stream (see [`sink`]).
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the sinks.
    ///
    /// # Panics
    ///
    /// Panics if no sink produced an output path (the CSV sink always
    /// does).
    pub fn finish(self) -> std::io::Result<PathBuf> {
        let rendered = RenderedReport {
            name: self.name,
            header: self.header,
            rows: self.rows,
        };
        let mut path = None;
        for s in sink::default_sinks() {
            if let Some(p) = s.emit(&rendered)? {
                path = Some(p);
            }
        }
        Ok(path.expect("CsvFileSink produces a path"))
    }
}

/// True when `TAC25D_TRACE=1`: [`Report::finish`] additionally emits the
/// raw CSV between `---BEGIN/END TRACE---` markers on stdout, so every
/// bench binary doubles as a machine-readable trace producer (the
/// golden-trace harness in `crates/verify` consumes these). The env var is
/// read once and cached.
pub fn trace_enabled() -> bool {
    static TRACE: OnceLock<bool> = OnceLock::new();
    *TRACE.get_or_init(|| std::env::var("TAC25D_TRACE").is_ok_and(|v| v == "1"))
}

/// The workspace root (two levels above this crate), or the current
/// directory when it cannot be located.
pub(crate) fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// `TAC25D_RESULTS_DIR` when it is set and non-empty: the golden-trace and
/// obs harnesses redirect every output of a run into a scratch directory
/// this way, so their runs never touch the committed files.
pub(crate) fn results_redirect() -> Option<PathBuf> {
    std::env::var("TAC25D_RESULTS_DIR")
        .ok()
        .filter(|d| !d.is_empty())
        .map(PathBuf::from)
}

/// Where the obs profile document goes: `BENCH_profile.json` inside the
/// `TAC25D_RESULTS_DIR` directory when set, otherwise at the workspace root where
/// the perf trajectory expects `BENCH_*.json` files.
pub fn profile_output_path() -> PathBuf {
    results_redirect()
        .unwrap_or_else(workspace_root)
        .join("BENCH_profile.json")
}

/// The running binary's file stem (`fig8`, `tab2`, …) for profile
/// labelling; `"unknown"` when the executable path is unavailable.
pub fn bin_name() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The stdout marker opening the trace block of report `name`.
pub fn trace_begin(name: &str) -> String {
    format!("---BEGIN TRACE {name}---")
}

/// The stdout marker closing the trace block of report `name`.
pub fn trace_end(name: &str) -> String {
    format!("---END TRACE {name}---")
}

/// Renders one CSV record, quoting cells that contain commas or quotes.
pub fn csv_line(cells: &[String]) -> String {
    cells
        .iter()
        .map(|c| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.clone()
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// The CSV output directory: the `TAC25D_RESULTS_DIR` directory when set,
/// otherwise `results/` at the workspace root, or `results/fast/` for a
/// `--fast` run so a smoke run never overwrites the committed full-spec
/// CSVs.
pub fn results_dir() -> PathBuf {
    results_dir_for(results_redirect(), fast_flag())
}

fn results_dir_for(redirect: Option<PathBuf>, fast: bool) -> PathBuf {
    match redirect {
        Some(dir) => dir,
        None if fast => workspace_root().join("results").join("fast"),
        None => workspace_root().join("results"),
    }
}

/// Formats a float with the given number of decimals.
pub fn fmt(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// True when `--fast` was passed on the command line.
pub fn fast_flag() -> bool {
    std::env::args().any(|a| a == "--fast")
}

/// The value following `--benchmark`, if any.
pub fn benchmark_filter() -> Option<String> {
    arg_value("--benchmark")
}

/// The value following a `--flag`, if any.
pub fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.windows(2).find(|w| w[0] == flag).map(|w| w[1].clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_rounds() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(-0.5, 0), "-0");
    }

    #[test]
    fn csv_line_quotes_only_when_needed() {
        let cells = [
            "plain".to_owned(),
            "a,b".to_owned(),
            "say \"hi\"".to_owned(),
        ];
        assert_eq!(csv_line(&cells), "plain,\"a,b\",\"say \"\"hi\"\"\"");
    }

    #[test]
    fn results_dir_is_workspace_relative() {
        let d = results_dir();
        assert!(d.ends_with("results"));
    }

    #[test]
    fn fast_runs_write_beside_the_committed_results() {
        let root = workspace_root();
        assert_eq!(results_dir_for(None, false), root.join("results"));
        assert_eq!(results_dir_for(None, true), root.join("results/fast"));
        // The harness redirect wins in both modes.
        for fast in [false, true] {
            let scratch = PathBuf::from("out/redirected");
            assert_eq!(results_dir_for(Some(scratch.clone()), fast), scratch);
        }
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut r = Report::new("x", &["a", "b"]);
        r.row(&["1".into()]);
    }
}
