//! Golden-trace regression harness for the `crates/bench` binaries.
//!
//! Every bench binary writes its figure/table as CSV (and, under
//! `TAC25D_TRACE=1`, echoes the same records to stdout between trace
//! markers). This module pins those outputs: a manifest lists each binary
//! with its arguments, the CSV reports it produces and the numeric
//! tolerances its columns are held to. `verify golden` re-runs every
//! manifest entry with results redirected into a scratch directory
//! (`TAC25D_RESULTS_DIR`), then diffs cell-by-cell against the snapshots
//! under `tests/golden/`; `verify golden --bless` regenerates them.
//!
//! Cells that parse as numbers on both sides compare with
//! `|a − b| ≤ abs_tol + rel_tol · max(|a|, |b|)`; everything else must
//! match exactly. Columns named in `ignore_cols` (wall-clock artifacts
//! like speedup ratios) are skipped entirely.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One pinned bench binary run.
#[derive(Debug, Clone, Copy)]
pub struct GoldenSpec {
    /// The entry's snapshot directory under `tests/golden/`: the binary's
    /// name, unless the binary has more than one pinned run.
    pub name: &'static str,
    /// Binary name under `crates/bench/src/bin`.
    pub bin: &'static str,
    /// Arguments of the pinned run (seeds fixed, `--fast` where the full
    /// sweep would dominate CI time).
    pub args: &'static [&'static str],
    /// CSV report stems the run produces.
    pub reports: &'static [&'static str],
    /// Absolute tolerance for numeric cells.
    pub abs_tol: f64,
    /// Relative tolerance for numeric cells.
    pub rel_tol: f64,
    /// Column names excluded from comparison (wall-clock artifacts).
    pub ignore_cols: &'static [&'static str],
}

/// Default numeric tolerances: tight enough to catch any algorithmic
/// change, loose enough to absorb cross-platform libm noise in printed
/// 2-decimal values.
const ABS_TOL: f64 = 5e-3;
const REL_TOL: f64 = 1e-4;

const fn spec(
    bin: &'static str,
    args: &'static [&'static str],
    reports: &'static [&'static str],
) -> GoldenSpec {
    GoldenSpec {
        name: bin,
        bin,
        args,
        reports,
        abs_tol: ABS_TOL,
        rel_tol: REL_TOL,
        ignore_cols: &[],
    }
}

/// The pinned manifest. Entries must stay deterministic under the default
/// seed: anything order- or wall-clock-dependent either pins its seed,
/// ignores the offending column, or stays out.
pub fn manifest() -> Vec<GoldenSpec> {
    vec![
        spec("fig3a", &["--fast"], &["fig3a"]),
        spec("fig3b", &["--fast"], &["fig3b"]),
        spec("fig5", &["--fast"], &["fig5"]),
        spec("grid_convergence", &["--fast"], &["grid_convergence"]),
        spec("dimension_compare", &["--fast"], &["dimension_compare"]),
        spec("duty_cycle", &["--fast"], &["duty_cycle"]),
        spec("noc_performance", &["--fast"], &["noc_performance"]),
        spec("sprinting", &["--fast"], &["sprinting"]),
        spec("dtm_compare", &["--fast"], &["dtm_compare"]),
        spec("allocation_ablation", &["--fast"], &["allocation_ablation"]),
        spec("pdn_droop", &["--fast"], &["pdn_droop"]),
        spec("fig8", &["--fast"], &["fig8"]),
        // The full spec (grid 32, 0.5 mm lattice), which no `--fast` run
        // reaches: the grids disagree at the margin.
        GoldenSpec {
            name: "fig8_full",
            ..spec("fig8", &[], &["fig8"])
        },
        spec("fig6", &["--fast"], &["fig6"]),
        spec("fig7", &["--fast"], &["fig7"]),
        spec("reliability_gain", &["--fast"], &["reliability_gain"]),
    ]
}

/// Where the snapshots live: `tests/golden/` at the workspace root.
pub fn golden_dir() -> PathBuf {
    workspace_root().join("tests").join("golden")
}

/// The workspace root (two levels above this crate's manifest).
pub fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// The directory holding the compiled bench binaries: next to the running
/// `verify` binary (both live in the same cargo target profile dir).
///
/// # Errors
///
/// Io error when the current executable cannot be resolved.
pub fn bin_dir() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    Ok(exe
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from(".")))
}

/// The outcome of one manifest entry.
#[derive(Debug, Clone)]
pub struct GoldenOutcome {
    /// The entry's name ([`GoldenSpec::name`]).
    pub bin: String,
    /// Mismatch descriptions; empty means the entry passed.
    pub mismatches: Vec<String>,
    /// Whether snapshots were (re)written.
    pub blessed: bool,
}

impl GoldenOutcome {
    /// True when the entry matched its snapshots (or was just blessed).
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Runs one manifest entry and diffs (or blesses) its reports.
///
/// # Errors
///
/// Io errors from spawning the binary or reading/writing snapshots. A
/// failing diff is NOT an error — it is reported in the outcome.
pub fn run_spec(spec: &GoldenSpec, bless: bool) -> std::io::Result<GoldenOutcome> {
    let scratch = workspace_root()
        .join("target")
        .join("golden-scratch")
        .join(spec.name);
    if scratch.exists() {
        fs::remove_dir_all(&scratch)?;
    }
    fs::create_dir_all(&scratch)?;

    let bin_path = bin_dir()?.join(spec.bin);
    let output = Command::new(&bin_path)
        .args(spec.args)
        .env("TAC25D_RESULTS_DIR", &scratch)
        .env("TAC25D_TRACE", "1")
        .output()?;
    let mut mismatches = Vec::new();
    if !output.status.success() {
        mismatches.push(format!(
            "{} exited with {}: {}",
            spec.bin,
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
        return Ok(GoldenOutcome {
            bin: spec.name.to_owned(),
            mismatches,
            blessed: false,
        });
    }

    let golden = golden_dir().join(spec.name);
    let mut blessed = false;
    for report in spec.reports {
        let actual_path = scratch.join(format!("{report}.csv"));
        let actual = fs::read_to_string(&actual_path)?;
        let expected_path = golden.join(format!("{report}.csv"));
        if bless {
            fs::create_dir_all(&golden)?;
            fs::write(&expected_path, &actual)?;
            blessed = true;
            continue;
        }
        if !expected_path.exists() {
            mismatches.push(format!(
                "{}: no golden snapshot at {} (run `verify golden --bless`)",
                report,
                expected_path.display()
            ));
            continue;
        }
        let expected = fs::read_to_string(&expected_path)?;
        mismatches.extend(
            diff_csv(&expected, &actual, spec)
                .into_iter()
                .map(|m| format!("{report}: {m}")),
        );
    }
    Ok(GoldenOutcome {
        bin: spec.name.to_owned(),
        mismatches,
        blessed,
    })
}

/// Diffs two CSV documents cell-by-cell under the spec's tolerances.
/// Returns human-readable mismatch lines (empty = equal).
pub fn diff_csv(expected: &str, actual: &str, spec: &GoldenSpec) -> Vec<String> {
    let exp_rows: Vec<Vec<String>> = expected.lines().map(parse_csv_line).collect();
    let act_rows: Vec<Vec<String>> = actual.lines().map(parse_csv_line).collect();
    let mut out = Vec::new();
    if exp_rows.len() != act_rows.len() {
        out.push(format!(
            "row count {} != golden {}",
            act_rows.len(),
            exp_rows.len()
        ));
        return out;
    }
    let Some(header) = exp_rows.first() else {
        return out;
    };
    if act_rows[0] != *header {
        out.push(format!("header {:?} != golden {:?}", act_rows[0], header));
        return out;
    }
    for (row_idx, (exp, act)) in exp_rows.iter().zip(&act_rows).enumerate().skip(1) {
        if exp.len() != act.len() {
            out.push(format!(
                "row {row_idx}: width {} != {}",
                act.len(),
                exp.len()
            ));
            continue;
        }
        for (col, (e, a)) in exp.iter().zip(act).enumerate() {
            let col_name = header.get(col).map(String::as_str).unwrap_or("");
            if spec.ignore_cols.contains(&col_name) {
                continue;
            }
            if !cells_match(e, a, spec.abs_tol, spec.rel_tol) {
                out.push(format!(
                    "row {row_idx}, column {col_name:?}: {a:?} != golden {e:?}"
                ));
            }
        }
    }
    out
}

/// Numeric-tolerance cell comparison; falls back to exact string equality
/// for non-numeric cells.
pub fn cells_match(expected: &str, actual: &str, abs_tol: f64, rel_tol: f64) -> bool {
    if expected == actual {
        return true;
    }
    match (expected.parse::<f64>(), actual.parse::<f64>()) {
        (Ok(e), Ok(a)) => {
            if e.is_nan() && a.is_nan() {
                return true;
            }
            (e - a).abs() <= abs_tol + rel_tol * e.abs().max(a.abs())
        }
        _ => false,
    }
}

/// Minimal CSV record parser matching `tac25d_bench::csv_line`: comma
/// separation with `"`-quoted cells and doubled-quote escapes.
pub fn parse_csv_line(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if cur.is_empty() => quoted = true,
            ',' if !quoted => {
                cells.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    cells.push(cur);
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tol_spec() -> GoldenSpec {
        GoldenSpec {
            name: "x",
            bin: "x",
            args: &[],
            reports: &[],
            abs_tol: 1e-2,
            rel_tol: 1e-3,
            ignore_cols: &["speedup"],
        }
    }

    #[test]
    fn parse_round_trips_quoted_cells() {
        assert_eq!(
            parse_csv_line("plain,\"a,b\",\"say \"\"hi\"\"\""),
            vec!["plain", "a,b", "say \"hi\""]
        );
    }

    #[test]
    fn numeric_cells_compare_with_tolerance() {
        assert!(cells_match("1.23", "1.235", 1e-2, 0.0));
        assert!(!cells_match("1.23", "1.35", 1e-2, 0.0));
        assert!(cells_match("1000", "1000.5", 0.0, 1e-3));
        assert!(cells_match("nan", "NaN", 0.0, 0.0));
        assert!(!cells_match("abc", "abd", 1.0, 1.0));
    }

    #[test]
    fn diff_flags_value_and_shape_changes() {
        let s = tol_spec();
        let golden = "a,b,speedup\n1.0,x,9.9\n";
        assert!(diff_csv(golden, "a,b,speedup\n1.005,x,2.2\n", &s).is_empty());
        assert_eq!(diff_csv(golden, "a,b,speedup\n1.5,x,9.9\n", &s).len(), 1);
        assert_eq!(diff_csv(golden, "a,b,speedup\n", &s).len(), 1);
        assert_eq!(diff_csv(golden, "a,c,speedup\n1.0,x,9.9\n", &s).len(), 1);
    }

    #[test]
    fn manifest_covers_at_least_ten_bins() {
        assert!(manifest().len() >= 10, "golden manifest shrank");
    }
}
