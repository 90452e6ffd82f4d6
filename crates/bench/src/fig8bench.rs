//! The canonical Fig. 8 solver-performance record: `BENCH_fig8.json`.
//!
//! Every observed `fig8` run appends one entry capturing the wall time,
//! the solver effort and the self time of each span layer, so the file
//! accumulates a before/after trajectory across changes instead of
//! silently overwriting history. The document is re-rendered from parsed
//! known fields on each append — unknown fields are dropped rather than
//! preserved, keeping the schema authoritative:
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "bin": "fig8",
//!   "entries": [
//!     {
//!       "solver": "ic0",
//!       "fast": true,
//!       "wall_s": 1.234,
//!       "pcg_iterations": 12345,
//!       "pcg_solves": 2317,
//!       "date": "2026-08-05",
//!       "git_rev": "abc1234",
//!       "host": "Intel(R) Xeon(R) Processor @ 2.10GHz (8 threads)",
//!       "layers": {"thermal.matrix_assembly": 0.241, "thermal.pcg_solve": 0.93}
//!     }
//!   ]
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{SystemTime, UNIX_EPOCH};

use tac25d_obs as obs;

/// One recorded `fig8` run.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Entry {
    /// Solver the run used: always `ic0` now (IC(0)-preconditioned PCG,
    /// the only path left); older entries also record `jacobi`, `mg` or
    /// `auto`, kept verbatim when the file is re-rendered.
    pub solver: String,
    /// Whether `--fast` was passed.
    pub fast: bool,
    /// Wall-clock seconds from process start to report emission.
    pub wall_s: f64,
    /// Total PCG iterations of the run (`thermal.pcg_iterations`).
    pub pcg_iterations: u64,
    /// Total PCG solves of the run (`thermal.pcg_solves`).
    pub pcg_solves: u64,
    /// Exact coupled thermal/leakage solves of the run
    /// (`evaluator.exact_solves`) — the unit the seeded search budget is
    /// denominated in. Zero in entries recorded before the field existed.
    pub exact_solves: u64,
    /// Civil date of the run (UTC, `YYYY-MM-DD`).
    pub date: String,
    /// Short git revision, suffixed `-dirty` when tracked files had
    /// uncommitted changes; `unknown` outside a work tree.
    pub git_rev: String,
    /// CPU model and logical core count of the machine that ran the
    /// bench — wall times across entries are only comparable when this
    /// matches. Empty in entries recorded before the field existed.
    pub host: String,
    /// Self seconds per span name, summed over threads (the profile's
    /// `spans_by_name` rollup): the layer a change in `wall_s` came from.
    /// Empty in entries recorded before the field existed.
    pub layers: BTreeMap<String, f64>,
}

/// Where the record goes: `BENCH_fig8.json` inside the
/// [`crate::results_redirect`] when set (harness scratch runs must not
/// touch the canonical file), otherwise at the workspace root next to
/// `BENCH_profile.json`.
pub fn fig8_bench_output_path() -> PathBuf {
    crate::results_redirect()
        .unwrap_or_else(crate::workspace_root)
        .join("BENCH_fig8.json")
}

/// Builds the entry for the current process from the live obs registry
/// (counters), the span aggregate (layers), the obs epoch (wall time) and
/// the environment.
pub fn current_entry() -> Fig8Entry {
    let counters = obs::registry::counter_snapshot();
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    };
    Fig8Entry {
        solver: "ic0".to_owned(),
        fast: crate::fast_flag(),
        wall_s: obs::uptime().as_secs_f64(),
        pcg_iterations: counter("thermal.pcg_iterations"),
        pcg_solves: counter("thermal.pcg_solves"),
        exact_solves: counter("evaluator.exact_solves"),
        date: utc_date(),
        git_rev: git_rev(),
        host: host_string(),
        layers: obs::profile::spans_by_name(&obs::span::snapshot())
            .into_iter()
            .map(|(name, (_, _, self_ns))| (name, self_ns as f64 * 1e-9))
            .collect(),
    }
}

/// CPU model (from `/proc/cpuinfo`) plus logical core count, e.g.
/// `"Intel(R) Xeon(R) Processor @ 2.10GHz (8 threads)"`. Falls back to
/// `unknown-cpu` on platforms without `/proc`.
fn host_string() -> String {
    let threads = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown-cpu".to_owned());
    format!("{cpu} ({threads} threads)")
}

/// Appends `entry` to the record at `path`, preserving existing entries.
///
/// # Errors
///
/// Returns any I/O error; a present-but-unparsable document is an error
/// too (the canonical record must never be silently discarded).
pub fn append_entry(path: &Path, entry: &Fig8Entry) -> io::Result<()> {
    let mut entries = match std::fs::read_to_string(path) {
        Ok(text) => {
            parse_entries(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    entries.push(entry.clone());
    std::fs::write(path, render(&entries))
}

fn parse_entries(text: &str) -> Result<Vec<Fig8Entry>, String> {
    let doc = obs::json::parse(text).map_err(|e| format!("BENCH_fig8.json: {e}"))?;
    let entries = doc
        .get("entries")
        .and_then(|v| v.as_array())
        .ok_or("BENCH_fig8.json: missing entries array")?;
    entries
        .iter()
        .map(|e| {
            let str_field = |k: &str| {
                e.get(k)
                    .and_then(|v| v.as_str())
                    .map(str::to_owned)
                    .ok_or_else(|| format!("BENCH_fig8.json: entry missing {k}"))
            };
            let num_field = |k: &str| {
                e.get(k)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| format!("BENCH_fig8.json: entry missing {k}"))
            };
            Ok(Fig8Entry {
                solver: str_field("solver")?,
                fast: matches!(e.get("fast"), Some(obs::json::Value::Bool(true))),
                wall_s: num_field("wall_s")?,
                pcg_iterations: num_field("pcg_iterations")? as u64,
                pcg_solves: num_field("pcg_solves")? as u64,
                // Absent in pre-seeding entries; 0 means "not recorded".
                exact_solves: num_field("exact_solves").unwrap_or(0.0) as u64,
                date: str_field("date")?,
                git_rev: str_field("git_rev")?,
                // Absent in pre-host entries; "" means "not recorded".
                host: str_field("host").unwrap_or_default(),
                // Absent in pre-layer entries; empty means "not recorded".
                layers: e
                    .get("layers")
                    .and_then(|v| v.as_object())
                    .unwrap_or_default()
                    .iter()
                    .map(|(k, v)| {
                        v.as_f64()
                            .map(|s| (k.clone(), s))
                            .ok_or_else(|| format!("BENCH_fig8.json: layer {k} is not a number"))
                    })
                    .collect::<Result<_, _>>()?,
            })
        })
        .collect()
}

fn render(entries: &[Fig8Entry]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"schema_version\": 1,\n  \"bin\": \"fig8\",\n  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"solver\": \"{}\", \"fast\": {}, \"wall_s\": {:.3}, \
             \"pcg_iterations\": {}, \"pcg_solves\": {}, \"exact_solves\": {}, \
             \"date\": \"{}\", \"git_rev\": \"{}\", \"host\": \"{}\"",
            obs::json::escape(&e.solver),
            e.fast,
            e.wall_s,
            e.pcg_iterations,
            e.pcg_solves,
            e.exact_solves,
            obs::json::escape(&e.date),
            obs::json::escape(&e.git_rev),
            obs::json::escape(&e.host),
        );
        // Omitted when empty, so entries recorded before the field existed
        // re-render unchanged.
        if !e.layers.is_empty() {
            let layers: Vec<String> = e
                .layers
                .iter()
                .map(|(k, v)| format!("\"{}\": {v:.6}", obs::json::escape(k)))
                .collect();
            let _ = write!(out, ", \"layers\": {{{}}}", layers.join(", "));
        }
        out.push('}');
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Today's UTC civil date, `YYYY-MM-DD`, from the system clock alone
/// (no chrono dependency; Gregorian conversion via the classic
/// days-from-civil inverse).
fn utc_date() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let days = (secs / 86_400) as i64;
    let (y, m, d) = civil_from_days(days);
    format!("{y:04}-{m:02}-{d:02}")
}

/// Gregorian date from days since 1970-01-01 (Howard Hinnant's
/// `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// The short git revision of the workspace (see [`stamp_rev`]).
fn git_rev() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(crate::workspace_root())
            .output()
            .ok()
    };
    let rev = git(&["rev-parse", "--short", "HEAD"])
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok());
    // `git diff --quiet` exits 1 exactly when tracked files differ.
    let dirty = git(&["diff", "--quiet", "HEAD", "--"]).is_some_and(|o| o.status.code() == Some(1));
    stamp_rev(rev.as_deref(), dirty)
}

/// The `git_rev` stamp: the trimmed revision, suffixed `-dirty` when the
/// tracked files differ from it (the timing is then not that revision's);
/// `unknown` without a revision.
fn stamp_rev(rev: Option<&str>, dirty: bool) -> String {
    match rev.map(str::trim).filter(|r| !r.is_empty()) {
        Some(r) if dirty => format!("{r}-dirty"),
        Some(r) => r.to_owned(),
        None => "unknown".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(solver: &str, iters: u64) -> Fig8Entry {
        Fig8Entry {
            solver: solver.to_owned(),
            fast: true,
            wall_s: 1.5,
            pcg_iterations: iters,
            pcg_solves: 10,
            exact_solves: 42,
            date: "2026-08-05".to_owned(),
            git_rev: "abc1234".to_owned(),
            host: "Test CPU (4 threads)".to_owned(),
            layers: BTreeMap::new(),
        }
    }

    #[test]
    fn render_parse_roundtrip() {
        let entries = vec![entry("jacobi", 306_159), entry("ic0", 90_000)];
        let parsed = parse_entries(&render(&entries)).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn layers_round_trip_and_stay_absent_when_empty() {
        let mut with = entry("ic0", 7_797);
        with.layers = BTreeMap::from([
            ("thermal.matrix_assembly".to_owned(), 0.25),
            ("thermal.pcg_solve".to_owned(), 0.9375),
        ]);
        let entries = vec![entry("ic0", 7_797), with];
        let text = render(&entries);
        assert_eq!(text.matches("\"layers\"").count(), 1, "{text}");
        assert_eq!(parse_entries(&text).unwrap(), entries);
    }

    #[test]
    fn rev_stamp_marks_uncommitted_changes() {
        assert_eq!(stamp_rev(Some("abc1234\n"), false), "abc1234");
        assert_eq!(stamp_rev(Some("abc1234\n"), true), "abc1234-dirty");
        assert_eq!(stamp_rev(None, true), "unknown");
        assert_eq!(stamp_rev(Some(""), false), "unknown");
    }

    #[test]
    fn append_accumulates_history() {
        let dir = std::env::temp_dir().join("tac25d-fig8bench-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_fig8.json");
        let _ = std::fs::remove_file(&path);
        append_entry(&path, &entry("jacobi", 300_000)).unwrap();
        append_entry(&path, &entry("ic0", 90_000)).unwrap();
        let parsed = parse_entries(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].solver, "jacobi");
        assert_eq!(parsed[1].solver, "ic0");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unparsable_record_is_an_error_not_a_wipe() {
        let dir = std::env::temp_dir().join("tac25d-fig8bench-test-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_fig8.json");
        std::fs::write(&path, "not json").unwrap();
        assert!(append_entry(&path, &entry("ic0", 1)).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "not json");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn civil_date_conversion_is_gregorian() {
        assert_eq!(civil_from_days(0), (1970, 1, 1));
        assert_eq!(civil_from_days(19_723), (2024, 1, 1));
        assert_eq!(civil_from_days(20_670), (2026, 8, 5));
    }

    #[test]
    fn current_entry_reads_registry_and_env() {
        let e = current_entry();
        assert_eq!(e.solver, "ic0");
        assert_eq!(e.date.len(), 10);
        assert!(e.wall_s >= 0.0);
        assert!(!e.host.is_empty());
    }

    #[test]
    fn entries_without_host_parse_as_empty() {
        // Records written before the host field must keep parsing; the
        // field defaults to "" ("not recorded").
        let legacy = r#"{
          "schema_version": 1, "bin": "fig8",
          "entries": [
            {"solver": "ic0", "fast": true, "wall_s": 3.5,
             "pcg_iterations": 39145, "pcg_solves": 3219,
             "date": "2026-08-05", "git_rev": "7aec512"}
          ]
        }"#;
        let parsed = parse_entries(legacy).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].host, "");
        assert_eq!(parsed[0].exact_solves, 0);
    }
}
