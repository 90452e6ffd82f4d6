//! `BENCH_profile.json` writer, baseline drift checking and the timing
//! tree renderer backing `tac25d obs-report`.
//!
//! The profile schema (version 1):
//!
//! ```text
//! {
//!   "schema_version": 1,
//!   "bin": "fig8",
//!   "total_wall_s": 14.2,
//!   "spans": [{"path": "...", "count": N, "total_s": .., "self_s": ..,
//!              "min_s": .., "max_s": ..}, ...],
//!   "spans_by_name": {"thermal.pcg_solve": {"count": N, "total_s": ..,
//!                                           "self_s": ..}, ...},
//!   "counters": {"thermal.pcg_iterations": N, ...},
//!   "gauges": {"thermal.pcg_final_residual": X, ...},
//!   "histograms": {"name": {"count": N, "sum": S,
//!                           "buckets": [{"le": B, "n": C}, ...,
//!                                       {"le": "+Inf", "n": C}]}, ...}
//! }
//! ```
//!
//! Histogram buckets are sparse (empty finite buckets are skipped) but
//! always terminated by an explicit `"+Inf"` overflow bucket, so the full
//! 65-bucket range is representable and the largest finite bound never
//! masquerades as the end of the scale.
//!
//! `spans` keys by full `/`-joined path; `spans_by_name` rolls up by leaf
//! span name so consumers (CI drift check, acceptance criteria) can find
//! `thermal.pcg_solve` regardless of what it nested under.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use crate::json::{escape, parse, Value};
use crate::span::{self, SpanStat};

/// Counters pre-registered at startup so they appear in every profile
/// (zero-valued if the corresponding code path never ran).
pub const CANONICAL_COUNTERS: &[&str] = &[
    "thermal.pcg_solves",
    "thermal.pcg_iterations",
    "thermal.exact_solves",
    "thermal.balance_violations",
    "thermal.ic0_factorizations",
    "evaluator.canonical_hits",
    "evaluator.exact_solves",
    "surrogate.predictions",
    "surrogate.raw_peaks",
    "surrogate.kernel_solves",
    "optimizer.greedy_starts",
    "optimizer.seeded_starts",
    "optimizer.analytic_descents",
    "optimizer.analytic_grad_evals",
    "optimizer.draft_refutes",
    "bench.rows_emitted",
    "serve.requests",
    "serve.shed",
    "serve.deadline_hits",
];

/// Counters the CI `profile` job guards against drift.
pub const BASELINE_COUNTERS: &[&str] = &[
    "thermal.pcg_iterations",
    "thermal.exact_solves",
    "thermal.balance_violations",
    "thermal.ic0_factorizations",
    "evaluator.exact_solves",
    "surrogate.kernel_solves",
    "surrogate.raw_peaks",
    "optimizer.analytic_grad_evals",
    "serve.shed",
    "serve.deadline_hits",
];

/// Baseline counters where only *increases* are regressions: dropping
/// below the blessed value (a faster solver, a better preconditioner) must
/// pass the gate without a re-bless, while exceeding it by the tolerance
/// still fails.
/// `serve.shed` and `serve.deadline_hits` are blessed at 0 — any request
/// shedding or deadline expiry during a profile run is queue/backpressure
/// behavior regressing, while staying at 0 rides along for free.
/// `evaluator.exact_solves` counts exact coupled thermal/leakage solves
/// per run — the currency the analytic seeding saves. Creeping past the
/// blessed value means the seeding or the draft-then-verify search
/// quietly stopped firing; spending fewer is the whole point.
/// `surrogate.kernel_solves` counts unit-response solves spent building
/// surrogate kernel sets. The shared, single-flight kernel store makes it
/// the number of distinct (family, edge, r) keys a run touches; creeping
/// past the blessed value means kernel sets stopped being shared (back
/// to one build per evaluator or per racing thread).
/// `surrogate.raw_peaks` counts tier-1 superpositions actually computed;
/// each evaluator memoizes them per evaluation key, so it is the number
/// of distinct points each evaluator predicts or trains on. Creeping past
/// the blessed value means the memo stopped firing and predictions went
/// back to recomputing the superposition.
/// `thermal.balance_violations` is blessed at 0: it counts coupled
/// solves whose energy balance misses by more than
/// `tac25d_thermal::coupled::BALANCE_TOL`, so any count is a broken solve.
/// `thermal.ic0_factorizations` counts IC(0) factorizations, one per
/// package model build: exceeding the blessed value means a model is
/// factored more than once, or more models are built.
///
/// `optimizer.analytic_grad_evals` (the seeding descent's objective and
/// gradient evaluations) is deliberately *not* one-sided: the descent is
/// deterministic, so a count that falls means its restarts, line search
/// or stopping rule changed, and descent time bought that way must come
/// with a re-bless that says so.
pub const ONE_SIDED_COUNTERS: &[&str] = &[
    "thermal.pcg_iterations",
    "thermal.balance_violations",
    "thermal.ic0_factorizations",
    "evaluator.exact_solves",
    "surrogate.kernel_solves",
    "surrogate.raw_peaks",
    "serve.shed",
    "serve.deadline_hits",
];

/// Relative drift allowed against the committed baseline (the parallel
/// greedy's lowest-index-winner early exit makes solve counts mildly
/// scheduling-dependent).
pub const DRIFT_TOLERANCE: f64 = 0.20;

/// Registers [`CANONICAL_COUNTERS`] so they show up in profiles and
/// counter snapshots even when untouched.
pub fn register_canonical_counters() {
    for name in CANONICAL_COUNTERS {
        crate::registry::counter(name);
    }
}

fn s(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Leaf-name rollup of the span snapshot: name → (count, total_ns,
/// self_ns).
pub fn spans_by_name(snapshot: &[(String, SpanStat)]) -> BTreeMap<String, (u64, u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (path, stat) in snapshot {
        let e = out
            .entry(span::leaf_name(path).to_owned())
            .or_insert((0, 0, 0));
        e.0 += stat.count;
        e.1 += stat.total_ns;
        e.2 += stat.self_ns;
    }
    out
}

/// Renders the current registry + span state as a schema-v1 profile
/// document.
pub fn render_profile(bin: &str) -> String {
    register_canonical_counters();
    let snapshot = span::snapshot();
    let mut out = String::from("{\n");
    out.push_str("  \"schema_version\": 1,\n");
    out.push_str(&format!("  \"bin\": \"{}\",\n", escape(bin)));
    out.push_str(&format!(
        "  \"total_wall_s\": {:.6},\n",
        crate::uptime().as_secs_f64()
    ));
    out.push_str("  \"spans\": [\n");
    for (i, (path, stat)) in snapshot.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"path\": \"{}\", \"count\": {}, \"total_s\": {:.6}, \"self_s\": {:.6}, \"min_s\": {:.6}, \"max_s\": {:.6}}}{}\n",
            escape(path),
            stat.count,
            s(stat.total_ns),
            s(stat.self_ns),
            s(stat.min_ns),
            s(stat.max_ns),
            if i + 1 < snapshot.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"spans_by_name\": {\n");
    let by_name = spans_by_name(&snapshot);
    for (i, (name, (count, total_ns, self_ns))) in by_name.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"count\": {count}, \"total_s\": {:.6}, \"self_s\": {:.6}}}{}\n",
            escape(name),
            s(*total_ns),
            s(*self_ns),
            if i + 1 < by_name.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"counters\": {\n");
    let counters = crate::registry::counter_snapshot();
    for (i, (name, value)) in counters.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {value}{}\n",
            escape(name),
            if i + 1 < counters.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"gauges\": {\n");
    let gauges = crate::registry::gauge_snapshot();
    for (i, (name, value)) in gauges.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {value}{}\n",
            escape(name),
            if i + 1 < gauges.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n");
    out.push_str("  \"histograms\": {\n");
    let hists = crate::registry::histogram_snapshot();
    for (i, (name, buckets, count, sum)) in hists.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"count\": {count}, \"sum\": {sum}, \"buckets\": [",
            escape(name)
        ));
        // Finite buckets are sparse (zero buckets skipped); the overflow
        // bucket is always present as an explicit "+Inf" terminator so
        // consumers never mistake the largest finite bound (previously
        // printed as a raw u64::MAX) for the top of the range.
        let last = buckets.len() - 1;
        for (bi, c) in buckets.iter().take(last).enumerate() {
            if *c == 0 {
                continue;
            }
            out.push_str(&format!(
                "{{\"le\": {}, \"n\": {c}}}, ",
                crate::registry::bucket_upper_bound(bi)
            ));
        }
        out.push_str(&format!("{{\"le\": \"+Inf\", \"n\": {}}}", buckets[last]));
        out.push_str(&format!(
            "]}}{}\n",
            if i + 1 < hists.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Writes [`render_profile`] to `path`.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_profile(path: &Path, bin: &str) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_profile(bin))
}

/// Extracts the [`BASELINE_COUNTERS`] from a parsed profile document as a
/// baseline JSON document (what `tests/obs/baseline.json` holds).
pub fn baseline_from_profile(profile: &Value) -> String {
    let mut out = String::from("{\n");
    for (i, name) in BASELINE_COUNTERS.iter().enumerate() {
        let v = profile
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        out.push_str(&format!(
            "  \"{name}\": {v}{}\n",
            if i + 1 < BASELINE_COUNTERS.len() {
                ","
            } else {
                ""
            }
        ));
    }
    out.push_str("}\n");
    out
}

/// One drift-check result row.
#[derive(Debug, Clone, PartialEq)]
pub struct Drift {
    /// Counter name.
    pub name: String,
    /// Committed baseline value.
    pub baseline: f64,
    /// Observed value from the fresh profile.
    pub observed: f64,
    /// `|observed - baseline| / baseline` (observed itself when the
    /// baseline is zero and observed is not). For [`ONE_SIDED_COUNTERS`]
    /// only the increase counts: improvements report 0.
    pub relative: f64,
    /// Whether `relative` exceeds the tolerance.
    pub exceeded: bool,
}

/// Compares a fresh profile against a committed baseline for every
/// [`BASELINE_COUNTERS`] entry. Counters in [`ONE_SIDED_COUNTERS`] gate
/// only regressions (observed above baseline); every other counter drifts
/// symmetrically.
pub fn check_drift(profile: &Value, baseline: &Value, tolerance: f64) -> Vec<Drift> {
    BASELINE_COUNTERS
        .iter()
        .map(|name| {
            let observed = profile
                .get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            let base = baseline.get(name).and_then(Value::as_f64).unwrap_or(0.0);
            let delta = if ONE_SIDED_COUNTERS.contains(name) {
                (observed - base).max(0.0)
            } else {
                (observed - base).abs()
            };
            let relative = if base == 0.0 {
                if delta == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                delta / base
            };
            Drift {
                name: (*name).to_owned(),
                baseline: base,
                observed,
                relative,
                exceeded: relative > tolerance,
            }
        })
        .collect()
}

/// Renders a parsed profile as a human-readable report: total wall time,
/// the indented span tree, the acceptance-named span rollups, and the top
/// counters with derived ratios.
pub fn render_report(profile: &Value) -> String {
    let mut out = String::new();
    let bin = profile.get("bin").and_then(Value::as_str).unwrap_or("?");
    let wall = profile
        .get("total_wall_s")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    out.push_str(&format!("== obs profile: {bin} ==\n"));
    out.push_str(&format!("total wall time: {wall:.3} s\n\n"));

    out.push_str("span tree (count, total s, self s):\n");
    if let Some(spans) = profile.get("spans").and_then(Value::as_array) {
        if spans.is_empty() {
            out.push_str("  (no spans recorded)\n");
        }
        for sp in spans {
            let path = sp.get("path").and_then(Value::as_str).unwrap_or("?");
            let count = sp.get("count").and_then(Value::as_f64).unwrap_or(0.0);
            let total = sp.get("total_s").and_then(Value::as_f64).unwrap_or(0.0);
            let self_s = sp.get("self_s").and_then(Value::as_f64).unwrap_or(0.0);
            let indent = "  ".repeat(span::depth(path) + 1);
            out.push_str(&format!(
                "{indent}{}  x{count:<6} total {total:>9.3}s  self {self_s:>9.3}s\n",
                span::leaf_name(path)
            ));
        }
    }

    out.push_str("\nkey spans (rolled up by name):\n");
    if let Some(by_name) = profile.get("spans_by_name").and_then(Value::as_object) {
        for (name, stat) in by_name {
            let count = stat.get("count").and_then(Value::as_f64).unwrap_or(0.0);
            let total = stat.get("total_s").and_then(Value::as_f64).unwrap_or(0.0);
            out.push_str(&format!("  {name:<36} x{count:<8} {total:>9.3}s\n"));
        }
    }

    out.push_str("\ntop counters:\n");
    let mut counters: Vec<(String, f64)> = profile
        .get("counters")
        .and_then(Value::as_object)
        .map(|pairs| {
            pairs
                .iter()
                .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
                .collect()
        })
        .unwrap_or_default();
    counters.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (name, value) in counters.iter().take(12) {
        out.push_str(&format!("  {name:<36} {value:>12.0}\n"));
    }

    let counter = |name: &str| -> f64 {
        profile
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let exact = counter("thermal.exact_solves");
    let predictions = counter("surrogate.predictions");
    let pcg_iters = counter("thermal.pcg_iterations");
    let pcg_solves = counter("thermal.pcg_solves");
    out.push_str("\nderived:\n");
    if predictions + exact > 0.0 {
        out.push_str(&format!(
            "  screened-vs-exact ratio: {predictions:.0} predictions / {exact:.0} exact solves ({:.1}x)\n",
            if exact > 0.0 { predictions / exact } else { f64::INFINITY }
        ));
    }
    if pcg_solves > 0.0 {
        out.push_str(&format!(
            "  mean PCG iterations/solve: {:.1}\n",
            pcg_iters / pcg_solves
        ));
    }
    out
}

/// Renders the same data as [`render_report`] (plus the drift rows, when
/// a baseline was checked) as one machine-readable JSON document, so CI
/// can archive and diff `tac25d obs-report --json` output instead of
/// scraping the table.
pub fn render_report_json(profile: &Value, drifts: &[Drift]) -> String {
    let mut fields: Vec<(String, Value)> = Vec::new();
    for key in [
        "bin",
        "total_wall_s",
        "spans_by_name",
        "counters",
        "gauges",
        "histograms",
    ] {
        if let Some(v) = profile.get(key) {
            fields.push((key.to_owned(), v.clone()));
        }
    }
    let drift_rows: Vec<Value> = drifts
        .iter()
        .map(|d| {
            crate::json::obj(vec![
                ("name".to_owned(), Value::String(d.name.clone())),
                ("baseline".to_owned(), Value::Number(d.baseline)),
                ("observed".to_owned(), Value::Number(d.observed)),
                // Infinite drift (zero baseline, nonzero observed)
                // renders as null per the serializer's non-finite rule.
                ("relative".to_owned(), Value::Number(d.relative)),
                ("exceeded".to_owned(), Value::Bool(d.exceeded)),
            ])
        })
        .collect();
    fields.push(("drift".to_owned(), Value::Array(drift_rows)));
    crate::json::obj(fields).render()
}

/// Parses a profile or baseline file from disk.
///
/// # Errors
///
/// Returns a description of the IO or parse failure.
pub fn load_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake_profile(pcg_iters: f64, exact: f64) -> Value {
        parse(&format!(
            r#"{{"schema_version": 1, "bin": "t", "total_wall_s": 1.0,
                "spans": [], "spans_by_name": {{}},
                "counters": {{"thermal.pcg_iterations": {pcg_iters},
                             "thermal.exact_solves": {exact}}},
                "gauges": {{}}, "histograms": {{}}}}"#
        ))
        .expect("fixture parses")
    }

    #[test]
    fn drift_within_tolerance_passes() {
        let profile = fake_profile(110.0, 10.0);
        let baseline = parse(r#"{"thermal.pcg_iterations": 100, "thermal.exact_solves": 10}"#)
            .expect("baseline parses");
        let drifts = check_drift(&profile, &baseline, DRIFT_TOLERANCE);
        assert_eq!(drifts.len(), BASELINE_COUNTERS.len());
        assert!(drifts.iter().all(|d| !d.exceeded), "{drifts:?}");
        assert!((drifts[0].relative - 0.10).abs() < 1e-12);
    }

    #[test]
    fn drift_beyond_tolerance_fails() {
        let profile = fake_profile(130.0, 10.0);
        let baseline = parse(r#"{"thermal.pcg_iterations": 100, "thermal.exact_solves": 10}"#)
            .expect("baseline parses");
        let drifts = check_drift(&profile, &baseline, DRIFT_TOLERANCE);
        assert!(drifts.iter().any(|d| d.exceeded));
    }

    #[test]
    fn zero_baseline_with_nonzero_observed_is_infinite_drift() {
        let profile = fake_profile(5.0, 0.0);
        let baseline = parse(r#"{"thermal.pcg_iterations": 0, "thermal.exact_solves": 0}"#)
            .expect("baseline parses");
        let drifts = check_drift(&profile, &baseline, DRIFT_TOLERANCE);
        let pcg = drifts
            .iter()
            .find(|d| d.name == "thermal.pcg_iterations")
            .unwrap();
        assert!(pcg.exceeded);
        let exact = drifts
            .iter()
            .find(|d| d.name == "thermal.exact_solves")
            .unwrap();
        assert!(!exact.exceeded);
    }

    #[test]
    fn one_sided_counter_improvement_passes_any_margin() {
        // pcg_iterations is gated one-sided: a 4x improvement must pass
        // without a re-bless, while the same swing upward fails.
        let improved = fake_profile(25.0, 10.0);
        let baseline = parse(r#"{"thermal.pcg_iterations": 100, "thermal.exact_solves": 10}"#)
            .expect("baseline parses");
        let drifts = check_drift(&improved, &baseline, DRIFT_TOLERANCE);
        let pcg = drifts
            .iter()
            .find(|d| d.name == "thermal.pcg_iterations")
            .unwrap();
        assert!(!pcg.exceeded, "{pcg:?}");
        assert_eq!(pcg.relative, 0.0);

        let regressed = fake_profile(175.0, 10.0);
        let drifts = check_drift(&regressed, &baseline, DRIFT_TOLERANCE);
        assert!(
            drifts
                .iter()
                .find(|d| d.name == "thermal.pcg_iterations")
                .unwrap()
                .exceeded
        );
    }

    #[test]
    fn symmetric_counter_still_fails_on_large_decrease() {
        // exact_solves is not one-sided: losing half the exact solves is
        // as suspicious as doubling them.
        let profile = fake_profile(100.0, 4.0);
        let baseline = parse(r#"{"thermal.pcg_iterations": 100, "thermal.exact_solves": 10}"#)
            .expect("baseline parses");
        let drifts = check_drift(&profile, &baseline, DRIFT_TOLERANCE);
        assert!(
            drifts
                .iter()
                .find(|d| d.name == "thermal.exact_solves")
                .unwrap()
                .exceeded
        );
    }

    #[test]
    fn grad_evals_gate_fails_on_fewer_evaluations_too() {
        // The descent is deterministic: a quarter fewer gradient
        // evaluations is a changed descent, not a free speedup.
        let doc = |evals: f64| {
            parse(&format!(
                r#"{{"counters": {{"optimizer.analytic_grad_evals": {evals}}}}}"#
            ))
            .expect("fixture parses")
        };
        let baseline = parse(r#"{"optimizer.analytic_grad_evals": 1835}"#).expect("parses");
        let gate = |evals: f64| {
            check_drift(&doc(evals), &baseline, DRIFT_TOLERANCE)
                .into_iter()
                .find(|d| d.name == "optimizer.analytic_grad_evals")
                .expect("gated counter")
                .exceeded
        };
        assert!(!gate(1835.0));
        assert!(gate(1376.0), "fewer evaluations must fail");
        assert!(gate(2294.0), "more evaluations must fail");
    }

    #[test]
    fn baseline_round_trips_through_profile() {
        let profile = fake_profile(892.0, 42.0);
        let baseline_doc = baseline_from_profile(&profile);
        let baseline = parse(&baseline_doc).expect("baseline parses");
        let drifts = check_drift(&profile, &baseline, 0.0);
        assert!(drifts.iter().all(|d| !d.exceeded));
    }

    #[test]
    fn rendered_profile_parses_and_contains_canonicals() {
        crate::force_enable();
        {
            let _g = crate::span::SpanGuard::enter("test.profile.render_span");
        }
        let doc = render_profile("unit-test");
        let v = parse(&doc).expect("profile parses");
        assert_eq!(v.get("bin").and_then(Value::as_str), Some("unit-test"));
        assert!(v.get("total_wall_s").and_then(Value::as_f64).is_some());
        for name in CANONICAL_COUNTERS {
            assert!(
                v.get("counters").and_then(|c| c.get(name)).is_some(),
                "canonical counter {name} missing"
            );
        }
        let report = render_report(&v);
        assert!(report.contains("total wall time"));
        assert!(report.contains("top counters"));
    }

    #[test]
    fn json_report_carries_table_data_and_drift() {
        let profile = fake_profile(130.0, 10.0);
        let baseline = parse(r#"{"thermal.pcg_iterations": 100, "thermal.exact_solves": 10}"#)
            .expect("baseline parses");
        let drifts = check_drift(&profile, &baseline, DRIFT_TOLERANCE);
        let doc = render_report_json(&profile, &drifts);
        let v = parse(&doc).expect("json report parses");
        assert_eq!(v.get("bin").and_then(Value::as_str), Some("t"));
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("thermal.pcg_iterations"))
                .and_then(Value::as_f64),
            Some(130.0)
        );
        let rows = v.get("drift").and_then(Value::as_array).expect("drift");
        assert_eq!(rows.len(), BASELINE_COUNTERS.len());
        let pcg = rows
            .iter()
            .find(|r| r.get("name").and_then(Value::as_str) == Some("thermal.pcg_iterations"))
            .expect("pcg row");
        assert_eq!(pcg.get("exceeded"), Some(&Value::Bool(true)));
    }

    #[test]
    fn histograms_close_with_explicit_inf_bucket() {
        crate::force_enable();
        let h = crate::registry::histogram("test.profile.inf_bucket");
        h.reset();
        h.record(3);
        h.record(300);
        h.record(u64::MAX); // lands in the overflow bucket
        let doc = render_profile("unit-test");
        let v = parse(&doc).expect("profile parses");
        let buckets = v
            .get("histograms")
            .and_then(|h| h.get("test.profile.inf_bucket"))
            .and_then(|h| h.get("buckets"))
            .and_then(Value::as_array)
            .expect("buckets present");
        let last = buckets.last().expect("non-empty");
        assert_eq!(last.get("le").and_then(Value::as_str), Some("+Inf"));
        assert_eq!(last.get("n").and_then(Value::as_f64), Some(1.0));
        // Every finite bucket keeps a numeric bound strictly below 2^63.
        for b in &buckets[..buckets.len() - 1] {
            let le = b.get("le").and_then(Value::as_f64).expect("numeric le");
            assert!(le < (1u64 << 63) as f64);
        }
    }
}
