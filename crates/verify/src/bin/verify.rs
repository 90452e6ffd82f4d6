//! Command-line driver for the verification subsystem.
//!
//! ```text
//! verify mms                 # manufactured-solution suite
//! verify solver              # IC(0) path vs direct Cholesky oracle
//! verify fixedpoint [--fast] # canonical cache-key gate
//! verify seed                # analytic seeding: gradients, snap
//! verify diff [--fast]       # differential corpus + Fig. 8 guarantees
//! verify golden [--bless] [--only <name>]
//! verify obs                 # observability determinism guard
//! verify serve               # daemon byte-identity vs one-shot engine
//! verify trace               # request tracing: identity, isolation, overhead
//! verify all [--fast]        # everything above (golden without bless)
//! ```
//!
//! `--fast` runs the differential suite on the coarse smoke-test spec,
//! checking only the structural guarantees (organization match, energy
//! balance); the 1 °C surrogate error bound is calibrated to the paper
//! grid and enforced only on full runs.
//!
//! Every run appends a human-readable report to
//! `target/verify-report.txt` (CI uploads it as an artifact on failure)
//! and exits non-zero on any violated invariant.

use std::fmt::Write as _;
use std::process::ExitCode;

use tac25d_core::prelude::*;
use tac25d_floorplan::units::Mm;
use tac25d_verify::differential::{default_corpus, fig8_guarantees, run_point};
use tac25d_verify::fixedpoint::alias_cases;
use tac25d_verify::golden::{golden_dir, manifest, run_spec, workspace_root};
use tac25d_verify::mms::{chain_error, observed_orders, path_split, FinCase};
use tac25d_verify::obsguard::{obs_manifest, run_obs_determinism};
use tac25d_verify::seedcheck::{gradient_cases, snap_cases, MAX_GRAD_REL_ERR};
use tac25d_verify::servecheck::{serve_equivalence_report, CONCURRENT_CLIENTS};
use tac25d_verify::solvercheck::{solver_equivalence_cases, MAX_SOLVER_DT_C};
use tac25d_verify::tracecheck::{
    trace_report, ISOLATION_CLIENTS, MAX_ABS_OVERHEAD_US, MAX_OVERHEAD_RATIO,
};

/// Acceptance thresholds, mirrored by the in-crate tests.
const MIN_ORDER: f64 = 1.8;
const MAX_CHAIN_REL_ERR: f64 = 1e-6;
const MAX_SPLIT_REL_ERR: f64 = 0.02;
const MAX_BALANCE_ERR: f64 = 1e-3;
const MAX_VERIFIED_ERR_C: f64 = 1.0;

/// The spec the PR-1 screening guarantees were established on: the full
/// paper configuration. `--fast` swaps in the coarse smoke-test spec,
/// where only the structural guarantees (organization match, energy
/// balance) hold — the surrogate error bound is calibrated to the paper
/// grid.
fn verification_spec(fast: bool) -> SystemSpec {
    if fast {
        let mut spec = SystemSpec::fast();
        spec.thermal.grid = 16;
        spec.edge_step = Mm(2.0);
        spec
    } else {
        SystemSpec::paper()
    }
}

fn run_mms(report: &mut String) -> bool {
    let mut ok = true;
    let samples = FinCase::default().refine(&[12, 24, 48, 96]);
    let orders = observed_orders(&samples);
    let _ = writeln!(report, "MMS fin-mode refinement:");
    for s in &samples {
        let _ = writeln!(
            report,
            "  n={:<3} dx={:.3e}  max_err={:.3e}  rms={:.3e}",
            s.n, s.dx_m, s.max_abs_err, s.rms_err
        );
    }
    let _ = writeln!(report, "  observed orders: {orders:.3?}");
    for p in &orders {
        if *p < MIN_ORDER {
            ok = false;
            let _ = writeln!(report, "  FAIL: order {p:.3} < {MIN_ORDER}");
        }
    }

    let _ = writeln!(report, "1D resistance chain:");
    for n in [8usize, 16, 32] {
        let e = chain_error(n, 60.0);
        let _ = writeln!(report, "  n={n:<3} rel_err={e:.3e}");
        if e > MAX_CHAIN_REL_ERR {
            ok = false;
            let _ = writeln!(
                report,
                "  FAIL: chain error {e:.3e} > {MAX_CHAIN_REL_ERR:.0e}"
            );
        }
    }

    let _ = writeln!(report, "Two-path energy split:");
    for n in [8usize, 16, 32] {
        let s = path_split(n, 40.0);
        let rel = (s.solved_sink_share - s.analytic_sink_share).abs() / s.analytic_sink_share;
        let _ = writeln!(
            report,
            "  n={n:<3} sink_share={:.4} (analytic {:.4})  balance_err={:.3e}",
            s.solved_sink_share, s.analytic_sink_share, s.balance_error
        );
        if rel > MAX_SPLIT_REL_ERR || s.balance_error > MAX_BALANCE_ERR {
            ok = false;
            let _ = writeln!(
                report,
                "  FAIL: split rel_err={rel:.3e} balance={:.3e}",
                s.balance_error
            );
        }
    }
    ok
}

fn run_solver(report: &mut String) -> bool {
    let mut ok = true;
    let _ = writeln!(
        report,
        "Solver oracle (IC(0) PCG vs direct Cholesky, steady + leakage-coupled):"
    );
    match solver_equivalence_cases() {
        Ok(cases) => {
            for c in &cases {
                let status = if c.passed() {
                    "ok"
                } else {
                    ok = false;
                    "FAIL"
                };
                let _ = writeln!(
                    report,
                    "  {:<18} max|dT|={:.3e} C  ic0_iters={:<5} coupled_iters={:<5} leakage_rise={:.2} C {status}",
                    c.name, c.max_abs_dt_c, c.ic0_iterations, c.coupled_iterations, c.leakage_rise_c
                );
                if !c.passed() {
                    let _ = writeln!(
                        report,
                        "  FAIL: fields must agree to {MAX_SOLVER_DT_C:.0e} C"
                    );
                }
            }
        }
        Err(e) => {
            ok = false;
            let _ = writeln!(report, "  ERROR: {e}");
        }
    }
    ok
}

fn run_fixedpoint(report: &mut String, fast: bool) -> bool {
    let mut ok = true;
    let spec = verification_spec(fast);
    let _ = writeln!(
        report,
        "Canonical cache-key aliases (independent evaluators):"
    );
    match alias_cases(&spec) {
        Ok(cases) => {
            for c in &cases {
                let status = if c.passed() {
                    "ok"
                } else {
                    ok = false;
                    "FAIL"
                };
                let _ = writeln!(
                    report,
                    "  {:<20} keys_match={} max|dT|={:.3e} C decisions_match={} {status}",
                    c.name, c.keys_match, c.max_abs_dt_c, c.decisions_match
                );
            }
        }
        Err(e) => {
            ok = false;
            let _ = writeln!(report, "  ERROR: {e}");
        }
    }
    ok
}

fn run_seed(report: &mut String) -> bool {
    let mut ok = true;
    let _ = writeln!(
        report,
        "Analytic gradient vs central differences (deterministic corpus, rel err <= {MAX_GRAD_REL_ERR:.0e}):"
    );
    for c in gradient_cases() {
        let status = if c.passed() {
            "ok"
        } else {
            ok = false;
            "FAIL"
        };
        let _ = writeln!(
            report,
            "  {:<16} points={} max_rel_err={:.3e} {status}",
            c.name, c.points, c.max_rel_err
        );
    }

    let _ = writeln!(report, "Descend-and-snap determinism:");
    for c in snap_cases() {
        let status = if c.passed() {
            "ok"
        } else {
            ok = false;
            "FAIL"
        };
        let _ = writeln!(
            report,
            "  {:<16} seeds={:?} deterministic={} {status}",
            c.name, c.seeds, c.deterministic
        );
    }

    ok
}

fn run_diff(report: &mut String, fast: bool) -> bool {
    let mut ok = true;
    let spec = verification_spec(fast);
    let cases = fig8_guarantees(&spec, 42);
    let _ = writeln!(
        report,
        "Fig. 8 screened-vs-exact guarantees (seed 42):\n  {:<14} {:>7} {:<20} {:<20} {:>10} {:>12} {:>10}",
        "benchmark", "match", "exact", "screened", "max_err_C", "balance_err", "max_dT_C"
    );
    let mut matched = 0usize;
    for c in &cases {
        let (balance, max_dt) = c.record.as_ref().map_or((f64::NAN, f64::NAN), |r| {
            (r.energy_balance_error, r.max_chiplet_dt())
        });
        let _ = writeln!(
            report,
            "  {:<14} {:>7} {:<20} {:<20} {:>10.3} {:>12.3e} {:>10.2}",
            c.benchmark.name(),
            c.matched,
            c.exact_desc,
            c.screened_desc,
            c.max_verified_err_c,
            balance,
            max_dt
        );
        if c.matched {
            matched += 1;
        }
        if !fast && c.max_verified_err_c > MAX_VERIFIED_ERR_C {
            ok = false;
            let _ = writeln!(
                report,
                "  FAIL: verified-prediction error > {MAX_VERIFIED_ERR_C} C"
            );
        }
        if balance.is_nan() || balance > MAX_BALANCE_ERR {
            ok = false;
            let _ = writeln!(
                report,
                "  FAIL: energy balance {balance:.3e} > {MAX_BALANCE_ERR:.0e}"
            );
        }
    }
    let _ = writeln!(report, "  organization match: {matched}/{}", cases.len());
    if matched != cases.len() {
        ok = false;
        let _ = writeln!(report, "  FAIL: screened organizer diverged from exact");
    }

    // Corpus sweep: per-chiplet |ΔT| (linear RC vs coupled fixed point)
    // distributions over the fixed multi-layout corpus.
    let ev = Evaluator::new(spec.clone());
    let mut all_dt: Vec<f64> = Vec::new();
    let _ = writeln!(report, "Differential corpus (linear RC vs coupled):");
    for point in default_corpus(&spec) {
        match run_point(&ev, &point) {
            Ok(r) => {
                if r.energy_balance_error > MAX_BALANCE_ERR {
                    ok = false;
                    let _ = writeln!(
                        report,
                        "  FAIL: {} {:?} balance {:.3e}",
                        point.benchmark.name(),
                        point.layout,
                        r.energy_balance_error
                    );
                }
                all_dt.extend_from_slice(&r.chiplet_abs_dt);
            }
            Err(e) => {
                ok = false;
                let _ = writeln!(
                    report,
                    "  FAIL: {} {:?}: {e}",
                    point.benchmark.name(),
                    point.layout
                );
            }
        }
    }
    if !all_dt.is_empty() {
        all_dt.sort_by(|a, b| a.partial_cmp(b).expect("finite dT"));
        let q = |f: f64| all_dt[((all_dt.len() - 1) as f64 * f) as usize];
        let mean = all_dt.iter().sum::<f64>() / all_dt.len() as f64;
        let _ = writeln!(
            report,
            "  {} chiplet samples: mean {:.2}  p50 {:.2}  p90 {:.2}  max {:.2} C",
            all_dt.len(),
            mean,
            q(0.5),
            q(0.9),
            all_dt[all_dt.len() - 1]
        );
    }
    ok
}

fn run_golden(report: &mut String, bless: bool, only: Option<&str>) -> bool {
    let mut ok = true;
    let _ = writeln!(
        report,
        "Golden traces ({}) against {}:",
        if bless { "bless" } else { "diff" },
        golden_dir().display()
    );
    for spec in manifest() {
        if only.is_some_and(|o| o != spec.name) {
            continue;
        }
        match run_spec(&spec, bless) {
            Ok(outcome) => {
                let status = if outcome.blessed {
                    "blessed"
                } else if outcome.passed() {
                    "ok"
                } else {
                    ok = false;
                    "FAIL"
                };
                let _ = writeln!(report, "  {:<22} {status}", outcome.bin);
                for m in &outcome.mismatches {
                    let _ = writeln!(report, "    {m}");
                }
            }
            Err(e) => {
                ok = false;
                let _ = writeln!(report, "  {:<22} ERROR: {e}", spec.name);
            }
        }
    }
    ok
}

fn run_obs(report: &mut String) -> bool {
    let mut ok = true;
    let _ = writeln!(report, "Observability determinism guard:");
    for spec in obs_manifest() {
        match run_obs_determinism(&spec) {
            Ok(outcome) => {
                let status = if outcome.passed() {
                    "ok"
                } else {
                    ok = false;
                    "FAIL"
                };
                let _ = writeln!(report, "  {:<22} {status}", outcome.bin);
                for f in &outcome.failures {
                    let _ = writeln!(report, "    {f}");
                }
            }
            Err(e) => {
                ok = false;
                let _ = writeln!(report, "  {:<22} ERROR: {e}", spec.bin);
            }
        }
    }
    ok
}

fn run_serve(report: &mut String) -> bool {
    let mut ok = true;
    // Always the coarse grid-16 spec: byte-identity between the daemon
    // and a one-shot engine is a transport/determinism contract, not a
    // physics-resolution one, and the coarse spec keeps the corpus +
    // 8-client contention pass tractable.
    let spec = verification_spec(true);
    let _ = writeln!(
        report,
        "Serve byte-identity (daemon vs one-shot engine, {CONCURRENT_CLIENTS} concurrent clients):"
    );
    match serve_equivalence_report(&spec) {
        Ok(outcome) => {
            for c in &outcome.cases {
                let status = if c.passed() {
                    "ok"
                } else {
                    ok = false;
                    "FAIL"
                };
                let _ = writeln!(
                    report,
                    "  {:<22} http={} sequential_match={} concurrent={}/{} {status}",
                    c.name, c.status, c.sequential_match, c.concurrent_matches, c.concurrent_total
                );
            }
            let _ = writeln!(
                report,
                "  healthz={} metrics={}",
                outcome.healthz_ok, outcome.metrics_ok
            );
            if !outcome.healthz_ok || !outcome.metrics_ok {
                ok = false;
                let _ = writeln!(report, "  FAIL: endpoint probe failed");
            }
        }
        Err(e) => {
            ok = false;
            let _ = writeln!(report, "  ERROR: {e}");
        }
    }
    ok
}

fn run_trace(report: &mut String) -> bool {
    let mut ok = true;
    // The coarse grid-16 spec, like `verify serve`: tracing contracts
    // (wire invisibility, attribution, overhead) are transport
    // properties, not physics-resolution ones.
    let spec = verification_spec(true);
    let _ = writeln!(
        report,
        "Trace gate (traced vs untraced daemons, {ISOLATION_CLIENTS} concurrent clients):"
    );
    match trace_report(&spec) {
        Ok(outcome) => {
            for c in &outcome.identity {
                let status = if c.passed() {
                    "ok"
                } else {
                    ok = false;
                    "FAIL"
                };
                let _ = writeln!(
                    report,
                    "  {:<22} traced http={} match={} untraced http={} match={} ids={} {status}",
                    c.name,
                    c.traced_status,
                    c.traced_match,
                    c.untraced_status,
                    c.untraced_match,
                    c.ids_echoed
                );
            }
            let _ = writeln!(
                report,
                "  custom_id_echoed={} minted_id_present={}",
                outcome.custom_id_echoed, outcome.minted_id_present
            );
            if !outcome.custom_id_echoed || !outcome.minted_id_present {
                ok = false;
                let _ = writeln!(report, "  FAIL: X-Request-Id header contract violated");
            }

            let iso = &outcome.isolation;
            let _ = writeln!(report, "Isolation (per-request counter attribution):");
            for c in &iso.cases {
                let status = if c.passed() {
                    "ok"
                } else {
                    ok = false;
                    "FAIL"
                };
                let _ = writeln!(
                    report,
                    "  {:<14} {:<12} http={} pcg_delta={:<6} exact={} rooted={} {status}",
                    c.id, c.layout, c.status, c.pcg_delta, c.exact_delta, c.rooted
                );
            }
            let _ = writeln!(
                report,
                "  sum(per-request pcg)={} global pcg delta={}",
                iso.sum_pcg, iso.global_pcg_delta
            );
            if !iso.passed() {
                ok = false;
                let _ = writeln!(
                    report,
                    "  FAIL: per-request deltas must partition the global counter delta exactly"
                );
            }

            let ov = &outcome.overhead;
            let pairs: Vec<String> = ov.pairs.iter().map(|(t, u)| format!("{t}/{u}")).collect();
            let _ = writeln!(
                report,
                "Overhead (median of {} cache-hit round pairs): ratio={:.4} per_request={:+.2}us (traced/untraced us: {})",
                ov.pairs.len(),
                ov.ratio,
                ov.per_request_overhead_us,
                pairs.join(" ")
            );
            if !ov.passed() {
                ok = false;
                let _ = writeln!(
                    report,
                    "  FAIL: tracing must cost <= {:.0}% (or <= {MAX_ABS_OVERHEAD_US} us/request)",
                    (MAX_OVERHEAD_RATIO - 1.0) * 100.0
                );
            }
        }
        Err(e) => {
            ok = false;
            let _ = writeln!(report, "  ERROR: {e}");
        }
    }
    ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str).unwrap_or("all");
    let bless = args.iter().any(|a| a == "--bless");
    let fast = args.iter().any(|a| a == "--fast");
    let only = args
        .windows(2)
        .find(|w| w[0] == "--only")
        .map(|w| w[1].clone());

    let mut report = String::new();
    let ok = match mode {
        "mms" => run_mms(&mut report),
        "solver" => run_solver(&mut report),
        "fixedpoint" => run_fixedpoint(&mut report, fast),
        "seed" => run_seed(&mut report),
        "diff" => run_diff(&mut report, fast),
        "golden" => run_golden(&mut report, bless, only.as_deref()),
        "obs" => run_obs(&mut report),
        "serve" => run_serve(&mut report),
        "trace" => run_trace(&mut report),
        "all" => {
            let a = run_mms(&mut report);
            let s = run_solver(&mut report);
            let f = run_fixedpoint(&mut report, fast);
            let sd = run_seed(&mut report);
            let b = run_diff(&mut report, fast);
            let c = run_golden(&mut report, bless, only.as_deref());
            let d = run_obs(&mut report);
            let e = run_serve(&mut report);
            let t = run_trace(&mut report);
            a && s && f && sd && b && c && d && e && t
        }
        other => {
            eprintln!(
                "unknown mode {other:?}; use mms | solver | fixedpoint | seed | diff | golden | obs | serve | trace | all"
            );
            return ExitCode::FAILURE;
        }
    };

    print!("{report}");
    let report_path = workspace_root().join("target").join("verify-report.txt");
    if let Err(e) = std::fs::write(&report_path, &report) {
        eprintln!("warning: could not write {}: {e}", report_path.display());
    }
    if ok {
        println!("verify: PASS");
        ExitCode::SUCCESS
    } else {
        println!("verify: FAIL");
        ExitCode::FAILURE
    }
}
