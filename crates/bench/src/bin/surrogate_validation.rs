//! Surrogate validation: the two-tier thermal surrogate (Green's-function
//! superposition + online residual corrector) against the exact coupled
//! solver, on the paper's own workloads.
//!
//! Two sections:
//!
//! 1. **Accuracy** (Fig. 5 configurations): uniform-spacing sweeps at 4 and
//!    16 chiplets, predicting each point *before* the exact solve is added
//!    to the training set — an honest online protocol. Reports raw-kernel
//!    and corrected errors versus the exact peak.
//! 2. **Organizer speedup** (Fig. 8 run): the full optimizer per benchmark,
//!    exact fidelity versus surrogate-screened fidelity, comparing the
//!    chosen organization, the exact thermal solves spent, and the
//!    |ΔT| of every verified prediction.
//!
//! Every screened result is still exact-solver-backed: the surrogate only
//! skips placements whose trusted prediction clears the threshold by more
//! than the guard band.

use std::time::Instant;

use tac25d_bench::runner::{benchmarks_from_args, parallel_map, seed_from_args, spec_from_args};
use tac25d_bench::{fmt, Report};
use tac25d_core::prelude::*;
use tac25d_floorplan::prelude::{ChipletLayout, Mm};
use tac25d_obs as obs;

fn main() -> std::io::Result<()> {
    let benchmarks = benchmarks_from_args();

    // -- Section 1: online prediction accuracy on Fig. 5 sweeps. --------
    let acc = parallel_map(benchmarks.clone(), |&b| accuracy_case(b));
    let mut report = Report::new(
        "surrogate_accuracy",
        &[
            "benchmark",
            "probes",
            "trusted",
            "raw_max_err_c",
            "corr_max_err_c",
            "corr_mean_err_c",
        ],
    );
    for (b, a) in benchmarks.iter().zip(&acc) {
        report.row(&[
            b.name().to_owned(),
            a.probes.to_string(),
            a.trusted.to_string(),
            fmt(a.raw_max, 2),
            fmt(a.corr_max, 2),
            fmt(a.corr_mean(), 2),
        ]);
    }
    report.finish()?;
    println!();

    // -- Section 2: organizer speedup on the Fig. 8 run. ----------------
    // One case at a time: kernel sets are shared process-wide, so a case's
    // kernel-solve count is the counter delta across it, which concurrent
    // cases would blur.
    let org: Vec<OrgResult> = benchmarks.iter().map(|&b| organizer_case(b)).collect();
    let mut report = Report::new(
        "surrogate_validation",
        &[
            "benchmark",
            "exact_sims",
            "screened_sims",
            "sims_ratio",
            "skips",
            "verified",
            "fallbacks",
            "kernel_solves",
            "max_err_c",
            "mean_err_c",
            "exact_choice",
            "screened_choice",
            "match",
            "speedup",
        ],
    );
    let (mut exact_total, mut screened_total) = (0usize, 0usize);
    let mut max_err = 0.0f64;
    let mut matches = 0usize;
    for (b, o) in benchmarks.iter().zip(&org) {
        exact_total += o.exact_sims;
        screened_total += o.screened_sims;
        max_err = max_err.max(o.max_err);
        matches += usize::from(o.matched);
        report.row(&[
            b.name().to_owned(),
            o.exact_sims.to_string(),
            o.screened_sims.to_string(),
            fmt(o.exact_sims as f64 / o.screened_sims.max(1) as f64, 1),
            o.skips.to_string(),
            o.verified.to_string(),
            o.fallbacks.to_string(),
            o.kernel_solves.to_string(),
            fmt(o.max_err, 2),
            o.mean_err.map_or_else(|| "-".to_owned(), |e| fmt(e, 2)),
            o.exact_choice.clone(),
            o.screened_choice.clone(),
            o.matched.to_string(),
            format!("{:.1}x", o.speedup),
        ]);
    }
    report.finish()?;

    println!();
    println!(
        "organization match: {}/{}   exact thermal solves: {} -> {} ({:.1}x fewer)   \
         verified-prediction max |dT|: {:.2} C",
        matches,
        benchmarks.len(),
        exact_total,
        screened_total,
        exact_total as f64 / screened_total.max(1) as f64,
        max_err,
    );
    Ok(())
}

struct AccResult {
    probes: usize,
    trusted: usize,
    raw_max: f64,
    corr_max: f64,
    corr_sum: f64,
}

impl AccResult {
    fn corr_mean(&self) -> f64 {
        if self.trusted == 0 {
            0.0
        } else {
            self.corr_sum / self.trusted as f64
        }
    }
}

/// Sweeps the Fig. 5 uniform-spacing lattice, predicting each point before
/// its exact solve joins the training set.
fn accuracy_case(b: Benchmark) -> AccResult {
    let ev = Evaluator::with_surrogate(spec_from_args(), SurrogateConfig::default());
    let spec = ev.spec();
    let op = spec.vf.nominal();
    let mut out = AccResult {
        probes: 0,
        trusted: 0,
        raw_max: 0.0,
        corr_max: 0.0,
        corr_sum: 0.0,
    };
    for &r in &[2u16, 4] {
        for i in 0..=20 {
            let gap = 0.5 * f64::from(i);
            let layout = ChipletLayout::Uniform { r, gap: Mm(gap) };
            let fits = layout
                .interposer_edge(&spec.chip, &spec.rules)
                .is_some_and(|e| e.value() <= spec.rules.max_interposer.value() + 1e-9);
            if !fits {
                continue;
            }
            // Predict first: the exact solve below trains the corrector.
            let pred = ev.predict_peak(&layout, b, op, 256);
            let Ok(exact) = ev.evaluate(&layout, b, op, 256) else {
                continue;
            };
            if !exact.converged {
                continue;
            }
            let Some(pred) = pred else { continue };
            out.probes += 1;
            out.raw_max = out
                .raw_max
                .max((pred.raw_peak_c - exact.peak.value()).abs());
            if pred.trusted {
                out.trusted += 1;
                let err = (pred.corrected_peak_c - exact.peak.value()).abs();
                out.corr_max = out.corr_max.max(err);
                out.corr_sum += err;
            }
        }
    }
    out
}

struct OrgResult {
    exact_sims: usize,
    screened_sims: usize,
    skips: usize,
    verified: usize,
    fallbacks: usize,
    /// Kernel solves this case paid: keys an earlier case (or section 1)
    /// already built are served from the shared store for free.
    kernel_solves: u64,
    max_err: f64,
    mean_err: Option<f64>,
    exact_choice: String,
    screened_choice: String,
    matched: bool,
    speedup: f64,
}

/// One Fig. 8 organizer run per fidelity, on fresh evaluators so the
/// thermal-simulation accounting is honest.
fn organizer_case(b: Benchmark) -> OrgResult {
    let signature = |r: &OptimizeResult| {
        r.best.as_ref().map(|o| {
            (
                o.candidate.op.freq_mhz as u32,
                o.candidate.active_cores,
                (o.candidate.edge.value() * 2.0).round() as i64,
            )
        })
    };
    let describe = |r: &OptimizeResult| {
        r.best.as_ref().map_or_else(
            || "-".to_owned(),
            |o| {
                format!(
                    "{:.0}MHz/{}c/{:.0}mm",
                    o.candidate.op.freq_mhz,
                    o.candidate.active_cores,
                    o.candidate.edge.value()
                )
            },
        )
    };

    let exact_ev = Evaluator::new(spec_from_args());
    let t0 = Instant::now();
    let exact = optimize(&exact_ev, b, &OptimizerConfig::with_seed(seed_from_args()))
        .expect("exact optimize");
    let exact_wall = t0.elapsed().as_secs_f64();

    let kernel_solves = || obs::counter!("surrogate.kernel_solves").get();
    let kernel_solves_before = kernel_solves();
    let scr_ev = Evaluator::with_surrogate(spec_from_args(), SurrogateConfig::default());
    let cfg = OptimizerConfig {
        fidelity: Fidelity::surrogate_default(),
        ..OptimizerConfig::with_seed(seed_from_args())
    };
    let t1 = Instant::now();
    let screened = optimize(&scr_ev, b, &cfg).expect("screened optimize");
    let screened_wall = t1.elapsed().as_secs_f64();

    OrgResult {
        exact_sims: exact.stats.thermal_sims,
        screened_sims: screened.stats.thermal_sims,
        skips: screened.stats.surrogate_skips,
        verified: screened.stats.surrogate_verifications,
        fallbacks: screened.stats.surrogate_fallbacks,
        kernel_solves: kernel_solves() - kernel_solves_before,
        max_err: screened.stats.surrogate_max_abs_error_c,
        mean_err: screened.stats.surrogate_mean_abs_error_c(),
        exact_choice: describe(&exact),
        screened_choice: describe(&screened),
        matched: signature(&exact) == signature(&screened),
        speedup: exact_wall / screened_wall.max(1e-9),
    }
}
