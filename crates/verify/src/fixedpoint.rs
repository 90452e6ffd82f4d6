//! Fixed-point equivalence gate (`verify fixedpoint`): the adaptive
//! Anderson outer loop and the symmetry-canonical cache keys must be
//! behavior-preserving refinements of the legacy Picard path.
//!
//! Three contracts, one per section of the report:
//!
//! * **strategy equivalence** — on the solver-gate corpus at tight
//!   tolerance, the adaptive-tolerance Anderson loop must land on the
//!   same temperature field as the fixed-tolerance Picard loop
//!   (max |ΔT| ≤ [`MAX_FIXEDPOINT_DT_C`]), both must converge, and at
//!   the production tolerance Anderson may not spend more inner PCG
//!   iterations than Picard;
//! * **canonical aliases** — layout parameterizations folded onto one
//!   cache key (`Symmetric4 { s3 } ≡ Uniform { 2, s3 }`, uniform-spaced
//!   `Symmetric16 ≡ Uniform { 4, g }`) describe the same physical
//!   package, so evaluating each *independently* (separate evaluators,
//!   no shared cache) must agree on the field and on feasibility;
//! * **organization decisions** — the Fig. 8 organizer run end-to-end
//!   under both strategies (pinned per evaluator through
//!   `Evaluator::with_coupled_options`) must choose the same
//!   organization decision for every benchmark: identical candidate
//!   signature (frequency/cores/edge/layout class) with each winner's
//!   placement feasible under the other strategy. Spacing is reported
//!   but not compared — see [`DecisionCase`] for why.

use tac25d_core::evaluator::layout_key;
use tac25d_core::prelude::*;
use tac25d_floorplan::chip::ChipSpec;
use tac25d_floorplan::layers::StackSpec;
use tac25d_floorplan::organization::{ChipletLayout, PackageRules, Spacing};
use tac25d_floorplan::units::{Celsius, Mm};
use tac25d_thermal::coupled::{solve_coupled, CoupledOptions, CoupledStrategy};
use tac25d_thermal::model::{PackageModel, ThermalConfig, ThermalError};

/// Maximum tolerated |ΔT| between equivalent paths, in °C.
pub const MAX_FIXEDPOINT_DT_C: f64 = 1e-6;

/// PCG relative tolerance for the strategy-equivalence runs: both loops
/// must be converged far below the 1e-6 °C comparison threshold for the
/// gap to measure the *strategy*, not leftover solver residual.
pub const FIXEDPOINT_REL_TOL: f64 = 1e-11;

/// Feasibility slack for the cross-strategy decision check, °C. At the
/// production outer tolerance the Picard and Anderson fixed points agree
/// only to a few millidegrees (the [`MAX_FIXEDPOINT_DT_C`] bound is
/// established at [`FIXEDPOINT_REL_TOL`]), so a winner within that noise
/// of the threshold may read as infeasible-by-millidegrees under the
/// other strategy. 1e-2 °C covers the observed ~6e-3 °C disagreement
/// with margin while staying three orders of magnitude below the 5 °C
/// surrogate guard band — a genuine decision divergence cannot hide in
/// it.
pub const CROSS_FEASIBLE_SLACK_C: f64 = 1e-2;

/// One organization's Picard-vs-Anderson comparison.
///
/// The two claims are measured at the tolerances where they hold by
/// design: *field agreement* at a microdegree outer tolerance (both
/// loops fully converged, so the gap measures the strategy alone), and
/// *iteration economy* at the production tolerance, counted in inner PCG
/// iterations — the quantity the adaptive forcing schedule actually
/// saves. (Outer counts alone would mis-measure it: Anderson's
/// convergence candidate must be re-confirmed at full inner tolerance,
/// which can cost one extra — cheap — outer on lightly-coupled systems.)
#[derive(Debug, Clone)]
pub struct StrategyCase {
    /// Corpus point name.
    pub name: &'static str,
    /// Max |ΔT| over every node of the two converged fixed points at the
    /// microdegree outer tolerance.
    pub max_abs_dt_c: f64,
    /// Inner PCG iterations of the Picard loop at the production
    /// tolerance.
    pub picard_inner: usize,
    /// Inner PCG iterations of the Anderson loop at the production
    /// tolerance.
    pub anderson_inner: usize,
    /// Whether both loops reported convergence at both tolerances.
    pub both_converged: bool,
}

impl StrategyCase {
    /// Whether the case satisfies the equivalence contract.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.max_abs_dt_c <= MAX_FIXEDPOINT_DT_C
            && self.both_converged
            && self.anderson_inner <= self.picard_inner
    }
}

/// One alias pair's independent-evaluation comparison.
#[derive(Debug, Clone)]
pub struct AliasCase {
    /// Pair name.
    pub name: &'static str,
    /// Whether the two parameterizations share a canonical cache key.
    pub keys_match: bool,
    /// Max |ΔT| over the peak and the per-chiplet peaks.
    pub max_abs_dt_c: f64,
    /// Whether both evaluations agree on feasibility at the spec
    /// threshold (and on convergence).
    pub decisions_match: bool,
}

impl AliasCase {
    /// Whether the pair satisfies the canonical-folding contract.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.keys_match && self.max_abs_dt_c <= MAX_FIXEDPOINT_DT_C && self.decisions_match
    }
}

/// One benchmark's Fig. 8 decision under both strategies.
///
/// Decisions are compared at the *candidate signature* level (frequency,
/// active cores, interposer edge, layout class), not on the full layout
/// string. The Eq. (5) objective is spacing-independent, so a candidate
/// can have several equally-optimal feasible spacings; microdegree-level
/// Picard-vs-Anderson differences can flip which of those the greedy's
/// descent reaches first (observed on blackscholes: same
/// 1000 MHz/256c/34 mm 16-chiplet winner, different spacing). That is
/// not a decision divergence — both placements are exact-solver-verified
/// feasible — so the gate pins the signature and additionally
/// cross-checks that each strategy's chosen placement is feasible under
/// the *other* strategy's evaluator, up to
/// [`CROSS_FEASIBLE_SLACK_C`]: at the *production* outer tolerance the
/// two strategies' converged fields differ by a few millidegrees
/// (measured ~6e-3 °C on the blackscholes winners; the 1e-6 °C
/// equivalence bound holds at the tight 1e-11 gate tolerance), so a
/// winner sitting within that noise of the threshold can legitimately
/// flip the hard feasibility bit under the other solver without either
/// decision being wrong. The full spacing strings stay in the report as
/// information.
#[derive(Debug, Clone)]
pub struct DecisionCase {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Full `freq/cores/edge/[layout]` description of the Picard winner
    /// (spacing included — informational).
    pub picard_desc: String,
    /// Description of the Anderson winner.
    pub anderson_desc: String,
    /// Whether the candidate signatures (freq/cores/edge/layout class)
    /// agree.
    pub signatures_match: bool,
    /// Whether each strategy's chosen placement is feasible when
    /// evaluated under the other strategy (vacuously true when neither
    /// found a winner).
    pub cross_feasible: bool,
}

impl DecisionCase {
    /// Whether both strategies chose the same organization decision.
    #[must_use]
    pub fn matched(&self) -> bool {
        self.signatures_match && self.cross_feasible
    }
}

/// The same corpus as the solver gate: representative 2D and 2.5D
/// organizations.
fn corpus() -> Vec<(&'static str, ChipletLayout, StackSpec)> {
    vec![
        (
            "single_chip_2d",
            ChipletLayout::SingleChip,
            StackSpec::baseline_2d(),
        ),
        (
            "uniform_4x4_25d",
            ChipletLayout::Uniform { r: 4, gap: Mm(4.0) },
            StackSpec::system_25d(),
        ),
        (
            "symmetric4_25d",
            ChipletLayout::Symmetric4 { s3: Mm(6.0) },
            StackSpec::system_25d(),
        ),
    ]
}

fn build(layout: &ChipletLayout, stack: &StackSpec) -> PackageModel {
    PackageModel::new(
        &ChipSpec::scc_256(),
        layout,
        &PackageRules::default(),
        stack,
        ThermalConfig {
            grid: 16,
            rel_tol: FIXEDPOINT_REL_TOL,
            ..ThermalConfig::default()
        },
    )
    .expect("corpus organization must build")
}

/// Runs one contractive leakage fixed point under the given strategy and
/// returns the converged field plus the inner PCG iteration total.
fn run_strategy(
    model: &PackageModel,
    strategy: CoupledStrategy,
    tol: Celsius,
) -> Result<(Vec<f64>, usize, bool), ThermalError> {
    // The solver gate's asymmetric per-chiplet powers with a 1.2 %/°C
    // leakage feedback — contractive, converges in a handful of outers.
    let rects = model.chiplet_rects().to_vec();
    let total = 180.0;
    let n = rects.len() as f64;
    let sources: Vec<_> = rects
        .iter()
        .enumerate()
        .map(|(i, r)| (*r, total * (0.6 + 0.8 * i as f64 / n.max(1.0)) / n))
        .collect();
    let coupled = solve_coupled(
        model,
        |sol| {
            let scale = sol.map_or(1.0, |s| 1.0 + 0.012 * (s.peak().value() - 45.0));
            sources.iter().map(|(r, w)| (*r, w * scale)).collect()
        },
        &CoupledOptions {
            tol,
            strategy,
            ..CoupledOptions::default()
        },
    )?;
    Ok((
        coupled.solution.raw_temps().to_vec(),
        coupled.inner_iterations,
        coupled.converged,
    ))
}

/// Runs the corpus under both strategies and returns the comparison
/// records.
///
/// # Errors
///
/// Propagates thermal build/solve errors — regressions of the corpus, not
/// equivalence measurements.
pub fn strategy_equivalence_cases() -> Result<Vec<StrategyCase>, ThermalError> {
    corpus()
        .into_iter()
        .map(|(name, layout, stack)| {
            let model = build(&layout, &stack);
            // Field agreement at a microdegree outer tolerance…
            let tight = Celsius(MAX_FIXEDPOINT_DT_C);
            let (p_field, _, p_conv) = run_strategy(&model, CoupledStrategy::Picard, tight)?;
            let (a_field, _, a_conv) = run_strategy(&model, CoupledStrategy::Anderson, tight)?;
            let max_abs_dt_c = p_field
                .iter()
                .zip(&a_field)
                .map(|(x, y)| (x - y).abs())
                .fold(0.0, f64::max);
            // …and inner-iteration economy at the production tolerance.
            let prod = CoupledOptions::default().tol;
            let (_, p_inner, pp_conv) = run_strategy(&model, CoupledStrategy::Picard, prod)?;
            let (_, a_inner, ap_conv) = run_strategy(&model, CoupledStrategy::Anderson, prod)?;
            Ok(StrategyCase {
                name,
                max_abs_dt_c,
                picard_inner: p_inner,
                anderson_inner: a_inner,
                both_converged: p_conv && a_conv && pp_conv && ap_conv,
            })
        })
        .collect()
}

/// Runs each canonical alias pair through *independent* evaluators (so
/// the shared key cannot short-circuit the comparison) and records the
/// field and decision agreement.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn alias_cases(spec: &SystemSpec) -> Result<Vec<AliasCase>, EvalError> {
    let pairs: Vec<(&'static str, ChipletLayout, ChipletLayout)> = vec![
        (
            "sym4_vs_uniform2",
            ChipletLayout::Symmetric4 { s3: Mm(6.0) },
            ChipletLayout::Uniform { r: 2, gap: Mm(6.0) },
        ),
        (
            "sym16u_vs_uniform4",
            ChipletLayout::Symmetric16 {
                spacing: Spacing::uniform(Mm(4.0)),
            },
            ChipletLayout::Uniform { r: 4, gap: Mm(4.0) },
        ),
    ];
    let op = spec.vf.nominal();
    pairs
        .into_iter()
        .map(|(name, a, b)| {
            let ev_a = Evaluator::new(spec.clone());
            let ev_b = Evaluator::new(spec.clone());
            let ea = ev_a.evaluate(&a, Benchmark::Cholesky, op, 256)?;
            let eb = ev_b.evaluate(&b, Benchmark::Cholesky, op, 256)?;
            let mut max_abs_dt_c = (ea.peak.value() - eb.peak.value()).abs();
            for (pa, pb) in ea.chiplet_peaks.iter().zip(&eb.chiplet_peaks) {
                max_abs_dt_c = max_abs_dt_c.max((pa.value() - pb.value()).abs());
            }
            Ok(AliasCase {
                name,
                keys_match: layout_key(&a) == layout_key(&b),
                max_abs_dt_c,
                decisions_match: ea.feasible(spec.threshold) == eb.feasible(spec.threshold)
                    && ea.converged == eb.converged
                    && ea.chiplet_peaks.len() == eb.chiplet_peaks.len(),
            })
        })
        .collect()
}

fn describe(r: &OptimizeResult) -> String {
    r.best.as_ref().map_or_else(
        || "-".to_owned(),
        |o| {
            format!(
                "{:.0}MHz/{}c/{:.0}mm [{}]",
                o.candidate.op.freq_mhz,
                o.candidate.active_cores,
                o.candidate.edge.value(),
                o.layout
            )
        },
    )
}

/// The spacing-free candidate signature the decision gate compares on.
fn signature(r: &OptimizeResult) -> Option<(u64, u16, u64, &'static str)> {
    r.best.as_ref().map(|o| {
        let class = match o.layout {
            ChipletLayout::SingleChip => "1c",
            ChipletLayout::Uniform { .. } => "uniform",
            ChipletLayout::Symmetric4 { .. } => "4c",
            ChipletLayout::Symmetric16 { .. } => "16c",
        };
        (
            o.candidate.op.freq_mhz.to_bits(),
            o.candidate.active_cores,
            o.candidate.edge.value().to_bits(),
            class,
        )
    })
}

/// Runs the Fig. 8 organizer per benchmark under both strategies — pinned
/// through [`Evaluator::with_coupled_options`] — and records the chosen
/// organizations, their
/// signature agreement and the cross-strategy feasibility of each winner.
///
/// # Panics
///
/// Panics if an optimize or cross-evaluation run fails outright (solver
/// error, no baseline).
pub fn decision_cases(spec: &SystemSpec, seed: u64) -> Vec<DecisionCase> {
    Benchmark::all()
        .into_iter()
        .map(|b| {
            let run = |strategy: CoupledStrategy| {
                let ev = Evaluator::with_coupled_options(
                    spec.clone(),
                    CoupledOptions {
                        strategy,
                        ..CoupledOptions::default()
                    },
                );
                let r = optimize(&ev, b, &OptimizerConfig::with_seed(seed)).expect("optimize");
                (r, ev)
            };
            let (picard, picard_ev) = run(CoupledStrategy::Picard);
            let (anderson, anderson_ev) = run(CoupledStrategy::Anderson);
            // Each winner must also be feasible under the other strategy:
            // this is what licenses signature-level comparison — any
            // equally-signed placement is a valid witness only if its
            // feasibility claim is strategy-independent.
            let cross = |o: &Organization, ev: &Evaluator| {
                let e = ev
                    .evaluate(&o.layout, b, o.candidate.op, o.candidate.active_cores)
                    .expect("cross-evaluate");
                e.converged && e.peak.value() <= spec.threshold.value() + CROSS_FEASIBLE_SLACK_C
            };
            let cross_feasible = match (&picard.best, &anderson.best) {
                (Some(p), Some(a)) => cross(p, &anderson_ev) && cross(a, &picard_ev),
                (None, None) => true,
                _ => false,
            };
            DecisionCase {
                benchmark: b,
                signatures_match: signature(&picard) == signature(&anderson),
                cross_feasible,
                picard_desc: describe(&picard),
                anderson_desc: describe(&anderson),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac25d_core::system::SystemSpec;

    #[test]
    fn corpus_passes_strategy_equivalence_gate() {
        for case in strategy_equivalence_cases().unwrap() {
            assert!(
                case.passed(),
                "{}: max|dT| = {:.3e} C, anderson {} vs picard {} inner PCG iters, converged {}",
                case.name,
                case.max_abs_dt_c,
                case.anderson_inner,
                case.picard_inner,
                case.both_converged
            );
        }
    }

    #[test]
    fn canonical_alias_pairs_evaluate_identically() {
        let mut spec = SystemSpec::fast();
        spec.thermal.grid = 16;
        for case in alias_cases(&spec).unwrap() {
            assert!(
                case.passed(),
                "{}: keys_match {}, max|dT| = {:.3e} C, decisions_match {}",
                case.name,
                case.keys_match,
                case.max_abs_dt_c,
                case.decisions_match
            );
        }
    }
}
