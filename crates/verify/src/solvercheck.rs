//! Solver oracle gate: the production steady solve (IC(0)-preconditioned
//! PCG with reference-field warm starts) must reproduce the exact field of
//! a direct Cholesky factorization on representative package models.
//!
//! The corpus — a 2D single chip, a uniform 4×4 2.5D organization and the
//! symmetric 4-chiplet organization — runs at a tight PCG tolerance
//! (`SOLVER_REL_TOL`) through two sections:
//!
//! * **steady**: a fixed-power solve against
//!   [`PackageModel::solve_direct_reference`];
//! * **coupled**: a temperature–leakage fixed point (`solve_coupled`,
//!   Picard) whose closure scales every source by one factor
//!   `s(T) = 1 + 0.012·(T_peak − 45)`. By linearity the exact field at
//!   scale `s` is `T_amb + s·R`, with `R` the rise of the one direct
//!   solve, so the oracle iterates `s` with Picard's rule (stop when
//!   max |ΔT| ≤ tol) without another factorization.
//!
//! At that tolerance the iterative fields sit within a residual of the
//! exact ones, so they must agree to within [`MAX_SOLVER_DT_C`]
//! (1e-6 °C) and the oracle's outer count must match `solve_coupled`'s; a
//! larger gap means the production path changed the *answer*.

use tac25d_floorplan::chip::ChipSpec;
use tac25d_floorplan::layers::StackSpec;
use tac25d_floorplan::organization::{ChipletLayout, PackageRules};
use tac25d_floorplan::units::{Celsius, Mm};
use tac25d_thermal::coupled::{solve_coupled, CoupledOptions, CoupledStrategy};
use tac25d_thermal::model::{PackageModel, ThermalConfig, ThermalError};

/// Maximum tolerated |ΔT| between the production path and the direct
/// oracle, in °C.
pub const MAX_SOLVER_DT_C: f64 = 1e-6;

/// PCG relative tolerance for the oracle runs. The production tolerance
/// (1e-8/1e-9) only bounds the *residual*; field agreement with the exact
/// solve needs PCG converged far below the 1e-6 °C comparison threshold.
pub const SOLVER_REL_TOL: f64 = 1e-11;

/// Outer tolerance of the leakage fixed point, °C.
const FIXED_POINT_TOL_C: f64 = 0.001;

/// One organization's comparison against the direct oracle.
#[derive(Debug, Clone)]
pub struct SolverCase {
    /// Corpus point name.
    pub name: &'static str,
    /// Max |ΔT| over every node of the steady solve *and* every node of
    /// the converged leakage fixed point.
    pub max_abs_dt_c: f64,
    /// PCG iterations of the production steady solve.
    pub ic0_iterations: usize,
    /// Outer fixed-point iterations of the direct oracle.
    pub outer_iterations: usize,
    /// Whether `solve_coupled` took the same number of outer iterations.
    pub outer_match: bool,
}

impl SolverCase {
    /// Whether the case satisfies the oracle contract.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.max_abs_dt_c <= MAX_SOLVER_DT_C && self.outer_match
    }
}

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
            rel_tol: SOLVER_REL_TOL,
            ..ThermalConfig::default()
        },
    )
    .expect("corpus organization must build")
}

/// The corpus leakage closure: 1.2 %/°C growth of every source above
/// 45 °C — contractive, converges in a handful of outer iterations.
fn leakage_scale(peak_c: f64) -> f64 {
    1.0 + 0.012 * (peak_c - 45.0)
}

fn max_abs_dt(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Compares one organization's production solves against the oracle.
fn run_case(name: &'static str, model: &PackageModel) -> Result<SolverCase, ThermalError> {
    // Deliberately non-uniform per-chiplet powers so the comparison runs
    // on an asymmetric field, not just a scaled reference.
    let rects = model.chiplet_rects().to_vec();
    let total = 180.0;
    let n = rects.len() as f64;
    let sources: Vec<_> = rects
        .iter()
        .enumerate()
        .map(|(i, r)| (*r, total * (0.6 + 0.8 * i as f64 / n.max(1.0)) / n))
        .collect();
    let steady = model.solve(&sources)?;
    let exact = model.solve_direct_reference(&sources)?;
    let steady_dt = max_abs_dt(steady.raw_temps(), exact.raw_temps());

    // Pinned to Picard, whose iterates the oracle reproduces step for
    // step; Anderson-vs-Picard is `verify fixedpoint`'s job.
    let opts = CoupledOptions {
        tol: Celsius(FIXED_POINT_TOL_C),
        strategy: CoupledStrategy::Picard,
        ..CoupledOptions::default()
    };
    let coupled = solve_coupled(
        model,
        |sol| {
            let scale = sol.map_or(1.0, |s| leakage_scale(s.peak().value()));
            sources.iter().map(|(r, w)| (*r, w * scale)).collect()
        },
        &opts,
    )?;
    assert!(coupled.converged, "leakage fixed point must converge");

    // The oracle: T(s) = T_amb + s·R, iterated on the scalar s.
    let ambient = model.config().ambient.value();
    let rise: Vec<f64> = exact.raw_temps().iter().map(|t| t - ambient).collect();
    let peak_rise = exact.peak().value() - ambient;
    let max_rise = rise.iter().fold(0.0f64, |m, r| m.max(r.abs()));
    let mut scale = 1.0;
    let mut outer = None;
    for it in 1..=opts.max_iter {
        let next = leakage_scale(ambient + scale * peak_rise);
        let delta = (next - scale).abs() * max_rise;
        scale = next;
        if delta <= FIXED_POINT_TOL_C {
            outer = Some(it);
            break;
        }
    }
    let outer_iterations = outer.expect("direct leakage fixed point must converge");
    let fixed_dt = coupled
        .solution
        .raw_temps()
        .iter()
        .zip(&rise)
        .map(|(t, r)| (t - (ambient + scale * r)).abs())
        .fold(0.0, f64::max);
    Ok(SolverCase {
        name,
        max_abs_dt_c: steady_dt.max(fixed_dt),
        ic0_iterations: steady.iterations(),
        outer_iterations,
        outer_match: coupled.outer_iterations == outer_iterations,
    })
}

/// Runs the whole corpus against the direct oracle and returns the
/// per-organization comparison records.
///
/// # Errors
///
/// Propagates thermal build/solve errors — those are regressions of the
/// corpus itself, not oracle measurements.
///
/// # Panics
///
/// Panics if a leakage fixed point fails to converge (contractive by
/// construction).
pub fn solver_equivalence_cases() -> Result<Vec<SolverCase>, ThermalError> {
    corpus()
        .into_iter()
        .map(|(name, layout, stack)| run_case(name, &build(&layout, &stack)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_passes_equivalence_gate() {
        for case in solver_equivalence_cases().unwrap() {
            assert!(
                case.passed(),
                "{}: max|dT| = {:.3e} C, outer {} (match {})",
                case.name,
                case.max_abs_dt_c,
                case.outer_iterations,
                case.outer_match
            );
            // A one-step fixed point would make the outer-count check
            // vacuous.
            assert!(case.outer_iterations >= 2, "{}", case.name);
        }
    }
}
