//! Solver oracle gate: the production solves (IC(0)-preconditioned PCG
//! started from the ambient field) must reproduce the exact fields of a
//! direct envelope-Cholesky factorization on representative package
//! models.
//!
//! The corpus — a 2D single chip, a uniform 4×4 2.5D organization and the
//! symmetric 4-chiplet organization — runs at a tight PCG tolerance
//! (`SOLVER_REL_TOL`) through two sections:
//!
//! * **steady**: a fixed-power solve against
//!   [`PackageModel::solve_direct_reference`];
//! * **coupled**: the temperature–leakage steady state ([`solve_coupled`])
//!   with every source growing 1.2 %/°C of its own mean temperature above
//!   45 °C, against [`solve_coupled_direct`], the Cholesky solve of the
//!   same leakage-modified matrix.
//!
//! At that tolerance the iterative fields sit within a residual of the
//! exact ones, so they must agree to within [`MAX_SOLVER_DT_C`]
//! (1e-6 °C); a larger gap means the production path changed the
//! *answer*.

use tac25d_floorplan::chip::ChipSpec;
use tac25d_floorplan::layers::StackSpec;
use tac25d_floorplan::organization::{ChipletLayout, PackageRules};
use tac25d_floorplan::units::Mm;
use tac25d_thermal::coupled::{solve_coupled, solve_coupled_direct, AffineSource, CoupledOptions};
use tac25d_thermal::model::{PackageModel, ThermalConfig, ThermalError};

/// Maximum tolerated |ΔT| between the production path and the direct
/// oracle, in °C.
pub const MAX_SOLVER_DT_C: f64 = 1e-6;

/// PCG relative tolerance for the oracle runs. The production tolerance
/// (1e-8/1e-9) only bounds the *residual*; field agreement with the exact
/// solve needs PCG converged far below the 1e-6 °C comparison threshold.
pub const SOLVER_REL_TOL: f64 = 1e-11;

/// Leakage growth of every corpus source, per °C above 45 °C.
const LEAKAGE_SLOPE: f64 = 0.012;

/// One organization's comparison against the direct oracle.
#[derive(Debug, Clone)]
pub struct SolverCase {
    /// Corpus point name.
    pub name: &'static str,
    /// Max |ΔT| over every node of the steady solve *and* every node of
    /// the coupled steady state.
    pub max_abs_dt_c: f64,
    /// PCG iterations of the production steady solve.
    pub ic0_iterations: usize,
    /// PCG iterations of the production coupled solve.
    pub coupled_iterations: usize,
    /// How far the leakage feedback lifts the peak above the steady
    /// solve of the same sources at 45 °C — the size of the effect the
    /// coupled section checks.
    pub leakage_rise_c: f64,
}

impl SolverCase {
    /// Whether the case satisfies the oracle contract.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.max_abs_dt_c <= MAX_SOLVER_DT_C
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

    // The same watts at 45 °C, each growing with its own mean temperature.
    let affine: Vec<AffineSource> = sources
        .iter()
        .map(|&(rect, w)| AffineSource {
            rect,
            p0: w * (1.0 - LEAKAGE_SLOPE * 45.0),
            dp_dt: w * LEAKAGE_SLOPE,
        })
        .collect();
    let opts = CoupledOptions::default();
    let coupled = solve_coupled(model, &affine, &opts)?;
    let coupled_exact = solve_coupled_direct(model, &affine, &opts)?;
    let coupled_dt = max_abs_dt(coupled.raw_temps(), coupled_exact.raw_temps());
    Ok(SolverCase {
        name,
        max_abs_dt_c: steady_dt.max(coupled_dt),
        ic0_iterations: steady.iterations(),
        coupled_iterations: coupled.iterations(),
        leakage_rise_c: coupled.peak().value() - steady.peak().value(),
    })
}

/// Runs the whole corpus against the direct oracle and returns the
/// per-organization comparison records.
///
/// # Errors
///
/// Propagates thermal build/solve errors — those are regressions of the
/// corpus itself, not oracle measurements.
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
                "{}: max|dT| = {:.3e} C",
                case.name,
                case.max_abs_dt_c
            );
            // Without a visible leakage effect the coupled comparison
            // would be vacuous.
            assert!(case.leakage_rise_c > 1.0, "{}", case.name);
        }
    }
}
