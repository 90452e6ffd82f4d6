//! The temperature–leakage fixed-point loop.
//!
//! The paper implements a temperature-dependent leakage model and "re-run[s]
//! HotSpot to update the thermal profile until the temperature converges"
//! (Sec. IV). This module provides that outer loop generically: the caller
//! supplies a closure that maps the latest thermal solution to an updated
//! power map (dynamic power + temperature-dependent leakage per core), and
//! the loop iterates to a fixed point or detects thermal runaway.
//!
//! Two strategies drive the iteration:
//!
//! * [`CoupledStrategy::Picard`] — the plain successive-substitution loop,
//!   every inner solve at the model's full PCG tolerance. Byte-for-byte the
//!   pre-acceleration behavior; kept, selectable only in code, as the
//!   independent oracle `verify fixedpoint` compares the default against.
//! * [`CoupledStrategy::Anderson`] (the default) — an inexact outer loop
//!   with Eisenstat–Walker-style adaptive forcing terms plus safeguarded
//!   depth-2 Anderson mixing. Early iterations solve PCG only to a loose
//!   relative tolerance `η_k` (the outer residual is still far from
//!   converged, so extra inner digits are wasted work); `η` tightens
//!   geometrically with the observed contraction,
//!   `η_{k+1} = 0.9·(Δ_k/Δ_{k-1})²`, and is forced to the confirmation
//!   tolerance `tol·1e-4` once `Δ_k ≤ 10·tol`. Convergence is declared on
//!   a confirmation-tolerance solve — whose inexact-solve noise is a
//!   percent of `tol` — and the accepted field is then *polished* by one
//!   warm full-tolerance solve of the same power map, so the returned
//!   field is always a full-accuracy solve and the adaptive path lands on
//!   the same fixed point as the fixed-tolerance path (gated by `verify
//!   fixedpoint`). Anderson mixing
//!   (window 2: one secant pair) extrapolates through the contraction and
//!   typically removes one to two outer iterations; a monotone-residual
//!   safeguard falls back to the plain Picard step whenever the residual
//!   grew, so non-contractive maps cannot be destabilized.

use crate::model::{PackageModel, ThermalError, ThermalSolution};
use crate::sparse::SolveScratch;
use tac25d_floorplan::geometry::Rect;
use tac25d_floorplan::units::Celsius;
use tac25d_obs as obs;

/// Loosest PCG relative tolerance the adaptive forcing schedule may use
/// inside the loop. The inexact-solve error this admits (~0.1 °C of field
/// error on production systems) must stay below the endgame trigger
/// (`ENDGAME_FACTOR·tol`, 0.5 °C in production), or residual measurements
/// near the trigger turn to noise and the loop spends extra outer rounds;
/// measured at 3e-4 the added noise already cost ~15% more outer
/// iterations, while 1e-4 matches the fixed-tolerance path's outer count.
const ETA_LOOSE: f64 = 1e-4;

/// Forcing term for the very first solve of the loop. The cold-start
/// residual dwarfs any inexact-solve noise, so the opening solve can run
/// an order looser than the in-loop floor without touching the outer
/// convergence measurements that follow.
const ETA_FIRST: f64 = 1e-3;

/// Eisenstat–Walker (choice 2) safety factor on the squared contraction
/// ratio.
const EW_GAMMA: f64 = 0.9;

/// Once the outer residual is within this factor of the tolerance, every
/// remaining solve runs at the confirmation tolerance: the next iterate is
/// a convergence candidate, so its inner-solve slack must be small against
/// `tol` (see [`CONFIRM_ETA_PER_TOL`]).
const ENDGAME_FACTOR: f64 = 10.0;

/// Confirmation forcing term as a fraction of the outer tolerance:
/// convergence candidates solve to `η = tol·1e-4`, which keeps the
/// inexact-solve noise in the candidate's outer residual around a percent
/// of `tol` (measured ~1 °C of field error per 1e-3 of relative residual
/// on production systems). Declaring convergence at this tolerance and
/// then *polishing* the accepted field with one warm full-tolerance solve
/// is far cheaper than running every endgame solve at full tolerance —
/// the polish starts microdegrees from its answer.
const CONFIRM_ETA_PER_TOL: f64 = 1e-4;

/// Clamp on the Anderson mixing coefficient. Contractive maps produce
/// γ = q/(q−1) ∈ (−1, 0); the clamp keeps a noisy secant from
/// extrapolating wildly while still allowing useful acceleration.
const ANDERSON_CLAMP: f64 = 2.0;

/// How the coupled loop iterates to its fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoupledStrategy {
    /// Plain successive substitution at full inner tolerance (the legacy
    /// path).
    Picard,
    /// Adaptive-tolerance inner solves + safeguarded Anderson mixing (the
    /// default).
    Anderson,
}

impl CoupledStrategy {
    /// Stable lowercase name (`picard` / `anderson`) for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CoupledStrategy::Picard => "picard",
            CoupledStrategy::Anderson => "anderson",
        }
    }
}

/// Options for the coupled solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledOptions {
    /// Convergence threshold on the maximum per-node temperature change.
    pub tol: Celsius,
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// Peak temperature above which the loop aborts with
    /// [`ThermalError::Runaway`] (a diverging leakage feedback loop).
    pub runaway: Celsius,
    /// Iteration strategy (defaults to [`CoupledStrategy::Anderson`]).
    pub strategy: CoupledStrategy,
    /// Wall-clock instant after which the outer loop aborts with
    /// [`ThermalError::DeadlineExpired`] instead of starting another
    /// iteration. `None` (the default) never aborts. The check sits
    /// *between* outer iterations — an in-flight inner solve always
    /// completes — so the abort leaves no half-updated state and the
    /// iteration count it reports is exact.
    pub deadline: Option<std::time::Instant>,
}

impl Default for CoupledOptions {
    fn default() -> Self {
        CoupledOptions {
            tol: Celsius(0.05),
            max_iter: 60,
            runaway: Celsius(400.0),
            strategy: CoupledStrategy::Anderson,
            deadline: None,
        }
    }
}

/// Whether the options' deadline has passed. Reads the clock only when a
/// deadline is set, so deadline-free callers (every batch driver) pay
/// nothing.
fn deadline_expired(opts: &CoupledOptions) -> bool {
    opts.deadline
        .is_some_and(|d| std::time::Instant::now() >= d)
}

/// Result of a converged (or stagnated) coupled solve.
#[derive(Debug, Clone)]
pub struct CoupledSolution {
    /// The final thermal solution.
    pub solution: ThermalSolution,
    /// Outer (power-update) iterations performed.
    pub outer_iterations: usize,
    /// Total inner PCG iterations across every solve of the loop — the
    /// quantity the adaptive forcing schedule economizes (`verify
    /// fixedpoint` gates the adaptive path on spending no more of these
    /// than the fixed-tolerance path).
    pub inner_iterations: usize,
    /// Whether the temperature change dropped below tolerance.
    pub converged: bool,
}

/// Relative energy-balance error above which a converged coupled solve
/// counts under `thermal.balance_violations`.
pub const BALANCE_TOL: f64 = 1e-6;

/// Iterates `power(T) → solve → power(T) → …` to a fixed point.
///
/// `power_map` receives `None` on the first call (use nominal/initial
/// temperatures) and the latest [`ThermalSolution`] afterwards; it returns
/// the rectangular power sources for the next solve.
///
/// # Errors
///
/// * [`ThermalError::Runaway`] if the peak temperature exceeds
///   `opts.runaway` — with a positive-feedback leakage model this is
///   genuine thermal runaway and the organization is infeasible;
/// * any solver/power error from the inner solves.
pub fn solve_coupled<F>(
    model: &PackageModel,
    power_map: F,
    opts: &CoupledOptions,
) -> Result<CoupledSolution, ThermalError>
where
    F: FnMut(Option<&ThermalSolution>) -> Vec<(Rect, f64)>,
{
    let _span = obs::span!("thermal.leakage_fixed_point");
    obs::counter!("thermal.coupled_solves").inc();
    let result = match opts.strategy {
        CoupledStrategy::Picard => solve_coupled_picard(model, power_map, opts),
        CoupledStrategy::Anderson => solve_coupled_anderson(model, power_map, opts),
    };
    if let Ok(c) = &result {
        obs::counter!("thermal.leakage_outer_iterations").add(c.outer_iterations as u64);
        obs::histogram!("thermal.leakage_outer_iterations_per_solve")
            .record(c.outer_iterations as u64);
        // Post-condition: a converged steady state conserves energy to
        // the solver tolerance (the `verify diff` corpus stays below
        // 1e-9), so a larger imbalance means a broken solve.
        if c.converged && c.solution.energy_balance_error() > BALANCE_TOL {
            obs::counter!("thermal.balance_violations").inc();
        }
    }
    result
}

fn solve_coupled_picard<F>(
    model: &PackageModel,
    mut power_map: F,
    opts: &CoupledOptions,
) -> Result<CoupledSolution, ThermalError>
where
    F: FnMut(Option<&ThermalSolution>) -> Vec<(Rect, f64)>,
{
    assert!(opts.max_iter > 0, "max_iter must be positive");
    if deadline_expired(opts) {
        obs::counter!("thermal.deadline_aborts").inc();
        return Err(ThermalError::DeadlineExpired {
            outer_iterations: 0,
        });
    }
    // One scratch for the whole fixed point: every inner solve reuses the
    // same PCG work vectors, and each iteration warm-starts from the
    // previous temperature field.
    let mut scratch = SolveScratch::new();
    let full_tol = model.config().rel_tol;
    let sources = power_map(None);
    let mut current = model.solve_with_scratch_tol(&sources, None, &mut scratch, full_tol)?;
    let mut inner = current.iterations();
    for it in 1..=opts.max_iter {
        if deadline_expired(opts) {
            obs::counter!("thermal.deadline_aborts").inc();
            return Err(ThermalError::DeadlineExpired {
                outer_iterations: it - 1,
            });
        }
        if current.peak() > opts.runaway {
            return Err(ThermalError::Runaway {
                peak: current.peak(),
            });
        }
        let sources = power_map(Some(&current));
        let next =
            model.solve_with_scratch_tol(&sources, Some(&current), &mut scratch, full_tol)?;
        inner += next.iterations();
        let delta = max_abs_delta(current.raw_temps(), next.raw_temps());
        current = next;
        if delta <= opts.tol.value() {
            return Ok(CoupledSolution {
                solution: current,
                outer_iterations: it,
                inner_iterations: inner,
                converged: true,
            });
        }
    }
    if current.peak() > opts.runaway {
        return Err(ThermalError::Runaway {
            peak: current.peak(),
        });
    }
    Ok(CoupledSolution {
        solution: current,
        outer_iterations: opts.max_iter,
        inner_iterations: inner,
        converged: false,
    })
}

/// The accelerated loop: inexact inner solves with Eisenstat–Walker
/// forcing terms and safeguarded Anderson(window 2) mixing. Converges to
/// the same fixed point as the Picard loop (the convergence candidate is
/// always a full-tolerance solve); `verify fixedpoint` enforces the
/// equivalence.
fn solve_coupled_anderson<F>(
    model: &PackageModel,
    mut power_map: F,
    opts: &CoupledOptions,
) -> Result<CoupledSolution, ThermalError>
where
    F: FnMut(Option<&ThermalSolution>) -> Vec<(Rect, f64)>,
{
    assert!(opts.max_iter > 0, "max_iter must be positive");
    if deadline_expired(opts) {
        obs::counter!("thermal.deadline_aborts").inc();
        return Err(ThermalError::DeadlineExpired {
            outer_iterations: 0,
        });
    }
    let full_tol = model.config().rel_tol;
    let eta_max = ETA_LOOSE.max(full_tol);
    let eta_conv = (opts.tol.value() * CONFIRM_ETA_PER_TOL).clamp(full_tol, eta_max);
    let mut eta = eta_max;
    let mut scratch = SolveScratch::new();
    let sources = power_map(None);
    // `x` is the current outer iterate (possibly an Anderson-mixed field);
    // each round solves g = G(x) and measures the residual f = g − x.
    let mut x =
        model.solve_with_scratch_tol(&sources, None, &mut scratch, ETA_FIRST.max(full_tol))?;
    let mut inner = x.iterations();
    let mut prev_delta = f64::INFINITY;
    // One secant pair of history: (f_{k-1}, g_{k-1}).
    let mut history: Option<(Vec<f64>, Vec<f64>)> = None;
    for it in 1..=opts.max_iter {
        if deadline_expired(opts) {
            obs::counter!("thermal.deadline_aborts").inc();
            return Err(ThermalError::DeadlineExpired {
                outer_iterations: it - 1,
            });
        }
        if x.peak() > opts.runaway {
            return Err(ThermalError::Runaway { peak: x.peak() });
        }
        let sources = power_map(Some(&x));
        let g = model.solve_with_scratch_tol(&sources, Some(&x), &mut scratch, eta)?;
        inner += g.iterations();
        let f: Vec<f64> = g
            .raw_temps()
            .iter()
            .zip(x.raw_temps())
            .map(|(gi, xi)| gi - xi)
            .collect();
        let delta = f.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if delta <= opts.tol.value() && eta <= eta_conv {
            // Accepted: polish the candidate to the full tolerance. The
            // solve repeats `g`'s own linear system (same power map), so
            // it starts within the confirmation slack of its answer and
            // the returned field is a full-accuracy solve — the same
            // contract a full-tolerance candidate would have carried, at
            // a fraction of the endgame cost.
            let solution = if eta <= full_tol {
                g
            } else {
                let polished =
                    model.solve_with_scratch_tol(&sources, Some(&g), &mut scratch, full_tol)?;
                inner += polished.iterations();
                polished
            };
            return Ok(CoupledSolution {
                solution,
                outer_iterations: it,
                inner_iterations: inner,
                converged: true,
            });
        }
        // Eisenstat–Walker choice 2: match the inner tolerance to the
        // observed outer contraction, then force the confirmation
        // tolerance in the endgame so a convergence candidate's residual
        // measurement carries only a small fraction of `tol` in noise.
        eta = if prev_delta.is_finite() && prev_delta > 0.0 && delta > 0.0 {
            (EW_GAMMA * (delta / prev_delta).powi(2)).clamp(full_tol, eta_max)
        } else {
            eta_max
        };
        if delta <= ENDGAME_FACTOR * opts.tol.value() {
            eta = eta_conv;
        }
        // Safeguarded Anderson(window 2) step: mix through the secant only
        // while the residual is shrinking; otherwise take the plain Picard
        // step (and let the fresh history rebuild the secant).
        let mut next = None;
        if delta <= prev_delta {
            if let Some((f_prev, g_prev)) = &history {
                let mut num = 0.0;
                let mut den = 0.0;
                for (fi, fpi) in f.iter().zip(f_prev) {
                    let d = fi - fpi;
                    num += fi * d;
                    den += d * d;
                }
                if den > 0.0 && num.is_finite() {
                    let gamma = (num / den).clamp(-ANDERSON_CLAMP, ANDERSON_CLAMP);
                    let mixed: Vec<f64> = g
                        .raw_temps()
                        .iter()
                        .zip(g_prev)
                        .map(|(gi, gpi)| gi - gamma * (gi - gpi))
                        .collect();
                    obs::counter!("thermal.anderson_accepted").inc();
                    next = Some(model.make_solution(mixed, g.total_power(), 0));
                }
            }
        }
        history = Some((f, g.raw_temps().to_vec()));
        prev_delta = delta;
        x = next.unwrap_or(g);
    }
    if x.peak() > opts.runaway {
        return Err(ThermalError::Runaway { peak: x.peak() });
    }
    Ok(CoupledSolution {
        solution: x,
        outer_iterations: opts.max_iter,
        inner_iterations: inner,
        converged: false,
    })
}

fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PackageModel, ThermalConfig};
    use tac25d_floorplan::chip::ChipSpec;
    use tac25d_floorplan::layers::StackSpec;
    use tac25d_floorplan::organization::{ChipletLayout, PackageRules};

    fn model() -> PackageModel {
        PackageModel::new(
            &ChipSpec::scc_256(),
            &ChipletLayout::SingleChip,
            &PackageRules::default(),
            &StackSpec::baseline_2d(),
            ThermalConfig {
                grid: 16,
                ..ThermalConfig::default()
            },
        )
        .unwrap()
    }

    fn die() -> Rect {
        Rect::from_corner(0.0, 0.0, 18.0, 18.0)
    }

    fn picard_opts() -> CoupledOptions {
        CoupledOptions {
            strategy: CoupledStrategy::Picard,
            ..CoupledOptions::default()
        }
    }

    #[test]
    fn constant_power_converges_immediately() {
        // Pinned to Picard: with temperature-independent power the very
        // first re-solve reproduces the field exactly. (The adaptive path
        // needs one more outer iteration to confirm at full tolerance; see
        // constant_power_converges_quickly_with_anderson.)
        let m = model();
        let r = solve_coupled(&m, |_| vec![(die(), 100.0)], &picard_opts()).unwrap();
        assert!(r.converged);
        assert_eq!(r.outer_iterations, 1);
    }

    #[test]
    fn constant_power_converges_quickly_with_anderson() {
        let m = model();
        let opts = CoupledOptions {
            strategy: CoupledStrategy::Anderson,
            ..CoupledOptions::default()
        };
        let r = solve_coupled(&m, |_| vec![(die(), 100.0)], &opts).unwrap();
        assert!(r.converged);
        assert!(r.outer_iterations <= 3, "{}", r.outer_iterations);
        // And the returned field is the full-tolerance solve, matching the
        // Picard path on the same (temperature-independent) system.
        let picard = solve_coupled(&m, |_| vec![(die(), 100.0)], &picard_opts()).unwrap();
        let max_dt = max_abs_delta(r.solution.raw_temps(), picard.solution.raw_temps());
        assert!(max_dt < 1e-5, "max |dT| = {max_dt:.3e}");
    }

    #[test]
    fn leaky_power_converges_to_higher_temperature() {
        let m = model();
        let base = 150.0;
        // 1%/°C leakage growth above 45 °C — a contractive feedback.
        let coupled = solve_coupled(
            &m,
            |sol| {
                let t = sol.map_or(45.0, |s| s.rect_avg(&die()).value());
                vec![(die(), base * (1.0 + 0.01 * (t - 45.0)))]
            },
            &CoupledOptions::default(),
        )
        .unwrap();
        assert!(coupled.converged);
        assert!(coupled.outer_iterations >= 2);
        let flat = m.solve(&[(die(), base)]).unwrap();
        assert!(coupled.solution.peak() > flat.peak());
    }

    #[test]
    fn contractive_leakage_converges_monotonically() {
        // With a contractive positive feedback started from the cold state,
        // the fixed-point iterates approach the limit from below: each
        // observed die temperature is at least the previous one, and the
        // inter-iterate steps shrink geometrically. Pinned to Picard —
        // monotone approach from below is a successive-substitution
        // property; Anderson's secant extrapolation deliberately jumps
        // ahead of it.
        let m = model();
        let mut observed: Vec<f64> = Vec::new();
        let r = solve_coupled(
            &m,
            |sol| {
                let t = sol.map_or(45.0, |s| s.rect_avg(&die()).value());
                observed.push(t);
                vec![(die(), 180.0 * (1.0 + 0.012 * (t - 45.0)))]
            },
            &CoupledOptions {
                tol: Celsius(0.001),
                ..picard_opts()
            },
        )
        .unwrap();
        assert!(r.converged);
        assert!(observed.len() >= 4, "too few iterates: {observed:?}");
        for w in observed.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "non-monotone iterates: {observed:?}");
        }
        let steps: Vec<f64> = observed.windows(2).map(|w| w[1] - w[0]).collect();
        for w in steps.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "steps must contract: {steps:?}");
        }
        // And the limit is a genuine fixed point: re-solving with the
        // converged temperature's power map reproduces the solution.
        let t_final = r.solution.rect_avg(&die()).value();
        let re = m
            .solve(&[(die(), 180.0 * (1.0 + 0.012 * (t_final - 45.0)))])
            .unwrap();
        assert!((re.peak().value() - r.solution.peak().value()).abs() < 0.05);
    }

    #[test]
    fn anderson_matches_picard_fixed_point() {
        // The tentpole contract, in miniature: at a tight outer tolerance
        // both strategies land on the same fixed point (the adaptive path
        // always returns a full-tolerance solve), and Anderson does not
        // spend more outer iterations than Picard.
        let m = PackageModel::new(
            &ChipSpec::scc_256(),
            &ChipletLayout::SingleChip,
            &PackageRules::default(),
            &StackSpec::baseline_2d(),
            ThermalConfig {
                grid: 16,
                rel_tol: 1e-11,
                ..ThermalConfig::default()
            },
        )
        .unwrap();
        let run = |strategy: CoupledStrategy| {
            solve_coupled(
                &m,
                |sol| {
                    let t = sol.map_or(45.0, |s| s.rect_avg(&die()).value());
                    vec![(die(), 180.0 * (1.0 + 0.012 * (t - 45.0)))]
                },
                &CoupledOptions {
                    tol: Celsius(1e-6),
                    strategy,
                    ..CoupledOptions::default()
                },
            )
            .unwrap()
        };
        let picard = run(CoupledStrategy::Picard);
        let anderson = run(CoupledStrategy::Anderson);
        assert!(picard.converged && anderson.converged);
        assert!(
            anderson.outer_iterations <= picard.outer_iterations,
            "anderson {} vs picard {}",
            anderson.outer_iterations,
            picard.outer_iterations
        );
        let max_dt = max_abs_delta(anderson.solution.raw_temps(), picard.solution.raw_temps());
        assert!(
            max_dt < 1e-6,
            "fixed points diverge: max |dT| = {max_dt:.3e}"
        );
    }

    #[test]
    fn tighter_tolerance_needs_more_iterations() {
        let m = model();
        let run = |tol: f64| {
            solve_coupled(
                &m,
                |sol| {
                    let t = sol.map_or(45.0, |s| s.rect_avg(&die()).value());
                    vec![(die(), 180.0 * (1.0 + 0.012 * (t - 45.0)))]
                },
                &CoupledOptions {
                    tol: Celsius(tol),
                    ..CoupledOptions::default()
                },
            )
            .unwrap()
        };
        let loose = run(0.5);
        let tight = run(0.0005);
        assert!(loose.converged && tight.converged);
        assert!(
            tight.outer_iterations >= loose.outer_iterations,
            "{} < {}",
            tight.outer_iterations,
            loose.outer_iterations
        );
        // Both bracket the same fixed point.
        assert!((tight.solution.peak().value() - loose.solution.peak().value()).abs() < 1.0);
    }

    #[test]
    fn runaway_detected() {
        let m = model();
        // Absurd 40%/°C feedback: guaranteed divergence.
        let err = solve_coupled(
            &m,
            |sol| {
                let t = sol.map_or(45.0, |s| s.rect_avg(&die()).value());
                vec![(die(), 200.0 * (1.0 + 0.4 * (t - 45.0)))]
            },
            &CoupledOptions {
                max_iter: 100,
                ..CoupledOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ThermalError::Runaway { .. }), "{err}");
    }

    #[test]
    fn non_convergence_reported_without_error() {
        let m = model();
        let mut flip = false;
        // Oscillating power: never converges, but stays bounded — the
        // Anderson safeguard must not let the secant destabilize it.
        let r = solve_coupled(
            &m,
            |_| {
                flip = !flip;
                vec![(die(), if flip { 100.0 } else { 140.0 })]
            },
            &CoupledOptions {
                max_iter: 5,
                ..CoupledOptions::default()
            },
        )
        .unwrap();
        assert!(!r.converged);
        assert_eq!(r.outer_iterations, 5);
        assert!(r.solution.peak().value().is_finite());
    }

    #[test]
    fn strategy_names() {
        assert_eq!(CoupledStrategy::Picard.name(), "picard");
        assert_eq!(CoupledStrategy::Anderson.name(), "anderson");
    }

    #[test]
    fn expired_deadline_aborts_before_any_solve() {
        let m = model();
        for strategy in [CoupledStrategy::Picard, CoupledStrategy::Anderson] {
            let mut calls = 0usize;
            let err = solve_coupled(
                &m,
                |_| {
                    calls += 1;
                    vec![(die(), 100.0)]
                },
                &CoupledOptions {
                    deadline: Some(std::time::Instant::now() - std::time::Duration::from_secs(1)),
                    strategy,
                    ..CoupledOptions::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    ThermalError::DeadlineExpired {
                        outer_iterations: 0
                    }
                ),
                "{err}"
            );
            assert_eq!(
                calls, 0,
                "no power map evaluation after an expired deadline"
            );
        }
    }

    #[test]
    fn generous_deadline_does_not_perturb_the_solve() {
        let m = model();
        let map = |sol: Option<&ThermalSolution>| {
            let t = sol.map_or(45.0, |s| s.rect_avg(&die()).value());
            vec![(die(), 150.0 * (1.0 + 0.01 * (t - 45.0)))]
        };
        let plain = solve_coupled(&m, map, &picard_opts()).unwrap();
        let with_deadline = solve_coupled(
            &m,
            map,
            &CoupledOptions {
                deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
                ..picard_opts()
            },
        )
        .unwrap();
        assert!(plain.converged && with_deadline.converged);
        assert_eq!(plain.outer_iterations, with_deadline.outer_iterations);
        let max_dt = max_abs_delta(
            plain.solution.raw_temps(),
            with_deadline.solution.raw_temps(),
        );
        assert_eq!(max_dt, 0.0, "deadline must not change the arithmetic");
    }
}
