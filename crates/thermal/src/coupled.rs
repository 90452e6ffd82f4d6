//! The temperature–leakage fixed point, solved as one linear system.
//!
//! The paper implements a temperature-dependent leakage model and "re-run[s]
//! HotSpot to update the thermal profile until the temperature converges"
//! (Sec. IV). That fixed point is linear. Each source's power is affine in
//! the mean die temperature over its rectangle, `pᵢ(T) = p₀ᵢ + βᵢ·vᵢᵀT`,
//! where `vᵢ` holds the rectangle's cell-overlap weights
//! ([`overlap_weights`]) normalized to sum to one; and the source's watts
//! enter the die layer over the same cells with the same weights. The
//! converged field therefore solves
//!
//! ```text
//! (G − Σᵢ βᵢ·vᵢ·vᵢᵀ) · T = b_amb + Σᵢ p₀ᵢ·vᵢ
//! ```
//!
//! with `G` the package conductance matrix and `b_amb` its ambient boundary
//! terms. The operator is symmetric, and it is positive definite exactly
//! when successive substitution (re-solving with updated powers) contracts:
//! both say `ρ(G⁻¹·Σᵢ βᵢ·vᵢ·vᵢᵀ) < 1`. Loss of definiteness is thermal
//! runaway. [`solve_coupled`] runs one PCG solve on that operator,
//! preconditioned by the model's IC(0) factor of `G` (the feedback term is
//! small and low-rank, so no new factor is built) and started from the
//! ambient field, like every solve of a model.

use crate::layered::LayeredMatrix;
use crate::model::{PackageModel, ThermalError, ThermalSolution};
use crate::sparse::{cholesky_solve, LinearOperator, SolveError};
use tac25d_floorplan::geometry::Rect;
use tac25d_floorplan::raster::overlap_weights;
use tac25d_floorplan::units::Celsius;
use tac25d_obs as obs;

/// A rectangular heat source whose power is affine in its own mean die
/// temperature: `p₀ + dp_dt · t` watts at mean temperature `t` °C.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineSource {
    /// The source rectangle, in footprint coordinates.
    pub rect: Rect,
    /// Watts extrapolated to 0 °C.
    pub p0: f64,
    /// Watts per °C of the rectangle's mean die temperature (≥ 0).
    pub dp_dt: f64,
}

impl AffineSource {
    /// A temperature-independent source of `watts`.
    pub fn constant(rect: Rect, watts: f64) -> Self {
        AffineSource {
            rect,
            p0: watts,
            dp_dt: 0.0,
        }
    }

    /// The source's power at mean temperature `t`.
    pub fn power_at(&self, t: Celsius) -> f64 {
        self.p0 + self.dp_dt * t.value()
    }
}

/// Options for the coupled solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoupledOptions {
    /// Peak temperature above which the steady state counts as
    /// [`ThermalError::Runaway`].
    pub runaway: Celsius,
    /// Wall-clock instant after which the solve is refused with
    /// [`ThermalError::DeadlineExpired`]. `None` (the default) never
    /// refuses. Checked once, before the solve: an in-flight solve always
    /// completes.
    pub deadline: Option<std::time::Instant>,
}

impl Default for CoupledOptions {
    fn default() -> Self {
        CoupledOptions {
            runaway: Celsius(400.0),
            deadline: None,
        }
    }
}

/// Relative energy-balance error above which a coupled solve counts under
/// `thermal.balance_violations`.
pub const BALANCE_TOL: f64 = 1e-6;

/// How far below ambient a solved field may dip before it counts as the
/// solution of an indefinite operator. A positive-definite operator with
/// sources non-negative at ambient keeps every node at or above ambient,
/// so only solver noise (far below a millidegree) may show here.
const BELOW_AMBIENT_SLACK_C: f64 = 1e-3;

/// Solves the leakage-coupled steady state of `sources` in one PCG solve.
///
/// # Errors
///
/// * [`ThermalError::Runaway`] when the feedback makes the operator
///   indefinite (PCG meets `pᵀAp ≤ 0`, or the solved field dips below
///   ambient, which only an indefinite operator allows), or when the
///   steady-state peak exceeds `opts.runaway`;
/// * [`ThermalError::InvalidPower`] for non-finite coefficients, a
///   negative `dp_dt`, negative power at ambient, or a powered rectangle
///   outside the footprint;
/// * [`ThermalError::DeadlineExpired`] when `opts.deadline` has passed;
/// * [`ThermalError::Solve`] if PCG fails otherwise.
pub fn solve_coupled(
    model: &PackageModel,
    sources: &[AffineSource],
    opts: &CoupledOptions,
) -> Result<ThermalSolution, ThermalError> {
    let _span = obs::span!("thermal.leakage_fixed_point");
    obs::counter!("thermal.coupled_solves").inc();
    if opts
        .deadline
        .is_some_and(|d| std::time::Instant::now() >= d)
    {
        obs::counter!("thermal.deadline_aborts").inc();
        return Err(ThermalError::DeadlineExpired);
    }
    let system = CoupledSystem::assemble(model, sources)?;
    let op = CoupledOperator {
        g: &model.network().matrix,
        feedback: &system.feedback,
    };
    let sol = match model.run_pcg(&op, &system.b) {
        Err(SolveError::NotPositiveDefinite) => return Err(unbounded()),
        other => other?,
    };
    let solution = system.finish(model, sol.x, sol.iterations, opts)?;
    // Post-condition: a steady state conserves energy to the solver
    // tolerance (the `verify diff` corpus stays below 1e-9), so a larger
    // imbalance means a broken solve.
    if solution.energy_balance_error() > BALANCE_TOL {
        obs::counter!("thermal.balance_violations").inc();
    }
    Ok(solution)
}

/// [`solve_coupled`]'s system solved exactly by envelope Cholesky — the
/// oracle `verify solver` and the tests check the PCG solve against. The
/// feedback terms couple only cells inside one source rectangle, so they
/// widen the envelope by at most a rectangle's height in raster lines.
///
/// # Errors
///
/// Same contract as [`solve_coupled`] (a non-positive pivot is runaway).
#[doc(hidden)]
pub fn solve_coupled_direct(
    model: &PackageModel,
    sources: &[AffineSource],
    opts: &CoupledOptions,
) -> Result<ThermalSolution, ThermalError> {
    let system = CoupledSystem::assemble(model, sources)?;
    let mut entries = Vec::new();
    for f in &system.feedback {
        for &(i, wi) in &f.nodes {
            for &(j, wj) in &f.nodes {
                entries.push((i, j, -f.beta * wi * wj));
            }
        }
    }
    let a = model.network().matrix.to_csr().with_added_entries(&entries);
    let x = match cholesky_solve(&a, &system.b) {
        Err(SolveError::NotPositiveDefinite) => return Err(unbounded()),
        other => other?,
    };
    system.finish(model, x, 0, opts)
}

/// The runaway verdict for a feedback loop with no steady state.
fn unbounded() -> ThermalError {
    ThermalError::Runaway {
        peak: Celsius(f64::INFINITY),
    }
}

/// One temperature-dependent source's term `β·v·vᵀ`, on die-layer nodes.
#[derive(Debug, Clone)]
struct Feedback {
    beta: f64,
    /// `(node, weight)` pairs, weights summing to one.
    nodes: Vec<(usize, f64)>,
}

impl Feedback {
    /// The rectangle's mean temperature `vᵀx`.
    fn mean(&self, x: &[f64]) -> f64 {
        self.nodes.iter().map(|&(i, w)| w * x[i]).sum()
    }
}

/// The assembled right-hand side and feedback terms of one coupled solve.
struct CoupledSystem {
    b: Vec<f64>,
    feedback: Vec<Feedback>,
    /// Total `p₀` over all sources.
    base_watts: f64,
}

impl CoupledSystem {
    fn assemble(model: &PackageModel, sources: &[AffineSource]) -> Result<Self, ThermalError> {
        let net = model.network();
        let n = model.config().grid;
        let fp = model.footprint_edge();
        let fp_rect = Rect::from_corner(0.0, 0.0, fp.value(), fp.value());
        let ambient = model.config().ambient;
        let (mut b, _) = model.rhs_for(&[])?;
        let mut feedback = Vec::new();
        let mut base_watts = 0.0;
        for s in sources {
            let invalid = |what: &str| ThermalError::InvalidPower {
                reason: format!("{what} for source {s:?}"),
            };
            if !s.p0.is_finite() || !s.dp_dt.is_finite() {
                return Err(invalid("non-finite coefficients"));
            }
            if s.dp_dt < 0.0 {
                return Err(invalid("negative dp/dT"));
            }
            if s.power_at(ambient) < 0.0 {
                return Err(invalid("negative power at ambient"));
            }
            if s.p0 == 0.0 && s.dp_dt == 0.0 {
                continue;
            }
            if !fp_rect.contains_rect(&s.rect) || s.rect.area().value() <= 0.0 {
                return Err(invalid(&format!("rectangle outside footprint {fp_rect:?}")));
            }
            let cells = overlap_weights(fp, n, n, &s.rect);
            let area: f64 = cells.iter().map(|&(_, a)| a).sum();
            let nodes: Vec<(usize, f64)> = cells
                .into_iter()
                .map(|(cell, a)| (net.die_base + cell, a / area))
                .collect();
            for &(i, w) in &nodes {
                b[i] += s.p0 * w;
            }
            base_watts += s.p0;
            if s.dp_dt > 0.0 {
                feedback.push(Feedback {
                    beta: s.dp_dt,
                    nodes,
                });
            }
        }
        Ok(CoupledSystem {
            b,
            feedback,
            base_watts,
        })
    }

    /// Wraps a solved field, or reports it as runaway: below ambient (only
    /// an indefinite operator allows that) or above the runaway cap.
    fn finish(
        &self,
        model: &PackageModel,
        x: Vec<f64>,
        iterations: usize,
        opts: &CoupledOptions,
    ) -> Result<ThermalSolution, ThermalError> {
        let floor = model.config().ambient.value() - BELOW_AMBIENT_SLACK_C;
        if x.iter().any(|&t| t < floor) {
            return Err(unbounded());
        }
        let feedback_watts: f64 = self.feedback.iter().map(|f| f.beta * f.mean(&x)).sum();
        let solution = model.make_solution(x, self.base_watts + feedback_watts, iterations);
        if solution.peak() > opts.runaway {
            return Err(ThermalError::Runaway {
                peak: solution.peak(),
            });
        }
        Ok(solution)
    }
}

/// `G − Σᵢ βᵢ·vᵢ·vᵢᵀ`: the banded conductance matrix minus the leakage
/// feedback terms.
struct CoupledOperator<'a> {
    g: &'a LayeredMatrix,
    feedback: &'a [Feedback],
}

impl CoupledOperator<'_> {
    /// `y −= Σᵢ βᵢ·vᵢ·(vᵢᵀx)`; returns `Σᵢ βᵢ·(vᵢᵀx)²`, the feedback's
    /// share of `xᵀAx`.
    fn subtract_feedback(&self, x: &[f64], y: &mut [f64]) -> f64 {
        let mut energy = 0.0;
        for f in self.feedback {
            let s = f.mean(x);
            for &(i, w) in &f.nodes {
                y[i] -= f.beta * s * w;
            }
            energy += f.beta * s * s;
        }
        energy
    }
}

impl LinearOperator for CoupledOperator<'_> {
    fn dim(&self) -> usize {
        self.g.dim()
    }

    fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        self.g.mul_vec(x, y);
        self.subtract_feedback(x, y);
    }

    fn mul_vec_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        let gxx = self.g.mul_vec_dot(x, y);
        gxx - self.subtract_feedback(x, y)
    }

    fn diagonal(&self) -> Vec<f64> {
        let mut d = self.g.diagonal();
        for f in self.feedback {
            for &(i, w) in &f.nodes {
                d[i] -= f.beta * w * w;
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{PackageModel, ThermalConfig};
    use tac25d_floorplan::chip::ChipSpec;
    use tac25d_floorplan::layers::StackSpec;
    use tac25d_floorplan::organization::{ChipletLayout, PackageRules};

    fn model_with(rel_tol: f64) -> PackageModel {
        PackageModel::new(
            &ChipSpec::scc_256(),
            &ChipletLayout::SingleChip,
            &PackageRules::default(),
            &StackSpec::baseline_2d(),
            ThermalConfig {
                grid: 16,
                rel_tol,
                ..ThermalConfig::default()
            },
        )
        .unwrap()
    }

    fn model() -> PackageModel {
        model_with(ThermalConfig::default().rel_tol)
    }

    fn die() -> Rect {
        Rect::from_corner(0.0, 0.0, 18.0, 18.0)
    }

    /// `base · (1 + slope · (T − 45))` over the whole die.
    fn leaky(base: f64, slope: f64) -> AffineSource {
        AffineSource {
            rect: die(),
            p0: base * (1.0 - slope * 45.0),
            dp_dt: base * slope,
        }
    }

    fn max_abs_delta(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// Die-mean temperature rise per watt of a uniform die source, and
    /// the slope at which a source of `base` watts makes the coupled
    /// operator singular (`β·vᵀG⁻¹v = 1`).
    fn critical_slope(m: &PackageModel, base: f64) -> f64 {
        let unit = m.solve(&[(die(), 1.0)]).unwrap();
        let rise_per_watt = unit.rect_avg(&die()).value() - 45.0;
        1.0 / (rise_per_watt * base)
    }

    #[test]
    fn constant_power_converges_immediately() {
        // With temperature-independent power there is no feedback term:
        // the coupled solve is exactly one cold PCG solve on `G`, with the
        // same iterations and the same field.
        let m = model();
        let sources = [AffineSource::constant(die(), 100.0)];
        let r = solve_coupled(&m, &sources, &CoupledOptions::default()).unwrap();
        let system = CoupledSystem::assemble(&m, &sources).unwrap();
        assert!(system.feedback.is_empty());
        let cold = m.run_pcg(&m.network().matrix, &system.b).unwrap();
        assert_eq!(r.iterations(), cold.iterations);
        assert_eq!(r.raw_temps(), &cold.x[..]);
    }

    #[test]
    fn constant_power_matches_the_plain_solve() {
        // With temperature-independent power the coupled solve is the
        // plain steady solve of the same sources.
        let m = model();
        let r = solve_coupled(
            &m,
            &[AffineSource::constant(die(), 100.0)],
            &CoupledOptions::default(),
        )
        .unwrap();
        let plain = m.solve(&[(die(), 100.0)]).unwrap();
        let max_dt = max_abs_delta(r.raw_temps(), plain.raw_temps());
        assert!(max_dt < 1e-5, "max |dT| = {max_dt:.3e}");
        assert!((r.total_power() - 100.0).abs() < 1e-12);
    }

    #[test]
    fn leaky_power_converges_to_higher_temperature() {
        let m = model();
        let base = 150.0;
        // 1%/°C leakage growth above 45 °C — a contractive feedback.
        let coupled = solve_coupled(&m, &[leaky(base, 0.01)], &CoupledOptions::default()).unwrap();
        let flat = m.solve(&[(die(), base)]).unwrap();
        assert!(coupled.peak() > flat.peak());
        assert!(coupled.total_power() > base);
        assert!(coupled.energy_balance_error() < BALANCE_TOL);
    }

    #[test]
    fn contractive_leakage_converges_monotonically() {
        // Successive substitution — re-solve with the powers of the last
        // field, the paper's loop — started from the cold state rises
        // monotonically with contracting steps, and its limit is the one
        // solve's field.
        let m = model_with(1e-11);
        let src = leaky(180.0, 0.012);
        let exact = solve_coupled(&m, &[src], &CoupledOptions::default()).unwrap();
        let mut t = 45.0;
        let mut observed = vec![t];
        for _ in 0..60 {
            let field = m.solve(&[(die(), src.power_at(Celsius(t)))]).unwrap();
            t = field.rect_avg(&die()).value();
            observed.push(t);
        }
        for w in observed.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "non-monotone iterates: {observed:?}");
        }
        let steps: Vec<f64> = observed.windows(2).map(|w| w[1] - w[0]).collect();
        for w in steps.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "steps must contract: {steps:?}");
        }
        let limit = exact.rect_avg(&die()).value();
        assert!(
            (t - limit).abs() < 1e-6,
            "Picard limit {t} vs one solve {limit}"
        );
    }

    #[test]
    fn one_solve_matches_the_direct_oracle() {
        let m = model_with(1e-11);
        let die = die();
        let half = Rect::from_corner(0.0, 0.0, 9.0, 18.0);
        let sources = [
            leaky(120.0, 0.012),
            AffineSource {
                rect: half,
                p0: 10.0,
                dp_dt: 0.5,
            },
            AffineSource::constant(die, 20.0),
        ];
        let opts = CoupledOptions::default();
        let pcg = solve_coupled(&m, &sources, &opts).unwrap();
        let direct = solve_coupled_direct(&m, &sources, &opts).unwrap();
        let max_dt = max_abs_delta(pcg.raw_temps(), direct.raw_temps());
        assert!(max_dt < 1e-6, "max |dT| = {max_dt:.3e}");
        assert!((pcg.total_power() - direct.total_power()).abs() < 1e-6);
    }

    #[test]
    fn tighter_tolerance_needs_more_iterations() {
        let run = |tol: f64| {
            solve_coupled(
                &model_with(tol),
                &[leaky(180.0, 0.012)],
                &CoupledOptions::default(),
            )
            .unwrap()
        };
        let loose = run(1e-4);
        let tight = run(1e-10);
        assert!(
            tight.iterations() > loose.iterations(),
            "{} <= {}",
            tight.iterations(),
            loose.iterations()
        );
        // Both bracket the same fixed point.
        assert!((tight.peak().value() - loose.peak().value()).abs() < 0.1);
    }

    #[test]
    fn runaway_detected() {
        let m = model();
        // Absurd 40%/°C feedback: no steady state exists.
        let err = solve_coupled(&m, &[leaky(200.0, 0.4)], &CoupledOptions::default()).unwrap_err();
        assert!(matches!(err, ThermalError::Runaway { .. }), "{err}");
        let err =
            solve_coupled_direct(&m, &[leaky(200.0, 0.4)], &CoupledOptions::default()).unwrap_err();
        assert!(matches!(err, ThermalError::Runaway { .. }), "{err}");
    }

    #[test]
    fn feedback_just_past_definiteness_is_runaway() {
        // Just below the critical slope the steady state exists and is
        // hot; just above, the operator is indefinite and its solution
        // would lie below ambient — that must surface as runaway, never as
        // a field.
        let m = model();
        let base = 100.0;
        let critical = critical_slope(&m, base);
        let below = CoupledOptions {
            runaway: Celsius(f64::INFINITY),
            ..CoupledOptions::default()
        };
        let hot = solve_coupled(&m, &[leaky(base, 0.95 * critical)], &below).unwrap();
        assert!(hot.peak().value() > 45.0);
        for factor in [1.01, 1.1, 2.0] {
            let err = solve_coupled(&m, &[leaky(base, factor * critical)], &below).unwrap_err();
            assert!(
                matches!(err, ThermalError::Runaway { .. }),
                "{factor}x critical: {err}"
            );
        }
    }

    #[test]
    fn runaway_cap_applies_to_the_steady_state() {
        // A contractive feedback whose steady state is past the cap.
        let m = model();
        let critical = critical_slope(&m, 100.0);
        let err = solve_coupled(
            &m,
            &[leaky(100.0, 0.99 * critical)],
            &CoupledOptions::default(),
        )
        .unwrap_err();
        match err {
            ThermalError::Runaway { peak } => assert!(peak.value() > 400.0, "{peak}"),
            other => panic!("expected runaway, got {other}"),
        }
    }

    #[test]
    fn pcg_budget_exhaustion_is_a_typed_error() {
        let m = PackageModel::new(
            &ChipSpec::scc_256(),
            &ChipletLayout::SingleChip,
            &PackageRules::default(),
            &StackSpec::baseline_2d(),
            ThermalConfig {
                grid: 16,
                max_iter: 2,
                ..ThermalConfig::default()
            },
        )
        .unwrap();
        let err = solve_coupled(&m, &[leaky(150.0, 0.01)], &CoupledOptions::default()).unwrap_err();
        assert!(
            matches!(err, ThermalError::Solve(SolveError::NoConvergence { .. })),
            "{err}"
        );
    }

    #[test]
    fn invalid_sources_are_rejected() {
        let m = model();
        let outside = Rect::from_corner(17.0, 17.0, 5.0, 5.0);
        for bad in [
            AffineSource::constant(outside, 5.0),
            AffineSource::constant(die(), f64::NAN),
            AffineSource {
                rect: die(),
                p0: 10.0,
                dp_dt: -0.1,
            },
            AffineSource {
                rect: die(),
                p0: -100.0,
                dp_dt: 1.0,
            },
        ] {
            let err = solve_coupled(&m, &[bad], &CoupledOptions::default()).unwrap_err();
            assert!(
                matches!(err, ThermalError::InvalidPower { .. }),
                "{bad:?}: {err}"
            );
        }
    }

    #[test]
    fn expired_deadline_aborts_before_any_solve() {
        let m = model();
        let err = solve_coupled(
            &m,
            &[leaky(100.0, 0.01)],
            &CoupledOptions {
                deadline: Some(std::time::Instant::now() - std::time::Duration::from_secs(1)),
                ..CoupledOptions::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, ThermalError::DeadlineExpired), "{err}");
    }

    #[test]
    fn generous_deadline_does_not_perturb_the_solve() {
        let m = model();
        let src = [leaky(150.0, 0.01)];
        let plain = solve_coupled(&m, &src, &CoupledOptions::default()).unwrap();
        let with_deadline = solve_coupled(
            &m,
            &src,
            &CoupledOptions {
                deadline: Some(std::time::Instant::now() + std::time::Duration::from_secs(3600)),
                ..CoupledOptions::default()
            },
        )
        .unwrap();
        let max_dt = max_abs_delta(plain.raw_temps(), with_deadline.raw_temps());
        assert_eq!(max_dt, 0.0, "deadline must not change the arithmetic");
    }
}
