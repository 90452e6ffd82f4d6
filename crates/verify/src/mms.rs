//! Method-of-manufactured-solutions (MMS) harness for the thermal solver.
//!
//! The finite-volume network of `tac25d-thermal` cannot be compared against
//! arbitrary closed-form PDE solutions — but three families of analytic
//! references exercise every term of the discretization:
//!
//! 1. **Cosine fin modes** (lateral conduction + convection). A single
//!    convecting slab discretizes the screened Poisson equation
//!    `−k·t·∇²T + h·T = q″` with insulated lateral walls. The manufactured
//!    field `T(x,y) = A·cos(mπx/L)·cos(lπy/L)` satisfies the walls exactly;
//!    injecting the matching source `q″ = (k·t·λ + h)·T` and solving must
//!    reproduce `T` up to the O(Δx²) eigenvalue defect of the 5-point
//!    stencil. Grid refinement therefore shows second-order convergence —
//!    the harness measures the *observed* order.
//! 2. **1D resistance chains** (vertical conduction + convection). Uniform
//!    power through a layered slab has the closed form
//!    `ΔT = p·(R_conv + Σ R_half-layers)`, exact at any resolution.
//! 3. **Energy balance** (boundary accounting). Injected power must leave
//!    through the sink and the secondary board path, with the split given
//!    by the parallel 1D path resistances.
//!
//! All cases run through [`tac25d_thermal::slab`], the crate's public
//! source-injection / grid-refinement hooks.

use std::f64::consts::PI;
use tac25d_floorplan::layers::LayerRole;
use tac25d_thermal::slab::{SlabLayer, SlabModel, SlabStack};

/// Solver settings shared by every MMS solve: tight enough that the
/// discretization error dominates the algebraic error at all tested grids.
const REL_TOL: f64 = 1e-12;
const MAX_ITER: usize = 200_000;

/// One grid refinement of an MMS case.
#[derive(Debug, Clone, Copy)]
pub struct MmsSample {
    /// Grid cells per side.
    pub n: usize,
    /// Cell pitch, metres.
    pub dx_m: f64,
    /// Maximum absolute error against the manufactured field, kelvin.
    pub max_abs_err: f64,
    /// Root-mean-square error, kelvin.
    pub rms_err: f64,
}

/// The cosine-mode fin case: a single convecting slab with a manufactured
/// `A·cos(mπx/L)·cos(lπy/L)` temperature field.
#[derive(Debug, Clone, Copy)]
pub struct FinCase {
    /// Slab edge, metres.
    pub edge_m: f64,
    /// Slab thickness, metres.
    pub thickness_m: f64,
    /// Conductivity, W/(m·K).
    pub k: f64,
    /// Heat-transfer coefficient, W/(m²·K).
    pub htc: f64,
    /// Mode numbers (m, l) of the manufactured cosine field.
    pub modes: (usize, usize),
    /// Field amplitude, kelvin.
    pub amplitude: f64,
}

impl Default for FinCase {
    fn default() -> Self {
        // Conduction-dominated (k·t·λ ≫ h) so the eigenvalue defect of the
        // stencil — the term that converges at second order — dominates
        // the error.
        FinCase {
            edge_m: 0.02,
            thickness_m: 0.001,
            k: 100.0,
            htc: 1000.0,
            modes: (3, 2),
            amplitude: 10.0,
        }
    }
}

impl FinCase {
    /// The manufactured temperature at a point (rise over ambient, K).
    pub fn manufactured(&self, x: f64, y: f64) -> f64 {
        let (m, l) = self.modes;
        self.amplitude
            * (m as f64 * PI * x / self.edge_m).cos()
            * (l as f64 * PI * y / self.edge_m).cos()
    }

    /// The continuous eigenvalue `λ = (mπ/L)² + (lπ/L)²` of the mode.
    pub fn lambda(&self) -> f64 {
        let (m, l) = self.modes;
        let km = m as f64 * PI / self.edge_m;
        let kl = l as f64 * PI / self.edge_m;
        km * km + kl * kl
    }

    /// Solves the case at resolution `n` and returns the error sample.
    ///
    /// # Panics
    ///
    /// Panics if the linear solver fails (tolerances are fixed well below
    /// the discretization error, so this indicates a solver bug).
    pub fn solve(&self, n: usize) -> MmsSample {
        let (model, field, dx) = self.setup(n);
        let sol = model
            .solve_fields(&[&field], REL_TOL, MAX_ITER)
            .expect("MMS solve failed");
        self.measure(n, dx, &sol)
    }

    /// Runs the case over a refinement ladder.
    pub fn refine(&self, grids: &[usize]) -> Vec<MmsSample> {
        grids.iter().map(|&n| self.solve(n)).collect()
    }

    /// Assembles the slab model and manufactured source field at `n`.
    fn setup(&self, n: usize) -> (SlabModel, Vec<f64>, f64) {
        let stack = SlabStack {
            n,
            edge_m: self.edge_m,
            htc: self.htc,
            htc_secondary: 0.0,
            layers: vec![SlabLayer {
                is_heat_source: true,
                ..SlabLayer::new(LayerRole::HeatSink, self.thickness_m, self.k)
            }],
        };
        let model = SlabModel::assemble(&stack);
        let dx = stack.dx();
        let cell_area = dx * dx;
        let coeff = self.k * self.thickness_m * self.lambda() + self.htc;
        let mut field = vec![0.0; n * n];
        for iy in 0..n {
            for ix in 0..n {
                let (x, y) = cell_center(dx, ix, iy);
                field[iy * n + ix] = coeff * self.manufactured(x, y) * cell_area;
            }
        }
        (model, field, dx)
    }

    /// Measures the error of a solved field against the manufactured one.
    fn measure(&self, n: usize, dx: f64, sol: &tac25d_thermal::slab::SlabSolution) -> MmsSample {
        let mut max_abs = 0.0f64;
        let mut sq_sum = 0.0;
        for iy in 0..n {
            for ix in 0..n {
                let (x, y) = cell_center(dx, ix, iy);
                let err = sol.source_cell(0, ix, iy) - self.manufactured(x, y);
                max_abs = max_abs.max(err.abs());
                sq_sum += err * err;
            }
        }
        MmsSample {
            n,
            dx_m: dx,
            max_abs_err: max_abs,
            rms_err: (sq_sum / (n * n) as f64).sqrt(),
        }
    }
}

fn cell_center(dx: f64, ix: usize, iy: usize) -> (f64, f64) {
    ((ix as f64 + 0.5) * dx, (iy as f64 + 0.5) * dx)
}

/// Observed convergence orders between successive refinements:
/// `p = ln(e₁/e₂) / ln(h₁/h₂)` on the max-norm errors.
///
/// # Panics
///
/// Panics on fewer than two samples or non-positive errors (an error at
/// solver-noise level means the case is too easy to measure an order).
pub fn observed_orders(samples: &[MmsSample]) -> Vec<f64> {
    assert!(samples.len() >= 2, "need at least two refinements");
    samples
        .windows(2)
        .map(|w| {
            assert!(
                w[0].max_abs_err > 0.0 && w[1].max_abs_err > 0.0,
                "errors at solver-noise level; increase the mode amplitude"
            );
            (w[0].max_abs_err / w[1].max_abs_err).ln() / (w[0].dx_m / w[1].dx_m).ln()
        })
        .collect()
}

/// A layered slab for the 1D resistance-chain invariant: the Table-I-like
/// sink / spreader / TIM / die stack (die at the bottom, powered).
pub fn chain_stack(n: usize) -> SlabStack {
    SlabStack {
        n,
        edge_m: 0.018,
        htc: 1500.0,
        htc_secondary: 0.0,
        layers: vec![
            SlabLayer::new(LayerRole::HeatSink, 0.005, 400.0),
            SlabLayer::new(LayerRole::Spreader, 0.001, 390.0),
            SlabLayer::new(LayerRole::Tim, 0.0001, 5.0),
            SlabLayer::source(LayerRole::Die, 0.0005, 120.0),
        ],
    }
}

/// Closed-form rise of the uniformly powered [`chain_stack`] die: the
/// series resistance from the die mid-plane through every layer interface
/// to ambient, per unit cell.
pub fn chain_analytic_rise(stack: &SlabStack, total_w: f64) -> f64 {
    let n2 = (stack.n * stack.n) as f64;
    let a = stack.dx() * stack.dx();
    let layers = &stack.layers;
    // Half-layer at each end of the chain, full layers in between.
    let mut r = layers[0].thickness_m / (2.0 * layers[0].k);
    for l in &layers[1..layers.len() - 1] {
        r += l.thickness_m / l.k;
    }
    let last = &layers[layers.len() - 1];
    r += last.thickness_m / (2.0 * last.k);
    (total_w / n2) * (r / a + 1.0 / (stack.htc * a))
}

/// Relative error of the solved [`chain_stack`] die temperature against
/// [`chain_analytic_rise`] at resolution `n`.
///
/// # Panics
///
/// Panics if the linear solver fails.
pub fn chain_error(n: usize, total_w: f64) -> f64 {
    let stack = chain_stack(n);
    let model = SlabModel::assemble(&stack);
    let sol = model
        .solve_uniform(total_w, REL_TOL, MAX_ITER)
        .expect("chain solve failed");
    let expect = chain_analytic_rise(&stack, total_w);
    let got = sol.source_cell(0, stack.n / 2, stack.n / 2);
    (got - expect).abs() / expect
}

/// The two-path energy-split case: a powered die with a sink chain above
/// and a substrate + board path below. Returns the solved and analytic
/// sink-path share of the total heat.
#[derive(Debug, Clone, Copy)]
pub struct SplitResult {
    /// Sink-path share of the outgoing heat, solved.
    pub solved_sink_share: f64,
    /// Sink-path share predicted by the parallel 1D resistances.
    pub analytic_sink_share: f64,
    /// Relative energy-balance residual |out − in| / in.
    pub balance_error: f64,
}

/// Solves the two-path case at resolution `n`.
///
/// # Panics
///
/// Panics if the linear solver fails.
pub fn path_split(n: usize, total_w: f64) -> SplitResult {
    let (t_sink, k_sink) = (0.005, 400.0);
    let (t_die, k_die) = (0.0005, 120.0);
    let (t_sub, k_sub) = (0.0003, 0.3);
    let (htc, htc2) = (1200.0, 40.0);
    let stack = SlabStack {
        n,
        edge_m: 0.02,
        htc,
        htc_secondary: htc2,
        layers: vec![
            SlabLayer::new(LayerRole::HeatSink, t_sink, k_sink),
            SlabLayer::source(LayerRole::Die, t_die, k_die),
            SlabLayer::new(LayerRole::Substrate, t_sub, k_sub),
        ],
    };
    let model = SlabModel::assemble(&stack);
    let sol = model
        .solve_uniform(total_w, REL_TOL, MAX_ITER)
        .expect("split solve failed");
    // Per-unit-area resistances of the two parallel paths from the die
    // mid-plane to ambient.
    let r_up = t_die / (2.0 * k_die) + t_sink / (2.0 * k_sink) + 1.0 / htc;
    let r_down = t_die / (2.0 * k_die) + t_sub / (2.0 * k_sub) + 1.0 / htc2;
    let analytic = (1.0 / r_up) / (1.0 / r_up + 1.0 / r_down);
    SplitResult {
        solved_sink_share: sol.heat_out_sink_w() / sol.heat_out_w(),
        analytic_sink_share: analytic,
        balance_error: sol.energy_balance_error(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manufactured_field_respects_walls() {
        // The cosine modes have zero normal derivative at the walls — the
        // cell-centered samples mirror across each boundary face.
        let case = FinCase::default();
        let n = 16;
        let dx = case.edge_m / n as f64;
        for iy in 0..n {
            let (x0, y) = cell_center(dx, 0, iy);
            let ghost = case.manufactured(-x0, y);
            assert!((case.manufactured(x0, y) - ghost).abs() < 1e-12);
        }
    }

    #[test]
    fn orders_need_two_samples() {
        let s = FinCase::default().solve(12);
        let r = std::panic::catch_unwind(|| observed_orders(&[s]));
        assert!(r.is_err());
    }
}
