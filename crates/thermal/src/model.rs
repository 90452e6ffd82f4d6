//! The public thermal-simulation API: build a [`PackageModel`] for a chiplet
//! organization, then solve steady-state temperature fields for arbitrary
//! power maps.

use crate::materials::MaterialLibrary;
use crate::network::{assemble, GriddedLayer, Network, NetworkGeometry};
use crate::sparse::{pcg_with, LinearOperator, PcgSolution, SolveError};
use std::error::Error;
use std::fmt;
use tac25d_floorplan::chip::ChipSpec;
use tac25d_floorplan::geometry::Rect;
use tac25d_floorplan::layers::StackSpec;
use tac25d_floorplan::organization::{ChipletLayout, LayoutError, PackageRules};
use tac25d_floorplan::raster::{coverage_grid, overlap_weights, power_grid, Grid};
use tac25d_floorplan::units::{Celsius, Mm};
use tac25d_obs as obs;

/// Solver and boundary-condition configuration.
///
/// The heat-transfer coefficient is *the* global calibration knob of the
/// reproduction: the paper adjusts the HotSpot convective resistance so the
/// heat-transfer coefficient stays constant as the sink grows with the
/// interposer (Sec. IV); we hold `htc` fixed and let the conductance scale
/// with sink area, which is the same statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// Grid cells per side (paper: 64).
    pub grid: usize,
    /// Ambient temperature (paper: 45 °C).
    pub ambient: Celsius,
    /// Effective heat-transfer coefficient of the finned sink, W/(m²·K).
    pub htc: f64,
    /// Secondary-path (board) heat-transfer coefficient, W/(m²·K).
    pub htc_secondary: f64,
    /// Spreader edge / footprint edge ratio (paper: 2).
    pub spreader_ratio: f64,
    /// Sink edge / spreader edge ratio (paper: 2).
    pub sink_ratio: f64,
    /// Material properties.
    pub materials: MaterialLibrary,
    /// PCG relative residual tolerance.
    pub rel_tol: f64,
    /// PCG iteration budget.
    pub max_iter: usize,
}

impl Default for ThermalConfig {
    fn default() -> Self {
        ThermalConfig {
            grid: 64,
            ambient: Celsius(45.0),
            // Calibrated so the single-chip 256-core system lands in the
            // paper's Fig. 3(b)/Fig. 5 temperature bands and its DVFS
            // feasibility frontier matches the Fig. 8 baselines (see
            // EXPERIMENTS.md for the calibration record).
            htc: 1700.0,
            htc_secondary: 15.0,
            spreader_ratio: 2.0,
            sink_ratio: 2.0,
            materials: MaterialLibrary::default(),
            rel_tol: 1e-9,
            max_iter: 100_000,
        }
    }
}

impl ThermalConfig {
    /// A coarser, ~4× faster configuration (32×32 grid) for inner optimizer
    /// loops; peak-temperature error vs the 64×64 grid is small because each
    /// core tile still spans multiple cells at interposer scales.
    pub fn fast() -> Self {
        ThermalConfig {
            grid: 32,
            rel_tol: 1e-8,
            ..ThermalConfig::default()
        }
    }
}

/// Errors from model construction or solving.
#[derive(Debug)]
pub enum ThermalError {
    /// The chiplet organization is invalid.
    Layout(LayoutError),
    /// The linear solver failed.
    Solve(SolveError),
    /// A power source is invalid (negative/NaN watts or outside the
    /// footprint).
    InvalidPower {
        /// Human-readable reason.
        reason: String,
    },
    /// The leakage-coupled steady state exceeds the runaway temperature
    /// or does not exist (the leakage feedback outgrows the package's
    /// conductance) — physically, thermal runaway; the organization is
    /// infeasible.
    Runaway {
        /// Peak of the steady state; infinite when none exists.
        peak: Celsius,
    },
    /// The caller-supplied deadline (`CoupledOptions::deadline`) expired
    /// before the coupled solve started. Not a solver failure: the serve
    /// daemon maps this to a 504.
    DeadlineExpired,
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThermalError::Layout(e) => write!(f, "invalid layout: {e}"),
            ThermalError::Solve(e) => write!(f, "thermal solve failed: {e}"),
            ThermalError::InvalidPower { reason } => write!(f, "invalid power map: {reason}"),
            ThermalError::Runaway { peak } if peak.value().is_finite() => {
                write!(f, "thermal runaway (peak reached {peak})")
            }
            ThermalError::Runaway { .. } => write!(f, "thermal runaway (no steady state)"),
            ThermalError::DeadlineExpired => write!(f, "coupled-solve deadline expired"),
        }
    }
}

impl Error for ThermalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ThermalError::Layout(e) => Some(e),
            ThermalError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LayoutError> for ThermalError {
    fn from(e: LayoutError) -> Self {
        ThermalError::Layout(e)
    }
}

impl From<SolveError> for ThermalError {
    fn from(e: SolveError) -> Self {
        ThermalError::Solve(e)
    }
}

/// A steady-state temperature field.
#[derive(Debug, Clone)]
pub struct ThermalSolution {
    temps: Vec<f64>,
    die_base: usize,
    die_bases: Vec<usize>,
    n: usize,
    footprint: Mm,
    total_power: f64,
    balance_error: f64,
    iterations: usize,
}

impl ThermalSolution {
    /// Peak temperature over all die (junction) tiers.
    pub fn peak(&self) -> Celsius {
        (0..self.die_bases.len())
            .map(|t| self.tier_peak(t))
            .fold(Celsius(f64::NEG_INFINITY), Celsius::max)
    }

    /// Number of heat-source tiers (1 for 2D/2.5D stacks, 2 for the 3D
    /// stack).
    pub fn tier_count(&self) -> usize {
        self.die_bases.len()
    }

    /// Peak temperature of one tier (0 = topmost, nearest the sink).
    ///
    /// # Panics
    ///
    /// Panics if `tier` is out of range.
    pub fn tier_peak(&self, tier: usize) -> Celsius {
        let base = self.die_bases[tier];
        Celsius(
            self.temps[base..base + self.n * self.n]
                .iter()
                .cloned()
                .fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// Temperature of die cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    pub fn die_cell(&self, ix: usize, iy: usize) -> Celsius {
        assert!(
            ix < self.n && iy < self.n,
            "cell ({ix},{iy}) out of {0}x{0}",
            self.n
        );
        Celsius(self.temps[self.die_base + iy * self.n + ix])
    }

    /// The die temperature grid (row-major, °C values).
    pub fn die_grid(&self) -> Grid {
        let mut g = Grid::filled(self.n, self.n, 0.0);
        for iy in 0..self.n {
            for ix in 0..self.n {
                *g.get_mut(ix, iy) = self.temps[self.die_base + iy * self.n + ix];
            }
        }
        g
    }

    /// Maximum die temperature over the cells a rectangle overlaps.
    pub fn rect_max(&self, rect: &Rect) -> Celsius {
        Celsius(self.rect_fold(rect, f64::NEG_INFINITY, |acc, t, _| acc.max(t)))
    }

    /// Area-weighted average die temperature over a rectangle.
    pub fn rect_avg(&self, rect: &Rect) -> Celsius {
        let mut wsum = 0.0;
        let sum = self.rect_fold(rect, 0.0, |acc, t, w| {
            wsum += w;
            acc + t * w
        });
        assert!(wsum > 0.0, "rectangle {rect:?} overlaps no die cells");
        Celsius(sum / wsum)
    }

    fn rect_fold<F: FnMut(f64, f64, f64) -> f64>(&self, rect: &Rect, init: f64, mut f: F) -> f64 {
        overlap_weights(self.footprint, self.n, self.n, rect)
            .into_iter()
            .fold(init, |acc, (cell, w)| {
                f(acc, self.temps[self.die_base + cell], w)
            })
    }

    /// Total injected power (W).
    pub fn total_power(&self) -> f64 {
        self.total_power
    }

    /// Relative energy-balance error |heat out − heat in| / heat in
    /// (diagnostic; ≈ solver tolerance).
    pub fn energy_balance_error(&self) -> f64 {
        self.balance_error
    }

    /// PCG iterations used.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Raw node temperatures, in the model's node order.
    pub fn raw_temps(&self) -> &[f64] {
        &self.temps
    }
}

/// A thermal model of one package (chip + organization + stack), reusable
/// across many power maps.
///
/// # Examples
///
/// ```
/// use tac25d_floorplan::prelude::*;
/// use tac25d_thermal::model::{PackageModel, ThermalConfig};
///
/// let chip = ChipSpec::scc_256();
/// let rules = PackageRules::default();
/// let layout = ChipletLayout::Symmetric4 { s3: Mm(4.0) };
/// let model = PackageModel::new(
///     &chip,
///     &layout,
///     &rules,
///     &StackSpec::system_25d(),
///     ThermalConfig::fast(),
/// )?;
/// // 100 W spread over the lower-left chiplet.
/// let rects = layout.chiplet_rects(&chip, &rules);
/// let solution = model.solve(&[(rects[0], 100.0)])?;
/// assert!(solution.peak().value() > 45.0);
/// # Ok::<(), tac25d_thermal::model::ThermalError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PackageModel {
    pub(crate) net: Network,
    config: ThermalConfig,
    footprint: Mm,
    die_rects: Vec<Rect>,
    layout: ChipletLayout,
}

impl PackageModel {
    /// Builds the model: validates the layout, rasterizes materials and
    /// assembles the conductance network.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Layout`] if the organization violates the
    /// paper's constraints (Eqs. (7), (10), overlap, …).
    pub fn new(
        chip: &ChipSpec,
        layout: &ChipletLayout,
        rules: &PackageRules,
        stack: &StackSpec,
        config: ThermalConfig,
    ) -> Result<Self, ThermalError> {
        let _span = obs::span!("thermal.matrix_assembly");
        obs::counter!("thermal.model_builds").inc();
        layout.validate(chip, rules)?;
        assert!(
            config.grid >= 8,
            "grid must be at least 8, got {}",
            config.grid
        );
        assert!(
            config.htc > 0.0,
            "heat-transfer coefficient must be positive"
        );
        assert!(
            config.spreader_ratio >= 1.0 && config.sink_ratio >= 1.0,
            "spreader/sink ratios must be >= 1"
        );
        let (footprint, rects, geom) = Self::prepare_geometry(chip, layout, rules, stack, &config);
        Ok(PackageModel {
            net: assemble(&geom),
            config,
            footprint,
            die_rects: rects,
            layout: *layout,
        })
    }

    /// Rasterizes materials and lays out the network geometry for a
    /// validated layout.
    fn prepare_geometry(
        chip: &ChipSpec,
        layout: &ChipletLayout,
        rules: &PackageRules,
        stack: &StackSpec,
        config: &ThermalConfig,
    ) -> (Mm, Vec<Rect>, NetworkGeometry) {
        let n = config.grid;
        let footprint = layout.footprint_edge(chip, rules);
        let rects = layout.chiplet_rects(chip, rules);
        let cover = coverage_grid(footprint, n, n, &rects);
        let lib = &config.materials;
        let layers: Vec<GriddedLayer> = stack
            .layers()
            .iter()
            .map(|l| {
                let k_bg = lib.conductivity(l.background);
                let k_uc = lib.conductivity(l.under_chiplet);
                let k = cover
                    .as_slice()
                    .iter()
                    .map(|&f| f * k_uc + (1.0 - f) * k_bg)
                    .collect();
                GriddedLayer {
                    role: l.role,
                    thickness_m: l.thickness.to_meters(),
                    k,
                    is_heat_source: l.is_heat_source,
                }
            })
            .collect();
        let geom = NetworkGeometry {
            n,
            footprint_m: footprint.to_meters(),
            spreader_m: footprint.to_meters() * config.spreader_ratio,
            sink_m: footprint.to_meters() * config.spreader_ratio * config.sink_ratio,
            layers,
            htc: config.htc,
            htc_secondary: config.htc_secondary,
        };
        (footprint, rects, geom)
    }

    /// The package footprint edge (interposer or baseline chip).
    pub fn footprint_edge(&self) -> Mm {
        self.footprint
    }

    /// The chiplet rectangles of the modelled layout.
    pub fn chiplet_rects(&self) -> &[Rect] {
        &self.die_rects
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// The chiplet layout the model was built for.
    pub fn layout(&self) -> &ChipletLayout {
        &self.layout
    }

    /// Solves the steady state for rectangular power sources (watts).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::InvalidPower`] for negative/non-finite watts
    /// or sources outside the footprint, and [`ThermalError::Solve`] if PCG
    /// fails.
    pub fn solve(&self, sources: &[(Rect, f64)]) -> Result<ThermalSolution, ThermalError> {
        self.solve_tiers(&[sources])
    }

    /// Runs one linear solve of `a·x = b` to the configured tolerance:
    /// CG preconditioned by the model's IC(0) factor of the conductance
    /// matrix, started from the ambient field, the unpowered package's
    /// exact solution. `a` is that matrix, or an operator close to it (the
    /// leakage-coupled one of [`crate::coupled`]).
    pub(crate) fn run_pcg<A: LinearOperator + ?Sized>(
        &self,
        a: &A,
        b: &[f64],
    ) -> Result<PcgSolution, SolveError> {
        let x0 = vec![self.config.ambient.value(); b.len()];
        pcg_with(
            a,
            &self.net.precond,
            b,
            Some(&x0),
            self.config.rel_tol,
            self.config.max_iter,
        )
    }

    /// Unit-power thermal response: the steady state with 1 W spread
    /// uniformly over chiplet `idx` and every other source off. Because
    /// the network is linear, these solutions are the Green's-function
    /// kernels surrogate predictors superpose (rise fields scale with
    /// watts and add across sources).
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::solve`].
    ///
    /// # Panics
    ///
    /// Panics if `idx` is not a valid chiplet index of the modelled layout.
    pub fn unit_response(&self, idx: usize) -> Result<ThermalSolution, ThermalError> {
        assert!(
            idx < self.die_rects.len(),
            "chiplet index {idx} out of {}",
            self.die_rects.len()
        );
        self.solve(&[(self.die_rects[idx], 1.0)])
    }

    /// Reference solve by exact (envelope) Cholesky factorization — the
    /// direct oracle `verify solver` and the tests check the iterative
    /// solver against. Costs about one grid plane squared per node, so it
    /// is meant for small grids, never for production solves.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::solve`].
    #[doc(hidden)]
    pub fn solve_direct_reference(
        &self,
        sources: &[(Rect, f64)],
    ) -> Result<ThermalSolution, ThermalError> {
        let (b, total_power) = self.rhs_for(sources)?;
        let x = crate::sparse::cholesky_solve(&self.net.matrix.to_csr(), &b)?;
        Ok(self.make_solution(x, total_power, 0))
    }

    /// Builds the steady-state right-hand side (power injection plus
    /// ambient boundary terms) for a validated source set injected into
    /// the topmost die tier; returns the vector and the total injected
    /// power.
    pub(crate) fn rhs_for(&self, sources: &[(Rect, f64)]) -> Result<(Vec<f64>, f64), ThermalError> {
        self.rhs_for_tiers(&[sources])
    }

    /// Multi-tier right-hand side: one source set per heat-source layer
    /// (top-down). Missing trailing tiers are treated as unpowered.
    pub(crate) fn rhs_for_tiers(
        &self,
        tiers: &[&[(Rect, f64)]],
    ) -> Result<(Vec<f64>, f64), ThermalError> {
        if tiers.len() > self.net.heat_bases.len() {
            return Err(ThermalError::InvalidPower {
                reason: format!(
                    "{} source tiers supplied but the stack has {} heat-source layers",
                    tiers.len(),
                    self.net.heat_bases.len()
                ),
            });
        }
        let n = self.config.grid;
        let fp_rect = Rect::from_corner(0.0, 0.0, self.footprint.value(), self.footprint.value());
        let mut b = vec![0.0; self.net.nodes];
        let mut total_power = 0.0;
        for (tier, sources) in tiers.iter().enumerate() {
            for (rect, w) in *sources {
                if !w.is_finite() || *w < 0.0 {
                    return Err(ThermalError::InvalidPower {
                        reason: format!("source power {w} at {rect:?} (tier {tier})"),
                    });
                }
                if *w > 0.0 && !fp_rect.contains_rect(rect) {
                    return Err(ThermalError::InvalidPower {
                        reason: format!(
                            "source {rect:?} outside footprint {fp_rect:?} (tier {tier})"
                        ),
                    });
                }
            }
            let pg = power_grid(self.footprint, n, n, sources);
            total_power += pg.sum();
            let base = self.net.heat_bases[tier];
            for iy in 0..n {
                for ix in 0..n {
                    b[base + iy * n + ix] += pg.get(ix, iy);
                }
            }
        }
        let t_amb = self.config.ambient.value();
        for &(node, g) in &self.net.conv {
            b[node] += g * t_amb;
        }
        Ok((b, total_power))
    }

    /// Steady-state solve for a multi-tier (3D) stack: one source list per
    /// heat-source layer, topmost first.
    ///
    /// # Errors
    ///
    /// Same contract as [`Self::solve`], plus an error when more tiers are
    /// supplied than the stack has heat-source layers.
    pub fn solve_tiers(&self, tiers: &[&[(Rect, f64)]]) -> Result<ThermalSolution, ThermalError> {
        let (b, total_power) = self.rhs_for_tiers(tiers)?;
        let sol = self.run_pcg(&self.net.matrix, &b)?;
        Ok(self.make_solution(sol.x, total_power, sol.iterations))
    }

    /// Wraps a steady temperature vector as a [`ThermalSolution`].
    pub(crate) fn make_solution(
        &self,
        temps: Vec<f64>,
        total_power: f64,
        iterations: usize,
    ) -> ThermalSolution {
        let t_amb = self.config.ambient.value();
        let heat_out: f64 = self
            .net
            .conv
            .iter()
            .map(|&(i, g)| g * (temps[i] - t_amb))
            .sum();
        let balance_error = if total_power > 0.0 {
            (heat_out - total_power).abs() / total_power
        } else {
            0.0
        };
        ThermalSolution {
            temps,
            die_base: self.net.die_base,
            die_bases: self.net.heat_bases.clone(),
            n: self.config.grid,
            footprint: self.footprint,
            total_power,
            balance_error,
            iterations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac25d_floorplan::organization::Spacing;

    fn chip() -> ChipSpec {
        ChipSpec::scc_256()
    }

    fn rules() -> PackageRules {
        PackageRules::default()
    }

    fn cfg() -> ThermalConfig {
        ThermalConfig {
            grid: 24,
            rel_tol: 1e-9,
            ..ThermalConfig::default()
        }
    }

    fn single_chip_model() -> PackageModel {
        PackageModel::new(
            &chip(),
            &ChipletLayout::SingleChip,
            &rules(),
            &StackSpec::baseline_2d(),
            cfg(),
        )
        .unwrap()
    }

    #[test]
    fn zero_power_gives_ambient_everywhere() {
        let model = single_chip_model();
        let sol = model.solve(&[]).unwrap();
        assert!((sol.peak().value() - 45.0).abs() < 1e-6, "{}", sol.peak());
    }

    #[test]
    fn uniform_power_field_is_symmetric() {
        let model = single_chip_model();
        let die = Rect::from_corner(0.0, 0.0, 18.0, 18.0);
        let sol = model.solve(&[(die, 200.0)]).unwrap();
        let n = model.config().grid;
        for iy in 0..n {
            for ix in 0..n {
                let t = sol.die_cell(ix, iy).value();
                let t_mirror = sol.die_cell(n - 1 - ix, iy).value();
                let t_transpose = sol.die_cell(iy, ix).value();
                assert!(
                    (t - t_mirror).abs() < 1e-5,
                    "({ix},{iy}): {t} vs {t_mirror}"
                );
                assert!((t - t_transpose).abs() < 1e-5);
            }
        }
        assert!(sol.energy_balance_error() < 1e-6);
    }

    #[test]
    fn hot_corner_is_hotter_than_opposite_corner() {
        let model = single_chip_model();
        let src = Rect::from_corner(0.0, 0.0, 4.0, 4.0);
        let sol = model.solve(&[(src, 80.0)]).unwrap();
        let near = sol.rect_max(&src).value();
        let far = sol
            .rect_max(&Rect::from_corner(14.0, 14.0, 4.0, 4.0))
            .value();
        assert!(near > far + 5.0, "near {near}, far {far}");
    }

    #[test]
    fn more_power_means_higher_peak() {
        let model = single_chip_model();
        let die = Rect::from_corner(0.0, 0.0, 18.0, 18.0);
        let p1 = model.solve(&[(die, 100.0)]).unwrap().peak();
        let p2 = model.solve(&[(die, 200.0)]).unwrap().peak();
        assert!(p2 > p1);
        // Linearity: ΔT doubles with power.
        let d1 = p1.value() - 45.0;
        let d2 = p2.value() - 45.0;
        assert!((d2 / d1 - 2.0).abs() < 1e-6, "d2/d1 = {}", d2 / d1);
    }

    #[test]
    fn wider_spacing_lowers_peak() {
        // The paper's core thermal claim (Fig. 5): at equal total power,
        // bigger chiplet spacing ⇒ lower peak temperature.
        let total = 300.0;
        let peak_at = |gap: f64| {
            let layout = ChipletLayout::Uniform { r: 4, gap: Mm(gap) };
            let model =
                PackageModel::new(&chip(), &layout, &rules(), &StackSpec::system_25d(), cfg())
                    .unwrap();
            let rects = layout.chiplet_rects(&chip(), &rules());
            let per = total / rects.len() as f64;
            let sources: Vec<_> = rects.iter().map(|r| (*r, per)).collect();
            model.solve(&sources).unwrap().peak().value()
        };
        let tight = peak_at(0.5);
        let medium = peak_at(4.0);
        let wide = peak_at(8.0);
        assert!(
            tight > medium && medium > wide,
            "{tight} > {medium} > {wide}"
        );
    }

    #[test]
    fn more_chiplets_cooler_at_same_interposer_size() {
        // Fig. 3(b): for the same interposer size and power density, more
        // chiplets run cooler.
        let rules = rules();
        let density = 1.0; // W/mm²
        let peak_for_r = |r: u16| {
            // Choose gap so the interposer edge is 30 mm.
            let wc = 18.0 / f64::from(r);
            let gap = (30.0 - 2.0 - wc * f64::from(r)) / f64::from(r - 1);
            let layout = ChipletLayout::Uniform { r, gap: Mm(gap) };
            let model =
                PackageModel::new(&chip(), &layout, &rules, &StackSpec::system_25d(), cfg())
                    .unwrap();
            let rects = layout.chiplet_rects(&chip(), &rules);
            let sources: Vec<_> = rects
                .iter()
                .map(|r| (*r, density * r.area().value()))
                .collect();
            model.solve(&sources).unwrap().peak().value()
        };
        let p2 = peak_for_r(2);
        let p4 = peak_for_r(4);
        assert!(p4 < p2, "4x4 {p4} should be cooler than 2x2 {p2}");
    }

    #[test]
    fn negative_power_rejected() {
        let model = single_chip_model();
        let err = model
            .solve(&[(Rect::from_corner(0.0, 0.0, 1.0, 1.0), -5.0)])
            .unwrap_err();
        assert!(matches!(err, ThermalError::InvalidPower { .. }));
    }

    #[test]
    fn source_outside_footprint_rejected() {
        let model = single_chip_model();
        let err = model
            .solve(&[(Rect::from_corner(17.0, 17.0, 5.0, 5.0), 5.0)])
            .unwrap_err();
        assert!(matches!(err, ThermalError::InvalidPower { .. }));
    }

    #[test]
    fn a_model_holds_no_solve_state() {
        // A solve depends on the model and its power map alone: a fresh
        // model, a model that has already solved other maps, and a direct
        // IC(0)-PCG solve from the ambient field agree bit for bit.
        let die = Rect::from_corner(0.0, 0.0, 18.0, 18.0);
        let sources = [(die, 150.0)];
        let fresh = single_chip_model().solve(&sources).unwrap();
        let used = single_chip_model();
        used.solve(&[(Rect::from_corner(0.0, 0.0, 4.0, 4.0), 80.0)])
            .unwrap();
        used.unit_response(0).unwrap();
        let again = used.solve(&sources).unwrap();
        let (b, _) = used.rhs_for(&sources).unwrap();
        let ambient = vec![used.config.ambient.value(); b.len()];
        let direct = pcg_with(
            &used.net.matrix,
            &used.net.precond,
            &b,
            Some(&ambient),
            used.config.rel_tol,
            used.config.max_iter,
        )
        .unwrap();
        for (what, sol) in [("fresh model", &fresh), ("used model", &again)] {
            assert_eq!(sol.iterations(), direct.iterations, "{what}: iterations");
            assert_eq!(bits(sol.raw_temps()), bits(&direct.x), "{what}: field");
        }
    }

    #[test]
    fn rect_queries_consistent() {
        let model = single_chip_model();
        let die = Rect::from_corner(0.0, 0.0, 18.0, 18.0);
        let sol = model.solve(&[(die, 200.0)]).unwrap();
        let avg = sol.rect_avg(&die).value();
        let max = sol.rect_max(&die).value();
        assert!(max >= avg);
        assert!((max - sol.peak().value()).abs() < 1e-9);
    }

    #[test]
    fn pcg_matches_dense_reference_on_package_model() {
        // Full-package validation of the iterative solver: a 12×12-grid
        // 2.5D model solved both ways must agree to solver tolerance.
        let layout = ChipletLayout::Symmetric4 { s3: Mm(6.0) };
        let model = PackageModel::new(
            &chip(),
            &layout,
            &rules(),
            &StackSpec::system_25d(),
            ThermalConfig {
                grid: 12,
                rel_tol: 1e-11,
                ..ThermalConfig::default()
            },
        )
        .unwrap();
        let rects = layout.chiplet_rects(&chip(), &rules());
        let sources: Vec<_> = rects.iter().map(|r| (*r, 80.0)).collect();
        let iterative = model.solve(&sources).unwrap();
        let direct = model.solve_direct_reference(&sources).unwrap();
        let n = model.config().grid;
        for iy in 0..n {
            for ix in 0..n {
                let a = iterative.die_cell(ix, iy).value();
                let b = direct.die_cell(ix, iy).value();
                assert!((a - b).abs() < 1e-5, "cell ({ix},{iy}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn stacked_3d_runs_hotter_than_2d_at_equal_power() {
        // The paper's Sec. I claim: 3D stacking exacerbates thermal issues.
        // Same footprint, same total power: splitting the power over two
        // stacked tiers must end hotter than one tier, because the bottom
        // tier's heat crosses the whole top tier to reach the sink.
        let total = 300.0;
        let die = Rect::from_corner(0.0, 0.0, 18.0, 18.0);
        let flat = single_chip_model().solve(&[(die, total)]).unwrap();
        let m3d = PackageModel::new(
            &chip(),
            &ChipletLayout::SingleChip,
            &rules(),
            &StackSpec::stacked_3d(),
            cfg(),
        )
        .unwrap();
        let top = [(die, total / 2.0)];
        let bottom = [(die, total / 2.0)];
        let stacked = m3d.solve_tiers(&[&top, &bottom]).unwrap();
        assert_eq!(stacked.tier_count(), 2);
        assert!(
            stacked.peak() > flat.peak(),
            "3D {} vs 2D {}",
            stacked.peak(),
            flat.peak()
        );
        // The bottom tier (far from the sink) is the hotter one.
        assert!(stacked.tier_peak(1) >= stacked.tier_peak(0));
        assert!(stacked.energy_balance_error() < 1e-6);
    }

    #[test]
    fn solve_tiers_rejects_too_many_tiers() {
        let m = single_chip_model();
        let die = Rect::from_corner(0.0, 0.0, 18.0, 18.0);
        let a = [(die, 10.0)];
        let b = [(die, 10.0)];
        let err = m.solve_tiers(&[&a, &b]).unwrap_err();
        assert!(matches!(err, ThermalError::InvalidPower { .. }), "{err}");
    }

    #[test]
    fn unit_responses_superpose_to_the_direct_solve() {
        // Linearity check behind the Green's-function surrogate: scaling
        // and adding per-chiplet unit responses reproduces the full solve.
        let layout = ChipletLayout::Symmetric4 { s3: Mm(5.0) };
        let model = PackageModel::new(
            &chip(),
            &layout,
            &rules(),
            &StackSpec::system_25d(),
            ThermalConfig {
                grid: 16,
                rel_tol: 1e-11,
                ..ThermalConfig::default()
            },
        )
        .unwrap();
        let watts = [70.0, 30.0, 55.0, 90.0];
        let rects = model.chiplet_rects().to_vec();
        let sources: Vec<_> = rects.iter().zip(watts).map(|(r, w)| (*r, w)).collect();
        let direct = model.solve(&sources).unwrap();
        let kernels: Vec<_> = (0..rects.len())
            .map(|i| model.unit_response(i).unwrap())
            .collect();
        let ambient = model.config().ambient.value();
        let n = model.config().grid;
        for iy in 0..n {
            for ix in 0..n {
                let superposed = ambient
                    + kernels
                        .iter()
                        .zip(watts)
                        .map(|(k, w)| w * (k.die_cell(ix, iy).value() - ambient))
                        .sum::<f64>();
                let exact = direct.die_cell(ix, iy).value();
                assert!(
                    (superposed - exact).abs() < 1e-4,
                    "cell ({ix},{iy}): {superposed} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn invalid_layout_is_reported() {
        let layout = ChipletLayout::Symmetric16 {
            spacing: Spacing::new(0.0, 5.0, 0.0),
        };
        let err = PackageModel::new(&chip(), &layout, &rules(), &StackSpec::system_25d(), cfg())
            .unwrap_err();
        assert!(matches!(err, ThermalError::Layout(_)));
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Checks a model's banded operator against the retired CSR path bit
    /// for bit: the fill against the emission-order scaffold fill, then
    /// the product, the IC(0) factor and whole PCG solves against CSR
    /// and the general up-looking [`crate::sparse::Ic0`]. Also checks
    /// that the operator is a symmetric M-matrix.
    fn assert_matches_csr_oracle(
        layout: &ChipletLayout,
        stack: &StackSpec,
        config: &ThermalConfig,
        what: &str,
    ) {
        use crate::sparse::{Ic0, LinearOperator, Precondition};
        let model = PackageModel::new(&chip(), layout, &rules(), stack, config.clone()).unwrap();
        let (_, _, geom) = PackageModel::prepare_geometry(&chip(), layout, &rules(), stack, config);
        let net = &model.net;
        let csr = crate::network::emission_order_csr(&geom);
        let banded = net.matrix.to_csr();
        assert_eq!(banded.nnz(), csr.nnz(), "{what}: pattern size");
        assert_eq!(bits(banded.values()), bits(csr.values()), "{what}: fill");
        // A symmetric M-matrix: negative off-diagonals, row sums >= 0 up
        // to rounding. IC(0) never breaks down on one, and the steady
        // state at peak power bounds every transient (DESIGN §3).
        for i in 0..banded.n() {
            let (mut diag, mut sum) = (0.0, 0.0);
            for (j, v) in banded.row(i) {
                sum += v;
                if j == i {
                    diag = v;
                    continue;
                }
                assert!(v < 0.0, "{what}: entry ({i},{j}) = {v} is not negative");
                let mirror = banded.row(j).find(|&(k, _)| k == i).map(|(_, u)| u);
                assert_eq!(
                    mirror.map(f64::to_bits),
                    Some(v.to_bits()),
                    "{what}: ({i},{j}) = {v} but ({j},{i}) = {mirror:?}"
                );
            }
            assert!(
                sum >= -1e-12 * diag,
                "{what}: row {i} sums to {sum} with diagonal {diag}"
            );
        }
        // Probes with negative entries and exact zeros.
        let probe: Vec<f64> = (0..net.nodes)
            .map(|i| {
                if i % 7 == 3 {
                    0.0
                } else {
                    (i as f64 * 0.37).sin() * 4.0 - 0.5
                }
            })
            .collect();
        let (mut y_band, mut y_csr) = (vec![0.0; net.nodes], vec![0.0; net.nodes]);
        let dot_band = net.matrix.mul_vec_dot(&probe, &mut y_band);
        let dot_csr = LinearOperator::mul_vec_dot(&csr, &probe, &mut y_csr);
        assert_eq!(bits(&y_band), bits(&y_csr), "{what}: product");
        assert_eq!(dot_band.to_bits(), dot_csr.to_bits(), "{what}: fused dot");
        let oracle = Ic0::factor(&csr).expect("CSR IC(0)");
        net.precond.apply(&probe, &mut y_band);
        oracle.apply(&probe, &mut y_csr);
        assert_eq!(bits(&y_band), bits(&y_csr), "{what}: IC(0) apply");
        let rects = model.chiplet_rects().to_vec();
        let sources: Vec<_> = rects.iter().map(|r| (*r, 30.0)).collect();
        let (b, _) = model.rhs_for(&sources).unwrap();
        let guess = vec![model.config.ambient.value() + 10.0; net.nodes];
        for x0 in [None, Some(guess.as_slice())] {
            let tol = model.config.rel_tol;
            let ours = pcg_with(&net.matrix, &net.precond, &b, x0, tol, 10_000).unwrap();
            let theirs = pcg_with(&csr, &oracle, &b, x0, tol, 10_000).unwrap();
            assert_eq!(ours.iterations, theirs.iterations, "{what}: iterations");
            assert_eq!(
                ours.residual.to_bits(),
                theirs.residual.to_bits(),
                "{what}: residual"
            );
            assert_eq!(bits(&ours.x), bits(&theirs.x), "{what}: solution");
        }
    }

    #[test]
    fn banded_operator_matches_the_csr_oracle_bitwise() {
        let symmetric16 = ChipletLayout::Symmetric16 {
            spacing: Spacing::new(2.0, 2.0, 3.0),
        };
        let cases = [
            (
                "uniform",
                ChipletLayout::Uniform { r: 4, gap: Mm(4.0) },
                StackSpec::system_25d(),
            ),
            (
                "baseline_2d",
                ChipletLayout::SingleChip,
                StackSpec::baseline_2d(),
            ),
            (
                "stacked_3d",
                ChipletLayout::SingleChip,
                StackSpec::stacked_3d(),
            ),
            ("symmetric16", symmetric16, StackSpec::system_25d()),
        ];
        for grid in [24, 32] {
            let config = ThermalConfig {
                grid,
                ..ThermalConfig::fast()
            };
            for (name, layout, stack) in &cases {
                assert_matches_csr_oracle(
                    layout,
                    stack,
                    &config,
                    &format!("{name} at grid {grid}"),
                );
            }
        }
    }
}
