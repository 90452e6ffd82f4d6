//! Differential testing: the same organization corpus through the exact
//! RC solver, the thermal surrogate and the coupled leakage fixed point.
//!
//! Three views of every corpus point:
//!
//! * **linear RC** — one steady-state solve with leakage frozen at the
//!   reference temperature (the evaluator's initial guess, 60 °C);
//! * **surrogate** — the Green's-function kernel prediction (plus the
//!   corrected value when the online corrector trusts the point);
//! * **coupled** — the full temperature–leakage fixed point the paper's
//!   feasibility decisions rest on.
//!
//! The per-chiplet |ΔT| between the linear and coupled fields quantifies
//! how much the leakage feedback moves each chiplet; the surrogate deltas
//! re-measure the PR-1 fidelity-gap guarantees. [`fig8_guarantees`] runs
//! the screened-vs-exact Fig. 8 organizer per benchmark and fails on any
//! regression of the PR-1 contract (organization match, verified
//! prediction error) or of the energy-balance invariant.

use tac25d_core::prelude::*;
use tac25d_floorplan::organization::ChipletLayout;
use tac25d_floorplan::raster::place_cores;
use tac25d_floorplan::units::{Celsius, Mm};
use tac25d_power::dvfs::OperatingPoint;
use tac25d_thermal::model::PackageModel;

/// One corpus point: an organization at a fixed workload and operating
/// point.
#[derive(Debug, Clone, Copy)]
pub struct DiffPoint {
    /// The benchmark driving the power model.
    pub benchmark: Benchmark,
    /// The chiplet organization.
    pub layout: ChipletLayout,
    /// The operating point.
    pub op: OperatingPoint,
    /// Active core count.
    pub active_cores: u16,
}

/// The three-solver record of one corpus point.
#[derive(Debug, Clone)]
pub struct DiffRecord {
    /// The corpus point.
    pub point: DiffPoint,
    /// Peak of the linear RC solve (leakage frozen at 60 °C).
    pub linear_peak_c: f64,
    /// Peak of the coupled fixed point.
    pub coupled_peak_c: f64,
    /// Raw kernel-superposition prediction, if the surrogate covers the
    /// point.
    pub surrogate_raw_peak_c: Option<f64>,
    /// Corrector-adjusted prediction when trusted.
    pub surrogate_corrected_peak_c: Option<f64>,
    /// |coupled − linear| per chiplet, layout order.
    pub chiplet_abs_dt: Vec<f64>,
    /// Energy-balance residual of the coupled steady state.
    pub energy_balance_error: f64,
}

impl DiffRecord {
    /// Largest per-chiplet |ΔT| of the record.
    pub fn max_chiplet_dt(&self) -> f64 {
        self.chiplet_abs_dt.iter().copied().fold(0.0, f64::max)
    }

    /// Mean per-chiplet |ΔT| of the record.
    pub fn mean_chiplet_dt(&self) -> f64 {
        if self.chiplet_abs_dt.is_empty() {
            0.0
        } else {
            self.chiplet_abs_dt.iter().sum::<f64>() / self.chiplet_abs_dt.len() as f64
        }
    }
}

/// The reference temperature at which the linear RC solve freezes leakage
/// (the leakage model's reference temperature).
pub const LINEAR_REFERENCE: Celsius = Celsius(60.0);

/// Runs one corpus point through the three solvers.
///
/// # Errors
///
/// Propagates evaluation errors (invalid layouts, solver failures).
pub fn run_point(ev: &Evaluator, point: &DiffPoint) -> Result<DiffRecord, EvalError> {
    let spec = ev.spec();
    let profile = point.benchmark.profile();

    // Surrogate view first: evaluating below trains the corrector, and the
    // honest protocol predicts before observing.
    let prediction = ev.predict_peak(&point.layout, point.benchmark, point.op, point.active_cores);

    // Coupled fixed point (memoized exact path).
    let coupled = ev.evaluate(&point.layout, point.benchmark, point.op, point.active_cores)?;

    // Linear RC solve: same source construction as the evaluator, leakage
    // frozen at the reference temperature.
    let stack = if point.layout.is_single_chip() {
        &spec.stack_2d
    } else {
        &spec.stack_25d
    };
    let model = PackageModel::new(
        &spec.chip,
        &point.layout,
        &spec.rules,
        stack,
        spec.thermal.clone(),
    )
    .map_err(EvalError::Thermal)?;
    let placed = place_cores(&spec.chip, &point.layout, &spec.rules)?;
    let chiplet_rects = point.layout.chiplet_rects(&spec.chip, &spec.rules);
    let chip_area: f64 = chiplet_rects.iter().map(|r| r.area().value()).sum();
    let utilization =
        profile.noc_activity * f64::from(point.active_cores) / f64::from(spec.chip.core_count());
    let noc_total = spec
        .noc
        .power(
            &spec.chip,
            &point.layout,
            &spec.rules,
            point.op,
            utilization,
        )?
        .total();
    let per_core = spec
        .core_power
        .active_power(&profile, point.op, LINEAR_REFERENCE);
    let mut sources: Vec<_> = mintemp_active_cores(&spec.chip, point.active_cores)
        .iter()
        .map(|c| (placed[c.0 as usize].rect, per_core))
        .collect();
    for rect in &chiplet_rects {
        sources.push((*rect, noc_total * rect.area().value() / chip_area));
    }
    let linear = model.solve(&sources).map_err(EvalError::Thermal)?;

    let chiplet_abs_dt = chiplet_rects
        .iter()
        .zip(&coupled.chiplet_peaks)
        .map(|(rect, coupled_peak)| (coupled_peak.value() - linear.rect_max(rect).value()).abs())
        .collect();

    Ok(DiffRecord {
        point: *point,
        linear_peak_c: linear.peak().value(),
        coupled_peak_c: coupled.peak.value(),
        surrogate_raw_peak_c: prediction.as_ref().map(|p| p.raw_peak_c),
        surrogate_corrected_peak_c: prediction
            .as_ref()
            .filter(|p| p.trusted)
            .map(|p| p.corrected_peak_c),
        chiplet_abs_dt,
        energy_balance_error: coupled.energy_balance_error,
    })
}

/// A fixed multi-layout corpus: uniform 4- and 16-chiplet organizations at
/// three spacings for every benchmark, at the nominal operating point.
pub fn default_corpus(spec: &SystemSpec) -> Vec<DiffPoint> {
    let op = spec.vf.nominal();
    let mut corpus = Vec::new();
    for &benchmark in &Benchmark::all() {
        for &(r, gap) in &[(2u16, 2.0), (2, 8.0), (4, 2.0), (4, 6.0), (4, 10.0)] {
            corpus.push(DiffPoint {
                benchmark,
                layout: ChipletLayout::Uniform { r, gap: Mm(gap) },
                op,
                active_cores: 256,
            });
        }
    }
    corpus
}

/// One benchmark's screened-vs-exact Fig. 8 organizer comparison plus the
/// differential record of the exact winner.
#[derive(Debug, Clone)]
pub struct Fig8Case {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Whether the screened search chose the exact search's organization.
    pub matched: bool,
    /// `freq/cores/edge` signature of the exact winner (`-` when
    /// infeasible).
    pub exact_desc: String,
    /// Signature of the screened winner.
    pub screened_desc: String,
    /// Exact thermal solves spent by the exact search.
    pub exact_sims: usize,
    /// Exact thermal solves spent by the screened search.
    pub screened_sims: usize,
    /// Max |ΔT| over the screened search's verified predictions — the
    /// PR-1 fidelity guarantee (≤ 1 °C).
    pub max_verified_err_c: f64,
    /// Differential record of the exact winner (None when no feasible
    /// organization exists).
    pub record: Option<DiffRecord>,
}

fn signature(r: &OptimizeResult) -> Option<(u32, u16, i64)> {
    r.best.as_ref().map(|o| {
        (
            o.candidate.op.freq_mhz as u32,
            o.candidate.active_cores,
            (o.candidate.edge.value() * 2.0).round() as i64,
        )
    })
}

fn describe(r: &OptimizeResult) -> String {
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
}

/// Runs the Fig. 8 organizer per benchmark under both fidelities and the
/// differential solvers over every winner — the executable form of the
/// PR-1 guarantees.
///
/// # Panics
///
/// Panics if an optimize run fails outright (solver error, no baseline) —
/// those are regressions, not measurements.
pub fn fig8_guarantees(spec: &SystemSpec, seed: u64) -> Vec<Fig8Case> {
    Benchmark::all()
        .into_iter()
        .map(|b| {
            let exact_ev = Evaluator::new(spec.clone());
            let exact =
                optimize(&exact_ev, b, &OptimizerConfig::with_seed(seed)).expect("exact optimize");

            let scr_ev = Evaluator::with_surrogate(spec.clone(), SurrogateConfig::default());
            let cfg = OptimizerConfig {
                fidelity: Fidelity::surrogate_default(),
                ..OptimizerConfig::with_seed(seed)
            };
            let screened = optimize(&scr_ev, b, &cfg).expect("screened optimize");

            let record = exact.best.as_ref().map(|o| {
                let point = DiffPoint {
                    benchmark: b,
                    layout: o.layout,
                    op: o.candidate.op,
                    active_cores: o.candidate.active_cores,
                };
                run_point(&exact_ev, &point).expect("differential on the winner")
            });

            Fig8Case {
                benchmark: b,
                matched: signature(&exact) == signature(&screened),
                exact_desc: describe(&exact),
                screened_desc: describe(&screened),
                exact_sims: exact.stats.thermal_sims,
                screened_sims: screened.stats.thermal_sims,
                max_verified_err_c: screened.stats.surrogate_max_abs_error_c,
                record,
            }
        })
        .collect()
}
