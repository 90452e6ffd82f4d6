//! The thermally-aware chiplet-organization optimizer (paper Sec. III-D).
//!
//! Three steps, exactly as the paper describes:
//!
//! 1. compute the performance of all 40 (f, p) pairs (the performance model
//!    is analytic here) and the cost of the 4-/16-chiplet systems for all
//!    discretized interposer sizes;
//! 2. form every (f, p, C_2.5D) combination, score it with the Eq. (5)
//!    objective and sort ascending;
//! 3. walk the sorted list and, for each combination, search the spacing
//!    space for a placement that meets the temperature threshold — with the
//!    multi-start greedy by default, or exhaustively for validation. The
//!    first combination with a feasible placement is the optimum (its
//!    objective value lower-bounds everything after it).
//!
//! For a fixed manufacturing cost the interposer edge is fixed, so
//! `2·s1 + s3` is constant and the greedy moves inside that manifold: a
//! ±0.5 mm step on s1 implies a ∓1.0 mm step on s3 and vice versa, and s2
//! steps freely below the Eq. (10) bound (which, on the manifold, reduces
//! to `s2 ≤ (2·s1+s3)/2`). Neighbors are visited in random order and starts
//! are random, per the paper's footnote 2.
//!
//! Physics-based tie acceleration (on by default, disable for strict paper
//! equivalence): when many consecutive candidates share the same objective
//! value — e.g. every interposer size of one (f, p) pair under α = 1,
//! β = 0 — peak temperature is monotone non-increasing in the interposer
//! edge at fixed (f, p, n), so the smallest feasible edge inside the tie
//! run is found by binary search instead of trying each edge in turn. The
//! selected organization is identical; only the number of thermal
//! simulations drops.

use crate::evaluator::{single_chip_baseline_screened, Baseline, EvalError, Evaluation, Evaluator};
use crate::objective::{objective_value, Weights};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use tac25d_floorplan::organization::{symmetric4_for_edge, ChipletLayout, Spacing};
use tac25d_floorplan::units::{Celsius, Mm, Watts};
use tac25d_obs as obs;
use tac25d_power::benchmarks::Benchmark;
use tac25d_power::dvfs::OperatingPoint;
use tac25d_power::perf::Ips;
use tac25d_surrogate::analytic::{snap_to_lattice, AnalyticConfig, Manifold16};

/// The chiplet counts the paper optimizes over (Sec. III-C limits the
/// search to 4 and 16 for bonding-yield reasons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChipletCount {
    /// 2×2 chiplets.
    Four,
    /// 4×4 chiplets.
    Sixteen,
}

impl ChipletCount {
    /// Chiplets per row/column.
    pub fn r(self) -> u16 {
        match self {
            ChipletCount::Four => 2,
            ChipletCount::Sixteen => 4,
        }
    }

    /// Total chiplet count.
    pub fn n(self) -> u32 {
        u32::from(self.r()) * u32::from(self.r())
    }

    /// Both paper options.
    pub fn both() -> Vec<ChipletCount> {
        vec![ChipletCount::Four, ChipletCount::Sixteen]
    }
}

impl fmt::Display for ChipletCount {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-chiplet", self.n())
    }
}

/// How the per-candidate spacing space is searched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PlacementSearch {
    /// The paper's multi-start greedy with the given number of random
    /// starting points (paper default: 10).
    MultiStartGreedy {
        /// Random starting points per candidate.
        starts: usize,
    },
    /// Evaluate every lattice placement (the paper's validation baseline).
    Exhaustive,
    /// Simulated annealing over the same lattice — an ablation alternative
    /// to the greedy (accepts uphill moves with probability
    /// `exp(−ΔT_peak / temp)`, geometric cooling).
    SimulatedAnnealing {
        /// Total annealing moves.
        iterations: usize,
        /// Initial acceptance temperature in °C of peak-temperature
        /// difference (e.g. 10.0).
        initial_temp: f64,
    },
}

/// Prediction fidelity of the per-candidate spacing search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum Fidelity {
    /// Every probed placement is solved exactly — the paper-equivalent
    /// default, and what all paper-figure binaries use.
    #[default]
    Exact,
    /// Screen placements with the multi-fidelity thermal surrogate
    /// (requires an evaluator built by `Evaluator::with_surrogate`;
    /// silently degrades to exact otherwise). Greedy moves are ranked by
    /// the surrogate prediction; the exact solver runs only at predicted
    /// local minima within `threshold + guard_band_c` (candidate
    /// feasibility claims) and at untrusted predictions the raw kernel
    /// cannot screen — so any placement *reported feasible* is always
    /// exact-solver-backed. Screening
    /// applies to the multi-start greedy and the single 4-chiplet
    /// placement check; the exhaustive and annealing searches stay exact
    /// (they exist for validation).
    Surrogate {
        /// Exact-verification margin above the temperature threshold, °C.
        guard_band_c: f64,
    },
}

impl Fidelity {
    /// The surrogate fidelity with the default guard band.
    pub fn surrogate_default() -> Self {
        Fidelity::Surrogate { guard_band_c: 5.0 }
    }
}

/// Whether the analytic-gradient placement seeding phase runs before the
/// screened multi-start greedy (see the module docs and
/// `tac25d_surrogate::analytic`). Seeding only changes *where the search
/// starts* — every feasibility claim stays exact-solver-backed — and it
/// never applies to the exact, exhaustive or annealing paths, which exist
/// for paper-equivalence validation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum SeedMode {
    /// Follow the process environment: seeding is on unless
    /// `TAC25D_SEED_MODE` is set to `off` (or `0`).
    #[default]
    Auto,
    /// Seed regardless of the environment.
    On,
    /// Never seed — bit-for-bit the pre-seeding search (same RNG stream,
    /// same probe order).
    Off,
}

/// Reads the `TAC25D_SEED_MODE` escape hatch once per process: `off`/`0`
/// disables the seeding phase everywhere a config leaves it on `Auto`.
pub fn env_seed_mode_on() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| {
        std::env::var("TAC25D_SEED_MODE")
            .map(|v| {
                let v = v.trim().to_ascii_lowercase();
                v != "off" && v != "0"
            })
            .unwrap_or(true)
    })
}

impl SeedMode {
    /// Resolves the mode against the process environment.
    #[must_use]
    pub fn enabled(self) -> bool {
        match self {
            SeedMode::Auto => env_seed_mode_on(),
            SeedMode::On => true,
            SeedMode::Off => false,
        }
    }
}

impl OptimizerConfig {
    /// Whether this run uses the draft-then-verify pipeline: analytic
    /// seeds, raw-kernel draft ranking, the screened baseline walk and
    /// tie-run truncation. Requires surrogate fidelity, an attached
    /// surrogate and the seed mode on — so the exact paper path and the
    /// `TAC25D_SEED_MODE=off` hatch keep the legacy search bit-for-bit.
    fn draft(&self, ev: &Evaluator) -> bool {
        matches!(self.fidelity, Fidelity::Surrogate { .. })
            && self.seeding.enabled()
            && ev.surrogate().is_some()
    }
}

/// Optimizer configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OptimizerConfig {
    /// Objective weights (α, β).
    pub weights: Weights,
    /// Spacing-search strategy.
    pub search: PlacementSearch,
    /// RNG seed (starts and neighbor order are randomized, footnote 2).
    pub seed: u64,
    /// Chiplet counts to consider.
    pub chiplet_counts: Vec<ChipletCount>,
    /// Binary-search interposer edges inside equal-objective candidate
    /// runs instead of trying each in turn (same answer, fewer thermal
    /// simulations; see the module docs).
    pub accelerate_ties: bool,
    /// Exact or surrogate-screened placement evaluation.
    pub fidelity: Fidelity,
    /// Analytic-gradient placement seeding for the screened greedy.
    pub seeding: SeedMode,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            weights: Weights::performance_only(),
            search: PlacementSearch::MultiStartGreedy { starts: 10 },
            seed: 42,
            chiplet_counts: ChipletCount::both(),
            accelerate_ties: true,
            fidelity: Fidelity::Exact,
            seeding: SeedMode::Auto,
        }
    }
}

impl OptimizerConfig {
    /// The default configuration with an explicit RNG seed. Every random
    /// choice of the search (start points, neighbor visit order, annealing
    /// moves) derives deterministically from this seed, so two runs with
    /// the same seed and spec produce identical organizations — the
    /// contract the golden-trace regression harness pins.
    pub fn with_seed(seed: u64) -> Self {
        OptimizerConfig {
            seed,
            ..OptimizerConfig::default()
        }
    }
}

/// One (f, p, C_2.5D) combination of the sorted candidate list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Chiplet count.
    pub count: ChipletCount,
    /// Interposer edge (determines C_2.5D together with `count`).
    pub edge: Mm,
    /// Operating point.
    pub op: OperatingPoint,
    /// Active core count.
    pub active_cores: u16,
    /// Performance at (f, p).
    pub ips: Ips,
    /// System manufacturing cost, dollars.
    pub cost: f64,
    /// Eq. (5) objective value.
    pub objective: f64,
}

/// A feasible optimized organization.
#[derive(Debug, Clone)]
pub struct Organization {
    /// The winning candidate.
    pub candidate: Candidate,
    /// The concrete placement found for it.
    pub layout: ChipletLayout,
    /// Peak temperature of that placement.
    pub peak: Celsius,
    /// Total power at convergence.
    pub total_power: Watts,
    /// IPS_2.5D / IPS_2D.
    pub normalized_perf: f64,
    /// C_2.5D / C_2D.
    pub normalized_cost: f64,
}

impl fmt::Display for Organization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} with {} cores on {} interposer: {:+.1}% IPS, {:+.1}% cost, peak {:.1}°C",
            self.layout,
            self.candidate.op,
            self.candidate.active_cores,
            self.candidate.edge,
            (self.normalized_perf - 1.0) * 100.0,
            (self.normalized_cost - 1.0) * 100.0,
            self.peak.value()
        )
    }
}

/// Search bookkeeping.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Total candidates enumerated.
    pub candidates_total: usize,
    /// Candidates whose spacing space was actually searched.
    pub candidates_tried: usize,
    /// Candidates skipped by interposer-edge pruning.
    pub candidates_pruned: usize,
    /// Distinct thermal simulations spent by this search.
    pub thermal_sims: usize,
    /// Surrogate predictions served while screening placements.
    pub surrogate_predictions: usize,
    /// Placements skipped on a trusted too-hot prediction (no exact solve).
    pub surrogate_skips: usize,
    /// Placements with a trusted near-threshold prediction that were
    /// verified with the exact solver.
    pub surrogate_verifications: usize,
    /// Placements evaluated exactly because the surrogate declined or was
    /// untrusted (warm-up, off-manifold queries, uncovered layouts).
    pub surrogate_fallbacks: usize,
    /// Placements ranked by the uncorrected kernel during the draft
    /// descent (seed mode): no exact solve was paid and no feasibility
    /// was claimed — the descent's end point is exact-verified instead.
    pub surrogate_raw_ranked: usize,
    /// Largest |predicted − exact| peak-temperature gap observed across
    /// the verified placements, °C.
    pub surrogate_max_abs_error_c: f64,
    /// Sum of those gaps, °C (divide by `surrogate_verifications` for the
    /// mean; see [`SearchStats::surrogate_mean_abs_error_c`]).
    pub surrogate_abs_error_sum_c: f64,
}

impl SearchStats {
    /// Mean |predicted − exact| over the verified placements, °C
    /// (`None` before any verification).
    pub fn surrogate_mean_abs_error_c(&self) -> Option<f64> {
        (self.surrogate_verifications > 0)
            .then(|| self.surrogate_abs_error_sum_c / self.surrogate_verifications as f64)
    }
}

/// Result of an optimization run.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// The optimal organization, or `None` if no (f, p, C) combination has
    /// a feasible placement (the system cannot run under the threshold).
    pub best: Option<Organization>,
    /// The single-chip baseline used for normalization.
    pub baseline: Baseline,
    /// Search statistics.
    pub stats: SearchStats,
}

/// Optimizer errors.
#[derive(Debug)]
pub enum OptimizeError {
    /// An evaluation failed.
    Eval(EvalError),
    /// Even the single-chip baseline has no feasible operating point, so
    /// Eq. (5) cannot be normalized.
    NoBaseline(Benchmark),
}

impl fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeError::Eval(e) => write!(f, "evaluation failed: {e}"),
            OptimizeError::NoBaseline(b) => {
                write!(f, "no feasible single-chip baseline for {b}")
            }
        }
    }
}

impl Error for OptimizeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OptimizeError::Eval(e) => Some(e),
            OptimizeError::NoBaseline(_) => None,
        }
    }
}

impl From<EvalError> for OptimizeError {
    fn from(e: EvalError) -> Self {
        OptimizeError::Eval(e)
    }
}

/// The discretized interposer-edge sweep of the system spec.
pub fn interposer_edges(ev: &Evaluator) -> Vec<Mm> {
    let spec = ev.spec();
    let mut edges = Vec::new();
    let mut e = spec.edge_min.value();
    while e <= spec.edge_max.value() + 1e-9 {
        edges.push(Mm(e));
        e += spec.edge_step.value();
    }
    edges
}

/// Enumerates and sorts all (f, p, C_2.5D) combinations for a benchmark
/// (steps 1–2 of the paper's flow). Requires a feasible baseline for
/// normalization.
///
/// # Errors
///
/// [`OptimizeError::NoBaseline`] if the single chip is infeasible at every
/// operating point; evaluation errors otherwise.
pub fn enumerate_candidates(
    ev: &Evaluator,
    benchmark: Benchmark,
    weights: Weights,
    counts: &[ChipletCount],
) -> Result<(Vec<Candidate>, Baseline), OptimizeError> {
    enumerate_candidates_screened(ev, benchmark, weights, counts, false)
}

/// [`enumerate_candidates`] with an optional tier-1 screen over the
/// single-chip baseline walk (see
/// [`crate::evaluator::single_chip_baseline_screened`]). The optimizer
/// enables the screen only for surrogate-fidelity seeded searches; the
/// exact paper path never sees it.
///
/// # Errors
///
/// See [`enumerate_candidates`].
pub fn enumerate_candidates_screened(
    ev: &Evaluator,
    benchmark: Benchmark,
    weights: Weights,
    counts: &[ChipletCount],
    screen_baseline: bool,
) -> Result<(Vec<Candidate>, Baseline), OptimizeError> {
    let baseline = single_chip_baseline_screened(ev, benchmark, screen_baseline)?
        .ok_or(OptimizeError::NoBaseline(benchmark))?;
    let spec = ev.spec();
    let chiplet_area = |c: ChipletCount| {
        let wc = spec.chip.edge().value() / f64::from(c.r());
        wc * wc
    };
    let mut out = Vec::new();
    for &count in counts {
        let area = chiplet_area(count);
        for edge in interposer_edges(ev) {
            // Feasible geometry: spacings must be non-negative.
            let min_edge = spec.chip.edge().value() + 2.0 * spec.rules.guard.value();
            if edge.value() < min_edge - 1e-9 {
                continue;
            }
            let cost = spec
                .cost
                .assembly_cost(count.n(), area, edge.value() * edge.value())
                .total();
            for &op in spec.vf.points() {
                for &p in &spec.core_counts {
                    let ips = ev.ips(benchmark, op, p);
                    let objective =
                        objective_value(weights, baseline.ips, ips, cost, baseline.cost);
                    out.push(Candidate {
                        count,
                        edge,
                        op,
                        active_cores: p,
                        ips,
                        cost,
                        objective,
                    });
                }
            }
        }
    }
    out.sort_by(|a, b| {
        a.objective
            .partial_cmp(&b.objective)
            .expect("objective is finite")
            .then(a.cost.partial_cmp(&b.cost).expect("cost is finite"))
            .then(b.ips.partial_cmp(&a.ips).expect("IPS is finite"))
            .then(a.edge.partial_cmp(&b.edge).expect("edge is finite"))
    });
    Ok((out, baseline))
}

/// Lattice coordinates of a 16-chiplet placement with fixed interposer
/// edge: `s1 = s1u·step`, `s3 = (free − 2·s1u)·step`, `s2 = s2u·step`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LatticePoint {
    s1u: i64,
    s2u: i64,
}

fn lattice_spacing(pt: LatticePoint, free_units: i64, step: f64) -> Spacing {
    Spacing::new(
        pt.s1u as f64 * step,
        pt.s2u as f64 * step,
        (free_units - 2 * pt.s1u) as f64 * step,
    )
}

/// A greedy descent objective: converged exact peaks order normally and
/// non-converged (runaway) points sort last.
fn peak_of(e: &Evaluation) -> f64 {
    if e.converged {
        e.peak.value()
    } else {
        f64::INFINITY
    }
}

/// The two screening margins of surrogate fidelity (both in °C above the
/// feasibility threshold).
#[derive(Debug, Clone, Copy)]
struct Guards {
    /// Corrected-prediction margin: trusted predictions within it are
    /// exact-verified, hotter ones skipped.
    band: f64,
    /// Raw-kernel margin: even untrusted predictions hotter than it are
    /// skipped (the uncorrected superposition bias is far smaller).
    raw: f64,
}

/// Outcome of probing one placement under (possible) surrogate screening.
enum Probe {
    /// Exactly evaluated — the only outcome that can claim feasibility.
    Exact(Arc<Evaluation>),
    /// Skipped on a too-hot prediction.
    Skipped,
}

/// A feasible placement paired with its exact evaluation.
type Placed = (ChipletLayout, Arc<Evaluation>);

/// Draft-mode probe of one 4-chiplet candidate inside a tie run. Unlike
/// [`Probe`], it has a third outcome for clearly-cool predictions that the
/// edge binary search may treat as feasible without an exact solve — only
/// the search's final winner must be exact-confirmed before it can claim
/// feasibility.
enum DraftProbe {
    /// Exactly evaluated and feasible.
    Feasible(ChipletLayout, Arc<Evaluation>),
    /// Predicted at least one guard band *below* the threshold: feasible
    /// for search-steering purposes, pending exact confirmation.
    Provisional(ChipletLayout),
    /// Exactly infeasible, or predicted clearly above the threshold.
    Infeasible,
}

/// Outcome of the draft binary search over one 4-chiplet tie-run subgroup.
enum DraftSubgroup {
    /// Smallest feasible edge, exact-solver-backed.
    Winner(usize, ChipletLayout, Arc<Evaluation>),
    /// No feasible edge in the subgroup.
    Infeasible,
    /// A provisional winner failed exact confirmation, so the search
    /// history is tainted; the caller redoes the subgroup with exact
    /// probes (memoized evaluations keep the redo cheap).
    Refuted,
}

/// Probes one 4-chiplet candidate for the draft tie-run search: clearly
/// cool predictions return [`DraftProbe::Provisional`] without an exact
/// solve; everything near or above the threshold delegates to the regular
/// screened probe.
fn probe4_draft(
    ev: &Evaluator,
    benchmark: Benchmark,
    cand: &Candidate,
    threshold: Celsius,
    guard: Guards,
    stats: &mut SearchStats,
) -> Result<DraftProbe, EvalError> {
    let spec = ev.spec();
    let Some(s3) = symmetric4_for_edge(&spec.chip, &spec.rules, cand.edge) else {
        return Ok(DraftProbe::Infeasible);
    };
    let layout = ChipletLayout::Symmetric4 { s3 };
    if let Some(pred) = ev.predict_peak(&layout, benchmark, cand.op, cand.active_cores) {
        // Every Symmetric4 candidate is the kernel's 2x2 reference layout,
        // so even the raw superposition is corrector-grade here.
        let est = if pred.trusted {
            pred.corrected_peak_c
        } else {
            pred.raw_peak_c
        };
        if est <= threshold.value() - guard.band {
            stats.surrogate_predictions += 1;
            stats.surrogate_raw_ranked += 1;
            return Ok(DraftProbe::Provisional(layout));
        }
    }
    match probe_placement(
        ev,
        benchmark,
        cand.op,
        cand.active_cores,
        &layout,
        threshold,
        Some(guard),
        stats,
    )? {
        Probe::Exact(e) if e.feasible(threshold) => Ok(DraftProbe::Feasible(layout, e)),
        _ => Ok(DraftProbe::Infeasible),
    }
}

/// Binary-searches one 4-chiplet tie-run subgroup for its smallest
/// feasible edge using draft probes, exact-confirming a provisional
/// winner before claiming it. Feasibility is monotone in the edge, so a
/// provisional mid-probe that was wrong can only surface as the *final*
/// winner (any exact-feasible smaller edge would prove the mid feasible
/// too) — which the confirmation catches, returning
/// [`DraftSubgroup::Refuted`].
#[allow(clippy::too_many_arguments)]
fn resolve_four_subgroup_draft(
    ev: &Evaluator,
    benchmark: Benchmark,
    run: &[Candidate],
    indices: &[usize],
    threshold: Celsius,
    guard: Guards,
    evaluated: &mut usize,
    stats: &mut SearchStats,
) -> Result<DraftSubgroup, EvalError> {
    let last = *indices.last().expect("groups are non-empty");
    *evaluated += 1;
    let mut best = match probe4_draft(ev, benchmark, &run[last], threshold, guard, stats)? {
        DraftProbe::Infeasible => return Ok(DraftSubgroup::Infeasible),
        DraftProbe::Feasible(layout, eval) => (last, layout, Some(eval)),
        DraftProbe::Provisional(layout) => (last, layout, None),
    };
    let (mut lo, mut hi) = (0usize, indices.len() - 1);
    while lo < hi {
        let mid = (lo + hi) / 2;
        *evaluated += 1;
        match probe4_draft(ev, benchmark, &run[indices[mid]], threshold, guard, stats)? {
            DraftProbe::Feasible(layout, eval) => {
                best = (indices[mid], layout, Some(eval));
                hi = mid;
            }
            DraftProbe::Provisional(layout) => {
                best = (indices[mid], layout, None);
                hi = mid;
            }
            DraftProbe::Infeasible => lo = mid + 1,
        }
    }
    let (idx, layout, eval) = best;
    let eval = match eval {
        Some(e) => e,
        None => {
            stats.surrogate_fallbacks += 1;
            let e = ev.evaluate(&layout, benchmark, run[idx].op, run[idx].active_cores)?;
            if !e.feasible(threshold) {
                obs::counter!("optimizer.draft_refutes").inc();
                return Ok(DraftSubgroup::Refuted);
            }
            e
        }
    };
    Ok(DraftSubgroup::Winner(idx, layout, eval))
}

/// How many of the descender's distinct continuous optima are snapped to
/// the lattice and used as greedy starts.
const SEED_TOP_K: usize = 4;

/// Runs the analytic placement descender for one 16-chiplet candidate and
/// returns its top optima snapped to the spacing lattice, coolest proxy
/// first. Empty when the candidate's power map cannot be decomposed per
/// chiplet (the greedy then runs unseeded, bit-for-bit the legacy path).
///
/// The per-chiplet watts come from the same decomposition the surrogate
/// uses (mintemp active-core placement plus area-weighted NoC power),
/// evaluated once at a mid-manifold representative spacing — the power
/// split across chiplets is spacing-independent, only the NoC total moves
/// slightly, and the proxy needs the split, not the absolute watts.
fn analytic_seed_points(
    ev: &Evaluator,
    benchmark: Benchmark,
    candidate: &Candidate,
    free_units: i64,
    step: f64,
    s1_max: i64,
    s2_max: i64,
) -> Vec<LatticePoint> {
    let representative = LatticePoint {
        s1u: free_units / 4,
        s2u: free_units / 4,
    };
    let layout = ChipletLayout::Symmetric16 {
        spacing: lattice_spacing(representative, free_units, step),
    };
    let Some(input) = ev.surrogate_input(&layout, benchmark, candidate.op, candidate.active_cores)
    else {
        return Vec::new();
    };
    if input.active_per_chiplet.len() != 16 || input.noc_per_chiplet.len() != 16 {
        return Vec::new();
    }
    let spec = ev.spec();
    let profile = benchmark.profile();
    // Leakage is temperature-dependent; the threshold is as good a fixed
    // point as any — the proxy only needs the relative power split.
    let per_core = spec
        .core_power
        .active_power(&profile, candidate.op, spec.threshold);
    let mut watts = [0.0f64; 16];
    for (w, (active, noc)) in watts
        .iter_mut()
        .zip(input.active_per_chiplet.iter().zip(&input.noc_per_chiplet))
    {
        *w = f64::from(*active) * per_core + noc;
    }
    let manifold = Manifold16 {
        wc: spec.chip.edge().value() / 4.0,
        guard: spec.rules.guard.value(),
        free: free_units as f64 * step,
        watts,
    };
    let _span = obs::span!("optimizer.analytic_descent");
    obs::counter!("optimizer.analytic_descents").inc();
    let outcome = manifold.descend(&AnalyticConfig::default());
    obs::counter!("optimizer.analytic_grad_evals").add(outcome.grad_evals as u64);
    let snapped = snap_to_lattice(&outcome.optima, step, s1_max, s2_max, SEED_TOP_K);
    obs::counter!("optimizer.seeded_starts").add(snapped.len() as u64);
    snapped
        .into_iter()
        .map(|(s1u, s2u)| LatticePoint { s1u, s2u })
        .collect()
}

/// Probes one placement: exact solve, unless a surrogate prediction puts
/// it above the applicable guard band over the threshold.
#[allow(clippy::too_many_arguments)]
fn probe_placement(
    ev: &Evaluator,
    benchmark: Benchmark,
    op: OperatingPoint,
    p: u16,
    layout: &ChipletLayout,
    threshold: Celsius,
    guard: Option<Guards>,
    stats: &mut SearchStats,
) -> Result<Probe, EvalError> {
    obs::counter!("optimizer.moves_evaluated").inc();
    if let Some(guard) = guard {
        if let Some(pred) = ev.predict_peak(layout, benchmark, op, p) {
            stats.surrogate_predictions += 1;
            if pred.trusted {
                if pred.corrected_peak_c > threshold.value() + guard.band {
                    stats.surrogate_skips += 1;
                    return Ok(Probe::Skipped);
                }
                let e = ev.evaluate(layout, benchmark, op, p)?;
                stats.surrogate_verifications += 1;
                if e.converged {
                    let gap = (pred.corrected_peak_c - e.peak.value()).abs();
                    stats.surrogate_max_abs_error_c = stats.surrogate_max_abs_error_c.max(gap);
                    stats.surrogate_abs_error_sum_c += gap;
                }
                return Ok(Probe::Exact(e));
            }
            if pred.raw_peak_c > threshold.value() + guard.raw {
                stats.surrogate_skips += 1;
                return Ok(Probe::Skipped);
            }
            stats.surrogate_fallbacks += 1;
            return Ok(Probe::Exact(ev.evaluate(layout, benchmark, op, p)?));
        }
        stats.surrogate_fallbacks += 1;
    }
    Ok(Probe::Exact(ev.evaluate(layout, benchmark, op, p)?))
}

/// Searches the spacing space of one candidate for a placement meeting the
/// threshold. Returns the placement and its evaluation, or `None`.
/// Exact-fidelity convenience wrapper around [`find_placement_with`].
pub fn find_placement(
    ev: &Evaluator,
    benchmark: Benchmark,
    candidate: &Candidate,
    search: PlacementSearch,
    seed: u64,
) -> Result<Option<(ChipletLayout, Arc<Evaluation>)>, EvalError> {
    let cfg = OptimizerConfig {
        search,
        seed,
        ..OptimizerConfig::default()
    };
    find_placement_with(ev, benchmark, candidate, &cfg, &mut SearchStats::default())
}

/// Searches the spacing space of one candidate for a placement meeting the
/// threshold, honoring `cfg.fidelity` and accumulating surrogate-screening
/// counters into `stats`. Any returned placement is exact-solver-backed
/// regardless of fidelity.
pub fn find_placement_with(
    ev: &Evaluator,
    benchmark: Benchmark,
    candidate: &Candidate,
    cfg: &OptimizerConfig,
    stats: &mut SearchStats,
) -> Result<Option<(ChipletLayout, Arc<Evaluation>)>, EvalError> {
    let spec = ev.spec();
    let threshold = spec.threshold;
    let seed = cfg.seed;
    let guard = match (cfg.fidelity, ev.surrogate()) {
        (Fidelity::Surrogate { guard_band_c }, Some(s)) => Some(Guards {
            band: guard_band_c,
            raw: s.config().raw_guard_band_c.max(guard_band_c),
        }),
        _ => None,
    };
    match candidate.count {
        ChipletCount::Four => {
            let Some(s3) = symmetric4_for_edge(&spec.chip, &spec.rules, candidate.edge) else {
                return Ok(None);
            };
            let layout = ChipletLayout::Symmetric4 { s3 };
            // Every Symmetric4 candidate *is* the kernel's 2×2 reference
            // layout (a uniform grid at the candidate edge), so the raw
            // superposition there is corrector-grade. In draft/seed mode
            // the probe screens with the tight verification band instead
            // of the wide raw band — clearly-infeasible 4-chiplet
            // candidates stop paying an exact solve each.
            let guard = match guard {
                Some(g) if cfg.seeding.enabled() => Some(Guards {
                    band: g.band,
                    raw: g.band,
                }),
                other => other,
            };
            match probe_placement(
                ev,
                benchmark,
                candidate.op,
                candidate.active_cores,
                &layout,
                threshold,
                guard,
                stats,
            )? {
                Probe::Exact(e) => Ok(e.feasible(threshold).then_some((layout, e))),
                Probe::Skipped => Ok(None),
            }
        }
        ChipletCount::Sixteen => {
            let step = spec.rules.step.value();
            let wc = spec.chip.edge().value() / 4.0;
            let free = candidate.edge.value() - 4.0 * wc - 2.0 * spec.rules.guard.value();
            if free < -1e-9 {
                return Ok(None);
            }
            let free_units = (free / step).round() as i64;
            let s1_max = free_units / 2;
            let s2_max = free_units / 2; // Eq. (10) on the fixed-edge manifold
            let try_point =
                |pt: LatticePoint| -> Result<(ChipletLayout, Arc<Evaluation>), EvalError> {
                    obs::counter!("optimizer.moves_evaluated").inc();
                    let layout = ChipletLayout::Symmetric16 {
                        spacing: lattice_spacing(pt, free_units, step),
                    };
                    let e =
                        ev.evaluate(&layout, benchmark, candidate.op, candidate.active_cores)?;
                    Ok((layout, e))
                };
            match cfg.search {
                PlacementSearch::Exhaustive => {
                    // Any feasible placement is equally optimal for Eq. (5)
                    // — the objective depends only on (f, p, C), not on the
                    // spacing triple — so the scan stops at the first hit.
                    // Infeasible candidates still pay the full-lattice scan,
                    // which is exactly the cost the paper's greedy avoids.
                    for s1u in 0..=s1_max {
                        for s2u in 0..=s2_max {
                            let (layout, e) = try_point(LatticePoint { s1u, s2u })?;
                            if e.feasible(threshold) {
                                return Ok(Some((layout, e)));
                            }
                        }
                    }
                    Ok(None)
                }
                PlacementSearch::SimulatedAnnealing {
                    iterations,
                    initial_temp,
                } => {
                    assert!(iterations > 0, "annealing needs at least one move");
                    assert!(initial_temp > 0.0, "annealing temperature must be positive");
                    let salt = (candidate.edge.value() * 2.0) as u64
                        ^ ((candidate.op.freq_mhz as u64) << 16)
                        ^ (u64::from(candidate.active_cores) << 32);
                    let mut rng = StdRng::seed_from_u64(seed ^ salt ^ 0x5A5A);
                    let mut current = LatticePoint {
                        s1u: rng.gen_range(0..=s1_max),
                        s2u: rng.gen_range(0..=s2_max),
                    };
                    let (layout, e) = try_point(current)?;
                    if e.feasible(threshold) {
                        return Ok(Some((layout, e)));
                    }
                    let mut current_peak = peak_of(&e);
                    // Geometric cooling to ~1% of the initial temperature.
                    let cooling = 0.01f64.powf(1.0 / iterations as f64);
                    let mut temp = initial_temp;
                    for _ in 0..iterations {
                        let nb = LatticePoint {
                            s1u: (current.s1u + rng.gen_range(-1i64..=1)).clamp(0, s1_max),
                            s2u: (current.s2u + rng.gen_range(-1i64..=1)).clamp(0, s2_max),
                        };
                        if nb != current {
                            let (layout, e) = try_point(nb)?;
                            if e.feasible(threshold) {
                                return Ok(Some((layout, e)));
                            }
                            let delta = peak_of(&e) - current_peak;
                            if delta <= 0.0
                                || (delta.is_finite() && rng.gen::<f64>() < (-delta / temp).exp())
                            {
                                current = nb;
                                current_peak = peak_of(&e);
                            }
                        }
                        temp *= cooling;
                    }
                    Ok(None)
                }
                PlacementSearch::MultiStartGreedy { starts } => {
                    assert!(starts > 0, "greedy needs at least one start");
                    // Deterministic per-candidate RNG stream.
                    let salt = (candidate.edge.value() * 2.0) as u64
                        ^ ((candidate.op.freq_mhz as u64) << 16)
                        ^ (u64::from(candidate.active_cores) << 32);
                    if let Some(guard) = guard {
                        // Screened greedy: descend on surrogate
                        // predictions and run the exact solver only at
                        // untrusted points the raw kernel cannot screen
                        // and at predicted local minima near the
                        // threshold (the only points that could yield a
                        // feasibility claim). Sequential, so the online
                        // corrector trains in a deterministic order.
                        let mut rng = StdRng::seed_from_u64(seed ^ salt);
                        let layout_of = |pt: LatticePoint| ChipletLayout::Symmetric16 {
                            spacing: lattice_spacing(pt, free_units, step),
                        };
                        // Draft mode rides with the seeding switch: when
                        // on, untrusted points are *ranked* by the raw
                        // kernel instead of paying an exact solve each —
                        // the exact solver confirms only at the descent's
                        // end. When off, the loop below is bit-for-bit
                        // the legacy warm-up search.
                        let draft = cfg.seeding.enabled();
                        // Scores one lattice point: Ok((found, peak,
                        // band)) where `found` carries a feasible exact
                        // evaluation, `peak` ranks the point for descent
                        // and `band` is Some(margin) when the peak is an
                        // unverified estimate whose local minima within
                        // `threshold + margin` deserve exact verification.
                        type Scored = (Option<(ChipletLayout, Arc<Evaluation>)>, f64, Option<f64>);
                        let score = |pt: LatticePoint,
                                     stats: &mut SearchStats|
                         -> Result<Scored, EvalError> {
                            obs::counter!("optimizer.moves_evaluated").inc();
                            let layout = layout_of(pt);
                            if let Some(pred) = ev.predict_peak(
                                &layout,
                                benchmark,
                                candidate.op,
                                candidate.active_cores,
                            ) {
                                stats.surrogate_predictions += 1;
                                if pred.trusted {
                                    stats.surrogate_skips += 1;
                                    return Ok((None, pred.corrected_peak_c, Some(guard.band)));
                                }
                                if pred.raw_peak_c > threshold.value() + guard.raw {
                                    stats.surrogate_skips += 1;
                                    return Ok((None, pred.raw_peak_c, Some(guard.band)));
                                }
                                if draft {
                                    // The raw estimate is biased by up to
                                    // the raw guard band, so minima are
                                    // verified against that wider margin.
                                    stats.surrogate_raw_ranked += 1;
                                    return Ok((None, pred.raw_peak_c, Some(guard.raw)));
                                }
                            }
                            stats.surrogate_fallbacks += 1;
                            let e = ev.evaluate(
                                &layout,
                                benchmark,
                                candidate.op,
                                candidate.active_cores,
                            )?;
                            let peak = peak_of(&e);
                            Ok((e.feasible(threshold).then_some((layout, e)), peak, None))
                        };
                        // Seeding phase: descend the analytic proxy and
                        // start the greedy from its snapped optima,
                        // keeping a small random remainder for coverage.
                        // With seeding off the seed list is empty and the
                        // loop below is bit-for-bit the legacy search
                        // (same RNG stream, same probe order).
                        let seeds: Vec<LatticePoint> = if cfg.seeding.enabled() {
                            analytic_seed_points(
                                ev, benchmark, candidate, free_units, step, s1_max, s2_max,
                            )
                        } else {
                            Vec::new()
                        };
                        let random_starts = if seeds.is_empty() {
                            starts
                        } else {
                            starts.div_ceil(5)
                        };
                        for sidx in 0..seeds.len() + random_starts {
                            let _start_span = obs::span!("optimizer.greedy_start");
                            obs::counter!("optimizer.greedy_starts").inc();
                            let mut current =
                                seeds.get(sidx).copied().unwrap_or_else(|| LatticePoint {
                                    s1u: rng.gen_range(0..=s1_max),
                                    s2u: rng.gen_range(0..=s2_max),
                                });
                            let (found, mut current_peak, mut current_band) =
                                score(current, stats)?;
                            if found.is_some() {
                                return Ok(found);
                            }
                            'descend: loop {
                                let mut neighbors = [
                                    LatticePoint {
                                        s1u: current.s1u + 1,
                                        s2u: current.s2u,
                                    },
                                    LatticePoint {
                                        s1u: current.s1u - 1,
                                        s2u: current.s2u,
                                    },
                                    LatticePoint {
                                        s1u: current.s1u,
                                        s2u: current.s2u + 1,
                                    },
                                    LatticePoint {
                                        s1u: current.s1u,
                                        s2u: current.s2u - 1,
                                    },
                                ];
                                neighbors.shuffle(&mut rng);
                                for nb in neighbors {
                                    if nb.s1u < 0
                                        || nb.s1u > s1_max
                                        || nb.s2u < 0
                                        || nb.s2u > s2_max
                                    {
                                        continue;
                                    }
                                    let (found, nb_peak, nb_band) = score(nb, stats)?;
                                    if found.is_some() {
                                        return Ok(found);
                                    }
                                    if nb_peak < current_peak {
                                        obs::counter!("optimizer.moves_accepted").inc();
                                        current = nb;
                                        current_peak = nb_peak;
                                        current_band = nb_band;
                                        continue 'descend;
                                    }
                                }
                                // Local minimum. An unverified prediction
                                // within the guard band may actually be
                                // feasible: verify it exactly. Either way
                                // the exact solve trains the corrector, so
                                // later starts predict this neighborhood
                                // more sharply; on disagreement this start
                                // simply ends (resuming the descent here
                                // can oscillate between memoized points).
                                if current_band
                                    .is_some_and(|band| current_peak <= threshold.value() + band)
                                {
                                    let layout = layout_of(current);
                                    let e = ev.evaluate(
                                        &layout,
                                        benchmark,
                                        candidate.op,
                                        candidate.active_cores,
                                    )?;
                                    stats.surrogate_verifications += 1;
                                    if e.converged {
                                        let gap = (current_peak - e.peak.value()).abs();
                                        stats.surrogate_max_abs_error_c =
                                            stats.surrogate_max_abs_error_c.max(gap);
                                        stats.surrogate_abs_error_sum_c += gap;
                                    }
                                    if e.feasible(threshold) {
                                        return Ok(Some((layout, e)));
                                    }
                                }
                                break; // infeasible local minimum; next start
                            }
                        }
                        return Ok(None);
                    }
                    // Exact path: the starts are independent, so fan them
                    // out across threads. Each start gets its own RNG
                    // stream and the returned placement is the one found
                    // by the lowest-numbered successful start, making the
                    // result independent of thread scheduling.
                    let run_start = |idx: usize,
                                     winner: &AtomicUsize|
                     -> Result<
                        Option<(ChipletLayout, Arc<Evaluation>)>,
                        EvalError,
                    > {
                        let _start_span = obs::span!("optimizer.greedy_start");
                        obs::counter!("optimizer.greedy_starts").inc();
                        let mut rng = StdRng::seed_from_u64(
                            seed ^ salt ^ (idx as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                        );
                        let mut current = LatticePoint {
                            s1u: rng.gen_range(0..=s1_max),
                            s2u: rng.gen_range(0..=s2_max),
                        };
                        let (layout, e) = try_point(current)?;
                        if e.feasible(threshold) {
                            return Ok(Some((layout, e)));
                        }
                        let mut current_peak = peak_of(&e);
                        'descend: loop {
                            let mut neighbors = [
                                LatticePoint {
                                    s1u: current.s1u + 1,
                                    s2u: current.s2u,
                                },
                                LatticePoint {
                                    s1u: current.s1u - 1,
                                    s2u: current.s2u,
                                },
                                LatticePoint {
                                    s1u: current.s1u,
                                    s2u: current.s2u + 1,
                                },
                                LatticePoint {
                                    s1u: current.s1u,
                                    s2u: current.s2u - 1,
                                },
                            ];
                            neighbors.shuffle(&mut rng);
                            for nb in neighbors {
                                if nb.s1u < 0 || nb.s1u > s1_max || nb.s2u < 0 || nb.s2u > s2_max {
                                    continue;
                                }
                                // A lower-numbered start already succeeded;
                                // this one can no longer affect the result.
                                if winner.load(Ordering::SeqCst) < idx {
                                    return Ok(None);
                                }
                                let (layout, e) = try_point(nb)?;
                                if e.feasible(threshold) {
                                    return Ok(Some((layout, e)));
                                }
                                if peak_of(&e) < current_peak {
                                    obs::counter!("optimizer.moves_accepted").inc();
                                    current = nb;
                                    current_peak = peak_of(&e);
                                    continue 'descend;
                                }
                            }
                            break; // local minimum
                        }
                        Ok(None)
                    };
                    let workers = obs::threads_override()
                        .unwrap_or_else(|| {
                            std::thread::available_parallelism()
                                .map(|n| n.get())
                                .unwrap_or(1)
                        })
                        .min(starts)
                        .min(8);
                    if workers <= 1 {
                        let no_winner = AtomicUsize::new(usize::MAX);
                        for idx in 0..starts {
                            if let Some(found) = run_start(idx, &no_winner)? {
                                return Ok(Some(found));
                            }
                        }
                        return Ok(None);
                    }
                    let next = AtomicUsize::new(0);
                    let winner = AtomicUsize::new(usize::MAX);
                    let results: Mutex<Vec<Option<Placed>>> = Mutex::new(vec![None; starts]);
                    let failure: Mutex<Option<EvalError>> = Mutex::new(None);
                    crossbeam::thread::scope(|s| {
                        for _ in 0..workers {
                            s.spawn(|_| loop {
                                let idx = next.fetch_add(1, Ordering::SeqCst);
                                if idx >= starts || failure.lock().expect("lock poisoned").is_some()
                                {
                                    break;
                                }
                                if winner.load(Ordering::SeqCst) < idx {
                                    continue;
                                }
                                match run_start(idx, &winner) {
                                    Ok(Some(found)) => {
                                        let mut cur = winner.load(Ordering::SeqCst);
                                        while idx < cur {
                                            match winner.compare_exchange(
                                                cur,
                                                idx,
                                                Ordering::SeqCst,
                                                Ordering::SeqCst,
                                            ) {
                                                Ok(_) => break,
                                                Err(now) => cur = now,
                                            }
                                        }
                                        results.lock().expect("lock poisoned")[idx] = Some(found);
                                    }
                                    Ok(None) => {}
                                    Err(e) => {
                                        let mut slot = failure.lock().expect("lock poisoned");
                                        if slot.is_none() {
                                            *slot = Some(e);
                                        }
                                    }
                                }
                            });
                        }
                    })
                    .expect("greedy worker panicked");
                    if let Some(e) = failure.lock().expect("lock poisoned").take() {
                        return Err(e);
                    }
                    let w = winner.load(Ordering::SeqCst);
                    if w == usize::MAX {
                        return Ok(None);
                    }
                    let found = results.lock().expect("lock poisoned")[w].take();
                    Ok(found)
                }
            }
        }
    }
}

/// Runs the full three-step optimization for a benchmark (step 3 walks the
/// sorted candidates until one admits a feasible placement).
///
/// # Errors
///
/// See [`OptimizeError`].
pub fn optimize(
    ev: &Evaluator,
    benchmark: Benchmark,
    cfg: &OptimizerConfig,
) -> Result<OptimizeResult, OptimizeError> {
    optimize_with_filter(ev, benchmark, cfg, |_, _| true)
}

/// Like [`optimize`], but restricted to candidates accepted by `filter`
/// (which also receives the baseline). This expresses the paper's
/// headline comparisons directly:
///
/// * iso-cost ("at the same cost as the baseline"): keep candidates with
///   `c.cost <= baseline.cost`;
/// * iso-performance ("without performance loss"): keep candidates with
///   `c.ips >= baseline.ips` and optimize with cost-only weights.
///
/// # Errors
///
/// See [`OptimizeError`].
pub fn optimize_with_filter<F>(
    ev: &Evaluator,
    benchmark: Benchmark,
    cfg: &OptimizerConfig,
    filter: F,
) -> Result<OptimizeResult, OptimizeError>
where
    F: Fn(&Candidate, &Baseline) -> bool,
{
    let _span = obs::span!("optimizer.optimize");
    let sims_before = ev.thermal_sims();
    // The baseline screen rides with the draft/seed mode: only screened
    // (surrogate-fidelity) seeded searches prune the baseline walk, so the
    // exact paper path — and the `TAC25D_SEED_MODE=off` escape hatch —
    // keep the legacy walk bit-for-bit.
    let (candidates, baseline) = enumerate_candidates_screened(
        ev,
        benchmark,
        cfg.weights,
        &cfg.chiplet_counts,
        cfg.draft(ev),
    )?;
    let candidates: Vec<Candidate> = candidates
        .into_iter()
        .filter(|c| filter(c, &baseline))
        .collect();
    let mut stats = SearchStats {
        candidates_total: candidates.len(),
        ..SearchStats::default()
    };
    let mut best: Option<Organization> = None;
    let mut i = 0;
    while i < candidates.len() {
        // Maximal run of equal-objective candidates.
        let mut j = i + 1;
        while j < candidates.len()
            && (candidates[j].objective - candidates[i].objective).abs() < 1e-12
        {
            j += 1;
        }
        let run = &candidates[i..j];
        let found = if run.len() > 1 && cfg.accelerate_ties {
            resolve_tie_run(ev, benchmark, run, cfg, &mut stats)?
        } else {
            let mut found = None;
            for cand in run {
                stats.candidates_tried += 1;
                if let Some((layout, eval)) =
                    find_placement_with(ev, benchmark, cand, cfg, &mut stats)?
                {
                    found = Some((*cand, layout, eval));
                    break;
                }
            }
            found
        };
        if let Some((cand, layout, eval)) = found {
            best = Some(Organization {
                candidate: cand,
                layout,
                peak: eval.peak,
                total_power: eval.total_power,
                normalized_perf: cand.ips.0 / baseline.ips.0,
                normalized_cost: cand.cost / baseline.cost,
            });
            break;
        }
        i = j;
    }
    stats.thermal_sims = ev.thermal_sims() - sims_before;
    Ok(OptimizeResult {
        best,
        baseline,
        stats,
    })
}

/// Resolves a run of equal-objective candidates: within each (count, f, p)
/// subgroup the interposer edges ascend and feasibility is monotone in the
/// edge, so the smallest feasible edge is found by binary search. Among the
/// subgroup winners, the run's tie-break order (cost, then IPS, then edge)
/// picks the result — the same candidate a sequential walk would return.
fn resolve_tie_run(
    ev: &Evaluator,
    benchmark: Benchmark,
    run: &[Candidate],
    cfg: &OptimizerConfig,
    stats: &mut SearchStats,
) -> Result<Option<(Candidate, ChipletLayout, Arc<Evaluation>)>, EvalError> {
    let _span = obs::span!("optimizer.tie_run");
    obs::counter!("optimizer.tie_runs_resolved").inc();
    type Key = (ChipletCount, u32, u16);
    let mut groups: HashMap<Key, Vec<usize>> = HashMap::new();
    for (idx, c) in run.iter().enumerate() {
        groups
            .entry((c.count, c.op.freq_mhz as u32, c.active_cores))
            .or_default()
            .push(idx);
    }
    let mut evaluated = 0usize;
    let mut winners: Vec<(usize, ChipletLayout, Arc<Evaluation>)> = Vec::new();
    // Explore subgroups in run order, not hash order: the winner is
    // order-independent (sorted below), but the side effects — which
    // candidates get exact solves, and in what order a surrogate corrector
    // trains on them — must be reproducible under a fixed seed.
    let mut ordered: Vec<(usize, &Vec<usize>)> = groups
        .values()
        .map(|indices| (indices[0], indices))
        .collect();
    ordered.sort_unstable_by_key(|(first, _)| *first);
    // Draft mode prunes across subgroups: once some subgroup produced a
    // feasible winner at run index `best_idx`, candidates at larger
    // indices lose the tie-break no matter what, so later subgroups only
    // search their prefix below `best_idx` (often empty — e.g. the
    // 16-chiplet subgroup after a cheap 4-chiplet winner). The selected
    // organization is provably unchanged; only the probe count drops.
    // Gated on draft mode so the legacy path stays bit-for-bit.
    let draft = cfg.draft(ev);
    // The tight 4-chiplet guard (see `find_placement_with`): Symmetric4
    // candidates sit on the kernel's reference layout, so the raw margin
    // collapses to the verification band.
    let guard4 = match (cfg.fidelity, ev.surrogate()) {
        (Fidelity::Surrogate { guard_band_c }, Some(_)) => Some(Guards {
            band: guard_band_c,
            raw: guard_band_c,
        }),
        _ => None,
    };
    let mut best_idx = usize::MAX;
    for (_, full) in ordered {
        let truncated: Vec<usize>;
        let indices: &[usize] = if draft && best_idx != usize::MAX {
            truncated = full.iter().copied().filter(|&i| i < best_idx).collect();
            &truncated
        } else {
            full
        };
        if indices.is_empty() {
            // The trailing prune accounting covers unevaluated candidates.
            continue;
        }
        debug_assert!(
            indices
                .windows(2)
                .all(|w| run[w[0]].edge.value() <= run[w[1]].edge.value() + 1e-9),
            "subgroup edges must ascend"
        );
        // Draft mode steers 4-chiplet binary searches on clearly-cool
        // predictions and exact-confirms only the winning edge; a refuted
        // confirmation (never observed in practice) falls through to the
        // exact search below.
        if draft && run[indices[0]].count == ChipletCount::Four {
            if let Some(g) = guard4 {
                let threshold = ev.spec().threshold;
                match resolve_four_subgroup_draft(
                    ev,
                    benchmark,
                    run,
                    indices,
                    threshold,
                    g,
                    &mut evaluated,
                    stats,
                )? {
                    DraftSubgroup::Winner(idx, layout, eval) => {
                        best_idx = best_idx.min(idx);
                        winners.push((idx, layout, eval));
                        continue;
                    }
                    DraftSubgroup::Infeasible => continue,
                    DraftSubgroup::Refuted => {}
                }
            }
        }
        // Check the largest edge first: if it is infeasible, the whole
        // subgroup is (monotonicity).
        let last = *indices.last().expect("groups are non-empty");
        evaluated += 1;
        let Some(at_last) = find_placement_with(ev, benchmark, &run[last], cfg, stats)? else {
            continue;
        };
        let (mut lo, mut hi) = (0usize, indices.len() - 1);
        let mut best_here = (last, at_last.0, at_last.1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            evaluated += 1;
            match find_placement_with(ev, benchmark, &run[indices[mid]], cfg, stats)? {
                Some((layout, eval)) => {
                    best_here = (indices[mid], layout, eval);
                    hi = mid;
                }
                None => lo = mid + 1,
            }
        }
        best_idx = best_idx.min(best_here.0);
        winners.push(best_here);
    }
    stats.candidates_tried += evaluated;
    stats.candidates_pruned += run.len().saturating_sub(evaluated);
    // The run is already in tie-break order; the smallest index wins.
    winners.sort_by_key(|(idx, _, _)| *idx);
    Ok(winners
        .into_iter()
        .next()
        .map(|(idx, layout, eval)| (run[idx], layout, eval)))
}

/// The best feasible organization *at one fixed interposer edge* — the
/// primitive behind the Fig. 6 (max IPS vs size) and Fig. 7 (min objective
/// vs size) curves.
///
/// # Errors
///
/// See [`OptimizeError`].
pub fn best_at_edge(
    ev: &Evaluator,
    benchmark: Benchmark,
    weights: Weights,
    count: ChipletCount,
    edge: Mm,
    search: PlacementSearch,
    seed: u64,
) -> Result<Option<Organization>, OptimizeError> {
    let (candidates, baseline) = enumerate_candidates(ev, benchmark, weights, &[count])?;
    for cand in candidates
        .iter()
        .filter(|c| (c.edge.value() - edge.value()).abs() < 1e-9)
    {
        if let Some((layout, eval)) = find_placement(ev, benchmark, cand, search, seed)? {
            return Ok(Some(Organization {
                candidate: *cand,
                layout,
                peak: eval.peak,
                total_power: eval.total_power,
                normalized_perf: cand.ips.0 / baseline.ips.0,
                normalized_cost: cand.cost / baseline.cost,
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemSpec;

    fn evaluator() -> Evaluator {
        let mut spec = SystemSpec::fast();
        spec.thermal.grid = 16;
        spec.edge_step = Mm(2.0); // coarse sweeps keep tests fast
        Evaluator::new(spec)
    }

    #[test]
    fn candidates_sorted_by_objective() {
        let ev = evaluator();
        let (cands, _) = enumerate_candidates(
            &ev,
            Benchmark::Canneal,
            Weights::balanced(),
            &ChipletCount::both(),
        )
        .unwrap();
        assert!(!cands.is_empty());
        assert!(cands.windows(2).all(|w| w[0].objective <= w[1].objective));
        // 2 counts × 16 edges × 5 f × 8 p = 1280.
        assert_eq!(cands.len(), 2 * 16 * 5 * 8);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under the debug profile; validated by the release suite"
    )]
    fn optimizer_beats_baseline_for_high_power_benchmark() {
        // The headline claim: a thermally-aware 2.5D organization
        // outperforms the single chip for thermally-limited benchmarks.
        let ev = evaluator();
        let result = optimize(&ev, Benchmark::Cholesky, &OptimizerConfig::default()).unwrap();
        let best = result.best.expect("cholesky must have a solution");
        assert!(
            best.normalized_perf > 1.3,
            "cholesky gain {:.2} (paper: 1.8x at iso-cost)",
            best.normalized_perf
        );
        assert!(best.peak.value() <= 85.0 + 1e-6);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under the debug profile; validated by the release suite"
    )]
    fn perf_only_weights_pick_fastest_feasible() {
        let ev = evaluator();
        let result = optimize(&ev, Benchmark::Canneal, &OptimizerConfig::default()).unwrap();
        let best = result.best.expect("canneal must have a solution");
        // canneal is thermally easy: nominal frequency and its 192-core
        // saturation point are reachable; perf equals the baseline.
        assert_eq!(best.candidate.op.freq_mhz, 1000.0);
        assert_eq!(best.candidate.active_cores, 192);
        assert!((best.normalized_perf - 1.0).abs() < 1e-9);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under the debug profile; validated by the release suite"
    )]
    fn cost_only_weights_pick_minimum_interposer() {
        let ev = evaluator();
        let cfg = OptimizerConfig {
            weights: Weights::cost_only(),
            ..OptimizerConfig::default()
        };
        let result = optimize(&ev, Benchmark::Canneal, &cfg).unwrap();
        let best = result.best.expect("canneal must have a cost solution");
        assert_eq!(best.candidate.edge, Mm(20.0), "minimum interposer wins");
        assert!(
            best.normalized_cost < 0.70,
            "paper: ≈36% cost saving, got {:.3}",
            best.normalized_cost
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under the debug profile; validated by the release suite"
    )]
    fn greedy_matches_exhaustive_on_candidate_choice() {
        let ev = evaluator();
        let g = optimize(&ev, Benchmark::Hpccg, &OptimizerConfig::default()).unwrap();
        let x = optimize(
            &ev,
            Benchmark::Hpccg,
            &OptimizerConfig {
                search: PlacementSearch::Exhaustive,
                ..OptimizerConfig::default()
            },
        )
        .unwrap();
        let (gb, xb) = (g.best.unwrap(), x.best.unwrap());
        assert_eq!(gb.candidate.op, xb.candidate.op);
        assert_eq!(gb.candidate.active_cores, xb.candidate.active_cores);
        assert!((gb.candidate.cost - xb.candidate.cost).abs() < 1e-9);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under the debug profile; validated by the release suite"
    )]
    fn tie_acceleration_preserves_the_answer_with_less_work() {
        let ev1 = evaluator();
        let with = optimize(&ev1, Benchmark::Swaptions, &OptimizerConfig::default()).unwrap();
        let ev2 = evaluator();
        let without = optimize(
            &ev2,
            Benchmark::Swaptions,
            &OptimizerConfig {
                accelerate_ties: false,
                ..OptimizerConfig::default()
            },
        )
        .unwrap();
        let (a, b) = (with.best.unwrap(), without.best.unwrap());
        assert_eq!(a.candidate.op, b.candidate.op);
        assert_eq!(a.candidate.active_cores, b.candidate.active_cores);
        assert!((a.candidate.cost - b.candidate.cost).abs() < 1e-9);
        assert!(with.stats.candidates_pruned > 0);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under the debug profile; validated by the release suite"
    )]
    fn tie_acceleration_saves_simulations_on_hot_benchmarks() {
        // shock's leading (f, p) runs are infeasible across most interposer
        // sizes; the sequential walk must disprove each edge while the
        // binary search disproves a whole subgroup with one max-edge probe.
        let ev1 = evaluator();
        let with = optimize(&ev1, Benchmark::Shock, &OptimizerConfig::default()).unwrap();
        let ev2 = evaluator();
        let without = optimize(
            &ev2,
            Benchmark::Shock,
            &OptimizerConfig {
                accelerate_ties: false,
                ..OptimizerConfig::default()
            },
        )
        .unwrap();
        let (a, b) = (with.best.unwrap(), without.best.unwrap());
        assert_eq!(a.candidate.op, b.candidate.op);
        assert_eq!(a.candidate.active_cores, b.candidate.active_cores);
        assert!(
            with.stats.thermal_sims < without.stats.thermal_sims,
            "accelerated {} vs sequential {}",
            with.stats.thermal_sims,
            without.stats.thermal_sims
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under the debug profile; validated by the release suite"
    )]
    fn best_at_edge_monotone_in_edge_for_hot_benchmark() {
        let ev = evaluator();
        let small = best_at_edge(
            &ev,
            Benchmark::Shock,
            Weights::performance_only(),
            ChipletCount::Sixteen,
            Mm(22.0),
            PlacementSearch::MultiStartGreedy { starts: 10 },
            7,
        )
        .unwrap();
        let large = best_at_edge(
            &ev,
            Benchmark::Shock,
            Weights::performance_only(),
            ChipletCount::Sixteen,
            Mm(48.0),
            PlacementSearch::MultiStartGreedy { starts: 10 },
            7,
        )
        .unwrap();
        let (s, l) = (small.unwrap(), large.unwrap());
        assert!(
            l.candidate.ips.0 >= s.candidate.ips.0,
            "bigger interposer can't be slower: {} vs {}",
            l.candidate.ips.0,
            s.candidate.ips.0
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under the debug profile; validated by the release suite"
    )]
    fn annealing_finds_placements_too() {
        let ev = evaluator();
        let spec = ev.spec();
        let op = spec.vf.nominal();
        let edge = Mm(36.0);
        let wc = spec.chip.edge().value() / 4.0;
        let cand = Candidate {
            count: ChipletCount::Sixteen,
            edge,
            op,
            active_cores: 256,
            ips: ev.ips(Benchmark::Hpccg, op, 256),
            cost: spec
                .cost
                .assembly_cost(16, wc * wc, edge.value() * edge.value())
                .total(),
            objective: 0.0,
        };
        let greedy = find_placement(
            &ev,
            Benchmark::Hpccg,
            &cand,
            PlacementSearch::MultiStartGreedy { starts: 10 },
            7,
        )
        .unwrap();
        let sa = find_placement(
            &ev,
            Benchmark::Hpccg,
            &cand,
            PlacementSearch::SimulatedAnnealing {
                iterations: 120,
                initial_temp: 8.0,
            },
            7,
        )
        .unwrap();
        assert_eq!(greedy.is_some(), sa.is_some(), "both searches agree here");
    }

    #[test]
    fn interposer_edges_cover_paper_range() {
        let ev = Evaluator::new(SystemSpec::paper());
        let edges = interposer_edges(&ev);
        assert_eq!(edges.first(), Some(&Mm(20.0)));
        assert_eq!(edges.last(), Some(&Mm(50.0)));
        assert_eq!(edges.len(), 61);
    }
}
