//! The closed evaluation loop of Fig. 4(b): chiplet organization →
//! floorplan → power map (Mintemp allocation + NoC) → thermal solve with
//! temperature-dependent leakage → peak temperature.
//!
//! Evaluations are memoized (the optimizer revisits organizations) and the
//! number of *distinct* thermal simulations is tracked — the cost metric the
//! paper uses when comparing the multi-start greedy against exhaustive
//! search (400× fewer simulations).

use crate::allocation::mintemp_order;
use crate::system::SystemSpec;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;
use tac25d_floorplan::chip::CoreId;
use tac25d_floorplan::organization::{ChipletLayout, LayoutError};
use tac25d_floorplan::raster::place_cores;
use tac25d_floorplan::units::{Celsius, Watts};
use tac25d_noc::link::TimingError;
use tac25d_obs as obs;
use tac25d_power::benchmarks::Benchmark;
use tac25d_power::dvfs::OperatingPoint;
use tac25d_power::perf::{system_ips, Ips};
use tac25d_surrogate::{Prediction, SurrogateConfig, SurrogateInput, ThermalSurrogate};
use tac25d_thermal::coupled::{solve_coupled, AffineSource, CoupledOptions};
use tac25d_thermal::model::{PackageModel, ThermalError};

/// Errors surfaced by system evaluation.
#[derive(Debug)]
pub enum EvalError {
    /// Invalid chiplet organization.
    Layout(LayoutError),
    /// Thermal solver failure (not including thermal runaway, which is
    /// reported as an infeasible [`Evaluation`]).
    Thermal(ThermalError),
    /// An interposer link cannot close single-cycle timing.
    Timing(TimingError),
    /// The per-request deadline ([`Evaluator::with_deadline`]) expired
    /// before the evaluation's coupled solve started.
    Deadline,
}

impl EvalError {
    /// Whether this error is a deadline abort (the only retryable kind —
    /// the serve layer maps it to 504 instead of 500).
    pub fn is_deadline(&self) -> bool {
        matches!(self, EvalError::Deadline)
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Layout(e) => write!(f, "layout error: {e}"),
            EvalError::Thermal(e) => write!(f, "thermal error: {e}"),
            EvalError::Timing(e) => write!(f, "link timing error: {e}"),
            EvalError::Deadline => write!(f, "evaluation deadline expired"),
        }
    }
}

impl Error for EvalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EvalError::Layout(e) => Some(e),
            EvalError::Thermal(e) => Some(e),
            EvalError::Timing(e) => Some(e),
            EvalError::Deadline => None,
        }
    }
}

impl From<LayoutError> for EvalError {
    fn from(e: LayoutError) -> Self {
        EvalError::Layout(e)
    }
}

impl From<TimingError> for EvalError {
    fn from(e: TimingError) -> Self {
        EvalError::Timing(e)
    }
}

/// The outcome of evaluating one (organization, benchmark, f, p) point.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The evaluated organization.
    pub layout: ChipletLayout,
    /// The benchmark.
    pub benchmark: Benchmark,
    /// The operating point.
    pub op: OperatingPoint,
    /// Active core count (Mintemp-allocated).
    pub active_cores: u16,
    /// Steady-state peak (junction) temperature with converged leakage.
    pub peak: Celsius,
    /// Total system power (cores + NoC) at convergence.
    pub total_power: Watts,
    /// NoC share of the total power.
    pub noc_power: Watts,
    /// Aggregate performance at this (f, p).
    pub ips: Ips,
    /// Whether the leakage-coupled steady state exists below the runaway
    /// cap (false ⇒ thermal runaway; the organization is infeasible).
    pub converged: bool,
    /// Relative energy-balance residual of the converged steady state
    /// (|heat out − power in| / power in); NaN on runaway.
    /// A verification invariant: power injected must leave through the
    /// sink and secondary path.
    pub energy_balance_error: f64,
    /// Peak temperature over each chiplet footprint, in layout order
    /// (empty on runaway). Drives the per-chiplet |ΔT| distributions of
    /// the differential-testing harness.
    pub chiplet_peaks: Vec<Celsius>,
}

impl Evaluation {
    /// Eq. (6): the organization is valid iff the loop converged and the
    /// peak stays at or below the threshold.
    pub fn feasible(&self, threshold: Celsius) -> bool {
        self.converged && self.peak.value() <= threshold.value() + 1e-9
    }
}

/// Integer cache key for a layout (spacings snapped to the 0.25 mm cache
/// lattice), *canonical* under the layout symmetry group: parameterizations
/// that describe the same physical package map to the same key.
/// `Symmetric4 { s3 }` is exactly the 2×2 uniform grid with gap `s3`, and a
/// `Symmetric16` whose spacings satisfy `s1 = s3` and `s2 = s3/2` is exactly
/// the 4×4 uniform grid with gap `s3` (same interposer edge, same chiplet
/// rectangles); both fold onto [`LayoutKey::Grid`], so each equivalence
/// class is solved once. Cross-parameterization cache reuses are counted
/// under `evaluator.canonical_hits`.
///
/// Public only for the cache-key property tests; not a stable API.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayoutKey {
    Single,
    /// An `r × r` uniform grid with lattice gap `gap` — the canonical form
    /// of `Uniform`, `Symmetric4` (r = 2) and grid-degenerate `Symmetric16`
    /// (r = 4) layouts.
    Grid {
        r: u16,
        gap: i64,
    },
    /// A symmetric 16-chiplet organization that is not a uniform grid.
    Sym16 {
        s1: i64,
        s2: i64,
        s3: i64,
    },
}

/// Snaps a millimetre value to the 0.25 mm cache lattice — half the
/// optimizer's 0.5 mm spacing step, so every distinct search candidate
/// stays distinct while the uniform-grid midpoint `s2 = s3/2` still lands
/// exactly on the lattice.
#[doc(hidden)]
pub fn quarter_mm(v: f64) -> i64 {
    (v * 4.0).round() as i64
}

/// The canonical cache key of a layout.
#[doc(hidden)]
pub fn layout_key(layout: &ChipletLayout) -> LayoutKey {
    match layout {
        ChipletLayout::SingleChip => LayoutKey::Single,
        ChipletLayout::Uniform { r, gap } => LayoutKey::Grid {
            r: *r,
            gap: quarter_mm(gap.value()),
        },
        ChipletLayout::Symmetric4 { s3 } => LayoutKey::Grid {
            r: 2,
            gap: quarter_mm(s3.value()),
        },
        ChipletLayout::Symmetric16 { spacing } => {
            let s1 = quarter_mm(spacing.s1.value());
            let s2 = quarter_mm(spacing.s2.value());
            let s3 = quarter_mm(spacing.s3.value());
            if s1 == s3 && 2 * s2 == s3 {
                LayoutKey::Grid { r: 4, gap: s3 }
            } else {
                LayoutKey::Sym16 { s1, s2, s3 }
            }
        }
    }
}

type EvalKey = (LayoutKey, Benchmark, u32, u16);

/// The memo key of one (organization, benchmark, f, p) evaluation point.
fn eval_key(layout: &ChipletLayout, benchmark: Benchmark, op: OperatingPoint, p: u16) -> EvalKey {
    (layout_key(layout), benchmark, op.freq_mhz as u32, p)
}

/// Number of independently-locked stripes per cache. More than the bench
/// runner's worker count, so concurrent evaluations of different keys
/// rarely contend on the same lock.
const CACHE_STRIPES: usize = 16;

/// A hash map sharded into independently-locked stripes. Under the
/// parallel figure drivers every worker thread hits the evaluator caches
/// on each candidate; striping replaces the former single global
/// `Mutex<HashMap>` (a serialization point) with per-stripe locks chosen
/// by key hash.
struct StripedCache<K, V> {
    shards: Vec<Mutex<HashMap<K, V>>>,
}

impl<K: Eq + Hash, V: Clone> StripedCache<K, V> {
    fn new() -> Self {
        StripedCache {
            shards: (0..CACHE_STRIPES)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, V>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    fn get(&self, key: &K) -> Option<V> {
        self.shard(key)
            .lock()
            .expect("lock poisoned")
            .get(key)
            .cloned()
    }

    fn insert(&self, key: K, value: V) {
        self.shard(&key)
            .lock()
            .expect("lock poisoned")
            .insert(key, value);
    }

    fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("lock poisoned").clear();
        }
    }
}

/// One in-flight exact evaluation of a cache key: the leader computes,
/// waiters block on the condvar until `finish` runs (in the leader's drop
/// guard, so a panicking leader still releases its waiters).
#[derive(Default)]
struct Flight {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Flight {
    fn finish(&self) {
        *self.done.lock().expect("lock poisoned") = true;
        self.cv.notify_all();
    }

    /// Waits for the leader, bounded by the waiter's own deadline.
    /// Returns `false` on a deadline timeout with the flight still open.
    fn wait(&self, deadline: Option<Instant>) -> bool {
        let mut done = self.done.lock().expect("lock poisoned");
        loop {
            if *done {
                return true;
            }
            match deadline {
                None => done = self.cv.wait(done).expect("lock poisoned"),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return false;
                    }
                    let (guard, timeout) =
                        self.cv.wait_timeout(done, d - now).expect("lock poisoned");
                    done = guard;
                    if timeout.timed_out() && !*done {
                        return false;
                    }
                }
            }
        }
    }
}

/// Removes the flight from the in-flight table and wakes every waiter when
/// the leader finishes — including by panic, so a crashed leader cannot
/// strand waiters (one of them retries as the next leader).
struct FlightGuard<'a> {
    shared: &'a SharedState,
    key: EvalKey,
    flight: Arc<Flight>,
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        self.shared
            .inflight
            .lock()
            .expect("lock poisoned")
            .remove(&self.key);
        self.flight.finish();
    }
}

/// Per-watt die temperature rise of the single-chip package under a
/// uniform unit source over the chip footprint — the Green's-function
/// kernel behind the baseline-walk screen ([`single_chip_baseline_screened`]).
#[derive(Debug, Clone, Copy)]
struct SingleChipUnit {
    /// Peak die rise over ambient, °C per watt.
    peak_rise: f64,
    /// Chip-average die rise over ambient, °C per watt (drives the
    /// leakage fixed point of the screen, mirroring the surrogate's
    /// per-chiplet mean-temperature refinement).
    mean_rise: f64,
}

/// The cache state shared by every handle of one evaluator family: the
/// striped memo tables, the surrogate and the simulation counter. The
/// serve daemon holds exactly one of these per process; each request gets
/// a cheap [`Evaluator`] handle with its own deadline via
/// [`Evaluator::with_deadline`].
struct SharedState {
    spec: SystemSpec,
    /// `mintemp_order(&spec.chip)`, ranked once: the Mintemp-active cores
    /// of `p` are its first `p` entries ([`Evaluator::mintemp_prefix`]).
    mintemp: Vec<CoreId>,
    models: StripedCache<LayoutKey, Arc<PackageModel>>,
    evals: StripedCache<EvalKey, Arc<Evaluation>>,
    /// Tier-1 surrogate peaks ([`ThermalSurrogate::raw_peak`]) keyed like
    /// `evals`: the surrogate input and its per-core power law are built
    /// from the key's (layout, benchmark, op, p) alone, so the key fixes
    /// the raw peak. Predictions and corrector training both read through
    /// it, so each distinct point pays one superposition per evaluator.
    raw_peaks: StripedCache<EvalKey, Option<f64>>,
    /// Lazily-solved single-chip unit response (`None` = not yet built,
    /// `Some(None)` = construction failed and the screen stays off).
    single_unit: Mutex<Option<Option<SingleChipUnit>>>,
    /// Exact evaluations currently being computed, for cross-request
    /// coalescing: concurrent misses on one key elect a single leader and
    /// the rest wait for its cached result instead of re-running the same
    /// assembly + factorization + coupled solve.
    inflight: Mutex<HashMap<EvalKey, Arc<Flight>>>,
    thermal_sims: AtomicUsize,
    surrogate: Option<Arc<ThermalSurrogate>>,
}

/// Memoizing system evaluator. Cheap to share behind a reference across
/// threads (all interior state is synchronized), and cheap to *clone as a
/// handle*: [`Evaluator::share`] / [`Evaluator::with_deadline`] return new
/// handles onto the same caches, so a long-running service can give every
/// request its own deadline while all requests warm one memo table.
pub struct Evaluator {
    shared: Arc<SharedState>,
    /// This handle's evaluation deadline. Checked before serving a miss
    /// and threaded into the coupled solve, which checks it before
    /// starting. Cache hits are always served — they cost microseconds.
    deadline: Option<Instant>,
}

impl fmt::Debug for Evaluator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Evaluator")
            .field("thermal_sims", &self.thermal_sims())
            .finish_non_exhaustive()
    }
}

impl Evaluator {
    /// Creates an evaluator for a system specification.
    pub fn new(spec: SystemSpec) -> Self {
        Evaluator::with_parts(spec, None)
    }

    fn with_parts(spec: SystemSpec, surrogate: Option<Arc<ThermalSurrogate>>) -> Self {
        Evaluator {
            shared: Arc::new(SharedState {
                mintemp: mintemp_order(&spec.chip),
                spec,
                models: StripedCache::new(),
                evals: StripedCache::new(),
                raw_peaks: StripedCache::new(),
                single_unit: Mutex::new(None),
                inflight: Mutex::new(HashMap::new()),
                thermal_sims: AtomicUsize::new(0),
                surrogate,
            }),
            deadline: None,
        }
    }

    /// Creates an evaluator with an attached multi-fidelity thermal
    /// surrogate. Every converged exact solve trains the surrogate's
    /// residual corrector, and [`Evaluator::predict_peak`] becomes
    /// available for surrogate-screened searches
    /// (`Fidelity::Surrogate` in the optimizer).
    pub fn with_surrogate(spec: SystemSpec, cfg: SurrogateConfig) -> Self {
        let surrogate = Arc::new(ThermalSurrogate::new(
            spec.chip.clone(),
            spec.rules,
            spec.stack_25d.clone(),
            spec.thermal.clone(),
            cfg,
        ));
        Evaluator::with_parts(spec, Some(surrogate))
    }

    /// A new handle onto the same shared caches, surrogate and counters,
    /// with no deadline. The serve daemon's per-request entry point
    /// (combined with [`Evaluator::with_deadline`]).
    pub fn share(&self) -> Evaluator {
        Evaluator {
            shared: Arc::clone(&self.shared),
            deadline: None,
        }
    }

    /// A new handle onto the same shared caches whose evaluations abort
    /// with [`EvalError::Deadline`] once `deadline` passes. When this
    /// handle already carries a deadline the earlier of the two wins.
    /// Deadlines bound *fresh* thermal work: cache hits are still served
    /// after expiry (they cost microseconds and keep partial-progress
    /// responses useful).
    pub fn with_deadline(&self, deadline: Instant) -> Evaluator {
        Evaluator {
            shared: Arc::clone(&self.shared),
            deadline: Some(self.deadline.map_or(deadline, |d| d.min(deadline))),
        }
    }

    /// This handle's deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The attached surrogate, if any.
    pub fn surrogate(&self) -> Option<&Arc<ThermalSurrogate>> {
        self.shared.surrogate.as_ref()
    }

    /// The underlying system specification.
    pub fn spec(&self) -> &SystemSpec {
        &self.shared.spec
    }

    /// The `p` Mintemp-active cores in priority order: the set
    /// `mintemp_active_cores(&spec.chip, p)` returns, before its sort by
    /// id.
    ///
    /// # Panics
    ///
    /// Panics if `p` is zero or exceeds the chip's core count, as
    /// `mintemp_active_cores` does.
    fn mintemp_prefix(&self, p: u16) -> &[CoreId] {
        let order = &self.shared.mintemp;
        assert!(
            p > 0 && usize::from(p) <= order.len(),
            "active core count {p} out of 1..={}",
            order.len()
        );
        &order[..usize::from(p)]
    }

    /// Builds the surrogate's view of one evaluation point: active cores
    /// and NoC watts per chiplet. `None` when the point is outside the
    /// surrogate's domain (single chip, unplaceable cores, timing-broken
    /// links) and must go to the exact solver.
    pub(crate) fn surrogate_input(
        &self,
        layout: &ChipletLayout,
        benchmark: Benchmark,
        op: OperatingPoint,
        p: u16,
    ) -> Option<SurrogateInput> {
        if layout.is_single_chip() {
            return None;
        }
        let spec = &self.shared.spec;
        let placed = place_cores(&spec.chip, layout, &spec.rules).ok()?;
        let mut active_per_chiplet = vec![0u16; layout.chiplet_count()];
        for core in self.mintemp_prefix(p) {
            active_per_chiplet[placed[core.0 as usize].chiplet] += 1;
        }
        let profile = benchmark.profile();
        let utilization = profile.noc_activity * f64::from(p) / f64::from(spec.chip.core_count());
        let noc_total = spec
            .noc
            .power(&spec.chip, layout, &spec.rules, op, utilization)
            .ok()?
            .total();
        let rects = layout.chiplet_rects(&spec.chip, &spec.rules);
        let chip_area: f64 = rects.iter().map(|r| r.area().value()).sum();
        let noc_per_chiplet = rects
            .iter()
            .map(|r| noc_total * r.area().value() / chip_area)
            .collect();
        Some(SurrogateInput {
            layout: *layout,
            benchmark,
            op,
            active_cores: p,
            active_per_chiplet,
            noc_per_chiplet,
        })
    }

    /// Surrogate peak-temperature estimate of one evaluation point —
    /// *no* exact thermal work. `None` without an attached surrogate or
    /// outside its domain. The estimate is advisory: feasibility claims
    /// must always come from [`Evaluator::evaluate`].
    pub fn predict_peak(
        &self,
        layout: &ChipletLayout,
        benchmark: Benchmark,
        op: OperatingPoint,
        p: u16,
    ) -> Option<Prediction> {
        let surrogate = self.shared.surrogate.as_ref()?;
        let input = self.surrogate_input(layout, benchmark, op, p)?;
        let raw = self.raw_peak(surrogate, &input)?;
        Some(surrogate.predict(&input, raw))
    }

    /// The tier-1 surrogate peak of one point, memoized per evaluator
    /// (until [`Evaluator::clear`]).
    fn raw_peak(&self, surrogate: &ThermalSurrogate, input: &SurrogateInput) -> Option<f64> {
        let key = eval_key(&input.layout, input.benchmark, input.op, input.active_cores);
        if let Some(raw) = self.shared.raw_peaks.get(&key) {
            return raw;
        }
        let (profile, op) = (input.benchmark.profile(), input.op);
        let core_power = &self.shared.spec.core_power;
        let raw = surrogate.raw_peak(input, &|t| core_power.active_power(&profile, op, t));
        self.shared.raw_peaks.insert(key, raw);
        raw
    }

    /// The single-chip unit response, solved lazily once per evaluator
    /// family. Like the surrogate's kernel solves, this linear solve is
    /// *not* counted as an exact coupled solve — it amortizes over every
    /// screened point of every baseline walk.
    fn single_chip_unit(&self) -> Option<SingleChipUnit> {
        {
            let cached = self.shared.single_unit.lock().expect("lock poisoned");
            if let Some(u) = *cached {
                return u;
            }
        }
        let built = (|| {
            let spec = &self.shared.spec;
            let model = self.model_for(&ChipletLayout::SingleChip).ok()?;
            let rect = ChipletLayout::SingleChip.chiplet_rects(&spec.chip, &spec.rules)[0];
            let sol = model.unit_response(0).ok()?;
            obs::counter!("evaluator.baseline_kernel_solves").inc();
            let ambient = spec.thermal.ambient.value();
            Some(SingleChipUnit {
                peak_rise: sol.peak().value() - ambient,
                mean_rise: sol.rect_avg(&rect).value() - ambient,
            })
        })();
        *self.shared.single_unit.lock().expect("lock poisoned") = Some(built);
        built
    }

    /// Tier-1 estimate of the single-chip peak at one (benchmark, op, p):
    /// the uniform-power unit response scaled by total watts, with a short
    /// mean-temperature leakage fixed point. Advisory only — the estimate
    /// screens the baseline walk and can never claim feasibility. `None`
    /// when the unit response cannot be built.
    pub(crate) fn predict_single_chip_peak(
        &self,
        benchmark: Benchmark,
        op: OperatingPoint,
        p: u16,
    ) -> Option<f64> {
        let unit = self.single_chip_unit()?;
        let spec = &self.shared.spec;
        let profile = benchmark.profile();
        let utilization = profile.noc_activity * f64::from(p) / f64::from(spec.chip.core_count());
        let noc_total = spec
            .noc
            .power(
                &spec.chip,
                &ChipletLayout::SingleChip,
                &spec.rules,
                op,
                utilization,
            )
            .ok()?
            .total();
        let ambient = spec.thermal.ambient.value();
        let mut t_mean = 60.0f64;
        let mut peak = ambient;
        for _ in 0..3 {
            let w = f64::from(p) * spec.core_power.active_power(&profile, op, Celsius(t_mean))
                + noc_total;
            if !w.is_finite() {
                return None;
            }
            peak = ambient + unit.peak_rise * w;
            if !peak.is_finite() {
                return None;
            }
            t_mean = (ambient + unit.mean_rise * w).clamp(ambient, 400.0);
        }
        Some(peak)
    }

    /// Number of distinct thermal simulations performed so far (cache
    /// misses — the paper's search-cost metric).
    pub fn thermal_sims(&self) -> usize {
        self.shared.thermal_sims.load(Ordering::Relaxed)
    }

    /// Resets the thermal-simulation counter (the caches stay warm).
    pub fn reset_sim_counter(&self) {
        self.shared.thermal_sims.store(0, Ordering::Relaxed);
    }

    /// Clears all caches and the counter.
    pub fn clear(&self) {
        self.shared.models.clear();
        self.shared.evals.clear();
        self.shared.raw_peaks.clear();
        self.reset_sim_counter();
    }

    /// Aggregate IPS at (benchmark, op, p) — pure performance-model lookup,
    /// no thermal work (the paper runs these Sniper simulations once up
    /// front).
    pub fn ips(&self, benchmark: Benchmark, op: OperatingPoint, p: u16) -> Ips {
        system_ips(&benchmark.profile(), op, p)
    }

    fn model_for(&self, layout: &ChipletLayout) -> Result<Arc<PackageModel>, EvalError> {
        let key = layout_key(layout);
        if let Some(m) = self.shared.models.get(&key) {
            // Successive candidate evaluations of the same organization
            // share the model, and with it the assembled network and its
            // factored IC(0) preconditioner. A model is immutable, so every
            // result stays independent of thread scheduling and safe to
            // memoize.
            obs::counter!("evaluator.model_reuses").inc();
            if m.layout() != layout {
                obs::counter!("evaluator.canonical_hits").inc();
            }
            return Ok(m);
        }
        let spec = &self.shared.spec;
        let stack = if layout.is_single_chip() {
            &spec.stack_2d
        } else {
            &spec.stack_25d
        };
        let built = PackageModel::new(&spec.chip, layout, &spec.rules, stack, spec.thermal.clone());
        let model = Arc::new(built.map_err(|e| match e {
            ThermalError::Layout(l) => EvalError::Layout(l),
            other => EvalError::Thermal(other),
        })?);
        self.shared.models.insert(key, Arc::clone(&model));
        Ok(model)
    }

    /// Evaluates peak temperature and power of one organization at one
    /// (benchmark, operating point, active-core count) — the full closed
    /// loop of Fig. 4(b). Results are memoized.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] for invalid layouts, solver failures or
    /// interposer links that cannot close timing. Thermal *runaway* is not
    /// an error: it yields an infeasible [`Evaluation`] with
    /// `converged == false`.
    pub fn evaluate(
        &self,
        layout: &ChipletLayout,
        benchmark: Benchmark,
        op: OperatingPoint,
        p: u16,
    ) -> Result<Arc<Evaluation>, EvalError> {
        let key = eval_key(layout, benchmark, op, p);
        loop {
            if let Some(e) = self.shared.evals.get(&key) {
                obs::counter!("evaluator.cache_hits").inc();
                if e.layout != *layout {
                    // The stored evaluation came from a symmetry-equivalent
                    // parameterization of the same physical package (e.g.
                    // `Symmetric4` vs the 2×2 `Uniform` grid).
                    obs::counter!("evaluator.canonical_hits").inc();
                }
                return Ok(e);
            }
            // Single-flight: concurrent requests for the same uncached
            // point elect one leader to run the exact solve; everyone
            // else blocks on its completion (bounded by their own
            // deadline) and re-reads the cache. This is what turns N
            // simultaneous identical serve requests into one thermal
            // simulation instead of N.
            let (flight, leader) = {
                let mut inflight = self.shared.inflight.lock().expect("lock poisoned");
                match inflight.get(&key) {
                    Some(f) => (Arc::clone(f), false),
                    None => {
                        let f = Arc::new(Flight::default());
                        inflight.insert(key, Arc::clone(&f));
                        (f, true)
                    }
                }
            };
            if leader {
                let _guard = FlightGuard {
                    shared: &self.shared,
                    key,
                    flight,
                };
                let result = Arc::new(self.evaluate_uncached(layout, benchmark, op, p)?);
                self.shared.evals.insert(key, Arc::clone(&result));
                return Ok(result);
            }
            obs::counter!("evaluator.singleflight_joins").inc();
            if !flight.wait(self.deadline) {
                return Err(EvalError::Deadline);
            }
            // Leader finished (or aborted): loop to re-check the cache;
            // an aborted leader leaves it empty and this handle becomes
            // the next leader.
        }
    }

    /// The cache-miss path of [`Evaluator::evaluate`]: one exact coupled
    /// solve. Checks this handle's deadline up front and threads it into
    /// the thermal solver, which checks it again before solving. Aborted
    /// evaluations are never cached.
    fn evaluate_uncached(
        &self,
        layout: &ChipletLayout,
        benchmark: Benchmark,
        op: OperatingPoint,
        p: u16,
    ) -> Result<Evaluation, EvalError> {
        if self
            .deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
        {
            return Err(EvalError::Deadline);
        }
        let spec = &self.shared.spec;
        let profile = benchmark.profile();
        // Placing the cores first refuses a chiplet count that does not
        // divide the core grid before a thermal model is built for it.
        let placed = place_cores(&spec.chip, layout, &spec.rules)?;
        let model = self.model_for(layout)?;
        // Sorted by id: the list `mintemp_active_cores` returns.
        let mut active = self.mintemp_prefix(p).to_vec();
        active.sort_unstable();
        let active_rects: Vec<_> = active.iter().map(|c| placed[c.0 as usize].rect).collect();

        // NoC power, spread uniformly over the chiplets (the paper notes
        // its thermal impact is negligible; we still inject it).
        let utilization = profile.noc_activity * f64::from(p) / f64::from(spec.chip.core_count());
        let noc = spec
            .noc
            .power(&spec.chip, layout, &spec.rules, op, utilization)?;
        let noc_total = noc.total();
        let chiplet_rects = layout.chiplet_rects(&spec.chip, &spec.rules);
        let chip_area: f64 = chiplet_rects.iter().map(|r| r.area().value()).sum();

        self.shared.thermal_sims.fetch_add(1, Ordering::Relaxed);
        obs::counter!("thermal.exact_solves").inc();
        // Alias tracked by the bench/CI drift gates: exact *coupled* solves
        // the evaluator spends (cache misses), the organizer's cost metric.
        obs::counter!("evaluator.exact_solves").inc();
        // Each active core's power is affine in its own mean temperature;
        // the NoC share of each chiplet is constant.
        let (p0, dp_dt) = spec.core_power.affine_power(&profile, op);
        let sources: Vec<AffineSource> = active_rects
            .iter()
            .map(|&rect| AffineSource { rect, p0, dp_dt })
            .chain(chiplet_rects.iter().map(|&rect| {
                AffineSource::constant(rect, noc_total * rect.area().value() / chip_area)
            }))
            .collect();
        let options = CoupledOptions {
            deadline: self.deadline,
            ..CoupledOptions::default()
        };
        let coupled = solve_coupled(&model, &sources, &options);

        let eval = match coupled {
            Ok(solution) => Evaluation {
                layout: *layout,
                benchmark,
                op,
                active_cores: p,
                peak: solution.peak(),
                total_power: Watts(solution.total_power()),
                noc_power: Watts(noc_total),
                ips: self.ips(benchmark, op, p),
                converged: true,
                energy_balance_error: solution.energy_balance_error(),
                chiplet_peaks: chiplet_rects.iter().map(|r| solution.rect_max(r)).collect(),
            },
            Err(ThermalError::Runaway { peak }) => Evaluation {
                layout: *layout,
                benchmark,
                op,
                active_cores: p,
                peak,
                total_power: Watts(f64::NAN),
                noc_power: Watts(noc_total),
                ips: self.ips(benchmark, op, p),
                converged: false,
                energy_balance_error: f64::NAN,
                chiplet_peaks: Vec::new(),
            },
            Err(ThermalError::DeadlineExpired) => return Err(EvalError::Deadline),
            Err(other) => return Err(EvalError::Thermal(other)),
        };
        // Every converged exact solve doubles as surrogate training data.
        if let Some(surrogate) = &self.shared.surrogate {
            if eval.converged {
                if let Some(input) = self.surrogate_input(layout, benchmark, op, p) {
                    if let Some(raw) = self.raw_peak(surrogate, &input) {
                        surrogate.observe(&input, raw, eval.peak);
                    }
                }
            }
        }
        Ok(eval)
    }
}

/// The best single-chip operating point under the threshold — the paper's
/// normalization baseline (`IPS_2D` in Eq. (5)).
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Chosen operating point.
    pub op: OperatingPoint,
    /// Chosen active core count.
    pub active_cores: u16,
    /// Achieved performance.
    pub ips: Ips,
    /// Peak temperature at that point.
    pub peak: Celsius,
    /// Single-chip manufacturing cost (`C_2D`).
    pub cost: f64,
}

/// Finds the maximum-IPS feasible single-chip operating point for a
/// benchmark, or `None` if even the slowest point violates the threshold.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn single_chip_baseline(
    ev: &Evaluator,
    benchmark: Benchmark,
) -> Result<Option<Baseline>, EvalError> {
    single_chip_baseline_screened(ev, benchmark, false)
}

/// Margin above the threshold under which a screened baseline candidate
/// still gets an exact solve. The uniform-power unit-response estimate is
/// biased both ways (it smears the mintemp active-core pattern and feeds
/// leakage the chip-mean temperature), but across the corpus its error
/// stays well inside this band, so the walk's chosen point — always
/// exact-solver-verified — never changes.
pub const BASELINE_GUARD_BAND_C: f64 = 15.0;

/// [`single_chip_baseline`] with an optional tier-1 screen over the walk:
/// candidates whose unit-response estimate exceeds
/// `threshold + BASELINE_GUARD_BAND_C` are skipped without an exact solve.
/// The returned baseline is always exact-solver-backed either way; the
/// screen only prunes clearly-infeasible prefix candidates.
///
/// # Errors
///
/// Propagates evaluation errors.
pub(crate) fn single_chip_baseline_screened(
    ev: &Evaluator,
    benchmark: Benchmark,
    screen: bool,
) -> Result<Option<Baseline>, EvalError> {
    let spec = ev.spec();
    let mut candidates: Vec<(OperatingPoint, u16, Ips)> = Vec::new();
    for &op in spec.vf.points() {
        for &p in &spec.core_counts {
            candidates.push((op, p, ev.ips(benchmark, op, p)));
        }
    }
    candidates.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("IPS is finite"));
    for (op, p, ips) in candidates {
        if screen {
            if let Some(pred) = ev.predict_single_chip_peak(benchmark, op, p) {
                if pred > spec.threshold.value() + BASELINE_GUARD_BAND_C {
                    obs::counter!("evaluator.baseline_screen_skips").inc();
                    continue;
                }
            }
        }
        let e = ev.evaluate(&ChipletLayout::SingleChip, benchmark, op, p)?;
        if e.feasible(spec.threshold) {
            return Ok(Some(Baseline {
                op,
                active_cores: p,
                ips,
                peak: e.peak,
                cost: spec.cost.single_chip_cost(spec.chip.area().value()),
            }));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac25d_floorplan::units::Mm;

    fn evaluator() -> Evaluator {
        let mut spec = SystemSpec::fast();
        spec.thermal.grid = 16; // keep unit tests snappy
        Evaluator::new(spec)
    }

    fn surrogate_evaluator() -> Evaluator {
        let mut spec = SystemSpec::fast();
        spec.thermal.grid = 16;
        Evaluator::with_surrogate(spec, SurrogateConfig::default())
    }

    /// Tier-1 superpositions computed on this thread while `f` runs.
    fn raw_peaks_during(f: impl FnOnce()) -> u64 {
        obs::trace::begin();
        f();
        obs::trace::finish()
            .expect("collector installed above")
            .counter_delta("surrogate.raw_peaks")
    }

    fn assert_bitwise_equal(a: Prediction, b: Prediction) {
        let bits = |p: Prediction| {
            (
                p.raw_peak_c.to_bits(),
                p.corrected_peak_c.to_bits(),
                p.confidence.to_bits(),
                p.trusted,
            )
        };
        assert_eq!(bits(a), bits(b), "{a:?} vs {b:?}");
    }

    const MEMO_LAYOUT: ChipletLayout = ChipletLayout::Symmetric4 { s3: Mm(4.0) };

    #[test]
    fn repeated_predictions_compute_tier_one_once() {
        let ev = surrogate_evaluator();
        let op = ev.spec().vf.nominal();
        let mut preds = Vec::new();
        let computed = raw_peaks_during(|| {
            for _ in 0..3 {
                preds.push(
                    ev.predict_peak(&MEMO_LAYOUT, Benchmark::Hpccg, op, 256)
                        .unwrap(),
                );
            }
        });
        assert_eq!(computed, 1, "one superposition for one key");
        assert_bitwise_equal(preds[0], preds[2]);
        assert_eq!(ev.surrogate().unwrap().predictions(), 3);
    }

    #[test]
    fn observing_a_predicted_point_computes_nothing_new() {
        let ev = surrogate_evaluator();
        let op = ev.spec().vf.nominal();
        ev.predict_peak(&MEMO_LAYOUT, Benchmark::Hpccg, op, 256)
            .unwrap();
        let computed = raw_peaks_during(|| {
            ev.evaluate(&MEMO_LAYOUT, Benchmark::Hpccg, op, 256)
                .unwrap();
        });
        assert_eq!(computed, 0, "training reads the predicted raw peak");
        assert_eq!(ev.surrogate().unwrap().observations(), 1);
    }

    #[test]
    fn clear_drops_the_raw_peak_memo() {
        let ev = surrogate_evaluator();
        let op = ev.spec().vf.nominal();
        let computed = raw_peaks_during(|| {
            ev.predict_peak(&MEMO_LAYOUT, Benchmark::Hpccg, op, 256);
            ev.clear();
            ev.predict_peak(&MEMO_LAYOUT, Benchmark::Hpccg, op, 256);
        });
        assert_eq!(computed, 2, "a cleared evaluator recomputes tier 1");
    }

    #[test]
    fn memo_hits_match_a_fresh_evaluator_bitwise() {
        // Same corrector state on both sides (one observation of another
        // point), so only where the raw peak came from differs.
        let trained = ChipletLayout::Symmetric4 { s3: Mm(5.0) };
        let op = SystemSpec::fast().vf.nominal();
        let warm = surrogate_evaluator();
        warm.predict_peak(&MEMO_LAYOUT, Benchmark::Hpccg, op, 256)
            .unwrap();
        warm.evaluate(&trained, Benchmark::Hpccg, op, 256).unwrap();
        let mut hit = None;
        let computed = raw_peaks_during(|| {
            hit = warm.predict_peak(&MEMO_LAYOUT, Benchmark::Hpccg, op, 256);
        });
        assert_eq!(computed, 0, "served from the memo");
        let fresh = surrogate_evaluator();
        fresh.evaluate(&trained, Benchmark::Hpccg, op, 256).unwrap();
        let miss = fresh.predict_peak(&MEMO_LAYOUT, Benchmark::Hpccg, op, 256);
        let (hit, miss) = (hit.unwrap(), miss.unwrap());
        assert!(hit.confidence.is_finite(), "the corrector answered");
        assert_bitwise_equal(hit, miss);
    }

    #[test]
    fn evaluate_single_chip_high_power_violates_85c() {
        // Fig. 5: high-power benchmarks far exceed 85 °C on a single chip
        // at 1 GHz with all cores active.
        let ev = evaluator();
        let op = ev.spec().vf.nominal();
        let e = ev
            .evaluate(&ChipletLayout::SingleChip, Benchmark::Shock, op, 256)
            .unwrap();
        assert!(e.peak.value() > 100.0, "shock peak {}", e.peak);
        assert!(!e.feasible(Celsius(85.0)));
        assert!(e.total_power.value() > 250.0, "power {}", e.total_power);
    }

    #[test]
    fn wide_16_chiplet_system_reclaims_shock() {
        // Fig. 5: shock meets 85 °C with 16 chiplets at 10 mm spacing.
        let ev = evaluator();
        let op = ev.spec().vf.nominal();
        let layout = ChipletLayout::Uniform {
            r: 4,
            gap: Mm(10.0),
        };
        let e = ev.evaluate(&layout, Benchmark::Shock, op, 256).unwrap();
        assert!(
            e.feasible(Celsius(85.0)),
            "shock on 16 chiplets @10mm peaked at {}",
            e.peak
        );
    }

    #[test]
    fn leakage_runaway_is_an_infeasible_evaluation() {
        // 6 %/°C leakage growth on every core (still non-negative at
        // ambient): the 256 rank-one feedback terms outgrow the single
        // chip's conductance, so no steady state exists. That is an
        // infeasible evaluation, not an error.
        let mut spec = SystemSpec::fast();
        spec.thermal.grid = 16;
        spec.core_power.leakage.slope_per_c = 0.06;
        let ev = Evaluator::new(spec);
        let op = ev.spec().vf.nominal();
        let e = ev
            .evaluate(&ChipletLayout::SingleChip, Benchmark::Shock, op, 256)
            .unwrap();
        assert!(!e.converged);
        assert!(!e.feasible(Celsius(1e9)));
        assert!(e.chiplet_peaks.is_empty());
    }

    #[test]
    fn low_power_benchmark_is_cooler() {
        let ev = evaluator();
        let op = ev.spec().vf.nominal();
        let hot = ev
            .evaluate(&ChipletLayout::SingleChip, Benchmark::Shock, op, 256)
            .unwrap();
        let cool = ev
            .evaluate(&ChipletLayout::SingleChip, Benchmark::Canneal, op, 256)
            .unwrap();
        assert!(cool.peak < hot.peak);
    }

    #[test]
    fn fewer_active_cores_run_cooler() {
        let ev = evaluator();
        let op = ev.spec().vf.nominal();
        let full = ev
            .evaluate(&ChipletLayout::SingleChip, Benchmark::Cholesky, op, 256)
            .unwrap();
        let half = ev
            .evaluate(&ChipletLayout::SingleChip, Benchmark::Cholesky, op, 128)
            .unwrap();
        assert!(half.peak < full.peak);
        assert!(half.total_power < full.total_power);
    }

    #[test]
    fn dvfs_reduces_temperature() {
        let ev = evaluator();
        let t = &ev.spec().vf;
        let fast = ev
            .evaluate(
                &ChipletLayout::SingleChip,
                Benchmark::Cholesky,
                t.nominal(),
                256,
            )
            .unwrap();
        let slow = ev
            .evaluate(
                &ChipletLayout::SingleChip,
                Benchmark::Cholesky,
                t.at_frequency(533.0).unwrap(),
                256,
            )
            .unwrap();
        assert!(slow.peak.value() < fast.peak.value() - 10.0);
    }

    #[test]
    fn cache_avoids_repeat_simulations() {
        let ev = evaluator();
        let op = ev.spec().vf.nominal();
        let layout = ChipletLayout::Symmetric4 { s3: Mm(4.0) };
        let _ = ev.evaluate(&layout, Benchmark::Hpccg, op, 256).unwrap();
        let sims = ev.thermal_sims();
        let _ = ev.evaluate(&layout, Benchmark::Hpccg, op, 256).unwrap();
        assert_eq!(ev.thermal_sims(), sims, "second call must hit the cache");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under the debug profile; validated by the release suite"
    )]
    fn baseline_picks_feasible_maximum() {
        let ev = evaluator();
        let b = single_chip_baseline(&ev, Benchmark::Cholesky)
            .unwrap()
            .expect("cholesky has a feasible baseline");
        assert!(b.peak.value() <= 85.0 + 1e-9);
        // The single chip cannot run cholesky at the nominal point with all
        // cores (paper Fig. 8: its baseline is throttled to 533 MHz); the
        // baseline must leave headroom below the unconstrained maximum.
        let unconstrained = ev.ips(Benchmark::Cholesky, ev.spec().vf.nominal(), 256);
        assert!(
            b.ips.0 < 0.8 * unconstrained.0,
            "cholesky baseline {} should sit well below the 1 GHz/256-core maximum {}",
            b.ips,
            unconstrained
        );
        assert!(b.cost > 0.0);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under the debug profile; validated by the release suite"
    )]
    fn baseline_of_low_power_benchmark_runs_at_full_speed() {
        let ev = evaluator();
        let b = single_chip_baseline(&ev, Benchmark::Canneal)
            .unwrap()
            .expect("canneal has a feasible baseline");
        assert_eq!(b.op.freq_mhz, 1000.0, "canneal is thermally easy");
        // canneal saturates at 192 cores: more cores reduce IPS.
        assert_eq!(b.active_cores, 192);
    }

    #[test]
    fn shared_handles_warm_one_cache() {
        let ev = evaluator();
        let op = ev.spec().vf.nominal();
        let layout = ChipletLayout::Symmetric4 { s3: Mm(3.0) };
        let a = ev.share();
        let _ = a.evaluate(&layout, Benchmark::Hpccg, op, 128).unwrap();
        let sims = ev.thermal_sims();
        assert_eq!(sims, 1, "handle's solve must count on the shared state");
        let b = ev.share();
        let _ = b.evaluate(&layout, Benchmark::Hpccg, op, 128).unwrap();
        assert_eq!(ev.thermal_sims(), sims, "second handle must hit the cache");
    }

    #[test]
    fn expired_deadline_aborts_misses_but_serves_hits() {
        let ev = evaluator();
        let op = ev.spec().vf.nominal();
        let layout = ChipletLayout::Symmetric4 { s3: Mm(5.0) };
        let expired = ev.with_deadline(Instant::now());
        let err = expired
            .evaluate(&layout, Benchmark::Hpccg, op, 128)
            .unwrap_err();
        assert!(err.is_deadline(), "got {err}");
        assert_eq!(ev.thermal_sims(), 0, "no thermal work past the deadline");
        // Warm the cache without a deadline, then the expired handle must
        // still serve the hit (partial-progress responses stay useful).
        let _ = ev.evaluate(&layout, Benchmark::Hpccg, op, 128).unwrap();
        let hit = ev
            .with_deadline(Instant::now())
            .evaluate(&layout, Benchmark::Hpccg, op, 128);
        assert!(hit.is_ok(), "cache hits are served after expiry");
    }

    #[test]
    fn concurrent_identical_misses_coalesce_to_one_solve() {
        let ev = evaluator();
        let op = ev.spec().vf.nominal();
        let layout = ChipletLayout::Symmetric4 { s3: Mm(7.0) };
        std::thread::scope(|s| {
            for _ in 0..4 {
                let h = ev.share();
                s.spawn(move || {
                    h.evaluate(&layout, Benchmark::Hpccg, op, 64).unwrap();
                });
            }
        });
        assert_eq!(
            ev.thermal_sims(),
            1,
            "single-flight must elect one leader for one key"
        );
    }
}
