//! Two-tier multi-fidelity thermal predictor for the chiplet-organization
//! optimizer.
//!
//! **Tier 1 — Green's-function superposition.** The package RC network is
//! linear, so the die temperature rise of any power map is a weighted sum
//! of per-chiplet unit responses. Those unit responses are precomputed
//! once per (interposer edge, chiplet count) on a maximally-symmetric
//! reference layout — one exact solve per symmetry class (1 for 2×2, 3
//! for 4×4) — and any candidate spacing at that edge is then estimated in
//! O(chiplets²) bilinear samples, plus a cheap per-chiplet
//! temperature–leakage fixed point for the nonlinear part.
//!
//! **Tier 2 — online residual corrector.** The superposition is biased
//! (translated boundary fields, uniform in-chiplet power). A per-benchmark
//! k-nearest-neighbor regressor over the (f, V, p, n, edge, s1, s2, s3)
//! embedding learns that bias from every exact solve the evaluator
//! performs, and reports a confidence radius so callers can fall back to
//! the exact solver off the training manifold.
//!
//! The surrogate never *asserts* feasibility: the optimizer verifies every
//! candidate predicted near or below the threshold with the exact solver,
//! so all reported organizations remain exact-solver-backed. See
//! `tac25d_core::optimizer::Fidelity` for the screening rule.

pub mod analytic;
pub mod config;
pub mod corrector;
pub mod features;
pub mod kernel;
mod store;
mod superpose;

pub use config::SurrogateConfig;
pub use kernel::KernelSet;

use corrector::Corrector;
use features::{feature_vector, Features};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use store::{Family, KernelTable};
use tac25d_floorplan::chip::ChipSpec;
use tac25d_floorplan::layers::StackSpec;
use tac25d_floorplan::organization::{ChipletLayout, PackageRules};
use tac25d_floorplan::units::{Celsius, Mm};
use tac25d_obs as obs;
use tac25d_power::benchmarks::Benchmark;
use tac25d_power::dvfs::OperatingPoint;
use tac25d_thermal::model::ThermalConfig;

/// One evaluation point handed to the surrogate. Chiplet-indexed slices
/// are row-major over the layout's r×r grid, matching
/// [`ChipletLayout::chiplet_rects`].
#[derive(Debug, Clone)]
pub struct SurrogateInput {
    /// The candidate organization.
    pub layout: ChipletLayout,
    /// Benchmark (selects the residual corrector).
    pub benchmark: Benchmark,
    /// Operating point.
    pub op: OperatingPoint,
    /// Total active cores.
    pub active_cores: u16,
    /// Active cores hosted by each chiplet.
    pub active_per_chiplet: Vec<u16>,
    /// NoC watts dissipated in each chiplet.
    pub noc_per_chiplet: Vec<f64>,
}

/// A surrogate peak-temperature estimate.
#[derive(Debug, Clone, Copy)]
pub struct Prediction {
    /// Tier-1 estimate (superposition + leakage refinement), °C.
    pub raw_peak_c: f64,
    /// Tier-2 estimate: raw plus the learned residual, °C.
    pub corrected_peak_c: f64,
    /// Feature-space distance to the nearest training sample
    /// (∞ before the first observation).
    pub confidence: f64,
    /// Whether the corrector has enough nearby evidence for the
    /// prediction to stand in for an exact solve outside the guard band.
    pub trusted: bool,
}

/// The shared, thread-safe surrogate. Cheap to use behind an [`Arc`]:
/// kernel sets live in the process-wide kernel store (shared by every
/// surrogate of the same package family), correctors behind an interior
/// mutex (one set per surrogate).
pub struct ThermalSurrogate {
    cfg: SurrogateConfig,
    kernels: Arc<KernelTable>,
    correctors: Mutex<HashMap<Benchmark, Corrector>>,
    predictions: AtomicUsize,
    observations: AtomicUsize,
}

impl std::fmt::Debug for ThermalSurrogate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThermalSurrogate")
            .field("predictions", &self.predictions())
            .field("observations", &self.observations())
            .finish_non_exhaustive()
    }
}

impl ThermalSurrogate {
    /// Creates a surrogate for one package family (chip, rules, 2.5D
    /// stack, thermal configuration — everything that shapes the kernels).
    /// Surrogates of equal families share their kernel sets; each keeps
    /// its own residual correctors.
    pub fn new(
        chip: ChipSpec,
        rules: PackageRules,
        stack: StackSpec,
        thermal: ThermalConfig,
        cfg: SurrogateConfig,
    ) -> Self {
        ThermalSurrogate {
            cfg,
            kernels: KernelTable::shared(Family {
                chip,
                rules,
                stack,
                thermal,
            }),
            correctors: Mutex::new(HashMap::new()),
            predictions: AtomicUsize::new(0),
            observations: AtomicUsize::new(0),
        }
    }

    /// The surrogate configuration.
    pub fn config(&self) -> &SurrogateConfig {
        &self.cfg
    }

    /// Predictions served.
    pub fn predictions(&self) -> usize {
        self.predictions.load(Ordering::Relaxed)
    }

    /// Residual observations absorbed.
    pub fn observations(&self) -> usize {
        self.observations.load(Ordering::Relaxed)
    }

    fn family(&self) -> &Family {
        &self.kernels.family
    }

    /// The kernel set for `edge` rounded to the half-mm lattice. It is
    /// built at the rounded edge, so the stored set is a function of its
    /// key alone and no caller's order can change what others read.
    fn kernels_for(&self, edge: Mm, r: u16) -> Option<Arc<KernelSet>> {
        let half_mm = (edge.value() * 2.0).round() as i64;
        self.kernels.get_or_build((half_mm, r), || {
            let _span = obs::span!("surrogate.kernel_build");
            let f = self.family();
            let edge = Mm(half_mm as f64 / 2.0);
            let built = KernelSet::build(&f.chip, &f.rules, &f.stack, &f.thermal, edge, r)
                .ok()
                .flatten()?;
            obs::counter!("surrogate.kernel_solves").add(built.solves() as u64);
            Some(Arc::new(built))
        })
    }

    /// Tier-1 peak estimate: superposition with `refine_iters` rounds of
    /// the per-chiplet temperature–leakage fixed point (temperatures start
    /// at the evaluator's 60 °C convention and are clamped below the
    /// runaway limit so diverging leakage shows up as a huge — but finite
    /// and correctly *infeasible* — prediction). The geometry is sampled
    /// once; each round re-weights the sampled unit rises with its watts.
    ///
    /// `None` when the surrogate does not cover the point (single chip,
    /// unbuildable kernel, mismatched inputs) and the caller must use the
    /// exact solver. `power_of_core` is the per-active-core power at a
    /// given chiplet temperature (dynamic + leakage). The result is a pure
    /// function of the input and `power_of_core`, so callers may memoize
    /// it.
    pub fn raw_peak(
        &self,
        input: &SurrogateInput,
        power_of_core: &dyn Fn(Celsius) -> f64,
    ) -> Option<f64> {
        let r = input.layout.r();
        if input.layout.is_single_chip() || (r != 2 && r != 4) {
            return None;
        }
        let _span = obs::span!("surrogate.superpose");
        obs::counter!("surrogate.raw_peaks").inc();
        let f = self.family();
        let kernels = self.kernels_for(input.layout.footprint_edge(&f.chip, &f.rules), r)?;
        let rects = input.layout.chiplet_rects(&f.chip, &f.rules);
        let n = rects.len();
        if input.active_per_chiplet.len() != n || input.noc_per_chiplet.len() != n {
            return None;
        }
        let unit_rises = superpose::sample(&kernels, &rects, self.cfg.probes_per_axis);
        let ambient = kernels.ambient();
        let mut temps = vec![60.0f64; n];
        let mut peak = ambient;
        for _ in 0..self.cfg.refine_iters.max(1) {
            let watts: Vec<f64> = (0..n)
                .map(|j| {
                    f64::from(input.active_per_chiplet[j]) * power_of_core(Celsius(temps[j]))
                        + input.noc_per_chiplet[j]
                })
                .collect();
            if watts.iter().any(|w| !w.is_finite()) {
                return None;
            }
            let field = unit_rises.field(&watts);
            peak = ambient + field.peak_rise;
            if !peak.is_finite() {
                return None;
            }
            for (t, rise) in temps.iter_mut().zip(&field.chiplet_mean_rise) {
                *t = (ambient + rise).clamp(ambient, 400.0);
            }
        }
        Some(peak)
    }

    /// The corrector's feature vector of one evaluation point.
    fn features(&self, input: &SurrogateInput) -> Features {
        let f = self.family();
        let edge = input.layout.footprint_edge(&f.chip, &f.rules);
        feature_vector(&input.layout, input.op, input.active_cores, edge.value())
    }

    /// Tier 2: corrects the tier-1 estimate `raw` of one evaluation point
    /// ([`ThermalSurrogate::raw_peak`]) with the benchmark's learned
    /// residual.
    pub fn predict(&self, input: &SurrogateInput, raw: f64) -> Prediction {
        let _span = obs::span!("surrogate.predict");
        self.predictions.fetch_add(1, Ordering::Relaxed);
        obs::counter!("surrogate.predictions").inc();
        let x = self.features(input);
        let correction = self
            .correctors
            .lock()
            .expect("lock poisoned")
            .get(&input.benchmark)
            .and_then(|c| c.correction(&x, self.cfg.knn_k, self.cfg.kernel_bandwidth));
        if correction.is_some() {
            obs::counter!("surrogate.knn_corrector_hits").inc();
        }
        match correction {
            Some(c) => Prediction {
                raw_peak_c: raw,
                corrected_peak_c: raw + c.offset,
                confidence: c.nearest,
                trusted: c.samples >= self.cfg.min_samples && c.nearest <= self.cfg.trust_radius,
            },
            None => Prediction {
                raw_peak_c: raw,
                corrected_peak_c: raw,
                confidence: f64::INFINITY,
                trusted: false,
            },
        }
    }

    /// Trains the corrector with the exact peak of one evaluation point
    /// whose tier-1 estimate is `raw`. Call after every converged exact
    /// solve of a point the surrogate covers.
    pub fn observe(&self, input: &SurrogateInput, raw: f64, exact_peak: Celsius) {
        let x = self.features(input);
        self.correctors
            .lock()
            .expect("lock poisoned")
            .entry(input.benchmark)
            .or_default()
            .observe(x, exact_peak.value() - raw, self.cfg.max_samples);
        self.observations.fetch_add(1, Ordering::Relaxed);
        obs::counter!("surrogate.observations").inc();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, MutexGuard};
    use tac25d_thermal::model::PackageModel;

    /// Held by every test that may build kernels through the store, so the
    /// process-wide `surrogate.kernel_solves` counter moves only for the
    /// test reading its delta.
    fn store_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn kernel_solves() -> u64 {
        obs::counter!("surrogate.kernel_solves").get()
    }

    /// A family of its own per `thermal` config: tests that count kernel
    /// builds pick a grid no other test uses, so no earlier test can have
    /// warmed their keys.
    fn surrogate_with(thermal: ThermalConfig) -> ThermalSurrogate {
        ThermalSurrogate::new(
            ChipSpec::scc_256(),
            PackageRules::default(),
            StackSpec::system_25d(),
            thermal,
            SurrogateConfig {
                min_samples: 3,
                ..SurrogateConfig::default()
            },
        )
    }

    fn grid(grid: usize) -> ThermalConfig {
        ThermalConfig {
            grid,
            ..ThermalConfig::default()
        }
    }

    fn surrogate() -> ThermalSurrogate {
        surrogate_with(grid(16))
    }

    fn assert_bitwise_equal(a: &KernelSet, b: &KernelSet) {
        assert_eq!((a.r, a.solves()), (b.r, b.solves()));
        assert_eq!(a.footprint.to_bits(), b.footprint.to_bits());
        assert_eq!(a.ambient.to_bits(), b.ambient.to_bits());
        assert_eq!(a.classes.len(), b.classes.len());
        for (ca, cb) in a.classes.iter().zip(&b.classes) {
            assert_eq!(ca.rep_center.0.to_bits(), cb.rep_center.0.to_bits());
            assert_eq!(ca.rep_center.1.to_bits(), cb.rep_center.1.to_bits());
            let bits = |g: &tac25d_floorplan::raster::Grid| {
                g.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            assert_eq!(bits(&ca.rise), bits(&cb.rise));
        }
    }

    /// Tier 1 then tier 2, as the evaluator runs them on a memo miss.
    fn predict(
        s: &ThermalSurrogate,
        inp: &SurrogateInput,
        power: &dyn Fn(Celsius) -> f64,
    ) -> Option<Prediction> {
        s.raw_peak(inp, power).map(|raw| s.predict(inp, raw))
    }

    fn input(s3: f64) -> SurrogateInput {
        SurrogateInput {
            layout: ChipletLayout::Symmetric4 { s3: Mm(s3) },
            benchmark: Benchmark::Cholesky,
            op: OperatingPoint::new(1000.0, 1.0),
            active_cores: 256,
            active_per_chiplet: vec![64; 4],
            noc_per_chiplet: vec![1.0; 4],
        }
    }

    #[test]
    fn prediction_tracks_the_exact_solve() {
        // Constant per-core power makes the exact answer a single linear
        // solve the tier-1 kernel should approximate closely (the 2×2
        // reference layout *is* the candidate layout here).
        let _store = store_lock();
        let s = surrogate();
        let inp = input(6.0);
        let per_core = 0.35;
        let pred = predict(&s, &inp, &|_t| per_core).expect("4-chiplet layouts are covered");
        let model = PackageModel::new(
            &ChipSpec::scc_256(),
            &inp.layout,
            &PackageRules::default(),
            &StackSpec::system_25d(),
            ThermalConfig {
                grid: 16,
                ..ThermalConfig::default()
            },
        )
        .unwrap();
        let rects = inp
            .layout
            .chiplet_rects(&ChipSpec::scc_256(), &PackageRules::default());
        let sources: Vec<_> = rects.iter().map(|r| (*r, 64.0 * per_core + 1.0)).collect();
        let exact = model.solve(&sources).unwrap().peak().value();
        assert!(
            (pred.raw_peak_c - exact).abs() < 2.0,
            "raw {} vs exact {exact}",
            pred.raw_peak_c
        );
        assert!(!pred.trusted, "no observations yet");
        assert_eq!(s.predictions(), 1);
    }

    #[test]
    fn observations_build_trust_and_shrink_the_residual() {
        let _store = store_lock();
        let s = surrogate();
        let power = |_t: Celsius| 0.35;
        // Pretend the exact solver runs 1.5 °C hotter than tier 1.
        for s3 in [4.0, 5.0, 6.0] {
            let inp = input(s3);
            let raw = predict(&s, &inp, &power).unwrap().raw_peak_c;
            s.observe(&inp, raw, Celsius(raw + 1.5));
        }
        let pred = predict(&s, &input(5.5), &power).unwrap();
        assert!(pred.trusted, "3 nearby samples with min_samples = 3");
        assert!(
            (pred.corrected_peak_c - pred.raw_peak_c - 1.5).abs() < 0.2,
            "learned offset {}",
            pred.corrected_peak_c - pred.raw_peak_c
        );
        assert_eq!(s.observations(), 3);
    }

    #[test]
    fn far_queries_are_untrusted() {
        let _store = store_lock();
        let s = surrogate();
        let power = |_t: Celsius| 0.35;
        for s3 in [4.0, 4.5, 5.0] {
            let inp = input(s3);
            let raw = predict(&s, &inp, &power).unwrap().raw_peak_c;
            s.observe(&inp, raw, Celsius(raw + 1.0));
        }
        // Same benchmark, very different operating point and core count.
        let mut far = input(4.5);
        far.op = OperatingPoint::new(533.0, 0.8);
        far.active_cores = 64;
        far.active_per_chiplet = vec![16; 4];
        let pred = predict(&s, &far, &power).unwrap();
        assert!(
            !pred.trusted,
            "confidence {} should exceed the radius",
            pred.confidence
        );
    }

    #[test]
    fn single_chip_is_not_covered() {
        let s = surrogate();
        let mut inp = input(4.0);
        inp.layout = ChipletLayout::SingleChip;
        inp.active_per_chiplet = vec![256];
        inp.noc_per_chiplet = vec![0.0];
        assert!(predict(&s, &inp, &|_t| 0.3).is_none());
    }

    #[test]
    fn kernel_sets_are_cached_per_edge() {
        let _store = store_lock();
        let s = surrogate_with(grid(14));
        let power = |_t: Celsius| 0.3;
        let before = kernel_solves();
        let _ = predict(&s, &input(6.0), &power);
        assert_eq!(
            kernel_solves() - before,
            1,
            "2x2 grid has one symmetry class"
        );
        // Same edge: cache hit. (s3 fixes the edge for 4-chiplet layouts.)
        let _ = predict(&s, &input(6.0), &power);
        assert_eq!(kernel_solves() - before, 1);
        // A second surrogate of the same family shares the cached set.
        let _ = predict(&surrogate_with(grid(14)), &input(6.0), &power);
        assert_eq!(kernel_solves() - before, 1);
        // New edge: one more class solve.
        let _ = predict(&s, &input(8.0), &power);
        assert_eq!(kernel_solves() - before, 2);
    }

    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        const THREADS: usize = 8;
        let _store = store_lock();
        let barrier = Barrier::new(THREADS);
        let before = kernel_solves();
        let sets: Vec<Arc<KernelSet>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        let s = surrogate_with(grid(13));
                        barrier.wait();
                        s.kernels_for(Mm(24.0), 4).expect("24 mm fits a 4x4 grid")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(kernel_solves() - before, sets[0].solves() as u64);
        assert!(sets.iter().all(|set| Arc::ptr_eq(set, &sets[0])));
    }

    #[test]
    fn stored_kernel_set_is_bitwise_a_fresh_build() {
        let _store = store_lock();
        let s = surrogate();
        let stored = s.kernels_for(Mm(24.0), 4).expect("24 mm fits a 4x4 grid");
        let fresh = KernelSet::build(
            &ChipSpec::scc_256(),
            &PackageRules::default(),
            &StackSpec::system_25d(),
            &grid(16),
            Mm(24.0),
            4,
        )
        .unwrap()
        .unwrap();
        assert_bitwise_equal(&stored, &fresh);
    }

    #[test]
    fn families_never_share_entries() {
        let _store = store_lock();
        let warm = surrogate_with(grid(15));
        let a = warm.kernels_for(Mm(24.0), 2).expect("2x2 fits");
        let before = kernel_solves();
        let hotter = surrogate_with(ThermalConfig {
            ambient: Celsius(50.0),
            ..grid(15)
        });
        let b = hotter.kernels_for(Mm(24.0), 2).expect("2x2 fits");
        assert_eq!(
            kernel_solves() - before,
            b.solves() as u64,
            "must build its own"
        );
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(b.ambient(), 50.0);
        assert_eq!(a.ambient(), 45.0);
    }

    #[test]
    fn a_panicking_build_leaves_the_key_for_the_next_caller() {
        let table = KernelTable::shared(Family {
            chip: ChipSpec::scc_256(),
            rules: PackageRules::default(),
            stack: StackSpec::system_25d(),
            thermal: grid(11),
        });
        let key = (48, 4);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            table.get_or_build(key, || panic!("builder failed"))
        }));
        assert!(panicked.is_err());
        let mut retried = false;
        assert!(table
            .get_or_build(key, || {
                retried = true;
                None
            })
            .is_none());
        assert!(retried, "the next caller must rebuild the empty cell");
        // The retry's result is final: later callers never build again.
        assert!(table.get_or_build(key, || panic!("built twice")).is_none());
    }
}
