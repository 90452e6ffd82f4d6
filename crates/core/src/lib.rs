#![warn(missing_docs)]

//! # tac25d-core
//!
//! The thermally-aware chiplet organizer — the primary contribution of
//! *"Leveraging Thermally-Aware Chiplet Organization in 2.5D Systems to
//! Reclaim Dark Silicon"* (DATE 2018) — built on the workspace's substrate
//! crates (floorplan, thermal, power, noc, cost):
//!
//! * [`system`] — the complete system specification (Fig. 4(b));
//! * [`allocation`] — the Mintemp chessboard workload-allocation policy;
//! * [`evaluator`] — the closed organization → floorplan → power → thermal
//!   loop, memoized, with thermal-simulation accounting;
//! * [`objective`] — the Eq. (5) performance/cost objective;
//! * [`multiapp`] — shared-design optimization across applications
//!   (worst-case / average / weighted-average, Sec. IV);
//! * [`optimizer`] — candidate enumeration (steps 1–2) and the multi-start
//!   greedy / exhaustive placement search (step 3).
//!
//! # Examples
//!
//! Find the optimal 2.5D organization for a benchmark:
//!
//! ```no_run
//! use tac25d_core::prelude::*;
//!
//! let ev = Evaluator::new(SystemSpec::fast());
//! let result = optimize(&ev, Benchmark::Cholesky, &OptimizerConfig::default())?;
//! if let Some(best) = result.best {
//!     println!(
//!         "{} at {} with {} cores: {:.0}% faster than the single chip",
//!         best.layout,
//!         best.candidate.op,
//!         best.candidate.active_cores,
//!         (best.normalized_perf - 1.0) * 100.0,
//!     );
//! }
//! # Ok::<(), tac25d_core::optimizer::OptimizeError>(())
//! ```

pub mod allocation;
pub mod evaluator;
pub mod multiapp;
pub mod objective;
pub mod optimizer;
pub mod system;

/// Convenient glob-import of the crate's primary types (re-exporting the
/// benchmark enum, which appears in almost every call).
pub mod prelude {
    pub use crate::allocation::{
        active_cores, mintemp_active_cores, mintemp_order, AllocationPolicy,
    };
    pub use crate::evaluator::{single_chip_baseline, Baseline, EvalError, Evaluation, Evaluator};
    pub use crate::multiapp::{optimize_multi_app, MultiAppPolicy, MultiAppResult};
    pub use crate::objective::{objective_value, Weights};
    pub use crate::optimizer::{
        best_at_edge, enumerate_candidates, find_placement, find_placement_with, interposer_edges,
        optimize, optimize_with_filter, Candidate, ChipletCount, Fidelity, OptimizeError,
        OptimizeResult, OptimizerConfig, Organization, PlacementSearch, SearchStats,
    };
    pub use crate::system::SystemSpec;
    pub use tac25d_power::benchmarks::Benchmark;
    pub use tac25d_surrogate::{Prediction as SurrogatePrediction, SurrogateConfig};
}
