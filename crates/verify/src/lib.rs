//! Cross-crate verification subsystem.
//!
//! One check per module:
//!
//! * [`mms`] — method-of-manufactured-solutions checks for the thermal
//!   solver: cosine-mode fin fields with measured spatial convergence
//!   order, closed-form 1D resistance chains and two-path energy-split
//!   invariants, all through the `tac25d_thermal::slab` hooks.
//! * [`differential`] — the same organization corpus through the exact RC
//!   solver, the surrogate and the coupled leakage fixed point, with
//!   per-chiplet |ΔT| distributions and executable re-checks of the PR-1
//!   screening guarantees.
//! * [`golden`] — golden-trace regression over the `crates/bench`
//!   binaries: pinned-seed runs diffed cell-by-cell against snapshots in
//!   `tests/golden/` with per-column numeric tolerances, regenerated via
//!   `verify golden --bless`.
//! * [`obsguard`] — observability determinism guard: enabling
//!   `TAC25D_OBS` must change no CSV byte, and the emitted JSONL/profile
//!   artifacts must be valid and complete.
//! * [`solvercheck`] — solver oracle: the IC(0)-preconditioned PCG path
//!   against an exact envelope Cholesky solve over a small organization
//!   corpus (steady and leakage-coupled), max |ΔT| ≤ 1e-6 °C at tight
//!   tolerance.
//! * [`fixedpoint`] — symmetry-canonical cache-key aliases evaluated
//!   independently.
//! * [`seedcheck`] — analytic seeding gate: exact-gradient consistency
//!   against central finite differences and descend-and-snap
//!   determinism.
//! * [`servecheck`] — daemon byte-identity: a pinned request corpus
//!   against a fresh local engine, sequentially and under concurrent
//!   keep-alive clients.
//! * [`tracecheck`] — request-scoped tracing: wire-invisibility
//!   (traced vs untraced daemons vs local engine), exact concurrent
//!   counter attribution, and a ≤2% traced-overhead bound.
//!
//! The `verify` binary drives all of these from the command line (and
//! from the CI `verify` job).

pub mod differential;
pub mod fixedpoint;
pub mod golden;
pub mod mms;
pub mod obsguard;
pub mod seedcheck;
pub mod servecheck;
pub mod solvercheck;
pub mod tracecheck;

pub use differential::{DiffPoint, DiffRecord, Fig8Case};
pub use fixedpoint::AliasCase;
pub use golden::{GoldenOutcome, GoldenSpec};
pub use mms::{FinCase, MmsSample, SplitResult};
pub use seedcheck::{GradientCase, SnapCase};
pub use solvercheck::SolverCase;
pub use tracecheck::{IsolationCase, TraceIdentityCase, TraceReport};
