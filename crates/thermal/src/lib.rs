#![warn(missing_docs)]

//! # tac25d-thermal
//!
//! A from-scratch compact thermal model (HotSpot-class) for 2.5D chiplet
//! packages and single-chip baselines — the thermal substrate of the
//! `tac25d` reproduction of *"Leveraging Thermally-Aware Chiplet
//! Organization in 2.5D Systems to Reclaim Dark Silicon"* (DATE 2018).
//!
//! The paper runs HotSpot 6.0 in grid mode over the Table I layer stack; no
//! Rust thermal-simulation ecosystem exists, so this crate implements the
//! same physics directly (see DESIGN.md §1 S1 for the substitution
//! rationale):
//!
//! * [`materials`] — bulk and effective-medium conductivities (microbump /
//!   TSV / C4 composites computed from Table I bump geometry);
//! * [`sparse`] — the one conjugate-gradient loop over a small operator
//!   trait, Jacobi preconditioning for one-off solves (the PDN grid and
//!   the MMS slabs), CSR matrices (the PDN grid and the oracles: general
//!   IC(0) and an exact envelope Cholesky solve);
//! * [`layered`] — the package network's operator: diagonal and three
//!   lower bands per grid row plus a CSR periphery border, with its
//!   closed-form IC(0) factored once per assembled matrix (assembly
//!   refuses negative conductances, so the matrix is an M-matrix and the
//!   factor exists);
//! * `network` (internal) — finite-volume assembly of the package
//!   conductance network with HotSpot-style lumped spreader/sink periphery
//!   nodes and convective boundaries;
//! * [`model`] — the public [`model::PackageModel`] / ThermalSolution API;
//! * [`coupled`] — the temperature–leakage fixed point as one linear solve;
//! * [`slab`] — verification hooks: slab-stack assembly with cell-level
//!   source injection and grid refinement, for the manufactured-solution
//!   harness in `crates/verify`.
//!
//! # Examples
//!
//! ```
//! use tac25d_floorplan::prelude::*;
//! use tac25d_thermal::model::{PackageModel, ThermalConfig};
//!
//! let chip = ChipSpec::scc_256();
//! let rules = PackageRules::default();
//! let layout = ChipletLayout::Uniform { r: 4, gap: Mm(4.0) };
//! let model = PackageModel::new(
//!     &chip, &layout, &rules, &StackSpec::system_25d(), ThermalConfig::fast())?;
//! let sources: Vec<_> = layout
//!     .chiplet_rects(&chip, &rules)
//!     .into_iter()
//!     .map(|r| (r, 20.0))
//!     .collect();
//! let solution = model.solve(&sources)?;
//! println!("peak = {}", solution.peak());
//! # Ok::<(), tac25d_thermal::model::ThermalError>(())
//! ```

pub mod coupled;
pub mod layered;
pub mod materials;
pub mod model;
pub(crate) mod network;
pub mod slab;
pub mod sparse;

pub use coupled::{solve_coupled, AffineSource, CoupledOptions};
pub use materials::{BumpField, MaterialLibrary};
pub use model::{PackageModel, ThermalConfig, ThermalError, ThermalSolution};
