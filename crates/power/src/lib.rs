#![warn(missing_docs)]

//! # tac25d-power
//!
//! Performance and power models (Sniper + McPAT substitutes) for the
//! `tac25d` reproduction of *"Leveraging Thermally-Aware Chiplet
//! Organization in 2.5D Systems to Reclaim Dark Silicon"* (DATE 2018):
//!
//! * [`dvfs`] — the paper's five voltage/frequency levels and eight
//!   active-core counts (Table II);
//! * [`benchmarks`] — analytic profiles of the eight SPLASH-2 / PARSEC /
//!   HPCCG / UHPC benchmarks, calibrated to the behaviors the paper
//!   reports;
//! * [`perf`] — aggregate IPS as a function of (benchmark, f, p);
//! * [`corepower`] — per-core dynamic power plus the temperature-dependent
//!   linear leakage model ("30% of power is leakage at 60 °C");
//! * [`reliability`] — Arrhenius / Coffin–Manson lifetime factors for the
//!   paper's "lower temperature improves reliability" observation.
//!
//! # Examples
//!
//! ```
//! use tac25d_power::prelude::*;
//! use tac25d_floorplan::units::Celsius;
//!
//! let profile = Benchmark::Cholesky.profile();
//! let table = VfTable::paper();
//! let ips = system_ips(&profile, table.nominal(), 256);
//! let watts = CorePowerModel::default()
//!     .active_power(&profile, table.nominal(), Celsius(60.0));
//! assert!(ips.gips() > 0.0 && watts > 0.0);
//! ```

pub mod benchmarks;
pub mod corepower;
pub mod dvfs;
pub mod perf;
pub mod reliability;

/// Convenient glob-import of the crate's primary types.
pub mod prelude {
    pub use crate::benchmarks::{Benchmark, BenchmarkProfile};
    pub use crate::corepower::{CorePowerModel, LeakageModel};
    pub use crate::dvfs::{paper_core_counts, OperatingPoint, VfTable};
    pub use crate::perf::{system_ips, Ips};
    pub use crate::reliability::ReliabilityModel;
}
