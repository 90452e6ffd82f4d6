#![warn(missing_docs)]

//! # tac25d-pdn
//!
//! Power-delivery-network (PDN) IR-drop analysis for the `tac25d`
//! reproduction of *"Leveraging Thermally-Aware Chiplet Organization in
//! 2.5D Systems to Reclaim Dark Silicon"* (DATE 2018).
//!
//! The paper reclaims dark silicon by running many more watts than a
//! conventional package sustains, and flags the consequence itself
//! (footnote 3): *"the challenge then will be the design of a power
//! delivery network that can provide the current required for this large
//! power consumption"*. This crate quantifies that challenge: a resistive
//! PDN model computes the static IR drop seen by every core for any
//! chiplet organization and power map, so organizations can additionally
//! be checked against a supply-droop budget.
//!
//! ## Model
//!
//! One node per core (its local power-grid tap). Each node connects
//!
//! * **vertically** to the package supply through the per-core via stack —
//!   microbumps + interposer TSVs + a share of the C4 array for 2.5D
//!   systems (counts derived from the Table I bump geometry and the core
//!   tile area), or directly through C4 for the single-chip baseline;
//! * **laterally** to neighbouring cores *within the same chiplet* through
//!   the on-die power grid (no current flows between chiplets);
//! * all vertical paths share a bulk package/board + VRM resistance that
//!   carries the total current.
//!
//! Cores draw `I = P/V_dd`; the resulting SPD conductance system is solved
//! with the same PCG used by the thermal crate.

use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;
use tac25d_floorplan::chip::ChipSpec;
use tac25d_floorplan::organization::{ChipletLayout, LayoutError, PackageRules};
use tac25d_thermal::materials::BumpField;
use tac25d_thermal::sparse::{pcg, SolveError, TripletMatrix};

/// Electrical constants of the delivery path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PdnParams {
    /// Nominal supply voltage, volts (0.9 V at the fastest point).
    pub vdd: f64,
    /// Resistance of one microbump, Ω (Fig. 2: 0.095 Ω).
    pub r_microbump: f64,
    /// Resistance of one TSV, Ω (≈ ρ_Cu·L/A for Ø10 µm × 100 µm ≈ 22 mΩ).
    pub r_tsv: f64,
    /// Resistance of one C4 bump, Ω.
    pub r_c4: f64,
    /// Interposer redistribution-layer spreading resistance per core, Ω
    /// (lumped; dominates the vertical stack).
    pub r_rdl_per_core: f64,
    /// On-die power-grid resistance between adjacent core tiles, Ω.
    pub r_lat_core: f64,
    /// Shared package + board + VRM output resistance, Ω (carries the
    /// total current).
    pub r_shared: f64,
    /// Fraction of each bump/via field usable for the power net (the rest
    /// is ground and signal); 0.4 is a typical power-net share.
    pub power_net_fraction: f64,
    /// Microbump field geometry (Table I).
    pub microbumps: BumpField,
    /// TSV field geometry (Table I).
    pub tsvs: BumpField,
    /// C4 field geometry (Table I).
    pub c4: BumpField,
    /// Supply-droop budget as a fraction of `vdd` (5% is the classic
    /// sign-off number).
    pub droop_budget: f64,
}

impl Default for PdnParams {
    fn default() -> Self {
        PdnParams {
            vdd: 0.9,
            r_microbump: 0.095,
            r_tsv: 0.022,
            r_c4: 0.004,
            r_rdl_per_core: 0.010,
            r_lat_core: 0.050,
            r_shared: 8.0e-5,
            power_net_fraction: 0.4,
            microbumps: BumpField::microbump(),
            tsvs: BumpField::tsv(),
            c4: BumpField::c4(),
            droop_budget: 0.05,
        }
    }
}

impl PdnParams {
    /// Number of power-net bumps of a field under one core tile.
    fn bumps_per_core(&self, field: &BumpField, tile_area_mm2: f64) -> f64 {
        let pitch_mm = field.pitch.value();
        (tile_area_mm2 / (pitch_mm * pitch_mm) * self.power_net_fraction).max(1.0)
    }

    /// Effective vertical resistance from the package supply to one core's
    /// local grid, Ω.
    pub fn vertical_resistance(&self, tile_area_mm2: f64, through_interposer: bool) -> f64 {
        let c4 = self.r_c4 / self.bumps_per_core(&self.c4, tile_area_mm2);
        if through_interposer {
            let ub = self.r_microbump / self.bumps_per_core(&self.microbumps, tile_area_mm2);
            let tsv = self.r_tsv / self.bumps_per_core(&self.tsvs, tile_area_mm2);
            ub + tsv + c4 + self.r_rdl_per_core
        } else {
            c4
        }
    }
}

/// PDN analysis errors.
#[derive(Debug)]
pub enum PdnError {
    /// Invalid chiplet organization.
    Layout(LayoutError),
    /// The linear solve failed.
    Solve(SolveError),
    /// A power value was negative or non-finite.
    InvalidPower {
        /// Core index and value.
        reason: String,
    },
}

impl fmt::Display for PdnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdnError::Layout(e) => write!(f, "invalid layout: {e}"),
            PdnError::Solve(e) => write!(f, "PDN solve failed: {e}"),
            PdnError::InvalidPower { reason } => write!(f, "invalid power: {reason}"),
        }
    }
}

impl Error for PdnError {}

impl From<LayoutError> for PdnError {
    fn from(e: LayoutError) -> Self {
        PdnError::Layout(e)
    }
}

impl From<SolveError> for PdnError {
    fn from(e: SolveError) -> Self {
        PdnError::Solve(e)
    }
}

/// A PDN model for one chip/organization pair.
#[derive(Debug, Clone)]
pub struct PdnModel {
    params: PdnParams,
    cores_per_row: u16,
    /// Chiplet index of each core (row-major core order).
    chiplet_of: Vec<usize>,
    /// Vertical conductance per core.
    g_vert: f64,
    /// Lateral conductance between adjacent same-chiplet cores.
    g_lat: f64,
}

impl PdnModel {
    /// Builds the PDN for a layout.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::Layout`] for invalid organizations or layouts
    /// with no core-accurate mapping.
    pub fn new(
        chip: &ChipSpec,
        layout: &ChipletLayout,
        rules: &PackageRules,
        params: PdnParams,
    ) -> Result<Self, PdnError> {
        layout.validate(chip, rules)?;
        let r = layout.r();
        if !chip.divisible_by(r) {
            return Err(PdnError::Layout(LayoutError::IndivisibleCoreGrid {
                r,
                cores_per_row: chip.cores_per_row(),
            }));
        }
        let chiplet_of = chip.cores().map(|c| chip.core_to_chiplet(r, c).0).collect();
        let r_vert = params.vertical_resistance(chip.tile_area().value(), !layout.is_single_chip());
        Ok(PdnModel {
            g_vert: 1.0 / r_vert,
            g_lat: 1.0 / params.r_lat_core,
            cores_per_row: chip.cores_per_row(),
            chiplet_of,
            params,
        })
    }

    /// The parameters the model was built with.
    pub fn params(&self) -> &PdnParams {
        &self.params
    }

    /// Solves the static IR drop for per-core power draws (watts; one entry
    /// per core in row-major order, 0 for dark cores).
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidPower`] for negative/non-finite powers,
    /// or a solver error.
    pub fn solve(&self, core_powers: &[f64]) -> Result<PdnSolution, PdnError> {
        let n = self.cores_per_row as usize;
        let cores = n * n;
        assert_eq!(
            core_powers.len(),
            cores,
            "need one power entry per core ({cores})"
        );
        for (i, &p) in core_powers.iter().enumerate() {
            if !p.is_finite() || p < 0.0 {
                return Err(PdnError::InvalidPower {
                    reason: format!("core {i} draws {p} W"),
                });
            }
        }
        // Node 0..cores: core grid taps; node `cores`: the package node
        // behind the shared resistance.
        let nodes = cores + 1;
        let mut m = TripletMatrix::new(nodes);
        let pkg = cores;
        for iy in 0..n {
            for ix in 0..n {
                let a = iy * n + ix;
                m.add_conductance(a, pkg, self.g_vert);
                if ix + 1 < n && self.chiplet_of[a] == self.chiplet_of[a + 1] {
                    m.add_conductance(a, a + 1, self.g_lat);
                }
                if iy + 1 < n && self.chiplet_of[a] == self.chiplet_of[a + n] {
                    m.add_conductance(a, a + n, self.g_lat);
                }
            }
        }
        // The package node connects to the ideal VRM through r_shared;
        // grounding it makes the system non-singular.
        m.add_ground(pkg, 1.0 / self.params.r_shared);

        let vdd = self.params.vdd;
        let mut currents = vec![0.0; nodes];
        let mut total = 0.0;
        for (i, &p) in core_powers.iter().enumerate() {
            let amps = p / vdd;
            // Current drawn *out* of the node: negative injection in the
            // droop formulation (solve for droop with sources +I at loads).
            currents[i] = amps;
            total += amps;
        }
        let sol = pcg(&m.to_csr(), &currents, 1e-12, 50_000)?;
        let droops = sol.x[..cores].to_vec();
        Ok(PdnSolution {
            droops,
            total_current: total,
            vdd,
            budget: self.params.droop_budget,
        })
    }
}

/// Result of a PDN solve: the static droop (volts below nominal) at every
/// core tap.
#[derive(Debug, Clone)]
pub struct PdnSolution {
    droops: Vec<f64>,
    total_current: f64,
    vdd: f64,
    budget: f64,
}

impl PdnSolution {
    /// Droop at each core, volts (row-major core order).
    pub fn droops(&self) -> &[f64] {
        &self.droops
    }

    /// The worst droop, volts.
    pub fn max_droop(&self) -> f64 {
        self.droops.iter().cloned().fold(0.0, f64::max)
    }

    /// The worst droop as a fraction of the nominal supply.
    pub fn max_droop_fraction(&self) -> f64 {
        self.max_droop() / self.vdd
    }

    /// Effective supply voltage at the worst core.
    pub fn min_voltage(&self) -> f64 {
        self.vdd - self.max_droop()
    }

    /// Total current drawn from the VRM, amperes.
    pub fn total_current(&self) -> f64 {
        self.total_current
    }

    /// Whether the worst droop respects the sign-off budget.
    pub fn meets_budget(&self) -> bool {
        self.max_droop_fraction() <= self.budget + 1e-12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac25d_floorplan::units::Mm;

    fn chip() -> ChipSpec {
        ChipSpec::scc_256()
    }

    fn rules() -> PackageRules {
        PackageRules::default()
    }

    fn uniform_powers(w: f64) -> Vec<f64> {
        vec![w; 256]
    }

    #[test]
    fn zero_power_means_zero_droop() {
        let m = PdnModel::new(
            &chip(),
            &ChipletLayout::SingleChip,
            &rules(),
            PdnParams::default(),
        )
        .unwrap();
        let s = m.solve(&uniform_powers(0.0)).unwrap();
        assert!(s.max_droop() < 1e-12);
        assert!(s.meets_budget());
    }

    #[test]
    fn droop_scales_linearly_with_power() {
        let m = PdnModel::new(
            &chip(),
            &ChipletLayout::SingleChip,
            &rules(),
            PdnParams::default(),
        )
        .unwrap();
        let d1 = m.solve(&uniform_powers(0.5)).unwrap().max_droop();
        let d2 = m.solve(&uniform_powers(1.0)).unwrap().max_droop();
        assert!((d2 / d1 - 2.0).abs() < 1e-9, "{d1} vs {d2}");
    }

    #[test]
    fn interposer_path_adds_droop() {
        let p2d = PdnModel::new(
            &chip(),
            &ChipletLayout::SingleChip,
            &rules(),
            PdnParams::default(),
        )
        .unwrap()
        .solve(&uniform_powers(1.0))
        .unwrap();
        let p25 = PdnModel::new(
            &chip(),
            &ChipletLayout::Uniform { r: 4, gap: Mm(4.0) },
            &rules(),
            PdnParams::default(),
        )
        .unwrap()
        .solve(&uniform_powers(1.0))
        .unwrap();
        assert!(
            p25.max_droop() > p2d.max_droop(),
            "2.5D adds microbump+TSV+RDL resistance: {} vs {}",
            p25.max_droop(),
            p2d.max_droop()
        );
    }

    #[test]
    fn reclaimed_high_power_config_stresses_the_pdn() {
        // Footnote 3: at ~1.4 W/core × 256 cores (≈500 A at 0.72 V-ish),
        // the default PDN violates the 5% droop budget — the engineering
        // challenge the paper acknowledges.
        let m = PdnModel::new(
            &chip(),
            &ChipletLayout::Uniform { r: 4, gap: Mm(8.0) },
            &rules(),
            PdnParams::default(),
        )
        .unwrap();
        let hot = m.solve(&uniform_powers(1.4)).unwrap();
        assert!(hot.total_current() > 350.0, "I = {}", hot.total_current());
        assert!(
            !hot.meets_budget(),
            "droop fraction {:.4} should exceed 5%",
            hot.max_droop_fraction()
        );
        // A moderate configuration passes.
        let mild = m.solve(&uniform_powers(0.6)).unwrap();
        assert!(
            mild.meets_budget(),
            "droop {:.4}",
            mild.max_droop_fraction()
        );
    }

    #[test]
    fn dark_neighbors_relieve_droop() {
        // Mintemp-style alternating actives droop less than a solid block
        // of the same total power: dark cores' via stacks share current.
        let m = PdnModel::new(
            &chip(),
            &ChipletLayout::SingleChip,
            &rules(),
            PdnParams::default(),
        )
        .unwrap();
        let mut checker = vec![0.0; 256];
        let mut block = vec![0.0; 256];
        for i in 0..256 {
            let (row, col) = (i / 16, i % 16);
            if (row + col) % 2 == 0 {
                checker[i] = 2.0;
            }
            if row < 8 {
                block[i] = 2.0;
            }
        }
        let dc = m.solve(&checker).unwrap().max_droop();
        let db = m.solve(&block).unwrap().max_droop();
        assert!(dc < db, "checkerboard {dc} vs block {db}");
    }

    #[test]
    fn lateral_current_stops_at_chiplet_boundaries() {
        // One hot core at a chiplet corner: with 16 chiplets its lateral
        // relief network is smaller than on the monolithic die, so its
        // droop is higher.
        let hot_core = 0usize; // lower-left corner of chiplet 0 either way
        let mut powers = vec![0.0; 256];
        powers[hot_core] = 5.0;
        // Pick a core at the *centre* of the die, which on the 4x4-chiplet
        // layout sits at a chiplet corner but on the single chip does not.
        let centre = 7 * 16 + 7;
        let mut centre_powers = vec![0.0; 256];
        centre_powers[centre] = 5.0;
        let single = PdnModel::new(
            &chip(),
            &ChipletLayout::SingleChip,
            &rules(),
            PdnParams::default(),
        )
        .unwrap()
        .solve(&centre_powers)
        .unwrap();
        let chiplets = PdnModel::new(
            &chip(),
            &ChipletLayout::Uniform { r: 4, gap: Mm(2.0) },
            &rules(),
            PdnParams::default(),
        )
        .unwrap()
        .solve(&centre_powers)
        .unwrap();
        assert!(
            chiplets.droops()[centre] > single.droops()[centre],
            "chiplet corner {} vs monolithic centre {}",
            chiplets.droops()[centre],
            single.droops()[centre]
        );
    }

    #[test]
    fn vertical_resistance_components() {
        let p = PdnParams::default();
        let tile = chip().tile_area().value();
        let r25 = p.vertical_resistance(tile, true);
        let r2d = p.vertical_resistance(tile, false);
        assert!(r25 > r2d);
        // The RDL term dominates the 2.5D stack.
        assert!(r25 > p.r_rdl_per_core && r25 < 2.0 * p.r_rdl_per_core + 0.01);
    }

    #[test]
    fn invalid_power_rejected() {
        let m = PdnModel::new(
            &chip(),
            &ChipletLayout::SingleChip,
            &rules(),
            PdnParams::default(),
        )
        .unwrap();
        let mut powers = uniform_powers(0.5);
        powers[3] = -1.0;
        assert!(matches!(
            m.solve(&powers),
            Err(PdnError::InvalidPower { .. })
        ));
    }

    #[test]
    fn indivisible_layout_rejected() {
        let err = PdnModel::new(
            &chip(),
            &ChipletLayout::Uniform { r: 3, gap: Mm(1.0) },
            &rules(),
            PdnParams::default(),
        )
        .unwrap_err();
        assert!(matches!(err, PdnError::Layout(_)));
    }
}
