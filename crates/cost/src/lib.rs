#![warn(missing_docs)]

//! # tac25d-cost
//!
//! The 2.5D manufacturing cost model of Stow et al. (ICCAD'16) as adopted by
//! *"Leveraging Thermally-Aware Chiplet Organization in 2.5D Systems to
//! Reclaim Dark Silicon"* (DATE 2018), Eqs. (1)–(4):
//!
//! 1. dies per wafer: `N = π·(φ/2)²/A − π·φ/√(2A)`;
//! 2. negative-binomial die yield: `Y = (1 + A·D₀/α)^(−α)`;
//! 3. per-die cost `C = C_wafer/(N·Y)` for CMOS dies and interposers;
//! 4. assembled 2.5D cost
//!    `C_2.5D = (n·C_chiplet + C_int + n·C_bond) / Y_bond^n`.
//!
//! ## A note on defect-density units
//!
//! Table II lists D₀ = 0.25/mm², but the paper's own worked example
//! ("increasing the single chip size from 20 mm × 20 mm to 40 mm × 40 mm
//! results in 27× higher cost") only reproduces if the yield formula takes
//! the die area in **cm²** — the conventional unit for defect densities.
//! This crate therefore expresses D₀ in defects/cm² (default 0.25) and
//! documents the discrepancy; see `defect_density_validates_27x_claim`.
//!
//! # Examples
//!
//! ```
//! use tac25d_cost::CostParams;
//!
//! let params = CostParams::paper();
//! let single_chip = params.single_chip_cost(18.0 * 18.0);
//! let system = params.assembly_cost(16, 4.5 * 4.5, 20.0 * 20.0);
//! // A minimal-interposer 16-chiplet system saves ≈36% (paper Sec. V-B).
//! assert!(system.total() < 0.7 * single_chip);
//! ```

use serde::{Deserialize, Serialize};

/// Computes dies per wafer (Eq. (1)): the wafer-area term minus the edge
/// loss term. Both the numerator geometry and the √2 edge correction follow
/// the paper verbatim.
///
/// Returns 0 when the die is too large for any to fit.
///
/// # Panics
///
/// Panics if `wafer_diameter_mm` or `die_area_mm2` is not strictly positive.
pub fn dies_per_wafer(wafer_diameter_mm: f64, die_area_mm2: f64) -> f64 {
    assert!(wafer_diameter_mm > 0.0, "wafer diameter must be positive");
    assert!(die_area_mm2 > 0.0, "die area must be positive");
    let r = wafer_diameter_mm / 2.0;
    let n = core::f64::consts::PI * r * r / die_area_mm2
        - core::f64::consts::PI * wafer_diameter_mm / (2.0 * die_area_mm2).sqrt();
    n.max(0.0)
}

/// Negative-binomial die yield (Eq. (2)): `(1 + A·D₀/α)^(−α)` with the die
/// area in mm² and D₀ in defects/cm² (see the module-level unit note).
///
/// # Panics
///
/// Panics if any argument is negative or `alpha` is zero.
pub fn die_yield(die_area_mm2: f64, defect_density_per_cm2: f64, alpha: f64) -> f64 {
    assert!(die_area_mm2 >= 0.0 && defect_density_per_cm2 >= 0.0);
    assert!(alpha > 0.0, "clustering parameter must be positive");
    let area_cm2 = die_area_mm2 / 100.0;
    (1.0 + area_cm2 * defect_density_per_cm2 / alpha).powf(-alpha)
}

/// All constants of the cost model (Table II).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// CMOS wafer diameter, mm (300).
    pub wafer_diameter_mm: f64,
    /// Interposer wafer diameter, mm (300).
    pub interposer_wafer_diameter_mm: f64,
    /// CMOS wafer cost, dollars (5000).
    pub cmos_wafer_cost: f64,
    /// Interposer wafer cost, dollars (500 — older 65 nm process).
    pub interposer_wafer_cost: f64,
    /// Defect density D₀ in defects/cm² (0.25; see unit note).
    pub defect_density_per_cm2: f64,
    /// Defect clustering parameter α (3).
    pub clustering_alpha: f64,
    /// Interposer yield (0.98; passive interposers yield high).
    pub interposer_yield: f64,
    /// Per-chiplet bonding yield (0.99, applied serially).
    pub bond_yield: f64,
    /// Per-chiplet bonding cost, dollars. Not quantified in the paper
    /// (cited to \[27\]); chosen so the minimum-interposer 2.5D systems save
    /// ≈36% versus the single chip, the paper's headline cost number.
    pub bond_cost: f64,
}

impl CostParams {
    /// The paper's Table II constants.
    pub fn paper() -> Self {
        CostParams {
            wafer_diameter_mm: 300.0,
            interposer_wafer_diameter_mm: 300.0,
            cmos_wafer_cost: 5000.0,
            interposer_wafer_cost: 500.0,
            defect_density_per_cm2: 0.25,
            clustering_alpha: 3.0,
            interposer_yield: 0.98,
            bond_yield: 0.99,
            bond_cost: 0.125,
        }
    }

    /// Returns a copy with a different defect density (the Fig. 3(a) sweep).
    pub fn with_defect_density(mut self, d0_per_cm2: f64) -> Self {
        self.defect_density_per_cm2 = d0_per_cm2;
        self
    }

    /// Cost of one good CMOS die of the given area (Eq. (3), left form).
    ///
    /// # Panics
    ///
    /// Panics if the die does not fit on the wafer.
    pub fn cmos_die_cost(&self, die_area_mm2: f64) -> f64 {
        let n = dies_per_wafer(self.wafer_diameter_mm, die_area_mm2);
        assert!(
            n > 0.0,
            "die of {die_area_mm2} mm² does not fit on the wafer"
        );
        let y = die_yield(
            die_area_mm2,
            self.defect_density_per_cm2,
            self.clustering_alpha,
        );
        self.cmos_wafer_cost / (n * y)
    }

    /// Cost of one good interposer of the given area (Eq. (3), right form).
    ///
    /// # Panics
    ///
    /// Panics if the interposer does not fit on the wafer.
    pub fn interposer_cost(&self, area_mm2: f64) -> f64 {
        let n = dies_per_wafer(self.interposer_wafer_diameter_mm, area_mm2);
        assert!(
            n > 0.0,
            "interposer of {area_mm2} mm² does not fit on the wafer"
        );
        self.interposer_wafer_cost / (n * self.interposer_yield)
    }

    /// Cost of a monolithic single-chip system (`C_2D`).
    pub fn single_chip_cost(&self, die_area_mm2: f64) -> f64 {
        self.cmos_die_cost(die_area_mm2)
    }

    /// Full assembled 2.5D system cost (Eq. (4)) for `n` chiplets of
    /// `chiplet_area_mm2` each on an interposer of `interposer_area_mm2`,
    /// assuming known good dies.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn assembly_cost(
        &self,
        n: u32,
        chiplet_area_mm2: f64,
        interposer_area_mm2: f64,
    ) -> CostBreakdown {
        assert!(n > 0, "a 2.5D system needs at least one chiplet");
        let chiplets = f64::from(n) * self.cmos_die_cost(chiplet_area_mm2);
        let interposer = self.interposer_cost(interposer_area_mm2);
        let bonding = f64::from(n) * self.bond_cost;
        let assembly_yield = self.bond_yield.powi(n as i32);
        CostBreakdown {
            chiplets,
            interposer,
            bonding,
            assembly_yield,
        }
    }
}

impl Default for CostParams {
    fn default() -> Self {
        CostParams::paper()
    }
}

/// Itemized 2.5D system cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Known-good-die cost of all chiplets, dollars.
    pub chiplets: f64,
    /// Interposer cost, dollars.
    pub interposer: f64,
    /// Bonding process cost, dollars.
    pub bonding: f64,
    /// Overall assembly yield `Y_bond^n` dividing the total.
    pub assembly_yield: f64,
}

impl CostBreakdown {
    /// Total system cost (Eq. (4)).
    pub fn total(&self) -> f64 {
        (self.chiplets + self.interposer + self.bonding) / self.assembly_yield
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dies_per_wafer_decreases_with_area() {
        let n_small = dies_per_wafer(300.0, 81.0);
        let n_big = dies_per_wafer(300.0, 324.0);
        assert!(n_small > 4.0 * n_big * 0.9, "{n_small} vs {n_big}");
        assert!(n_big > 150.0 && n_big < 200.0, "18x18 chip: {n_big}");
    }

    #[test]
    fn huge_die_yields_zero_dies() {
        assert_eq!(dies_per_wafer(300.0, 300.0 * 300.0), 0.0);
    }

    #[test]
    fn yield_is_probability_and_monotonic() {
        let y1 = die_yield(81.0, 0.25, 3.0);
        let y2 = die_yield(324.0, 0.25, 3.0);
        assert!(y1 > y2, "bigger dies yield worse");
        assert!((0.0..=1.0).contains(&y1) && (0.0..=1.0).contains(&y2));
        assert_eq!(die_yield(0.0, 0.25, 3.0), 1.0);
    }

    #[test]
    fn defect_density_validates_27x_claim() {
        // Paper Sec. III-C: a 40×40 mm chip costs 27× a 20×20 mm chip at
        // the Table II parameters. This pins down the cm² unit convention.
        let p = CostParams::paper();
        let ratio = p.single_chip_cost(1600.0) / p.single_chip_cost(400.0);
        assert!(
            (25.0..=30.0).contains(&ratio),
            "cost ratio {ratio:.1}, paper says 27x"
        );
    }

    #[test]
    fn minimal_interposer_16_chiplets_saves_about_36_percent() {
        // Paper Sec. V-B: "With the minimum interposer size, the system
        // cost decreases by 36%".
        let p = CostParams::paper();
        let c2d = p.single_chip_cost(324.0);
        let c = p.assembly_cost(16, 4.5 * 4.5, 400.0).total();
        let saving = 1.0 - c / c2d;
        assert!(
            (0.32..=0.40).contains(&saving),
            "16-chiplet minimal saving {saving:.3}, paper says 0.36"
        );
    }

    #[test]
    fn minimal_interposer_4_chiplets_saves_30_to_42_percent() {
        // Paper Sec. III-B / Fig. 3(a): 30–42% saving across D₀ 0.20–0.30.
        for d0 in [0.20, 0.25, 0.30] {
            let p = CostParams::paper().with_defect_density(d0);
            let c2d = p.single_chip_cost(324.0);
            let c = p.assembly_cost(4, 81.0, 400.0).total();
            let saving = 1.0 - c / c2d;
            assert!(
                (0.25..=0.45).contains(&saving),
                "D0={d0}: saving {saving:.3}"
            );
        }
    }

    #[test]
    fn equivalent_25d_system_cheaper_than_grown_single_chip() {
        // Paper Sec. III-C: 4 chiplets + 40×40 interposer is ~27% cheaper
        // than a 20×20 single chip, and the interposer is ~30% of its cost.
        let p = CostParams::paper();
        let single_20 = p.single_chip_cost(400.0);
        let sys = p.assembly_cost(4, 100.0, 1600.0);
        let saving = 1.0 - sys.total() / single_20;
        assert!(
            (0.15..=0.40).contains(&saving),
            "saving {saving:.3}, paper says ≈0.27"
        );
        let int_share = sys.interposer / (sys.total() * sys.assembly_yield);
        assert!(
            (0.20..=0.40).contains(&int_share),
            "interposer share {int_share:.3}, paper says ≈0.30"
        );
    }

    #[test]
    fn cost_increases_with_interposer_size() {
        let p = CostParams::paper();
        let mut last = 0.0;
        for edge in [20.0, 30.0, 40.0, 50.0] {
            let c = p.assembly_cost(16, 20.25, edge * edge).total();
            assert!(c > last, "cost must grow with interposer edge {edge}");
            last = c;
        }
    }

    #[test]
    fn sixty_four_chiplets_uneconomical_from_bonding_yield() {
        // Paper Sec. III-C: bonding yield makes high chiplet counts costly.
        let p = CostParams::paper();
        let c2d = p.single_chip_cost(324.0);
        let c64 = p.assembly_cost(64, 324.0 / 64.0, 400.0).total();
        assert!(
            c64 > 0.9 * c2d,
            "64-chiplet ({c64:.1}) should approach/exceed single chip ({c2d:.1})"
        );
    }

    #[test]
    fn higher_defect_density_saves_more() {
        // Fig. 3(a): the saving is higher for larger defect density.
        let saving = |d0: f64| {
            let p = CostParams::paper().with_defect_density(d0);
            1.0 - p.assembly_cost(4, 81.0, 400.0).total() / p.single_chip_cost(324.0)
        };
        assert!(saving(0.30) > saving(0.25));
        assert!(saving(0.25) > saving(0.20));
    }

    #[test]
    fn breakdown_total_divides_by_assembly_yield() {
        let b = CostBreakdown {
            chiplets: 30.0,
            interposer: 5.0,
            bonding: 1.0,
            assembly_yield: 0.9,
        };
        assert!((b.total() - 36.0 / 0.9).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_interposer_rejected() {
        let p = CostParams::paper();
        let _ = p.interposer_cost(300.0 * 300.0);
    }
}
