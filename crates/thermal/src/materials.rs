//! Thermal conductivities of the package materials.
//!
//! Bulk values are standard handbook numbers (W/(m·K)); the composite layers
//! of Table I (microbumps, TSV'd interposer, C4 bumps) are modelled as
//! effective media: vertical conduction through a bump/via field is a
//! parallel combination of the metal and underfill paths, so the effective
//! conductivity is the area-fraction-weighted arithmetic mean. We apply the
//! same value laterally (an isotropic approximation; lateral conduction
//! through these thin layers is negligible next to the silicon above and
//! below them).

use serde::{Deserialize, Serialize};
use tac25d_floorplan::layers::Material;
use tac25d_floorplan::units::Mm;

/// A regular field of cylindrical metal interconnects (microbumps, TSVs or
/// C4 bumps) described by diameter and pitch, as in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BumpField {
    /// Bump/via diameter.
    pub diameter: Mm,
    /// Centre-to-centre pitch of the square bump array.
    pub pitch: Mm,
}

impl BumpField {
    /// Microbumps: Ø25 µm at 50 µm pitch (Table I).
    pub fn microbump() -> Self {
        BumpField {
            diameter: Mm::from_um(25.0),
            pitch: Mm::from_um(50.0),
        }
    }

    /// TSVs: Ø10 µm at 50 µm pitch (Table I).
    pub fn tsv() -> Self {
        BumpField {
            diameter: Mm::from_um(10.0),
            pitch: Mm::from_um(50.0),
        }
    }

    /// C4 bumps: Ø250 µm at 600 µm pitch (Table I).
    pub fn c4() -> Self {
        BumpField {
            diameter: Mm::from_um(250.0),
            pitch: Mm::from_um(600.0),
        }
    }

    /// Fraction of the layer cross-section occupied by metal:
    /// π·(d/2)² / pitch².
    ///
    /// # Panics
    ///
    /// Panics if the pitch is not strictly positive or the diameter exceeds
    /// the pitch (bumps would merge).
    pub fn metal_fraction(&self) -> f64 {
        let d = self.diameter.value();
        let p = self.pitch.value();
        assert!(p > 0.0, "bump pitch must be positive, got {p}");
        assert!(
            d <= p,
            "bump diameter {d} exceeds pitch {p}; adjacent bumps would merge"
        );
        core::f64::consts::PI * (d / 2.0) * (d / 2.0) / (p * p)
    }

    /// Effective conductivity of the field: metal and filler conduct in
    /// parallel through the layer thickness.
    pub fn effective_conductivity(&self, k_metal: f64, k_fill: f64) -> f64 {
        let f = self.metal_fraction();
        f * k_metal + (1.0 - f) * k_fill
    }
}

/// Bulk and composite thermal conductivities used by the solver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MaterialLibrary {
    /// Bulk silicon, W/(m·K). Default 120 (silicon near 80–90 °C).
    pub silicon: f64,
    /// Copper (spreader / sink base / bump metal), W/(m·K). Default 390.
    pub copper: f64,
    /// Epoxy resin underfill, W/(m·K). Default 0.9.
    pub epoxy: f64,
    /// FR-4 organic substrate, W/(m·K). Default 0.3.
    pub fr4: f64,
    /// Thermal interface material, W/(m·K). Default 4.0 (HotSpot's default
    /// TIM conductivity).
    pub tim: f64,
    /// Low-conductivity filler/air gaps, W/(m·K). Default 0.05.
    pub filler: f64,
    /// Microbump field geometry.
    pub microbumps: BumpField,
    /// TSV field geometry.
    pub tsvs: BumpField,
    /// C4 bump field geometry.
    pub c4: BumpField,
}

impl Default for MaterialLibrary {
    fn default() -> Self {
        MaterialLibrary {
            silicon: 120.0,
            copper: 390.0,
            epoxy: 0.9,
            fr4: 0.3,
            tim: 4.0,
            filler: 0.05,
            microbumps: BumpField::microbump(),
            tsvs: BumpField::tsv(),
            c4: BumpField::c4(),
        }
    }
}

impl MaterialLibrary {
    /// Thermal conductivity of a material identity, in W/(m·K).
    pub fn conductivity(&self, m: Material) -> f64 {
        match m {
            Material::Silicon => self.silicon,
            Material::Epoxy => self.epoxy,
            Material::Copper => self.copper,
            Material::Fr4 => self.fr4,
            Material::InterfaceMaterial => self.tim,
            Material::Filler => self.filler,
            Material::MicrobumpComposite => self
                .microbumps
                .effective_conductivity(self.copper, self.epoxy),
            Material::TsvSilicon => self.tsvs.effective_conductivity(self.copper, self.silicon),
            Material::C4Composite => self.c4.effective_conductivity(self.copper, self.epoxy),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metal_fractions_from_table1() {
        assert!((BumpField::microbump().metal_fraction() - 0.19635).abs() < 1e-4);
        assert!((BumpField::tsv().metal_fraction() - 0.031416).abs() < 1e-5);
        assert!((BumpField::c4().metal_fraction() - 0.13635).abs() < 1e-4);
    }

    #[test]
    fn composite_conductivities_between_constituents() {
        let lib = MaterialLibrary::default();
        for m in [
            Material::MicrobumpComposite,
            Material::TsvSilicon,
            Material::C4Composite,
        ] {
            let k = lib.conductivity(m);
            assert!(
                k > lib.epoxy.min(lib.silicon) && k < lib.copper,
                "{m:?}: {k}"
            );
        }
        // Microbump composite ≈ 0.196·390 + 0.804·0.9 ≈ 77.3.
        let k_ub = lib.conductivity(Material::MicrobumpComposite);
        assert!((k_ub - 77.3).abs() < 0.5, "{k_ub}");
        // TSV'd silicon is slightly better than bulk silicon.
        assert!(lib.conductivity(Material::TsvSilicon) > lib.silicon);
    }

    #[test]
    fn bulk_lookups() {
        let lib = MaterialLibrary::default();
        assert_eq!(lib.conductivity(Material::Silicon), 120.0);
        assert_eq!(lib.conductivity(Material::Copper), 390.0);
        assert_eq!(lib.conductivity(Material::Fr4), 0.3);
        assert_eq!(lib.conductivity(Material::InterfaceMaterial), 4.0);
    }

    #[test]
    #[should_panic(expected = "exceeds pitch")]
    fn merged_bumps_rejected() {
        let f = BumpField {
            diameter: Mm::from_um(700.0),
            pitch: Mm::from_um(600.0),
        };
        let _ = f.metal_fraction();
    }

    #[test]
    fn effective_conductivity_interpolates() {
        let f = BumpField {
            diameter: Mm::from_um(50.0),
            pitch: Mm::from_um(50.0),
        };
        // Full-pitch bumps: fraction = π/4.
        let k = f.effective_conductivity(400.0, 0.0);
        assert!((k - 400.0 * core::f64::consts::FRAC_PI_4).abs() < 1e-9);
    }
}
