//! The per-core power model (McPAT substitute) with temperature-dependent
//! leakage.
//!
//! Dynamic power follows the classic CV²f scaling from each benchmark's
//! calibrated nominal value; leakage is linear in temperature, anchored at
//! the paper's "30% of power is leakage at 60 °C" (Sec. IV), with a slope
//! extracted in the paper from published Intel 22 nm data — we use
//! 1.2 %/°C, a standard figure for that node. Idle cores enter sleep mode
//! and consume ≈0 W (paper Sec. IV).

use crate::benchmarks::BenchmarkProfile;
use crate::dvfs::OperatingPoint;
use serde::{Deserialize, Serialize};
use tac25d_floorplan::units::Celsius;

/// Linear temperature-dependent leakage model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LeakageModel {
    /// Reference temperature at which the nominal leakage is specified.
    pub reference: Celsius,
    /// Fractional leakage growth per °C above the reference (default
    /// 0.012 = 1.2 %/°C for 22 nm).
    pub slope_per_c: f64,
    /// Exponent of the supply-voltage dependence (leakage ∝ V^n; n = 1
    /// captures the dominant linear DIBL term at these voltages).
    pub voltage_exponent: f64,
}

impl Default for LeakageModel {
    fn default() -> Self {
        LeakageModel {
            reference: Celsius(60.0),
            slope_per_c: 0.012,
            voltage_exponent: 1.0,
        }
    }
}

impl LeakageModel {
    /// The unclamped leakage of one core as an affine map of temperature:
    /// `(l₀, dl/dT)` with `l₀ + dl/dT · t` watts at `t` °C, given its
    /// nominal leakage `leak_ref` at (0.9 V, reference temperature).
    pub fn affine(&self, leak_ref: f64, op: OperatingPoint) -> (f64, f64) {
        let at_reference = leak_ref * op.voltage_ratio().powf(self.voltage_exponent);
        let per_c = at_reference * self.slope_per_c;
        (at_reference - per_c * self.reference.value(), per_c)
    }

    /// Leakage power of one core at voltage `v` (volts) and temperature `t`:
    /// the [`LeakageModel::affine`] map, clamped at zero for very cold
    /// (extrapolated) temperatures.
    pub fn leakage(&self, leak_ref: f64, op: OperatingPoint, t: Celsius) -> f64 {
        let (l0, per_c) = self.affine(leak_ref, op);
        (l0 + per_c * t.value()).max(0.0)
    }
}

/// The complete per-core power model.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CorePowerModel {
    /// The leakage sub-model.
    pub leakage: LeakageModel,
}

impl CorePowerModel {
    /// Dynamic power of one active core: `P_dyn = P_dyn,nom · (V/V₀)² · (f/f₀)`.
    pub fn dynamic(&self, profile: &BenchmarkProfile, op: OperatingPoint) -> f64 {
        profile.dynamic_nominal() * op.voltage_ratio().powi(2) * op.freq_ratio()
    }

    /// Total power of one *active* core as an affine map of its
    /// temperature: `(p₀, dp/dT)` with `p₀ + dp/dT · t` watts at `t` °C
    /// (dynamic power plus [`LeakageModel::affine`]). The coupled thermal
    /// solve consumes these coefficients directly.
    pub fn affine_power(&self, profile: &BenchmarkProfile, op: OperatingPoint) -> (f64, f64) {
        let (l0, per_c) = self.leakage.affine(profile.leakage_nominal_60c(), op);
        (self.dynamic(profile, op) + l0, per_c)
    }

    /// Total power of one *active* core at temperature `t`: the
    /// [`CorePowerModel::affine_power`] map with its leakage clamped at
    /// zero, i.e. never below the dynamic power.
    pub fn active_power(&self, profile: &BenchmarkProfile, op: OperatingPoint, t: Celsius) -> f64 {
        let (p0, per_c) = self.affine_power(profile, op);
        (p0 + per_c * t.value()).max(self.dynamic(profile, op))
    }

    /// Power of an idle (sleeping) core — ≈0 W per the paper.
    pub fn idle_power(&self) -> f64 {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::Benchmark;
    use crate::dvfs::VfTable;

    fn nominal() -> OperatingPoint {
        VfTable::paper().nominal()
    }

    #[test]
    fn thirty_percent_leakage_at_60c() {
        let m = CorePowerModel::default();
        for b in Benchmark::all() {
            let prof = b.profile();
            let total = m.active_power(&prof, nominal(), Celsius(60.0));
            let leak = m
                .leakage
                .leakage(prof.leakage_nominal_60c(), nominal(), Celsius(60.0));
            assert!(
                (leak / total - 0.3).abs() < 1e-9,
                "{b}: leak fraction {}",
                leak / total
            );
        }
    }

    #[test]
    fn leakage_grows_linearly_with_temperature() {
        let m = LeakageModel::default();
        let at = |t: f64| m.leakage(1.0, nominal(), Celsius(t));
        let l60 = at(60.0);
        let l85 = at(85.0);
        let l110 = at(110.0);
        assert!((l85 - l60 - (l110 - l85)).abs() < 1e-12, "linear slope");
        assert!((l85 / l60 - 1.3).abs() < 1e-9, "1.2%/°C over 25°C = +30%");
    }

    #[test]
    fn leakage_clamped_nonnegative() {
        let m = LeakageModel::default();
        assert_eq!(m.leakage(1.0, nominal(), Celsius(-100.0)), 0.0);
    }

    #[test]
    fn dynamic_power_scales_with_v2f() {
        let m = CorePowerModel::default();
        let prof = Benchmark::Cholesky.profile();
        let t = VfTable::paper();
        let p_nom = m.dynamic(&prof, t.nominal());
        let p_533 = m.dynamic(&prof, t.at_frequency(533.0).unwrap());
        let expect = p_nom * (0.71f64 / 0.9).powi(2) * 0.533;
        assert!((p_533 - expect).abs() < 1e-12);
        assert!(p_533 < p_nom * 0.4, "DVFS saves >60% dynamic power");
    }

    #[test]
    fn active_power_at_nominal_matches_profile() {
        let m = CorePowerModel::default();
        for b in Benchmark::all() {
            let prof = b.profile();
            let p = m.active_power(&prof, nominal(), Celsius(60.0));
            assert!(
                (p - prof.core_power_nominal).abs() < 1e-9,
                "{b}: {p} vs {}",
                prof.core_power_nominal
            );
        }
    }

    #[test]
    fn active_power_is_the_clamped_affine_map() {
        let m = CorePowerModel::default();
        let prof = Benchmark::Canneal.profile();
        let (p0, per_c) = m.affine_power(&prof, nominal());
        for t in [45.0, 60.0, 85.0, 120.0] {
            let p = m.active_power(&prof, nominal(), Celsius(t));
            assert!((p - (p0 + per_c * t)).abs() < 1e-12, "{t} C: {p}");
        }
        // Far below the clamp only the dynamic power is left.
        let cold = m.active_power(&prof, nominal(), Celsius(-200.0));
        assert_eq!(cold, m.dynamic(&prof, nominal()));
    }

    #[test]
    fn idle_cores_are_dark() {
        assert_eq!(CorePowerModel::default().idle_power(), 0.0);
    }

    #[test]
    fn hotter_core_consumes_more() {
        let m = CorePowerModel::default();
        let prof = Benchmark::Shock.profile();
        let p60 = m.active_power(&prof, nominal(), Celsius(60.0));
        let p100 = m.active_power(&prof, nominal(), Celsius(100.0));
        assert!(
            p100 > p60 * 1.1,
            "leakage feedback visible: {p60} -> {p100}"
        );
    }
}
