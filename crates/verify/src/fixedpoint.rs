//! Canonical cache-key gate (`verify fixedpoint`): layout
//! parameterizations folded onto one cache key
//! (`Symmetric4 { s3 } ≡ Uniform { 2, s3 }`, uniform-spaced
//! `Symmetric16 ≡ Uniform { 4, g }`) describe the same physical package,
//! so evaluating each *independently* (separate evaluators, no shared
//! cache) must agree on the field and on feasibility.
//!
//! The leakage-coupled steady state itself is checked against an exact
//! Cholesky solve of the same matrix by `verify solver`.

use tac25d_core::evaluator::layout_key;
use tac25d_core::prelude::*;
use tac25d_floorplan::organization::{ChipletLayout, Spacing};
use tac25d_floorplan::units::Mm;

/// Maximum tolerated |ΔT| between equivalent paths, in °C.
pub const MAX_FIXEDPOINT_DT_C: f64 = 1e-6;

/// One alias pair's independent-evaluation comparison.
#[derive(Debug, Clone)]
pub struct AliasCase {
    /// Pair name.
    pub name: &'static str,
    /// Whether the two parameterizations share a canonical cache key.
    pub keys_match: bool,
    /// Max |ΔT| over the peak and the per-chiplet peaks.
    pub max_abs_dt_c: f64,
    /// Whether both evaluations agree on feasibility at the spec
    /// threshold (and on convergence).
    pub decisions_match: bool,
}

impl AliasCase {
    /// Whether the pair satisfies the canonical-folding contract.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.keys_match && self.max_abs_dt_c <= MAX_FIXEDPOINT_DT_C && self.decisions_match
    }
}

/// Runs each canonical alias pair through *independent* evaluators (so
/// the shared key cannot short-circuit the comparison) and records the
/// field and decision agreement.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn alias_cases(spec: &SystemSpec) -> Result<Vec<AliasCase>, EvalError> {
    let pairs: Vec<(&'static str, ChipletLayout, ChipletLayout)> = vec![
        (
            "sym4_vs_uniform2",
            ChipletLayout::Symmetric4 { s3: Mm(6.0) },
            ChipletLayout::Uniform { r: 2, gap: Mm(6.0) },
        ),
        (
            "sym16u_vs_uniform4",
            ChipletLayout::Symmetric16 {
                spacing: Spacing::uniform(Mm(4.0)),
            },
            ChipletLayout::Uniform { r: 4, gap: Mm(4.0) },
        ),
    ];
    let op = spec.vf.nominal();
    pairs
        .into_iter()
        .map(|(name, a, b)| {
            let ev_a = Evaluator::new(spec.clone());
            let ev_b = Evaluator::new(spec.clone());
            let ea = ev_a.evaluate(&a, Benchmark::Cholesky, op, 256)?;
            let eb = ev_b.evaluate(&b, Benchmark::Cholesky, op, 256)?;
            let mut max_abs_dt_c = (ea.peak.value() - eb.peak.value()).abs();
            for (pa, pb) in ea.chiplet_peaks.iter().zip(&eb.chiplet_peaks) {
                max_abs_dt_c = max_abs_dt_c.max((pa.value() - pb.value()).abs());
            }
            Ok(AliasCase {
                name,
                keys_match: layout_key(&a) == layout_key(&b),
                max_abs_dt_c,
                decisions_match: ea.feasible(spec.threshold) == eb.feasible(spec.threshold)
                    && ea.converged == eb.converged
                    && ea.chiplet_peaks.len() == eb.chiplet_peaks.len(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac25d_core::system::SystemSpec;

    #[test]
    fn canonical_alias_pairs_evaluate_identically() {
        let mut spec = SystemSpec::fast();
        spec.thermal.grid = 16;
        for case in alias_cases(&spec).unwrap() {
            assert!(
                case.passed(),
                "{}: keys_match {}, max|dT| = {:.3e} C, decisions_match {}",
                case.name,
                case.keys_match,
                case.max_abs_dt_c,
                case.decisions_match
            );
        }
    }
}
