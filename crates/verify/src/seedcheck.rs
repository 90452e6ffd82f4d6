//! Seeding gate (`verify seed`): the analytic-gradient placement seeding
//! and its draft-then-verify search must be a decision-preserving
//! acceleration of the screened organizer.
//!
//! Two contracts, one per section of the report:
//!
//! * **gradient consistency** — on a deterministic corpus of random
//!   manifolds and power maps, the proxy's exact analytic gradient must
//!   agree with central finite differences to [`MAX_GRAD_REL_ERR`]
//!   relative error (a wrong gradient would still "work" — descent with
//!   a bad direction just wastes evaluations — so only a direct check
//!   catches it);
//! * **snap determinism** — descending and lattice-snapping the same
//!   manifold twice must produce bit-identical seed points (the seeds
//!   feed a seeded RNG search, so any wobble would break run-to-run
//!   reproducibility of the organizer).
//!
//! The seeded search is the only screened search, so its decisions are
//! checked against the exact paper search by `verify diff`, and its
//! exact-solve budget by the one-sided `evaluator.exact_solves` gate of
//! `obs-report --baseline`.

use tac25d_surrogate::analytic::{snap_to_lattice, Manifold16};

/// Maximum tolerated relative error between the analytic gradient and a
/// central finite difference (floored at 1e-3 °C/mm, below which the
/// difference quotient itself is cancellation noise).
pub const MAX_GRAD_REL_ERR: f64 = 1e-5;

/// One manifold's gradient-vs-finite-difference comparison.
#[derive(Debug, Clone)]
pub struct GradientCase {
    /// Corpus point name.
    pub name: String,
    /// Worst relative error over both components at every probe point.
    pub max_rel_err: f64,
    /// Probe points checked.
    pub points: usize,
}

impl GradientCase {
    /// Whether the analytic gradient is finite-difference-consistent.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.max_rel_err <= MAX_GRAD_REL_ERR
    }
}

/// One manifold's descend-and-snap determinism check.
#[derive(Debug, Clone)]
pub struct SnapCase {
    /// Corpus point name.
    pub name: String,
    /// Seed points of the first run (lattice units), for the report.
    pub seeds: Vec<(i64, i64)>,
    /// Whether two independent runs agreed bit-for-bit.
    pub deterministic: bool,
}

impl SnapCase {
    /// Whether the seeding pipeline is reproducible on this manifold.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.deterministic
    }
}

/// Splitmix64 step: the deterministic corpus generator (no RNG crate —
/// the corpus must be identical on every platform and in every run).
fn splitmix(state: &mut u64) -> f64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The deterministic manifold corpus: paper chiplet geometry, a spread of
/// manifold constants, power maps drawn from a fixed splitmix64 stream.
fn manifold_corpus() -> Vec<(String, Manifold16)> {
    let mut state = 0x5eed_c0de_u64;
    [2.0f64, 5.0, 9.5, 14.0, 18.0]
        .iter()
        .enumerate()
        .map(|(i, &free)| {
            let mut watts = [0.0f64; 16];
            for w in &mut watts {
                *w = 6.0 + 18.0 * splitmix(&mut state);
            }
            (
                format!("free={free}mm#{i}"),
                Manifold16 {
                    wc: 4.5,
                    guard: 1.0,
                    free,
                    watts,
                },
            )
        })
        .collect()
}

/// Runs the gradient-vs-central-difference comparison over the corpus.
#[must_use]
pub fn gradient_cases() -> Vec<GradientCase> {
    let probes = [
        (0.1, 0.1),
        (0.5, 0.5),
        (0.85, 0.2),
        (0.3, 0.75),
        (0.65, 0.65),
    ];
    manifold_corpus()
        .into_iter()
        .map(|(name, m)| {
            let hi = m.half_free();
            let h = 1e-5;
            let mut max_rel_err = 0.0f64;
            for &(f1, f2) in &probes {
                let (s1, s2) = (f1 * hi, f2 * hi);
                let (_, g1, g2) = m.objective_grad(s1, s2);
                let fd1 =
                    (m.objective_grad(s1 + h, s2).0 - m.objective_grad(s1 - h, s2).0) / (2.0 * h);
                let fd2 =
                    (m.objective_grad(s1, s2 + h).0 - m.objective_grad(s1, s2 - h).0) / (2.0 * h);
                let rel = |a: f64, b: f64| (a - b).abs() / a.abs().max(b.abs()).max(1e-3);
                max_rel_err = max_rel_err.max(rel(g1, fd1)).max(rel(g2, fd2));
            }
            GradientCase {
                name,
                max_rel_err,
                points: probes.len(),
            }
        })
        .collect()
}

/// Runs the descend-and-snap pipeline twice per corpus manifold and
/// compares the seed points bit-for-bit.
#[must_use]
pub fn snap_cases() -> Vec<SnapCase> {
    manifold_corpus()
        .into_iter()
        .map(|(name, m)| {
            let step = 0.5;
            let max_units = (m.half_free() / step).floor() as i64;
            let run = || {
                let out = m.descend();
                snap_to_lattice(&out.optima, step, max_units, max_units, 4)
            };
            let a = run();
            let b = run();
            SnapCase {
                deterministic: a == b,
                seeds: a,
                name,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_corpus_is_consistent() {
        for c in gradient_cases() {
            assert!(c.passed(), "{}: max rel err {:.3e}", c.name, c.max_rel_err);
        }
    }

    #[test]
    fn snapping_is_deterministic() {
        for c in snap_cases() {
            assert!(c.passed(), "{}: seeds diverged", c.name);
        }
    }
}
