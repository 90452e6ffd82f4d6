//! Property-based tests of the analytic placement proxy: the exact
//! gradients must agree with central finite differences on random
//! layouts and power maps, projection must keep iterates on the
//! fixed-edge manifold, and snapping must be a deterministic, deduped,
//! clamped map onto the search lattice.

use proptest::prelude::*;
use tac25d_surrogate::analytic::{snap_to_lattice, AnalyticOptimum, Manifold16};

/// Paper-package chiplet geometry; `free` and the power map are the
/// randomized inputs.
fn manifold(free: f64, watts: &[f64]) -> Manifold16 {
    let mut w = [0.0f64; 16];
    w.copy_from_slice(watts);
    Manifold16 {
        wc: 4.5,
        guard: 1.0,
        free,
        watts: w,
    }
}

/// Relative gradient check with an absolute floor: below ~1e-3 °C/mm the
/// central difference itself is dominated by f64 cancellation (the
/// objective is O(100) °C, so the quotient noise is ~1e-8-1e-9 °C/mm),
/// and the comparison degrades to exactly that absolute tolerance.
fn rel_err(analytic: f64, fd: f64) -> f64 {
    (analytic - fd).abs() / analytic.abs().max(fd.abs()).max(1e-3)
}

proptest! {
    /// Both gradient components match central finite differences to
    /// 1e-5 relative error at random interior points of random
    /// manifolds.
    #[test]
    fn gradient_matches_central_differences(
        free in 1.0..18.0f64,
        watts in prop::collection::vec(5.0..25.0f64, 16..17),
        f1 in 0.05..0.95f64,
        f2 in 0.05..0.95f64,
    ) {
        let m = manifold(free, &watts);
        let hi = m.half_free();
        let (s1, s2) = (f1 * hi, f2 * hi);
        let h = 1e-5;
        let (_, g1, g2) = m.objective_grad(s1, s2);
        let fd1 = (m.objective_grad(s1 + h, s2).0
            - m.objective_grad(s1 - h, s2).0)
            / (2.0 * h);
        let fd2 = (m.objective_grad(s1, s2 + h).0
            - m.objective_grad(s1, s2 - h).0)
            / (2.0 * h);
        prop_assert!(
            rel_err(g1, fd1) <= 1e-5,
            "ds1 at ({s1}, {s2}): analytic {g1} vs fd {fd1}"
        );
        prop_assert!(
            rel_err(g2, fd2) <= 1e-5,
            "ds2 at ({s1}, {s2}): analytic {g2} vs fd {fd2}"
        );
    }

    /// Projection clamps any point into the feasible box, and every
    /// descent optimum stays on the fixed-edge manifold: `s1, s2` inside
    /// `[0, free/2]`, the implied `s3 = free − 2·s1` non-negative, and
    /// Eq. (10) (`2·s2 ≤ 2·s1 + s3`) satisfied by construction.
    #[test]
    fn projection_keeps_the_manifold(
        free in 0.0..18.0f64,
        watts in prop::collection::vec(5.0..25.0f64, 16..17),
        x1 in -10.0..30.0f64,
        x2 in -10.0..30.0f64,
    ) {
        let m = manifold(free, &watts);
        let hi = m.half_free();
        let (p1, p2) = m.project(x1, x2);
        prop_assert!((0.0..=hi).contains(&p1), "s1 {p1} outside [0, {hi}]");
        prop_assert!((0.0..=hi).contains(&p2), "s2 {p2} outside [0, {hi}]");
        let out = m.descend();
        for o in &out.optima {
            prop_assert!(o.s1_mm >= 0.0 && o.s1_mm <= hi + 1e-12);
            prop_assert!(o.s2_mm >= 0.0 && o.s2_mm <= hi + 1e-12);
            let s3 = m.free - 2.0 * o.s1_mm;
            prop_assert!(s3 >= -1e-12, "implied s3 {s3} negative");
            prop_assert!(
                (2.0 * o.s1_mm + s3 - m.free).abs() <= 1e-12,
                "manifold constant drifted"
            );
            prop_assert!(2.0 * o.s1_mm + s3 - 2.0 * o.s2_mm >= -1e-9, "Eq. (10) violated");
        }
    }

    /// The descent is bit-deterministic: re-running on the same manifold
    /// reproduces the optima and the gradient-evaluation count exactly.
    #[test]
    fn descent_is_deterministic_on_random_manifolds(
        free in 0.5..15.0f64,
        watts in prop::collection::vec(5.0..25.0f64, 16..17),
    ) {
        let m = manifold(free, &watts);
        let a = m.descend();
        let b = m.descend();
        prop_assert_eq!(a.grad_evals, b.grad_evals);
        prop_assert_eq!(a.optima, b.optima);
    }

    /// Snapping is deterministic, returns at most `k` points, dedupes,
    /// and clamps every coordinate into the lattice bounds.
    #[test]
    fn snap_is_deterministic_deduped_and_clamped(
        coords in prop::collection::vec((-5.0..25.0f64, -5.0..25.0f64), 1..12),
        s1_max in 1i64..20,
        s2_max in 1i64..20,
        k in 1usize..6,
    ) {
        let optima: Vec<AnalyticOptimum> = coords
            .iter()
            .enumerate()
            .map(|(i, &(s1, s2))| AnalyticOptimum {
                s1_mm: s1,
                s2_mm: s2,
                peak_proxy_c: i as f64,
            })
            .collect();
        let a = snap_to_lattice(&optima, 0.5, s1_max, s2_max, k);
        let b = snap_to_lattice(&optima, 0.5, s1_max, s2_max, k);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.len() <= k);
        for (i, pt) in a.iter().enumerate() {
            prop_assert!((0..=s1_max).contains(&pt.0));
            prop_assert!((0..=s2_max).contains(&pt.1));
            prop_assert!(!a[..i].contains(pt), "duplicate lattice point {pt:?}");
        }
    }
}
