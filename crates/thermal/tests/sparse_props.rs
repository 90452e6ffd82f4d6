//! Property-based tests of the CSR assembler and solvers: symmetry and
//! positive-definiteness are *structural* guarantees of the conductance
//! assembler (`add_conductance` / `add_ground`), so they must survive any
//! random network — and the PCG solver must meet its advertised residual
//! tolerance on any SPD system it accepts.

use proptest::prelude::*;
use tac25d_thermal::sparse::{cholesky_solve, pcg, pcg_with, CsrMatrix, Ic0, TripletMatrix};

/// Deterministic xorshift-style generator for filling matrices: proptest
/// supplies the seed, the closure supplies unlimited uniform values.
fn splitmix(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64) / f64::from(u32::MAX)
    }
}

/// A random connected conductance network with at least one ground path —
/// exactly the class of matrices the thermal assembler produces.
fn random_network(n: usize, rng: &mut impl FnMut() -> f64) -> CsrMatrix {
    let mut t = TripletMatrix::new(n);
    for i in 0..n - 1 {
        t.add_conductance(i, i + 1, 0.05 + rng());
    }
    for _ in 0..2 * n {
        let a = (rng() * n as f64) as usize % n;
        let b = (rng() * n as f64) as usize % n;
        if a != b {
            t.add_conductance(a, b, 2.0 * rng());
        }
    }
    t.add_ground((rng() * n as f64) as usize % n, 0.5 + rng());
    t.to_csr()
}

/// `x·(A·y)` — asymmetry shows up as a mismatch of the two bilinear forms.
fn bilinear(a: &CsrMatrix, x: &[f64], y: &[f64]) -> f64 {
    let mut ay = vec![0.0; y.len()];
    a.mul_vec(y, &mut ay);
    x.iter().zip(&ay).map(|(xi, v)| xi * v).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Conductance assembly produces a symmetric operator: the bilinear
    /// form x·Ay equals y·Ax for random probe vectors.
    #[test]
    fn assembly_preserves_symmetry(n in 3usize..50, seed in 0u64..10_000) {
        let mut rng = splitmix(seed);
        let a = random_network(n, &mut rng);
        let x: Vec<f64> = (0..n).map(|_| rng() - 0.5).collect();
        let y: Vec<f64> = (0..n).map(|_| rng() - 0.5).collect();
        let xy = bilinear(&a, &x, &y);
        let yx = bilinear(&a, &y, &x);
        prop_assert!(
            (xy - yx).abs() <= 1e-12 * xy.abs().max(yx.abs()).max(1.0),
            "x·Ay = {xy} but y·Ax = {yx}"
        );
    }

    /// A grounded conductance network is SPD: the Cholesky
    /// factorization (which fails on any non-positive pivot) must succeed.
    #[test]
    fn grounded_networks_are_spd(n in 2usize..40, seed in 0u64..10_000) {
        let mut rng = splitmix(seed);
        let a = random_network(n, &mut rng);
        let b: Vec<f64> = (0..n).map(|_| rng() * 5.0).collect();
        prop_assert!(cholesky_solve(&a, &b).is_ok(), "Cholesky pivot failed");
    }

    /// The direct oracle is exact on the package network's shape: a band
    /// (the layer-major grid rows) plus a dense trailing border (the lumped
    /// periphery nodes, appended last and coupled to everything). Random
    /// signed entries inside that envelope, diagonally dominant, must solve
    /// to ‖Ax − b‖ ≤ 1e-10·‖b‖.
    #[test]
    fn cholesky_solves_band_plus_border_systems(
        n in 2usize..60,
        band in 1usize..12,
        border in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let mut rng = splitmix(seed);
        let total = n + border;
        let mut t = TripletMatrix::new(total);
        let mut off_sums = vec![0.0f64; total];
        for i in 0..total {
            let lo = if i < n { i.saturating_sub(band) } else { 0 };
            for j in lo..i {
                if rng() < 0.6 {
                    let v = rng() - 0.5;
                    t.add(i, j, v);
                    t.add(j, i, v);
                    off_sums[i] += v.abs();
                    off_sums[j] += v.abs();
                }
            }
        }
        for (i, off) in off_sums.iter().enumerate() {
            t.add(i, i, off + 0.05 + rng());
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..total).map(|_| rng() * 10.0 - 5.0).collect();
        let x = cholesky_solve(&a, &b).unwrap();
        let mut ax = vec![0.0; total];
        a.mul_vec(&x, &mut ax);
        let res: f64 = ax.iter().zip(&b).map(|(l, r)| (l - r) * (l - r)).sum::<f64>().sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(res <= 1e-10 * bn, "residual {res} vs ‖b‖ {bn}");
    }

    /// A positive diagonal shift added through `with_added_entries` keeps
    /// both properties: the shifted matrix stays symmetric and SPD.
    #[test]
    fn diagonal_shift_preserves_symmetry_and_spd(
        n in 2usize..30,
        seed in 0u64..10_000,
        shift in 0.01..10.0f64,
    ) {
        let mut rng = splitmix(seed);
        let a = random_network(n, &mut rng);
        let diagonal: Vec<_> = (0..n).map(|i| (i, i, shift)).collect();
        let shifted = a.with_added_entries(&diagonal);
        let x: Vec<f64> = (0..n).map(|_| rng() - 0.5).collect();
        let y: Vec<f64> = (0..n).map(|_| rng() - 0.5).collect();
        let xy = bilinear(&shifted, &x, &y);
        let yx = bilinear(&shifted, &y, &x);
        prop_assert!((xy - yx).abs() <= 1e-12 * xy.abs().max(1.0));
        prop_assert!(cholesky_solve(&shifted, &x).is_ok());
    }

    /// PCG meets its advertised relative-residual tolerance on random
    /// diagonally dominant SPD systems (a wider class than networks:
    /// signed off-diagonals), verified against the residual definition.
    #[test]
    fn pcg_residual_within_tolerance_on_random_spd(
        n in 2usize..35,
        seed in 0u64..10_000,
    ) {
        let mut rng = splitmix(seed);
        let mut t = TripletMatrix::new(n);
        let mut off_sums = vec![0.0f64; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if rng() < 0.4 {
                    let v = rng() - 0.5;
                    t.add(i, j, v);
                    t.add(j, i, v);
                    off_sums[i] += v.abs();
                    off_sums[j] += v.abs();
                }
            }
        }
        for (i, off) in off_sums.iter().enumerate() {
            t.add(i, i, off + 0.1 + rng());
        }
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|_| rng() * 10.0 - 5.0).collect();
        let tol = 1e-10;
        let sol = pcg(&a, &b, tol, 50_000).unwrap();
        let mut ax = vec![0.0; n];
        a.mul_vec(&sol.x, &mut ax);
        let res: f64 = ax.iter().zip(&b).map(|(l, r)| (l - r) * (l - r)).sum::<f64>().sqrt();
        let bn: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(res <= tol * bn.max(1e-30), "residual {res} vs ‖b‖ {bn}");
        prop_assert!(sol.residual <= tol, "reported residual {}", sol.residual);
    }

    /// The solver's equivalence contract: IC(0)-PCG, Jacobi-PCG and the
    /// exact Cholesky reference agree to 1e-8 on random SPD
    /// conductance networks. Networks are M-matrices, so the incomplete
    /// factorization must succeed.
    #[test]
    fn ic0_jacobi_and_dense_agree(n in 3usize..40, seed in 0u64..10_000) {
        let mut rng = splitmix(seed);
        let a = random_network(n, &mut rng);
        let b: Vec<f64> = (0..n).map(|_| rng() * 4.0 - 1.0).collect();
        let dense = cholesky_solve(&a, &b).unwrap();
        let jac = pcg(&a, &b, 1e-12, 100_000).unwrap();
        let m = Ic0::factor(&a);
        prop_assert!(m.is_ok(), "IC(0) must not break down on an M-matrix");
        let m = m.unwrap();
        let ic = pcg_with(&a, &m, &b, None, 1e-12, 100_000).unwrap();
        for (i, d) in dense.iter().enumerate() {
            prop_assert!(
                (jac.x[i] - d).abs() < 1e-8,
                "jacobi node {i}: {} vs {d}", jac.x[i]
            );
            prop_assert!(
                (ic.x[i] - d).abs() < 1e-8,
                "ic0 node {i}: {} vs {d}", ic.x[i]
            );
        }
    }

    /// Warm-started IC(0)-PCG converges to the same answer as a cold
    /// solve — starting from a perturbed solution of a nearby system must
    /// not bias the result beyond the residual tolerance.
    #[test]
    fn warm_started_pcg_matches_cold(n in 3usize..40, seed in 0u64..10_000) {
        let mut rng = splitmix(seed);
        let a = random_network(n, &mut rng);
        let b: Vec<f64> = (0..n).map(|_| rng() * 4.0 - 1.0).collect();
        let m = Ic0::factor(&a).unwrap();
        let cold = pcg_with(&a, &m, &b, None, 1e-12, 100_000).unwrap();
        let x0: Vec<f64> = cold.x.iter().map(|v| v * (1.0 + 0.1 * rng())).collect();
        let warm = pcg_with(&a, &m, &b, Some(&x0), 1e-12, 100_000).unwrap();
        for i in 0..n {
            prop_assert!(
                (warm.x[i] - cold.x[i]).abs() < 1e-8,
                "node {i}: warm {} vs cold {}", warm.x[i], cold.x[i]
            );
        }
    }
}
