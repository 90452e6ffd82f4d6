//! Criterion timing of the sparse-solver fast path on a fig8-sized
//! system: the raw SpMV, both PCG preconditioners (legacy Jacobi vs the
//! IC(0) fast path) and the bare IC(0) triangular-solve application.
//!
//! The system is the same shape the package models assemble — a layered
//! 3D conductance grid (n×n nodes per layer, 8 layers, convective
//! ground on the top layer) built directly from `TripletMatrix`, so the
//! bench isolates solver cost from model construction.

use criterion::{criterion_group, criterion_main, Criterion};
use tac25d_thermal::sparse::{pcg, pcg_with, Preconditioner, SolveScratch, TripletMatrix};

const NX: usize = 32;
const NZ: usize = 8;

/// A layered 3D grid Laplacian with fig8-like conductance contrasts:
/// in-plane links of ~1 W/K, vertical links one order weaker, and a
/// convective ground over the whole top layer.
fn grid_system() -> (tac25d_thermal::sparse::CsrMatrix, Vec<f64>) {
    let n2 = NX * NX;
    let mut t = TripletMatrix::new(n2 * NZ);
    let idx = |x: usize, y: usize, z: usize| z * n2 + y * NX + x;
    for z in 0..NZ {
        for y in 0..NX {
            for x in 0..NX {
                if x + 1 < NX {
                    t.add_conductance(idx(x, y, z), idx(x + 1, y, z), 1.0);
                }
                if y + 1 < NX {
                    t.add_conductance(idx(x, y, z), idx(x, y + 1, z), 1.0);
                }
                if z + 1 < NZ {
                    t.add_conductance(idx(x, y, z), idx(x, y, z + 1), 0.1);
                }
            }
        }
    }
    for y in 0..NX {
        for x in 0..NX {
            t.add_ground(idx(x, y, NZ - 1), 0.05);
        }
    }
    let a = t.to_csr();
    // Heat injected over a quarter of the bottom layer, like one hot
    // chiplet of a 2×2 organization.
    let mut b = vec![0.0; n2 * NZ];
    for y in 0..NX / 2 {
        for x in 0..NX / 2 {
            b[idx(x, y, 0)] = 180.0 / (NX * NX / 4) as f64;
        }
    }
    (a, b)
}

fn bench_mul_vec(c: &mut Criterion) {
    let (a, b) = grid_system();
    let mut out = vec![0.0; b.len()];
    c.bench_function("sparse_mul_vec_32x32x8", |bench| {
        bench.iter(|| a.mul_vec(&b, &mut out))
    });
}

fn bench_jacobi_pcg(c: &mut Criterion) {
    let (a, b) = grid_system();
    c.bench_function("pcg_jacobi_32x32x8", |bench| {
        bench.iter(|| pcg(&a, &b, None, 1e-8, 100_000).expect("jacobi pcg"))
    });
}

fn bench_ic0_pcg(c: &mut Criterion) {
    let (a, b) = grid_system();
    let m = Preconditioner::ic0_or_jacobi(&a).expect("preconditioner");
    assert!(m.is_ic0(), "grid Laplacian must factor");
    let mut scratch = SolveScratch::new();
    c.bench_function("pcg_ic0_32x32x8", |bench| {
        bench.iter(|| pcg_with(&a, &m, &b, None, 1e-8, 100_000, &mut scratch).expect("ic0 pcg"))
    });
}

fn bench_triangular_solve(c: &mut Criterion) {
    let (a, b) = grid_system();
    let m = Preconditioner::ic0_or_jacobi(&a).expect("preconditioner");
    let Preconditioner::Ic0(ic) = m else {
        panic!("grid Laplacian must factor");
    };
    let mut z = vec![0.0; b.len()];
    c.bench_function("ic0_triangular_solve_32x32x8", |bench| {
        bench.iter(|| ic.apply(&b, &mut z))
    });
}

criterion_group!(
    benches,
    bench_mul_vec,
    bench_jacobi_pcg,
    bench_ic0_pcg,
    bench_triangular_solve
);
criterion_main!(benches);
