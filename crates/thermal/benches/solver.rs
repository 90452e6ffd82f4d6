//! Criterion timing of the package solver's kernels on a fig8-sized
//! system: the layered operator's fill, its IC(0) factorization, the
//! matrix-vector product, one IC(0) application (both triangular sweeps)
//! and a warm-started PCG solve.
//!
//! The system has the shape the package models assemble — 8 stacked
//! 32×32 grid layers followed by 12 lumped periphery nodes (four per
//! band, coupled to the boundary cells of the two top layers and chained
//! outwards), with convection over the top layer and the outer bands —
//! built through the same public `layered` API the network assembler
//! uses, so the bench times exactly the kernels that ship while leaving
//! out rasterization and the package geometry.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use tac25d_thermal::layered::{Axis, LayeredIc0, LayeredMatrix, Shape};
use tac25d_thermal::sparse::{pcg_with, LinearOperator, Precondition};

const NX: usize = 32;
const NZ: usize = 8;

/// The border: spreader (layer 1) and sink (layer 0) bands on the four
/// sides, spreader–sink and sink inner–outer chains, and grounds.
fn shape() -> Arc<Shape> {
    let n2 = NX * NX;
    let ng = n2 * NZ;
    let idx = |x: usize, y: usize, z: usize| z * n2 + y * NX + x;
    let mut links = Vec::new();
    for (layer, base) in [(1, ng), (0, ng + 4)] {
        for y in 0..NX {
            links.push((idx(0, y, layer), base, 0.8));
            links.push((idx(NX - 1, y, layer), base + 1, 0.8));
        }
        for x in 0..NX {
            links.push((idx(x, 0, layer), base + 2, 0.8));
            links.push((idx(x, NX - 1, layer), base + 3, 0.8));
        }
    }
    for s in 0..4 {
        links.push((ng + s, ng + 4 + s, 6.0));
        links.push((ng + 4 + s, ng + 8 + s, 4.0));
    }
    let mut grounds: Vec<(usize, f64)> = (0..n2).map(|c| (c, 0.05)).collect();
    grounds.extend((ng + 4..ng + 12).map(|p| (p, 1.5)));
    Arc::new(Shape::new(NX, NZ, 12, &links, &grounds))
}

/// Fig8-like conductance contrasts: in-plane links around 1 W/K with a
/// cell-dependent ripple, vertical links one order weaker.
fn conductance(axis: Axis, layer: usize, cell: usize) -> f64 {
    let ripple = 1.0 + 0.25 * ((cell * 7 + layer * 3) % 11) as f64 / 11.0;
    match axis {
        Axis::X | Axis::Y => ripple,
        Axis::Z => 0.1 * ripple,
    }
}

/// Heat injected over a quarter of the bottom layer, like one hot
/// chiplet of a 2×2 organization.
fn rhs(nodes: usize) -> Vec<f64> {
    let mut b = vec![0.0; nodes];
    for y in 0..NX / 2 {
        for x in 0..NX / 2 {
            b[(NZ - 1) * NX * NX + y * NX + x] = 180.0 / (NX * NX / 4) as f64;
        }
    }
    b
}

fn bench_fill(c: &mut Criterion) {
    let shape = shape();
    c.bench_function("layered_fill_32x32x8", |bench| {
        bench.iter(|| LayeredMatrix::assemble(Arc::clone(&shape), conductance))
    });
}

fn bench_factor(c: &mut Criterion) {
    let a = LayeredMatrix::assemble(shape(), conductance);
    c.bench_function("layered_ic0_factor_32x32x8", |bench| {
        bench.iter(|| LayeredIc0::factor(&a).expect("grid network factors"))
    });
}

fn bench_mul_vec(c: &mut Criterion) {
    let a = LayeredMatrix::assemble(shape(), conductance);
    let b = rhs(a.dim());
    let mut out = vec![0.0; b.len()];
    c.bench_function("layered_mul_vec_32x32x8", |bench| {
        bench.iter(|| a.mul_vec(&b, &mut out))
    });
}

fn bench_ic0_apply(c: &mut Criterion) {
    let a = LayeredMatrix::assemble(shape(), conductance);
    let f = LayeredIc0::factor(&a).expect("grid network factors");
    let b = rhs(a.dim());
    let mut z = vec![0.0; b.len()];
    c.bench_function("layered_ic0_apply_32x32x8", |bench| {
        bench.iter(|| f.apply(&b, &mut z))
    });
}

fn bench_warm_pcg(c: &mut Criterion) {
    let a = LayeredMatrix::assemble(shape(), conductance);
    let m = LayeredIc0::factor(&a).expect("grid network factors");
    let b = rhs(a.dim());
    let x0 = pcg_with(&a, &m, &b, None, 1e-8, 100_000)
        .expect("cold pcg")
        .x;
    // A 5% hotter load started from the previous field.
    let b2: Vec<f64> = b.iter().map(|v| v * 1.05).collect();
    c.bench_function("layered_pcg_warm_32x32x8", |bench| {
        bench.iter(|| pcg_with(&a, &m, &b2, Some(&x0), 1e-8, 100_000).expect("warm pcg"))
    });
}

criterion_group!(
    benches,
    bench_fill,
    bench_factor,
    bench_mul_vec,
    bench_ic0_apply,
    bench_warm_pcg
);
criterion_main!(benches);
