//! Criterion timing of the package solver's kernels on fig8-sized
//! systems: the layered operator's fill, its IC(0) factorization, the
//! matrix-vector product with its fused `p·Ap` dot (what one PCG
//! iteration runs), one IC(0) application (both triangular sweeps), and a
//! cold and a warm-started PCG solve. Each kernel runs at grid 24, the
//! grid of `fig8 --fast` and perfbench's `organize-fast`, and at grid 32,
//! the full-spec grid and the one `serve-cold` runs.
//!
//! The systems have the shape the package models assemble — 8 stacked
//! `n × n` grid layers followed by 12 lumped periphery nodes (four per
//! band, coupled to the boundary cells of the two top layers and chained
//! outwards), with convection over the top layer and the outer bands —
//! built through the same public `layered` API the network assembler
//! uses, so the bench times exactly the kernels that ship while leaving
//! out rasterization and the package geometry.
//!
//! The vendored criterion shim reports a plain mean of samples with no
//! outlier handling, so read these numbers as orders of magnitude only.
//! Speed claims rest on the observed `fig8` profile and perfbench.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use tac25d_thermal::layered::{Axis, LayeredIc0, LayeredMatrix, Shape};
use tac25d_thermal::sparse::{pcg_with, LinearOperator, Precondition};

const NZ: usize = 8;

/// The grid sizes timed: `fig8 --fast` and full spec.
const GRIDS: [usize; 2] = [24, 32];

/// The border of an `nx × nx × NZ` grid: spreader (layer 1) and sink
/// (layer 0) bands on the four sides, spreader–sink and sink inner–outer
/// chains, and grounds.
fn shape(nx: usize) -> Arc<Shape> {
    let n2 = nx * nx;
    let ng = n2 * NZ;
    let idx = |x: usize, y: usize, z: usize| z * n2 + y * nx + x;
    let mut links = Vec::new();
    for (layer, base) in [(1, ng), (0, ng + 4)] {
        for y in 0..nx {
            links.push((idx(0, y, layer), base, 0.8));
            links.push((idx(nx - 1, y, layer), base + 1, 0.8));
        }
        for x in 0..nx {
            links.push((idx(x, 0, layer), base + 2, 0.8));
            links.push((idx(x, nx - 1, layer), base + 3, 0.8));
        }
    }
    for s in 0..4 {
        links.push((ng + s, ng + 4 + s, 6.0));
        links.push((ng + 4 + s, ng + 8 + s, 4.0));
    }
    let mut grounds: Vec<(usize, f64)> = (0..n2).map(|c| (c, 0.05)).collect();
    grounds.extend((ng + 4..ng + 12).map(|p| (p, 1.5)));
    Arc::new(Shape::new(nx, NZ, 12, &links, &grounds))
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
fn rhs(nx: usize, nodes: usize) -> Vec<f64> {
    let mut b = vec![0.0; nodes];
    for y in 0..nx / 2 {
        for x in 0..nx / 2 {
            b[(NZ - 1) * nx * nx + y * nx + x] = 180.0 / (nx * nx / 4) as f64;
        }
    }
    b
}

/// The assembled system of grid `nx`, its factor and right-hand side.
fn system(nx: usize) -> (LayeredMatrix, LayeredIc0, Vec<f64>) {
    let a = LayeredMatrix::assemble(shape(nx), conductance);
    let m = LayeredIc0::factor(&a).expect("grid network factors");
    let b = rhs(nx, a.dim());
    (a, m, b)
}

fn bench_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("layered_fill");
    group.sample_size(200);
    for nx in GRIDS {
        let shape = shape(nx);
        group.bench_function(format!("{nx}x{nx}x{NZ}"), |bench| {
            bench.iter(|| LayeredMatrix::assemble(Arc::clone(&shape), conductance))
        });
    }
    group.finish();
}

fn bench_factor(c: &mut Criterion) {
    let mut group = c.benchmark_group("layered_ic0_factor");
    group.sample_size(200);
    for nx in GRIDS {
        let (a, _, _) = system(nx);
        group.bench_function(format!("{nx}x{nx}x{NZ}"), |bench| {
            bench.iter(|| LayeredIc0::factor(&a).expect("grid network factors"))
        });
    }
    group.finish();
}

fn bench_mul_vec_dot(c: &mut Criterion) {
    let mut group = c.benchmark_group("layered_mul_vec_dot");
    group.sample_size(2000);
    for nx in GRIDS {
        let (a, _, b) = system(nx);
        let mut out = vec![0.0; b.len()];
        group.bench_function(format!("{nx}x{nx}x{NZ}"), |bench| {
            bench.iter(|| a.mul_vec_dot(black_box(&b), &mut out))
        });
    }
    group.finish();
}

fn bench_ic0_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("layered_ic0_apply");
    group.sample_size(2000);
    for nx in GRIDS {
        let (_, m, b) = system(nx);
        let mut z = vec![0.0; b.len()];
        group.bench_function(format!("{nx}x{nx}x{NZ}"), |bench| {
            bench.iter(|| m.apply(black_box(&b), &mut z))
        });
    }
    group.finish();
}

fn bench_cold_pcg(c: &mut Criterion) {
    let mut group = c.benchmark_group("layered_pcg_cold");
    group.sample_size(200);
    for nx in GRIDS {
        let (a, m, b) = system(nx);
        group.bench_function(format!("{nx}x{nx}x{NZ}"), |bench| {
            bench.iter(|| pcg_with(&a, &m, black_box(&b), None, 1e-8, 100_000).expect("cold pcg"))
        });
    }
    group.finish();
}

fn bench_warm_pcg(c: &mut Criterion) {
    let mut group = c.benchmark_group("layered_pcg_warm");
    group.sample_size(200);
    for nx in GRIDS {
        let (a, m, b) = system(nx);
        let x0 = pcg_with(&a, &m, &b, None, 1e-8, 100_000)
            .expect("cold pcg")
            .x;
        // A 5% hotter load started from the previous field.
        let b2: Vec<f64> = b.iter().map(|v| v * 1.05).collect();
        group.bench_function(format!("{nx}x{nx}x{NZ}"), |bench| {
            bench.iter(|| {
                pcg_with(&a, &m, black_box(&b2), Some(&x0), 1e-8, 100_000).expect("warm pcg")
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_fill,
    bench_factor,
    bench_mul_vec_dot,
    bench_ic0_apply,
    bench_cold_pcg,
    bench_warm_pcg
);
criterion_main!(benches);
