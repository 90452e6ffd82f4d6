//! Criterion timing of the thermal substrate: steady-state solves across
//! grid resolutions and package types, and the leakage-coupled solve.
//! These are the operations whose count the paper's 400× speedup claim is
//! about, so their absolute cost matters for harness runtimes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tac25d_floorplan::prelude::*;
use tac25d_thermal::coupled::{solve_coupled, AffineSource, CoupledOptions};
use tac25d_thermal::model::{PackageModel, ThermalConfig};

fn model(grid: usize, layout: &ChipletLayout) -> PackageModel {
    let chip = ChipSpec::scc_256();
    let rules = PackageRules::default();
    let stack = if layout.is_single_chip() {
        StackSpec::baseline_2d()
    } else {
        StackSpec::system_25d()
    };
    PackageModel::new(
        &chip,
        layout,
        &rules,
        &stack,
        ThermalConfig {
            grid,
            ..ThermalConfig::default()
        },
    )
    .expect("model builds")
}

fn sources(layout: &ChipletLayout, total: f64) -> Vec<(Rect, f64)> {
    let chip = ChipSpec::scc_256();
    let rules = PackageRules::default();
    let rects = layout.chiplet_rects(&chip, &rules);
    let per = total / rects.len() as f64;
    rects.into_iter().map(|r| (r, per)).collect()
}

fn bench_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("thermal_solve");
    group.sample_size(10);
    for grid in [16usize, 32, 64] {
        let layout = ChipletLayout::Uniform { r: 4, gap: Mm(4.0) };
        let m = model(grid, &layout);
        let s = sources(&layout, 324.0);
        group.bench_with_input(BenchmarkId::new("grid", grid), &grid, |b, _| {
            b.iter(|| m.solve(&s).expect("solve"))
        });
    }
    group.finish();
}

fn bench_model_build(c: &mut Criterion) {
    c.bench_function("thermal_model_build_grid32", |b| {
        let layout = ChipletLayout::Uniform { r: 4, gap: Mm(4.0) };
        b.iter(|| model(32, &layout))
    });
}

fn bench_leakage_loop(c: &mut Criterion) {
    let layout = ChipletLayout::Uniform { r: 4, gap: Mm(4.0) };
    let m = model(32, &layout);
    // 0.4 %/°C growth above 60 °C of every chiplet's power.
    let affine: Vec<AffineSource> = sources(&layout, 250.0)
        .into_iter()
        .map(|(rect, w)| AffineSource {
            rect,
            p0: w * (1.0 - 0.004 * 60.0),
            dp_dt: w * 0.004,
        })
        .collect();
    c.bench_function("thermal_leakage_fixed_point_grid32", |b| {
        b.iter(|| solve_coupled(&m, &affine, &CoupledOptions::default()).expect("coupled solve"))
    });
}

criterion_group!(benches, bench_solve, bench_model_build, bench_leakage_loop);
criterion_main!(benches);
