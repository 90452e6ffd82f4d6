//! Criterion timing of the surrogate's two inner kernels: one evaluation
//! of the analytic seeding proxy and its gradient
//! (`Manifold16::objective_grad`), and one tier-1 raw peak of a
//! 16-chiplet layout at 5 probes per axis (`ThermalSurrogate::raw_peak`:
//! the 6,400 unit-rise samples of `superpose::sample` plus three leakage
//! refinement rounds, with the kernel set already built).
//!
//! The vendored criterion shim reports a plain mean of samples with no
//! outlier handling, so read these numbers as orders of magnitude only.
//! Speed claims rest on the observed `fig8` profile and perfbench.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use tac25d_floorplan::chip::ChipSpec;
use tac25d_floorplan::layers::StackSpec;
use tac25d_floorplan::organization::{ChipletLayout, PackageRules, Spacing};
use tac25d_floorplan::units::Celsius;
use tac25d_power::benchmarks::Benchmark;
use tac25d_power::dvfs::VfTable;
use tac25d_surrogate::analytic::{AnalyticConfig, Manifold16};
use tac25d_surrogate::{SurrogateConfig, SurrogateInput, ThermalSurrogate};
use tac25d_thermal::model::ThermalConfig;

fn bench_objective_grad(c: &mut Criterion) {
    let m = Manifold16 {
        wc: 4.5,
        guard: 1.0,
        free: 10.0,
        watts: core::array::from_fn(|j| 8.0 + j as f64),
    };
    let cfg = AnalyticConfig::default();
    let mut group = c.benchmark_group("analytic");
    group.sample_size(2000);
    group.bench_function("objective_grad_16_chiplets", |b| {
        b.iter(|| m.objective_grad(&cfg, black_box(2.0), black_box(3.0)))
    });
    group.finish();
}

fn bench_raw_peak(c: &mut Criterion) {
    let surrogate = ThermalSurrogate::new(
        ChipSpec::scc_256(),
        PackageRules::default(),
        StackSpec::system_25d(),
        ThermalConfig::fast(),
        SurrogateConfig::default(),
    );
    assert_eq!(surrogate.config().probes_per_axis, 5);
    let input = SurrogateInput {
        layout: ChipletLayout::Symmetric16 {
            spacing: Spacing::new(2.0, 1.5, 4.0),
        },
        benchmark: Benchmark::Cholesky,
        op: VfTable::paper().nominal(),
        active_cores: 256,
        active_per_chiplet: vec![16; 16],
        noc_per_chiplet: vec![0.2; 16],
    };
    let power = |t: Celsius| 0.5 + 0.002 * t.value();
    // The first call builds the shared kernel set; time the rest.
    surrogate
        .raw_peak(&input, &power)
        .expect("layout is covered");
    let mut group = c.benchmark_group("superpose");
    group.sample_size(500);
    group.bench_function("raw_peak_16_chiplets_5_probes", |b| {
        b.iter(|| surrogate.raw_peak(black_box(&input), &power))
    });
    group.finish();
}

criterion_group!(benches, bench_objective_grad, bench_raw_peak);
criterion_main!(benches);
