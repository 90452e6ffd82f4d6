//! Criterion timing of the analytic models (cost, NoC, performance) — all
//! of which must be effectively free next to a thermal solve for the
//! optimizer's step-1/-2 enumeration to be negligible, as the paper
//! assumes (1.5k CPU-hours of Sniper vs 180k of HotSpot).

use criterion::{criterion_group, criterion_main, Criterion};
use tac25d_cost::CostParams;
use tac25d_floorplan::prelude::*;
use tac25d_noc::mesh::NocModel;
use tac25d_power::prelude::*;

fn bench_cost(c: &mut Criterion) {
    let params = CostParams::paper();
    c.bench_function("cost_assembly_16_chiplets", |b| {
        b.iter(|| {
            params
                .assembly_cost(16, 20.25, std::hint::black_box(1225.0))
                .total()
        })
    });
}

fn bench_noc(c: &mut Criterion) {
    let chip = ChipSpec::scc_256();
    let rules = PackageRules::default();
    let layout = ChipletLayout::Symmetric16 {
        spacing: Spacing::new(3.0, 1.5, 4.0),
    };
    let model = NocModel::paper();
    let op = VfTable::paper().nominal();
    c.bench_function("noc_mesh_power_16_chiplets", |b| {
        b.iter(|| model.power(&chip, &layout, &rules, op, std::hint::black_box(0.7)))
    });
}

fn bench_perf(c: &mut Criterion) {
    let profile = Benchmark::Cholesky.profile();
    let op = VfTable::paper().nominal();
    c.bench_function("perf_system_ips", |b| {
        b.iter(|| system_ips(&profile, op, std::hint::black_box(224)))
    });
}

fn bench_candidate_enumeration(c: &mut Criterion) {
    use tac25d_core::prelude::*;
    c.bench_function("enumerate_and_sort_candidates", |b| {
        let ev = Evaluator::new({
            let mut s = SystemSpec::fast();
            s.thermal.grid = 16;
            s
        });
        // Warm the baseline so only step-1/2 work is measured.
        let _ = single_chip_baseline(&ev, Benchmark::Canneal).expect("baseline");
        b.iter(|| {
            enumerate_candidates(
                &ev,
                Benchmark::Canneal,
                Weights::balanced(),
                &ChipletCount::both(),
            )
            .expect("enumerate")
        })
    });
}

fn bench_pdn(c: &mut Criterion) {
    use tac25d_pdn::{PdnModel, PdnParams};
    let chip = ChipSpec::scc_256();
    let rules = PackageRules::default();
    let layout = ChipletLayout::Uniform { r: 4, gap: Mm(4.0) };
    let model = PdnModel::new(&chip, &layout, &rules, PdnParams::default()).expect("pdn model");
    let powers = vec![1.0; 256];
    c.bench_function("pdn_ir_drop_solve_256_cores", |b| {
        b.iter(|| model.solve(std::hint::black_box(&powers)).expect("solve"))
    });
}

criterion_group!(
    benches,
    bench_cost,
    bench_noc,
    bench_perf,
    bench_candidate_enumeration,
    bench_pdn
);
criterion_main!(benches);
