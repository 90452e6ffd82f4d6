//! Integration tests for the extension features: multi-application
//! optimization, PDN analysis, reliability factors and the exporters —
//! exercised together across crates.

use tac25d_core::prelude::*;
use tac25d_floorplan::hotspot::{die_floorplan, render_flp};
use tac25d_floorplan::prelude::*;
use tac25d_floorplan::svg::render_layout_svg;
use tac25d_pdn::{PdnModel, PdnParams};
use tac25d_power::reliability::ReliabilityModel;

fn small_spec() -> SystemSpec {
    let mut spec = SystemSpec::fast();
    spec.thermal.grid = 16;
    spec.edge_step = Mm(4.0);
    spec
}

#[test]
#[cfg_attr(debug_assertions, ignore = "experiment-grade test; run with --release")]
fn optimal_organization_respects_reliability_and_pdn() {
    // End-to-end: optimize, then run the extension analyses on the result.
    let ev = Evaluator::new(small_spec());
    let b = Benchmark::Hpccg;
    let result = optimize(&ev, b, &OptimizerConfig::default()).unwrap();
    let best = result.best.expect("hpccg solution");
    let spec = ev.spec();

    // Reliability: optimized system must not be *less* reliable than its
    // own thermal state implies (sanity of the Arrhenius direction).
    let rel = ReliabilityModel::default();
    let factor = rel.relative_mttf(best.peak, result.baseline.peak);
    if best.peak < result.baseline.peak {
        assert!(factor > 1.0);
    }

    // PDN: the optimized power map must produce a finite droop and a
    // plausible current magnitude.
    let profile = b.profile();
    let per_core = spec
        .core_power
        .active_power(&profile, best.candidate.op, best.peak);
    let active: std::collections::HashSet<_> =
        mintemp_active_cores(&spec.chip, best.candidate.active_cores)
            .into_iter()
            .collect();
    let powers: Vec<f64> = spec
        .chip
        .cores()
        .map(|c| if active.contains(&c) { per_core } else { 0.0 })
        .collect();
    let pdn = PdnModel::new(&spec.chip, &best.layout, &spec.rules, PdnParams::default()).unwrap();
    let sol = pdn.solve(&powers).unwrap();
    assert!(sol.total_current() > 50.0 && sol.total_current() < 1500.0);
    assert!(sol.max_droop() > 0.0 && sol.max_droop() < 0.2);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "experiment-grade test; run with --release")]
fn multi_app_design_is_no_worse_than_the_neediest_single_app() {
    let ev = Evaluator::new(small_spec());
    let apps = [Benchmark::Canneal, Benchmark::Cholesky];
    let shared = optimize_multi_app(
        &ev,
        &apps,
        &MultiAppPolicy::WorstCase,
        Weights::performance_only(),
        &OptimizerConfig::default(),
    )
    .unwrap()
    .expect("shared design exists");
    // cholesky (the thermally needy app) achieves its solo performance on
    // the shared design.
    let solo = optimize(&ev, Benchmark::Cholesky, &OptimizerConfig::default())
        .unwrap()
        .best
        .unwrap();
    let cholesky_on_shared = &shared.per_app[1];
    assert!(cholesky_on_shared.candidate.ips.0 >= solo.candidate.ips.0 - 1e-9);
}

#[test]
fn exports_are_consistent_with_geometry() {
    let chip = ChipSpec::scc_256();
    let rules = PackageRules::default();
    let layout = ChipletLayout::Symmetric16 {
        spacing: Spacing::new(3.0, 1.0, 2.0),
    };
    let blocks = die_floorplan(&chip, &layout, &rules).unwrap();
    let flp = render_flp(&blocks);
    // Every flp line's width equals the core tile edge in metres.
    let tile_m = chip.tile_edge().to_meters();
    for line in flp.lines().filter(|l| !l.starts_with('#')) {
        let w: f64 = line.split('\t').nth(1).unwrap().parse().unwrap();
        assert!((w - tile_m).abs() < 1e-9);
    }
    // SVG renders and references the right canvas.
    let svg = render_layout_svg(&chip, &layout, &rules, None).unwrap();
    let edge = layout.footprint_edge(&chip, &rules).value();
    assert!(svg.contains(&format!("viewBox=\"0 0 {edge} {edge}\"")));
}

#[test]
fn pdn_flags_the_reclaimed_shock_configuration() {
    // The footnote-3 storyline as a regression test: shock's reclaimed
    // 256-core 1 GHz configuration draws enough current to violate the
    // default droop budget.
    let spec = small_spec();
    let profile = Benchmark::Shock.profile();
    let op = spec.vf.nominal();
    let per_core = spec.core_power.active_power(&profile, op, Celsius(85.0));
    let powers = vec![per_core; 256];
    let layout = ChipletLayout::Uniform { r: 4, gap: Mm(8.0) };
    let pdn = PdnModel::new(&spec.chip, &layout, &spec.rules, PdnParams::default()).unwrap();
    let sol = pdn.solve(&powers).unwrap();
    assert!(sol.total_current() > 350.0);
    assert!(!sol.meets_budget());
}
