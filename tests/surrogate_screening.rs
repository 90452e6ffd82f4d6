//! Cross-crate integration tests of the multi-fidelity thermal surrogate:
//! kernel superposition + online corrector (tac25d-surrogate), the
//! evaluator's prediction/observation plumbing (tac25d-core) and the
//! surrogate-screened placement search, on a coarse grid for speed.

use tac25d_core::prelude::*;
use tac25d_floorplan::prelude::*;

fn spec() -> SystemSpec {
    let mut spec = SystemSpec::fast();
    spec.thermal.grid = 16;
    spec.edge_step = Mm(2.0);
    spec
}

#[test]
fn screened_optimizer_matches_exact_and_is_exact_backed() {
    let b = Benchmark::Hpccg;
    let exact_ev = Evaluator::new(spec());
    let exact = optimize(&exact_ev, b, &OptimizerConfig::default()).expect("exact optimize");

    let scr_ev = Evaluator::with_surrogate(spec(), SurrogateConfig::default());
    let cfg = OptimizerConfig {
        fidelity: Fidelity::surrogate_default(),
        ..OptimizerConfig::default()
    };
    let screened = optimize(&scr_ev, b, &cfg).expect("screened optimize");

    let sig = |r: &OptimizeResult| {
        r.best.as_ref().map(|o| {
            (
                o.candidate.op.freq_mhz as u32,
                o.candidate.active_cores,
                (o.candidate.edge.value() * 2.0).round() as i64,
            )
        })
    };
    assert_eq!(sig(&exact), sig(&screened), "same organization chosen");

    // The screened winner's feasibility is exact-solver-backed: its peak
    // re-evaluates identically on a fresh exact evaluator.
    let best = screened
        .best
        .as_ref()
        .expect("hpccg has a feasible organization");
    let fresh = Evaluator::new(spec());
    let e = fresh
        .evaluate(
            &best.layout,
            b,
            best.candidate.op,
            best.candidate.active_cores,
        )
        .expect("re-evaluation");
    assert!(e.feasible(fresh.spec().threshold));
    assert!((e.peak.value() - best.peak.value()).abs() < 1e-9);

    // Screening actually engaged and saved exact solves.
    assert!(
        screened.stats.surrogate_predictions > 0,
        "surrogate consulted"
    );
    assert!(
        screened.stats.surrogate_skips > 0,
        "some placements screened out"
    );
    assert!(
        screened.stats.surrogate_raw_ranked > 0,
        "the draft descent ranks untrusted points by the raw kernel"
    );
    assert!(
        screened.stats.thermal_sims <= exact.stats.thermal_sims,
        "screened run must not cost more exact solves ({} vs {})",
        screened.stats.thermal_sims,
        exact.stats.thermal_sims
    );
}

#[test]
fn exact_fidelity_ignores_the_surrogate() {
    // A surrogate-equipped evaluator under Exact fidelity must behave
    // exactly like a plain one: no predictions, identical results.
    let b = Benchmark::Canneal;
    let scr_ev = Evaluator::with_surrogate(spec(), SurrogateConfig::default());
    let r = optimize(&scr_ev, b, &OptimizerConfig::default()).expect("optimize");
    assert_eq!(r.stats.surrogate_predictions, 0);
    assert_eq!(r.stats.surrogate_skips, 0);

    let plain =
        optimize(&Evaluator::new(spec()), b, &OptimizerConfig::default()).expect("plain optimize");
    assert_eq!(
        r.best.as_ref().map(|o| o.candidate.active_cores),
        plain.best.as_ref().map(|o| o.candidate.active_cores)
    );
}

#[test]
fn surrogate_fidelity_without_surrogate_degrades_to_exact() {
    // Requesting surrogate fidelity on a plain evaluator must silently
    // run the exact search (and therefore find the same organization).
    let b = Benchmark::Swaptions;
    let ev = Evaluator::new(spec());
    let cfg = OptimizerConfig {
        fidelity: Fidelity::surrogate_default(),
        ..OptimizerConfig::default()
    };
    let r = optimize(&ev, b, &cfg).expect("optimize");
    assert_eq!(r.stats.surrogate_predictions, 0);
    assert!(r.best.is_some());
}

#[test]
fn predictions_train_from_exact_solves_and_stay_close() {
    // Exercising evaluator → surrogate observation: after a training
    // sweep, trusted predictions land within the guard band of the exact
    // solver on fresh, nearby layouts.
    let ev = Evaluator::with_surrogate(spec(), SurrogateConfig::default());
    let b = Benchmark::Cholesky;
    let op = ev.spec().vf.nominal();
    for i in 0..10 {
        let layout = ChipletLayout::Uniform {
            r: 4,
            gap: Mm(0.5 * f64::from(i)),
        };
        ev.evaluate(&layout, b, op, 256).expect("training solve");
    }
    let surrogate = ev.surrogate().expect("surrogate-equipped evaluator");
    assert!(surrogate.observations() >= 10);

    let probe = ChipletLayout::Uniform {
        r: 4,
        gap: Mm(2.25),
    };
    let pred = ev
        .predict_peak(&probe, b, op, 256)
        .expect("prediction available for a 16-chiplet layout");
    assert!(pred.trusted, "dense nearby training data must be trusted");
    let exact = ev.evaluate(&probe, b, op, 256).expect("exact solve");
    assert!(
        (pred.corrected_peak_c - exact.peak.value()).abs() < 3.0,
        "corrected prediction {:.2} vs exact {:.2}",
        pred.corrected_peak_c,
        exact.peak.value()
    );
}

#[test]
fn single_chip_layouts_are_never_predicted() {
    let ev = Evaluator::with_surrogate(spec(), SurrogateConfig::default());
    let op = ev.spec().vf.nominal();
    assert!(ev
        .predict_peak(&ChipletLayout::SingleChip, Benchmark::Hpccg, op, 256)
        .is_none());
}
