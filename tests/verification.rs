//! Cross-crate verification suite (`crates/verify`): manufactured-solution
//! convergence, closed-form invariants, and the differential re-check of
//! the surrogate-screening guarantees.
//!
//! The MMS and closed-form cases are cheap and always run. The organizer
//! differential suite costs full optimizer runs and follows the repo
//! convention: ignored under the debug profile, exercised by the release
//! suite and the CI `verify` job.

use tac25d_core::prelude::*;
use tac25d_floorplan::units::Mm;
use tac25d_verify::differential::{default_corpus, fig8_guarantees, run_point};
use tac25d_verify::mms::{chain_error, observed_orders, path_split, FinCase};

/// The coarse spec the cross-crate integration tests standardize on.
fn fast_spec() -> SystemSpec {
    let mut spec = SystemSpec::fast();
    spec.thermal.grid = 16;
    spec.edge_step = Mm(2.0);
    spec
}

#[test]
fn mms_observed_convergence_order_is_at_least_second_minus_margin() {
    // Acceptance bound from the verification plan: observed spatial order
    // ≥ 1.8 on the uniform-slab cosine-mode case, over 3 refinements.
    let samples = FinCase::default().refine(&[12, 24, 48]);
    let orders = observed_orders(&samples);
    for (i, p) in orders.iter().enumerate() {
        assert!(
            *p >= 1.8,
            "refinement {i}: observed order {p:.3} < 1.8 ({samples:?})"
        );
    }
    // Errors must actually shrink, not just maintain a ratio.
    assert!(samples.last().unwrap().max_abs_err < samples[0].max_abs_err / 3.0);
}

#[test]
fn mms_order_improves_toward_two_under_refinement() {
    let samples = FinCase::default().refine(&[12, 24, 48, 96]);
    let orders = observed_orders(&samples);
    // Asymptotically the 5-point stencil is exactly second order; the
    // observed order must approach 2 from its preasymptotic value.
    assert!(orders.last().unwrap() > &1.95, "{orders:?}");
}

#[test]
fn resistance_chain_matches_closed_form_at_every_resolution() {
    // The 1D chain is exact at any grid: the only error left is the
    // linear-solver tolerance.
    for n in [4usize, 8, 16] {
        let e = chain_error(n, 60.0);
        assert!(e < 1e-6, "n={n}: relative error {e:.3e}");
    }
}

#[test]
fn two_path_energy_split_matches_parallel_resistances() {
    for n in [8usize, 16] {
        let s = path_split(n, 40.0);
        let rel = (s.solved_sink_share - s.analytic_sink_share).abs() / s.analytic_sink_share;
        assert!(
            rel < 0.02,
            "n={n}: sink share {:.4} vs analytic {:.4}",
            s.solved_sink_share,
            s.analytic_sink_share
        );
        // Power in = heat out through sink + secondary path, to well under
        // the 0.1% acceptance bound.
        assert!(
            s.balance_error < 1e-3,
            "n={n}: balance {:.3e}",
            s.balance_error
        );
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "experiment-grade test; run with --release")]
fn differential_corpus_is_consistent_across_solvers() {
    let spec = fast_spec();
    let ev = Evaluator::new(spec.clone());
    // A slice of the corpus keeps the release suite quick; the verify bin
    // runs the full corpus.
    let corpus: Vec<_> = default_corpus(&spec).into_iter().step_by(7).collect();
    assert!(corpus.len() >= 5);
    for point in &corpus {
        let r = run_point(&ev, point).expect("corpus point evaluates");
        assert!(
            r.energy_balance_error < 1e-3,
            "{:?}: balance {:.3e}",
            point.layout,
            r.energy_balance_error
        );
        // The linear solve freezes leakage at 60 °C; the coupled field
        // differs only through the leakage feedback, so the two peaks stay
        // within a few degrees of each other on feasible-range layouts.
        assert!(
            (r.coupled_peak_c - r.linear_peak_c).abs() < 15.0,
            "{:?}: linear {:.1} vs coupled {:.1}",
            point.layout,
            r.linear_peak_c,
            r.coupled_peak_c
        );
        assert!(r.max_chiplet_dt() < 15.0);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "experiment-grade test; run with --release")]
fn fig8_screened_search_matches_exact_on_fast_spec() {
    // Structural PR-1 guarantee on the coarse spec: the screened organizer
    // picks the exact organizer's organization for every benchmark, and
    // every winner's steady state closes its energy balance. The 1 °C
    // surrogate error bound is calibrated to the paper grid and enforced
    // by the CI `verify diff` run.
    let cases = fig8_guarantees(&fast_spec(), 42);
    assert_eq!(cases.len(), 8);
    for c in &cases {
        assert!(
            c.matched,
            "{}: screened {} != exact {}",
            c.benchmark.name(),
            c.screened_desc,
            c.exact_desc
        );
        let r = c.record.as_ref().expect("feasible organization");
        assert!(
            r.energy_balance_error < 1e-3,
            "{}: balance {:.3e}",
            c.benchmark.name(),
            r.energy_balance_error
        );
        assert!(
            c.screened_sims <= c.exact_sims,
            "{}: screening must not cost extra exact solves",
            c.benchmark.name()
        );
    }
}
