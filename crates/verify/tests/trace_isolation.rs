//! The trace isolation gate compares per-request PCG counts against the
//! process-wide `thermal.pcg_iterations` delta, so it runs alone in its
//! own test binary: a concurrent test that solves anything would add to
//! the global delta.

use tac25d_core::prelude::SystemSpec;
use tac25d_floorplan::units::Mm;
use tac25d_verify::tracecheck::isolation_phase;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under the debug profile; validated by the release suite"
)]
fn isolation_sums_to_the_global_delta() {
    let mut spec = SystemSpec::fast();
    spec.thermal.grid = 16;
    spec.edge_step = Mm(2.0);
    let outcome = isolation_phase(&spec).unwrap();
    assert!(
        outcome.passed(),
        "sum {} vs global {}: {:?}",
        outcome.sum_pcg,
        outcome.global_pcg_delta,
        outcome.cases
    );
}
