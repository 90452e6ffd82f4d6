//! Pins the screened organizer's bookkeeping: every `SearchStats` field of
//! a surrogate-fidelity `optimize` at the `fig8 --fast` spec, seed 42, for
//! each Fig. 8 benchmark. The golden CSVs pin only the decisions; these
//! counts change whenever the search probes a different point or counts
//! one differently.

use tac25d_core::prelude::*;
use tac25d_floorplan::units::Mm;

/// The `fig8 --fast` spec: grid 24, 2 mm interposer-edge step.
fn fast_spec() -> SystemSpec {
    let mut s = SystemSpec::fast();
    s.thermal.grid = 24;
    s.edge_step = Mm(2.0);
    s
}

/// The counters of one decision, in `SearchStats` field order, with the
/// two error sums as their IEEE-754 bit patterns.
fn fields(s: &SearchStats) -> [u64; 11] {
    [
        s.candidates_total as u64,
        s.candidates_tried as u64,
        s.candidates_pruned as u64,
        s.thermal_sims as u64,
        s.surrogate_predictions as u64,
        s.surrogate_skips as u64,
        s.surrogate_verifications as u64,
        s.surrogate_fallbacks as u64,
        s.surrogate_raw_ranked as u64,
        s.surrogate_max_abs_error_c.to_bits(),
        s.surrogate_abs_error_sum_c.to_bits(),
    ]
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow under the debug profile; validated by the release suite"
)]
fn screened_search_stats_are_pinned_on_fig8_fast() {
    #[rustfmt::skip]
    let pinned: [(Benchmark, [u64; 11]); 8] = [
        (Benchmark::Cholesky,      [1280, 9, 23, 12, 127,  26, 8, 4,  97, 0x3feb_2a39_cb8d_f580, 0x4009_1775_9a23_50c0]),
        (Benchmark::LuCont,        [1280, 5, 27,  2,   5,   0, 0, 1,   5, 0, 0]),
        (Benchmark::Blackscholes,  [1280, 9, 23, 11, 174,   0, 8, 4, 170, 0x3ff1_5d18_bb11_2480, 0x4012_44e6_ddaa_dff0]),
        (Benchmark::Swaptions,     [1280, 6, 26,  6,   8,   0, 3, 2,   6, 0x3fbb_cc70_1d0c_e400, 0x3fd4_d954_15c9_ab00]),
        (Benchmark::Streamcluster, [1280, 6, 26,  6,  25,   0, 3, 2,  23, 0x3fae_7a0a_44b5_3000, 0x3fc6_db87_b387_e400]),
        (Benchmark::Canneal,       [1280, 5, 27,  2,   5,   0, 0, 1,   5, 0, 0]),
        (Benchmark::Hpccg,         [1280, 8, 24,  9,  65,   3, 7, 2,  60, 0x3fd9_49e7_22fc_5800, 0x3ff6_aaad_33a3_ff00]),
        (Benchmark::Shock,         [1280, 9, 23, 16, 210, 131, 8, 5,  74, 0x3fe4_1734_5b4e_ab80, 0x4007_1031_cf80_4d40]),
    ];
    let cfg = OptimizerConfig {
        fidelity: Fidelity::surrogate_default(),
        ..OptimizerConfig::with_seed(42)
    };
    for (benchmark, want) in pinned {
        let ev = Evaluator::with_surrogate(fast_spec(), SurrogateConfig::default());
        let stats = optimize(&ev, benchmark, &cfg).expect("fig8 decision").stats;
        assert_eq!(fields(&stats), want, "{benchmark}: {stats:?}");
    }
}
