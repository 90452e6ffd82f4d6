//! The organize-fast counts repeat exactly: decisions run on one worker
//! thread, each on a fresh evaluator, so two windows of whole rounds do
//! identical work whatever order the rounds visit the benchmarks in.
//!
//! Alone in its own test binary because the obs counters are
//! process-wide: a concurrent test would add to the deltas.

use tac25d_perfbench::organize::{self, Stop};
use tac25d_perfbench::pin_environment;

#[test]
#[cfg_attr(debug_assertions, ignore = "runs real decisions; use --release")]
fn organize_fast_counts_repeat_exactly() {
    pin_environment();
    let (organizer, _, warm_ok) = organize::setup();
    assert!(warm_ok, "warm-up decision disagrees with the golden");
    // Rounds 0 and 1 visit the eight benchmarks in different orders.
    let (a, next) = organize::run(&organizer, 7, 0, Stop::Rounds(1));
    let (b, _) = organize::run(&organizer, 7, next, Stop::Rounds(1));
    for w in [&a, &b] {
        assert_eq!(w.ops(), 8);
        assert_eq!(w.failed, 0, "a decision disagrees with the golden");
    }
    assert_eq!(a.registry.counter("evaluator.exact_solves"), 64);
    // Wall-time counters (`*_us`) are the only ones allowed to differ.
    let counts = |w: &tac25d_perfbench::measure::Window| -> Vec<(String, u64)> {
        w.registry
            .counters()
            .iter()
            .filter(|(name, _)| !name.ends_with("_us"))
            .map(|(name, v)| (name.clone(), *v))
            .collect()
    };
    assert_eq!(counts(&a), counts(&b));
}
