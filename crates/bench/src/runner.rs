//! Shared experiment plumbing: spec selection, benchmark filtering and a
//! small scoped-thread parallel map (the paper parallelized its sweeps over
//! 250 machines; we parallelize over cores).

use tac25d_core::prelude::*;
use tac25d_floorplan::units::Mm;
use tac25d_obs as obs;

/// Picks the experiment spec: the paper configuration by default, the
/// coarse one under `--fast`.
pub fn spec_from_args() -> SystemSpec {
    // Every bench bin starts here, so this pins the obs epoch (and thus
    // `total_wall_s` in the profile) to the top of the run.
    obs::epoch();
    if crate::fast_flag() {
        let mut s = SystemSpec::fast();
        s.thermal.grid = 24;
        s.edge_step = Mm(2.0);
        s
    } else {
        // The optimizer-grade spec: 32×32 grid tracks the 64×64 peak
        // within a fraction of a degree at a quarter of the cost; figure
        // sweeps that want the full 64×64 grid override this.
        SystemSpec::fast()
    }
}

/// The optimizer seed selected by `--seed <n>` (42, the repo-wide pinned
/// default, otherwise). Golden traces are recorded under this default;
/// every randomized search in the bench binaries must draw its seed here
/// so one flag reproduces or perturbs a whole run.
///
/// # Panics
///
/// Panics if the value after `--seed` is not an unsigned integer.
pub fn seed_from_args() -> u64 {
    crate::arg_value("--seed").map_or(42, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--seed expects an unsigned integer, got {v:?}"))
    })
}

/// The benchmarks selected by `--benchmark <name>` (all eight otherwise).
///
/// # Panics
///
/// Panics with a helpful message if the filter names no known benchmark.
pub fn benchmarks_from_args() -> Vec<Benchmark> {
    match crate::benchmark_filter() {
        None => Benchmark::all().to_vec(),
        Some(name) => {
            let hit = Benchmark::all().into_iter().find(|b| b.name() == name);
            vec![hit.unwrap_or_else(|| {
                panic!(
                    "unknown benchmark {name:?}; expected one of {:?}",
                    Benchmark::all().map(|b| b.name())
                )
            })]
        }
    }
}

/// Applies `f` to every item on scoped worker threads, preserving input
/// order in the output. Items are dispatched in input order; see
/// [`parallel_map_by_cost`] when per-item run times vary widely.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_by_cost(items, |_| 0.0, f)
}

/// Like [`parallel_map`], but workers pull items in *descending estimated
/// cost* order so the longest-running items start first and no straggler
/// is left for last on an otherwise idle pool (classic LPT scheduling).
/// The output still preserves input order, and `f`'s results must not
/// depend on execution order — `cost` only shapes the schedule. `cost`
/// must be deterministic (ties fall back to input order), keeping the
/// dispatch order itself reproducible run to run.
///
/// Each worker writes its result into that item's own slot, so result
/// collection is lock-free (no shared `Mutex` on the hot path).
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map_by_cost<T, R, F, C>(items: Vec<T>, cost: C, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
    C: Fn(&T) -> f64,
{
    let threads = obs::threads_override().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
    });
    parallel_map_with_threads(items, threads, cost, f)
}

/// [`parallel_map_by_cost`] with an explicit worker count, bypassing both
/// `TAC25D_THREADS` and `available_parallelism`. Exists so tests can assert
/// the thread-count-independence contract directly (1-thread and N-thread
/// runs must produce identical output) without mutating the process
/// environment.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn parallel_map_with_threads<T, R, F, C>(items: Vec<T>, threads: usize, cost: C, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
    C: Fn(&T) -> f64,
{
    let span = obs::span!("bench.parallel_map");
    let threads = threads.max(1).min(items.len().max(1));
    let costs: Vec<f64> = items.iter().map(&cost).collect();
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .partial_cmp(&costs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let slots: Vec<std::sync::OnceLock<R>> =
        items.iter().map(|_| std::sync::OnceLock::new()).collect();
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    // The workers time each item under `bench.parallel_item`; this thread
    // only waits for them.
    span.wait(|| {
        crossbeam::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|_| loop {
                    let at = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if at >= order.len() {
                        break;
                    }
                    let i = order[at];
                    let _item_span = obs::span!("bench.parallel_item");
                    let r = f(&items[i]);
                    if slots[i].set(r).is_err() {
                        panic!("slot {i} filled twice");
                    }
                });
            }
        })
    })
    .expect("worker thread panicked");
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| {
            s.into_inner()
                .unwrap_or_else(|| panic!("worker left slot {i} empty"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..100).collect(), |&x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_empty_ok() {
        let out: Vec<i32> = parallel_map(Vec::<i32>::new(), |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn cost_ordered_dispatch_preserves_output_order() {
        // Whatever the cost estimates (here: reversed, constant, NaN),
        // outputs must line up with inputs.
        let items: Vec<i32> = (0..64).collect();
        for cost in [
            (|&x: &i32| f64::from(x)) as fn(&i32) -> f64,
            |&x: &i32| -f64::from(x),
            |_: &i32| 1.0,
            |_: &i32| f64::NAN,
        ] {
            let out = parallel_map_by_cost(items.clone(), cost, |&x| x * 3);
            assert_eq!(out, (0..64).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn waiting_parallel_map_reports_no_self_time() {
        // The coordinating thread only waits: the sleeps must show up as
        // `bench.parallel_item` time on the workers, not as self time of
        // `bench.parallel_map`. A unique parent span keeps this test's
        // `bench.parallel_map` path apart from other tests'.
        obs::force_enable();
        let parent = "test.runner.wait_parent";
        let item_before = span_stat("bench.parallel_item").map_or(0, |s| s.total_ns);
        {
            let _p = obs::span!(parent);
            parallel_map_with_threads(
                (0..4).collect(),
                2,
                |_| 1.0,
                |_: &i32| std::thread::sleep(std::time::Duration::from_millis(20)),
            );
        }
        let map = span_stat(&format!("{parent}/bench.parallel_map")).expect("map span");
        assert!(map.total_ns >= 40_000_000, "{map:?}");
        assert!(
            map.self_ns < 10_000_000,
            "waiting booked as self time: {map:?}"
        );
        let item = span_stat("bench.parallel_item").expect("item span");
        assert!(item.total_ns - item_before >= 80_000_000, "{item:?}");
    }

    fn span_stat(path: &str) -> Option<obs::span::SpanStat> {
        obs::span::snapshot()
            .into_iter()
            .find(|(p, _)| p == path)
            .map(|(_, s)| s)
    }

    #[test]
    fn default_benchmarks_are_all_eight() {
        assert_eq!(benchmarks_from_args().len(), 8);
    }

    #[test]
    fn one_thread_and_many_threads_are_byte_identical() {
        // The `TAC25D_THREADS` contract: worker count only trades wall
        // time for cores, never results. Render each item through a
        // float-accumulating closure and compare the *bytes* of the
        // formatted output across pool sizes.
        let items: Vec<u32> = (0..97).collect();
        let work = |&x: &u32| {
            let mut acc = 0.0_f64;
            for k in 1..=64 {
                acc += f64::from(x * k) / (f64::from(k) + 0.25);
            }
            format!("{x}:{acc}")
        };
        let cost = |&x: &u32| f64::from(x % 7);
        let single = parallel_map_with_threads(items.clone(), 1, cost, work);
        for threads in [2, 4, 8] {
            let pooled = parallel_map_with_threads(items.clone(), threads, cost, work);
            assert_eq!(
                single.join("\n").into_bytes(),
                pooled.join("\n").into_bytes(),
                "{threads}-thread output diverged from the 1-thread run"
            );
        }
    }
}
