//! # tac25d-perfbench
//!
//! The end-to-end and per-layer benchmark of the tac25d organizer and its
//! HTTP daemon. It calls the library's public API from outside and runs
//! one of three workloads (see `README.md` in this directory):
//!
//! - `organize-fast`: `fig8 --fast` decisions, one per op, on one thread;
//! - `serve-cold`: HTTP evaluations that never repeat a key;
//! - `serve-hot`: HTTP evaluations that are all cache hits.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload organize-fast --seed 1 --seconds 20 --trace 0
//! ```

pub mod gen;
pub mod golden;
pub mod host;
pub mod measure;
pub mod organize;
pub mod report;
pub mod serve;
pub mod trace;

use tac25d_obs as obs;

use crate::report::{Outcome, Traced};

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["organize-fast", "serve-cold", "serve-hot"];

/// Set-up repetitions per run; `setup_s` is their median. serve-cold's
/// set-up is a single ~30 ms daemon start and answer, so it takes more
/// repetitions for a steady median than the others (about 0.4 s and
/// 1.4 s).
pub fn setup_reps(workload: &str) -> usize {
    if workload == "serve-cold" {
        9
    } else {
        5
    }
}

/// Pins the environment the program reads: one organizer worker thread
/// and no other `TAC25D_*` override (solver, seeding, obs, logs). Must
/// run before the program reads any of them.
pub fn pin_environment() {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TAC25D_") {
            std::env::remove_var(&key);
        }
    }
    std::env::set_var("TAC25D_THREADS", "1");
}

/// ns of `bench.op` time covered by the program's outermost spans: spans
/// whose ancestors are all benchmark spans (the decision's
/// `optimizer.optimize`) or that are roots of their own thread (the
/// daemon's `serve.evaluate`).
fn covered_ns(snapshot: &[(String, obs::span::SpanStat)]) -> u64 {
    snapshot
        .iter()
        .filter(|(path, _)| {
            let mut parts: Vec<&str> = path.split('/').collect();
            let leaf = parts.pop().unwrap_or("");
            !leaf.starts_with("bench.") && parts.iter().all(|p| p.starts_with("bench."))
        })
        .map(|(_, stat)| stat.total_ns)
        .sum()
}

/// A set-up workload, ready for timed windows.
enum Workload {
    Organize {
        organizer: Box<organize::Organizer>,
        next_round: u64,
    },
    Cold(serve::Cold),
    Hot(serve::Hot),
}

impl Workload {
    /// Sets `name` up once. Returns the workload, the set-up seconds and
    /// the (attempted, failed) counts of set-up's own checked ops.
    fn setup(name: &str, seed: u64, seconds: f64) -> (Workload, f64, (u64, u64)) {
        match name {
            "organize-fast" => {
                let (organizer, secs, ok) = organize::setup();
                let w = Workload::Organize {
                    organizer: Box::new(organizer),
                    next_round: 0,
                };
                (w, secs, (1, u64::from(!ok)))
            }
            "serve-cold" => {
                let (cold, secs, ok) = serve::Cold::setup(seed, seconds);
                (Workload::Cold(cold), secs, (1, u64::from(!ok)))
            }
            "serve-hot" => {
                let (hot, secs, failed) = serve::Hot::setup(seed);
                let n = hot.bodies().len() as u64;
                (Workload::Hot(hot), secs, (n, failed))
            }
            other => panic!("unknown workload {other:?}; expected one of {WORKLOADS:?}"),
        }
    }

    /// One timed window of about `seconds`.
    fn window(&mut self, seed: u64, seconds: f64) -> measure::Window {
        match self {
            Workload::Organize {
                organizer,
                next_round,
            } => {
                let stop = organize::Stop::After(seconds);
                let (w, next) = organize::run(organizer, seed, *next_round, stop);
                *next_round = next;
                w
            }
            Workload::Cold(cold) => cold.run(seconds),
            Workload::Hot(hot) => hot.run(seconds),
        }
    }

    /// Checks made once the timed windows are over: failures found.
    fn verify(&self) -> u64 {
        match self {
            Workload::Cold(cold) => cold.oracle(),
            _ => 0,
        }
    }

    /// Request bodies for the protocol-decode timing (empty without
    /// requests).
    fn corpus(&self) -> &[String] {
        match self {
            Workload::Organize { .. } => &[],
            Workload::Cold(cold) => &cold.bodies()[..256],
            Workload::Hot(hot) => hot.bodies(),
        }
    }
}

/// Runs `workload` for `seconds`. With `traced`, the time is split into
/// an untraced window (counts) and a traced one (spans).
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    // Set up several times and keep the last. Each earlier one drops,
    // and its memory goes back to the host, before the next starts (a
    // daemon stops when it drops): peak memory is then one set-up's,
    // whichever allocator arenas the set-ups' threads happened to use.
    let mut kept = None;
    for _ in 0..setup_reps(workload) {
        if kept.take().is_some() {
            host::release_freed_memory();
        }
        let (w, secs, (attempted, failed)) = Workload::setup(workload, seed, seconds);
        outcome.setup_s.push(secs);
        outcome.setup_checks.0 += attempted;
        outcome.setup_checks.1 += failed;
        kept = Some(w);
    }
    let mut w = kept.expect("at least one set-up");
    let untraced_s = if traced { seconds / 2.0 } else { seconds };
    outcome.window = w.window(seed, untraced_s);
    if traced {
        trace::enable();
        let window = w.window(seed, seconds - untraced_s);
        let decode_us = match w.corpus() {
            [] => 0.0,
            corpus => serve::decode_us(corpus),
        };
        // Snapshot before the oracle, whose fresh-engine evaluations are
        // not part of any op.
        let snapshot = obs::span::snapshot();
        outcome.traced = Some(Traced {
            window,
            spans: obs::profile::spans_by_name(&snapshot),
            covered_ns: covered_ns(&snapshot),
            decode_us,
        });
    }
    outcome.window.failed += w.verify();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(total_ns: u64) -> obs::span::SpanStat {
        obs::span::SpanStat {
            count: 1,
            total_ns,
            self_ns: 0,
            min_ns: total_ns,
            max_ns: total_ns,
        }
    }

    #[test]
    fn coverage_counts_outermost_program_spans_only() {
        let snapshot = vec![
            ("bench.op".to_owned(), stat(100)),
            ("bench.op/bench.evaluator_new".to_owned(), stat(5)),
            ("bench.op/optimizer.optimize".to_owned(), stat(80)),
            (
                "bench.op/optimizer.optimize/thermal.pcg_solve".to_owned(),
                stat(30),
            ),
            ("serve.evaluate".to_owned(), stat(7)),
            ("serve.evaluate/thermal.pcg_solve".to_owned(), stat(3)),
        ];
        assert_eq!(covered_ns(&snapshot), 87);
    }
}
