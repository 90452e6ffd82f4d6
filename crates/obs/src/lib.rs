//! # tac25d-obs — structured observability for the tac25d stack
//!
//! Three pieces, all dependency-free (vendored-stub policy):
//!
//! 1. a global **metrics registry** ([`registry`]) of named counters,
//!    gauges and log2 histograms with Prometheus-text and JSON exporters;
//! 2. a **span API** ([`span`](mod@span), via the [`span!`] macro) building a
//!    hierarchical timing tree with per-span self/total time and
//!    thread-safe aggregation across the crossbeam-parallel greedy;
//! 3. a **JSONL event sink** ([`sink`]) selected by `TAC25D_OBS=path.jsonl`
//!    streaming span open/close events and counter snapshots.
//!
//! Metric names follow `crate.component.metric`
//! (e.g. `thermal.pcg_iterations`); span names follow `crate.stage`
//! (e.g. `optimizer.greedy_start`). See DESIGN.md §8.
//!
//! Enablement: obs is on when `TAC25D_OBS` is set non-empty, when
//! `TAC25D_PROFILE=1`, or after [`force_enable`] (tests). The env checks
//! are cached in `OnceLock`s; when disabled, `span!` reads one
//! relaxed-atomic + one cached bool and touches no clock.
//!
//! ```no_run
//! use tac25d_obs as obs;
//!
//! fn solve() {
//!     let _span = obs::span!("thermal.pcg_solve");
//!     obs::counter!("thermal.pcg_solves").inc();
//!     obs::counter!("thermal.pcg_iterations").add(17);
//!     obs::histogram!("thermal.pcg_iterations_per_solve").record(17);
//! }
//! ```

pub mod history;
pub mod json;
pub mod profile;
pub mod registry;
pub mod sink;
pub mod span;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

static FORCED: AtomicBool = AtomicBool::new(false);

fn env_enabled() -> bool {
    static ENV_ENABLED: OnceLock<bool> = OnceLock::new();
    *ENV_ENABLED.get_or_init(|| {
        std::env::var_os("TAC25D_OBS").is_some_and(|v| !v.is_empty())
            || std::env::var_os("TAC25D_PROFILE").is_some_and(|v| v == "1")
    })
}

/// Whether observability is on (env-selected or forced). Span guards are
/// inert and sinks silent when this is false; counters still record (a
/// relaxed atomic add costs less than a branch worth guarding it with).
pub fn enabled() -> bool {
    FORCED.load(Ordering::Relaxed) || env_enabled()
}

/// Turns observability on for this process regardless of environment
/// (used by tests and `tac25d obs-report --bless` flows).
pub fn force_enable() {
    FORCED.store(true, Ordering::Relaxed);
    epoch();
}

/// Process-wide epoch: the instant of first obs use. All sink timestamps
/// and `total_wall_s` are measured from here. Bench mains call this first
/// thing so "uptime" ≈ wall time of the run.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Time since [`epoch`].
pub fn uptime() -> Duration {
    epoch().elapsed()
}

/// The worker-thread override selected by `TAC25D_THREADS` (cached in a
/// `OnceLock` like the other env hooks). `None` when unset or invalid —
/// consumers fall back to `available_parallelism`. Respected by the bench
/// `parallel_map` pool, the optimizer's multi-start greedy workers and the
/// serve daemon's worker pool; results are thread-count-independent by
/// construction, so this only trades wall time for cores.
pub fn threads_override() -> Option<usize> {
    static THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *THREADS.get_or_init(|| parse_threads(std::env::var("TAC25D_THREADS").ok().as_deref()))
}

/// Parses a `TAC25D_THREADS` value: a positive integer, anything else —
/// including `0`, empty or garbage — is `None`. Split from
/// [`threads_override`] so tests can exercise the parsing without racing
/// on the cached process environment.
pub fn parse_threads(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// Call-site-cached counter handle: `counter!("thermal.pcg_solves").inc()`.
/// The registry lock is taken once per call site, then the `Arc` is served
/// from a `static OnceLock`.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static __OBS_COUNTER: ::std::sync::OnceLock<::std::sync::Arc<$crate::registry::Counter>> =
            ::std::sync::OnceLock::new();
        &**__OBS_COUNTER.get_or_init(|| $crate::registry::counter($name))
    }};
}

/// Call-site-cached gauge handle: `gauge!("thermal.pcg_final_residual").set(r)`.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static __OBS_GAUGE: ::std::sync::OnceLock<::std::sync::Arc<$crate::registry::Gauge>> =
            ::std::sync::OnceLock::new();
        &**__OBS_GAUGE.get_or_init(|| $crate::registry::gauge($name))
    }};
}

/// Call-site-cached histogram handle:
/// `histogram!("thermal.pcg_iterations_per_solve").record(n)`.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static __OBS_HISTOGRAM: ::std::sync::OnceLock<
            ::std::sync::Arc<$crate::registry::Histogram>,
        > = ::std::sync::OnceLock::new();
        &**__OBS_HISTOGRAM.get_or_init(|| $crate::registry::histogram($name))
    }};
}

/// Opens a timing span for the current scope:
/// `let _span = obs::span!("thermal.pcg_solve");`. Binds the guard — a
/// bare `obs::span!(..);` statement would drop immediately and time
/// nothing (the guard type is `#[must_use]` for this reason).
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name)
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_resolve_and_cache() {
        let c = crate::counter!("test.lib.macro_counter");
        c.reset();
        c.inc();
        // Second expansion at a different call site resolves to the same
        // registered metric.
        assert_eq!(crate::counter!("test.lib.macro_counter").get(), 1);
        crate::gauge!("test.lib.macro_gauge").set(2.5);
        assert_eq!(crate::gauge!("test.lib.macro_gauge").get(), 2.5);
        crate::histogram!("test.lib.macro_hist").record(9);
        assert!(crate::histogram!("test.lib.macro_hist").count() >= 1);
    }

    #[test]
    fn uptime_is_monotonic() {
        let a = crate::uptime();
        let b = crate::uptime();
        assert!(b >= a);
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(crate::parse_threads(None), None);
        assert_eq!(crate::parse_threads(Some("")), None);
        assert_eq!(crate::parse_threads(Some("0")), None);
        assert_eq!(crate::parse_threads(Some("-2")), None);
        assert_eq!(crate::parse_threads(Some("four")), None);
        assert_eq!(crate::parse_threads(Some("1")), Some(1));
        assert_eq!(crate::parse_threads(Some(" 8 ")), Some(8));
    }
}
