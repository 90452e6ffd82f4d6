//! Trace-layer gate: request-scoped tracing must be **invisible on the
//! wire** and **exact in attribution**.
//!
//! Three phases, each a separate freshly-booted daemon:
//!
//! 1. **Identity** — the pinned [`crate::servecheck::corpus`] replayed
//!    against a traced and an untraced daemon; every body must match a
//!    fresh local engine byte-for-byte (the PR-6 contract), and request
//!    identity must be header-only (`X-Request-Id` echoed, custom ids
//!    honored, minted ids present).
//! 2. **Isolation** — 8 concurrent clients evaluate 8 *distinct* layouts
//!    under chosen request ids on a fresh traced daemon sharing this
//!    process's metric registry. The per-request
//!    `thermal.pcg_iterations` deltas read back from
//!    `GET /v1/traces/{id}` must sum to the process-global counter delta
//!    across the window — a collector that smeared concurrent requests
//!    into one global aggregate would double-count and fail. Each trace
//!    must also carry exactly one exact solve and a `serve.evaluate`
//!    root span.
//! 3. **Overhead** — alternating best-of-N rounds of cache-hit requests
//!    against an untraced and a traced daemon. Tracing must cost ≤ 2%
//!    (or ≤ [`MAX_ABS_OVERHEAD_US`] per request in absolute terms —
//!    cache hits are tens of microseconds, so the ratio gate alone
//!    would demand sub-microsecond timer stability; any real request
//!    ≥ 250 µs stays under 2% at that absolute bound).

use std::sync::Arc;
use std::time::Instant;

use tac25d_core::prelude::SystemSpec;
use tac25d_obs::json::Value;
use tac25d_serve::client::Client;
use tac25d_serve::engine::EngineState;
use tac25d_serve::server::{start, ServerConfig, ServerHandle};

use crate::servecheck::{corpus, local_expected};

/// Concurrent clients in the isolation phase (mirrors
/// [`crate::servecheck::CONCURRENT_CLIENTS`]).
pub const ISOLATION_CLIENTS: usize = 8;

/// Alternating measurement rounds in the overhead phase.
pub const OVERHEAD_ROUNDS: usize = 5;

/// Cache-hit requests per daemon per round.
pub const OVERHEAD_REQUESTS_PER_ROUND: usize = 400;

/// Relative overhead bound: traced best-round time ≤ 1.02× untraced.
pub const MAX_OVERHEAD_RATIO: f64 = 1.02;

/// Absolute fallback bound, microseconds of added latency per request.
pub const MAX_ABS_OVERHEAD_US: f64 = 5.0;

/// Distinct layouts for the isolation phase: one per client so every
/// request does fresh thermal work under its own cache key (no
/// single-flight coalescing across threads, which would migrate solver
/// counters to another request's collector legitimately). All are
/// `uniform:` forms — `sym4:N` canonically aliases `uniform:2,N`, which
/// would turn one client's request into a zero-work cache hit.
const ISOLATION_LAYOUTS: [&str; ISOLATION_CLIENTS] = [
    "uniform:4,4",
    "uniform:4,5",
    "uniform:4,6",
    "uniform:4,7",
    "uniform:2,4",
    "uniform:2,5",
    "uniform:2,6",
    "uniform:2,7",
];

/// One corpus request's traced/untraced byte-identity comparison.
#[derive(Debug, Clone)]
pub struct TraceIdentityCase {
    /// Corpus case name.
    pub name: &'static str,
    /// Status from the traced daemon.
    pub traced_status: u16,
    /// Status from the untraced daemon.
    pub untraced_status: u16,
    /// Traced body == fresh local engine body.
    pub traced_match: bool,
    /// Untraced body == fresh local engine body.
    pub untraced_match: bool,
    /// Both daemons echoed an `X-Request-Id` response header.
    pub ids_echoed: bool,
}

impl TraceIdentityCase {
    /// Whether tracing was wire-invisible for this request.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.traced_status == 200
            && self.untraced_status == 200
            && self.traced_match
            && self.untraced_match
            && self.ids_echoed
    }
}

/// One isolated request's attribution, read back from the daemon.
#[derive(Debug, Clone)]
pub struct IsolationCase {
    /// The chosen `X-Request-Id`.
    pub id: String,
    /// Layout evaluated.
    pub layout: &'static str,
    /// HTTP status of the evaluate request.
    pub status: u16,
    /// `thermal.pcg_iterations` delta attributed to this request.
    pub pcg_delta: u64,
    /// `thermal.exact_solves` delta attributed to this request.
    pub exact_delta: u64,
    /// The trace's root span is `serve.evaluate`.
    pub rooted: bool,
}

impl IsolationCase {
    /// Whether this request's trace is well-formed on its own.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.status == 200 && self.pcg_delta > 0 && self.exact_delta == 1 && self.rooted
    }
}

/// The isolation phase outcome.
#[derive(Debug)]
pub struct IsolationOutcome {
    /// Per-request attributions.
    pub cases: Vec<IsolationCase>,
    /// Sum of per-request `thermal.pcg_iterations` deltas.
    pub sum_pcg: u64,
    /// Process-global `thermal.pcg_iterations` delta over the window.
    pub global_pcg_delta: u64,
}

impl IsolationOutcome {
    /// Whether attribution is exact: per-request deltas partition the
    /// global delta and every trace is well-formed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.sum_pcg == self.global_pcg_delta
            && self.global_pcg_delta > 0
            && self.cases.len() == ISOLATION_CLIENTS
            && self.cases.iter().all(IsolationCase::passed)
    }
}

/// The overhead phase outcome.
#[derive(Debug)]
pub struct OverheadOutcome {
    /// Best (minimum) round wall time for the traced daemon, µs.
    pub best_traced_us: u64,
    /// Best (minimum) round wall time for the untraced daemon, µs.
    pub best_untraced_us: u64,
    /// `best_traced_us / best_untraced_us`.
    pub ratio: f64,
    /// Added latency per request in the best rounds, µs (can be
    /// negative under timer noise).
    pub per_request_overhead_us: f64,
}

impl OverheadOutcome {
    /// Whether tracing cost is within the relative or absolute bound.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.ratio <= MAX_OVERHEAD_RATIO || self.per_request_overhead_us <= MAX_ABS_OVERHEAD_US
    }
}

/// The full `verify trace` outcome.
#[derive(Debug)]
pub struct TraceReport {
    /// Corpus identity cases (traced vs untraced vs local engine).
    pub identity: Vec<TraceIdentityCase>,
    /// A custom `X-Request-Id` was echoed back verbatim.
    pub custom_id_echoed: bool,
    /// A request without an id got a minted `req-<seq>` id.
    pub minted_id_present: bool,
    /// Concurrent-attribution outcome.
    pub isolation: IsolationOutcome,
    /// Traced-vs-untraced cost outcome.
    pub overhead: OverheadOutcome,
}

impl TraceReport {
    /// Whether every phase passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.custom_id_echoed
            && self.minted_id_present
            && self.identity.iter().all(TraceIdentityCase::passed)
            && self.isolation.passed()
            && self.overhead.passed()
    }
}

fn boot(
    spec: &SystemSpec,
    tracing: bool,
    workers: usize,
) -> Result<(ServerHandle, String), String> {
    let engine = Arc::new(EngineState::new(spec.clone()));
    let handle = start(
        ServerConfig {
            tracing,
            workers,
            ..ServerConfig::default()
        },
        engine,
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = handle.local_addr().to_string();
    Ok((handle, addr))
}

/// Phase 1: corpus byte-identity against traced and untraced daemons,
/// plus the header-only identity probes.
fn identity_phase(spec: &SystemSpec) -> Result<(Vec<TraceIdentityCase>, bool, bool), String> {
    let requests = corpus();
    let local = EngineState::new(spec.clone());
    let expected: Vec<String> = requests
        .iter()
        .map(|r| local_expected(&local, r))
        .collect::<Result<_, _>>()?;

    let (traced_handle, traced_addr) = boot(spec, true, 0)?;
    let (untraced_handle, untraced_addr) = boot(spec, false, 0)?;
    let mut traced = Client::connect(&traced_addr).map_err(|e| format!("connect: {e}"))?;
    let mut untraced = Client::connect(&untraced_addr).map_err(|e| format!("connect: {e}"))?;

    let mut cases = Vec::with_capacity(requests.len());
    let mut minted_id_present = true;
    for (req, want) in requests.iter().zip(&expected) {
        let t = traced
            .post(req.path, req.body)
            .map_err(|e| format!("{} (traced): {e}", req.name))?;
        let u = untraced
            .post(req.path, req.body)
            .map_err(|e| format!("{} (untraced): {e}", req.name))?;
        let ids_echoed = t.header("x-request-id").is_some() && u.header("x-request-id").is_some();
        minted_id_present &= t
            .header("x-request-id")
            .is_some_and(|id| id.starts_with("req-"));
        cases.push(TraceIdentityCase {
            name: req.name,
            traced_status: t.status,
            untraced_status: u.status,
            traced_match: t.text() == *want,
            untraced_match: u.text() == *want,
            ids_echoed,
        });
    }

    // Custom ids are honored verbatim on both daemons.
    let body = r#"{"benchmark": "hpccg", "layout": "uniform:4,6"}"#;
    let custom = [("X-Request-Id", "verify-custom-id")];
    let t = traced
        .post_with("/v1/evaluate", body, &custom)
        .map_err(|e| format!("custom id (traced): {e}"))?;
    let u = untraced
        .post_with("/v1/evaluate", body, &custom)
        .map_err(|e| format!("custom id (untraced): {e}"))?;
    let custom_id_echoed = t.header("x-request-id") == Some("verify-custom-id")
        && u.header("x-request-id") == Some("verify-custom-id");

    traced_handle.shutdown();
    untraced_handle.shutdown();
    Ok((cases, custom_id_echoed, minted_id_present))
}

fn trace_counter(doc: &Value, name: &str) -> u64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0) as u64
}

/// Phase 2: concurrent attribution on a fresh traced daemon sharing
/// this process's registry. It reads the process-wide PCG counter, so
/// nothing else in the process may solve while it runs.
///
/// # Errors
///
/// Returns transport or harness failures (bind, connect, missing traces).
pub fn isolation_phase(spec: &SystemSpec) -> Result<IsolationOutcome, String> {
    let (handle, addr) = boot(spec, true, ISOLATION_CLIENTS)?;
    let pcg = tac25d_obs::registry::counter("thermal.pcg_iterations");

    let before = pcg.get();
    let statuses: Vec<_> = std::thread::scope(|s| {
        let threads: Vec<_> = ISOLATION_LAYOUTS
            .iter()
            .enumerate()
            .map(|(i, &layout)| {
                let addr = addr.clone();
                s.spawn(move || -> Result<u16, String> {
                    let id = format!("verify-iso-{i}");
                    let body = format!(r#"{{"benchmark": "hpccg", "layout": "{layout}"}}"#);
                    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
                    client
                        .post_with("/v1/evaluate", &body, &[("X-Request-Id", &id)])
                        .map(|r| r.status)
                        .map_err(|e| format!("{id}: {e}"))
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().map_err(|_| "client thread panicked".to_owned())?)
            .collect::<Result<_, String>>()
    })?;
    let global_pcg_delta = pcg.get() - before;

    // Read every attribution back over the wire.
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let mut cases = Vec::with_capacity(ISOLATION_CLIENTS);
    for (i, (&layout, &status)) in ISOLATION_LAYOUTS.iter().zip(&statuses).enumerate() {
        let id = format!("verify-iso-{i}");
        let r = client
            .get(&format!("/v1/traces/{id}"))
            .map_err(|e| format!("{id}: {e}"))?;
        if r.status != 200 {
            return Err(format!("{id}: GET /v1/traces/{id} returned {}", r.status));
        }
        let doc = tac25d_obs::json::parse(&r.text()).map_err(|e| format!("{id}: {e}"))?;
        let rooted = doc
            .get("spans")
            .and_then(Value::as_array)
            .is_some_and(|spans| {
                spans.len() == 1
                    && spans[0].get("name").and_then(Value::as_str) == Some("serve.evaluate")
            });
        cases.push(IsolationCase {
            id,
            layout,
            status,
            pcg_delta: trace_counter(&doc, "thermal.pcg_iterations"),
            exact_delta: trace_counter(&doc, "thermal.exact_solves"),
            rooted,
        });
    }
    handle.shutdown();

    let sum_pcg = cases.iter().map(|c| c.pcg_delta).sum();
    Ok(IsolationOutcome {
        cases,
        sum_pcg,
        global_pcg_delta,
    })
}

/// Phase 3: alternating best-of-N cache-hit rounds.
fn overhead_phase(spec: &SystemSpec) -> Result<OverheadOutcome, String> {
    let (traced_handle, traced_addr) = boot(spec, true, 2)?;
    let (untraced_handle, untraced_addr) = boot(spec, false, 2)?;
    let mut traced = Client::connect(&traced_addr).map_err(|e| format!("connect: {e}"))?;
    let mut untraced = Client::connect(&untraced_addr).map_err(|e| format!("connect: {e}"))?;

    let body = r#"{"benchmark": "hpccg", "layout": "uniform:4,6"}"#;
    let round = |client: &mut Client, label: &str| -> Result<u64, String> {
        let started = Instant::now();
        for _ in 0..OVERHEAD_REQUESTS_PER_ROUND {
            let r = client
                .post("/v1/evaluate", body)
                .map_err(|e| format!("{label}: {e}"))?;
            if r.status != 200 {
                return Err(format!("{label}: status {}", r.status));
            }
        }
        Ok(started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64)
    };

    // Warm both caches so every measured request is a pure hit.
    round(&mut untraced, "warmup untraced")?;
    round(&mut traced, "warmup traced")?;

    let mut best_untraced_us = u64::MAX;
    let mut best_traced_us = u64::MAX;
    for _ in 0..OVERHEAD_ROUNDS {
        best_untraced_us = best_untraced_us.min(round(&mut untraced, "untraced")?);
        best_traced_us = best_traced_us.min(round(&mut traced, "traced")?);
    }
    traced_handle.shutdown();
    untraced_handle.shutdown();

    let ratio = best_traced_us as f64 / best_untraced_us as f64;
    let per_request_overhead_us =
        (best_traced_us as f64 - best_untraced_us as f64) / OVERHEAD_REQUESTS_PER_ROUND as f64;
    Ok(OverheadOutcome {
        best_traced_us,
        best_untraced_us,
        ratio,
        per_request_overhead_us,
    })
}

/// Runs all three phases.
///
/// # Errors
///
/// Returns transport or harness failures (bind, connect, local-engine
/// errors, missing traces) — environment problems, not gate
/// measurements.
pub fn trace_report(spec: &SystemSpec) -> Result<TraceReport, String> {
    let (identity, custom_id_echoed, minted_id_present) = identity_phase(spec)?;
    let isolation = isolation_phase(spec)?;
    let overhead = overhead_phase(spec)?;
    Ok(TraceReport {
        identity,
        custom_id_echoed,
        minted_id_present,
        isolation,
        overhead,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac25d_floorplan::units::Mm;

    fn gate_spec() -> SystemSpec {
        let mut spec = SystemSpec::fast();
        spec.thermal.grid = 16;
        spec.edge_step = Mm(2.0);
        spec
    }

    #[test]
    fn isolation_layouts_are_distinct_and_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for layout in ISOLATION_LAYOUTS {
            assert!(seen.insert(layout), "duplicate layout {layout}");
            let body = format!(r#"{{"benchmark": "hpccg", "layout": "{layout}"}}"#);
            let v = tac25d_obs::json::parse(&body).expect("body parses");
            tac25d_serve::protocol::EvaluateRequest::from_json(&v)
                .unwrap_or_else(|e| panic!("{layout}: {e}"));
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow under the debug profile; validated by the release suite"
    )]
    fn identity_holds_with_and_without_tracing() {
        let (cases, custom_id_echoed, minted_id_present) = identity_phase(&gate_spec()).unwrap();
        assert!(custom_id_echoed, "custom X-Request-Id not echoed");
        assert!(minted_id_present, "minted request id missing");
        for c in &cases {
            assert!(
                c.passed(),
                "{}: traced {}/{} untraced {}/{} ids_echoed {}",
                c.name,
                c.traced_status,
                c.traced_match,
                c.untraced_status,
                c.untraced_match,
                c.ids_echoed
            );
        }
    }
}
