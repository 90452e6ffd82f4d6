//! # tac25d-serve — the placement-evaluation service
//!
//! Batch figure drivers pay the evaluator's cold-start cost (package-model
//! assembly, IC(0) factorization) once per process and amortize it over
//! thousands of candidates. An interactive user asking "would this
//! organization be feasible?" pays it on *every* invocation. This crate
//! keeps one warm [`engine::EngineState`] — striped canonical memo tables
//! of assembled models (with their IC(0) factors) and evaluations — behind
//! a long-running HTTP daemon, so concurrent clients share a single cache
//! and the steady-state cost of a repeat evaluation drops to a hash lookup.
//!
//! The stack is deliberately dependency-free (the workspace's
//! vendored-offline policy): a hand-rolled HTTP/1.1 layer over
//! `std::net::TcpListener` ([`http`]), the obs crate's JSON parser and
//! serializer for the wire format ([`tac25d_obs::json`]), and a fixed
//! worker pool with a bounded intake queue ([`server`]).
//!
//! Production semantics:
//!
//! - **Backpressure** — a bounded connection-intake queue; when full the
//!   acceptor sheds load with `503` + `Retry-After` instead of queueing
//!   unboundedly (counter `serve.shed`).
//! - **Deadlines** — every request carries an optional `deadline_ms`
//!   (bounded by the server default). Expiry refuses any evaluation
//!   whose coupled solve has not started yet
//!   ([`tac25d_core::prelude::Evaluator`]'s deadline handles) and
//!   returns `504` (counter `serve.deadline_hits`).
//! - **Cross-request batching** — concurrent misses on one evaluation key
//!   coalesce to a single exact solve (single-flight in the core
//!   evaluator; counter `evaluator.singleflight_joins`).
//! - **Graceful drain** — SIGTERM/SIGINT stop the acceptor, in-flight
//!   requests finish, then the process exits.
//! - **Determinism** — daemon responses are byte-identical to a one-shot
//!   local evaluation of the same request (`tac25d query --local`); the
//!   `verify serve` mode pins this with a request corpus.
//!
//! - **Request-scoped tracing** — evaluate/optimize requests run under a
//!   per-thread trace collector ([`tac25d_obs::trace`]) capturing a
//!   request-local span tree and counter deltas; the slowest exemplars
//!   per endpoint are browsable at `GET /v1/traces`. Identity is
//!   header-only (`X-Request-Id` in/out), so bodies stay byte-identical;
//!   `verify trace` pins identity, isolation and ≤2% overhead.
//!
//! Endpoints: `POST /v1/evaluate`, `POST /v1/optimize`, `GET /healthz`,
//! `GET /metrics` (Prometheus text from the obs registry),
//! `GET /metrics/history` (ring-buffer time series), `GET /v1/traces`
//! and `GET /v1/traces/{id}` (slow-request exemplars).

pub mod client;
pub mod engine;
pub mod http;
pub mod protocol;
pub mod server;
pub mod telemetry;
