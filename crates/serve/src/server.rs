//! The daemon: a nonblocking acceptor feeding a bounded connection-intake
//! queue drained by a fixed worker pool.
//!
//! Backpressure is applied at connection granularity: when the intake
//! queue is full the acceptor answers `503` + `Retry-After: 1` and closes,
//! instead of letting latency grow without bound (counter `serve.shed`).
//! Workers poll their sockets with a short read timeout so an idle
//! keep-alive connection never blinds its worker to shutdown. SIGTERM and
//! SIGINT (via [`install_signal_handlers`]) stop the acceptor, let
//! in-flight requests finish, and then return from [`ServerHandle::join`].

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tac25d_obs as obs;
use tac25d_obs::json::parse;
use tac25d_obs::registry::prometheus_text;

use crate::engine::{EngineResult, EngineState};
use crate::http::{read_request, HttpError, Request, Response};
use crate::protocol::{EvaluateRequest, OptimizeRequest};
use crate::telemetry::{self, Endpoint, RequestRecord, StoredTrace, Telemetry};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8425` (`:0` for an ephemeral port).
    pub addr: String,
    /// Worker pool size; `0` resolves to `TAC25D_THREADS` or the machine's
    /// parallelism (at least 2, so a stalled connection cannot starve the
    /// pool entirely).
    pub workers: usize,
    /// Intake-queue capacity; connections beyond it are shed with `503`.
    pub queue_capacity: usize,
    /// Server-side deadline applied to every request (the effective
    /// deadline is the *smaller* of this and the request's `deadline_ms`).
    pub default_deadline_ms: Option<u64>,
    /// Whether evaluate/optimize requests run under a request-scoped
    /// trace collector feeding `GET /v1/traces` (≤2% overhead, gated by
    /// `verify trace`). Response bodies are identical either way.
    pub tracing: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            queue_capacity: 64,
            default_deadline_ms: None,
            tracing: true,
        }
    }
}

impl ServerConfig {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        obs::threads_override()
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .max(2)
    }
}

/// The bounded handoff between the acceptor and the workers. Connections
/// carry their enqueue instant so the worker can attribute queue wait
/// (`serve.queue_wait_us`) separately from handle time.
struct Intake {
    queue: Mutex<VecDeque<(TcpStream, Instant)>>,
    ready: Condvar,
    capacity: usize,
}

impl Intake {
    fn new(capacity: usize) -> Intake {
        Intake {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues a connection, or returns it back when the queue is full
    /// (the caller sheds it).
    fn offer(&self, conn: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.queue.lock().expect("lock poisoned");
        if q.len() >= self.capacity {
            return Err(conn);
        }
        q.push_back((conn, Instant::now()));
        obs::gauge!("serve.queue_depth").set(q.len() as f64);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues a connection, waiting up to `tick`. `None` on timeout.
    fn take(&self, tick: Duration) -> Option<(TcpStream, Instant)> {
        let mut q = self.queue.lock().expect("lock poisoned");
        if q.is_empty() {
            let (guard, _) = self.ready.wait_timeout(q, tick).expect("lock poisoned");
            q = guard;
        }
        let conn = q.pop_front();
        obs::gauge!("serve.queue_depth").set(q.len() as f64);
        conn
    }

    fn is_empty(&self) -> bool {
        self.queue.lock().expect("lock poisoned").is_empty()
    }
}

/// A running daemon. Dropping the handle does *not* stop it; call
/// [`ServerHandle::shutdown`] (or deliver a handled signal and
/// [`ServerHandle::join`]).
pub struct ServerHandle {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` ephemeral binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Requests shutdown and waits for the drain to complete.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Waits for the daemon to stop on its own (signal-initiated
    /// shutdown).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Set by the SIGTERM/SIGINT handlers. Process-global because POSIX signal
/// handlers cannot carry state.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Whether a handled termination signal has arrived.
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Installs SIGTERM/SIGINT handlers that flip the flag [`signalled`]
/// checks. Hand-rolled `signal(2)` binding — the workspace vendors no libc
/// crate, and the two constants are stable across Linux and macOS.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal(2)` takes a signal number and a handler address and
    // touches no caller memory. Both numbers are valid signals, and
    // `on_signal` is an `extern "C" fn(i32)` that lives for the whole
    // program and only stores to an atomic, which is async-signal-safe.
    // The previous handler that `signal` returns is not needed.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// No-op off Unix (the daemon still stops via [`ServerHandle::shutdown`]).
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// How often blocked threads re-check the shutdown flag.
const TICK: Duration = Duration::from_millis(100);

/// Binds and starts the daemon: one acceptor thread plus the worker pool.
///
/// # Errors
///
/// Propagates bind failures.
pub fn start(config: ServerConfig, engine: Arc<EngineState>) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let intake = Arc::new(Intake::new(config.queue_capacity));
    let telemetry = Arc::new(Telemetry::new(config.tracing));
    let mut threads = Vec::new();

    {
        let stop = Arc::clone(&stop);
        let intake = Arc::clone(&intake);
        threads.push(
            std::thread::Builder::new()
                .name("serve-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &intake, &stop))
                .expect("spawn acceptor"),
        );
    }
    // The first history sample is taken before any thread starts, so
    // `/metrics/history` is never empty once the daemon is up.
    telemetry.history.sample_registry();
    {
        let stop = Arc::clone(&stop);
        let telemetry = Arc::clone(&telemetry);
        threads.push(
            std::thread::Builder::new()
                .name("serve-history".into())
                .spawn(move || history_loop(&telemetry, &stop))
                .expect("spawn history sampler"),
        );
    }
    for i in 0..config.resolved_workers() {
        let stop = Arc::clone(&stop);
        let intake = Arc::clone(&intake);
        let engine = Arc::clone(&engine);
        let telemetry = Arc::clone(&telemetry);
        let config = config.clone();
        threads.push(
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&intake, &engine, &config, &telemetry, &stop))
                .expect("spawn worker"),
        );
    }

    Ok(ServerHandle {
        local_addr,
        stop,
        threads,
    })
}

/// Samples the registry into the `/metrics/history` ring at the
/// env-selected interval ([`start`] takes the first sample).
fn history_loop(telemetry: &Telemetry, stop: &AtomicBool) {
    let interval = Duration::from_millis(telemetry.history.interval_ms());
    let mut last = Instant::now();
    while !stopping(stop) {
        std::thread::sleep(TICK.min(interval));
        if last.elapsed() >= interval {
            telemetry.history.sample_registry();
            last = Instant::now();
        }
    }
}

fn stopping(stop: &AtomicBool) -> bool {
    stop.load(Ordering::SeqCst) || signalled()
}

fn acceptor_loop(listener: &TcpListener, intake: &Intake, stop: &AtomicBool) {
    while !stopping(stop) {
        match listener.accept() {
            Ok((conn, _peer)) => {
                if let Err(mut shed) = intake.offer(conn) {
                    obs::counter!("serve.shed").inc();
                    let resp =
                        Response::json(503, r#"{"error":"intake queue full, retry shortly"}"#)
                            .with_header("Retry-After", "1");
                    let _ = resp.write_to(&mut shed, true);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn worker_loop(
    intake: &Intake,
    engine: &EngineState,
    config: &ServerConfig,
    telemetry: &Telemetry,
    stop: &AtomicBool,
) {
    loop {
        match intake.take(TICK) {
            Some((conn, queued_at)) => {
                static BUSY: std::sync::atomic::AtomicUsize =
                    std::sync::atomic::AtomicUsize::new(0);
                let busy = BUSY.fetch_add(1, Ordering::Relaxed) + 1;
                obs::gauge!("serve.busy_workers").set(busy as f64);
                let queue_wait_us =
                    queued_at.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                obs::histogram!("serve.queue_wait_us").record(queue_wait_us);
                handle_connection(conn, engine, config, telemetry, stop, queue_wait_us);
                let busy = BUSY.fetch_sub(1, Ordering::Relaxed) - 1;
                obs::gauge!("serve.busy_workers").set(busy as f64);
            }
            // Drain semantics: keep serving queued connections after the
            // stop flag flips; exit once the queue is empty.
            None => {
                if stopping(stop) && intake.is_empty() {
                    return;
                }
            }
        }
    }
}

fn handle_connection(
    mut conn: TcpStream,
    engine: &EngineState,
    config: &ServerConfig,
    telemetry: &Telemetry,
    stop: &AtomicBool,
    queue_wait_us: u64,
) {
    if conn.set_read_timeout(Some(TICK)).is_err() {
        return;
    }
    let _ = conn.set_nodelay(true);
    let mut carry = Vec::new();
    // Queue wait belongs to the first request on the connection; keep-alive
    // follow-ups were never queued.
    let mut first_queue_wait_us = queue_wait_us;
    loop {
        let request = match read_request(&mut conn, &mut carry) {
            Ok(r) => r,
            Err(HttpError::Timeout) => {
                // Idle keep-alive poll tick: close on shutdown, else keep
                // waiting for the next request.
                if stopping(stop) {
                    return;
                }
                continue;
            }
            Err(HttpError::Eof) | Err(HttpError::Io(_)) => return,
            Err(HttpError::HeadTooLarge) => {
                let _ = Response::json(431, r#"{"error":"request head too large"}"#)
                    .write_to(&mut conn, true);
                return;
            }
            Err(HttpError::BodyTooLarge) => {
                let _ = Response::json(413, r#"{"error":"request body too large"}"#)
                    .write_to(&mut conn, true);
                return;
            }
            Err(HttpError::BadRequest(m)) => {
                let body =
                    tac25d_obs::json::obj([("error", tac25d_obs::json::Value::String(m))]).render();
                let _ = Response::json(400, body).write_to(&mut conn, true);
                return;
            }
        };
        let id = telemetry::request_id(request.header("x-request-id"));
        let endpoint = Endpoint::of(&request.method, &request.path);
        let traced = telemetry.tracing && endpoint.traceable();
        let started = Instant::now();
        if traced {
            obs::trace::begin();
        }
        let response = dispatch(engine, config, telemetry, &request);
        let capture = if traced { obs::trace::finish() } else { None };
        let handle_us = started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        obs::counter!("serve.requests").inc();
        if response.status == 504 {
            obs::counter!("serve.deadline_hits").inc();
        }
        // Unchanged semantics (dispatch time, probes included) so the
        // committed serve baselines stay comparable; the per-endpoint
        // split below is the probe-free surface.
        obs::histogram!("serve.request_latency_us").record(handle_us);
        telemetry::handle_histogram(endpoint, response.status).record(handle_us);
        let record = RequestRecord {
            id: id.clone(),
            method: request.method.clone(),
            path: request.path.clone(),
            endpoint,
            status: response.status,
            queue_wait_us: std::mem::take(&mut first_queue_wait_us),
            handle_us,
            bytes_out: response.body.len(),
        };
        let t_us = obs::uptime().as_micros().min(u128::from(u64::MAX)) as u64;
        if let Some(capture) = capture {
            telemetry.traces.offer(StoredTrace {
                record: record.clone(),
                t_us,
                capture,
            });
        }
        telemetry::log_access(&record, t_us);
        // Identity is echoed header-only, and unconditionally (traced and
        // untraced daemons answer identically on the wire modulo the id
        // value itself): bodies stay byte-identical to `query --local`.
        let response = response.with_header("X-Request-Id", id);
        let close = request.wants_close() || stopping(stop);
        if response.write_to(&mut conn, close).is_err() || close {
            return;
        }
    }
}

/// Routes one request. Transport-agnostic, so tests can call it directly.
pub fn dispatch(
    engine: &EngineState,
    config: &ServerConfig,
    telemetry: &Telemetry,
    request: &Request,
) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Response::json(200, r#"{"status":"ok"}"#),
        ("GET", "/metrics") => Response::text(200, prometheus_text()),
        ("GET", "/metrics/history") => Response::json(200, telemetry.history.to_json().render()),
        ("GET", "/v1/traces") => Response::json(200, telemetry.traces.list_json().render()),
        ("GET", path) if path.starts_with("/v1/traces/") => {
            let id = &path["/v1/traces/".len()..];
            match telemetry.traces.get(id) {
                Some(trace) => Response::json(200, trace.to_json().render()),
                None => Response::json(404, r#"{"error":"no stored trace with that id"}"#),
            }
        }
        ("POST", "/v1/evaluate") => json_endpoint(request, |v, received| {
            let req = EvaluateRequest::from_json(v)?;
            let deadline = effective_deadline(req.deadline_ms, config, received);
            Ok(engine.evaluate(&req, deadline))
        }),
        ("POST", "/v1/optimize") => json_endpoint(request, |v, received| {
            let req = OptimizeRequest::from_json(v)?;
            let deadline = effective_deadline(req.deadline_ms, config, received);
            Ok(engine.optimize(&req, deadline))
        }),
        ("GET" | "POST", _) => Response::json(404, r#"{"error":"no such endpoint"}"#),
        _ => Response::json(405, r#"{"error":"method not allowed"}"#),
    }
}

/// The effective deadline: the *earlier* of the request's `deadline_ms`
/// and the server default, both measured from request receipt.
fn effective_deadline(
    requested_ms: Option<u64>,
    config: &ServerConfig,
    received: Instant,
) -> Option<Instant> {
    let ms = match (requested_ms, config.default_deadline_ms) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };
    ms.map(|ms| received + Duration::from_millis(ms))
}

fn json_endpoint<F>(request: &Request, run: F) -> Response
where
    F: FnOnce(&tac25d_obs::json::Value, Instant) -> Result<EngineResult, String>,
{
    let received = Instant::now();
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return Response::json(400, r#"{"error":"body is not UTF-8"}"#);
    };
    let value = match parse(text) {
        Ok(v) => v,
        Err(e) => {
            let body = tac25d_obs::json::obj([(
                "error",
                tac25d_obs::json::Value::String(format!("invalid JSON: {e}")),
            )])
            .render();
            return Response::json(400, body);
        }
    };
    match run(&value, received) {
        Ok(result) => Response::json(result.status, result.body),
        Err(message) => {
            let body = tac25d_obs::json::obj([("error", tac25d_obs::json::Value::String(message))])
                .render();
            Response::json(422, body)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, body: &str) -> Request {
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    fn engine() -> Arc<EngineState> {
        let mut spec = tac25d_core::prelude::SystemSpec::fast();
        spec.thermal.grid = 16;
        Arc::new(EngineState::new(spec))
    }

    #[test]
    fn dispatch_routes_and_rejects() {
        let engine = engine();
        let config = ServerConfig::default();
        let tel = Telemetry::new(true);
        let route = |method: &str, path: &str, body: &str| {
            dispatch(&engine, &config, &tel, &request(method, path, body)).status
        };
        assert_eq!(route("GET", "/healthz", ""), 200);
        assert_eq!(route("GET", "/metrics", ""), 200);
        assert_eq!(route("GET", "/metrics/history", ""), 200);
        assert_eq!(route("GET", "/v1/traces", ""), 200);
        assert_eq!(route("GET", "/v1/traces/req-missing", ""), 404);
        assert_eq!(route("GET", "/nope", ""), 404);
        assert_eq!(route("DELETE", "/healthz", ""), 405);
        assert_eq!(route("POST", "/v1/evaluate", "{not json"), 400);
        assert_eq!(route("POST", "/v1/evaluate", "{}"), 422);
    }

    #[test]
    fn history_and_trace_endpoints_serve_valid_json() {
        let engine = engine();
        let config = ServerConfig::default();
        let tel = Telemetry::new(true);
        tel.history.sample_registry();
        let history = dispatch(
            &engine,
            &config,
            &tel,
            &request("GET", "/metrics/history", ""),
        );
        let v = parse(std::str::from_utf8(&history.body).expect("utf8")).expect("history parses");
        assert!(!v
            .get("samples")
            .and_then(tac25d_obs::json::Value::as_array)
            .expect("samples")
            .is_empty());
        let list = dispatch(&engine, &config, &tel, &request("GET", "/v1/traces", ""));
        let v = parse(std::str::from_utf8(&list.body).expect("utf8")).expect("traces parse");
        assert!(v
            .get("traces")
            .and_then(tac25d_obs::json::Value::as_array)
            .is_some());
    }

    #[test]
    fn effective_deadline_takes_the_minimum() {
        let t0 = Instant::now();
        let cfg = |d| ServerConfig {
            default_deadline_ms: d,
            ..ServerConfig::default()
        };
        assert_eq!(effective_deadline(None, &cfg(None), t0), None);
        assert_eq!(
            effective_deadline(Some(100), &cfg(None), t0),
            Some(t0 + Duration::from_millis(100))
        );
        assert_eq!(
            effective_deadline(None, &cfg(Some(200)), t0),
            Some(t0 + Duration::from_millis(200))
        );
        assert_eq!(
            effective_deadline(Some(500), &cfg(Some(200)), t0),
            Some(t0 + Duration::from_millis(200)),
            "server default bounds the request"
        );
    }
}
