//! serve-cold and serve-hot: an in-process `tac25d serve` daemon with the
//! CLI's default spec, driven over HTTP by keep-alive closed-loop clients.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tac25d_core::prelude::SystemSpec;
use tac25d_obs::json::{self, Value};
use tac25d_serve::client::Client;
use tac25d_serve::engine::EngineState;
use tac25d_serve::protocol::EvaluateRequest;
use tac25d_serve::server::{start, ServerConfig, ServerHandle};

use crate::gen::{cold_stream, hot_set, Rng};
use crate::host;
use crate::measure::{Op, Probe, Window};
use crate::trace;

/// Daemon workers, and serve-cold's closed-loop clients: one each per
/// core of the two-core host the benchmark was sized on.
pub const CLIENTS: usize = 2;

/// Slices a serve-cold window is cut into. A slice needs hundreds of
/// ~20 ms requests for a steady p99.
const COLD_SLICES: usize = 6;

/// Ops per second each client's op log has room for: well above what
/// all clients together complete on a cache hit.
const OPS_PER_S_RESERVED: f64 = 100_000.0;

/// The evaluate endpoint.
const EVALUATE: &str = "/v1/evaluate";

/// Set-up's first request. Its `2d` layout is outside every generated
/// pool, so it never repeats a timed request's key.
const FIRST_REQUEST: &str = r#"{"benchmark": "canneal", "layout": "2d"}"#;

/// The CLI's default serve spec (`SystemSpec::fast()`, grid 32).
pub fn spec() -> SystemSpec {
    SystemSpec::fast()
}

/// A running daemon on an ephemeral local port; stopped (and its threads
/// joined) on drop.
pub struct Daemon {
    handle: Option<ServerHandle>,
    /// `host:port` to connect to.
    pub addr: String,
}

impl Daemon {
    /// Starts a daemon with a fresh engine and the CLI's default
    /// configuration, with the worker pool pinned to [`CLIENTS`].
    ///
    /// # Panics
    ///
    /// Panics if no local port can be bound.
    pub fn start() -> Daemon {
        let engine = Arc::new(EngineState::new(spec()));
        let config = ServerConfig {
            workers: CLIENTS,
            ..ServerConfig::default()
        };
        let handle = start(config, engine).expect("bind a local port");
        let addr = handle.local_addr().to_string();
        Daemon {
            handle: Some(handle),
            addr,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// A well-formed evaluation: status 200, `converged: true` and a finite
/// `peak_c`.
pub fn evaluation_ok(status: u16, body: &[u8]) -> bool {
    if status != 200 {
        return false;
    }
    let Some(doc) = std::str::from_utf8(body)
        .ok()
        .and_then(|s| json::parse(s).ok())
    else {
        return false;
    };
    doc.get("converged") == Some(&Value::Bool(true))
        && doc
            .get("peak_c")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite)
}

/// Sends one request on a fresh connection; its body when the answer is
/// a well-formed evaluation.
fn post_once(addr: &str, body: &str) -> Option<Vec<u8>> {
    let mut client = Client::connect(addr).ok()?;
    let r = client.post(EVALUATE, body).ok()?;
    evaluation_ok(r.status, &r.body).then_some(r.body)
}

/// Closed-loop ops from `clients` keep-alive clients until `seconds`
/// pass or `next` runs dry, in a window cut into `slices` equal slices,
/// with the clients pinned to `client_cpu` when given. `next(client, i)`
/// names the request index and body of a client's `i`-th op;
/// `check(index, status, body)` judges the response.
/// Returns the window and the bodies of passing responses whose request
/// index is in `keep` (which must be sorted).
#[allow(clippy::too_many_arguments)]
pub fn drive<'a, N, C>(
    addr: &str,
    clients: usize,
    seconds: f64,
    slices: usize,
    client_cpu: Option<usize>,
    keep: &[usize],
    next: N,
    check: C,
) -> (Window, Vec<(usize, Vec<u8>)>)
where
    N: Fn(usize, u64) -> Option<(usize, &'a str)> + Sync,
    C: Fn(usize, u16, &[u8]) -> bool + Sync,
{
    let mut probe = Probe::start();
    let start = Instant::now();
    let kept = Mutex::new(Vec::new());
    let per_client: Vec<(Vec<Op>, u64, u64)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                let (next, check, kept) = (&next, &check, &kept);
                s.spawn(move || {
                    if let Some(cpu) = client_cpu {
                        host::pin_current_thread(&[cpu]);
                    }
                    // Reserved up front (pages are touched only as ops
                    // land), so the run never pays a growth copy whose
                    // size would depend on where the count fell.
                    let mut ops = Vec::with_capacity((seconds * OPS_PER_S_RESERVED) as usize);
                    let (mut attempted, mut failed) = (0u64, 0u64);
                    let mut client = Client::connect(addr).ok();
                    let mut i = 0u64;
                    while start.elapsed().as_secs_f64() < seconds {
                        let Some((index, body)) = next(c, i) else {
                            break;
                        };
                        i += 1;
                        attempted += 1;
                        let Some(conn) = client.as_mut() else {
                            failed += 1;
                            client = Client::connect(addr).ok();
                            continue;
                        };
                        let t = Instant::now();
                        let response = {
                            let _op = trace::span("bench.op", index as u64, c as u32);
                            conn.post(EVALUATE, body)
                        };
                        let op = Op::new(
                            start.elapsed().as_secs_f64(),
                            t.elapsed().as_secs_f64() * 1e3,
                        );
                        match response {
                            Ok(r) => {
                                ops.push(op);
                                if !check(index, r.status, &r.body) {
                                    failed += 1;
                                } else if keep.binary_search(&index).is_ok() {
                                    kept.lock().expect("kept bodies").push((index, r.body));
                                }
                            }
                            Err(_) => {
                                failed += 1;
                                client = Client::connect(addr).ok();
                            }
                        }
                    }
                    trace::flush_thread();
                    (ops, attempted, failed)
                })
            })
            .collect();
        for k in 1..slices {
            let due = seconds * k as f64 / slices as f64;
            std::thread::sleep(Duration::from_secs_f64(
                (due - start.elapsed().as_secs_f64()).max(0.0),
            ));
            probe.mark();
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let mut per_client = per_client.into_iter();
    let (mut ops, mut attempted, mut failed) = per_client.next().expect("at least one client");
    for (o, a, f) in per_client {
        ops.extend(o);
        attempted += a;
        failed += f;
    }
    let kept = kept.into_inner().expect("kept bodies");
    (probe.finish(ops, attempted, failed), kept)
}

/// Mean time to decode one request of `bodies` with the service's own
/// parser (`obs::json::parse` + `EvaluateRequest::from_json`), µs.
pub fn decode_us(bodies: &[String]) -> f64 {
    const DECODES: usize = 20_000;
    let _span = trace::span("bench.protocol_decode", 0, 0);
    let t = Instant::now();
    for body in bodies.iter().cycle().take(DECODES) {
        let v = json::parse(std::hint::black_box(body)).expect("corpus body is JSON");
        std::hint::black_box(EvaluateRequest::from_json(&v).expect("corpus body decodes"));
    }
    t.elapsed().as_secs_f64() * 1e6 / DECODES as f64
}

/// The serve-cold workload: a never-repeating request stream against one
/// daemon.
pub struct Cold {
    daemon: Daemon,
    bodies: Vec<String>,
    cursor: AtomicUsize,
    /// Request indices the oracle re-evaluates (sorted).
    sample: Vec<usize>,
    /// The daemon's answers to the sampled requests.
    answered: Mutex<Vec<(usize, Vec<u8>)>>,
}

/// Requests re-evaluated on a fresh engine after the timed windows,
/// drawn from the first [`COLD_ORACLE_RANGE`] of the stream, which every
/// run answers.
const COLD_ORACLE_SAMPLE: usize = 12;
const COLD_ORACLE_RANGE: u64 = 400;

impl Cold {
    /// One set-up: daemon start plus its first evaluation (model
    /// assembly, factorization, a coupled solve), with a stream long
    /// enough for `seconds` of ops. Returns the workload, the seconds the
    /// daemon took to answer and whether its answer was well formed.
    pub fn setup(seed: u64, seconds: f64) -> (Cold, f64, bool) {
        let n = 1_000 + (seconds * 400.0) as usize;
        let bodies = cold_stream(seed, n).iter().map(|k| k.body()).collect();
        let t = Instant::now();
        let daemon = Daemon::start();
        let ok = post_once(&daemon.addr, FIRST_REQUEST).is_some();
        let secs = t.elapsed().as_secs_f64();
        let mut rng = Rng::new(seed, 0x0AC1E);
        let mut sample: Vec<usize> = (0..COLD_ORACLE_SAMPLE)
            .map(|_| rng.below(COLD_ORACLE_RANGE) as usize)
            .collect();
        sample.sort_unstable();
        sample.dedup();
        let cold = Cold {
            daemon,
            bodies,
            cursor: AtomicUsize::new(0),
            sample,
            answered: Mutex::new(Vec::new()),
        };
        (cold, secs, ok)
    }

    /// Runs the stream's next requests for `seconds`.
    pub fn run(&self, seconds: f64) -> Window {
        let (window, kept) = drive(
            &self.daemon.addr,
            CLIENTS,
            seconds,
            COLD_SLICES,
            None,
            &self.sample,
            |_, _| {
                let i = self.cursor.fetch_add(1, Ordering::Relaxed);
                self.bodies.get(i).map(|b| (i, b.as_str()))
            },
            |_, status, body| evaluation_ok(status, body),
        );
        if self.cursor.load(Ordering::Relaxed) >= self.bodies.len() {
            eprintln!("serve-cold: request stream ran dry before the window ended");
        }
        self.answered.lock().expect("answered bodies").extend(kept);
        window
    }

    /// Re-evaluates the sampled requests, each on a fresh engine, and
    /// counts daemon answers that differ from its bytes or are missing.
    pub fn oracle(&self) -> u64 {
        let answered = self.answered.lock().expect("answered bodies");
        let mut failed = 0;
        for &index in &self.sample {
            let body = &self.bodies[index];
            let req = EvaluateRequest::from_json(&json::parse(body).expect("generated JSON"))
                .expect("generated request decodes");
            let fresh = EngineState::new(spec()).evaluate(&req, None);
            let served = answered.iter().find(|(i, _)| *i == index);
            if fresh.status != 200 || served.is_none_or(|(_, b)| b != fresh.body.as_bytes()) {
                eprintln!("serve-cold: {body} differs from a fresh engine's answer");
                failed += 1;
            }
        }
        failed
    }

    /// The request bodies, as the decode corpus.
    pub fn bodies(&self) -> &[String] {
        &self.bodies
    }
}

/// The CPU serve-hot's daemon and its client share. A cache hit costs
/// tens of microseconds, so how the round trip is scheduled sets its
/// tail. Across CPUs, every request and every answer wakes an idle vCPU,
/// whose wake-up time follows the host's load: over ten runs, p99's
/// quartiles lay 1.4–1.9 medians apart. On one CPU the round trip is a
/// chain of same-CPU context switches, and p99 stays within about twice
/// p50.
const HOT_CPU: usize = 0;

/// serve-hot's closed-loop clients: one, so no request waits behind
/// another on the shared CPU.
const HOT_CLIENTS: usize = 1;

/// Slices of serve-hot's window: one per half second, each with about ten
/// thousand cache hits. The host's speed flips between a fast and a slow
/// mode every second or so, and hits take about 25 µs in one and 43 µs in
/// the other, so a run's latency percentiles depend on the share of time
/// spent in each. Short slices, and a trimmed mean over them, let that
/// share move the figures smoothly rather than flip p50 between the modes.
fn hot_slices(seconds: f64) -> usize {
    ((seconds * 2.0) as usize).max(1)
}

/// The serve-hot workload: a fixed set of requests, all answered once
/// before timing, so every timed request is a cache hit.
pub struct Hot {
    daemon: Daemon,
    bodies: Vec<String>,
    warm: Vec<Vec<u8>>,
}

impl Hot {
    /// One set-up: daemon start plus the warm pass over the set for
    /// `seed`. Returns the workload, the seconds it took and how many
    /// warm-pass answers were malformed.
    pub fn setup(seed: u64) -> (Hot, f64, u64) {
        let bodies: Vec<String> = hot_set(seed).iter().map(|k| k.body()).collect();
        let t = Instant::now();
        let daemon = host::on_cpu(HOT_CPU, Daemon::start);
        let mut client = Client::connect(&daemon.addr).ok();
        let warm: Vec<Option<Vec<u8>>> = bodies
            .iter()
            .map(|body| {
                let r = client.as_mut()?.post(EVALUATE, body).ok()?;
                evaluation_ok(r.status, &r.body).then_some(r.body)
            })
            .collect();
        let secs = t.elapsed().as_secs_f64();
        let failed = warm.iter().filter(|b| b.is_none()).count() as u64;
        let hot = Hot {
            daemon,
            bodies,
            warm: warm.into_iter().map(Option::unwrap_or_default).collect(),
        };
        (hot, secs, failed)
    }

    /// Cycles the set for `seconds`. An answer passes when it is
    /// byte-identical to the warm pass's.
    pub fn run(&self, seconds: f64) -> Window {
        let n = self.bodies.len();
        drive(
            &self.daemon.addr,
            HOT_CLIENTS,
            seconds,
            hot_slices(seconds),
            Some(HOT_CPU),
            &[],
            |_, i| {
                let index = i as usize % n;
                Some((index, self.bodies[index].as_str()))
            },
            |index, status, body| status == 200 && body == self.warm[index].as_slice(),
        )
        .0
    }

    /// The request bodies, as the decode corpus.
    pub fn bodies(&self) -> &[String] {
        &self.bodies
    }
}
