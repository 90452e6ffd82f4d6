//! Load generator for `tac25d serve`: measures the cross-request
//! amortization the daemon's shared warm caches buy over the naive
//! one-process-per-request deployment. The steady serving benchmark is
//! perfbench's serve-cold and serve-hot workloads; this binary prints one
//! run's numbers and, with `--check`, gates the amortization claim.
//!
//! Two phases over the same pinned request mix:
//!
//! 1. **Naive baseline** — a fresh, cold [`EngineState`] per request,
//!    sequential. Every request pays model assembly and factorization
//!    from scratch, exactly as a one-shot CLI invocation would.
//! 2. **Served steady state** — one daemon on an ephemeral port, shared
//!    engine, N concurrent keep-alive clients cycling the mix. After the
//!    first pass every request is a canonical-cache hit.
//!
//! Usage: `loadgen [--clients N] [--requests N] [--naive N] [--check]`
//!
//! `--requests` is per client. `--check` exits nonzero unless the
//! measured speedup is ≥ 5× and the daemon observed cache hits — the CI
//! gate for the amortization claim.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tac25d_core::prelude::SystemSpec;
use tac25d_obs as obs;
use tac25d_serve::client::Client;
use tac25d_serve::engine::EngineState;
use tac25d_serve::protocol::EvaluateRequest;
use tac25d_serve::server::{start, ServerConfig};

/// The pinned request mix: distinct layouts and benchmarks so the warm
/// cache holds several packages, not one.
const MIX: &[&str] = &[
    r#"{"benchmark": "hpccg", "layout": "uniform:4,6"}"#,
    r#"{"benchmark": "shock", "layout": "uniform:4,6"}"#,
    r#"{"benchmark": "cholesky", "layout": "uniform:2,4"}"#,
    r#"{"benchmark": "hpccg", "layout": "sym4:5"}"#,
    r#"{"benchmark": "canneal", "layout": "uniform:4,6", "freq_mhz": 800}"#,
    r#"{"benchmark": "shock", "layout": "2d"}"#,
    r#"{"benchmark": "swaptions", "layout": "sym16:4,2,5"}"#,
    r#"{"benchmark": "streamcluster", "layout": "uniform:2,4", "cores": 192}"#,
];

fn spec() -> SystemSpec {
    let mut spec = SystemSpec::fast();
    spec.thermal.grid = 16;
    spec
}

fn parsed_mix() -> Vec<EvaluateRequest> {
    MIX.iter()
        .map(|body| {
            EvaluateRequest::from_json(&obs::json::parse(body).expect("mix body parses"))
                .expect("mix body is a valid request")
        })
        .collect()
}

/// Latency percentile from sorted microsecond samples (nearest-rank).
fn percentile_us(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn counter(name: &str) -> u64 {
    obs::registry::counter_snapshot()
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

fn main() {
    let clients: usize = tac25d_bench::arg_value("--clients")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let per_client: usize = tac25d_bench::arg_value("--requests")
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let naive_n: usize = tac25d_bench::arg_value("--naive")
        .and_then(|v| v.parse().ok())
        .unwrap_or(16);
    let check = std::env::args().any(|a| a == "--check");

    // Phase 1: naive baseline. A fresh engine per request — cold caches,
    // sequential — is what "one process per request" costs.
    let mix = parsed_mix();
    eprintln!("loadgen: naive baseline ({naive_n} requests, cold engine each) ...");
    let naive_start = Instant::now();
    for i in 0..naive_n {
        let engine = EngineState::new(spec());
        let result = engine.evaluate(&mix[i % mix.len()], None);
        assert_eq!(result.status, 200, "naive request failed: {}", result.body);
    }
    let naive_elapsed = naive_start.elapsed();
    let naive_rps = naive_n as f64 / naive_elapsed.as_secs_f64();
    eprintln!(
        "loadgen: naive {naive_n} requests in {:.2}s -> {naive_rps:.2} req/s",
        naive_elapsed.as_secs_f64()
    );

    // Phase 2: the daemon. One warmup pass fills the shared caches, then
    // concurrent keep-alive clients measure steady state.
    let engine = Arc::new(EngineState::new(spec()));
    let handle = start(ServerConfig::default(), engine).expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    eprintln!("loadgen: daemon on {addr}, warmup pass ...");
    {
        let mut warm = Client::connect(&addr).expect("connect for warmup");
        for body in MIX {
            let r = warm.post("/v1/evaluate", body).expect("warmup request");
            assert_eq!(r.status, 200, "warmup failed: {}", r.text());
        }
    }

    let hits_before = counter("evaluator.cache_hits");
    let joins_before = counter("evaluator.singleflight_joins");
    // Server-side handle-time histogram for successful evaluates (the
    // daemon shares this process's registry). Reset after warmup so the
    // steady-state percentiles exclude the cold-cache fills.
    let evaluate_hist = obs::registry::histogram("serve.evaluate.2xx_handle_us");
    evaluate_hist.reset();
    let total_requests = clients * per_client;
    eprintln!("loadgen: steady state ({clients} clients x {per_client} requests) ...");
    let errors = Arc::new(AtomicU64::new(0));
    let served_start = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            let addr = addr.clone();
            let errors = Arc::clone(&errors);
            std::thread::spawn(move || -> Vec<u64> {
                let mut client = Client::connect(&addr).expect("connect client");
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let body = MIX[(c + i) % MIX.len()];
                    let t = Instant::now();
                    match client.post("/v1/evaluate", body) {
                        Ok(r) if r.status == 200 => {
                            latencies.push(t.elapsed().as_micros() as u64);
                        }
                        _ => {
                            errors.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<u64> = Vec::with_capacity(total_requests);
    for worker in workers {
        latencies.extend(worker.join().expect("client thread"));
    }
    let served_elapsed = served_start.elapsed();
    handle.shutdown();

    let failed = errors.load(Ordering::Relaxed);
    assert_eq!(failed, 0, "{failed} served requests failed");
    latencies.sort_unstable();
    let served_rps = latencies.len() as f64 / served_elapsed.as_secs_f64();
    let speedup = served_rps / naive_rps;
    let cache_hits = counter("evaluator.cache_hits").saturating_sub(hits_before);
    let joins = counter("evaluator.singleflight_joins").saturating_sub(joins_before);
    let p50 = percentile_us(&latencies, 50.0);
    let p99 = percentile_us(&latencies, 99.0);
    let evaluate_p50 = evaluate_hist.percentile_upper_bound(50.0);
    let evaluate_p99 = evaluate_hist.percentile_upper_bound(99.0);

    println!("loadgen results ({} served requests):", latencies.len());
    println!("  naive      {naive_rps:>10.2} req/s  (cold engine per request)");
    println!("  served     {served_rps:>10.2} req/s  ({clients} keep-alive clients)");
    println!("  speedup    {speedup:>10.2}x");
    println!("  latency    p50 {p50} us, p99 {p99} us (client-observed)");
    println!(
        "  evaluate   p50 <= {evaluate_p50} us, p99 <= {evaluate_p99} us (server handle time)"
    );
    println!("  warm state {cache_hits} cache hits, {joins} single-flight joins");

    if check {
        let mut ok = true;
        if speedup < 5.0 {
            eprintln!("loadgen --check: FAIL speedup {speedup:.2}x < 5x");
            ok = false;
        }
        if cache_hits == 0 {
            eprintln!("loadgen --check: FAIL no evaluator cache hits observed");
            ok = false;
        }
        if !ok {
            std::process::exit(1);
        }
        println!("loadgen --check: PASS (speedup >= 5x, warm caches exercised)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&sorted, 50.0), 50);
        assert_eq!(percentile_us(&sorted, 99.0), 99);
        assert_eq!(percentile_us(&sorted, 100.0), 100);
        assert_eq!(percentile_us(&[42], 50.0), 42);
        assert_eq!(percentile_us(&[], 99.0), 0);
    }
}
