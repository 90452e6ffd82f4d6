//! End-to-end daemon tests over real sockets: keep-alive byte-identity,
//! deadlines, backpressure, and graceful drain.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use tac25d_core::prelude::SystemSpec;
use tac25d_serve::client::Client;
use tac25d_serve::engine::EngineState;
use tac25d_serve::server::{start, ServerConfig};

fn engine() -> Arc<EngineState> {
    let mut spec = SystemSpec::fast();
    spec.thermal.grid = 16;
    Arc::new(EngineState::new(spec))
}

fn boot(config: ServerConfig) -> (tac25d_serve::server::ServerHandle, String, Arc<EngineState>) {
    let engine = engine();
    let handle = start(config, Arc::clone(&engine)).expect("bind ephemeral port");
    let addr = handle.local_addr().to_string();
    (handle, addr, engine)
}

#[test]
fn healthz_metrics_and_keepalive_byte_identity() {
    let (handle, addr, engine) = boot(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), r#"{"status":"ok"}"#);

    // Two POSTs on one keep-alive connection; both must match the local
    // engine's answer byte-for-byte.
    let body = r#"{"benchmark": "hpccg", "layout": "uniform:4,6"}"#;
    let expected = engine
        .evaluate(
            &tac25d_serve::protocol::EvaluateRequest::from_json(
                &tac25d_obs::json::parse(body).unwrap(),
            )
            .unwrap(),
            None,
        )
        .body;
    for _ in 0..2 {
        let r = client.post("/v1/evaluate", body).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.text(), expected, "daemon response diverged from local");
    }

    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    assert!(
        text.contains("serve_requests"),
        "metrics missing serve_requests:\n{text}"
    );

    handle.shutdown();
}

#[test]
fn expired_deadline_returns_504_and_connection_stays_usable() {
    let (handle, addr, _engine) = boot(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    // deadline_ms: 0 expires before any thermal work starts. Use a layout
    // distinct from other tests so a warm cache can't serve it.
    let r = client
        .post(
            "/v1/evaluate",
            r#"{"benchmark": "shock", "layout": "sym16:4,2,5", "deadline_ms": 0}"#,
        )
        .unwrap();
    assert_eq!(r.status, 504, "{}", r.text());
    let v = tac25d_obs::json::parse(&r.text()).unwrap();
    assert_eq!(v.get("completed").unwrap().as_bool(), Some(false));

    // Same connection, no deadline: served fine — the pool is not wedged.
    let r = client
        .post(
            "/v1/evaluate",
            r#"{"benchmark": "shock", "layout": "sym16:4,2,5"}"#,
        )
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.text());

    handle.shutdown();
}

#[test]
fn concurrent_deadline_504s_are_shaped_and_never_cached() {
    let (handle, addr, _engine) = boot(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });

    // Distinct layouts per thread so every request does fresh thermal work
    // (a warm cache would serve the answer before the deadline matters).
    // deadline_ms: 0 is already expired when the evaluation starts, so
    // each one is refused deterministically.
    let layouts = ["uniform:2,5", "uniform:4,3", "sym4:7", "sym16:3,2,4"];
    let threads: Vec<_> = layouts
        .iter()
        .map(|&layout| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                let body =
                    format!(r#"{{"benchmark": "shock", "layout": "{layout}", "deadline_ms": 0}}"#);
                let r = client.post("/v1/evaluate", &body).unwrap();
                (layout, r.status, r.text())
            })
        })
        .collect();
    for t in threads {
        let (layout, status, text) = t.join().unwrap();
        assert_eq!(status, 504, "{layout}: {text}");
        // The 504 shape: the error string and completed=false.
        let v = tac25d_obs::json::parse(&text).unwrap();
        assert_eq!(v.get("error").unwrap().as_str(), Some("deadline expired"));
        assert_eq!(v.get("completed").unwrap().as_bool(), Some(false));
    }

    // None of the aborted solves may have been cached: re-running each
    // layout with no deadline must return 200 and match a cold engine
    // byte-for-byte (a cached aborted evaluation would diverge).
    for layout in layouts {
        let mut client = Client::connect(&addr).unwrap();
        let body = format!(r#"{{"benchmark": "shock", "layout": "{layout}"}}"#);
        let r = client.post("/v1/evaluate", &body).unwrap();
        assert_eq!(r.status, 200, "{layout}: {}", r.text());
        let req = tac25d_serve::protocol::EvaluateRequest::from_json(
            &tac25d_obs::json::parse(&body).unwrap(),
        )
        .unwrap();
        let expected = engine().evaluate(&req, None).body;
        assert_eq!(
            r.text(),
            expected,
            "{layout}: daemon diverged from a cold engine after an aborted solve"
        );
    }

    handle.shutdown();
}

#[test]
fn full_intake_queue_sheds_with_503_without_wedging_the_pool() {
    let (handle, addr, _engine) = boot(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });

    // Occupy the single worker with an idle connection, then fill the
    // 1-slot queue with a second. Both send no bytes, so they hold their
    // positions until closed.
    let blocker = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(300)); // worker dequeues it
    let queued = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    // The next connection must be shed with 503 + Retry-After.
    let mut shed = Client::connect(&addr).unwrap();
    let r = shed.get("/healthz").unwrap();
    assert_eq!(r.status, 503, "{}", r.text());
    assert_eq!(r.header("retry-after"), Some("1"));

    // Release the pool: the shed connection did not wedge anything.
    drop(blocker);
    drop(queued);
    std::thread::sleep(Duration::from_millis(300));
    let mut ok = Client::connect(&addr).unwrap();
    assert_eq!(ok.get("/healthz").unwrap().status, 200);

    handle.shutdown();
}

#[test]
fn request_id_is_header_only_and_custom_ids_are_honored() {
    let (handle, addr, _engine) = boot(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    let body = r#"{"benchmark": "hpccg", "layout": "uniform:4,6"}"#;
    let plain = client.post("/v1/evaluate", body).unwrap();
    assert_eq!(plain.status, 200);
    let minted = plain.header("x-request-id").expect("minted id echoed");
    assert!(minted.starts_with("req-"), "unexpected minted id {minted}");

    let custom = client
        .post_with("/v1/evaluate", body, &[("X-Request-Id", "itest-custom-7")])
        .unwrap();
    assert_eq!(custom.header("x-request-id"), Some("itest-custom-7"));
    // Identity is header-only: the body must not change with the id.
    assert_eq!(custom.text(), plain.text());

    // Garbage ids (non-graphic, oversized) are replaced with minted ones.
    let long = "x".repeat(200);
    let replaced = client
        .post_with("/v1/evaluate", body, &[("X-Request-Id", &long)])
        .unwrap();
    let got = replaced.header("x-request-id").expect("id echoed");
    assert!(got.starts_with("req-"), "oversized id not replaced: {got}");

    handle.shutdown();
}

#[test]
fn metrics_history_is_served_over_http() {
    let (handle, addr, _engine) = boot(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    let r = client.get("/metrics/history").unwrap();
    assert_eq!(r.status, 200);
    let v = tac25d_obs::json::parse(&r.text()).expect("history JSON parses");
    assert!(v.get("capacity").unwrap().as_f64().unwrap() >= 1.0);
    assert!(v.get("interval_ms").unwrap().as_f64().unwrap() >= 1.0);
    // The sampler takes one snapshot immediately at boot, so the buffer
    // is never empty; sequence numbers are monotone.
    let samples = v.get("samples").unwrap().as_array().expect("samples");
    assert!(!samples.is_empty(), "history empty right after boot");
    let seqs: Vec<f64> = samples
        .iter()
        .map(|s| s.get("seq").unwrap().as_f64().unwrap())
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[1] > w[0]),
        "seqs not monotone: {seqs:?}"
    );

    handle.shutdown();
}

#[test]
fn trace_exemplars_cover_evaluates_but_never_probes() {
    let (handle, addr, _engine) = boot(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();

    // Probes first: they must not leave exemplars.
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    assert_eq!(client.get("/metrics").unwrap().status, 200);
    let body = r#"{"benchmark": "hpccg", "layout": "uniform:4,6"}"#;
    let r = client
        .post_with("/v1/evaluate", body, &[("X-Request-Id", "itest-trace-1")])
        .unwrap();
    assert_eq!(r.status, 200);

    let list = client.get("/v1/traces").unwrap();
    assert_eq!(list.status, 200);
    let v = tac25d_obs::json::parse(&list.text()).expect("trace list parses");
    let traces = v.get("traces").unwrap().as_array().expect("traces");
    assert!(!traces.is_empty(), "evaluate left no exemplar");
    for t in traces {
        let endpoint = t.get("endpoint").unwrap().as_str().unwrap();
        assert!(
            endpoint == "evaluate" || endpoint == "optimize",
            "probe leaked into the exemplar store: {endpoint}"
        );
    }

    let one = client.get("/v1/traces/itest-trace-1").unwrap();
    assert_eq!(one.status, 200, "{}", one.text());
    let doc = tac25d_obs::json::parse(&one.text()).expect("trace parses");
    assert_eq!(doc.get("id").unwrap().as_str(), Some("itest-trace-1"));
    let spans = doc.get("spans").unwrap().as_array().expect("spans");
    assert_eq!(
        spans[0].get("name").unwrap().as_str(),
        Some("serve.evaluate"),
        "trace root is not the endpoint span"
    );
    assert!(
        doc.get("counters").is_some(),
        "trace missing counter deltas"
    );

    assert_eq!(
        client.get("/v1/traces/itest-no-such-id").unwrap().status,
        404
    );

    handle.shutdown();
}

#[test]
fn untraced_daemon_stores_nothing_but_keeps_the_header_contract() {
    let (handle, addr, engine) = boot(ServerConfig {
        tracing: false,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();

    let body = r#"{"benchmark": "shock", "layout": "uniform:2,4"}"#;
    let r = client
        .post_with("/v1/evaluate", body, &[("X-Request-Id", "itest-untraced")])
        .unwrap();
    assert_eq!(r.status, 200);
    // The wire contract is identical without tracing: id echoed,
    // body byte-identical to the local engine.
    assert_eq!(r.header("x-request-id"), Some("itest-untraced"));
    let expected = engine
        .evaluate(
            &tac25d_serve::protocol::EvaluateRequest::from_json(
                &tac25d_obs::json::parse(body).unwrap(),
            )
            .unwrap(),
            None,
        )
        .body;
    assert_eq!(r.text(), expected);

    // But nothing is captured.
    let list = client.get("/v1/traces").unwrap();
    let v = tac25d_obs::json::parse(&list.text()).unwrap();
    assert!(
        v.get("traces").unwrap().as_array().unwrap().is_empty(),
        "untraced daemon stored an exemplar"
    );
    assert_eq!(client.get("/v1/traces/itest-untraced").unwrap().status, 404);

    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let (handle, addr, _engine) = boot(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.get("/healthz").unwrap().status, 200);
    handle.shutdown();
    // After drain the daemon no longer serves.
    let gone = Client::connect(&addr)
        .and_then(|mut c| c.get("/healthz"))
        .is_err();
    assert!(gone, "daemon still answering after shutdown");
}

#[test]
fn non_finite_layouts_get_422_and_keep_the_pool() {
    let workers = 2;
    let (handle, addr, engine) = boot(ServerConfig {
        workers,
        ..ServerConfig::default()
    });

    // One fresh connection per request, so each lands on whichever worker
    // is idle: more bad requests than workers would reach every worker.
    for _ in 0..workers + 2 {
        let mut client = Client::connect(&addr).unwrap();
        let r = client
            .post(
                "/v1/evaluate",
                r#"{"benchmark": "hpccg", "layout": "uniform:4,nan"}"#,
            )
            .unwrap();
        assert_eq!(r.status, 422, "{}", r.text());
        assert!(r.text().contains("non-finite"), "{}", r.text());
    }

    let mut client = Client::connect(&addr).unwrap();
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), r#"{"status":"ok"}"#);

    let body = r#"{"benchmark": "hpccg", "layout": "uniform:4,6"}"#;
    let expected = engine
        .evaluate(
            &tac25d_serve::protocol::EvaluateRequest::from_json(
                &tac25d_obs::json::parse(body).unwrap(),
            )
            .unwrap(),
            None,
        )
        .body;
    let r = client.post("/v1/evaluate", body).unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(r.text(), expected);

    handle.shutdown();
}

#[test]
fn indivisible_uniform_layouts_get_422_without_a_model_build() {
    let (handle, addr, _engine) = boot(ServerConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    // 3 and 64 do not divide the 16-core rows; at gap 0 a 64×64 grid
    // still fits the interposer bound, so only the divisibility check
    // stands between the request and a 4096-chiplet model.
    for (i, layout) in ["uniform:3,4", "uniform:64,0"].iter().enumerate() {
        let id = format!("itest-indivisible-{i}");
        let body = format!(r#"{{"benchmark": "hpccg", "layout": "{layout}"}}"#);
        let r = client
            .post_with("/v1/evaluate", &body, &[("X-Request-Id", &id)])
            .unwrap();
        assert_eq!(r.status, 422, "{layout}: {}", r.text());
        // The request's own counter deltas: immune to other tests
        // building models concurrently in this process.
        let trace = client.get(&format!("/v1/traces/{id}")).unwrap();
        assert_eq!(trace.status, 200, "{}", trace.text());
        let doc = tac25d_obs::json::parse(&trace.text()).expect("trace parses");
        let builds = doc
            .get("counters")
            .expect("trace carries counter deltas")
            .get("thermal.model_builds")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        assert_eq!(builds, 0.0, "{layout} built a thermal model");
    }
    handle.shutdown();
}

#[test]
fn hostile_optimize_fields_get_422_and_keep_the_pool() {
    let workers = 2;
    let (handle, addr, engine) = boot(ServerConfig {
        workers,
        ..ServerConfig::default()
    });

    // Each body once panicked a worker inside the organizer or the
    // objective, or answered 200 with a meaningless objective. More of
    // them than workers, one connection each, so every worker sees one.
    let hostile = [
        r#"{"benchmark": "canneal", "starts": 0}"#,
        r#"{"benchmark": "canneal", "alpha": -1}"#,
        r#"{"benchmark": "canneal", "alpha": 0, "beta": 0}"#,
        r#"{"benchmark": "canneal", "alpha": 1e999}"#,
        r#"{"benchmark": "canneal", "starts": 2.5}"#,
    ];
    assert!(hostile.len() > workers);
    for body in hostile {
        let mut client = Client::connect(&addr).unwrap();
        let r = client.post("/v1/optimize", body).unwrap();
        assert_eq!(r.status, 422, "{body}: {}", r.text());
    }

    let mut client = Client::connect(&addr).unwrap();
    let health = client.get("/healthz").unwrap();
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), r#"{"status":"ok"}"#);

    let body = r#"{"benchmark": "canneal", "starts": 2}"#;
    let r = client.post("/v1/optimize", body).unwrap();
    assert_eq!(r.status, 200, "{}", r.text());
    let expected = engine
        .optimize(
            &tac25d_serve::protocol::OptimizeRequest::from_json(
                &tac25d_obs::json::parse(body).unwrap(),
            )
            .unwrap(),
            None,
        )
        .body;
    assert_eq!(r.text(), expected);

    handle.shutdown();
}
