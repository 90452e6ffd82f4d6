//! The deterministic request-evaluation core shared by the daemon and the
//! one-shot `tac25d query --local` path.
//!
//! One [`EngineState`] per process wraps one [`Evaluator`] family: every
//! request gets a cheap per-request handle (with its own deadline) onto the
//! same striped memo tables, so concurrent clients warm one cache. No thermal surrogate is attached — surrogate
//! screening adapts to observation history, which would make responses
//! depend on request arrival order; the serve contract is that a response
//! is **byte-identical** to a cold one-shot evaluation of the same request
//! (pinned by `verify serve`). For the same reason response JSON excludes
//! cache-warmth-dependent statistics (`thermal_sims`) and renders floats
//! with `f64`'s shortest round-trip formatting.

use std::time::Instant;
use tac25d_core::prelude::*;
use tac25d_floorplan::units::Celsius;
use tac25d_obs::json::{obj, Value};

use crate::protocol::{layout_grammar, EvaluateRequest, OptimizeRequest};

/// Status + JSON body produced by the engine for one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineResult {
    /// HTTP status the transport should send.
    pub status: u16,
    /// Response body (always a JSON document).
    pub body: String,
}

impl EngineResult {
    fn ok(v: Value) -> EngineResult {
        EngineResult {
            status: 200,
            body: v.render(),
        }
    }

    fn error(status: u16, message: impl Into<String>) -> EngineResult {
        EngineResult {
            status,
            body: obj([("error", Value::String(message.into()))]).render(),
        }
    }
}

/// The process-wide warm state behind every endpoint.
pub struct EngineState {
    evaluator: Evaluator,
}

impl EngineState {
    /// Creates an engine around a system specification. The spec's own
    /// `threshold` is the server default; per-request `threshold_c` values
    /// are honored exactly (evaluation feasibility is pure arithmetic on
    /// the solved temperature field, and optimize runs that need a
    /// different threshold get a dedicated evaluator).
    pub fn new(spec: SystemSpec) -> EngineState {
        EngineState {
            evaluator: Evaluator::new(spec),
        }
    }

    /// The underlying system specification.
    pub fn spec(&self) -> &SystemSpec {
        self.evaluator.spec()
    }

    /// The shared evaluator family (for counters and tests).
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    fn handle(&self, deadline: Option<Instant>) -> Evaluator {
        match deadline {
            Some(d) => self.evaluator.with_deadline(d),
            None => self.evaluator.share(),
        }
    }

    /// Runs one `/v1/evaluate` request. `deadline` is the transport-level
    /// deadline (request `deadline_ms` already merged with the server
    /// default by the caller).
    pub fn evaluate(&self, req: &EvaluateRequest, deadline: Option<Instant>) -> EngineResult {
        // Root of the request's trace capture; inert unless obs or a
        // per-thread trace collector is active.
        let _span = tac25d_obs::span!("serve.evaluate");
        let spec = self.spec();
        let Some(op) = spec.vf.at_frequency(req.freq_mhz) else {
            return EngineResult::error(422, format!("no VF point at {} MHz", req.freq_mhz));
        };
        let core_count = spec.chip.core_count();
        if let Err(message) = req.check_cores(core_count) {
            return EngineResult::error(422, message);
        }
        let threshold = Celsius(req.threshold_c);
        let ev = self.handle(deadline);
        match ev.evaluate(&req.layout, req.benchmark, op, req.cores) {
            Ok(e) => EngineResult::ok(obj([
                ("layout", Value::from(layout_grammar(&req.layout))),
                ("benchmark", Value::from(req.benchmark.name())),
                ("op", Value::from(op.to_string())),
                ("active_cores", Value::from(e.active_cores)),
                (
                    "dark_cores",
                    Value::from(core_count.saturating_sub(e.active_cores)),
                ),
                ("peak_c", Value::from(e.peak.value())),
                ("total_power_w", Value::from(e.total_power.value())),
                ("noc_power_w", Value::from(e.noc_power.value())),
                ("ips", Value::from(e.ips.0)),
                ("converged", Value::from(e.converged)),
                ("threshold_c", Value::from(req.threshold_c)),
                ("feasible", Value::from(e.feasible(threshold))),
            ])),
            Err(err) => eval_error_result(&err),
        }
    }

    /// Runs one `/v1/optimize` request.
    pub fn optimize(&self, req: &OptimizeRequest, deadline: Option<Instant>) -> EngineResult {
        let _span = tac25d_obs::span!("serve.optimize");
        let spec = self.spec();
        let cfg = req.config();
        // A request at the server threshold shares the warm evaluator
        // family; any other threshold gets a dedicated cold evaluator
        // (thresholds steer the *search*, and the memoized evaluations are
        // threshold-free, but `optimize` reads its bound from the spec).
        let ev = if req.threshold_c == spec.threshold.value() {
            self.handle(deadline)
        } else {
            let mut custom = spec.clone();
            custom.threshold = Celsius(req.threshold_c);
            let cold = Evaluator::new(custom);
            match deadline {
                Some(d) => cold.with_deadline(d),
                None => cold,
            }
        };
        let outcome = if req.iso_cost {
            optimize_with_filter(&ev, req.benchmark, &cfg, |c, base| c.cost <= base.cost)
        } else {
            optimize(&ev, req.benchmark, &cfg)
        };
        match outcome {
            Ok(result) => EngineResult::ok(render_optimize(req, &result)),
            Err(OptimizeError::Eval(e)) => eval_error_result(&e),
            Err(OptimizeError::NoBaseline(b)) => EngineResult::error(
                422,
                format!("benchmark {b} has no feasible single-chip baseline"),
            ),
        }
    }
}

/// Maps evaluation errors to transport results: deadline expiry is `504`,
/// bad inputs are `422`, solver trouble is `500`.
fn eval_error_result(err: &EvalError) -> EngineResult {
    match err {
        EvalError::Deadline => EngineResult {
            status: 504,
            body: obj([
                ("error", Value::from("deadline expired")),
                ("completed", Value::from(false)),
            ])
            .render(),
        },
        EvalError::Layout(_) | EvalError::Timing(_) => EngineResult::error(422, err.to_string()),
        _ => EngineResult::error(500, err.to_string()),
    }
}

fn render_optimize(req: &OptimizeRequest, result: &OptimizeResult) -> Value {
    let base = &result.baseline;
    let baseline = obj([
        ("op", Value::from(base.op.to_string())),
        ("active_cores", Value::from(base.active_cores)),
        ("ips", Value::from(base.ips.0)),
        ("peak_c", Value::from(base.peak.value())),
        ("cost", Value::from(base.cost)),
    ]);
    let best = match &result.best {
        None => Value::Null,
        Some(best) => {
            let c = &best.candidate;
            let r = u64::from(c.count.r());
            obj([
                ("layout", Value::from(layout_grammar(&best.layout))),
                ("chiplets", Value::from(r * r)),
                ("edge_mm", Value::from(c.edge.value())),
                ("op", Value::from(c.op.to_string())),
                ("active_cores", Value::from(c.active_cores)),
                ("ips", Value::from(c.ips.0)),
                ("peak_c", Value::from(best.peak.value())),
                ("total_power_w", Value::from(best.total_power.value())),
                ("cost", Value::from(c.cost)),
                ("objective", Value::from(c.objective)),
                ("normalized_perf", Value::from(best.normalized_perf)),
                ("normalized_cost", Value::from(best.normalized_cost)),
            ])
        }
    };
    // `stats` deliberately omits `thermal_sims` (and the surrogate fields,
    // zero without a surrogate): those depend on cache warmth, i.e. on
    // what other requests ran before this one, and would break the
    // byte-identity contract with one-shot evaluation.
    let stats = obj([
        (
            "candidates_total",
            Value::from(result.stats.candidates_total),
        ),
        (
            "candidates_tried",
            Value::from(result.stats.candidates_tried),
        ),
        (
            "candidates_pruned",
            Value::from(result.stats.candidates_pruned),
        ),
    ]);
    obj([
        ("benchmark", Value::from(req.benchmark.name())),
        ("seed", Value::from(req.seed)),
        ("threshold_c", Value::from(req.threshold_c)),
        ("baseline", baseline),
        ("best", best),
        ("stats", stats),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac25d_obs::json::parse;

    fn engine() -> EngineState {
        let mut spec = SystemSpec::fast();
        spec.thermal.grid = 16;
        EngineState::new(spec)
    }

    fn eval_req(body: &str) -> EvaluateRequest {
        EvaluateRequest::from_json(&parse(body).unwrap()).unwrap()
    }

    #[test]
    fn evaluate_is_deterministic_and_cache_independent() {
        let warm = engine();
        let req = eval_req(r#"{"benchmark": "hpccg", "layout": "uniform:4,6"}"#);
        let first = warm.evaluate(&req, None);
        assert_eq!(first.status, 200, "{}", first.body);
        // Same engine, warm cache: byte-identical.
        assert_eq!(warm.evaluate(&req, None), first);
        // Fresh engine, cold cache: still byte-identical (the contract
        // `verify serve` holds the daemon to).
        assert_eq!(engine().evaluate(&req, None), first);
        let v = parse(&first.body).unwrap();
        assert_eq!(v.get("active_cores").unwrap().as_f64(), Some(256.0));
        assert_eq!(v.get("dark_cores").unwrap().as_f64(), Some(0.0));
        assert!(v.get("peak_c").unwrap().as_f64().unwrap() > 40.0);
    }

    #[test]
    fn evaluate_rejects_bad_operating_points() {
        let e = engine();
        let r = e.evaluate(
            &eval_req(r#"{"benchmark": "hpccg", "layout": "2d", "freq_mhz": 123}"#),
            None,
        );
        assert_eq!(r.status, 422);
        let r = e.evaluate(
            &eval_req(r#"{"benchmark": "hpccg", "layout": "2d", "cores": 9999}"#),
            None,
        );
        assert_eq!(r.status, 422);
    }

    #[test]
    fn expired_deadline_yields_504_with_partial_progress() {
        let e = engine();
        let req = eval_req(r#"{"benchmark": "shock", "layout": "uniform:4,9"}"#);
        let r = e.evaluate(&req, Some(Instant::now()));
        assert_eq!(r.status, 504, "{}", r.body);
        let v = parse(&r.body).unwrap();
        assert_eq!(v.get("completed").unwrap().as_bool(), Some(false));
        assert!(v.get("outer_iterations").is_none());
        // The engine stays serviceable after the abort.
        assert_eq!(e.evaluate(&req, None).status, 200);
    }

    #[test]
    fn per_request_threshold_controls_feasibility_only() {
        let e = engine();
        let lenient = e.evaluate(
            &eval_req(r#"{"benchmark": "shock", "layout": "2d", "threshold_c": 1000}"#),
            None,
        );
        let strict = e.evaluate(
            &eval_req(r#"{"benchmark": "shock", "layout": "2d", "threshold_c": 20}"#),
            None,
        );
        let lv = parse(&lenient.body).unwrap();
        let sv = parse(&strict.body).unwrap();
        assert_eq!(
            lv.get("peak_c").unwrap().as_f64(),
            sv.get("peak_c").unwrap().as_f64(),
            "threshold must not perturb the physics"
        );
        assert_eq!(lv.get("feasible").unwrap().as_bool(), Some(true));
        assert_eq!(sv.get("feasible").unwrap().as_bool(), Some(false));
    }
}
