//! Metric definitions: every end-to-end and per-layer metric, by name,
//! with its unit, computed from a run's windows and traced spans.

use std::collections::BTreeMap;

use tac25d_obs::json::{obj, Value};

use crate::host;
use crate::measure::{median, ratio, Window};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name (`[A-Za-z0-9_.-]`).
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Whether a metric name uses only `[A-Za-z0-9_.-]`, starts with a letter
/// or digit and is at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Everything one invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Set-up checks attempted and failed.
    pub setup_checks: (u64, u64),
    /// The untraced timed window.
    pub window: Window,
    /// The traced window, when tracing.
    pub traced: Option<Traced>,
}

/// The traced window and what its spans recorded.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// The traced timed window.
    pub window: Window,
    /// Obs span rollup by leaf name: (count, total ns, self ns).
    pub spans: BTreeMap<String, (u64, u64, u64)>,
    /// ns of `bench.op` time covered by the program's outermost spans.
    pub covered_ns: u64,
    /// Protocol decode time, µs per request (0 without requests).
    pub decode_us: f64,
}

impl Outcome {
    /// Ops attempted, set-up included.
    pub fn attempted(&self) -> u64 {
        self.setup_checks.0
            + self.window.attempted
            + self.traced.as_ref().map_or(0, |t| t.window.attempted)
    }

    /// Ops that failed or were wrong, set-up included.
    pub fn failed(&self) -> u64 {
        self.setup_checks.1
            + self.window.failed
            + self.traced.as_ref().map_or(0, |t| t.window.failed)
    }

    /// The end-to-end metrics, from the untraced window.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let w = &self.window;
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m("setup_s", median(&self.setup_s), "s"),
            m("throughput_per_s", w.throughput(), "1/s"),
            m("latency_p50_ms", w.latency_ms(50.0), "ms"),
            m("latency_p90_ms", w.latency_ms(90.0), "ms"),
            m("latency_p99_ms", w.latency_ms(99.0), "ms"),
            m("cpu_ms_per_op", w.cpu_ms_per_op(), "ms"),
            m("rss_mb", host::peak_rss_mb(), "MB"),
        ]
    }

    /// The per-layer metrics: counts from the untraced window, span times
    /// from the traced one. Layers a workload bypasses read 0.
    ///
    /// # Panics
    ///
    /// Panics when the run was not traced.
    pub fn per_layer(&self) -> Vec<Metric> {
        let t = self
            .traced
            .as_ref()
            .expect("per-layer metrics need a traced run");
        let w = &self.window;
        let c = |name: &str| w.registry.counter(name) as f64;
        let traced_ops = t.window.ops() as f64;
        let self_ns = |names: &[&str]| -> f64 {
            names
                .iter()
                .filter_map(|n| t.spans.get(*n))
                .map(|&(_, _, s)| s as f64)
                .sum()
        };
        let self_ms = |names: &[&str]| ratio(self_ns(names) / 1e6, traced_ops);
        let total_ns = |name: &str| t.spans.get(name).map_or(0.0, |&(_, total, _)| total as f64);
        let serving = t.spans.contains_key("serve.evaluate");
        let unattributed_ns = total_ns("bench.op") - t.covered_ns as f64;
        let m = |name, value, unit| Metric { name, value, unit };
        vec![
            m(
                "core.exact_solves_per_op",
                w.per_op("evaluator.exact_solves"),
                "count",
            ),
            m(
                "core.cache_hit_ratio",
                ratio(
                    c("evaluator.cache_hits"),
                    c("evaluator.cache_hits") + c("evaluator.exact_solves"),
                ),
                "ratio",
            ),
            m(
                "core.model_reuse_ratio",
                ratio(
                    c("evaluator.model_reuses"),
                    c("evaluator.model_reuses") + c("thermal.model_builds"),
                ),
                "ratio",
            ),
            m(
                "core.singleflight_joins_per_op",
                w.per_op("evaluator.singleflight_joins"),
                "count",
            ),
            m(
                "core.optimizer.moves_evaluated_per_op",
                w.per_op("optimizer.moves_evaluated"),
                "count",
            ),
            m(
                "core.optimizer.move_accept_ratio",
                ratio(
                    c("optimizer.moves_accepted"),
                    c("optimizer.moves_evaluated"),
                ),
                "ratio",
            ),
            m(
                "core.optimizer.greedy_starts_per_op",
                w.per_op("optimizer.greedy_starts"),
                "count",
            ),
            m(
                "core.optimizer.draft_refutes_per_op",
                w.per_op("optimizer.draft_refutes"),
                "count",
            ),
            m(
                "core.optimizer.self_ms_per_op",
                self_ms(&[
                    "optimizer.optimize",
                    "optimizer.greedy_start",
                    "optimizer.tie_run",
                ]),
                "ms",
            ),
            m(
                "surrogate.kernel_solves_per_op",
                w.per_op("surrogate.kernel_solves"),
                "count",
            ),
            m(
                "surrogate.kernel_build.self_ms_per_op",
                self_ms(&["surrogate.kernel_build"]),
                "ms",
            ),
            m(
                "surrogate.predictions_per_op",
                w.per_op("surrogate.predictions"),
                "count",
            ),
            m(
                "surrogate.knn_hit_ratio",
                ratio(
                    c("surrogate.knn_corrector_hits"),
                    c("surrogate.predictions"),
                ),
                "ratio",
            ),
            m(
                "surrogate.analytic_grad_evals_per_op",
                w.per_op("optimizer.analytic_grad_evals"),
                "count",
            ),
            m(
                "thermal.model_builds_per_op",
                w.per_op("thermal.model_builds"),
                "count",
            ),
            m(
                "thermal.ic0_factorizations_per_op",
                w.per_op("thermal.ic0_factorizations"),
                "count",
            ),
            m(
                "thermal.matrix_assembly.self_ms_per_op",
                self_ms(&["thermal.matrix_assembly"]),
                "ms",
            ),
            m(
                "thermal.pcg_solves_per_op",
                w.per_op("thermal.pcg_solves"),
                "count",
            ),
            m(
                "thermal.pcg_iterations_per_solve",
                ratio(c("thermal.pcg_iterations"), c("thermal.pcg_solves")),
                "count",
            ),
            m(
                "thermal.pcg_solve.self_ms_per_op",
                self_ms(&["thermal.pcg_solve"]),
                "ms",
            ),
            m(
                "thermal.outer_iterations_per_solve",
                ratio(
                    c("thermal.leakage_outer_iterations"),
                    c("thermal.coupled_solves"),
                ),
                "count",
            ),
            m(
                "thermal.leakage_fixed_point.self_ms_per_op",
                self_ms(&["thermal.leakage_fixed_point"]),
                "ms",
            ),
            m(
                "thermal.warm_start_ratio",
                ratio(c("thermal.warm_start_hits"), c("thermal.pcg_solves")),
                "ratio",
            ),
            m(
                "thermal.mg_vcycles_per_op",
                w.per_op("thermal.mg_vcycles"),
                "count",
            ),
            m(
                "thermal.mg_escalations_per_op",
                w.per_op("thermal.mg_escalations"),
                "count",
            ),
            m(
                "thermal.pcg_failures_per_op",
                w.per_op("thermal.pcg_failures"),
                "count",
            ),
            m(
                "serve.evaluate.self_us_per_op",
                ratio(self_ns(&["serve.evaluate"]) / 1e3, traced_ops),
                "us",
            ),
            m(
                "serve.transport_us_per_op",
                if serving {
                    ratio(
                        (total_ns("bench.op") - total_ns("serve.evaluate")) / 1e3,
                        traced_ops,
                    )
                } else {
                    0.0
                },
                "us",
            ),
            m(
                "serve.queue_wait_us_mean",
                w.registry.queue_wait_mean_us(),
                "us",
            ),
            m("serve.protocol.decode_us_per_op", t.decode_us, "us"),
            m("serve.shed_per_op", w.per_op("serve.shed"), "count"),
            m(
                "serve.deadline_hits_per_op",
                w.per_op("serve.deadline_hits"),
                "count",
            ),
            m(
                "bench.op.self_ms_per_op",
                ratio(unattributed_ns / 1e6, traced_ops),
                "ms",
            ),
            m(
                "bench.error_rate",
                ratio(self.failed() as f64, self.attempted() as f64),
                "ratio",
            ),
            m(
                "obs.trace_overhead_ratio",
                ratio(t.window.throughput(), w.throughput()),
                "ratio",
            ),
        ]
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let metrics: Vec<(String, Value)> = metrics
        .iter()
        .map(|m| {
            (
                m.name.to_owned(),
                obj([
                    ("value", Value::from(m.value)),
                    ("unit", Value::from(m.unit)),
                ]),
            )
        })
        .collect();
    obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::from(attempted)),
        ("failed", Value::from(failed)),
        ("metrics", Value::from(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_outcome() -> Outcome {
        Outcome {
            setup_s: vec![1.0, 3.0, 2.0],
            traced: Some(Traced::default()),
            ..Outcome::default()
        }
    }

    #[test]
    fn metric_names_use_the_allowed_charset_and_are_unique() {
        let outcome = traced_outcome();
        let metrics: Vec<Metric> = outcome
            .end_to_end()
            .into_iter()
            .chain(outcome.per_layer())
            .collect();
        let mut seen = std::collections::HashSet::new();
        for m in &metrics {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} twice", m.name);
            assert!(m.value.is_finite(), "{}", m.name);
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("µs"));
        assert!(!valid_name(&"x".repeat(65)));
        assert_eq!(outcome.end_to_end()[0].value, 2.0, "setup_s is the median");
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let doc = tac25d_obs::json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Value::as_str).expect(f).to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let reported = |metrics: Vec<Metric>| -> Vec<(String, String)> {
            metrics
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect()
        };
        let outcome = traced_outcome();
        assert_eq!(declared("end_to_end"), reported(outcome.end_to_end()));
        assert_eq!(declared("per_layer"), reported(outcome.per_layer()));
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(
            10,
            0,
            &[Metric {
                name: "latency_p50_ms",
                value: 1.25,
                unit: "ms",
            }],
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":10,"failed":0,"metrics":{"latency_p50_ms":{"value":1.25,"unit":"ms"}}}"#
        );
    }
}
