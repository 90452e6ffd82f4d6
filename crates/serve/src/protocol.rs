//! The wire protocol: request parsing and the shared layout grammar.
//!
//! Requests are JSON objects parsed with [`tac25d_obs::json`]. Layouts use
//! the CLI's textual grammar (`2d | uniform:<r>,<gap-mm> | sym4:<s3> |
//! sym16:<s1>,<s2>,<s3>`) so a request body can be assembled from the same
//! strings the `tac25d` subcommands take; [`parse_layout`] is the single
//! parser both sides share.

use tac25d_core::prelude::{OptimizerConfig, PlacementSearch, Weights};
use tac25d_floorplan::organization::{ChipletLayout, Spacing};
use tac25d_floorplan::units::Mm;
use tac25d_obs::json::Value;
use tac25d_power::benchmarks::Benchmark;

/// Parses the CLI/service layout grammar.
///
/// # Errors
///
/// Returns a human-readable message for unknown kinds or malformed
/// parameter lists.
pub fn parse_layout(s: &str) -> Result<ChipletLayout, String> {
    let (kind, params) = s.split_once(':').unwrap_or((s, ""));
    let nums = || -> Result<Vec<f64>, String> {
        params
            .split(',')
            .filter(|p| !p.is_empty())
            .map(|p| {
                p.parse::<f64>()
                    .map_err(|e| format!("bad number {p:?}: {e}"))
            })
            .collect()
    };
    match kind {
        "2d" => Ok(ChipletLayout::SingleChip),
        "uniform" => {
            let v = nums()?;
            if v.len() != 2 {
                return Err("uniform needs <r>,<gap>".into());
            }
            // An exact integer in range: a cast would truncate 2.5 to 2
            // and saturate negatives and huge counts.
            let r = v[0];
            if !(r.fract() == 0.0 && (2.0..=f64::from(u16::MAX)).contains(&r)) {
                return Err(format!(
                    "uniform chiplet count must be an integer in 2..={}, got {r}",
                    u16::MAX
                ));
            }
            Ok(ChipletLayout::Uniform {
                r: r as u16,
                gap: Mm(v[1]),
            })
        }
        "sym4" => {
            let v = nums()?;
            if v.len() != 1 {
                return Err("sym4 needs <s3>".into());
            }
            Ok(ChipletLayout::Symmetric4 { s3: Mm(v[0]) })
        }
        "sym16" => {
            let v = nums()?;
            if v.len() != 3 {
                return Err("sym16 needs <s1>,<s2>,<s3>".into());
            }
            Ok(ChipletLayout::Symmetric16 {
                spacing: Spacing::new(v[0], v[1], v[2]),
            })
        }
        other => Err(format!("unknown layout kind {other:?}")),
    }
}

/// Renders a layout back into the grammar [`parse_layout`] accepts, so a
/// response's `layout` field can be pasted into the next request.
/// Round-trip stable: `parse_layout(&layout_grammar(&l))` reproduces `l`
/// exactly (millimetre values print via `f64`'s shortest round-trip
/// formatting).
pub fn layout_grammar(layout: &ChipletLayout) -> String {
    match layout {
        ChipletLayout::SingleChip => "2d".to_owned(),
        ChipletLayout::Uniform { r, gap } => format!("uniform:{r},{}", gap.value()),
        ChipletLayout::Symmetric4 { s3 } => format!("sym4:{}", s3.value()),
        ChipletLayout::Symmetric16 { spacing } => format!(
            "sym16:{},{},{}",
            spacing.s1.value(),
            spacing.s2.value(),
            spacing.s3.value()
        ),
    }
}

/// Parses a benchmark name.
///
/// # Errors
///
/// Returns a message listing nothing when the name is unknown.
pub fn parse_benchmark(name: &str) -> Result<Benchmark, String> {
    Benchmark::all()
        .into_iter()
        .find(|b| b.name() == name)
        .ok_or_else(|| format!("unknown benchmark {name:?}"))
}

fn required_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .ok_or_else(|| format!("{key:?} is required"))?
        .as_str()
        .ok_or_else(|| format!("{key:?} must be a string"))
}

fn optional_f64(v: &Value, key: &str, default: f64) -> Result<f64, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(x) => x
            .as_f64()
            .ok_or_else(|| format!("{key:?} must be a number")),
    }
}

fn optional_finite(v: &Value, key: &str, default: f64) -> Result<f64, String> {
    let x = optional_f64(v, key, default)?;
    if x.is_finite() {
        Ok(x)
    } else {
        Err(format!("{key:?} must be finite"))
    }
}

/// An integral number in `lo..=hi`. JSON numbers decode as `f64`, so an
/// `as` cast alone would silently truncate `2.5` and saturate `-1` or `1e9`.
fn optional_int(v: &Value, key: &str, default: u64, lo: u64, hi: u64) -> Result<u64, String> {
    let x = optional_f64(v, key, default as f64)?;
    if x.fract() == 0.0 && x >= lo as f64 && x <= hi as f64 {
        Ok(x as u64)
    } else {
        Err(format!("{key:?} must be an integer in {lo}..={hi}"))
    }
}

/// Largest integer a JSON number carries exactly.
const MAX_EXACT_INT: u64 = 1 << 53;

/// Most greedy starts one optimize request may ask for.
const MAX_STARTS: u64 = 1000;

fn optional_bool(v: &Value, key: &str, default: bool) -> Result<bool, String> {
    match v.get(key) {
        None | Some(Value::Null) => Ok(default),
        Some(x) => x
            .as_bool()
            .ok_or_else(|| format!("{key:?} must be a boolean")),
    }
}

fn optional_deadline_ms(v: &Value) -> Result<Option<u64>, String> {
    match v.get("deadline_ms") {
        None | Some(Value::Null) => Ok(None),
        Some(x) => {
            let ms = x
                .as_f64()
                .filter(|m| m.is_finite() && *m >= 0.0)
                .ok_or("\"deadline_ms\" must be a non-negative number")?;
            Ok(Some(ms as u64))
        }
    }
}

/// `POST /v1/evaluate` — one organization at one operating point.
#[derive(Debug, Clone)]
pub struct EvaluateRequest {
    /// Benchmark to evaluate.
    pub benchmark: Benchmark,
    /// Organization, in the shared layout grammar.
    pub layout: ChipletLayout,
    /// Clock frequency; must name a VF-table point. Default 1000.
    pub freq_mhz: f64,
    /// Active core count. Default 256.
    pub cores: u16,
    /// Feasibility threshold, °C. Default 85.
    pub threshold_c: f64,
    /// Client deadline in milliseconds, bounded by the server default.
    pub deadline_ms: Option<u64>,
}

impl EvaluateRequest {
    /// Parses a request body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for missing or mistyped fields.
    pub fn from_json(v: &Value) -> Result<EvaluateRequest, String> {
        if v.as_object().is_none() {
            return Err("request body must be a JSON object".into());
        }
        Ok(EvaluateRequest {
            benchmark: parse_benchmark(required_str(v, "benchmark")?)?,
            layout: parse_layout(required_str(v, "layout")?)?,
            freq_mhz: optional_finite(v, "freq_mhz", 1000.0)?,
            cores: optional_int(v, "cores", 256, 0, u64::from(u16::MAX))? as u16,
            threshold_c: optional_finite(v, "threshold_c", 85.0)?,
            deadline_ms: optional_deadline_ms(v)?,
        })
    }

    /// Checks the active core count against the chip: `1..=core_count`.
    /// The daemon and the `tac25d evaluate` command share this check.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when `cores` is out of range.
    pub fn check_cores(&self, core_count: u16) -> Result<(), String> {
        if self.cores == 0 || self.cores > core_count {
            return Err(format!(
                "cores must be in 1..={core_count}, got {}",
                self.cores
            ));
        }
        Ok(())
    }
}

/// `POST /v1/optimize` — a full organizer run.
#[derive(Debug, Clone)]
pub struct OptimizeRequest {
    /// Benchmark to optimize for.
    pub benchmark: Benchmark,
    /// Performance weight α. Default 1.
    pub alpha: f64,
    /// Cost weight β. Default 0.
    pub beta: f64,
    /// Multi-start greedy start count. Default 10.
    pub starts: usize,
    /// Search seed — per-request, so clients control reproducibility.
    /// Default 42.
    pub seed: u64,
    /// Feasibility threshold, °C. Default 85.
    pub threshold_c: f64,
    /// Restrict to organizations at or below the single-chip cost.
    pub iso_cost: bool,
    /// Exhaustive search instead of multi-start greedy.
    pub exhaustive: bool,
    /// Client deadline in milliseconds, bounded by the server default.
    pub deadline_ms: Option<u64>,
}

impl OptimizeRequest {
    /// Parses a request body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for missing, mistyped or
    /// out-of-range fields, including weights `Weights::new` would reject.
    pub fn from_json(v: &Value) -> Result<OptimizeRequest, String> {
        if v.as_object().is_none() {
            return Err("request body must be a JSON object".into());
        }
        let alpha = optional_finite(v, "alpha", 1.0)?;
        let beta = optional_finite(v, "beta", 0.0)?;
        if alpha < 0.0 || beta < 0.0 || alpha + beta <= 0.0 {
            return Err("\"alpha\" and \"beta\" must be non-negative, not both zero".into());
        }
        Ok(OptimizeRequest {
            benchmark: parse_benchmark(required_str(v, "benchmark")?)?,
            alpha,
            beta,
            starts: optional_int(v, "starts", 10, 1, MAX_STARTS)? as usize,
            seed: optional_int(v, "seed", 42, 0, MAX_EXACT_INT)?,
            threshold_c: optional_finite(v, "threshold_c", 85.0)?,
            iso_cost: optional_bool(v, "iso_cost", false)?,
            exhaustive: optional_bool(v, "exhaustive", false)?,
            deadline_ms: optional_deadline_ms(v)?,
        })
    }

    /// The organizer configuration this request asks for.
    pub fn config(&self) -> OptimizerConfig {
        OptimizerConfig {
            weights: Weights::new(self.alpha, self.beta),
            search: if self.exhaustive {
                PlacementSearch::Exhaustive
            } else {
                PlacementSearch::MultiStartGreedy {
                    starts: self.starts,
                }
            },
            seed: self.seed,
            ..OptimizerConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tac25d_obs::json::parse;

    #[test]
    fn layout_grammar_round_trips_the_cli_forms() {
        assert!(matches!(
            parse_layout("2d").unwrap(),
            ChipletLayout::SingleChip
        ));
        assert!(matches!(
            parse_layout("uniform:4,6").unwrap(),
            ChipletLayout::Uniform { r: 4, .. }
        ));
        assert!(matches!(
            parse_layout("sym4:5").unwrap(),
            ChipletLayout::Symmetric4 { .. }
        ));
        assert!(matches!(
            parse_layout("sym16:4,2,5").unwrap(),
            ChipletLayout::Symmetric16 { .. }
        ));
        assert!(parse_layout("hex:1").is_err());
        assert!(parse_layout("uniform:4").is_err());
    }

    #[test]
    fn uniform_chiplet_counts_must_be_integers_in_range() {
        for bad in [
            "uniform:2.5,4",
            "uniform:-3,4",
            "uniform:0,4",
            "uniform:1,4",
            "uniform:65536,4",
            "uniform:1e9,4",
            "uniform:nan,4",
            "uniform:inf,4",
            "uniform:-inf,4",
        ] {
            let err = parse_layout(bad).expect_err(bad);
            assert!(err.contains("chiplet count"), "{bad}: {err}");
        }
        for (good, r) in [
            ("uniform:2,4", 2),
            ("uniform:4.0,6", 4),
            ("uniform:65535,0", 65535),
        ] {
            assert!(
                matches!(parse_layout(good), Ok(ChipletLayout::Uniform { r: got, .. }) if got == r),
                "{good}"
            );
        }
    }

    #[test]
    fn grammar_rendering_round_trips() {
        for s in ["2d", "uniform:4,6.5", "sym4:5.25", "sym16:4,2.5,5"] {
            let layout = parse_layout(s).unwrap();
            let rendered = layout_grammar(&layout);
            assert_eq!(parse_layout(&rendered).unwrap(), layout, "via {rendered}");
        }
    }

    #[test]
    fn evaluate_request_defaults_and_overrides() {
        let v = parse(r#"{"benchmark": "shock", "layout": "uniform:4,6"}"#).unwrap();
        let r = EvaluateRequest::from_json(&v).unwrap();
        assert_eq!(r.freq_mhz, 1000.0);
        assert_eq!(r.cores, 256);
        assert_eq!(r.threshold_c, 85.0);
        assert_eq!(r.deadline_ms, None);

        let v = parse(
            r#"{"benchmark": "hpccg", "layout": "2d", "freq_mhz": 533,
                "cores": 128, "threshold_c": 80, "deadline_ms": 250}"#,
        )
        .unwrap();
        let r = EvaluateRequest::from_json(&v).unwrap();
        assert_eq!(r.freq_mhz, 533.0);
        assert_eq!(r.cores, 128);
        assert_eq!(r.threshold_c, 80.0);
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn evaluate_request_rejects_bad_fields() {
        for body in [
            r#"[1, 2]"#,
            r#"{"layout": "2d"}"#,
            r#"{"benchmark": "shock"}"#,
            r#"{"benchmark": "nope", "layout": "2d"}"#,
            r#"{"benchmark": "shock", "layout": "hex:1"}"#,
            r#"{"benchmark": "shock", "layout": "2d", "deadline_ms": -5}"#,
            r#"{"benchmark": "shock", "layout": "2d", "cores": "many"}"#,
            r#"{"benchmark": "shock", "layout": "2d", "cores": 2.5}"#,
            r#"{"benchmark": "shock", "layout": "2d", "cores": -1}"#,
            r#"{"benchmark": "shock", "layout": "2d", "cores": 1e9}"#,
            r#"{"benchmark": "shock", "layout": "2d", "freq_mhz": 1e999}"#,
            r#"{"benchmark": "shock", "layout": "2d", "threshold_c": -1e999}"#,
        ] {
            let v = parse(body).unwrap();
            assert!(EvaluateRequest::from_json(&v).is_err(), "accepted {body}");
        }
    }

    #[test]
    fn optimize_request_defaults() {
        let v = parse(r#"{"benchmark": "cholesky"}"#).unwrap();
        let r = OptimizeRequest::from_json(&v).unwrap();
        assert_eq!(r.alpha, 1.0);
        assert_eq!(r.beta, 0.0);
        assert_eq!(r.starts, 10);
        assert_eq!(r.seed, 42);
        assert!(!r.iso_cost);
        assert!(!r.exhaustive);
    }

    #[test]
    fn optimize_request_rejects_bad_fields() {
        for body in [
            r#"{"benchmark": "canneal", "alpha": 1e999}"#,
            r#"{"benchmark": "canneal", "beta": -1e999}"#,
            r#"{"benchmark": "canneal", "alpha": -1}"#,
            r#"{"benchmark": "canneal", "beta": -0.5}"#,
            r#"{"benchmark": "canneal", "alpha": 0, "beta": 0}"#,
            r#"{"benchmark": "canneal", "threshold_c": 1e999}"#,
            r#"{"benchmark": "canneal", "starts": 0}"#,
            r#"{"benchmark": "canneal", "starts": 1001}"#,
            r#"{"benchmark": "canneal", "starts": 2.5}"#,
            r#"{"benchmark": "canneal", "seed": 1.5}"#,
            r#"{"benchmark": "canneal", "seed": -1}"#,
            r#"{"benchmark": "canneal", "seed": 1e300}"#,
        ] {
            let v = parse(body).unwrap();
            assert!(OptimizeRequest::from_json(&v).is_err(), "accepted {body}");
        }
    }

    #[test]
    fn optimize_request_accepts_edge_values() {
        let v =
            parse(r#"{"benchmark": "canneal", "alpha": 0, "beta": 1, "starts": 1000, "seed": 0}"#)
                .unwrap();
        let r = OptimizeRequest::from_json(&v).unwrap();
        assert_eq!((r.alpha, r.beta, r.starts, r.seed), (0.0, 1.0, 1000, 0));
    }
}
