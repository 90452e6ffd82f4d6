//! Property tests of the request protocol: `parse_layout` never panics on
//! any input, and a `uniform` layout it accepts always carries exactly the
//! integer chiplet count written — never a truncated or saturated cast;
//! `EvaluateRequest::from_json` and `OptimizeRequest::from_json` answer
//! any JSON value with a request or an error message, never a panic, and
//! valid requests survive a render/parse round trip field for field.

use proptest::prelude::*;
use tac25d_floorplan::organization::ChipletLayout;
use tac25d_obs::json::{obj, parse, Value};
use tac25d_serve::protocol::{parse_layout, EvaluateRequest, OptimizeRequest};

/// Keys of both request kinds, near misses and strangers.
const KEYS: [&str; 16] = [
    "benchmark",
    "layout",
    "freq_mhz",
    "cores",
    "threshold_c",
    "deadline_ms",
    "alpha",
    "beta",
    "starts",
    "seed",
    "iso_cost",
    "exhaustive",
    "Benchmark",
    "cores ",
    "",
    "x",
];

/// Strings that are valid in some field, and strings that are not.
const TEXTS: [&str; 12] = [
    "cholesky",
    "lu.cont",
    "shock",
    "SHOCK",
    "",
    "2d",
    "uniform:4,2",
    "uniform:2.5,4",
    "sym4:3",
    "sym16:1,2,3",
    "uniform:1e300,nan",
    "\u{0}{",
];

/// Numbers a request field may hold, including ones JSON text cannot
/// carry but a decoded document built in memory can.
const NUMBERS: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    2.5,
    256.0,
    1000.0,
    65_536.0,
    9_007_199_254_740_993.0,
    1e300,
    f64::NAN,
    f64::INFINITY,
];

/// One field value of kind `kind`: every JSON type, nested ones included.
fn field_value(kind: usize, num: f64, text: &str, flag: bool) -> Value {
    match kind {
        0 => Value::Null,
        1 => Value::Bool(flag),
        2 => Value::Number(num),
        3 => Value::String(text.to_owned()),
        4 => Value::Array(vec![Value::Number(num), Value::String(text.to_owned())]),
        _ => obj([(text, Value::Number(num))]),
    }
}

const BENCHMARKS: [&str; 8] = [
    "cholesky",
    "lu.cont",
    "blackscholes",
    "swaptions",
    "streamcluster",
    "canneal",
    "hpccg",
    "shock",
];

/// A valid layout string of kind `kind` with spacings drawn from `mm`.
fn valid_layout(kind: usize, r: u16, mm: (f64, f64, f64)) -> String {
    match kind {
        0 => "2d".to_owned(),
        1 => format!("uniform:{r},{}", mm.0),
        2 => format!("sym4:{}", mm.0),
        _ => format!("sym16:{},{},{}", mm.0, mm.1, mm.2),
    }
}

/// Renders a document to JSON text and parses it back, as the daemon
/// receives it.
fn over_the_wire(doc: &Value) -> Value {
    parse(&doc.render()).expect("rendered JSON parses")
}

/// The `r` field of a `uniform:<r>,<gap>` string, if the string has one.
fn written_count(s: &str) -> Option<f64> {
    let params = s.strip_prefix("uniform:")?;
    params.split(',').next()?.parse().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Counts written as integers, decimals, exponents or specials.
    #[test]
    fn uniform_counts_are_kept_exactly_or_rejected(
        int in -70_000i64..140_000,
        suffix in prop::sample::select(vec!["", ".0", ".5", ".999", "e0", "e1", "e4"]),
        special in prop::sample::select(vec!["", "nan", "inf", "-inf", "1e300", "-0"]),
        gap in -5.0..50.0f64,
    ) {
        let r = if special.is_empty() { format!("{int}{suffix}") } else { special.to_owned() };
        let s = format!("uniform:{r},{gap}");
        if let Ok(layout) = parse_layout(&s) {
            let ChipletLayout::Uniform { r: got, .. } = layout else {
                panic!("{s} parsed as {layout:?}");
            };
            let written = written_count(&s).expect("accepted count parses");
            prop_assert_eq!(written, f64::from(got), "{}", s);
            prop_assert!(got >= 2, "{}", s);
        }
    }

    /// Arbitrary strings over the grammar's alphabet never panic, and any
    /// `uniform` they produce keeps its written count.
    #[test]
    fn parse_layout_never_panics(
        chars in prop::collection::vec(
            prop::sample::select(vec![
                'u', 'n', 'i', 'f', 'o', 'r', 'm', 's', 'y', '2', 'd', ':', ',', '.', '-',
                'e', '0', '1', '4', '6', '9', 'a', ' ',
            ]),
            0..24,
        ),
        prefix in prop::sample::select(vec!["", "uniform:", "sym4:", "sym16:"]),
    ) {
        let s: String = prefix.chars().chain(chars).collect();
        if let Ok(ChipletLayout::Uniform { r, .. }) = parse_layout(&s) {
            prop_assert_eq!(written_count(&s), Some(f64::from(r)), "{}", s);
        }
    }

    /// Arbitrary JSON objects (every value type under both requests' keys,
    /// near-miss keys and strangers, non-finite numbers included) and
    /// non-object documents give a request or an error, never a panic;
    /// any request accepted satisfies the validators' ranges.
    #[test]
    fn arbitrary_documents_decode_or_are_refused(
        fields in prop::collection::vec(
            (0usize..KEYS.len(), 0usize..6, 0usize..NUMBERS.len(), 0usize..TEXTS.len(), 0u8..2),
            0..10,
        ),
        scalar in 0usize..6,
    ) {
        let pairs: Vec<(String, Value)> = fields
            .iter()
            .map(|&(k, kind, n, t, flag)| {
                (KEYS[k].to_owned(), field_value(kind, NUMBERS[n], TEXTS[t], flag == 1))
            })
            .collect();
        let doc = Value::Object(pairs);
        for doc in [doc.clone(), over_the_wire(&doc)] {
            if let Ok(req) = EvaluateRequest::from_json(&doc) {
                prop_assert!(req.freq_mhz.is_finite() && req.threshold_c.is_finite());
            }
            if let Ok(req) = OptimizeRequest::from_json(&doc) {
                prop_assert!(req.alpha >= 0.0 && req.beta >= 0.0 && req.alpha + req.beta > 0.0);
                prop_assert!((1..=1000).contains(&req.starts));
                prop_assert!(req.seed <= 1 << 53);
            }
        }
        let not_an_object = field_value(scalar.min(4), 1.0, "shock", true);
        prop_assert!(EvaluateRequest::from_json(&not_an_object).is_err());
        prop_assert!(OptimizeRequest::from_json(&not_an_object).is_err());
    }

    /// A valid evaluate request survives the wire field for field.
    #[test]
    fn valid_evaluate_requests_round_trip(
        bench in 0usize..BENCHMARKS.len(),
        kind in 0usize..4,
        r in prop::sample::select(vec![2u16, 4]),
        mm in (0.0..20.0f64, 0.0..20.0f64, 0.0..20.0f64),
        freq in prop::sample::select(vec![533.0f64, 800.0, 1000.0]),
        cores in 1u16..=256,
        threshold in 40.0..120.0f64,
        deadline in 0u64..100_000,
        with_deadline in 0u8..2,
    ) {
        let layout = valid_layout(kind, r, mm);
        let mut pairs = vec![
            ("benchmark", Value::from(BENCHMARKS[bench])),
            ("layout", Value::from(layout.as_str())),
            ("freq_mhz", Value::from(freq)),
            ("cores", Value::from(cores)),
            ("threshold_c", Value::from(threshold)),
        ];
        if with_deadline == 1 {
            pairs.push(("deadline_ms", Value::from(deadline)));
        }
        let req = EvaluateRequest::from_json(&over_the_wire(&obj(pairs))).unwrap();
        prop_assert_eq!(req.benchmark.name(), BENCHMARKS[bench]);
        prop_assert_eq!(req.layout, parse_layout(&layout).unwrap());
        prop_assert_eq!(req.freq_mhz, freq);
        prop_assert_eq!(req.cores, cores);
        prop_assert_eq!(req.threshold_c, threshold);
        prop_assert_eq!(req.deadline_ms, (with_deadline == 1).then_some(deadline));
    }

    /// A valid optimize request survives the wire field for field.
    #[test]
    fn valid_optimize_requests_round_trip(
        bench in 0usize..BENCHMARKS.len(),
        alpha in 0.0..2.0f64,
        beta in 0.0..2.0f64,
        starts in 1usize..=1000,
        seed in 0u64..(1 << 53),
        threshold in 40.0..120.0f64,
        flags in (0u8..2, 0u8..2),
    ) {
        let alpha = if alpha + beta > 0.0 { alpha } else { 1.0 };
        let doc = obj([
            ("benchmark", Value::from(BENCHMARKS[bench])),
            ("alpha", Value::from(alpha)),
            ("beta", Value::from(beta)),
            ("starts", Value::from(starts)),
            ("seed", Value::from(seed)),
            ("threshold_c", Value::from(threshold)),
            ("iso_cost", Value::from(flags.0 == 1)),
            ("exhaustive", Value::from(flags.1 == 1)),
        ]);
        let req = OptimizeRequest::from_json(&over_the_wire(&doc)).unwrap();
        prop_assert_eq!(req.benchmark.name(), BENCHMARKS[bench]);
        prop_assert_eq!(req.alpha, alpha);
        prop_assert_eq!(req.beta, beta);
        prop_assert_eq!(req.starts, starts);
        prop_assert_eq!(req.seed, seed);
        prop_assert_eq!(req.threshold_c, threshold);
        prop_assert_eq!(req.iso_cost, flags.0 == 1);
        prop_assert_eq!(req.exhaustive, flags.1 == 1);
        prop_assert_eq!(req.deadline_ms, None);
    }
}
