//! Property tests of the layout grammar: `parse_layout` never panics on
//! any input, and a `uniform` layout it accepts always carries exactly the
//! integer chiplet count written — never a truncated or saturated cast.

use proptest::prelude::*;
use tac25d_floorplan::organization::ChipletLayout;
use tac25d_serve::protocol::parse_layout;

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
}
