//! Fig. 8: the chiplet organizations chosen by the optimizer (α = 1,
//! β = 0) under 85 °C versus the single-chip baseline, per benchmark —
//! frequency, active core count, interposer size, spacings, performance
//! gain and cost delta.
//!
//! Paper anchors: cholesky gains ≈80% by raising frequency (533 MHz →
//! 1 GHz); hpccg gains ≈40% by activating 256 instead of 160 cores while
//! cutting cost ≈28%; canneal gains ≈7% (saturates at 192 cores) and cuts
//! cost ≈36%.

use tac25d_bench::runner::{
    benchmarks_from_args, parallel_map_by_cost, seed_from_args, spec_from_args,
};
use tac25d_bench::{fmt, Report};
use tac25d_core::prelude::*;
use tac25d_floorplan::prelude::ChipletLayout;

fn main() -> std::io::Result<()> {
    let benchmarks = benchmarks_from_args();
    // Hotter benchmarks walk a longer feasibility frontier (more throttled
    // operating points probed before a feasible organization appears), so
    // nominal core power is a deterministic proxy for per-benchmark search
    // cost: dispatching the hot ones first keeps the slowest search off
    // the tail of the schedule.
    let results = parallel_map_by_cost(
        benchmarks.clone(),
        |b| b.profile().core_power_nominal,
        |&b| {
            // The analytic-seeded draft-then-verify search under surrogate
            // screening. A fresh evaluator per benchmark keeps the
            // corrector's training history a function of this benchmark
            // alone, so the chosen organizations are deterministic under
            // any thread schedule. Kernel sets are not per evaluator: they
            // depend only on the package family and (edge, r), so every
            // benchmark shares the process-wide kernel store.
            let ev = Evaluator::with_surrogate(spec_from_args(), SurrogateConfig::default());
            let cfg = OptimizerConfig {
                fidelity: Fidelity::surrogate_default(),
                ..OptimizerConfig::with_seed(seed_from_args())
            };
            optimize(&ev, b, &cfg).expect("optimize")
        },
    );

    let mut report = Report::new(
        "fig8",
        &[
            "benchmark",
            "base_mhz",
            "base_cores",
            "opt_mhz",
            "opt_cores",
            "interposer_mm",
            "layout",
            "perf_gain_pct",
            "cost_delta_pct",
            "peak_c",
        ],
    );
    for (b, r) in benchmarks.iter().zip(&results) {
        let base = &r.baseline;
        match &r.best {
            Some(best) => {
                let spacing = match best.layout {
                    ChipletLayout::Symmetric4 { s3 } => format!("4c s3={:.1}", s3.value()),
                    ChipletLayout::Symmetric16 { spacing } => format!(
                        "16c s1={:.1} s2={:.1} s3={:.1}",
                        spacing.s1.value(),
                        spacing.s2.value(),
                        spacing.s3.value()
                    ),
                    other => format!("{other}"),
                };
                report.row(&[
                    b.name().to_owned(),
                    fmt(base.op.freq_mhz, 0),
                    base.active_cores.to_string(),
                    fmt(best.candidate.op.freq_mhz, 0),
                    best.candidate.active_cores.to_string(),
                    fmt(best.candidate.edge.value(), 1),
                    spacing,
                    fmt((best.normalized_perf - 1.0) * 100.0, 1),
                    fmt((best.normalized_cost - 1.0) * 100.0, 1),
                    fmt(best.peak.value(), 1),
                ]);
            }
            None => report.row(&[
                b.name().to_owned(),
                fmt(base.op.freq_mhz, 0),
                base.active_cores.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "infeasible".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    report.finish()?;
    Ok(())
}
