//! Ablation: how much does the Mintemp workload-allocation policy (adopted
//! by the paper from \[20\]) matter, compared to naive alternatives?
//!
//! For each policy and active-core count, all active cores run a
//! high-power benchmark at 1 GHz on the single chip; the table reports the
//! resulting peak temperature. Mintemp (outer rings, chessboard) should
//! dominate clustered and inner-first allocation at every partial
//! occupancy.

use tac25d_bench::{fmt, Report};
use tac25d_core::prelude::*;
use tac25d_floorplan::prelude::*;
use tac25d_floorplan::raster::place_cores;
use tac25d_thermal::model::{PackageModel, ThermalConfig};

fn main() -> std::io::Result<()> {
    let spec = SystemSpec::fast();
    let profile = Benchmark::Cholesky.profile();
    let op = spec.vf.nominal();
    let policies = [
        ("mintemp", AllocationPolicy::Mintemp),
        ("checkerboard", AllocationPolicy::Checkerboard),
        ("clustered", AllocationPolicy::Clustered),
        ("inner_first", AllocationPolicy::InnerFirst),
    ];

    let layout = ChipletLayout::SingleChip;
    let model = PackageModel::new(
        &spec.chip,
        &layout,
        &spec.rules,
        &spec.stack_2d,
        ThermalConfig {
            grid: 32,
            ..spec.thermal.clone()
        },
    )
    .expect("model builds");
    let placed = place_cores(&spec.chip, &layout, &spec.rules).expect("core map");
    let per_core = spec.core_power.active_power(&profile, op, Celsius(75.0));

    let mut header = vec!["active_cores".to_owned()];
    header.extend(policies.iter().map(|(n, _)| (*n).to_owned()));
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut report = Report::new("allocation_ablation", &header_refs);

    for p in [32u16, 64, 96, 128, 160, 192, 224] {
        let mut row = vec![p.to_string()];
        for (_, policy) in policies {
            let sources: Vec<_> = active_cores(&spec.chip, p, policy)
                .into_iter()
                .map(|c| (placed[c.0 as usize].rect, per_core))
                .collect();
            let peak = model.solve(&sources).expect("solve").peak().value();
            row.push(fmt(peak, 1));
        }
        report.row(&row);
    }
    report.finish()?;
    Ok(())
}
