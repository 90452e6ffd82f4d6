//! The organize-fast output oracle: each decision's signature must equal
//! its row of the committed Fig. 8 golden (`tests/golden/fig8/fig8.csv`,
//! recorded by `fig8 --fast`).

use tac25d_core::prelude::{Benchmark, OptimizeResult};
use tac25d_floorplan::organization::ChipletLayout;

/// The golden file, compiled into the benchmark so a re-blessed golden is
/// picked up by the next build.
pub const FIG8_CSV: &str = include_str!("../../tests/golden/fig8/fig8.csv");

/// What a decision is judged by: the chosen VF point, the active cores,
/// the interposer edge and whether the organization has 4 or 16 chiplets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature {
    /// Chosen frequency, MHz.
    pub opt_mhz: u32,
    /// Active cores.
    pub opt_cores: u16,
    /// Interposer edge in quarter millimetres.
    pub interposer_qmm: i64,
    /// 4 or 16.
    pub chiplets: u8,
}

fn quarter_mm(mm: f64) -> i64 {
    (mm * 4.0).round() as i64
}

/// Parses the golden CSV into `(benchmark name, signature)` rows.
///
/// # Errors
///
/// Returns a message naming the first malformed row.
pub fn parse(csv: &str) -> Result<Vec<(String, Signature)>, String> {
    let mut lines = csv.lines().filter(|l| !l.trim().is_empty());
    let header: Vec<&str> = lines.next().ok_or("empty golden")?.split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| h.trim() == name)
            .ok_or_else(|| format!("golden has no {name:?} column"))
    };
    let (b, mhz, cores, edge, layout) = (
        col("benchmark")?,
        col("opt_mhz")?,
        col("opt_cores")?,
        col("interposer_mm")?,
        col("layout")?,
    );
    lines
        .map(|line| {
            let cells: Vec<&str> = line.split(',').map(str::trim).collect();
            let cell = |i: usize| {
                cells
                    .get(i)
                    .copied()
                    .ok_or_else(|| format!("short golden row {line:?}"))
            };
            let num = |i: usize| -> Result<f64, String> {
                cell(i)?
                    .parse::<f64>()
                    .map_err(|e| format!("golden row {line:?}: {e}"))
            };
            let chiplets = match cell(layout)?.split_whitespace().next() {
                Some("4c") => 4,
                Some("16c") => 16,
                other => return Err(format!("golden row {line:?}: layout class {other:?}")),
            };
            Ok((
                cell(b)?.to_owned(),
                Signature {
                    opt_mhz: num(mhz)?.round() as u32,
                    opt_cores: num(cores)? as u16,
                    interposer_qmm: quarter_mm(num(edge)?),
                    chiplets,
                },
            ))
        })
        .collect()
}

/// The golden signature of every Fig. 8 benchmark, in `Benchmark::all()`
/// order.
///
/// # Panics
///
/// Panics if the compiled-in golden is malformed or misses a benchmark.
pub fn fig8() -> [Signature; 8] {
    let rows = parse(FIG8_CSV).expect("fig8 golden parses");
    Benchmark::all().map(|b| {
        rows.iter()
            .find(|(name, _)| name == b.name())
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("fig8 golden has no row for {}", b.name()))
    })
}

/// The signature of an optimizer result; `None` when no organization was
/// feasible or the layout is neither a 4- nor a 16-chiplet one.
pub fn signature(result: &OptimizeResult) -> Option<Signature> {
    let best = result.best.as_ref()?;
    let chiplets = match best.layout {
        ChipletLayout::Symmetric4 { .. } => 4,
        ChipletLayout::Symmetric16 { .. } => 16,
        _ => return None,
    };
    Some(Signature {
        opt_mhz: best.candidate.op.freq_mhz.round() as u32,
        opt_cores: best.candidate.active_cores,
        interposer_qmm: quarter_mm(best.candidate.edge.value()),
        chiplets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_committed_golden() {
        let sigs = fig8();
        let cholesky = sigs[0];
        assert_eq!(
            cholesky,
            Signature {
                opt_mhz: 1000,
                opt_cores: 256,
                interposer_qmm: 128,
                chiplets: 16
            }
        );
        assert!(sigs.iter().any(|s| s.chiplets == 4));
    }

    #[test]
    fn parses_by_header_and_rejects_malformed_rows() {
        let csv = "layout,benchmark,opt_cores,opt_mhz,interposer_mm\n\
                   4c s3=2.0,swaptions,256,1000,22.0\n";
        let rows = parse(csv).unwrap();
        assert_eq!(rows[0].0, "swaptions");
        assert_eq!(rows[0].1.interposer_qmm, 88);
        assert_eq!(rows[0].1.chiplets, 4);
        assert!(parse("benchmark,opt_mhz\nx,1\n").is_err());
        let bad_class = "benchmark,opt_mhz,opt_cores,interposer_mm,layout\nx,1,2,3,9c\n";
        assert!(parse(bad_class).is_err());
        let bad_num = "benchmark,opt_mhz,opt_cores,interposer_mm,layout\nx,fast,2,3,4c\n";
        assert!(parse(bad_num).is_err());
        assert!(parse("").is_err());
    }
}
