//! Superposition of unit-power kernels over a candidate organization's
//! rasterized power footprint.
//!
//! The linear RC network makes the die temperature rise a weighted sum of
//! per-chiplet unit responses. Each source chiplet of the candidate is
//! mapped to its symmetry class, the stored representative field is
//! sampled through the chiplet's octant map plus the small translation
//! between its mapped center and the representative's, and the rises add.
//!
//! The geometry is sampled once per candidate ([`sample`]); each leakage
//! refinement round then only re-weights the stored unit rises with its
//! own per-chiplet watts ([`UnitRises::field`]). Within one sampling, the
//! bilinear taps of each (target, source) pair are computed once per
//! probe axis, because a target's probes form a tensor grid and an octant
//! map never mixes the axes.

use crate::kernel::{blend, class_of, ClassKernel, KernelSet, OctantMap, Tap};
use tac25d_floorplan::geometry::Rect;

/// Superposed temperature-rise estimates of one candidate layout.
#[derive(Debug, Clone)]
pub(crate) struct SuperposedField {
    /// Peak rise over all probe points (°C above ambient).
    pub peak_rise: f64,
    /// Mean rise over each chiplet's probe points, chiplet-major order.
    pub chiplet_mean_rise: Vec<f64>,
}

/// The unit rises of one candidate layout: for every (target chiplet,
/// probe point) row, the rise per watt on each source chiplet.
#[derive(Debug, Clone)]
pub(crate) struct UnitRises {
    chiplets: usize,
    probes_per_chiplet: usize,
    /// Row-major `(target · probe) × source`.
    rise: Vec<f64>,
}

/// One source chiplet's kernel, octant map and mapped center — fixed per
/// candidate, so hoisted out of the probe loop.
struct Source<'a> {
    kernel: &'a ClassKernel,
    map: OctantMap,
    center: (f64, f64),
}

impl Source<'_> {
    /// The kernel taps of one target's probe columns `xs` and rows `ys`.
    /// The sample offset of query `(x, y)` is `(qx + rep_center.0) − cx`
    /// on the kernel's x axis and `(qy + rep_center.1) − cy` on its y
    /// axis, and each mapped coordinate depends on one query coordinate
    /// ([`OctantMap::transposes`]). So mapping the point `(xs[i], ys[i])`
    /// gives `kx[i]`, the kernel-x tap of index `i` on the query axis that
    /// feeds kernel x, and `ky[i]` likewise on the other.
    fn taps(&self, footprint: f64, xs: &[f64], ys: &[f64], kx: &mut [Tap], ky: &mut [Tap]) {
        let (cx, cy) = self.center;
        let k = self.kernel;
        for (i, (&x, &y)) in xs.iter().zip(ys).enumerate() {
            let (qx, qy) = self.map.apply(footprint, x, y);
            kx[i] = Tap::x(&k.rise, footprint, qx + k.rep_center.0 - cx);
            ky[i] = Tap::y(&k.rise, footprint, qy + k.rep_center.1 - cy);
        }
    }
}

/// Samples the kernel set at `probes_per_axis²` probe points on each of
/// the candidate's chiplet rectangles (row-major over the r×r grid), for
/// every source chiplet.
///
/// A target's probes form a tensor grid, and each source's octant map
/// only mirrors or swaps axes, so each kernel coordinate depends on one
/// probe axis. The taps ([`Tap`]) are computed once per (target, source)
/// and probe axis, and each sample is a [`blend`] of four cells — bitwise
/// the `bilinear` sample at the same point.
pub(crate) fn sample(kernels: &KernelSet, rects: &[Rect], probes_per_axis: usize) -> UnitRises {
    let r = kernels.r;
    assert_eq!(rects.len(), r * r, "expected one rect per grid cell");
    assert!(probes_per_axis >= 1);
    let footprint = kernels.footprint;
    let sources: Vec<Source> = rects
        .iter()
        .enumerate()
        .map(|(j, rc)| {
            let (class, map) = class_of(j / r, j % r, r);
            let c = rc.center();
            Source {
                kernel: &kernels.classes[class],
                map,
                center: map.apply(footprint, c.x.value(), c.y.value()),
            }
        })
        .collect();
    let n = probes_per_axis;
    let probes_per_chiplet = n * n;
    let m = sources.len();
    let mut rise = vec![0.0; rects.len() * probes_per_chiplet * m];
    let (mut xs, mut ys) = (vec![0.0; n], vec![0.0; n]);
    let (mut kx, mut ky) = (vec![Tap::default(); n], vec![Tap::default(); n]);
    for (target, rows) in rects
        .iter()
        .zip(rise.chunks_exact_mut(probes_per_chiplet * m))
    {
        let (x0, y0) = (target.x0().value(), target.y0().value());
        let (w, h) = (target.x1().value() - x0, target.y1().value() - y0);
        for (i, (x, y)) in xs.iter_mut().zip(ys.iter_mut()).enumerate() {
            *x = x0 + (i as f64 + 0.5) / n as f64 * w;
            *y = y0 + (i as f64 + 0.5) / n as f64 * h;
        }
        for (j, s) in sources.iter().enumerate() {
            s.taps(footprint, &xs, &ys, &mut kx, &mut ky);
            for py in 0..n {
                for px in 0..n {
                    let (tx, ty) = if s.map.transposes() {
                        (kx[py], ky[px])
                    } else {
                        (kx[px], ky[py])
                    };
                    rows[(py * n + px) * m + j] = blend(&s.kernel.rise, tx, ty);
                }
            }
        }
    }
    UnitRises {
        chiplets: rects.len(),
        probes_per_chiplet,
        rise,
    }
}

/// Rows of unit rises [`UnitRises::field`] sums together.
const ROWS: usize = 4;

impl UnitRises {
    /// Superposes the sampled unit rises with the given per-chiplet total
    /// watts (row-major over the r×r grid). Each (target, probe) row is
    /// summed from 0 in source order, skipping unpowered sources; rows go
    /// [`ROWS`] at a time ([`row_rises`]) so their sums overlap, and the
    /// chiplet sums and the peak take the rows in order.
    pub(crate) fn field(&self, watts: &[f64]) -> SuperposedField {
        let n = self.chiplets;
        assert_eq!(watts.len(), n, "one power figure per chiplet");
        let mut peak_rise = f64::NEG_INFINITY;
        let mut chiplet_mean_rise = Vec::with_capacity(n);
        for chiplet in self.rise.chunks_exact(self.probes_per_chiplet * n) {
            let mut sum = 0.0;
            let mut add = |rise: f64| {
                sum += rise;
                peak_rise = peak_rise.max(rise);
            };
            let mut blocks = chiplet.chunks_exact(ROWS * n);
            for block in &mut blocks {
                row_rises::<ROWS>(watts, block)
                    .into_iter()
                    .for_each(&mut add);
            }
            for row in blocks.remainder().chunks_exact(n) {
                row_rises::<1>(watts, row).into_iter().for_each(&mut add);
            }
            chiplet_mean_rise.push(sum / self.probes_per_chiplet as f64);
        }
        SuperposedField {
            peak_rise,
            chiplet_mean_rise,
        }
    }

    /// [`Self::field`] one row at a time: the oracle it is checked
    /// against bit for bit.
    #[cfg(test)]
    fn field_per_row(&self, watts: &[f64]) -> SuperposedField {
        let n = self.chiplets;
        let mut peak_rise = f64::NEG_INFINITY;
        let mut chiplet_mean_rise = Vec::with_capacity(n);
        for chiplet in self.rise.chunks_exact(self.probes_per_chiplet * n) {
            let mut sum = 0.0;
            for row in chiplet.chunks_exact(n) {
                let mut rise = 0.0;
                for (&w, &unit) in watts.iter().zip(row) {
                    if w == 0.0 {
                        continue;
                    }
                    rise += w * unit;
                }
                sum += rise;
                peak_rise = peak_rise.max(rise);
            }
            chiplet_mean_rise.push(sum / self.probes_per_chiplet as f64);
        }
        SuperposedField {
            peak_rise,
            chiplet_mean_rise,
        }
    }
}

/// The rises of the `R` rows of `block` (`R` rows of one unit rise per
/// source), each summed from 0 in source order over the powered sources.
#[inline(always)]
fn row_rises<const R: usize>(watts: &[f64], block: &[f64]) -> [f64; R] {
    let n = watts.len();
    assert_eq!(block.len(), R * n, "whole rows");
    let mut rise = [0.0; R];
    for (j, &w) in watts.iter().enumerate() {
        if w == 0.0 {
            continue;
        }
        for (r, acc) in rise.iter_mut().enumerate() {
            *acc += w * block[r * n + j];
        }
    }
    rise
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::bilinear;
    use tac25d_floorplan::chip::ChipSpec;
    use tac25d_floorplan::layers::StackSpec;
    use tac25d_floorplan::organization::{enumerate_symmetric16, ChipletLayout, PackageRules};
    use tac25d_floorplan::units::Mm;
    use tac25d_thermal::model::{PackageModel, ThermalConfig};

    fn kernels(edge: f64, r: u16) -> KernelSet {
        KernelSet::build(
            &ChipSpec::scc_256(),
            &PackageRules::default(),
            &StackSpec::system_25d(),
            &ThermalConfig {
                grid: 16,
                ..ThermalConfig::default()
            },
            Mm(edge),
            r,
        )
        .unwrap()
        .expect("edge fits")
    }

    /// The per-round superposition the sampled path replaced: every round
    /// re-samples each (probe, source) unit rise. Kept as the bit-identity
    /// oracle.
    fn reference_superpose(
        kernels: &KernelSet,
        rects: &[Rect],
        watts: &[f64],
        probes_per_axis: usize,
    ) -> SuperposedField {
        let r = kernels.r;
        let unit_rise_at = |row: usize, col: usize, center: (f64, f64), x: f64, y: f64| {
            let (class, map) = class_of(row, col, r);
            let k = &kernels.classes[class];
            let (qx, qy) = map.apply(kernels.footprint, x, y);
            let (cx, cy) = map.apply(kernels.footprint, center.0, center.1);
            bilinear(
                &k.rise,
                kernels.footprint,
                qx + k.rep_center.0 - cx,
                qy + k.rep_center.1 - cy,
            )
        };
        let centers: Vec<(f64, f64)> = rects
            .iter()
            .map(|rc| {
                let c = rc.center();
                (c.x.value(), c.y.value())
            })
            .collect();
        let mut peak_rise = f64::NEG_INFINITY;
        let mut chiplet_mean_rise = Vec::with_capacity(rects.len());
        for target in rects {
            let (x0, y0) = (target.x0().value(), target.y0().value());
            let (w, h) = (target.x1().value() - x0, target.y1().value() - y0);
            let mut sum = 0.0;
            for py in 0..probes_per_axis {
                let y = y0 + (py as f64 + 0.5) / probes_per_axis as f64 * h;
                for px in 0..probes_per_axis {
                    let x = x0 + (px as f64 + 0.5) / probes_per_axis as f64 * w;
                    let mut rise = 0.0;
                    for (j, &center) in centers.iter().enumerate() {
                        if watts[j] == 0.0 {
                            continue;
                        }
                        rise += watts[j] * unit_rise_at(j / r, j % r, center, x, y);
                    }
                    sum += rise;
                    peak_rise = peak_rise.max(rise);
                }
            }
            chiplet_mean_rise.push(sum / (probes_per_axis * probes_per_axis) as f64);
        }
        SuperposedField {
            peak_rise,
            chiplet_mean_rise,
        }
    }

    /// Deterministic power vectors of `n` chiplets: uniform, graded,
    /// and two with unpowered chiplets (zeros skip the source entirely).
    fn power_vectors(n: usize) -> Vec<Vec<f64>> {
        vec![
            vec![6.0; n],
            (0..n).map(|j| 1.5 + 0.37 * j as f64).collect(),
            (0..n)
                .map(|j| if j % 3 == 0 { 0.0 } else { 4.0 + j as f64 })
                .collect(),
            (0..n)
                .map(|j| if j == n - 1 { 40.0 } else { 0.0 })
                .collect(),
        ]
    }

    fn assert_bitwise_equal(a: &SuperposedField, b: &SuperposedField, case: &str) {
        assert_eq!(a.peak_rise.to_bits(), b.peak_rise.to_bits(), "{case}");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&a.chiplet_mean_rise),
            bits(&b.chiplet_mean_rise),
            "{case}"
        );
    }

    fn assert_sampled_matches_reference(set: &KernelSet, layout: &ChipletLayout) -> usize {
        let rects = layout.chiplet_rects(&ChipSpec::scc_256(), &PackageRules::default());
        let mut cases = 0;
        for probes in [2, 3, 4, 5] {
            let sampled = sample(set, &rects, probes);
            for watts in power_vectors(rects.len()) {
                let case = format!("{layout} probes={probes} watts={watts:?}");
                let oracle = reference_superpose(set, &rects, &watts, probes);
                assert_bitwise_equal(&sampled.field(&watts), &oracle, &case);
                cases += 1;
            }
        }
        cases
    }

    /// The uniform r×r layout at interposer edge `edge`.
    fn uniform(edge: f64, r: u16) -> ChipletLayout {
        let chip = ChipSpec::scc_256();
        let rules = PackageRules::default();
        let wc = chip.edge().value() / f64::from(r);
        let free = edge - f64::from(r) * wc - 2.0 * rules.guard.value();
        ChipletLayout::Uniform {
            r,
            gap: Mm(free / f64::from(r - 1)),
        }
    }

    /// The smallest and largest kernel coordinate the oracle samples for
    /// `rects` at `probes` per axis, over both axes.
    fn sample_extent(set: &KernelSet, rects: &[Rect], probes: usize) -> (f64, f64) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for target in rects {
            let (x0, y0) = (target.x0().value(), target.y0().value());
            let (w, h) = (target.x1().value() - x0, target.y1().value() - y0);
            for i in 0..probes {
                let x = x0 + (i as f64 + 0.5) / probes as f64 * w;
                let y = y0 + (i as f64 + 0.5) / probes as f64 * h;
                for (j, rc) in rects.iter().enumerate() {
                    let (class, map) = class_of(j / set.r, j % set.r, set.r);
                    let k = &set.classes[class];
                    let c = rc.center();
                    let (cx, cy) = map.apply(set.footprint, c.x.value(), c.y.value());
                    let (qx, qy) = map.apply(set.footprint, x, y);
                    for v in [qx + k.rep_center.0 - cx, qy + k.rep_center.1 - cy] {
                        lo = lo.min(v);
                        hi = hi.max(v);
                    }
                }
            }
        }
        (lo, hi)
    }

    #[test]
    fn sampled_superposition_is_bitwise_the_per_round_oracle() {
        let chip = ChipSpec::scc_256();
        let rules = PackageRules::default();
        let mut cases = 0;
        for edge in [22.0, 26.0, 30.5] {
            let set = kernels(edge, 4);
            let lattice = enumerate_symmetric16(&chip, &rules, Mm(edge));
            assert!(!lattice.is_empty(), "{edge} mm has lattice points");
            for spacing in lattice {
                let layout = ChipletLayout::Symmetric16 { spacing };
                cases += assert_sampled_matches_reference(&set, &layout);
            }
            cases += assert_sampled_matches_reference(&set, &uniform(edge, 4));
        }
        for edge in [20.0, 23.5, 26.5, 33.0] {
            let set = kernels(edge, 2);
            let s3 = edge - chip.edge().value() - 2.0 * rules.guard.value();
            let layout = ChipletLayout::Symmetric4 { s3: Mm(s3) };
            cases += assert_sampled_matches_reference(&set, &layout);
        }
        // A 33 mm layout on 22 mm kernels: sources sit far from their
        // representatives, so translated samples leave the footprint on
        // both sides and both clamp branches are compared.
        let set = kernels(22.0, 4);
        let wide = uniform(33.0, 4);
        let (lo, hi) = sample_extent(&set, &wide.chiplet_rects(&chip, &rules), 2);
        assert!(lo < 0.0 && hi > set.footprint, "samples span {lo}..{hi}");
        cases += assert_sampled_matches_reference(&set, &wide);
        assert!(cases > 1000, "only {cases} cases");
    }

    #[test]
    fn blocked_rows_are_bitwise_the_per_row_oracle() {
        // Seeded unit rises of either sign over every probe count a raw
        // peak uses and then some (so each remainder of the row blocks
        // occurs), with the power vectors above and a single powered
        // source.
        let mut state = 0x5eed_u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / f64::from(u32::MAX)
        };
        let mut cases = 0;
        for chiplets in [4, 16] {
            for probes_per_chiplet in 1..=26 {
                let rise = (0..chiplets * probes_per_chiplet * chiplets)
                    .map(|_| rng() * 3.0 - 0.5)
                    .collect();
                let unit = UnitRises {
                    chiplets,
                    probes_per_chiplet,
                    rise,
                };
                let mut vectors = power_vectors(chiplets);
                vectors.push(
                    (0..chiplets)
                        .map(|j| if j == 1 { 7.5 } else { 0.0 })
                        .collect(),
                );
                for watts in vectors {
                    let case =
                        format!("{chiplets} chiplets, {probes_per_chiplet} probes, {watts:?}");
                    assert_bitwise_equal(&unit.field(&watts), &unit.field_per_row(&watts), &case);
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 2 * 26 * 5);
    }

    #[test]
    fn superposed_peak_matches_exact_solve_on_the_reference_layout() {
        // On the uniform reference layout itself the translations are all
        // zero and the symmetry maps are exact, so superposition must
        // reproduce the direct solve to interpolation accuracy.
        let chip = ChipSpec::scc_256();
        let rules = PackageRules::default();
        let edge = 30.0;
        let set = kernels(edge, 4);
        let wc = chip.edge().value() / 4.0;
        let gap = (edge - 4.0 * wc - 2.0 * rules.guard.value()) / 3.0;
        let layout = ChipletLayout::Uniform { r: 4, gap: Mm(gap) };
        let rects = layout.chiplet_rects(&chip, &rules);
        let watts = vec![6.0; 16];
        let field = sample(&set, &rects, 5).field(&watts);
        let model = PackageModel::new(
            &chip,
            &layout,
            &rules,
            &StackSpec::system_25d(),
            ThermalConfig {
                grid: 16,
                ..ThermalConfig::default()
            },
        )
        .unwrap();
        let sources: Vec<_> = rects.iter().map(|r| (*r, 6.0)).collect();
        let exact = model.solve(&sources).unwrap();
        let exact_rise = exact.peak().value() - set.ambient();
        assert!(
            (field.peak_rise - exact_rise).abs() < 0.05 * exact_rise + 0.5,
            "superposed {} vs exact {}",
            field.peak_rise,
            exact_rise
        );
    }

    #[test]
    fn asymmetric_power_heats_the_powered_corner_most() {
        let chip = ChipSpec::scc_256();
        let rules = PackageRules::default();
        let set = kernels(30.0, 2);
        let layout = ChipletLayout::Symmetric4 {
            s3: Mm(30.0 - chip.edge().value() - 2.0 * rules.guard.value()),
        };
        let rects = layout.chiplet_rects(&chip, &rules);
        // Power only the upper-right chiplet (index 3).
        let watts = vec![0.0, 0.0, 0.0, 40.0];
        let field = sample(&set, &rects, 5).field(&watts);
        let hot = field.chiplet_mean_rise[3];
        let cold = field.chiplet_mean_rise[0];
        assert!(hot > 2.0 * cold, "hot {hot} vs cold {cold}");
        assert!(field.peak_rise >= hot);
    }

    #[test]
    fn rise_scales_linearly_with_power() {
        let chip = ChipSpec::scc_256();
        let rules = PackageRules::default();
        let set = kernels(26.0, 2);
        let layout = ChipletLayout::Symmetric4 {
            s3: Mm(26.0 - chip.edge().value() - 2.0 * rules.guard.value()),
        };
        let rects = layout.chiplet_rects(&chip, &rules);
        let sampled = sample(&set, &rects, 4);
        let f1 = sampled.field(&[10.0; 4]);
        let f2 = sampled.field(&[20.0; 4]);
        assert!((f2.peak_rise / f1.peak_rise - 2.0).abs() < 1e-9);
    }
}
