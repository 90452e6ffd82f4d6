//! Unit-power thermal response kernels, precomputed once per
//! (interposer edge, chiplet count) and reused for every spacing the
//! optimizer probes at that edge.
//!
//! The trick that keeps the precomputation tiny: the reference uniform
//! r×r layout at the candidate's interposer edge has the full dihedral
//! symmetry of the square, so only one representative chiplet per
//! symmetry class needs an exact solve — 1 class for 2×2 grids, 3
//! (corner/edge/inner) for 4×4. Any other chiplet's response is the
//! representative field pushed through the reflection/transpose that
//! maps the chiplet into the canonical lower-left octant, then
//! translated by the (small) offset between the chiplet's mapped center
//! and the representative's.

use tac25d_floorplan::chip::ChipSpec;
use tac25d_floorplan::layers::StackSpec;
use tac25d_floorplan::organization::{ChipletLayout, PackageRules};
use tac25d_floorplan::raster::Grid;
use tac25d_floorplan::units::Mm;
use tac25d_thermal::model::{PackageModel, ThermalConfig, ThermalError};

/// A reflection/transpose of the square footprint mapping one chiplet
/// position into the canonical lower-left octant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OctantMap {
    mirror_x: bool,
    mirror_y: bool,
    transpose: bool,
}

impl OctantMap {
    /// Applies the map to a point of the `[0, footprint]²` square
    /// (mirrors about the center lines, then the diagonal transpose).
    pub(crate) fn apply(self, footprint: f64, x: f64, y: f64) -> (f64, f64) {
        let x = if self.mirror_x { footprint - x } else { x };
        let y = if self.mirror_y { footprint - y } else { y };
        if self.transpose {
            (y, x)
        } else {
            (x, y)
        }
    }

    /// Whether the map swaps the axes. Each mapped coordinate depends on
    /// one query coordinate only: the mapped x on the query's x, or on
    /// its y when the map transposes, and the mapped y on the other.
    pub(crate) fn transposes(self) -> bool {
        self.transpose
    }
}

/// Symmetry class of chiplet `(row, col)` on an r×r grid and the octant
/// map that carries it onto the class representative.
pub(crate) fn class_of(row: usize, col: usize, r: usize) -> (usize, OctantMap) {
    debug_assert!(
        r == 2 || r == 4,
        "symmetry classes defined for r ∈ {{2, 4}}"
    );
    let mirror_y = 2 * row >= r;
    let mirror_x = 2 * col >= r;
    let row_c = if mirror_y { r - 1 - row } else { row };
    let col_c = if mirror_x { r - 1 - col } else { col };
    if r == 2 {
        return (
            0,
            OctantMap {
                mirror_x,
                mirror_y,
                transpose: false,
            },
        );
    }
    // r == 4: canonical (row, col) ∈ {0,1}²; (1,0) transposes onto (0,1).
    let transpose = (row_c, col_c) == (1, 0);
    let class = match (row_c, col_c) {
        (0, 0) => 0,
        (0, 1) | (1, 0) => 1,
        (1, 1) => 2,
        _ => unreachable!("canonicalized indices are in {{0,1}}"),
    };
    (
        class,
        OctantMap {
            mirror_x,
            mirror_y,
            transpose,
        },
    )
}

/// The grid indices of each class representative on the reference r×r
/// layout (row-major), chosen inside the canonical lower-left octant.
fn representatives(r: usize) -> Vec<usize> {
    match r {
        2 => vec![0],       // corner (0,0)
        4 => vec![0, 1, 5], // corner (0,0), edge (0,1), inner (1,1)
        _ => unreachable!("kernels are built for r ∈ {{2, 4}}"),
    }
}

/// One class representative's unit response.
#[derive(Debug, Clone)]
pub(crate) struct ClassKernel {
    /// Die-tier temperature rise over ambient per injected watt.
    pub rise: Grid,
    /// Center of the representative chiplet, footprint coordinates.
    pub rep_center: (f64, f64),
}

/// All unit responses for one (interposer edge, chiplet count) pair.
#[derive(Debug, Clone)]
pub struct KernelSet {
    pub(crate) r: usize,
    pub(crate) footprint: f64,
    pub(crate) ambient: f64,
    pub(crate) classes: Vec<ClassKernel>,
    solves: usize,
}

impl KernelSet {
    /// Builds the kernel set for interposer edge `edge` and an r×r
    /// chiplet grid, or `None` when the chiplets cannot fit that edge.
    ///
    /// # Errors
    ///
    /// Propagates thermal-model construction and solver failures.
    pub fn build(
        chip: &ChipSpec,
        rules: &PackageRules,
        stack: &StackSpec,
        thermal: &ThermalConfig,
        edge: Mm,
        r: u16,
    ) -> Result<Option<KernelSet>, ThermalError> {
        assert!(
            r == 2 || r == 4,
            "kernels are built for r ∈ {{2, 4}}, got {r}"
        );
        let wc = chip.edge().value() / f64::from(r);
        let free = edge.value() - f64::from(r) * wc - 2.0 * rules.guard.value();
        if free < -1e-9 {
            return Ok(None);
        }
        let gap = free.max(0.0) / f64::from(r - 1);
        let layout = ChipletLayout::Uniform { r, gap: Mm(gap) };
        let model = PackageModel::new(chip, &layout, rules, stack, thermal.clone())?;
        let rects = layout.chiplet_rects(chip, rules);
        let ambient = thermal.ambient.value();
        let mut classes = Vec::new();
        let mut solves = 0usize;
        for rep in representatives(usize::from(r)) {
            let sol = model.unit_response(rep)?;
            solves += 1;
            let mut rise = sol.die_grid();
            for v in 0..rise.len() {
                let (ix, iy) = (v % rise.nx(), v / rise.nx());
                *rise.get_mut(ix, iy) -= ambient;
            }
            let c = rects[rep].center();
            classes.push(ClassKernel {
                rise,
                rep_center: (c.x.value(), c.y.value()),
            });
        }
        Ok(Some(KernelSet {
            r: usize::from(r),
            footprint: model.footprint_edge().value(),
            ambient,
            classes,
            solves,
        }))
    }

    /// Exact solves spent building this set.
    pub fn solves(&self) -> usize {
        self.solves
    }

    /// Ambient temperature the rise fields are relative to.
    pub fn ambient(&self) -> f64 {
        self.ambient
    }
}

/// Bilinear sample of a cell-centered grid over `[0, footprint]²`,
/// clamped to the boundary cells outside the domain. The sampling path
/// splits it per axis ([`Tap`], [`blend`]); this direct form is the test
/// oracle.
#[cfg(test)]
pub(crate) fn bilinear(grid: &Grid, footprint: f64, x: f64, y: f64) -> f64 {
    let (nx, ny) = (grid.nx(), grid.ny());
    let d = footprint / nx as f64;
    let u = (x / d - 0.5).clamp(0.0, (nx - 1) as f64);
    let v = (y / d - 0.5).clamp(0.0, (ny - 1) as f64);
    let (i0, j0) = (u.floor() as usize, v.floor() as usize);
    let (i1, j1) = ((i0 + 1).min(nx - 1), (j0 + 1).min(ny - 1));
    let (fu, fv) = (u - i0 as f64, v - j0 as f64);
    let t00 = grid.get(i0, j0);
    let t10 = grid.get(i1, j0);
    let t01 = grid.get(i0, j1);
    let t11 = grid.get(i1, j1);
    t00 * (1.0 - fu) * (1.0 - fv) + t10 * fu * (1.0 - fv) + t01 * (1.0 - fu) * fv + t11 * fu * fv
}

/// One axis of a bilinear sample: the flat offsets of the two bracketing
/// cells and their weights. The x and y taps of a point depend on its x
/// and y alone, so a tensor grid of probes computes each once per axis.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Tap {
    lo: usize,
    hi: usize,
    /// `1 − f`, the weight of `lo`.
    w_lo: f64,
    /// `f`, the weight of `hi`.
    w_hi: f64,
}

impl Tap {
    /// Tap of coordinate `c` on an axis of `n` cells of width `d`, whose
    /// cell offsets advance by `stride` — the clamp, floor and fraction of
    /// `bilinear`. The clamped `u` is never negative (or is NaN, which
    /// both casts send to 0), so truncating it is its floor: the same
    /// cell, without a call to `floor`.
    fn new(c: f64, d: f64, n: usize, stride: usize) -> Tap {
        let u = (c / d - 0.5).clamp(0.0, (n - 1) as f64);
        let i0 = u as usize;
        let f = u - i0 as f64;
        Tap {
            lo: i0 * stride,
            hi: (i0 + 1).min(n - 1) * stride,
            w_lo: 1.0 - f,
            w_hi: f,
        }
    }

    /// The x tap of `grid` sampled over `[0, footprint]²` at `x`.
    pub(crate) fn x(grid: &Grid, footprint: f64, x: f64) -> Tap {
        let nx = grid.nx();
        Tap::new(x, footprint / nx as f64, nx, 1)
    }

    /// The y tap of `grid` sampled over `[0, footprint]²` at `y`. The
    /// cell width is `footprint / nx` on both axes, as in `bilinear`.
    pub(crate) fn y(grid: &Grid, footprint: f64, y: f64) -> Tap {
        let nx = grid.nx();
        Tap::new(y, footprint / nx as f64, grid.ny(), nx)
    }
}

/// The bilinear sample at precomputed taps: `blend(g, Tap::x(g, fp, x),
/// Tap::y(g, fp, y))` is bitwise `bilinear(g, fp, x, y)` — the same four
/// cells and the same weighted sum in the same term order.
pub(crate) fn blend(grid: &Grid, tx: Tap, ty: Tap) -> f64 {
    let cells = grid.as_slice();
    let t00 = cells[ty.lo + tx.lo];
    let t10 = cells[ty.lo + tx.hi];
    let t01 = cells[ty.hi + tx.lo];
    let t11 = cells[ty.hi + tx.hi];
    t00 * tx.w_lo * ty.w_lo
        + t10 * tx.w_hi * ty.w_lo
        + t01 * tx.w_lo * ty.w_hi
        + t11 * tx.w_hi * ty.w_hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_by_four_has_three_classes() {
        let mut counts = [0usize; 3];
        for row in 0..4 {
            for col in 0..4 {
                let (class, _) = class_of(row, col, 4);
                counts[class] += 1;
            }
        }
        assert_eq!(counts, [4, 8, 4], "corner/edge/inner multiplicities");
    }

    #[test]
    fn octant_map_carries_chiplet_onto_representative() {
        // Chiplet (3, 2) of a 4×4 grid maps into the canonical octant at
        // (0, 1): its mapped grid position must be the edge representative.
        let (class, map) = class_of(3, 2, 4);
        assert_eq!(class, 1);
        // A point at relative grid position (col, row) = (2, 3) of a
        // footprint-10 square maps to (1, 0) scaled likewise.
        let (x, y) = map.apply(10.0, 2.0 * 10.0 / 4.0 + 1.25, 3.0 * 10.0 / 4.0 + 1.25);
        assert!((x - (1.0 * 2.5 + 1.25)).abs() < 1e-12, "x = {x}");
        assert!((y - (0.0 * 2.5 + 1.25)).abs() < 1e-12, "y = {y}");
    }

    #[test]
    fn two_by_two_is_a_single_class() {
        for row in 0..2 {
            for col in 0..2 {
                let (class, _) = class_of(row, col, 2);
                assert_eq!(class, 0);
            }
        }
    }

    #[test]
    fn bilinear_interpolates_between_cell_centers() {
        let mut g = Grid::filled(2, 2, 0.0);
        *g.get_mut(0, 0) = 1.0;
        *g.get_mut(1, 0) = 3.0;
        *g.get_mut(0, 1) = 5.0;
        *g.get_mut(1, 1) = 7.0;
        // Center of the 2×2 domain is equidistant from all four cells.
        assert!((bilinear(&g, 2.0, 1.0, 1.0) - 4.0).abs() < 1e-12);
        // At a cell center the sample is exact.
        assert!((bilinear(&g, 2.0, 0.5, 0.5) - 1.0).abs() < 1e-12);
        // Clamped outside the domain.
        assert!((bilinear(&g, 2.0, -5.0, -5.0) - 1.0).abs() < 1e-12);
        assert!((bilinear(&g, 2.0, 9.0, 9.0) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn kernel_set_builds_for_feasible_edges_only() {
        let chip = ChipSpec::scc_256();
        let rules = PackageRules::default();
        let thermal = ThermalConfig {
            grid: 12,
            ..ThermalConfig::default()
        };
        let set = KernelSet::build(
            &chip,
            &rules,
            &StackSpec::system_25d(),
            &thermal,
            Mm(30.0),
            4,
        )
        .unwrap()
        .expect("30 mm fits a 4×4 grid of 4.5 mm chiplets");
        assert_eq!(set.classes.len(), 3);
        assert_eq!(set.solves(), 3);
        assert!((set.footprint - 30.0).abs() < 1e-9);
        // The corner kernel is hottest at its own chiplet.
        let corner = &set.classes[0];
        let at_rep = bilinear(
            &corner.rise,
            set.footprint,
            corner.rep_center.0,
            corner.rep_center.1,
        );
        let far = bilinear(&set.classes[0].rise, set.footprint, 28.0, 28.0);
        assert!(at_rep > far, "rise at source {at_rep} vs far corner {far}");
        assert!(at_rep > 0.0);
        // 10 mm cannot fit 4×4 chiplets of 4.5 mm plus guards.
        let none = KernelSet::build(
            &chip,
            &rules,
            &StackSpec::system_25d(),
            &thermal,
            Mm(10.0),
            4,
        )
        .unwrap();
        assert!(none.is_none());
    }
}
