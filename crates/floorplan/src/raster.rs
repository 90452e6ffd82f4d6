//! Rasterization of chiplet organizations onto the regular grid used by the
//! thermal solver.
//!
//! The paper treats each core as a single block of heat source and runs
//! HotSpot on a 64×64 grid (Sec. IV). This module produces the same inputs:
//! a *coverage grid* (what fraction of each cell lies under silicon) that the
//! thermal crate turns into per-cell effective materials, and a *power grid*
//! that conservatively (area-weighted, power-preserving) distributes each
//! core tile's watts over the cells it touches.

use crate::chip::{ChipSpec, CoreId};
use crate::geometry::Rect;
use crate::organization::{ChipletLayout, LayoutError, PackageRules};
use crate::units::Mm;
use serde::{Deserialize, Serialize};

/// A dense row-major scalar grid over the package footprint.
///
/// Cell `(ix, iy)` covers `[ix·dx, (ix+1)·dx] × [iy·dy, (iy+1)·dy]` in
/// footprint coordinates; `ix` advances along x, `iy` along y.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    nx: usize,
    ny: usize,
    cells: Vec<f64>,
}

impl Grid {
    /// Creates a grid of `nx × ny` cells filled with `value`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn filled(nx: usize, ny: usize, value: f64) -> Self {
        assert!(
            nx > 0 && ny > 0,
            "grid dimensions must be positive ({nx}x{ny})"
        );
        Grid {
            nx,
            ny,
            cells: vec![value; nx * ny],
        }
    }

    /// Cells along x.
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Cells along y.
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total cell count.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the grid has no cells (never true for constructed
    /// grids; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Flat row-major index of cell `(ix, iy)`.
    ///
    /// # Panics
    ///
    /// Panics if the cell is out of range.
    #[inline]
    pub fn idx(&self, ix: usize, iy: usize) -> usize {
        assert!(
            ix < self.nx && iy < self.ny,
            "cell ({ix},{iy}) out of {}x{}",
            self.nx,
            self.ny
        );
        iy * self.nx + ix
    }

    /// Value at cell `(ix, iy)`.
    #[inline]
    pub fn get(&self, ix: usize, iy: usize) -> f64 {
        self.cells[self.idx(ix, iy)]
    }

    /// Mutable reference to cell `(ix, iy)`.
    #[inline]
    pub fn get_mut(&mut self, ix: usize, iy: usize) -> &mut f64 {
        let i = self.idx(ix, iy);
        &mut self.cells[i]
    }

    /// Flat view of all cells (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.cells
    }

    /// Sum of all cell values.
    pub fn sum(&self) -> f64 {
        self.cells.iter().sum()
    }

    /// Maximum cell value (NaN-free inputs assumed).
    pub fn max(&self) -> f64 {
        self.cells.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }
}

/// A core tile placed at its physical location in footprint coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlacedCore {
    /// The core's id on the logical 16×16 grid.
    pub core: CoreId,
    /// Index of the chiplet hosting the core (row-major over the chiplet
    /// grid; 0 for the single-chip baseline).
    pub chiplet: usize,
    /// Physical tile rectangle.
    pub rect: Rect,
}

/// Computes the physical placement of every core tile for a layout.
///
/// Cores keep their logical chip position *within* their chiplet; the
/// chiplet itself moves per the layout. The result is ordered by core id.
///
/// # Errors
///
/// Returns [`LayoutError::IndivisibleCoreGrid`] if the layout's r does not
/// divide the chip's core grid (e.g. a 3×3 uniform layout of the 16×16-core
/// chip), in which case no core-accurate map exists.
pub fn place_cores(
    chip: &ChipSpec,
    layout: &ChipletLayout,
    rules: &PackageRules,
) -> Result<Vec<PlacedCore>, LayoutError> {
    let r = layout.r();
    if !chip.divisible_by(r) {
        return Err(LayoutError::IndivisibleCoreGrid {
            r,
            cores_per_row: chip.cores_per_row(),
        });
    }
    let rects = layout.chiplet_rects(chip, rules);
    let tile = chip.tile_edge().value();
    let mut placed = Vec::with_capacity(chip.core_count() as usize);
    for core in chip.cores() {
        let (chiplet, (lrow, lcol)) = chip.core_to_chiplet(r, core);
        let host = &rects[chiplet];
        let rect = Rect::from_corner(
            host.x0().value() + f64::from(lcol) * tile,
            host.y0().value() + f64::from(lrow) * tile,
            tile,
            tile,
        );
        placed.push(PlacedCore {
            core,
            chiplet,
            rect,
        });
    }
    Ok(placed)
}

/// Rasterizes the fraction of each grid cell covered by any chiplet.
///
/// Values are in `[0, 1]`; the thermal crate mixes the layer's
/// `under_chiplet` and `background` materials by this fraction.
pub fn coverage_grid(footprint_edge: Mm, nx: usize, ny: usize, chiplets: &[Rect]) -> Grid {
    let mut grid = Grid::filled(nx, ny, 0.0);
    let cell_area = (footprint_edge.value() / nx as f64) * (footprint_edge.value() / ny as f64);
    for rect in chiplets {
        for (cell, a) in overlap_weights(footprint_edge, nx, ny, rect) {
            grid.cells[cell] = (grid.cells[cell] + a / cell_area).min(1.0);
        }
    }
    grid
}

/// Rasterizes a set of rectangular power sources (watts) onto the grid,
/// distributing each source's power over the cells it overlaps in proportion
/// to overlap area ([`overlap_weights`]). Power is conserved for sources
/// fully inside the footprint.
pub fn power_grid(footprint_edge: Mm, nx: usize, ny: usize, sources: &[(Rect, f64)]) -> Grid {
    let mut grid = Grid::filled(nx, ny, 0.0);
    for (rect, watts) in sources {
        let area = rect.area().value();
        if area <= 0.0 || *watts == 0.0 {
            continue;
        }
        let density = watts / area;
        for (cell, a) in overlap_weights(footprint_edge, nx, ny, rect) {
            grid.cells[cell] += density * a;
        }
    }
    grid
}

/// The cells a rectangle overlaps, as `(row-major cell index, overlap
/// area in mm²)` in row-major order. These are the one set of weights
/// behind both directions of the core–grid coupling: [`power_grid`]
/// spreads a source's watts over its cells in proportion to them, and the
/// thermal crate's rectangle averages read a field back with them, which
/// is what makes the leakage feedback operator symmetric.
pub fn overlap_weights(footprint_edge: Mm, nx: usize, ny: usize, rect: &Rect) -> Vec<(usize, f64)> {
    let dx = footprint_edge.value() / nx as f64;
    let dy = footprint_edge.value() / ny as f64;
    let ix0 = ((rect.x0().value() / dx).floor().max(0.0)) as usize;
    let iy0 = ((rect.y0().value() / dy).floor().max(0.0)) as usize;
    let ix1 = (((rect.x1().value() / dx).ceil()) as usize).min(nx);
    let iy1 = (((rect.y1().value() / dy).ceil()) as usize).min(ny);
    let mut weights = Vec::with_capacity(ix1.saturating_sub(ix0) * iy1.saturating_sub(iy0));
    for iy in iy0..iy1 {
        for ix in ix0..ix1 {
            let cell_rect = Rect::from_corner(ix as f64 * dx, iy as f64 * dy, dx, dy);
            let a = rect.intersection_area(&cell_rect).value();
            if a > 0.0 {
                weights.push((iy * nx + ix, a));
            }
        }
    }
    weights
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::organization::Spacing;

    fn chip() -> ChipSpec {
        ChipSpec::scc_256()
    }

    fn rules() -> PackageRules {
        PackageRules::default()
    }

    #[test]
    fn place_cores_single_chip_tiles_the_die() {
        let placed = place_cores(&chip(), &ChipletLayout::SingleChip, &rules()).unwrap();
        assert_eq!(placed.len(), 256);
        let total_area: f64 = placed.iter().map(|p| p.rect.area().value()).sum();
        assert!((total_area - 324.0).abs() < 1e-6);
        // All tiles inside the 18x18 die.
        let die = Rect::from_corner(0.0, 0.0, 18.0, 18.0);
        assert!(placed.iter().all(|p| die.contains_rect(&p.rect)));
    }

    #[test]
    fn place_cores_respects_chiplet_motion() {
        let layout = ChipletLayout::Symmetric4 { s3: Mm(8.0) };
        let placed = place_cores(&chip(), &layout, &rules()).unwrap();
        let rects = layout.chiplet_rects(&chip(), &rules());
        for p in &placed {
            assert!(
                rects[p.chiplet].contains_rect(&p.rect),
                "{:?} escaped chiplet {}",
                p.rect,
                p.chiplet
            );
        }
        // Core 0 (lower-left) sits at the lower-left chiplet's corner.
        assert!((placed[0].rect.x0().value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn place_cores_rejects_indivisible() {
        let layout = ChipletLayout::Uniform { r: 3, gap: Mm(1.0) };
        assert!(matches!(
            place_cores(&chip(), &layout, &rules()),
            Err(LayoutError::IndivisibleCoreGrid { r: 3, .. })
        ));
    }

    #[test]
    fn grid_indexing_row_major() {
        let mut g = Grid::filled(4, 3, 0.0);
        *g.get_mut(1, 2) = 7.0;
        assert_eq!(g.as_slice()[2 * 4 + 1], 7.0);
        assert_eq!(g.get(1, 2), 7.0);
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn grid_rejects_out_of_range() {
        let g = Grid::filled(4, 3, 0.0);
        let _ = g.get(4, 0);
    }

    #[test]
    fn power_is_conserved() {
        let sources = vec![
            (Rect::from_corner(1.3, 1.7, 2.1, 2.9), 10.0),
            (Rect::from_corner(10.0, 10.0, 0.7, 0.7), 3.5),
        ];
        let g = power_grid(Mm(20.0), 64, 64, &sources);
        assert!((g.sum() - 13.5).abs() < 1e-9, "sum = {}", g.sum());
    }

    #[test]
    fn power_lands_in_the_right_cells() {
        // One 1x1 source exactly covering cell (2, 3) of a 10x10 grid over
        // a 10 mm footprint.
        let g = power_grid(
            Mm(10.0),
            10,
            10,
            &[(Rect::from_corner(2.0, 3.0, 1.0, 1.0), 5.0)],
        );
        assert!((g.get(2, 3) - 5.0).abs() < 1e-12);
        assert!((g.sum() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn power_splits_across_cells_by_area() {
        // A 1x1 source centred on the corner shared by 4 cells.
        let g = power_grid(
            Mm(10.0),
            10,
            10,
            &[(Rect::from_corner(1.5, 1.5, 1.0, 1.0), 4.0)],
        );
        for (ix, iy) in [(1, 1), (2, 1), (1, 2), (2, 2)] {
            assert!((g.get(ix, iy) - 1.0).abs() < 1e-12, "cell ({ix},{iy})");
        }
    }

    #[test]
    fn coverage_fraction_bounds_and_values() {
        let layout = ChipletLayout::Symmetric16 {
            spacing: Spacing::new(2.0, 1.0, 3.0),
        };
        let edge = layout.footprint_edge(&chip(), &rules());
        let rects = layout.chiplet_rects(&chip(), &rules());
        let g = coverage_grid(edge, 64, 64, &rects);
        assert!(g.as_slice().iter().all(|&c| (0.0..=1.0).contains(&c)));
        // Total covered area equals total chiplet area.
        let cell_area = (edge.value() / 64.0).powi(2);
        let covered: f64 = g.as_slice().iter().map(|c| c * cell_area).sum();
        let chiplet_area: f64 = rects.iter().map(|r| r.area().value()).sum();
        assert!(
            (covered - chiplet_area).abs() < 1e-6,
            "covered {covered} vs chiplets {chiplet_area}"
        );
    }

    #[test]
    fn coverage_of_single_chip_is_full_die() {
        let g = coverage_grid(Mm(18.0), 32, 32, &[Rect::from_corner(0.0, 0.0, 18.0, 18.0)]);
        assert!(g.as_slice().iter().all(|&c| (c - 1.0).abs() < 1e-12));
    }
}
