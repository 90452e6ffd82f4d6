//! Chiplet organizations: how the monolithic chip is split into chiplets and
//! where those chiplets sit on the interposer.
//!
//! Implements the paper's placement parameterization (Fig. 4(a)):
//!
//! * **Single chip** — the 2D baseline, no interposer.
//! * **Uniform r×r grid** — chiplets in "matrix fashion" with one uniform
//!   spacing between adjacent chiplets (Sec. III-C and Fig. 5).
//! * **Symmetric 4-chiplet** — 2×2 grid; s1 = s2 = 0, single central gap s3
//!   in both axes (Eq. (9) with r = 2).
//! * **Symmetric 16-chiplet** — 4×4 arrangement with independent spacings
//!   (s1, s2, s3): the outer ring of 12 chiplets sits on a symmetric grid
//!   with per-axis gaps `[s1, s3, s1]`, while the four centre chiplets are
//!   placed at distance s2 from the interposer centre lines (inner gap
//!   2·s2). The paper's overlap constraint 2·s1 + s3 − 2·s2 ≥ 0 (Eq. (10))
//!   is exactly the condition that the centre chiplets do not collide with
//!   the outer ring.
//!
//! All organizations are axially and diagonally symmetric, as the paper
//! requires.

use crate::chip::ChipSpec;
use crate::geometry::Rect;
use crate::units::Mm;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Packaging rules shared by every organization: guard band, the maximum
/// interposer edge admitted by the wafer stepper (Eq. (7)), and the search
/// lattice granularity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PackageRules {
    /// Guard band along each interposer edge (`l_g`, paper: 1 mm).
    pub guard: Mm,
    /// Maximum interposer edge (paper: 50 mm, the 2X JetStep exposure field).
    pub max_interposer: Mm,
    /// Spacing granularity (paper: 0.5 mm).
    pub step: Mm,
}

impl Default for PackageRules {
    fn default() -> Self {
        PackageRules {
            guard: Mm(1.0),
            max_interposer: Mm(50.0),
            step: Mm(0.5),
        }
    }
}

/// The independent chiplet spacings of Fig. 4(a), in millimetres.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Spacing {
    /// Outer-ring gap (between edge columns and their neighbours).
    pub s1: Mm,
    /// Distance from the interposer centre line to each centre chiplet
    /// (the gap between the two centre chiplets along an axis is 2·s2).
    pub s2: Mm,
    /// Central gap of the outer-ring grid.
    pub s3: Mm,
}

impl Spacing {
    /// Creates a spacing triple from raw millimetre values.
    pub fn new(s1: f64, s2: f64, s3: f64) -> Self {
        Spacing {
            s1: Mm(s1),
            s2: Mm(s2),
            s3: Mm(s3),
        }
    }

    /// The spacing triple that reproduces a uniform 4×4 matrix layout with
    /// gap `g` between all adjacent chiplets: s1 = s3 = g and s2 = g / 2.
    pub fn uniform(g: Mm) -> Self {
        Spacing {
            s1: g,
            s2: g / 2.0,
            s3: g,
        }
    }

    /// Returns `true` if all three spacings are non-negative and the paper's
    /// centre-chiplet overlap constraint 2·s1 + s3 − 2·s2 ≥ 0 (Eq. (10))
    /// holds.
    pub fn satisfies_overlap_rule(&self) -> bool {
        const EPS: f64 = 1e-9;
        self.s1.value() >= -EPS
            && self.s2.value() >= -EPS
            && self.s3.value() >= -EPS
            && 2.0 * self.s1.value() + self.s3.value() - 2.0 * self.s2.value() >= -EPS
    }
}

impl fmt::Display for Spacing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(s1={}, s2={}, s3={})", self.s1, self.s2, self.s3)
    }
}

/// A concrete chiplet organization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ChipletLayout {
    /// The conventional 2D baseline: the whole chip on an organic substrate,
    /// no interposer.
    SingleChip,
    /// r×r chiplets in matrix fashion with one uniform `gap` between
    /// adjacent chiplets (used by the design-space exploration of Fig. 3(b)
    /// and the spacing sweep of Fig. 5).
    Uniform {
        /// Chiplets per row/column (r ≥ 2).
        r: u16,
        /// Uniform spacing between adjacent chiplets.
        gap: Mm,
    },
    /// The 4-chiplet organization: 2×2 grid with a single central gap `s3`
    /// (s1 = s2 = 0 per Table II).
    Symmetric4 {
        /// Central gap in both axes.
        s3: Mm,
    },
    /// The 16-chiplet organization with independent spacings (see module
    /// docs for the exact parameterization).
    Symmetric16 {
        /// The spacing triple (s1, s2, s3).
        spacing: Spacing,
    },
}

/// Errors produced when validating or realizing a [`ChipletLayout`].
#[derive(Debug, Clone, PartialEq)]
pub enum LayoutError {
    /// A spacing or gap was negative.
    NegativeSpacing {
        /// The offending layout.
        layout: String,
    },
    /// A spacing or gap was NaN or infinite.
    NonFiniteSpacing {
        /// The offending layout.
        layout: String,
    },
    /// Eq. (10) violated: the centre chiplets would overlap the outer ring.
    CenterOverlap {
        /// The offending spacing triple.
        spacing: Spacing,
    },
    /// The interposer edge required by Eq. (9) exceeds the maximum (Eq. (7)).
    InterposerTooLarge {
        /// Required interposer edge.
        required: Mm,
        /// Maximum allowed edge.
        max: Mm,
    },
    /// The chip's core grid cannot be split into r×r chiplets along tile
    /// boundaries (only relevant when a core-accurate power map is needed).
    IndivisibleCoreGrid {
        /// Requested chiplets per row.
        r: u16,
        /// Core tiles per row of the chip.
        cores_per_row: u16,
    },
    /// `r` must be at least 2 for a multi-chiplet layout.
    DegenerateGrid {
        /// Requested chiplets per row.
        r: u16,
    },
    /// Two chiplet rectangles overlap (geometric defence-in-depth check;
    /// unreachable when the parameter constraints hold).
    ChipletsOverlap {
        /// Indices of the overlapping chiplets.
        a: usize,
        /// Indices of the overlapping chiplets.
        b: usize,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::NegativeSpacing { layout } => {
                write!(f, "negative chiplet spacing in {layout}")
            }
            LayoutError::NonFiniteSpacing { layout } => {
                write!(f, "non-finite chiplet spacing in {layout}")
            }
            LayoutError::CenterOverlap { spacing } => write!(
                f,
                "spacing {spacing} violates 2*s1 + s3 - 2*s2 >= 0 (Eq. (10))"
            ),
            LayoutError::InterposerTooLarge { required, max } => write!(
                f,
                "interposer edge {required} exceeds the maximum {max} (Eq. (7))"
            ),
            LayoutError::IndivisibleCoreGrid { r, cores_per_row } => write!(
                f,
                "cannot split a {cores_per_row}-wide core grid into {r}x{r} chiplets"
            ),
            LayoutError::DegenerateGrid { r } => {
                write!(f, "multi-chiplet layout needs r >= 2, got r = {r}")
            }
            LayoutError::ChipletsOverlap { a, b } => {
                write!(f, "chiplets {a} and {b} overlap")
            }
        }
    }
}

impl Error for LayoutError {}

impl ChipletLayout {
    /// Chiplets per row/column (1 for the single-chip baseline).
    pub fn r(&self) -> u16 {
        match self {
            ChipletLayout::SingleChip => 1,
            ChipletLayout::Uniform { r, .. } => *r,
            ChipletLayout::Symmetric4 { .. } => 2,
            ChipletLayout::Symmetric16 { .. } => 4,
        }
    }

    /// Total chiplet count n = r².
    pub fn chiplet_count(&self) -> usize {
        let r = self.r() as usize;
        r * r
    }

    /// Returns `true` for the 2D single-chip baseline.
    pub fn is_single_chip(&self) -> bool {
        matches!(self, ChipletLayout::SingleChip)
    }

    /// Edge length of each (square) chiplet: `w_c = w_2D / r` (Eq. (8)).
    pub fn chiplet_edge(&self, chip: &ChipSpec) -> Mm {
        chip.edge() / f64::from(self.r())
    }

    /// Interposer edge length per Eq. (9) (or the generalization for uniform
    /// r×r grids). Returns `None` for the single-chip baseline, which has no
    /// interposer.
    pub fn interposer_edge(&self, chip: &ChipSpec, rules: &PackageRules) -> Option<Mm> {
        let wc = self.chiplet_edge(chip);
        let guard2 = rules.guard * 2.0;
        match self {
            ChipletLayout::SingleChip => None,
            ChipletLayout::Uniform { r, gap } => {
                Some(wc * f64::from(*r) + *gap * f64::from(r - 1) + guard2)
            }
            ChipletLayout::Symmetric4 { s3 } => Some(wc * 2.0 + *s3 + guard2),
            ChipletLayout::Symmetric16 { spacing } => {
                Some(wc * 4.0 + spacing.s1 * 2.0 + spacing.s3 + guard2)
            }
        }
    }

    /// Edge of the package footprint the thermal model grids over: the
    /// interposer edge for 2.5D systems, the chip edge for the baseline.
    pub fn footprint_edge(&self, chip: &ChipSpec, rules: &PackageRules) -> Mm {
        self.interposer_edge(chip, rules)
            .unwrap_or_else(|| chip.edge())
    }

    /// Checks all organization constraints (finite, non-negative spacings, Eq. (10),
    /// Eq. (7) interposer bound, geometric non-overlap).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint as a [`LayoutError`].
    pub fn validate(&self, chip: &ChipSpec, rules: &PackageRules) -> Result<(), LayoutError> {
        match self {
            ChipletLayout::SingleChip => return Ok(()),
            ChipletLayout::Uniform { r, gap } => {
                if *r < 2 {
                    return Err(LayoutError::DegenerateGrid { r: *r });
                }
                self.check_spacings(&[*gap])?;
            }
            ChipletLayout::Symmetric4 { s3 } => self.check_spacings(&[*s3])?,
            ChipletLayout::Symmetric16 { spacing } => {
                self.check_spacings(&[spacing.s1, spacing.s2, spacing.s3])?;
                if !spacing.satisfies_overlap_rule() {
                    return Err(LayoutError::CenterOverlap { spacing: *spacing });
                }
            }
        }
        let edge = self
            .interposer_edge(chip, rules)
            .expect("multi-chiplet layouts have an interposer");
        if edge.value() > rules.max_interposer.value() + 1e-9 {
            return Err(LayoutError::InterposerTooLarge {
                required: edge,
                max: rules.max_interposer,
            });
        }
        // Defence-in-depth: verify the realized rectangles are disjoint.
        let rects = self.chiplet_rects(chip, rules);
        for i in 0..rects.len() {
            for j in (i + 1)..rects.len() {
                if rects[i].overlaps(&rects[j]) {
                    return Err(LayoutError::ChipletsOverlap { a: i, b: j });
                }
            }
        }
        Ok(())
    }

    /// Rejects NaN/infinite spacings, then negative ones. NaN compares
    /// false against every bound, so it must be caught before any
    /// geometric check.
    fn check_spacings(&self, spacings: &[Mm]) -> Result<(), LayoutError> {
        let layout = || format!("{self:?}");
        if spacings.iter().any(|s| !s.value().is_finite()) {
            return Err(LayoutError::NonFiniteSpacing { layout: layout() });
        }
        if spacings.iter().any(|s| s.value() < 0.0) {
            return Err(LayoutError::NegativeSpacing { layout: layout() });
        }
        Ok(())
    }

    /// Physical rectangles of all chiplets, row-major over the chiplet grid
    /// (chiplet 0 is lower-left), in footprint coordinates (origin at the
    /// lower-left interposer corner, or chip corner for the baseline).
    ///
    /// The returned order matches [`ChipSpec::core_to_chiplet`]'s chiplet
    /// indices so power maps can be assembled per chiplet.
    pub fn chiplet_rects(&self, chip: &ChipSpec, rules: &PackageRules) -> Vec<Rect> {
        let wc = self.chiplet_edge(chip).value();
        let lg = rules.guard.value();
        match self {
            ChipletLayout::SingleChip => {
                vec![Rect::from_corner(
                    0.0,
                    0.0,
                    chip.edge().value(),
                    chip.edge().value(),
                )]
            }
            ChipletLayout::Uniform { r, gap } => {
                let r = *r as usize;
                let pitch = wc + gap.value();
                let mut rects = Vec::with_capacity(r * r);
                for row in 0..r {
                    for col in 0..r {
                        rects.push(Rect::from_corner(
                            lg + col as f64 * pitch,
                            lg + row as f64 * pitch,
                            wc,
                            wc,
                        ));
                    }
                }
                rects
            }
            ChipletLayout::Symmetric4 { s3 } => {
                let s3 = s3.value();
                let xs = [lg, lg + wc + s3];
                let mut rects = Vec::with_capacity(4);
                for &y in &xs {
                    for &x in &xs {
                        rects.push(Rect::from_corner(x, y, wc, wc));
                    }
                }
                rects
            }
            ChipletLayout::Symmetric16 { spacing } => {
                let (s1, s2, s3) = (spacing.s1.value(), spacing.s2.value(), spacing.s3.value());
                let edge = 4.0 * wc + 2.0 * s1 + s3 + 2.0 * lg;
                let c = edge / 2.0;
                // Outer-ring grid coordinates per axis: [s1, s3, s1] gaps.
                let grid = [
                    lg,
                    lg + wc + s1,
                    lg + 2.0 * wc + s1 + s3,
                    lg + 3.0 * wc + 2.0 * s1 + s3,
                ];
                // Centre-block coordinates per axis (lower edges).
                let inner = [c - s2 - wc, c + s2];
                let mut rects = Vec::with_capacity(16);
                for row in 0..4usize {
                    for col in 0..4usize {
                        let is_inner_row = row == 1 || row == 2;
                        let is_inner_col = col == 1 || col == 2;
                        let (x, y) = if is_inner_row && is_inner_col {
                            (inner[col - 1], inner[row - 1])
                        } else {
                            (grid[col], grid[row])
                        };
                        rects.push(Rect::from_corner(x, y, wc, wc));
                    }
                }
                rects
            }
        }
    }

    /// The footprint rectangle (interposer or baseline chip) at the origin.
    pub fn footprint_rect(&self, chip: &ChipSpec, rules: &PackageRules) -> Rect {
        let e = self.footprint_edge(chip, rules).value();
        Rect::from_corner(0.0, 0.0, e, e)
    }
}

impl fmt::Display for ChipletLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChipletLayout::SingleChip => write!(f, "single-chip 2D baseline"),
            ChipletLayout::Uniform { r, gap } => {
                write!(f, "{r}x{r} uniform grid, gap {gap}")
            }
            ChipletLayout::Symmetric4 { s3 } => write!(f, "4-chiplet, s3={s3}"),
            ChipletLayout::Symmetric16 { spacing } => {
                write!(f, "16-chiplet, {spacing}")
            }
        }
    }
}

/// Enumerates every valid 16-chiplet spacing triple whose interposer edge is
/// exactly `edge` on the `rules.step` lattice (the per-(f, p, cost) search
/// space of the paper's optimizer).
///
/// Returns an empty vector when `edge` is smaller than the minimum
/// (zero-spacing) interposer or is off-lattice.
pub fn enumerate_symmetric16(chip: &ChipSpec, rules: &PackageRules, edge: Mm) -> Vec<Spacing> {
    let wc = chip.edge().value() / 4.0;
    let free = edge.value() - 4.0 * wc - 2.0 * rules.guard.value(); // = 2*s1 + s3
    let step = rules.step.value();
    if free < -1e-9 {
        return Vec::new();
    }
    let mut out = Vec::new();
    let n1 = (free / 2.0 / step + 1e-9).floor() as i64;
    for i in 0..=n1 {
        let s1 = i as f64 * step;
        let s3 = free - 2.0 * s1;
        if s3 < -1e-9 {
            break;
        }
        // Eq. (10): s2 <= s1 + s3/2 = free/2 - ... actually 2*s1+s3 = free,
        // so s2 ranges over [0, free/2].
        let n2 = (free / 2.0 / step + 1e-9).floor() as i64;
        for j in 0..=n2 {
            let s2 = j as f64 * step;
            let sp = Spacing::new(s1, s2, s3.max(0.0));
            if sp.satisfies_overlap_rule() {
                out.push(sp);
            }
        }
    }
    out
}

/// The 4-chiplet spacing (single value s3) whose interposer edge is exactly
/// `edge`, if it is non-negative.
pub fn symmetric4_for_edge(chip: &ChipSpec, rules: &PackageRules, edge: Mm) -> Option<Mm> {
    let wc = chip.edge().value() / 2.0;
    let s3 = edge.value() - 2.0 * wc - 2.0 * rules.guard.value();
    (s3 >= -1e-9).then(|| Mm(s3.max(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chip() -> ChipSpec {
        ChipSpec::scc_256()
    }

    fn rules() -> PackageRules {
        PackageRules::default()
    }

    #[test]
    fn eq9_holds_for_symmetric4() {
        let l = ChipletLayout::Symmetric4 { s3: Mm(8.0) };
        // w_int = 2*9 + 8 + 2*1 = 28
        assert_eq!(l.interposer_edge(&chip(), &rules()), Some(Mm(28.0)));
        assert_eq!(l.chiplet_edge(&chip()), Mm(9.0));
    }

    #[test]
    fn eq9_holds_for_symmetric16() {
        let l = ChipletLayout::Symmetric16 {
            spacing: Spacing::new(2.0, 1.0, 3.0),
        };
        // w_int = 4*4.5 + 2*2 + 3 + 2 = 27
        assert_eq!(l.interposer_edge(&chip(), &rules()), Some(Mm(27.0)));
    }

    #[test]
    fn uniform_edge_formula() {
        let l = ChipletLayout::Uniform { r: 4, gap: Mm(2.0) };
        // 4*4.5 + 3*2 + 2 = 26
        assert_eq!(l.interposer_edge(&chip(), &rules()), Some(Mm(26.0)));
    }

    #[test]
    fn single_chip_has_no_interposer() {
        let l = ChipletLayout::SingleChip;
        assert_eq!(l.interposer_edge(&chip(), &rules()), None);
        assert_eq!(l.footprint_edge(&chip(), &rules()), Mm(18.0));
        assert_eq!(l.chiplet_rects(&chip(), &rules()).len(), 1);
    }

    #[test]
    fn rect_count_matches_chiplet_count() {
        for l in [
            ChipletLayout::Uniform { r: 3, gap: Mm(1.0) },
            ChipletLayout::Symmetric4 { s3: Mm(2.0) },
            ChipletLayout::Symmetric16 {
                spacing: Spacing::new(1.0, 0.5, 2.0),
            },
        ] {
            assert_eq!(l.chiplet_rects(&chip(), &rules()).len(), l.chiplet_count());
        }
    }

    #[test]
    fn all_rects_inside_interposer_and_disjoint() {
        let l = ChipletLayout::Symmetric16 {
            spacing: Spacing::new(2.0, 2.0, 1.5),
        };
        l.validate(&chip(), &rules()).unwrap();
        let fp = l.footprint_rect(&chip(), &rules());
        let rects = l.chiplet_rects(&chip(), &rules());
        for r in &rects {
            assert!(fp.contains_rect(r), "{r:?} outside {fp:?}");
        }
    }

    #[test]
    fn symmetric16_is_diagonally_symmetric() {
        let l = ChipletLayout::Symmetric16 {
            spacing: Spacing::new(1.5, 1.0, 3.0),
        };
        let rects = l.chiplet_rects(&chip(), &rules());
        // Transposing (row, col) must map chiplet rect (x, y) -> (y, x).
        for row in 0..4usize {
            for col in 0..4usize {
                let a = rects[row * 4 + col];
                let b = rects[col * 4 + row];
                assert!((a.x0().value() - b.y0().value()).abs() < 1e-9);
                assert!((a.y0().value() - b.x0().value()).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn symmetric16_is_axially_symmetric() {
        let l = ChipletLayout::Symmetric16 {
            spacing: Spacing::new(1.5, 1.0, 3.0),
        };
        let edge = l.footprint_edge(&chip(), &rules());
        let rects = l.chiplet_rects(&chip(), &rules());
        for row in 0..4usize {
            for col in 0..4usize {
                let a = rects[row * 4 + col];
                let b = rects[row * 4 + (3 - col)].mirrored_x(edge / 2.0);
                assert!(
                    (a.x0().value() - b.x0().value()).abs() < 1e-9,
                    "row {row} col {col}"
                );
            }
        }
    }

    #[test]
    fn eq10_violation_detected() {
        let l = ChipletLayout::Symmetric16 {
            // 2*0 + 1 - 2*2 = -3 < 0
            spacing: Spacing::new(0.0, 2.0, 1.0),
        };
        assert!(matches!(
            l.validate(&chip(), &rules()),
            Err(LayoutError::CenterOverlap { .. })
        ));
    }

    #[test]
    fn eq10_boundary_is_feasible_and_touching() {
        // 2*s1 + s3 = 2*s2 exactly: centre chiplets touch the ring.
        let l = ChipletLayout::Symmetric16 {
            spacing: Spacing::new(1.0, 2.0, 2.0),
        };
        l.validate(&chip(), &rules()).unwrap();
    }

    #[test]
    fn interposer_bound_enforced() {
        let l = ChipletLayout::Symmetric4 { s3: Mm(40.0) };
        assert!(matches!(
            l.validate(&chip(), &rules()),
            Err(LayoutError::InterposerTooLarge { .. })
        ));
    }

    #[test]
    fn negative_spacing_rejected() {
        let l = ChipletLayout::Symmetric4 { s3: Mm(-1.0) };
        assert!(matches!(
            l.validate(&chip(), &rules()),
            Err(LayoutError::NegativeSpacing { .. })
        ));
    }

    #[test]
    fn non_finite_spacing_rejected() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let layouts = [
                ChipletLayout::Uniform { r: 4, gap: Mm(bad) },
                ChipletLayout::Symmetric4 { s3: Mm(bad) },
                ChipletLayout::Symmetric16 {
                    spacing: Spacing::new(bad, 1.0, 2.0),
                },
                ChipletLayout::Symmetric16 {
                    spacing: Spacing::new(2.0, bad, 2.0),
                },
                ChipletLayout::Symmetric16 {
                    spacing: Spacing::new(2.0, 1.0, bad),
                },
            ];
            for l in layouts {
                assert!(
                    matches!(
                        l.validate(&chip(), &rules()),
                        Err(LayoutError::NonFiniteSpacing { .. })
                    ),
                    "{l:?} must be rejected as non-finite"
                );
            }
        }
    }

    #[test]
    fn uniform_spacing_special_case_matches_uniform_layout() {
        // Symmetric16 with Spacing::uniform(g) must produce the same rects
        // as Uniform { r: 4, gap: g }.
        let g = Mm(3.0);
        let a = ChipletLayout::Symmetric16 {
            spacing: Spacing::uniform(g),
        };
        let b = ChipletLayout::Uniform { r: 4, gap: g };
        assert_eq!(
            a.interposer_edge(&chip(), &rules()),
            b.interposer_edge(&chip(), &rules())
        );
        let ra = a.chiplet_rects(&chip(), &rules());
        let rb = b.chiplet_rects(&chip(), &rules());
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert!(
                (x.x0().value() - y.x0().value()).abs() < 1e-9,
                "{x:?} vs {y:?}"
            );
            assert!((x.y0().value() - y.y0().value()).abs() < 1e-9);
        }
    }

    #[test]
    fn enumerate_symmetric16_respects_edge_and_eq10() {
        let edge = Mm(30.0);
        let sps = enumerate_symmetric16(&chip(), &rules(), edge);
        assert!(!sps.is_empty());
        for sp in &sps {
            let l = ChipletLayout::Symmetric16 { spacing: *sp };
            assert_eq!(l.interposer_edge(&chip(), &rules()).unwrap(), edge);
            l.validate(&chip(), &rules()).unwrap();
        }
    }

    #[test]
    fn enumerate_symmetric16_empty_below_minimum() {
        // Minimum edge = 18 + 2 = 20 mm; below that no placement exists.
        assert!(enumerate_symmetric16(&chip(), &rules(), Mm(19.5)).is_empty());
        assert_eq!(enumerate_symmetric16(&chip(), &rules(), Mm(20.0)).len(), 1);
    }

    #[test]
    fn symmetric4_for_edge_inverts_eq9() {
        let s3 = symmetric4_for_edge(&chip(), &rules(), Mm(28.0)).unwrap();
        assert_eq!(s3, Mm(8.0));
        assert!(symmetric4_for_edge(&chip(), &rules(), Mm(19.0)).is_none());
    }

    #[test]
    fn display_is_informative() {
        let l = ChipletLayout::Symmetric16 {
            spacing: Spacing::new(1.0, 0.5, 2.0),
        };
        let s = l.to_string();
        assert!(s.contains("16-chiplet"));
        assert!(s.contains("s2=0.5mm"));
    }
}
