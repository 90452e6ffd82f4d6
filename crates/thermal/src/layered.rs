//! The package network's linear operator: `L` stacked `n × n` grid layers
//! stored by fixed offsets, plus a small CSR border for the lumped nodes
//! appended after the grid.
//!
//! Grid node `i = layer·n² + iy·n + ix` couples only to `i ± 1`, `i ± n`
//! and `i ± n²`, so a grid row is its diagonal and three lower bands
//! (`−1`, `−n`, `−n²`); the upper bands are the lower ones read at shifted
//! indices, because the assembled matrix is symmetric bit for bit. IC(0)
//! has no fill, so its factor has the same three bands and `Lᵀ` is never
//! stored either. The rows and columns of the (at most a dozen) periphery
//! nodes live in the CSR [`Shape`] border, which also records where each
//! grid row couples to them. [`LayeredMatrix`] and [`LayeredIc0`] hide
//! the format; the network assembler only names links and grounds.
//!
//! Every kernel reproduces CSR arithmetic exactly: each row is summed in
//! ascending column order, structurally absent neighbours are skipped
//! rather than multiplied by zero, and the factor is the up-looking IC(0)
//! recurrence. The lower columns of a grid row and of any earlier grid
//! row it couples to never meet (at `n = 2`, `i − n²` equals
//! `(i − n) − n` and `i − n` equals `(i − 1) − 1`, but those neighbours
//! do not exist on a 2×2 raster), so a grid row of the factor is
//! closed-form: `l = a·inv_d[j]` and `d = √(a_ii − Σl²)`, the sum in
//! ascending columns. Only the
//! periphery rows keep the general sparse merge. The result is that
//! fields, iteration counts and counters equal those of the CSR path they
//! replaced, which the `layered_props` oracle tests check bit for bit.
//!
//! Conductances are checked non-negative and finite on the way in, so
//! every assembled matrix is symmetric and weakly diagonally dominant
//! with non-positive off-diagonals: with every part of the network
//! grounded, an M-matrix, whose IC(0) exists with positive pivots
//! (Meijerink & van der Vorst, Math. Comp. 1977). [`LayeredIc0::factor`]
//! therefore factors `A` itself and reports a failed pivot as an error.

use std::sync::Arc;

use crate::sparse::{CsrMatrix, LinearOperator, Precondition, SolveError};

/// Raster lines whose recurrences the triangular sweeps advance together
/// (the kernels are instantiated for groups of 1 to 4 lines).
const GROUP: usize = 4;

/// Direction of a grid link, from a cell to its `+1`, `+n` or `+n²`
/// neighbour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// To the next cell of the raster line (`+1`).
    X,
    /// To the same cell of the next raster line (`+n`).
    Y,
    /// To the same cell of the next layer (`+n²`).
    Z,
}

/// The geometry-only half of a layered operator: grid dimensions and the
/// border — periphery rows as CSR, each grid row's couplings to them, and
/// the grid-row diagonal terms contributed by border links and grounds.
/// Built once per package geometry and shared (`Arc`) by every matrix and
/// factor on it.
#[derive(Debug)]
pub struct Shape {
    n: usize,
    layers: usize,
    ng: usize,
    nodes: usize,
    /// Periphery rows (nodes `ng..nodes`): ascending columns, diagonal
    /// included.
    p_ptr: Vec<u32>,
    p_col: Vec<u32>,
    p_diag: Vec<u32>,
    /// For each periphery slot whose column is a periphery node, the slot
    /// of the mirrored entry.
    p_mirror: Vec<u32>,
    /// Periphery row values: fixed by the geometry.
    p_val: Vec<f64>,
    /// Grid row `i`'s couplings, ascending periphery node, are entries
    /// `g_ptr[i]..g_ptr[i + 1]`: the node and the periphery slot `(p, i)`.
    g_ptr: Vec<u32>,
    g_node: Vec<u32>,
    g_slot: Vec<u32>,
    /// Grid-row diagonal terms from border links, then grounds, each in
    /// emission order.
    extras: Vec<(u32, f64)>,
}

impl Shape {
    /// A `layers × n × n` grid followed by `periphery` lumped nodes.
    /// `links` are the two-node conductances with at least one periphery
    /// end and `grounds` the conductances to ambient, each in the order
    /// their terms are to be summed into the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`, there are no layers, a node is out of range, a
    /// link joins two grid nodes or a node to itself, or a conductance is
    /// negative or non-finite.
    pub fn new(
        n: usize,
        layers: usize,
        periphery: usize,
        links: &[(usize, usize, f64)],
        grounds: &[(usize, f64)],
    ) -> Shape {
        assert!(n >= 2, "grid must be at least 2x2, got {n}");
        assert!(layers >= 1, "stack must contain layers");
        let ng = layers * n * n;
        let nodes = ng + periphery;
        for &(i, j, g) in links {
            assert!(
                i < nodes && j < nodes,
                "link ({i},{j}) out of {nodes} nodes"
            );
            assert!(i != j, "conductance needs two distinct nodes, got {i}");
            assert!(i >= ng || j >= ng, "link ({i},{j}) joins two grid nodes");
            check_conductance(g, "link");
        }
        for &(i, g) in grounds {
            assert!(i < nodes, "ground at {i} out of {nodes} nodes");
            check_conductance(g, "ground");
        }

        // Periphery pattern: the diagonal plus every linked column.
        let mut rows: Vec<Vec<u32>> = (ng..nodes).map(|p| vec![p as u32]).collect();
        for &(i, j, _) in links {
            for (a, b) in [(i, j), (j, i)] {
                if a >= ng {
                    rows[a - ng].push(b as u32);
                }
            }
        }
        let mut p_ptr = vec![0u32];
        let mut p_col = Vec::new();
        for row in &mut rows {
            row.sort_unstable();
            row.dedup();
            p_col.extend_from_slice(row);
            p_ptr.push(p_col.len() as u32);
        }
        let slot = |p: usize, c: usize| -> usize {
            let (lo, hi) = (p_ptr[p - ng] as usize, p_ptr[p - ng + 1] as usize);
            lo + p_col[lo..hi]
                .binary_search(&(c as u32))
                .expect("periphery entry exists")
        };
        let p_diag: Vec<u32> = (ng..nodes).map(|p| slot(p, p) as u32).collect();
        let p_mirror: Vec<u32> = (0..periphery)
            .flat_map(|q| {
                let p = ng + q;
                (p_ptr[q]..p_ptr[q + 1]).map(move |e| (p, e))
            })
            .map(|(p, e)| {
                let c = p_col[e as usize] as usize;
                if c >= ng {
                    slot(c, p) as u32
                } else {
                    u32::MAX
                }
            })
            .collect();

        // Values, replayed in emission order so each slot sums its terms
        // in that order.
        let mut p_val = vec![0.0f64; p_col.len()];
        let mut extras = Vec::new();
        for &(i, j, g) in links {
            for (a, b) in [(i, j), (j, i)] {
                if a >= ng {
                    p_val[slot(a, a)] += g;
                    p_val[slot(a, b)] -= g;
                } else {
                    extras.push((a as u32, g));
                }
            }
        }
        for &(i, g) in grounds {
            if i >= ng {
                p_val[slot(i, i)] += g;
            } else {
                extras.push((i as u32, g));
            }
        }

        // Grid rows' couplings, ascending periphery node within a row.
        let mut couplings: Vec<(u32, u32, u32)> = Vec::new();
        for q in 0..periphery {
            for e in p_ptr[q]..p_ptr[q + 1] {
                let c = p_col[e as usize];
                if (c as usize) < ng {
                    couplings.push((c, (ng + q) as u32, e));
                }
            }
        }
        couplings.sort_unstable();
        let mut g_ptr = vec![0u32; ng + 1];
        for &(c, _, _) in &couplings {
            g_ptr[c as usize + 1] += 1;
        }
        for i in 0..ng {
            g_ptr[i + 1] += g_ptr[i];
        }
        Shape {
            n,
            layers,
            ng,
            nodes,
            p_ptr,
            p_col,
            p_diag,
            p_mirror,
            p_val,
            g_ptr,
            g_node: couplings.iter().map(|c| c.1).collect(),
            g_slot: couplings.iter().map(|c| c.2).collect(),
            extras,
        }
    }

    fn periphery(&self) -> usize {
        self.nodes - self.ng
    }

    /// Slots of periphery row `q`: `(start, diagonal, end)`.
    #[inline]
    fn p_row(&self, q: usize) -> (usize, usize, usize) {
        (
            self.p_ptr[q] as usize,
            self.p_diag[q] as usize,
            self.p_ptr[q + 1] as usize,
        )
    }

    /// Border entries of grid row `i`.
    #[inline]
    fn g_range(&self, i: usize) -> std::ops::Range<usize> {
        self.g_ptr[i] as usize..self.g_ptr[i + 1] as usize
    }

    /// Whether any of the interior cells `1..n−1` of the raster line
    /// starting at `b` couples to the border.
    #[inline]
    fn interior_border(&self, b: usize) -> bool {
        self.g_ptr[b + 1] != self.g_ptr[b + self.n - 1]
    }
}

/// Panics unless `g` is a conductance: non-negative and finite.
fn check_conductance(g: f64, what: &str) {
    assert!(g >= 0.0 && g.is_finite(), "bad {what} conductance {g}");
}

/// The CSR matrix of a layered grid assembled term by term, as the
/// retired CSR scaffold did: every grid link in emission order — cells
/// ascending, each emitting its `X`, `Y`, `Z` links with conductance
/// `g(axis, layer, cell)` — then `links`, then `grounds`, each term summed
/// into its `(row, column)` slot. The oracle the banded fill is checked
/// against bit for bit; it sorts as it goes, so it is for tests only.
#[doc(hidden)]
pub fn emission_order_csr(
    n: usize,
    layers: usize,
    periphery: usize,
    mut g: impl FnMut(Axis, usize, usize) -> f64,
    links: &[(usize, usize, f64)],
    grounds: &[(usize, f64)],
) -> CsrMatrix {
    use std::collections::BTreeMap;
    let n2 = n * n;
    let mut slots: BTreeMap<(usize, usize), f64> = BTreeMap::new();
    let mut link = |i: usize, j: usize, g: f64| {
        *slots.entry((i, i)).or_insert(0.0) += g;
        *slots.entry((j, j)).or_insert(0.0) += g;
        *slots.entry((i, j)).or_insert(0.0) -= g;
        *slots.entry((j, i)).or_insert(0.0) -= g;
    };
    for li in 0..layers {
        for c in 0..n2 {
            let i = li * n2 + c;
            if c % n + 1 < n {
                link(i, i + 1, g(Axis::X, li, c));
            }
            if c / n + 1 < n {
                link(i, i + n, g(Axis::Y, li, c));
            }
            if li + 1 < layers {
                link(i, i + n2, g(Axis::Z, li, c));
            }
        }
    }
    for &(i, j, gl) in links {
        link(i, j, gl);
    }
    for &(i, gg) in grounds {
        *slots.entry((i, i)).or_insert(0.0) += gg;
    }
    let mut t = crate::sparse::TripletMatrix::new(layers * n2 + periphery);
    for (&(i, j), &v) in &slots {
        t.add(i, j, v);
    }
    t.to_csr()
}

/// Visits the grid rows in order with their `(ix, iy, layer)`, keeping
/// the coordinates by counting instead of dividing per row.
fn for_rows(s: &Shape, mut f: impl FnMut(usize, usize, usize, usize)) {
    let n = s.n;
    let (mut ix, mut iy, mut li) = (0, 0, 0);
    for i in 0..s.ng {
        f(i, ix, iy, li);
        ix += 1;
        if ix == n {
            ix = 0;
            iy += 1;
            if iy == n {
                iy = 0;
                li += 1;
            }
        }
    }
}

/// The assembled conductance matrix of a layered grid: the diagonal and
/// three lower bands of the grid rows, plus the [`Shape`] border.
/// `wx[i]`, `wy[i]`, `wz[i]` hold `A[i][i−1]`, `A[i][i−n]`, `A[i][i−n²]`
/// (zero where the neighbour does not exist, never read there).
#[derive(Debug, Clone)]
pub struct LayeredMatrix {
    shape: Arc<Shape>,
    diag: Vec<f64>,
    wx: Vec<f64>,
    wy: Vec<f64>,
    wz: Vec<f64>,
    p_val: Vec<f64>,
}

impl LayeredMatrix {
    /// Assembles the matrix: `g(axis, layer, cell)` is the conductance of
    /// the link from `cell` of `layer` along `axis`, called once for each
    /// existing link. Every diagonal sums its grid links in the order
    /// cells emit them — cells ascending, each emitting `X`, `Y`, `Z` —
    /// followed by the shape's border links and grounds.
    ///
    /// # Panics
    ///
    /// Panics if a grid conductance is negative or non-finite.
    pub fn assemble(shape: Arc<Shape>, mut g: impl FnMut(Axis, usize, usize) -> f64) -> Self {
        let s = &*shape;
        let (n, n2, nl, ng) = (s.n, s.n * s.n, s.layers, s.ng);
        let (mut wx, mut wy, mut wz) = (vec![0.0; ng], vec![0.0; ng], vec![0.0; ng]);
        let mut off_diagonal = |axis, li, c| {
            let g = g(axis, li, c);
            check_conductance(g, "grid");
            0.0 - g
        };
        for_rows(s, |i, ix, iy, li| {
            let c = i - li * n2;
            if ix + 1 < n {
                wx[i + 1] = off_diagonal(Axis::X, li, c);
            }
            if iy + 1 < n {
                wy[i + n] = off_diagonal(Axis::Y, li, c);
            }
            if li + 1 < nl {
                wz[i + n2] = off_diagonal(Axis::Z, li, c);
            }
        });
        let mut diag = vec![0.0; ng];
        for_rows(s, |i, ix, iy, li| {
            // The grid links of row i in emission order: from cells
            // i−n², i−n, i−1, then the row's own X, Y, Z links.
            let mut d = 0.0;
            if li > 0 {
                d += -wz[i];
            }
            if iy > 0 {
                d += -wy[i];
            }
            if ix > 0 {
                d += -wx[i];
            }
            if ix + 1 < n {
                d += -wx[i + 1];
            }
            if iy + 1 < n {
                d += -wy[i + n];
            }
            if li + 1 < nl {
                d += -wz[i + n2];
            }
            diag[i] = d;
        });
        for &(i, gi) in &s.extras {
            diag[i as usize] += gi;
        }
        LayeredMatrix {
            p_val: s.p_val.clone(),
            shape,
            diag,
            wx,
            wy,
            wz,
        }
    }

    /// The same matrix in CSR form (ascending columns, identical values)
    /// — for the exact Cholesky oracle and equivalence tests.
    pub fn to_csr(&self) -> CsrMatrix {
        let s = &*self.shape;
        let (n, n2, nl) = (s.n, s.n * s.n, s.layers);
        let mut row_ptr = vec![0u32];
        let (mut col, mut val) = (Vec::new(), Vec::new());
        for_rows(s, |i, ix, iy, li| {
            let mut push = |c: usize, v: f64| {
                col.push(c as u32);
                val.push(v);
            };
            if li > 0 {
                push(i - n2, self.wz[i]);
            }
            if iy > 0 {
                push(i - n, self.wy[i]);
            }
            if ix > 0 {
                push(i - 1, self.wx[i]);
            }
            push(i, self.diag[i]);
            if ix + 1 < n {
                push(i + 1, self.wx[i + 1]);
            }
            if iy + 1 < n {
                push(i + n, self.wy[i + n]);
            }
            if li + 1 < nl {
                push(i + n2, self.wz[i + n2]);
            }
            for e in s.g_range(i) {
                push(s.g_node[e] as usize, self.p_val[s.g_slot[e] as usize]);
            }
            row_ptr.push(col.len() as u32);
        });
        for q in 0..s.periphery() {
            let (lo, _, hi) = s.p_row(q);
            col.extend_from_slice(&s.p_col[lo..hi]);
            val.extend_from_slice(&self.p_val[lo..hi]);
            row_ptr.push(col.len() as u32);
        }
        CsrMatrix::from_parts(s.nodes, row_ptr, col, val)
    }

    /// `y = A·x` over the raster lines, each row's terms summed in one
    /// pass ([`Self::product_line`]), and `x·y` when `with_dot`.
    fn product(&self, x: &[f64], y: &mut [f64], with_dot: bool) -> f64 {
        let s = &*self.shape;
        assert_eq!(x.len(), s.nodes, "x length mismatch");
        assert_eq!(y.len(), s.nodes, "y length mismatch");
        let (n2, nl) = (s.n * s.n, s.layers);
        // The additive identity `Iterator::sum` starts from.
        let mut xy = -0.0;
        for li in 0..nl {
            let layer = li * n2;
            match (li > 0, li + 1 < nl) {
                (false, false) => {
                    self.product_layer::<false, false>(x, y, layer, with_dot, &mut xy)
                }
                (false, true) => self.product_layer::<false, true>(x, y, layer, with_dot, &mut xy),
                (true, false) => self.product_layer::<true, false>(x, y, layer, with_dot, &mut xy),
                (true, true) => self.product_layer::<true, true>(x, y, layer, with_dot, &mut xy),
            }
        }
        for q in 0..s.periphery() {
            let (lo, _, hi) = s.p_row(q);
            let mut acc = 0.0;
            for e in lo..hi {
                acc += self.p_val[e] * x[s.p_col[e] as usize];
            }
            y[s.ng + q] = acc;
            xy += x[s.ng + q] * acc;
        }
        xy
    }

    /// Rows `layer..layer + n²` of `y = A·x`, and their share of `x·y`
    /// added to `xy` when `with_dot`: `ZM` and `ZP` say whether the layer
    /// has a `−n²` and a `+n²` neighbour.
    fn product_layer<const ZM: bool, const ZP: bool>(
        &self,
        x: &[f64],
        y: &mut [f64],
        layer: usize,
        with_dot: bool,
        xy: &mut f64,
    ) {
        let n = self.shape.n;
        self.product_line::<ZM, false, true, ZP>(x, y, layer);
        for b in (layer + n..layer + (n - 1) * n).step_by(n) {
            self.product_line::<ZM, true, true, ZP>(x, y, b);
        }
        self.product_line::<ZM, true, false, ZP>(x, y, layer + (n - 1) * n);
        for b in (layer..layer + n * n).step_by(n) {
            self.border_and_dot(x, y, b, with_dot, xy);
        }
    }

    /// Adds the border terms of raster line `b..b + n` to `y`, then, when
    /// `with_dot`, the line's share of `x·y` to `xy` in ascending rows.
    #[inline(always)]
    fn border_and_dot(&self, x: &[f64], y: &mut [f64], b: usize, with_dot: bool, xy: &mut f64) {
        let s = &*self.shape;
        let line = b..b + s.n;
        if s.g_ptr[b] != s.g_ptr[b + s.n] {
            for (k, yk) in y[line.clone()].iter_mut().enumerate() {
                for e in s.g_range(b + k) {
                    *yk += self.p_val[s.g_slot[e] as usize] * x[s.g_node[e] as usize];
                }
            }
        }
        if with_dot {
            for (xk, yk) in x[line.clone()].iter().zip(&y[line]) {
                *xy += xk * yk;
            }
        }
    }

    /// Row `i` of `y = A·x` in [`Self::product_line`]'s term order, for
    /// an end column: `L` and `R` say whether it has a `−1` and a `+1`
    /// neighbour.
    #[inline(always)]
    fn end_row<
        const ZM: bool,
        const YM: bool,
        const YP: bool,
        const ZP: bool,
        const L: bool,
        const R: bool,
    >(
        &self,
        x: &[f64],
        i: usize,
    ) -> f64 {
        let (n, n2) = (self.shape.n, self.shape.n * self.shape.n);
        let mut acc = 0.0;
        if ZM {
            acc += self.wz[i] * x[i - n2];
        }
        if YM {
            acc += self.wy[i] * x[i - n];
        }
        if L {
            acc += self.wx[i] * x[i - 1];
        }
        acc += self.diag[i] * x[i];
        if R {
            acc += self.wx[i + 1] * x[i + 1];
        }
        if YP {
            acc += self.wy[i + n] * x[i + n];
        }
        if ZP {
            acc += self.wz[i + n2] * x[i + n2];
        }
        acc
    }

    /// The grid terms of raster line `b..b + n`, each row summed from
    /// `0.0` in ascending columns `−n²`, `−n`, `−1`, `0`, `+1`, `+n`,
    /// `+n²`, absent neighbours skipped: `ZM`, `YM`, `YP`, `ZP` say which
    /// of the `−n²`, `−n`, `+n`, `+n²` neighbours the line has. Columns
    /// `1..n − 1` run over equal-length slices, so that loop vectorizes
    /// without bounds checks; the two end columns follow.
    #[inline(always)]
    fn product_line<const ZM: bool, const YM: bool, const YP: bool, const ZP: bool>(
        &self,
        x: &[f64],
        y: &mut [f64],
        b: usize,
    ) {
        let (n, n2) = (self.shape.n, self.shape.n * self.shape.n);
        let m = n - 2;
        y[b] = self.end_row::<ZM, YM, YP, ZP, false, true>(x, b);
        y[b + n - 1] = self.end_row::<ZM, YM, YP, ZP, true, false>(x, b + n - 1);
        // Interior columns: every slice below holds exactly `m` entries,
        // column `k` at index `k − 1`. A slice of an absent neighbour is
        // empty and never read.
        let c = b + 1;
        fn band(v: &[f64], lo: usize, m: usize) -> &[f64] {
            &v[lo..lo + m]
        }
        let none: &[f64] = &[];
        let (zm_w, zm_x) = if ZM {
            (band(&self.wz, c, m), band(x, c - n2, m))
        } else {
            (none, none)
        };
        let (ym_w, ym_x) = if YM {
            (band(&self.wy, c, m), band(x, c - n, m))
        } else {
            (none, none)
        };
        let (l_w, l_x) = (band(&self.wx, c, m), band(x, c - 1, m));
        let (d_w, d_x) = (band(&self.diag, c, m), band(x, c, m));
        let (r_w, r_x) = (band(&self.wx, c + 1, m), band(x, c + 1, m));
        let (yp_w, yp_x) = if YP {
            (band(&self.wy, c + n, m), band(x, c + n, m))
        } else {
            (none, none)
        };
        let (zp_w, zp_x) = if ZP {
            (band(&self.wz, c + n2, m), band(x, c + n2, m))
        } else {
            (none, none)
        };
        for (k, yk) in y[c..c + m].iter_mut().enumerate() {
            let mut acc = 0.0;
            if ZM {
                acc += zm_w[k] * zm_x[k];
            }
            if YM {
                acc += ym_w[k] * ym_x[k];
            }
            acc += l_w[k] * l_x[k];
            acc += d_w[k] * d_x[k];
            acc += r_w[k] * r_x[k];
            if YP {
                acc += yp_w[k] * yp_x[k];
            }
            if ZP {
                acc += zp_w[k] * zp_x[k];
            }
            *yk = acc;
        }
    }
}

impl LinearOperator for LayeredMatrix {
    fn dim(&self) -> usize {
        self.shape.nodes
    }

    fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        self.product(x, y, false);
    }

    fn mul_vec_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        self.product(x, y, true)
    }

    fn diagonal(&self) -> Vec<f64> {
        let s = &self.shape;
        let mut d = self.diag.clone();
        d.extend(s.p_diag.iter().map(|&k| self.p_val[k as usize]));
        d
    }
}

/// IC(0) of a [`LayeredMatrix`]: the three lower bands of `L` for the
/// grid rows, the strict lower periphery rows in the border's slots, and
/// the reciprocal diagonal. Bitwise the CSR [`crate::sparse::Ic0`] of the
/// same matrix.
#[derive(Debug, Clone)]
pub struct LayeredIc0 {
    shape: Arc<Shape>,
    lx: Vec<f64>,
    ly: Vec<f64>,
    lz: Vec<f64>,
    /// `L` entries of the periphery rows at their slots below the
    /// diagonal (other slots unused).
    l_p: Vec<f64>,
    inv_d: Vec<f64>,
}

impl LayeredIc0 {
    /// Factors `A` by the up-looking recurrence: grid rows in closed form,
    /// then the periphery rows by the general sparse merge.
    ///
    /// # Errors
    ///
    /// [`SolveError::NotPositiveDefinite`] on a non-positive or
    /// non-finite pivot. A nonsingular M-matrix has none; a cell whose
    /// conductances are all zero (a zero diagonal entry) gives one, and so
    /// can a part of the network with no ground.
    pub fn factor(a: &LayeredMatrix) -> Result<LayeredIc0, SolveError> {
        let s = &*a.shape;
        let (n, n2) = (s.n, s.n * s.n);
        let mut f = LayeredIc0 {
            shape: Arc::clone(&a.shape),
            lx: vec![0.0; s.ng],
            ly: vec![0.0; s.ng],
            lz: vec![0.0; s.ng],
            l_p: vec![0.0; a.p_val.len()],
            inv_d: vec![0.0; s.nodes],
        };
        // Grid rows in closed form: no earlier row shares a column with
        // row i below the coupled column, so each l is the scaled matrix
        // entry. `sumsq ≥ 0`, so the pivot test also refuses a diagonal
        // entry that is not positive and finite.
        let mut ok = true;
        for_rows(s, |i, ix, iy, li| {
            // Squares summed in ascending column order, as `Iterator::sum`.
            let mut sumsq = -0.0;
            if li > 0 {
                let l = a.wz[i] * f.inv_d[i - n2];
                f.lz[i] = l;
                sumsq += l * l;
            }
            if iy > 0 {
                let l = a.wy[i] * f.inv_d[i - n];
                f.ly[i] = l;
                sumsq += l * l;
            }
            if ix > 0 {
                let l = a.wx[i] * f.inv_d[i - 1];
                f.lx[i] = l;
                sumsq += l * l;
            }
            let arg = a.diag[i] - sumsq;
            ok &= arg > 0.0 && arg.is_finite();
            f.inv_d[i] = 1.0 / arg.sqrt();
        });
        if !ok {
            return Err(SolveError::NotPositiveDefinite);
        }
        // Periphery rows: the general merge over earlier rows' columns.
        for q in 0..s.periphery() {
            let p = s.ng + q;
            let (lo, d, _) = s.p_row(q);
            for e in lo..d {
                let j = s.p_col[e] as usize;
                let mut v = a.p_val[e];
                let row_j = f.lower_row(j);
                let (mut x, mut y) = (lo, 0);
                while x < e && y < row_j.len() {
                    let cx = s.p_col[x] as usize;
                    match cx.cmp(&row_j[y].0) {
                        std::cmp::Ordering::Equal => {
                            v -= f.l_p[x] * row_j[y].1;
                            x += 1;
                            y += 1;
                        }
                        std::cmp::Ordering::Less => x += 1,
                        std::cmp::Ordering::Greater => y += 1,
                    }
                }
                f.l_p[e] = v * f.inv_d[j];
            }
            let sumsq: f64 = f.l_p[lo..d].iter().map(|v| v * v).sum();
            let arg = a.p_val[d] - sumsq;
            if arg <= 0.0 || !arg.is_finite() {
                return Err(SolveError::NotPositiveDefinite);
            }
            f.inv_d[p] = 1.0 / arg.sqrt();
        }
        Ok(f)
    }

    /// `L`'s strict lower entries of row `j` as `(column, value)`,
    /// ascending.
    fn lower_row(&self, j: usize) -> Vec<(usize, f64)> {
        let s = &*self.shape;
        let (n, n2) = (s.n, s.n * s.n);
        if j < s.ng {
            let (ix, iy) = (j % n, (j / n) % n);
            let mut row = Vec::with_capacity(3);
            if j >= n2 {
                row.push((j - n2, self.lz[j]));
            }
            if iy > 0 {
                row.push((j - n, self.ly[j]));
            }
            if ix > 0 {
                row.push((j - 1, self.lx[j]));
            }
            row
        } else {
            let (lo, d, _) = s.p_row(j - s.ng);
            (lo..d)
                .map(|e| (s.p_col[e] as usize, self.l_p[e]))
                .collect()
        }
    }

    /// Forward substitution `L·z = r`. The grid rows go in groups of up to
    /// [`GROUP`] raster lines: each line is first reduced by its
    /// already-final neighbours one layer back (and, for the group's first
    /// line, one line back) in one vectorized pass; then the lines' serial
    /// recurrences advance together, each one column behind the line
    /// before it, so their latencies overlap.
    fn forward(&self, r: &[f64], z: &mut [f64]) {
        let s = &*self.shape;
        let (n, n2) = (s.n, s.n * s.n);
        for li in 0..s.layers {
            let mut iy = 0;
            while iy < n {
                let lines = GROUP.min(n - iy);
                let a = li * n2 + iy * n;
                for t in 0..lines {
                    let b = a + t * n;
                    match (li > 0, t == 0 && iy > 0) {
                        (false, false) => self.forward_stage::<false, false>(r, z, b),
                        (false, true) => self.forward_stage::<false, true>(r, z, b),
                        (true, false) => self.forward_stage::<true, false>(r, z, b),
                        (true, true) => self.forward_stage::<true, true>(r, z, b),
                    }
                }
                match lines {
                    1 => self.forward_group::<1>(z, a),
                    2 => self.forward_group::<2>(z, a),
                    3 => self.forward_group::<3>(z, a),
                    _ => self.forward_group::<4>(z, a),
                }
                iy += lines;
            }
        }
        for q in 0..s.periphery() {
            let p = s.ng + q;
            let (lo, d, _) = s.p_row(q);
            let mut acc = r[p];
            for e in lo..d {
                acc -= self.l_p[e] * z[s.p_col[e] as usize];
            }
            z[p] = acc * self.inv_d[p];
        }
    }

    /// `z[line] = r[line] − lz·z[line − n²] − ly·z[line − n]` for the
    /// line at `b`, in one pass; `HAS_Z` and `HAS_Y` say which term is
    /// present.
    #[inline(always)]
    fn forward_stage<const HAS_Z: bool, const HAS_Y: bool>(
        &self,
        r: &[f64],
        z: &mut [f64],
        b: usize,
    ) {
        let (n, n2) = (self.shape.n, self.shape.n * self.shape.n);
        let (done, rest) = z.split_at_mut(b);
        let none: &[f64] = &[];
        let (lz, zz) = if HAS_Z {
            (&self.lz[b..b + n], &done[b - n2..b - n2 + n])
        } else {
            (none, none)
        };
        let (ly, zy) = if HAS_Y {
            (&self.ly[b..b + n], &done[b - n..b])
        } else {
            (none, none)
        };
        for (k, (zk, rk)) in rest[..n].iter_mut().zip(&r[b..b + n]).enumerate() {
            let mut acc = *rk;
            if HAS_Z {
                acc -= lz[k] * zz[k];
            }
            if HAS_Y {
                acc -= ly[k] * zy[k];
            }
            *zk = acc;
        }
    }

    /// Finishes the `K` staged lines from `a` upwards: at step `s` line
    /// `t` takes column `s − t`, whose `−1` neighbour is the line's own
    /// last value and whose `−n` neighbour line `t − 1` produced the step
    /// before; both stay in registers. From step `K` to step `n − 1`
    /// every line is inside its raster, so only the first and last
    /// `K − 1` steps test for line ends. The group's `K` lines are sliced
    /// once, and that slicing is the only bounds check of the group.
    fn forward_group<const K: usize>(&self, z: &mut [f64], a: usize) {
        let n = self.shape.n;
        let span = a..a + K * n;
        let (z, lx, ly, inv_d) = (
            &mut z[span.clone()],
            &self.lx[span.clone()],
            &self.ly[span.clone()],
            &self.inv_d[span],
        );
        let mut own = [0.0f64; K];
        // Step `s`; an `edge` step skips lines outside their raster and
        // the `−1` term of column 0. Descending t: line t reads
        // own[t − 1] before it advances. A macro rather than a closure,
        // so that each loop below gets its own copy with `edge` fixed.
        macro_rules! step {
            ($s:expr, $edge:expr) => {{
                let (s, edge): (usize, bool) = ($s, $edge);
                for t in (0..K).rev() {
                    if edge && (s < t || s - t >= n) {
                        continue;
                    }
                    let j = t * n + s - t;
                    // SAFETY: `t < K` and `t ≤ s < n + t` (an edge step
                    // skips any other line, and the interior steps run
                    // `K ≤ s < n`), so `j < K·n`, the length of all four
                    // group slices.
                    unsafe {
                        let mut acc = *z.get_unchecked(j);
                        if t > 0 {
                            acc -= ly.get_unchecked(j) * own[t - 1];
                        }
                        if !edge || s > t {
                            acc -= lx.get_unchecked(j) * own[t];
                        }
                        own[t] = acc * inv_d.get_unchecked(j);
                        *z.get_unchecked_mut(j) = own[t];
                    }
                }
            }};
        }
        for s in 0..K {
            step!(s, true);
        }
        for s in K..n {
            step!(s, false);
        }
        for s in n..n + K - 1 {
            step!(s, true);
        }
    }

    /// Back substitution `Lᵀ·z = y`, in place. In a grid row the serial
    /// `+1` term comes first in column order, so nothing can be staged;
    /// instead groups of up to [`GROUP`] raster lines advance together
    /// from the top, each one column behind the line above it. Lines
    /// whose interior couples to the border go alone, row by row.
    fn backward(&self, z: &mut [f64]) {
        let s = &*self.shape;
        let (n, n2) = (s.n, s.n * s.n);
        for q in (0..s.periphery()).rev() {
            let p = s.ng + q;
            let (_, d, hi) = s.p_row(q);
            let mut acc = z[p];
            for e in d + 1..hi {
                acc -= self.l_p[s.p_mirror[e] as usize] * z[s.p_col[e] as usize];
            }
            z[p] = acc * self.inv_d[p];
        }
        for li in (0..s.layers).rev() {
            let has_z = li + 1 < s.layers;
            let mut top = n;
            while top > 0 {
                let a = li * n2 + (top - 1) * n;
                let has_y = top < n;
                if s.interior_border(a) {
                    for k in (0..n).rev() {
                        self.back_row(z, a + k, k + 1 < n, has_y, has_z);
                    }
                    top -= 1;
                    continue;
                }
                let mut lines = 1;
                while lines < GROUP.min(top) && !s.interior_border(a - lines * n) {
                    lines += 1;
                }
                match (has_y, has_z) {
                    (false, false) => self.backward_lines::<false, false>(z, a, lines),
                    (false, true) => self.backward_lines::<false, true>(z, a, lines),
                    (true, false) => self.backward_lines::<true, false>(z, a, lines),
                    (true, true) => self.backward_lines::<true, true>(z, a, lines),
                }
                top -= lines;
            }
        }
    }

    /// [`Self::backward_group`] of `lines` (1 to [`GROUP`]) lines.
    fn backward_lines<const HAS_Y: bool, const HAS_Z: bool>(
        &self,
        z: &mut [f64],
        a: usize,
        lines: usize,
    ) {
        match lines {
            1 => self.backward_group::<1, HAS_Y, HAS_Z>(z, a),
            2 => self.backward_group::<2, HAS_Y, HAS_Z>(z, a),
            3 => self.backward_group::<3, HAS_Y, HAS_Z>(z, a),
            _ => self.backward_group::<4, HAS_Y, HAS_Z>(z, a),
        }
    }

    /// The general backward row: every present term, border included.
    fn back_row(&self, z: &mut [f64], i: usize, has_x: bool, has_y: bool, has_z: bool) {
        let s = &*self.shape;
        let mut acc = z[i];
        if has_x {
            acc -= self.lx[i + 1] * z[i + 1];
        }
        if has_y {
            acc -= self.ly[i + s.n] * z[i + s.n];
        }
        if has_z {
            acc -= self.lz[i + s.n * s.n] * z[i + s.n * s.n];
        }
        for e in s.g_range(i) {
            acc -= self.l_p[s.g_slot[e] as usize] * z[s.g_node[e] as usize];
        }
        z[i] = acc * self.inv_d[i];
    }

    /// Finishes the `K` lines from `a` downwards (line `t` starts at
    /// `a − t·n`; the first has a `+n` neighbour iff `HAS_Y`, and every
    /// line a `+n²` neighbour iff `HAS_Z`): at step `s` line `t` takes
    /// column `n − 1 − (s − t)`, whose `+1` neighbour is the line's own
    /// last value and whose `+n` neighbour line `t − 1` produced the step
    /// before. From step `K` to step `n − 2` every line is at an interior
    /// column, which has a `+1` neighbour and (the lines being grouped
    /// only so) no border coupling; only the other steps test for line
    /// ends. The group's lines and the neighbours it reads above them are
    /// sliced once, and that slicing is the only bounds check of the
    /// group.
    fn backward_group<const K: usize, const HAS_Y: bool, const HAS_Z: bool>(
        &self,
        z: &mut [f64],
        a: usize,
    ) {
        let sh = &*self.shape;
        let (n, n2) = (sh.n, sh.n * sh.n);
        // Slice-relative index j = i − g0 for node i; the group's own rows
        // are j < K·n. Reads above them reach j + n (`ly`, and `z` when
        // HAS_Y) and j + n² (`z`, with `lz` sliced at that offset).
        let g0 = a + n - K * n;
        let len = K * n;
        let above = if HAS_Z {
            n2
        } else if HAS_Y {
            n
        } else {
            0
        };
        let (z, periphery) = z.split_at_mut(sh.ng);
        let (z, lx, ly, inv_d) = (
            &mut z[g0..g0 + len + above],
            &self.lx[g0..g0 + len],
            &self.ly[g0..g0 + len + if HAS_Y { n } else { 0 }],
            &self.inv_d[g0..g0 + len],
        );
        let lz = if HAS_Z {
            &self.lz[g0 + n2..g0 + n2 + len]
        } else {
            &[][..]
        };
        let mut own = [0.0f64; K];
        // Step `s`; an `edge` step skips lines outside their raster, and
        // its line ends drop the missing `+1` term and add their border
        // terms. A macro rather than a closure, so that each loop below
        // gets its own copy with `edge` fixed.
        macro_rules! step {
            ($s:expr, $edge:expr) => {{
                let (s, edge): (usize, bool) = ($s, $edge);
                for t in (0..K).rev() {
                    if edge && (s < t || s - t >= n) {
                        continue;
                    }
                    let k = n - 1 - (s - t);
                    let j = (K - 1 - t) * n + k;
                    // SAFETY: `t < K` and `k < n` (an edge step skips any
                    // other line, and the interior steps run `K ≤ s < n − 1`),
                    // so `j < K·n`, the length of `lx`, `inv_d` and `lz` (when
                    // HAS_Z) and at most that of `z` and `ly`. `j + 1` is read
                    // only when `k + 1 < n`, so it stays in the line. For
                    // `t > 0`, `j + n` is line `t − 1`, below `K·n`; for
                    // `t = 0` it is read only when HAS_Y, where `ly` and `z`
                    // extend `n` past `K·n`. `j + n²` is read only when HAS_Z,
                    // where `z` extends `n²` past `K·n`.
                    unsafe {
                        let mut acc = *z.get_unchecked(j);
                        if !edge || k + 1 < n {
                            acc -= lx.get_unchecked(j + 1) * own[t];
                        }
                        if t > 0 {
                            acc -= ly.get_unchecked(j + n) * own[t - 1];
                        } else if HAS_Y {
                            acc -= ly.get_unchecked(j + n) * z.get_unchecked(j + n);
                        }
                        if HAS_Z {
                            acc -= lz.get_unchecked(j) * z.get_unchecked(j + n2);
                        }
                        if edge && (k == 0 || k + 1 == n) {
                            for e in sh.g_range(g0 + j) {
                                acc -= self.l_p[sh.g_slot[e] as usize]
                                    * periphery[sh.g_node[e] as usize - sh.ng];
                            }
                        }
                        own[t] = acc * inv_d.get_unchecked(j);
                        *z.get_unchecked_mut(j) = own[t];
                    }
                }
            }};
        }
        for s in 0..K {
            step!(s, true);
        }
        for s in K..(n - 1).max(K) {
            step!(s, false);
        }
        for s in (n - 1).max(K)..n + K - 1 {
            step!(s, true);
        }
    }
}

impl Precondition for LayeredIc0 {
    /// Solves `L·Lᵀ·z = r`.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the factor dimension.
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.shape.nodes, "r length mismatch");
        assert_eq!(z.len(), self.shape.nodes, "z length mismatch");
        self.forward(r, z);
        self.backward(z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grounded 2×2 grid whose links all have conductance `g`.
    fn grid_2x2(g: f64) -> LayeredMatrix {
        let grounds: Vec<(usize, f64)> = (0..4).map(|i| (i, 1.0)).collect();
        let shape = Arc::new(Shape::new(2, 1, 0, &[], &grounds));
        LayeredMatrix::assemble(shape, |_, _, _| g)
    }

    #[test]
    #[should_panic(expected = "bad grid conductance -2")]
    fn negative_grid_conductance_rejected() {
        grid_2x2(-2.0);
    }

    #[test]
    #[should_panic(expected = "bad grid conductance NaN")]
    fn nan_grid_conductance_rejected() {
        grid_2x2(f64::NAN);
    }
}
