//! Minimal sparse linear algebra: a triplet assembler, a CSR matrix, and
//! the one preconditioned conjugate-gradient loop ([`pcg_with`]), generic
//! over a small [`LinearOperator`] / [`Precondition`] pair so the package
//! network's banded operator ([`crate::layered`]) and CSR matrices share
//! it. Jacobi scaling is the preconditioner behind the [`pcg`] wrapper,
//! which serves the PDN grid and the MMS slabs. Two oracles stay in CSR
//! form: the general up-looking IC(0) [`Ic0`] that the banded factor is
//! checked against bit for bit, and an exact envelope Cholesky solve
//! ([`cholesky_solve`]).
//!
//! Thermal conductance networks are symmetric positive definite as long as
//! at least one node has a (positive) boundary conductance to ambient, so
//! PCG is the method of choice — no pivoting, no fill-in, O(nnz) per
//! iteration. They are also M-matrices, for which IC(0) provably exists;
//! on other SPD input (e.g. Kershaw's example) a pivot can fail, and both
//! factorizations report it as [`SolveError::NotPositiveDefinite`].

use std::error::Error;
use std::fmt;

use tac25d_obs as obs;

/// Coordinate-format assembler for a symmetric matrix.
///
/// Duplicate entries are summed when converting to CSR, which makes
/// finite-volume assembly trivial: every conductance `g` between nodes `i`
/// and `j` contributes `+g` to both diagonals and `−g` to both off-diagonals
/// via [`TripletMatrix::add_conductance`].
#[derive(Debug, Clone)]
pub struct TripletMatrix {
    n: usize,
    rows: Vec<u32>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl TripletMatrix {
    /// Creates an empty n×n assembler.
    pub fn new(n: usize) -> Self {
        TripletMatrix {
            n,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds `v` to entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range or `v` is not finite.
    pub fn add(&mut self, i: usize, j: usize, v: f64) {
        assert!(i < self.n && j < self.n, "({i},{j}) out of {0}x{0}", self.n);
        assert!(v.is_finite(), "non-finite matrix entry {v} at ({i},{j})");
        self.rows.push(i as u32);
        self.cols.push(j as u32);
        self.vals.push(v);
    }

    /// Adds a two-terminal conductance `g` between nodes `i` and `j`
    /// (diagonal `+g`, off-diagonal `−g`, symmetric).
    ///
    /// # Panics
    ///
    /// Panics if `g` is negative, non-finite, or `i == j`.
    pub fn add_conductance(&mut self, i: usize, j: usize, g: f64) {
        assert!(i != j, "conductance needs two distinct nodes, got {i}");
        assert!(g >= 0.0, "negative conductance {g} between {i} and {j}");
        if g == 0.0 {
            return;
        }
        self.add(i, i, g);
        self.add(j, j, g);
        self.add(i, j, -g);
        self.add(j, i, -g);
    }

    /// Adds a grounded (boundary) conductance `g` at node `i` — e.g. a
    /// convective path to ambient. Only the diagonal is touched; the
    /// ambient temperature enters through the right-hand side.
    ///
    /// # Panics
    ///
    /// Panics if `g` is negative or non-finite.
    pub fn add_ground(&mut self, i: usize, g: f64) {
        assert!(g >= 0.0, "negative ground conductance {g} at node {i}");
        if g > 0.0 {
            self.add(i, i, g);
        }
    }

    /// Converts to CSR, summing duplicates.
    pub fn to_csr(&self) -> CsrMatrix {
        let n = self.n;
        // Count entries per row after dedup: do a two-pass bucket sort.
        let mut perm: Vec<u32> = (0..self.vals.len() as u32).collect();
        perm.sort_unstable_by_key(|&k| {
            let k = k as usize;
            (self.rows[k], self.cols[k])
        });
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col = Vec::new();
        let mut val = Vec::new();
        row_ptr.push(0u32);
        let mut cur_row = 0u32;
        let mut last: Option<(u32, u32)> = None;
        for &k in &perm {
            let k = k as usize;
            let (r, c, v) = (self.rows[k], self.cols[k], self.vals[k]);
            while cur_row < r {
                row_ptr.push(col.len() as u32);
                cur_row += 1;
            }
            if last == Some((r, c)) {
                *val.last_mut().expect("entry exists") += v;
            } else {
                col.push(c);
                val.push(v);
                last = Some((r, c));
            }
        }
        while (row_ptr.len() as u32) <= cur_row {
            row_ptr.push(col.len() as u32);
        }
        while row_ptr.len() < n + 1 {
            row_ptr.push(col.len() as u32);
        }
        CsrMatrix {
            n,
            row_ptr,
            col,
            val,
        }
    }
}

/// Compressed-sparse-row matrix.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<u32>,
    col: Vec<u32>,
    val: Vec<f64>,
}

impl CsrMatrix {
    /// Assembles a CSR matrix from precomputed parts (ascending columns
    /// per row) — the CSR view of [`crate::layered::LayeredMatrix`].
    pub(crate) fn from_parts(
        n: usize,
        row_ptr: Vec<u32>,
        col: Vec<u32>,
        val: Vec<f64>,
    ) -> CsrMatrix {
        debug_assert_eq!(row_ptr.len(), n + 1, "row pointer length mismatch");
        debug_assert_eq!(col.len(), val.len(), "col/val length mismatch");
        debug_assert_eq!(row_ptr[n] as usize, col.len(), "row pointer tail mismatch");
        CsrMatrix {
            n,
            row_ptr,
            col,
            val,
        }
    }

    /// The stored entry values in pattern order (row-major, ascending
    /// columns). Public so equivalence tests can compare operators
    /// bitwise.
    pub fn values(&self) -> &[f64] {
        &self.val
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Row `i`'s stored `(column, value)` entries, ascending columns.
    #[cfg(test)]
    pub(crate) fn row(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (lo, hi) = (self.row_ptr[i] as usize, self.row_ptr[i + 1] as usize);
        self.col[lo..hi]
            .iter()
            .map(|&c| c as usize)
            .zip(self.val[lo..hi].iter().copied())
    }

    /// Computes `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the matrix dimension.
    pub fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n, "x length mismatch");
        assert_eq!(y.len(), self.n, "y length mismatch");
        for (i, yi) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[i] as usize;
            let hi = self.row_ptr[i + 1] as usize;
            let mut acc = 0.0;
            for (v, c) in self.val[lo..hi].iter().zip(&self.col[lo..hi]) {
                acc += v * x[*c as usize];
            }
            *yi = acc;
        }
    }

    /// Returns a copy of the matrix with every `(i, j, v)` of `extra` added
    /// to entry `(i, j)`, widening the pattern where needed — the CSR view
    /// of the leakage-coupled operator behind the coupled solve's oracle.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range or a value is not finite.
    pub fn with_added_entries(&self, extra: &[(usize, usize, f64)]) -> CsrMatrix {
        let mut t = TripletMatrix::new(self.n);
        for i in 0..self.n {
            for k in self.row_ptr[i] as usize..self.row_ptr[i + 1] as usize {
                t.add(i, self.col[k] as usize, self.val[k]);
            }
        }
        for &(i, j, v) in extra {
            t.add(i, j, v);
        }
        t.to_csr()
    }

    /// Extracts the diagonal.
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (i, di) in d.iter_mut().enumerate() {
            let lo = self.row_ptr[i] as usize;
            let hi = self.row_ptr[i + 1] as usize;
            for k in lo..hi {
                if self.col[k] as usize == i {
                    *di += self.val[k];
                }
            }
        }
        d
    }
}

/// Why a PCG solve failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// Residual failed to reach the tolerance within the iteration budget.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final relative residual.
        residual: f64,
    },
    /// The matrix is not positive definite along the explored subspace
    /// (p·Ap ≤ 0), or a zero/negative diagonal or a failed IC(0) pivot
    /// breaks the preconditioner.
    NotPositiveDefinite,
    /// NaN/∞ encountered (badly scaled or inconsistent system).
    NumericalBreakdown,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NoConvergence { iterations, residual } => write!(
                f,
                "conjugate gradient did not converge in {iterations} iterations (residual {residual:.3e})"
            ),
            SolveError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            SolveError::NumericalBreakdown => write!(f, "numerical breakdown (NaN/inf)"),
        }
    }
}

impl Error for SolveError {}

/// Result of a successful PCG solve.
#[derive(Debug, Clone)]
pub struct PcgSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations used.
    pub iterations: usize,
    /// Final relative residual ‖b − Ax‖ / ‖b‖.
    pub residual: f64,
}

/// A square matrix as [`pcg_with`] sees it: a product with a vector and a
/// diagonal. The package network's banded operator
/// ([`crate::layered::LayeredMatrix`]) and [`CsrMatrix`] (the PDN grid and
/// the verification oracles) both implement it.
pub trait LinearOperator {
    /// Matrix dimension.
    fn dim(&self) -> usize;

    /// Computes `y = A·x`, each row summed in ascending column order.
    fn mul_vec(&self, x: &[f64], y: &mut [f64]);

    /// Computes `y = A·x` and returns `x·y`, which implementations may fuse
    /// into one pass. The default and the banded operator return bitwise
    /// what [`LinearOperator::mul_vec`] followed by a dot product in
    /// ascending row order gives; the leakage-coupled operator of
    /// [`crate::coupled`] returns it up to rounding.
    fn mul_vec_dot(&self, x: &[f64], y: &mut [f64]) -> f64 {
        self.mul_vec(x, y);
        dot(x, y)
    }

    /// The diagonal entries.
    fn diagonal(&self) -> Vec<f64>;
}

impl LinearOperator for CsrMatrix {
    fn dim(&self) -> usize {
        self.n
    }

    fn mul_vec(&self, x: &[f64], y: &mut [f64]) {
        CsrMatrix::mul_vec(self, x, y)
    }

    fn diagonal(&self) -> Vec<f64> {
        CsrMatrix::diagonal(self)
    }
}

/// A preconditioner `z = M⁻¹·r` for [`pcg_with`], built once per matrix
/// and reused across every solve of it (factor once, solve many).
pub trait Precondition {
    /// Applies the preconditioner.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// Diagonal scaling, `z = r / diag(A)`: the preconditioner behind
/// [`pcg`].
#[derive(Debug, Clone)]
pub struct Jacobi {
    inv_diag: Vec<f64>,
}

impl Jacobi {
    /// The Jacobi preconditioner of `a`.
    ///
    /// # Errors
    ///
    /// [`SolveError::NotPositiveDefinite`] when a diagonal entry is zero,
    /// negative, or non-finite.
    pub fn new<A: LinearOperator + ?Sized>(a: &A) -> Result<Self, SolveError> {
        let diag = a.diagonal();
        if diag.iter().any(|&d| d <= 0.0 || !d.is_finite()) {
            return Err(SolveError::NotPositiveDefinite);
        }
        Ok(Jacobi {
            inv_diag: diag.iter().map(|d| 1.0 / d).collect(),
        })
    }
}

impl Precondition for Jacobi {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, ri), di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Incomplete Cholesky factorization with zero fill-in, IC(0), of a
/// general CSR matrix: `L·Lᵀ ≈ A` where `L` is restricted to the
/// lower-triangular sparsity pattern of `A`. The package network factors
/// through the banded [`crate::layered::LayeredIc0`]; this general
/// up-looking version is the oracle that factor is checked against bit
/// for bit.
///
/// The strict lower triangle is stored row-wise (CSR, ascending columns)
/// for the forward sweep and its transpose (the strict upper triangle)
/// row-wise for the backward sweep.
#[derive(Debug, Clone)]
pub struct Ic0 {
    n: usize,
    l_row_ptr: Vec<u32>,
    l_col: Vec<u32>,
    l_val: Vec<f64>,
    u_row_ptr: Vec<u32>,
    u_col: Vec<u32>,
    u_val: Vec<f64>,
    inv_diag: Vec<f64>,
}

impl Ic0 {
    /// Factors `A` by the up-looking recurrence.
    ///
    /// # Errors
    ///
    /// [`SolveError::NotPositiveDefinite`] when a diagonal entry is missing
    /// or a pivot is non-positive or non-finite.
    pub fn factor(a: &CsrMatrix) -> Result<Ic0, SolveError> {
        let n = a.n();
        let mut inv_diag = vec![0.0f64; n];
        let mut l_row_ptr = Vec::with_capacity(n + 1);
        l_row_ptr.push(0u32);
        let (mut l_col, mut l_val): (Vec<u32>, Vec<f64>) = (Vec::new(), Vec::new());
        for i in 0..n {
            let row_start = l_val.len();
            let lo = a.row_ptr[i] as usize;
            let hi = a.row_ptr[i + 1] as usize;
            let mut a_ii = None;
            for k in lo..hi {
                let j = a.col[k] as usize;
                if j > i {
                    break; // CSR columns are ascending; rest is upper triangle
                }
                if j == i {
                    a_ii = Some(a.val[k]);
                    break;
                }
                // L[i][j] = (A[i][j] − Σ_k L[i][k]·L[j][k]) / L[j][j], the
                // sum running over the (sorted) column intersection of rows
                // i and j.
                let mut s = a.val[k];
                let (mut p, mut q) = (row_start, l_row_ptr[j] as usize);
                let (p_end, q_end) = (l_val.len(), l_row_ptr[j + 1] as usize);
                while p < p_end && q < q_end {
                    match l_col[p].cmp(&l_col[q]) {
                        std::cmp::Ordering::Equal => {
                            s -= l_val[p] * l_val[q];
                            p += 1;
                            q += 1;
                        }
                        std::cmp::Ordering::Less => p += 1,
                        std::cmp::Ordering::Greater => q += 1,
                    }
                }
                l_col.push(j as u32);
                l_val.push(s * inv_diag[j]);
            }
            // Conductance assembly always stores the diagonal; a pattern
            // without one cannot be factored.
            let a_ii = a_ii.ok_or(SolveError::NotPositiveDefinite)?;
            let sumsq: f64 = l_val[row_start..].iter().map(|v| v * v).sum();
            let arg = a_ii - sumsq;
            if arg <= 0.0 || !arg.is_finite() {
                return Err(SolveError::NotPositiveDefinite);
            }
            let d = arg.sqrt();
            inv_diag[i] = 1.0 / d;
            l_row_ptr.push(l_val.len() as u32);
        }
        // Transpose the strict lower triangle for the backward sweep. The
        // row-major scan leaves each transposed row's columns ascending.
        let mut u_row_ptr = vec![0u32; n + 1];
        for &c in &l_col {
            u_row_ptr[c as usize + 1] += 1;
        }
        for i in 0..n {
            u_row_ptr[i + 1] += u_row_ptr[i];
        }
        let mut next: Vec<u32> = u_row_ptr[..n].to_vec();
        let mut u_col = vec![0u32; l_col.len()];
        let mut u_val = vec![0.0f64; l_val.len()];
        for i in 0..n {
            for k in l_row_ptr[i] as usize..l_row_ptr[i + 1] as usize {
                let j = l_col[k] as usize;
                let slot = next[j] as usize;
                next[j] += 1;
                u_col[slot] = i as u32;
                u_val[slot] = l_val[k];
            }
        }
        Ok(Ic0 {
            n,
            l_row_ptr,
            l_col,
            l_val,
            u_row_ptr,
            u_col,
            u_val,
            inv_diag,
        })
    }

    /// Stored entries of `L` (strict lower triangle plus diagonal).
    pub fn nnz(&self) -> usize {
        self.l_val.len() + self.n
    }
}

impl Precondition for Ic0 {
    /// Solves `L·Lᵀ·z = r` by a forward then a backward triangular sweep,
    /// both in place in `z`.
    ///
    /// # Panics
    ///
    /// Panics if the vector lengths do not match the factor dimension.
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(r.len(), self.n, "r length mismatch");
        assert_eq!(z.len(), self.n, "z length mismatch");
        // Forward: L·y = r, ascending rows (z[j] for j < i already final).
        for i in 0..self.n {
            let mut acc = r[i];
            let lo = self.l_row_ptr[i] as usize;
            let hi = self.l_row_ptr[i + 1] as usize;
            for (v, c) in self.l_val[lo..hi].iter().zip(&self.l_col[lo..hi]) {
                acc -= v * z[*c as usize];
            }
            z[i] = acc * self.inv_diag[i];
        }
        // Backward: Lᵀ·x = y, descending rows (z[j] for j > i already final;
        // row i of the strict upper triangle holds L[j][i] keyed by j).
        for i in (0..self.n).rev() {
            let mut acc = z[i];
            let lo = self.u_row_ptr[i] as usize;
            let hi = self.u_row_ptr[i + 1] as usize;
            for (v, c) in self.u_val[lo..hi].iter().zip(&self.u_col[lo..hi]) {
                acc -= v * z[*c as usize];
            }
            z[i] = acc * self.inv_diag[i];
        }
    }
}

/// Solves `A·x = b` for a symmetric positive-definite `A` using conjugate
/// gradients with a Jacobi (diagonal) preconditioner — [`pcg_with`] with a
/// fresh [`Jacobi`], for one-off solves (the PDN grid, the MMS slabs) whose
/// matrix is not worth factoring. The solve starts from zero.
///
/// # Errors
///
/// Returns [`SolveError`] if convergence fails, the matrix is detected to be
/// non-SPD, or numerical breakdown occurs.
pub fn pcg<A: LinearOperator + ?Sized>(
    a: &A,
    b: &[f64],
    rel_tol: f64,
    max_iter: usize,
) -> Result<PcgSolution, SolveError> {
    let m = Jacobi::new(a)?;
    pcg_with(a, &m, b, None, rel_tol, max_iter)
}

/// Solves `A·x = b` with a caller-supplied preconditioner — the
/// factor-once/solve-many path and the one conjugate-gradient loop in the
/// crate. Every solve records the `thermal.pcg_*` obs metrics. `x0` is the
/// initial guess (`None` starts from zero); the package model passes the
/// ambient field.
///
/// # Errors
///
/// Returns [`SolveError`] if convergence fails, the matrix is detected to be
/// non-SPD, or numerical breakdown occurs.
pub fn pcg_with<A, M>(
    a: &A,
    m: &M,
    b: &[f64],
    x0: Option<&[f64]>,
    rel_tol: f64,
    max_iter: usize,
) -> Result<PcgSolution, SolveError>
where
    A: LinearOperator + ?Sized,
    M: Precondition + ?Sized,
{
    let _span = obs::span!("thermal.pcg_solve");
    obs::counter!("thermal.pcg_solves").inc();
    let result = pcg_with_inner(a, m, b, x0, rel_tol, max_iter);
    record_pcg_metrics(&result);
    result
}

fn record_pcg_metrics(result: &Result<PcgSolution, SolveError>) {
    match result {
        Ok(sol) => {
            obs::counter!("thermal.pcg_iterations").add(sol.iterations as u64);
            obs::histogram!("thermal.pcg_iterations_per_solve").record(sol.iterations as u64);
            obs::gauge!("thermal.pcg_final_residual").set(sol.residual);
        }
        Err(SolveError::NoConvergence { iterations, .. }) => {
            obs::counter!("thermal.pcg_iterations").add(*iterations as u64);
            obs::counter!("thermal.pcg_failures").inc();
        }
        Err(_) => obs::counter!("thermal.pcg_failures").inc(),
    }
}

#[allow(clippy::needless_range_loop)]
fn pcg_with_inner<A, M>(
    a: &A,
    m: &M,
    b: &[f64],
    x0: Option<&[f64]>,
    rel_tol: f64,
    max_iter: usize,
) -> Result<PcgSolution, SolveError>
where
    A: LinearOperator + ?Sized,
    M: Precondition + ?Sized,
{
    let n = a.dim();
    assert_eq!(b.len(), n, "rhs length mismatch");
    let b_norm = norm(b);
    if b_norm == 0.0 {
        return Ok(PcgSolution {
            x: vec![0.0; n],
            iterations: 0,
            residual: 0.0,
        });
    }
    let mut x = match x0 {
        Some(x0) => {
            assert_eq!(x0.len(), n, "warm-start length mismatch");
            x0.to_vec()
        }
        None => vec![0.0; n],
    };
    let (mut r, mut z, mut p, mut ap) = (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    a.mul_vec(&x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    // Convergence is tested right after each residual update (and for the
    // initial residual, right here) so a converging iteration skips its
    // preconditioner apply and direction update; the residual norm is
    // accumulated inside the update loop in index order, making it
    // bitwise identical to a separate `norm(r)` pass.
    let res0 = norm(&r) / b_norm;
    if !res0.is_finite() {
        return Err(SolveError::NumericalBreakdown);
    }
    if res0 <= rel_tol {
        return Ok(PcgSolution {
            x,
            iterations: 0,
            residual: res0,
        });
    }
    m.apply(&r, &mut z);
    p.copy_from_slice(&z);
    let mut rz = dot(&r, &z);

    for it in 1..=max_iter {
        let pap = a.mul_vec_dot(&p, &mut ap);
        if pap <= 0.0 || !pap.is_finite() {
            return Err(SolveError::NotPositiveDefinite);
        }
        let alpha = rz / pap;
        let mut rn2 = 0.0;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
            rn2 += r[i] * r[i];
        }
        let res = rn2.sqrt() / b_norm;
        if !res.is_finite() {
            return Err(SolveError::NumericalBreakdown);
        }
        if res <= rel_tol {
            return Ok(PcgSolution {
                x,
                iterations: it,
                residual: res,
            });
        }
        if it == max_iter {
            break;
        }
        m.apply(&r, &mut z);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let res = norm(&r) / b_norm;
    Err(SolveError::NoConvergence {
        iterations: max_iter,
        residual: res,
    })
}

/// Solves `A·x = b` exactly (to rounding) by an envelope Cholesky
/// factorization — the direct oracle the iterative solver is validated
/// against. Row `i` of `L` is stored densely from the row's first lower
/// nonzero `f(i)` to the diagonal; Cholesky creates no fill left of that
/// envelope, so the factorization is exact while costing `O(Σ wᵢ²)` for
/// row widths `wᵢ = i − f(i)` instead of `O(n³)`. On the package network
/// the layer-major grid rows are about one grid plane (`n²`) wide and only
/// the lumped periphery nodes appended last span the full matrix.
///
/// # Errors
///
/// Returns [`SolveError::NotPositiveDefinite`] if the factorization
/// encounters a non-positive pivot.
///
/// # Panics
///
/// Panics if `b`'s length does not match the matrix dimension.
pub fn cholesky_solve(a: &CsrMatrix, b: &[f64]) -> Result<Vec<f64>, SolveError> {
    let n = a.n();
    assert_eq!(b.len(), n, "rhs length mismatch");
    // Envelope: first[i] is row i's leftmost stored column (CSR columns
    // ascend), capped at i; row i of L occupies l[start[i]..start[i + 1]],
    // columns first[i]..=i.
    let first: Vec<usize> = (0..n)
        .map(|i| {
            let lo = a.row_ptr[i] as usize;
            let hi = a.row_ptr[i + 1] as usize;
            a.col[lo..hi].first().map_or(i, |&c| (c as usize).min(i))
        })
        .collect();
    let mut start = Vec::with_capacity(n + 1);
    start.push(0usize);
    for i in 0..n {
        start.push(start[i] + i - first[i] + 1);
    }
    let mut l = vec![0.0f64; start[n]];
    for i in 0..n {
        let lo = a.row_ptr[i] as usize;
        let hi = a.row_ptr[i + 1] as usize;
        for k in lo..hi {
            let j = a.col[k] as usize;
            if j <= i {
                l[start[i] + j - first[i]] += a.val[k];
            }
        }
    }
    // Row-by-row (up-looking) factorization: L[i][j] for j < i is the
    // scaled residual of A[i][j] against the already-final rows i and j,
    // the dot product running over the overlap of their envelopes.
    for i in 0..n {
        let (done, rest) = l.split_at_mut(start[i]);
        let row_i = &mut rest[..=i - first[i]];
        for j in first[i]..i {
            let row_j = &done[start[j]..start[j + 1]];
            let k0 = first[i].max(first[j]);
            let overlap = dot(
                &row_i[k0 - first[i]..j - first[i]],
                &row_j[k0 - first[j]..j - first[j]],
            );
            row_i[j - first[i]] = (row_i[j - first[i]] - overlap) / row_j[j - first[j]];
        }
        let (off, diag) = row_i.split_at_mut(i - first[i]);
        let d = diag[0] - dot(off, off);
        if d <= 0.0 || !d.is_finite() {
            return Err(SolveError::NotPositiveDefinite);
        }
        diag[0] = d.sqrt();
    }
    // Forward substitution L·y = b.
    let mut x = b.to_vec();
    for i in 0..n {
        let row = &l[start[i]..start[i + 1]];
        let (off, diag) = row.split_at(i - first[i]);
        x[i] = (x[i] - dot(off, &x[first[i]..i])) / diag[0];
    }
    // Back substitution Lᵀ·x = y: row i of L is column i of Lᵀ, so once
    // x[i] is final its contribution leaves every earlier unknown.
    for i in (0..n).rev() {
        let row = &l[start[i]..start[i + 1]];
        let (off, diag) = row.split_at(i - first[i]);
        x[i] /= diag[0];
        let xi = x[i];
        for (xk, v) in x[first[i]..i].iter_mut().zip(off) {
            *xk -= v * xi;
        }
    }
    Ok(x)
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layered::{LayeredIc0, LayeredMatrix, Shape};
    use std::sync::Arc;

    /// A one-layer `n × n` grid Laplacian, links of conductance
    /// `link(axis, cell)`, every cell grounded with `ground`.
    fn layer_grid(
        n: usize,
        ground: f64,
        link: impl Fn(crate::layered::Axis, usize) -> f64,
    ) -> LayeredMatrix {
        let grounds: Vec<(usize, f64)> = (0..n * n).map(|i| (i, ground)).collect();
        let shape = Arc::new(Shape::new(n, 1, 0, &[], &grounds));
        LayeredMatrix::assemble(shape, |axis, _, c| link(axis, c))
    }

    fn csr_from_dense(d: &[&[f64]]) -> CsrMatrix {
        let n = d.len();
        let mut t = TripletMatrix::new(n);
        for (i, row) in d.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                if v != 0.0 {
                    t.add(i, j, v);
                }
            }
        }
        t.to_csr()
    }

    #[test]
    fn csr_conversion_sums_duplicates() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.0);
        t.add(1, 0, 5.0);
        let a = t.to_csr();
        assert_eq!(a.nnz(), 2);
        let mut y = vec![0.0; 2];
        a.mul_vec(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    fn csr_handles_empty_rows() {
        let mut t = TripletMatrix::new(4);
        t.add(0, 0, 1.0);
        t.add(3, 3, 2.0);
        let a = t.to_csr();
        let mut y = vec![0.0; 4];
        a.mul_vec(&[1.0, 1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![1.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn diagonal_extraction() {
        let a = csr_from_dense(&[&[4.0, -1.0], &[-1.0, 3.0]]);
        assert_eq!(a.diagonal(), vec![4.0, 3.0]);
    }

    #[test]
    fn pcg_solves_small_spd_system() {
        // A = [[4,1],[1,3]], b = [1,2] -> x = [1/11, 7/11]
        let a = csr_from_dense(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let sol = pcg(&a, &[1.0, 2.0], 1e-12, 100).unwrap();
        assert!((sol.x[0] - 1.0 / 11.0).abs() < 1e-10);
        assert!((sol.x[1] - 7.0 / 11.0).abs() < 1e-10);
    }

    #[test]
    fn pcg_solves_grounded_resistor_ladder() {
        // Chain of 5 nodes, conductance 2 between neighbours, node 0
        // grounded with g=1, inject 1 W at node 4. All current flows to
        // ground: T0 = 1/1, and each link adds 1/2.
        let n = 5;
        let mut t = TripletMatrix::new(n);
        for i in 0..n - 1 {
            t.add_conductance(i, i + 1, 2.0);
        }
        t.add_ground(0, 1.0);
        let a = t.to_csr();
        let mut b = vec![0.0; n];
        b[4] = 1.0;
        let sol = pcg(&a, &b, 1e-12, 1000).unwrap();
        for (i, &ti) in sol.x.iter().enumerate() {
            let expect = 1.0 + 0.5 * i as f64;
            assert!((ti - expect).abs() < 1e-9, "node {i}: {ti} vs {expect}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pcg_matches_dense_solution_on_random_spd() {
        // Deterministic pseudo-random diagonally dominant SPD matrix.
        let n = 30;
        let mut seed = 0x12345678u64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64) / (u32::MAX as f64)
        };
        let mut dense = vec![vec![0.0f64; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = rng() - 0.5;
                dense[i][j] = v;
                dense[j][i] = v;
            }
        }
        for i in 0..n {
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| dense[i][j].abs()).sum();
            dense[i][i] = off + 1.0 + rng();
        }
        let rows: Vec<&[f64]> = dense.iter().map(|r| r.as_slice()).collect();
        let a = csr_from_dense(&rows);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) * 0.1 - 1.0).collect();
        let mut b = vec![0.0; n];
        a.mul_vec(&x_true, &mut b);
        let sol = pcg(&a, &b, 1e-12, 10_000).unwrap();
        for i in 0..n {
            assert!((sol.x[i] - x_true[i]).abs() < 1e-8, "i={i}");
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = csr_from_dense(&[&[2.0]]);
        let sol = pcg(&a, &[0.0], 1e-12, 10).unwrap();
        assert_eq!(sol.x, vec![0.0]);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn indefinite_matrix_detected() {
        let a = csr_from_dense(&[&[1.0, 2.0], &[2.0, 1.0]]);
        // Diagonal positive but matrix indefinite: p·Ap goes non-positive.
        let err = pcg(&a, &[1.0, -1.0], 1e-12, 100).unwrap_err();
        assert_eq!(err, SolveError::NotPositiveDefinite);
    }

    #[test]
    fn zero_diagonal_rejected() {
        let a = csr_from_dense(&[&[0.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(
            pcg(&a, &[1.0, 1.0], 1e-12, 100).unwrap_err(),
            SolveError::NotPositiveDefinite
        );
    }

    #[test]
    fn no_convergence_reports_residual() {
        let n = 200;
        let mut t = TripletMatrix::new(n);
        for i in 0..n - 1 {
            t.add_conductance(i, i + 1, 1.0);
        }
        t.add_ground(0, 1e-6);
        let a = t.to_csr();
        let b = vec![1.0; n];
        match pcg(&a, &b, 1e-14, 2) {
            Err(SolveError::NoConvergence {
                iterations: 2,
                residual,
            }) => {
                assert!(residual > 0.0)
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }

    #[test]
    fn convergence_on_the_last_permitted_iteration_is_ok() {
        // Grant exactly the iterations a converging solve needs: the
        // residual test of the final iteration must still count.
        let n = 40;
        let mut t = TripletMatrix::new(n);
        for i in 0..n - 1 {
            t.add_conductance(i, i + 1, 1.0 + (i % 3) as f64);
        }
        t.add_ground(0, 0.5);
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 * 0.7).sin()).collect();
        let needed = pcg(&a, &b, 1e-10, 10_000).unwrap().iterations;
        assert!(needed > 1, "system too easy: {needed} iterations");
        let exact_budget = pcg(&a, &b, 1e-10, needed).unwrap();
        assert_eq!(exact_budget.iterations, needed);
        assert!(exact_budget.residual <= 1e-10);
        assert!(matches!(
            pcg(&a, &b, 1e-10, needed - 1),
            Err(SolveError::NoConvergence { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "negative conductance")]
    fn negative_conductance_rejected() {
        let mut t = TripletMatrix::new(2);
        t.add_conductance(0, 1, -1.0);
    }

    #[test]
    fn dense_cholesky_matches_pcg() {
        let n = 25;
        let mut t = TripletMatrix::new(n);
        for i in 0..n - 1 {
            t.add_conductance(i, i + 1, 1.0 + i as f64 * 0.1);
        }
        for i in 0..n - 5 {
            t.add_conductance(i, i + 5, 0.3);
        }
        t.add_ground(0, 2.0);
        t.add_ground(n - 1, 0.5);
        let a = t.to_csr();
        let b: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 2.0).collect();
        let x_pcg = pcg(&a, &b, 1e-13, 10_000).unwrap().x;
        let x_dense = cholesky_solve(&a, &b).unwrap();
        for i in 0..n {
            assert!(
                (x_pcg[i] - x_dense[i]).abs() < 1e-8,
                "node {i}: {} vs {}",
                x_pcg[i],
                x_dense[i]
            );
        }
    }

    #[test]
    fn ic0_is_exact_cholesky_on_a_full_pattern() {
        // With a dense sparsity pattern IC(0) has no dropped fill, so one
        // preconditioner application solves the system exactly.
        let a = csr_from_dense(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 1.0], &[0.5, 1.0, 5.0]]);
        let f = Ic0::factor(&a).unwrap();
        assert_eq!(f.nnz(), 6);
        let b = [1.0, -2.0, 3.0];
        let mut z = vec![0.0; 3];
        f.apply(&b, &mut z);
        let exact = cholesky_solve(&a, &b).unwrap();
        for i in 0..3 {
            assert!(
                (z[i] - exact[i]).abs() < 1e-12,
                "i={i}: {} vs {}",
                z[i],
                exact[i]
            );
        }
    }

    #[test]
    fn ic0_pcg_converges_in_one_iteration_on_full_pattern() {
        let a = csr_from_dense(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let m = Ic0::factor(&a).unwrap();
        let sol = pcg_with(&a, &m, &[1.0, 2.0], None, 1e-12, 100).unwrap();
        assert!(sol.iterations <= 2, "took {}", sol.iterations);
        assert!((sol.x[0] - 1.0 / 11.0).abs() < 1e-10);
        assert!((sol.x[1] - 7.0 / 11.0).abs() < 1e-10);
    }

    #[test]
    fn ic0_pcg_beats_jacobi_on_grid_laplacian() {
        // A 2D grid Laplacian with a weak ground — the structure of the
        // thermal network. IC(0) must cut the iteration count versus
        // Jacobi at the same tolerance and produce the same solution.
        let n = 16;
        let a = layer_grid(n, 0.01, |_, _| 1.0);
        let b: Vec<f64> = (0..n * n).map(|i| ((i % 7) as f64) * 0.3 + 0.1).collect();
        let jac = pcg(&a, &b, 1e-10, 100_000).unwrap();
        let m = LayeredIc0::factor(&a).unwrap();
        let ic = pcg_with(&a, &m, &b, None, 1e-10, 100_000).unwrap();
        assert!(
            ic.iterations * 2 <= jac.iterations,
            "ic0 {} vs jacobi {}",
            ic.iterations,
            jac.iterations
        );
        for i in 0..n * n {
            assert!((ic.x[i] - jac.x[i]).abs() < 1e-7, "i={i}");
        }
    }

    #[test]
    fn kershaw_breakdown_is_a_typed_error() {
        // Kershaw's classic SPD matrix on which IC(0) breaks down (the
        // (3,0)/(0,3) corner entries make a pivot go negative). It is no
        // M-matrix, and the factorization reports the failed pivot as a
        // typed error; the exact Cholesky factor, which keeps the fill,
        // still exists.
        let a = csr_from_dense(&[
            &[3.0, -2.0, 0.0, 2.0],
            &[-2.0, 3.0, -2.0, 0.0],
            &[0.0, -2.0, 3.0, -2.0],
            &[2.0, 0.0, -2.0, 3.0],
        ]);
        assert_eq!(
            Ic0::factor(&a).unwrap_err(),
            SolveError::NotPositiveDefinite
        );
        assert!(cholesky_solve(&a, &[1.0, 0.0, -1.0, 2.0]).is_ok());
    }

    #[test]
    fn zero_diagonal_rejected_by_preconditioners() {
        let a = csr_from_dense(&[&[0.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(
            Ic0::factor(&a).unwrap_err(),
            SolveError::NotPositiveDefinite
        );
        // Zero conductances are legal input, and without grounds they
        // leave every diagonal entry exactly zero.
        let a = layer_grid(2, 0.0, |_, _| 0.0);
        assert_eq!(a.diagonal(), vec![0.0; 4]);
        assert_eq!(
            LayeredIc0::factor(&a).unwrap_err(),
            SolveError::NotPositiveDefinite
        );
        assert_eq!(
            Jacobi::new(&a).unwrap_err(),
            SolveError::NotPositiveDefinite
        );
    }

    #[test]
    fn pcg_with_warm_start_short_circuits() {
        let a = csr_from_dense(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let m = Ic0::factor(&a).unwrap();
        let cold = pcg_with(&a, &m, &[1.0, 2.0], None, 1e-12, 100).unwrap();
        let warm = pcg_with(&a, &m, &[1.0, 2.0], Some(&cold.x), 1e-12, 100).unwrap();
        assert_eq!(warm.iterations, 0);
    }

    #[test]
    fn dense_cholesky_detects_indefinite() {
        let a = csr_from_dense(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert_eq!(
            cholesky_solve(&a, &[1.0, 1.0]).unwrap_err(),
            SolveError::NotPositiveDefinite
        );
    }

    #[test]
    fn with_added_entries_shifts_the_diagonal() {
        let mut t = TripletMatrix::new(3);
        t.add_conductance(0, 1, 1.0);
        t.add_conductance(1, 2, 1.0);
        t.add_ground(0, 1.0);
        let a = t.to_csr();
        let shifted = a.with_added_entries(&[(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]);
        // Diagonal grows exactly by the shift; the pattern is unchanged.
        assert_eq!(shifted.nnz(), a.nnz());
        let d0 = a.diagonal();
        let d1 = shifted.diagonal();
        for i in 0..3 {
            assert!((d1[i] - d0[i] - 1.0).abs() < 1e-12);
        }
        // And the shifted system is better conditioned (fewer iterations).
        let b = [1.0, 2.0, 3.0];
        let it_shifted = pcg(&shifted, &b, 1e-12, 100).unwrap().iterations;
        assert!(it_shifted <= 4);
    }
}
