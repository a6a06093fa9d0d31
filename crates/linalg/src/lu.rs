//! LU factorization with partial pivoting.
//!
//! [`LuFactor`] is the exact "numerical solver" the paper benchmarks AMC
//! against, and it is also used internally by the BlockAMC pre-processing
//! step (the Schur complement `A4s = A4 − A3·A1⁻¹·A2` is computed digitally)
//! and by the dense modified-nodal-analysis path in `amc-circuit`.

use std::ops::Range;

use crate::sparse::CsrMatrix;
use crate::{vector, LinalgError, Matrix, Result};

/// Relative pivot threshold below which a matrix is declared singular.
const SINGULARITY_RTOL: f64 = 1e-300;

/// An LU factorization `P·A = L·U` with partial (row) pivoting.
///
/// # Example
///
/// ```
/// use amc_linalg::{Matrix, lu::LuFactor};
///
/// # fn main() -> Result<(), amc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = LuFactor::new(&a)?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    /// Combined storage: the strict lower triangle holds L (unit diagonal
    /// implied), the upper triangle holds U.
    lu: Matrix,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Vec<usize>,
    /// Number of row swaps performed (determines the determinant sign).
    swaps: usize,
}

impl LuFactor {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NonSquare`] if `a` is not square.
    /// * [`LinalgError::Singular`] if a pivot underflows to (near) zero.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NonSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::invalid("cannot factorize an empty matrix"));
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut swaps = 0;
        let scale = a.max_abs().max(1.0);
        let data = lu.as_mut_slice();
        for k0 in (0..n).step_by(PANEL) {
            let k1 = (k0 + PANEL).min(n);
            swaps += factor_panel(data, n, k0..k1, scale, &mut perm)?;
            // The panel's rows beyond its columns, in row order, so each
            // U row is finished before a later row subtracts it.
            for i in k0 + 1..k1 {
                let (done, rest) = data.split_at_mut(i * n);
                subtract_panel(&mut rest[..n], &done[k0 * n..], n, k0..k1);
            }
            update_trailing(data, n, k0..k1);
        }
        Ok(LuFactor { lu, perm, swaps })
    }

    /// Matrix dimension.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` for a single right-hand side.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len()` differs from the
    /// matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = vec![0.0; self.dim()];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }

    /// Solves `A·x = b` into a borrowed output buffer — the
    /// allocation-free kernel behind [`LuFactor::solve`], for hot paths
    /// (repeated INV operations, Schur pre-processing) that reuse one
    /// scratch vector across many right-hand sides.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len()` or `x.len()`
    /// differs from the matrix dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        if x.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve (output)",
                lhs: (n, n),
                rhs: (x.len(), 1),
            });
        }
        let lu = self.lu.as_slice();
        // Forward substitution on the permuted RHS: L·y = P·b.
        for (xi, &pi) in x.iter_mut().zip(&self.perm) {
            *xi = b[pi];
        }
        // Row 0 has nothing to subtract. From row 1 on, the rows go in
        // groups of ROW_GROUP: each row's sum over the group's solved
        // prefix `x[..i0]` runs in its own accumulator, then continues in
        // order over the group's earlier rows as they are solved. Every
        // row sums exactly as `dot(row, solved)` does.
        const G: usize = vector::ROW_GROUP;
        let mut i0 = 1;
        while i0 + G <= n {
            let (solved, group) = x.split_at_mut(i0);
            let mut acc = vector::dot_rows::<G>(&lu[i0 * n..], n, solved);
            for (r, s) in acc.iter_mut().enumerate() {
                let row = &lu[(i0 + r) * n + i0..(i0 + r) * n + i0 + r];
                let (done, rest) = group.split_at_mut(r);
                for (l, y) in row.iter().zip(&*done) {
                    *s += l * y;
                }
                rest[0] -= *s;
            }
            i0 += G;
        }
        for i in i0..n {
            let (solved, rest) = x.split_at_mut(i);
            rest[0] -= vector::dot(&lu[i * n..i * n + i], solved);
        }
        // Back substitution: U·x = y.
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut(i + 1);
            let row = &lu[i * n + i + 1..(i + 1) * n];
            head[i] = (head[i] - vector::dot(row, tail)) / lu[i * n + i];
        }
        Ok(())
    }

    /// Solves `A·X = B` for `k` right-hand sides at once.
    ///
    /// Blocks are stored row-major: `b` and `x` are `n×k`, with entry `i`
    /// of right-hand side `c` at `[i*k + c]` (a [`Matrix`] with `k`
    /// columns has exactly this layout). Every column of `x` is
    /// **bit-identical** to [`LuFactor::solve_into`] on that column: the
    /// columns go in groups of 8, then 4, then 1, each copied with its
    /// rows permuted into a contiguous `n×W` panel (a block of exactly 8
    /// or 4 columns is its own panel), solved there with one register
    /// accumulator per column that sums over the row in index order from
    /// `crate::vector::SUM_NEUTRAL`, and copied back. `k = 1` runs
    /// [`LuFactor::solve_into`] itself.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len()` or `x.len()`
    /// differs from `n·k`.
    pub fn solve_block_into(&self, b: &[f64], k: usize, x: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n * k {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve_block",
                lhs: (n, n),
                rhs: (b.len(), k),
            });
        }
        if x.len() != n * k {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve_block (output)",
                lhs: (n, n),
                rhs: (x.len(), k),
            });
        }
        if k == 1 {
            return self.solve_into(b, x);
        }
        let mut panel = Vec::new();
        for (c0, width) in vector::column_groups(k) {
            match width {
                vector::WIDE => self.solve_group::<{ vector::WIDE }>(b, k, c0, x, &mut panel),
                vector::NARROW => self.solve_group::<{ vector::NARROW }>(b, k, c0, x, &mut panel),
                _ => self.solve_group::<1>(b, k, c0, x, &mut panel),
            }
        }
        Ok(())
    }

    /// Columns `c0..c0 + W` of [`LuFactor::solve_block_into`]: permutes
    /// them into a panel (`x` itself when the block is `W` wide), solves
    /// it and copies it back.
    fn solve_group<const W: usize>(
        &self,
        b: &[f64],
        k: usize,
        c0: usize,
        x: &mut [f64],
        panel: &mut Vec<f64>,
    ) {
        if k == W {
            for (x_row, &pi) in x.chunks_exact_mut(k).zip(&self.perm) {
                x_row.copy_from_slice(&b[pi * k..(pi + 1) * k]);
            }
            self.solve_panel::<W>(x);
        } else {
            vector::pack_columns(b, k, c0, W, self.perm.iter().copied(), panel);
            self.solve_panel::<W>(panel);
            vector::unpack_columns(panel, W, x, k, c0);
        }
    }

    /// The forward and back substitutions of [`LuFactor::solve_into`] on
    /// the `W` columns of a contiguous `n×W` panel of permuted rows.
    fn solve_panel<const W: usize>(&self, panel: &mut [f64]) {
        let n = self.dim();
        let lu = self.lu.as_slice();
        // Forward substitution: L·Y = P·B.
        for i in 1..n {
            let (solved, rest) = panel.split_at_mut(i * W);
            let [acc] = vector::dot_panel::<1, W>([&lu[i * n..i * n + i]], solved);
            for (xi, s) in rest[..W].iter_mut().zip(acc) {
                *xi -= s;
            }
        }
        // Back substitution: U·X = Y.
        for i in (0..n).rev() {
            let (head, tail) = panel.split_at_mut((i + 1) * W);
            let [acc] = vector::dot_panel::<1, W>([&lu[i * n + i + 1..(i + 1) * n]], tail);
            let pivot = lu[i * n + i];
            for (xi, s) in head[i * W..].iter_mut().zip(acc) {
                *xi = (*xi - s) / pivot;
            }
        }
    }

    /// Solves `A·X = B` for a matrix right-hand side — one
    /// [`LuFactor::solve_block_into`] call over `B`'s storage.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `B` has the wrong row count.
    pub(crate) fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "lu_solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        self.solve_block_into(b.as_slice(), b.cols(), out.as_mut_slice())?;
        Ok(out)
    }

    /// Applies the Schur-complement update `out -= A3·(A1⁻¹·A2)`, where
    /// `self` is the factorization of `A1` and `out` arrives holding
    /// `A4` — the fused pre-processing kernel of the BlockAMC partition
    /// (paper eq. 3).
    ///
    /// One pass per column group of `A2` (8, then 4, then 1 wide): the
    /// group's columns are copied with their rows permuted into an
    /// `n×W` panel, solved there as in [`LuFactor::solve_block_into`],
    /// multiplied by `A3` as in [`Matrix::matvec_block_into`], and each
    /// product subtracted from `out`. The panel is the only allocation.
    /// Every entry is bit-identical to the column-at-a-time form — solve
    /// column `j` of `A2` with [`LuFactor::solve_into`], then subtract
    /// `dot(A3[i, :], y)` from `out[i, j]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `A2`/`A3`/`out` do not
    /// conform: `A2` must be `n×k`, `A3` `m×n`, and `out` `m×k` for the
    /// `n×n` factorization `self`.
    pub fn schur_update_into(&self, a2: &Matrix, a3: &Matrix, out: &mut Matrix) -> Result<()> {
        let n = self.dim();
        if a2.rows() != n || a3.cols() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "schur_update (A1 vs A2/A3)",
                lhs: a2.shape(),
                rhs: a3.shape(),
            });
        }
        if out.rows() != a3.rows() || out.cols() != a2.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "schur_update (output)",
                lhs: (a3.rows(), a2.cols()),
                rhs: out.shape(),
            });
        }
        let mut panel = Vec::new();
        for (c0, width) in vector::column_groups(a2.cols()) {
            match width {
                vector::WIDE => self.schur_group::<{ vector::WIDE }>(a2, a3, c0, out, &mut panel),
                vector::NARROW => {
                    self.schur_group::<{ vector::NARROW }>(a2, a3, c0, out, &mut panel)
                }
                _ => self.schur_group::<1>(a2, a3, c0, out, &mut panel),
            }
        }
        Ok(())
    }

    /// Columns `c0..c0 + W` of [`LuFactor::schur_update_into`].
    fn schur_group<const W: usize>(
        &self,
        a2: &Matrix,
        a3: &Matrix,
        c0: usize,
        out: &mut Matrix,
        panel: &mut Vec<f64>,
    ) {
        let k = a2.cols();
        vector::pack_columns(a2.as_slice(), k, c0, W, self.perm.iter().copied(), panel);
        self.solve_panel::<W>(panel);
        let out = out.as_mut_slice();
        a3.matvec_panel::<W>(panel, |i, acc| {
            for (o, s) in out[i * k + c0..i * k + c0 + W].iter_mut().zip(acc) {
                *o -= s;
            }
        });
    }

    /// Sparse-aware variant of [`LuFactor::schur_update_into`]: `A2` and
    /// `A3` arrive in CSR form, so entirely-zero columns of `A2` are
    /// skipped outright (a zero right-hand side solves to exactly zero,
    /// so they cannot contribute) and each output row accumulates only
    /// over the stored entries of `A3`. For the grounded-Laplacian and
    /// PDN partition blocks — a handful of coupling entries in an
    /// otherwise zero off-diagonal block — this turns the `O(n³)` dense
    /// update into work proportional to the coupling bandwidth.
    ///
    /// Agrees with the dense kernel to within signed zeros: both sum the
    /// same nonzero products in the same column order, the sparse path
    /// merely omits terms that are exactly `0.0`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] under the same conditions
    /// as [`LuFactor::schur_update_into`].
    pub fn schur_update_sparse_into(
        &self,
        a2: &CsrMatrix,
        a3: &CsrMatrix,
        out: &mut Matrix,
    ) -> Result<()> {
        let n = self.dim();
        if a2.nrows() != n || a3.ncols() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "schur_update_sparse (A1 vs A2/A3)",
                lhs: (a2.nrows(), a2.ncols()),
                rhs: (a3.nrows(), a3.ncols()),
            });
        }
        if out.rows() != a3.nrows() || out.cols() != a2.ncols() {
            return Err(LinalgError::ShapeMismatch {
                op: "schur_update_sparse (output)",
                lhs: (a3.nrows(), a2.ncols()),
                rhs: out.shape(),
            });
        }
        // Rows of A2ᵀ are the columns the solve streams through.
        let a2t = a2.transpose();
        let mut col = vec![0.0; n];
        let mut y = vec![0.0; n];
        for j in 0..a2.ncols() {
            let (cols, vals) = a2t.row_entries(j);
            if cols.is_empty() {
                continue;
            }
            col.fill(0.0);
            for (&i, &v) in cols.iter().zip(vals) {
                col[i] = v;
            }
            self.solve_into(&col, &mut y)?;
            for i in 0..out.rows() {
                let (ridx, rvals) = a3.row_entries(i);
                let dot = ridx
                    .iter()
                    .zip(rvals)
                    .fold(vector::SUM_NEUTRAL, |acc, (&c, &v)| acc + v * y[c]);
                out[(i, j)] -= dot;
            }
        }
        Ok(())
    }

    /// Computes the inverse matrix `A⁻¹`.
    ///
    /// # Errors
    ///
    /// Propagates solve errors (cannot occur for a successfully constructed
    /// factorization of correct shape).
    pub(crate) fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.dim()))
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let sign = if self.swaps % 2 == 0 { 1.0 } else { -1.0 };
        self.lu.diag().iter().product::<f64>() * sign
    }

    /// Estimates the 1-norm condition number `κ₁(A) = ‖A‖₁·‖A⁻¹‖₁`.
    ///
    /// Uses a few rounds of the Hager/Higham power-style estimator on
    /// `A⁻¹`; cheap (a handful of solves) and accurate to within a small
    /// factor, which is all the conditioning diagnostics need.
    ///
    /// `norm_one_a` must be the 1-norm of the *original* matrix (the factor
    /// does not retain it).
    pub fn cond_estimate(&self, norm_one_a: f64) -> f64 {
        let n = self.dim();
        // Start with the uniform vector.
        let mut x = vec![1.0 / n as f64; n];
        let mut est = 0.0_f64;
        for _ in 0..5 {
            let y = match self.solve(&x) {
                Ok(y) => y,
                Err(_) => return f64::INFINITY,
            };
            let norm_y = crate::vector::norm1(&y);
            est = est.max(norm_y);
            // Sign vector and transpose-solve direction via solving with the
            // sign pattern (uses A rather than Aᵀ: adequate for an estimate
            // on the symmetric-ish matrices this workspace handles).
            let z: Vec<f64> = y
                .iter()
                .map(|&v| if v >= 0.0 { 1.0 } else { -1.0 })
                .collect();
            let w = match self.solve(&z) {
                Ok(w) => w,
                Err(_) => return f64::INFINITY,
            };
            // Pick the most influential unit vector next.
            let (jmax, wmax) = w
                .iter()
                .enumerate()
                .fold((0, 0.0_f64), |(jm, vm), (j, &v)| {
                    if v.abs() > vm {
                        (j, v.abs())
                    } else {
                        (jm, vm)
                    }
                });
            est = est.max(wmax);
            let mut e = vec![0.0; n];
            e[jmax] = 1.0;
            if crate::vector::approx_eq(&x, &e, 0.0) {
                break;
            }
            x = e;
        }
        est * norm_one_a
    }
}

/// Columns per panel of the blocked elimination in [`LuFactor::new`].
const PANEL: usize = 32;

/// Eliminates the pivots `panel` of the `n×n` row-major `lu`: per pivot
/// `k`, the pivot search down column `k`, the full-row swap, the
/// multipliers of column `k`, and their update limited to the panel's
/// columns. Returns the number of swaps.
///
/// Together with [`subtract_panel`] and [`update_trailing`] this is the
/// unblocked right-looking elimination reordered by panels: every entry
/// still subtracts `l_ik·u_kj` for its pivots `k` in increasing order,
/// skipping each `k` whose multiplier `l_ik` is zero, so the factors
/// are the same bits.
fn factor_panel(
    lu: &mut [f64],
    n: usize,
    panel: Range<usize>,
    scale: f64,
    perm: &mut [usize],
) -> Result<usize> {
    let mut swaps = 0;
    for k in panel.clone() {
        let mut p = k;
        let mut pmax = lu[k * n + k].abs();
        for (i, row) in lu.chunks_exact(n).enumerate().skip(k + 1) {
            let v = row[k].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        if pmax <= SINGULARITY_RTOL * scale {
            return Err(LinalgError::Singular { pivot: k });
        }
        if p != k {
            perm.swap(p, k);
            swaps += 1;
            let (head, tail) = lu.split_at_mut(p * n);
            head[k * n..(k + 1) * n].swap_with_slice(&mut tail[..n]);
        }
        let (head, tail) = lu.split_at_mut((k + 1) * n);
        let pivot_row = &head[k * n..];
        let pivot = pivot_row[k];
        let u = &pivot_row[k + 1..panel.end];
        for row in tail.chunks_exact_mut(n) {
            let factor = row[k] / pivot;
            row[k] = factor;
            if factor != 0.0 {
                for (x, &ukj) in row[k + 1..panel.end].iter_mut().zip(u) {
                    *x -= factor * ukj;
                }
            }
        }
    }
    Ok(swaps)
}

/// Subtracts `l_ik·u_k` from the part of `row` beyond the panel for the
/// panel's pivots `k` in order, skipping each zero multiplier. `u`
/// holds the U rows of those pivots, from the panel's first on; a
/// panel row passes only the rows above it.
fn subtract_panel(row: &mut [f64], u: &[f64], n: usize, panel: Range<usize>) {
    let (l, tail) = row.split_at_mut(panel.end);
    for (&lk, u_row) in l[panel.start..].iter().zip(u.chunks_exact(n)) {
        if lk != 0.0 {
            for (x, &ukj) in tail.iter_mut().zip(&u_row[panel.end..]) {
                *x -= lk * ukj;
            }
        }
    }
}

/// The trailing update after `panel`: every row below the panel
/// subtracts the panel's pivots from its columns beyond the panel. Rows
/// go in pairs through [`trailing_tile`] when all the pair's multipliers
/// are nonzero, and through the skipping [`subtract_panel`] otherwise.
fn update_trailing(lu: &mut [f64], n: usize, panel: Range<usize>) {
    let (top, bottom) = lu.split_at_mut(panel.end * n);
    let u = &top[panel.start * n..];
    let mut pairs = bottom.chunks_exact_mut(2 * n);
    for pair in &mut pairs {
        let (r0, r1) = pair.split_at_mut(n);
        let (l0, l1) = (&r0[panel.clone()], &r1[panel.clone()]);
        if l0.iter().chain(l1).any(|&l| l == 0.0) {
            subtract_panel(r0, u, n, panel.clone());
            subtract_panel(r1, u, n, panel.clone());
            continue;
        }
        let (l0, a0) = r0.split_at_mut(panel.end);
        let (l1, a1) = r1.split_at_mut(panel.end);
        let l = (&l0[panel.start..], &l1[panel.start..]);
        for (c, width) in vector::column_groups(a0.len()) {
            let tile = (&mut a0[c..c + width], &mut a1[c..c + width]);
            let c = panel.end + c;
            match width {
                vector::WIDE => trailing_tile::<{ vector::WIDE }>(l, u, n, c, tile),
                vector::NARROW => trailing_tile::<{ vector::NARROW }>(l, u, n, c, tile),
                _ => trailing_tile::<1>(l, u, n, c, tile),
            }
        }
    }
    let last = pairs.into_remainder();
    if !last.is_empty() {
        subtract_panel(last, u, n, panel);
    }
}

/// A 2×`W` register tile of the trailing update at columns `c..c + W`:
/// each entry starts from itself and subtracts `l_ik·u_kj` for the
/// panel's pivots in order, with no skip (the caller checked that
/// every multiplier in `l` is nonzero).
#[inline]
fn trailing_tile<const W: usize>(
    l: (&[f64], &[f64]),
    u: &[f64],
    n: usize,
    c: usize,
    tile: (&mut [f64], &mut [f64]),
) {
    let mut acc0: [f64; W] = (&*tile.0).try_into().expect("tile is W wide");
    let mut acc1: [f64; W] = (&*tile.1).try_into().expect("tile is W wide");
    for ((&a, &b), u_row) in l.0.iter().zip(l.1).zip(u.chunks_exact(n)) {
        let u_row: &[f64; W] = u_row[c..c + W]
            .try_into()
            .expect("tile lies inside the row");
        for ((x0, x1), &ukj) in acc0.iter_mut().zip(&mut acc1).zip(u_row) {
            *x0 -= a * ukj;
            *x1 -= b * ukj;
        }
    }
    tile.0.copy_from_slice(&acc0);
    tile.1.copy_from_slice(&acc1);
}

/// Convenience one-shot solve of `A·x = b`.
///
/// # Errors
///
/// See [`LuFactor::new`] and [`LuFactor::solve`].
///
/// # Example
///
/// ```
/// use amc_linalg::{Matrix, lu};
///
/// # fn main() -> Result<(), amc_linalg::LinalgError> {
/// let a = Matrix::identity(2);
/// assert_eq!(lu::solve(&a, &[5.0, -1.0])?, vec![5.0, -1.0]);
/// # Ok(())
/// # }
/// ```
pub fn solve(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    LuFactor::new(a)?.solve(b)
}

/// Convenience one-shot matrix inverse.
///
/// # Errors
///
/// See [`LuFactor::new`].
pub fn inverse(a: &Matrix) -> Result<Matrix> {
    LuFactor::new(a)?.inverse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;
    use rand::SeedableRng;

    #[test]
    fn solves_known_system() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]).unwrap();
        let x_true = [1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(vector::approx_eq(&x, &x_true, 1e-12));
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = solve(&a, &[3.0, 4.0]).unwrap();
        assert!(vector::approx_eq(&x, &[4.0, 3.0], 1e-14));
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(matches!(
            LuFactor::new(&Matrix::zeros(2, 3)),
            Err(LinalgError::NonSquare { rows: 2, cols: 3 })
        ));
        // A 0x0 matrix cannot be built through from_rows; construct directly.
        let empty = Matrix::zeros(0, 0);
        assert!(LuFactor::new(&empty).is_err());
    }

    #[test]
    fn detects_singular_matrix() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(
            LuFactor::new(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn determinant_with_sign() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        assert!((lu.det() + 1.0).abs() < 1e-14);

        let b = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        assert!((LuFactor::new(&b).unwrap().det() - 6.0).abs() < 1e-14);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Matrix::from_rows(&[&[4.0, 7.0], &[2.0, 6.0]]).unwrap();
        let inv = inverse(&a).unwrap();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(2), 1e-12));
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[9.0, 4.0], &[8.0, 3.0]]).unwrap();
        let x = LuFactor::new(&a).unwrap().solve_matrix(&b).unwrap();
        let back = a.matmul(&x).unwrap();
        assert!(back.approx_eq(&b, 1e-12));
    }

    #[test]
    fn solve_rejects_wrong_length_rhs() {
        let a = Matrix::identity(3);
        let lu = LuFactor::new(&a).unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
        assert!(lu.solve_matrix(&Matrix::zeros(2, 2)).is_err());
        assert!(lu.solve_into(&[1.0, 2.0, 3.0], &mut [0.0; 2]).is_err());
    }

    #[test]
    fn solve_into_matches_solve() {
        let a =
            Matrix::from_rows(&[&[2.0, 1.0, 1.0], &[4.0, -6.0, 0.0], &[-2.0, 7.0, 2.0]]).unwrap();
        let lu = LuFactor::new(&a).unwrap();
        let b = [1.0, -2.0, 0.5];
        let x = lu.solve(&b).unwrap();
        let mut buf = vec![0.0; 3];
        lu.solve_into(&b, &mut buf).unwrap();
        assert_eq!(x, buf, "borrowed kernel must be bit-identical");
    }

    #[test]
    fn schur_update_matches_materialized_product() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let a1 = Matrix::from_fn(4, 4, |i, j| {
            use rand::Rng;
            let v: f64 = rng.gen_range(-1.0..1.0);
            if i == j {
                v + 5.0
            } else {
                v
            }
        });
        let a2 = Matrix::from_fn(4, 3, |i, j| (i + 2 * j) as f64 * 0.25 - 0.5);
        let a3 = Matrix::from_fn(3, 4, |i, j| (2 * i + j) as f64 * 0.125 - 0.25);
        let a4 = Matrix::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let lu = LuFactor::new(&a1).unwrap();
        let mut fused = a4.clone();
        lu.schur_update_into(&a2, &a3, &mut fused).unwrap();
        let reference = a4
            .sub_matrix(&a3.matmul(&lu.solve_matrix(&a2).unwrap()).unwrap())
            .unwrap();
        assert!(fused.approx_eq(&reference, 1e-12));
        // Shape validation.
        assert!(lu
            .schur_update_into(&a2, &a3, &mut Matrix::zeros(2, 2))
            .is_err());
        assert!(lu
            .schur_update_into(&Matrix::zeros(3, 3), &a3, &mut a4.clone())
            .is_err());
    }

    #[test]
    fn sparse_schur_update_matches_dense_kernel() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let n = 6;
        let a1 = Matrix::from_fn(n, n, |i, j| {
            let v: f64 = rng.gen_range(-1.0..1.0);
            if i == j {
                v + 4.0
            } else {
                v
            }
        });
        // Sparse coupling blocks: one band plus a few scattered entries,
        // including entirely-zero columns of A2 (the skip path).
        let mut a2 = Matrix::zeros(n, 5);
        a2[(0, 1)] = -1.5;
        a2[(3, 1)] = 0.25;
        a2[(5, 4)] = 2.0;
        let mut a3 = Matrix::zeros(5, n);
        a3[(0, 0)] = 1.0;
        a3[(2, 5)] = -0.75;
        a3[(4, 3)] = 0.5;
        let a4 = Matrix::from_fn(5, 5, |i, j| (i + j) as f64 * 0.5);
        let lu = LuFactor::new(&a1).unwrap();
        let mut dense = a4.clone();
        lu.schur_update_into(&a2, &a3, &mut dense).unwrap();
        let mut sparse = a4.clone();
        lu.schur_update_sparse_into(
            &CsrMatrix::from_dense(&a2),
            &CsrMatrix::from_dense(&a3),
            &mut sparse,
        )
        .unwrap();
        assert!(sparse.approx_eq(&dense, 1e-14));
        // Shape validation mirrors the dense kernel.
        assert!(lu
            .schur_update_sparse_into(
                &CsrMatrix::from_dense(&a2),
                &CsrMatrix::from_dense(&a3),
                &mut Matrix::zeros(2, 2),
            )
            .is_err());
        assert!(lu
            .schur_update_sparse_into(
                &CsrMatrix::from_dense(&Matrix::zeros(3, 3)),
                &CsrMatrix::from_dense(&a3),
                &mut a4.clone(),
            )
            .is_err());
    }

    #[test]
    fn condition_estimate_orders_well_vs_ill() {
        let well = Matrix::identity(4);
        let lu_w = LuFactor::new(&well).unwrap();
        let cond_w = lu_w.cond_estimate(well.norm_one());

        // Hilbert-like ill-conditioned matrix.
        let ill = Matrix::from_fn(6, 6, |i, j| 1.0 / (i + j + 1) as f64);
        let lu_i = LuFactor::new(&ill).unwrap();
        let cond_i = lu_i.cond_estimate(ill.norm_one());

        assert!((cond_w - 1.0).abs() < 1e-9);
        assert!(cond_i > 1e5, "hilbert 6x6 cond estimate was {cond_i}");
    }

    #[test]
    fn large_random_system_residual_is_small() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
        let n = 64;
        let a = Matrix::from_fn(n, n, |i, j| {
            let base: f64 = rng.gen_range(-1.0..1.0);
            if i == j {
                base + n as f64 // diagonally dominant => well-conditioned
            } else {
                base
            }
        });
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = solve(&a, &b).unwrap();
        assert!(vector::approx_eq(&x, &x_true, 1e-10));
    }

    /// [`LuFactor::new`]'s elimination as it was before it went by
    /// panels: one pivot at a time, each updating the whole trailing
    /// matrix. Returns the factors' bits, the permutation and the swaps.
    fn unblocked_lu(a: &Matrix) -> Result<(Vec<u64>, Vec<usize>, usize)> {
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut swaps = 0;
        let scale = a.max_abs().max(1.0);
        for k in 0..n {
            let mut p = k;
            let mut pmax = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax <= SINGULARITY_RTOL * scale {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                perm.swap(p, k);
                swaps += 1;
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                if factor != 0.0 {
                    for j in (k + 1)..n {
                        let ukj = lu[(k, j)];
                        lu[(i, j)] -= factor * ukj;
                    }
                }
            }
        }
        let bits = lu.as_slice().iter().map(|v| v.to_bits()).collect();
        Ok((bits, perm, swaps))
    }

    fn assert_same_elimination(a: &Matrix, case: &str) {
        let blocked = LuFactor::new(a).map(|f| {
            let bits = f.lu.as_slice().iter().map(|v| v.to_bits()).collect();
            (bits, f.perm, f.swaps)
        });
        assert!(blocked == unblocked_lu(a), "{case}, n={}", a.rows());
    }

    #[test]
    fn blocked_elimination_matches_unblocked_bit_for_bit() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(19);
        // Every size up to 80 covers each panel and tile remainder; the
        // larger ones straddle 4 and 8 panels. Gaussian matrices swap
        // rows across panel boundaries at almost every pivot.
        for n in (1..=80).chain([127, 128, 129, 255, 256, 257]) {
            assert_same_elimination(&crate::generate::gaussian(n, n, &mut rng), "gaussian");
        }
        // Row-reversed dominance: pivot k is row n−1−k, so every swap
        // reaches across the panels below.
        let n = 100;
        let reversed = Matrix::from_fn(n, n, |i, j| {
            let v = ((i * 7 + j * 3) % 11) as f64 * 0.1 - 0.5;
            if i + j == n - 1 {
                v + n as f64
            } else {
                v
            }
        });
        assert_same_elimination(&reversed, "reversed");
        // Exact zero multipliers: every third row below 40 is zero in
        // the first 36 columns (a skip that crosses the first panel),
        // and the rest of the matrix carries signed zeros.
        let mut sparse = crate::generate::gaussian(n, n, &mut rng);
        for (i, row) in sparse.as_mut_slice().chunks_exact_mut(n).enumerate() {
            if i > 40 && i % 3 == 0 {
                row[..36].fill(0.0);
            }
            row[(i * 5) % n] = -0.0;
            row[(i * 11 + 3) % n] = 0.0;
        }
        assert_same_elimination(&sparse, "zero multipliers");
        // Upper triangular: every multiplier is zero, so the U entries
        // keep their -0.0 only because each update is skipped (without
        // the skip, `-0.0 - 0.0·u` is +0.0 for a negative `u`).
        let upper = Matrix::from_fn(n, n, |i, j| match (i, j) {
            _ if i > j => 0.0,
            _ if i == j => 4.0 + (i % 3) as f64,
            _ if (i + j) % 4 == 0 => -0.0,
            _ => -1.0 - ((i * j) % 5) as f64,
        });
        assert_same_elimination(&upper, "upper triangular");
        let kept = LuFactor::new(&upper).unwrap().lu;
        assert!(kept
            .as_slice()
            .iter()
            .any(|v| *v == 0.0 && v.is_sign_negative()));
        // Infinite and NaN entries flow through every path.
        for (r, c, v) in [
            (5, 50, f64::INFINITY),
            (60, 3, f64::NEG_INFINITY),
            (40, 40, f64::NAN),
        ] {
            let mut a = crate::generate::gaussian(70, 70, &mut rng);
            a[(r, c)] = v;
            assert_same_elimination(&a, "non-finite");
        }
        // A zero column past the first panel leaves an exact zero pivot.
        let mut singular = crate::generate::gaussian(70, 70, &mut rng);
        for i in 0..70 {
            singular[(i, 40)] = 0.0;
        }
        assert_same_elimination(&singular, "singular");
        assert_eq!(
            LuFactor::new(&singular).unwrap_err(),
            LinalgError::Singular { pivot: 40 }
        );
    }

    /// [`LuFactor::solve_into`] with one `dot` per row in both
    /// substitutions, as it was before the forward substitution took its
    /// rows in groups.
    fn one_dot_per_row_solve(f: &LuFactor, b: &[f64]) -> Vec<f64> {
        let n = f.dim();
        let lu = f.lu.as_slice();
        let mut x: Vec<f64> = f.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let (solved, rest) = x.split_at_mut(i);
            rest[0] -= vector::dot(&lu[i * n..i * n + i], solved);
        }
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut(i + 1);
            let row = &lu[i * n + i + 1..(i + 1) * n];
            head[i] = (head[i] - vector::dot(row, tail)) / lu[i * n + i];
        }
        x
    }

    #[test]
    fn solve_into_matches_one_dot_per_row_bit_for_bit() {
        // Every n up to 70 covers each remainder of the row groups. The
        // right-hand sides carry signed zeros (one of them only signed
        // zeros, whose solution is all zeros of computed sign) and ±∞.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(70);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut x = Vec::new();
        for n in 1..=70 {
            let f = LuFactor::new(&crate::generate::gaussian(n, n, &mut rng)).unwrap();
            let mut random = crate::generate::random_vector(n, &mut rng);
            random[n / 2] = -0.0;
            let zeros: Vec<f64> = (0..n)
                .map(|i| if i % 3 == 0 { 0.0 } else { -0.0 })
                .collect();
            let mut infinite = random.clone();
            infinite[n / 3] = f64::INFINITY;
            infinite[(2 * n) / 3] = f64::NEG_INFINITY;
            for b in [random, zeros, infinite] {
                x.resize(n, f64::NAN);
                f.solve_into(&b, &mut x).unwrap();
                assert_eq!(bits(&x), bits(&one_dot_per_row_solve(&f, &b)), "n={n}");
            }
        }
    }
}
