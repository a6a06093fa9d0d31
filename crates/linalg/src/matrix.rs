//! Dense row-major matrix type.

use crate::{vector, LinalgError, Result};
use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense, row-major matrix of `f64` values.
///
/// `Matrix` is the workhorse of the BlockAMC reproduction: it stores the
/// mathematical matrices being solved, the conductance matrices programmed
/// into crossbar arrays, and the assembled modified-nodal-analysis systems
/// for small circuits.
///
/// # Example
///
/// ```
/// use amc_linalg::Matrix;
///
/// # fn main() -> Result<(), amc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows.checked_mul(cols).expect("matrix size overflow")],
        }
    }

    /// Creates a `rows x cols` matrix where every element equals `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m.data[i * n + i] = d;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::invalid(format!(
                "data length {} does not match {}x{}",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix from a slice of row slices.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the rows have differing
    /// lengths or the input is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        if rows.is_empty() {
            return Err(LinalgError::invalid("matrix must have at least one row"));
        }
        let cols = rows[0].len();
        if cols == 0 {
            return Err(LinalgError::invalid("matrix must have at least one column"));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(LinalgError::invalid(format!(
                    "row {i} has length {}, expected {cols}",
                    r.len()
                )));
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Returns `true` if the matrix is square.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major storage.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access with bounds checking.
    pub fn get(&self, row: usize, col: usize) -> Option<f64> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Sets a single element.
    ///
    /// # Panics
    ///
    /// Panics if the indices are out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index out of bounds");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols, "column index out of bounds");
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Returns the main diagonal as a vector.
    pub fn diag(&self) -> Vec<f64> {
        let n = self.rows.min(self.cols);
        (0..n).map(|i| self.data[i * self.cols + i]).collect()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Matrix-matrix product `self * rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out)?;
        Ok(out)
    }

    /// Matrix-matrix product `self * rhs` written into a caller-owned
    /// matrix — the allocation-free kernel behind [`Matrix::matmul`],
    /// for hot paths that multiply into the same scratch repeatedly.
    /// `out` is reshaped (reusing its buffer) and overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `self.cols() != rhs.rows()`.
    pub(crate) fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        out.reshape_in_place(self.rows, rhs.cols);
        out.data.fill(0.0);
        // i-k-j loop order keeps the inner loop contiguous in both operands.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.data[i * self.cols + k];
                if aik == 0.0 {
                    continue;
                }
                let rhs_row = &rhs.data[k * rhs.cols..(k + 1) * rhs.cols];
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &r) in out_row.iter_mut().zip(rhs_row) {
                    *o += aik * r;
                }
            }
        }
        Ok(())
    }

    /// Reshapes the matrix to `rows x cols`, reusing the existing
    /// allocation when it is large enough. Contents are unspecified
    /// afterwards; callers overwrite.
    fn reshape_in_place(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(x, &mut out)?;
        Ok(out)
    }

    /// Matrix-vector product `self * x` written into a borrowed output
    /// buffer — the allocation-free kernel behind [`Matrix::matvec`],
    /// for hot paths that solve against the same matrix repeatedly.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.cols()`
    /// or `out.len() != self.rows()`.
    pub fn matvec_into(&self, x: &[f64], out: &mut [f64]) -> Result<()> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        if out.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_into (output)",
                lhs: self.shape(),
                rhs: (out.len(), 1),
            });
        }
        // Rows in groups of ROW_GROUP, one accumulator each; the leftover
        // rows run `dot` itself. Every row sums exactly as `dot` does.
        const G: usize = vector::ROW_GROUP;
        let grouped = self.rows / G * G;
        let (head, tail) = out.split_at_mut(grouped);
        for (g, o) in head.chunks_exact_mut(G).enumerate() {
            let rows = &self.data[g * G * self.cols..];
            o.copy_from_slice(&vector::dot_rows::<G>(rows, self.cols, x));
        }
        for (i, o) in (grouped..).zip(tail) {
            *o = vector::dot(self.row(i), x);
        }
        Ok(())
    }

    /// Matrix–block product `self · X` for `k` right-hand sides at once.
    ///
    /// Blocks are stored row-major: `x` is `cols×k` and `out` is
    /// `rows×k`, with entry `i` of column `c` at `[i*k + c]`. Every
    /// column of `out` is **bit-identical** to [`Matrix::matvec_into`]
    /// on that column: the columns go in groups of 8, then 4, then 1,
    /// each copied into a contiguous `cols×W` panel (a block of exactly
    /// 8 or 4 columns is its own panel) and multiplied two rows at a
    /// time, with one register accumulator per row and column that sums
    /// over the row in index order from `vector::SUM_NEUTRAL`. `k = 1`
    /// runs [`Matrix::matvec_into`] itself.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != cols·k` or
    /// `out.len() != rows·k`.
    pub fn matvec_block_into(&self, x: &[f64], k: usize, out: &mut [f64]) -> Result<()> {
        if x.len() != self.cols * k {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_block",
                lhs: self.shape(),
                rhs: (x.len(), k),
            });
        }
        if out.len() != self.rows * k {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec_block_into (output)",
                lhs: self.shape(),
                rhs: (out.len(), k),
            });
        }
        if k == 1 {
            return self.matvec_into(x, out);
        }
        let mut panel = Vec::new();
        for (c0, width) in vector::column_groups(k) {
            match width {
                vector::WIDE => self.matvec_group::<{ vector::WIDE }>(x, k, c0, out, &mut panel),
                vector::NARROW => {
                    self.matvec_group::<{ vector::NARROW }>(x, k, c0, out, &mut panel)
                }
                _ => self.matvec_group::<1>(x, k, c0, out, &mut panel),
            }
        }
        Ok(())
    }

    /// Columns `c0..c0 + W` of [`Matrix::matvec_block_into`], through a
    /// packed panel unless the block is `W` wide.
    fn matvec_group<const W: usize>(
        &self,
        x: &[f64],
        k: usize,
        c0: usize,
        out: &mut [f64],
        panel: &mut Vec<f64>,
    ) {
        let x = if k == W {
            x
        } else {
            vector::pack_columns(x, k, c0, W, 0..self.cols, panel);
            panel
        };
        self.matvec_panel::<W>(x, |i, acc| {
            out[i * k + c0..i * k + c0 + W].copy_from_slice(&acc);
        });
    }

    /// `self · P` for a contiguous `cols×W` panel `P`, two rows at a
    /// time: hands each row index and its `W` dot products — each summed
    /// as [`vector::dot`] sums it — to `emit`, in row order.
    pub(crate) fn matvec_panel<const W: usize>(
        &self,
        panel: &[f64],
        mut emit: impl FnMut(usize, [f64; W]),
    ) {
        let paired = self.rows / 2 * 2;
        for i in (0..paired).step_by(2) {
            let [acc0, acc1] = vector::dot_panel::<2, W>([self.row(i), self.row(i + 1)], panel);
            emit(i, acc0);
            emit(i + 1, acc1);
        }
        if paired < self.rows {
            emit(
                paired,
                vector::dot_panel::<1, W>([self.row(paired)], panel)[0],
            );
        }
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn add_matrix(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if shapes differ.
    pub fn sub_matrix(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Matrix {
        self.map(|v| v * factor)
    }

    /// Applies `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Applies `f(row, col, value)` to every element, returning a new matrix.
    pub fn map_indexed(&self, mut f: impl FnMut(usize, usize, f64) -> f64) -> Matrix {
        let mut data = Vec::with_capacity(self.data.len());
        // `max(1)`: a matrix without columns has no elements to visit.
        for (i, row) in self.data.chunks_exact(self.cols.max(1)).enumerate() {
            data.extend(row.iter().enumerate().map(|(j, &v)| f(i, j, v)));
        }
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Maximum absolute element value (zero for a matrix of zeros).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Induced infinity norm (maximum absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.rows)
            .map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0_f64, f64::max)
    }

    /// Induced 1-norm (maximum absolute column sum).
    pub fn norm_one(&self) -> f64 {
        let mut sums = vec![0.0_f64; self.cols];
        for i in 0..self.rows {
            for (s, &v) in sums.iter_mut().zip(self.row(i)) {
                *s += v.abs();
            }
        }
        sums.into_iter().fold(0.0, f64::max)
    }

    /// Extracts the sub-matrix starting at `(row0, col0)` with shape
    /// `(rows, cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the block exceeds the
    /// matrix bounds or is empty.
    pub fn block(&self, row0: usize, col0: usize, rows: usize, cols: usize) -> Result<Matrix> {
        if rows == 0 || cols == 0 {
            return Err(LinalgError::invalid("block must be non-empty"));
        }
        if row0 + rows > self.rows || col0 + cols > self.cols {
            return Err(LinalgError::invalid(format!(
                "block ({row0},{col0})+{rows}x{cols} exceeds matrix {}x{}",
                self.rows, self.cols
            )));
        }
        let mut out = Matrix::zeros(rows, cols);
        for i in 0..rows {
            let src =
                &self.data[(row0 + i) * self.cols + col0..(row0 + i) * self.cols + col0 + cols];
            out.data[i * cols..(i + 1) * cols].copy_from_slice(src);
        }
        Ok(out)
    }

    /// Overwrites the sub-matrix starting at `(row0, col0)` with `block`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if the block exceeds the
    /// matrix bounds.
    pub fn set_block(&mut self, row0: usize, col0: usize, block: &Matrix) -> Result<()> {
        if row0 + block.rows > self.rows || col0 + block.cols > self.cols {
            return Err(LinalgError::invalid(format!(
                "block ({row0},{col0})+{}x{} exceeds matrix {}x{}",
                block.rows, block.cols, self.rows, self.cols
            )));
        }
        for i in 0..block.rows {
            let dst_start = (row0 + i) * self.cols + col0;
            self.data[dst_start..dst_start + block.cols]
                .copy_from_slice(&block.data[i * block.cols..(i + 1) * block.cols]);
        }
        Ok(())
    }

    /// Assembles a 2x2 block matrix `[[a, b], [c, d]]`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if the blocks do not tile.
    pub fn from_blocks(a: &Matrix, b: &Matrix, c: &Matrix, d: &Matrix) -> Result<Matrix> {
        if a.rows != b.rows || c.rows != d.rows || a.cols != c.cols || b.cols != d.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "from_blocks",
                lhs: a.shape(),
                rhs: d.shape(),
            });
        }
        let rows = a.rows + c.rows;
        let cols = a.cols + b.cols;
        let mut out = Matrix::zeros(rows, cols);
        out.set_block(0, 0, a)?;
        out.set_block(0, a.cols, b)?;
        out.set_block(a.rows, 0, c)?;
        out.set_block(a.rows, a.cols, d)?;
        Ok(out)
    }

    /// Splits the matrix into the element-wise positive and negative parts so
    /// that `self = positive - negative`, with both parts non-negative.
    ///
    /// This is the decomposition used to map signed matrices onto two
    /// crossbar arrays (device conductances are physically non-negative).
    pub fn split_signs(&self) -> (Matrix, Matrix) {
        let pos = self.map(|v| if v > 0.0 { v } else { 0.0 });
        let neg = self.map(|v| if v < 0.0 { -v } else { 0.0 });
        (pos, neg)
    }

    /// Returns `true` if every element is exactly zero.
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0.0)
    }

    /// Returns `true` if all elements differ from `other` by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Returns `true` if the matrix is strictly diagonally dominant.
    pub fn is_diagonally_dominant(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        (0..self.rows).all(|i| {
            let row = self.row(i);
            let off: f64 = row
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, v)| v.abs())
                .sum();
            row[i].abs() > off
        })
    }

    /// A fast, deterministic 64-bit content hash of the matrix: FNV-1a
    /// over the dimensions followed by the IEEE-754 bit pattern of every
    /// element in row-major order.
    ///
    /// Two matrices have equal fingerprints exactly when they have equal
    /// shape and **bitwise**-equal entries (so `0.0` and `-0.0` differ,
    /// and any `NaN` payload is hashed as-is). The fingerprint is stable
    /// across clones, processes, and platforms — it depends only on the
    /// logical content — which is what lets it serve as the matrix
    /// component of a cross-process cache key (`amc-serve` keys its
    /// prepared-solver cache on it). Collisions are possible in
    /// principle (it is a 64-bit hash, not cryptographic); callers that
    /// treat equal fingerprints as equal matrices accept that ~2⁻⁶⁴
    /// ambiguity by design.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        fn eat(mut h: u64, bytes: &[u8]) -> u64 {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
            h
        }
        let mut h = FNV_OFFSET;
        h = eat(h, &(self.rows as u64).to_le_bytes());
        h = eat(h, &(self.cols as u64).to_le_bytes());
        for &v in &self.data {
            h = eat(h, &v.to_bits().to_le_bytes());
        }
        h
    }

    /// Returns `true` if the matrix equals its transpose within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self.data[i * self.cols + j] - self.data[j * self.cols + i]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (row, col): (usize, usize)) -> &f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &self.data[row * self.cols + col]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut f64 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        &mut self.data[row * self.cols + col]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Matrix::add_matrix`] for a fallible
    /// version.
    fn add(self, rhs: &Matrix) -> Matrix {
        self.add_matrix(rhs)
            .expect("matrix addition shape mismatch")
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the shapes differ; use [`Matrix::sub_matrix`] for a fallible
    /// version.
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.sub_matrix(rhs)
            .expect("matrix subtraction shape mismatch")
    }
}

impl Mul<&Matrix> for &Matrix {
    type Output = Matrix;

    /// # Panics
    ///
    /// Panics if the shapes are incompatible; use [`Matrix::matmul`] for a
    /// fallible version.
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
            .expect("matrix multiplication shape mismatch")
    }
}

impl Neg for &Matrix {
    type Output = Matrix;

    fn neg(self) -> Matrix {
        self.scaled(-1.0)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for i in 0..self.rows.min(max_rows) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(max_rows) {
                write!(f, "{:>12.5e} ", self.data[i * self.cols + j])?;
            }
            if self.cols > max_rows {
                write!(f, "…")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.is_zero());

        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.diag(), vec![1.0, 1.0, 1.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn from_rows_validates_ragged_input() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
        assert!(err.is_err());
        assert!(Matrix::from_rows(&[]).is_err());
    }

    #[test]
    fn indexing_and_rows() {
        let m = sample();
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
        assert_eq!(m.get(5, 0), None);
    }

    #[test]
    fn fingerprint_is_stable_across_clones_and_rebuilds() {
        let m = sample();
        let clone = m.clone();
        assert_eq!(m.fingerprint(), clone.fingerprint());
        // Content-equal but independently constructed: same fingerprint.
        let rebuilt = Matrix::from_vec(2, 3, m.as_slice().to_vec()).unwrap();
        assert_eq!(m.fingerprint(), rebuilt.fingerprint());
    }

    #[test]
    fn fingerprint_is_sensitive_to_any_single_entry_and_to_shape() {
        let m = sample();
        let fp = m.fingerprint();
        for i in 0..m.rows() {
            for j in 0..m.cols() {
                let mut tweaked = m.clone();
                tweaked.set(i, j, m[(i, j)] + 1e-12);
                assert_ne!(tweaked.fingerprint(), fp, "entry ({i},{j})");
            }
        }
        // Bitwise sensitivity: -0.0 and 0.0 are different contents.
        let z = Matrix::zeros(2, 2);
        let mut nz = Matrix::zeros(2, 2);
        nz.set(0, 0, -0.0);
        assert_ne!(z.fingerprint(), nz.fingerprint());
        // Same data, different shape.
        let flat = Matrix::from_vec(1, 6, m.as_slice().to_vec()).unwrap();
        assert_ne!(flat.fingerprint(), fp);
        // Pinned value: the fingerprint is part of the amc-serve wire
        // contract, so a change here is a protocol break, not a detail.
        assert_eq!(Matrix::identity(2).fingerprint(), 0x3626_6942_fcc0_d345);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_into_reuses_scratch_and_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        // Stale shape and contents: matmul_into must reshape + overwrite.
        let mut scratch = Matrix::from_fn(3, 1, |_, _| 42.0);
        a.matmul_into(&b, &mut scratch).unwrap();
        assert_eq!(scratch, a.matmul(&b).unwrap());
        // A second product into the same scratch reuses the allocation.
        b.matmul_into(&a, &mut scratch).unwrap();
        assert_eq!(scratch, b.matmul(&a).unwrap());
        assert!(a.matmul_into(&Matrix::zeros(3, 2), &mut scratch).is_err());
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn matvec_and_transposed() {
        let m = sample();
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]).unwrap(), vec![-2.0, -2.0]);
        let mut buf = [0.0; 2];
        m.matvec_into(&[1.0, 0.0, -1.0], &mut buf).unwrap();
        assert_eq!(buf, [-2.0, -2.0]);
        assert!(m.matvec_into(&[1.0, 0.0, -1.0], &mut [0.0; 3]).is_err());
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn block_extraction_and_composition() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let a = m.block(0, 0, 2, 2).unwrap();
        let b = m.block(0, 2, 2, 2).unwrap();
        let c = m.block(2, 0, 2, 2).unwrap();
        let d = m.block(2, 2, 2, 2).unwrap();
        let re = Matrix::from_blocks(&a, &b, &c, &d).unwrap();
        assert_eq!(re, m);
        assert!(m.block(3, 3, 2, 2).is_err());
        assert!(m.block(0, 0, 0, 1).is_err());
    }

    #[test]
    fn set_block_rejects_out_of_bounds() {
        let mut m = Matrix::zeros(3, 3);
        let b = Matrix::identity(2);
        m.set_block(1, 1, &b).unwrap();
        assert_eq!(m[(1, 1)], 1.0);
        assert_eq!(m[(2, 2)], 1.0);
        assert!(m.set_block(2, 2, &b).is_err());
    }

    #[test]
    fn sign_split_reconstructs() {
        let m = Matrix::from_rows(&[&[1.0, -2.0], &[0.0, 3.5]]).unwrap();
        let (p, n) = m.split_signs();
        assert!(p.as_slice().iter().all(|&v| v >= 0.0));
        assert!(n.as_slice().iter().all(|&v| v >= 0.0));
        assert_eq!(&p - &n, m);
    }

    #[test]
    fn norms() {
        let m = Matrix::from_rows(&[&[3.0, -4.0], &[0.0, 0.0]]).unwrap();
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.norm_inf(), 7.0);
        assert_eq!(m.norm_one(), 4.0);
    }

    #[test]
    fn predicates() {
        let dd = Matrix::from_rows(&[&[4.0, 1.0], &[-1.0, 3.0]]).unwrap();
        assert!(dd.is_diagonally_dominant());
        let not_dd = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(!not_dd.is_diagonally_dominant());

        let sym = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        assert!(sym.is_symmetric(0.0));
        assert!(!sample().is_symmetric(0.0));
    }

    #[test]
    fn operators() {
        let a = Matrix::identity(2);
        let b = Matrix::filled(2, 2, 1.0);
        let s = &a + &b;
        assert_eq!(s[(0, 0)], 2.0);
        let d = &s - &b;
        assert_eq!(d, a);
        let n = -&a;
        assert_eq!(n[(1, 1)], -1.0);
        let p = &a * &b;
        assert_eq!(p, b);
    }

    #[test]
    fn display_is_nonempty() {
        let text = sample().to_string();
        assert!(text.contains("Matrix 2x3"));
    }

    #[test]
    fn map_indexed_sees_coordinates() {
        let m = Matrix::zeros(2, 2).map_indexed(|i, j, _| (i * 10 + j) as f64);
        assert_eq!(m[(1, 1)], 11.0);
    }

    #[test]
    fn matvec_into_matches_per_row_dot_bit_for_bit() {
        // Every shape up to 40×40, so every row count modulo the row
        // group appears. Each row carries a -0.0; one input is all signed
        // zeros, and three matrices carry a +∞, a -∞ or a NaN.
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(40);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut out = Vec::new();
        for rows in 0..=40 {
            for cols in 0..=40 {
                let mut data = crate::generate::random_vector(rows * cols, &mut rng);
                for (i, row) in data.chunks_exact_mut(cols.max(1)).enumerate() {
                    row[i % cols] = -0.0;
                }
                let random = crate::generate::random_vector(cols, &mut rng);
                let zeros: Vec<f64> = (0..cols)
                    .map(|j| if j % 5 == 0 { 0.0 } else { -0.0 })
                    .collect();
                let mut cases = vec![(data.clone(), random.clone()), (data.clone(), zeros)];
                if !data.is_empty() {
                    for special in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
                        let mut salted = data.clone();
                        salted[(rows * cols) / 2] = special;
                        cases.push((salted, random.clone()));
                    }
                }
                for (data, x) in cases {
                    let m = Matrix::from_vec(rows, cols, data).unwrap();
                    out.resize(rows, f64::NAN);
                    m.matvec_into(&x, &mut out).unwrap();
                    let want: Vec<f64> = (0..rows).map(|i| vector::dot(m.row(i), &x)).collect();
                    assert_eq!(bits(&out), bits(&want), "{rows}x{cols}");
                }
            }
        }
    }

    #[test]
    fn map_indexed_keeps_shape_on_empty_matrices() {
        for (rows, cols) in [(0, 0), (0, 3), (3, 0)] {
            let m = Matrix::zeros(rows, cols).map_indexed(|_, _, v| v + 1.0);
            assert_eq!(m.shape(), (rows, cols));
        }
    }
}
