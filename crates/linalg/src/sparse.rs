//! Compressed sparse row (CSR) matrices.
//!
//! The circuit crate assembles modified-nodal-analysis systems for crossbar
//! interconnect grids; those systems have ~5 entries per row, so CSR plus
//! the iterative solvers in [`crate::iterative`] keep the exact grid model
//! tractable.

use crate::{LinalgError, Matrix, Result};

/// A sparse matrix in compressed sparse row format.
///
/// # Example
///
/// ```
/// use amc_linalg::sparse::CsrMatrix;
///
/// # fn main() -> Result<(), amc_linalg::LinalgError> {
/// let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 2.0), (1, 1, 3.0), (0, 1, 1.0)])?;
/// assert_eq!(m.matvec(&[1.0, 1.0])?, vec![3.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    /// Row pointer array of length `nrows + 1`.
    indptr: Vec<usize>,
    /// Column indices, sorted within each row.
    indices: Vec<usize>,
    /// Non-zero values aligned with `indices`.
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from `(row, col, value)` triplets.
    ///
    /// Duplicate entries are summed; explicit zeros that result from
    /// summation are kept (harmless for the iterative solvers).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if any index is out of
    /// bounds or the matrix is empty.
    pub fn from_triplets(
        nrows: usize,
        ncols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        if nrows == 0 || ncols == 0 {
            return Err(LinalgError::invalid("matrix must be non-empty"));
        }
        for &(r, c, _) in triplets {
            if r >= nrows || c >= ncols {
                return Err(LinalgError::invalid(format!(
                    "triplet ({r},{c}) out of bounds for {nrows}x{ncols}"
                )));
            }
        }
        // Count entries per row (before dedup).
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|a| (a.0, a.1));

        let mut indptr = vec![0usize; nrows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        let mut iter = sorted.into_iter().peekable();
        while let Some((r, c, mut v)) = iter.next() {
            while let Some(&(r2, c2, v2)) = iter.peek() {
                if r2 == r && c2 == c {
                    v += v2;
                    iter.next();
                } else {
                    break;
                }
            }
            indices.push(c);
            values.push(v);
            indptr[r + 1] += 1;
        }
        for i in 0..nrows {
            indptr[i + 1] += indptr[i];
        }
        Ok(CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        })
    }

    /// Builds a CSR matrix from a dense matrix, dropping exact zeros.
    pub fn from_dense(m: &Matrix) -> Self {
        let mut triplets = Vec::new();
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    triplets.push((i, j, v));
                }
            }
        }
        // from_triplets cannot fail here: indices are in bounds by
        // construction and the matrix is non-empty.
        CsrMatrix::from_triplets(m.rows().max(1), m.cols().max(1), &triplets)
            .expect("dense conversion produced invalid triplets")
    }

    /// Number of rows.
    pub(crate) fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub(crate) fn ncols(&self) -> usize {
        self.ncols
    }

    /// Returns the stored entry at `(row, col)`, or `0.0` if absent.
    pub(crate) fn get(&self, row: usize, col: usize) -> f64 {
        if row >= self.nrows {
            return 0.0;
        }
        let start = self.indptr[row];
        let end = self.indptr[row + 1];
        match self.indices[start..end].binary_search(&col) {
            Ok(pos) => self.values[start + pos],
            Err(_) => 0.0,
        }
    }

    /// Borrows the column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.nrows()`.
    pub(crate) fn row_entries(&self, i: usize) -> (&[usize], &[f64]) {
        assert!(i < self.nrows, "row index out of bounds");
        let start = self.indptr[i];
        let end = self.indptr[i + 1];
        (&self.indices[start..end], &self.values[start..end])
    }

    /// Iterates over `(row, col, value)` of all stored entries.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let start = self.indptr[r];
            let end = self.indptr[r + 1];
            self.indices[start..end]
                .iter()
                .zip(&self.values[start..end])
                .map(move |(&c, &v)| (r, c, v))
        })
    }

    /// Sparse matrix-vector product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `x.len() != self.ncols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.ncols {
            return Err(LinalgError::ShapeMismatch {
                op: "csr_matvec",
                lhs: (self.nrows, self.ncols),
                rhs: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.nrows];
        for (r, o) in out.iter_mut().enumerate() {
            let start = self.indptr[r];
            let end = self.indptr[r + 1];
            *o = self.indices[start..end]
                .iter()
                .zip(&self.values[start..end])
                .map(|(&c, &v)| v * x[c])
                .sum();
        }
        Ok(out)
    }

    /// Extracts the main diagonal (missing entries are `0.0`).
    pub(crate) fn diag(&self) -> Vec<f64> {
        (0..self.nrows.min(self.ncols))
            .map(|i| self.get(i, i))
            .collect()
    }

    /// Converts to a dense [`Matrix`] (intended for tests / small systems).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            m[(r, c)] += v;
        }
        m
    }

    /// Returns the transposed matrix.
    pub(crate) fn transpose(&self) -> CsrMatrix {
        let triplets: Vec<(usize, usize, f64)> = self.iter().map(|(r, c, v)| (c, r, v)).collect();
        CsrMatrix::from_triplets(self.ncols, self.nrows, &triplets)
            .expect("transpose produced invalid triplets")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 4.0),
                (0, 2, 1.0),
                (1, 1, 5.0),
                (2, 0, 2.0),
                (2, 2, 3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_access() {
        let m = sample();
        assert_eq!(m.values.len(), 5);
        assert_eq!(m.get(0, 0), 4.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.get(2, 2), 3.0);
        assert_eq!(m.get(9, 9), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0)]).unwrap();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.values.len(), 1);
    }

    #[test]
    fn out_of_bounds_triplets_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(0, 2, &[]).is_err());
    }

    #[test]
    fn matvec_matches_dense() {
        let m = sample();
        let d = m.to_dense();
        let x = [1.0, -2.0, 0.5];
        assert_eq!(m.matvec(&x).unwrap(), d.matvec(&x).unwrap());
        assert!(m.matvec(&[1.0]).is_err());
    }

    #[test]
    fn dense_roundtrip() {
        let d = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, -2.0]]).unwrap();
        let s = CsrMatrix::from_dense(&d);
        assert_eq!(s.values.len(), 2);
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn diag_extraction() {
        assert_eq!(sample().diag(), vec![4.0, 5.0, 3.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(0, 2), 2.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn iter_yields_sorted_entries() {
        let entries: Vec<_> = sample().iter().collect();
        assert_eq!(entries[0], (0, 0, 4.0));
        assert_eq!(entries.len(), 5);
        let mut sorted = entries.clone();
        sorted.sort_by_key(|a| (a.0, a.1));
        assert_eq!(entries, sorted);
    }
}
