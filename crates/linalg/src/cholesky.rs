//! Cholesky factorization for symmetric positive-definite matrices.
//!
//! Wishart matrices — one of the paper's two benchmark families — are SPD by
//! construction, so the quickest exact baseline for them is a Cholesky
//! solve. The factorization is also used by tests to verify SPD-ness of
//! generated workloads.

use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L·Lᵀ` with `L` lower triangular.
///
/// # Example
///
/// ```
/// use amc_linalg::{Matrix, cholesky::CholeskyFactor};
///
/// # fn main() -> Result<(), amc_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]])?;
/// let chol = CholeskyFactor::new(&a)?;
/// let x = chol.solve(&[8.0, 7.0])?;
/// let b = a.matvec(&x)?;
/// assert!((b[0] - 8.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    l: Matrix,
}

impl CholeskyFactor {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; symmetry is assumed, not
    /// checked (use [`Matrix::is_symmetric`] beforehand if unsure).
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NonSquare`] if `a` is not square.
    /// * [`LinalgError::NotPositiveDefinite`] if a pivot is non-positive.
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
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LinalgError::NotPositiveDefinite { index: i });
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(CholeskyFactor { l })
    }

    /// Matrix dimension.
    pub(crate) fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `A·x = b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len()` differs from the
    /// matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        // L·y = b
        let mut x = b.to_vec();
        for i in 0..n {
            let mut sum = x[i];
            for (j, &xj) in x.iter().enumerate().take(i) {
                sum -= self.l[(i, j)] * xj;
            }
            x[i] = sum / self.l[(i, i)];
        }
        // Lᵀ·x = y
        for i in (0..n).rev() {
            let mut sum = x[i];
            for (j, &xj) in x.iter().enumerate().take(n).skip(i + 1) {
                sum -= self.l[(j, i)] * xj;
            }
            x[i] = sum / self.l[(i, i)];
        }
        Ok(x)
    }
}

/// Returns `true` if `a` is symmetric positive definite (checks symmetry to
/// `sym_tol`, then attempts a Cholesky factorization).
pub fn is_spd(a: &Matrix, sym_tol: f64) -> bool {
    a.is_symmetric(sym_tol) && CholeskyFactor::new(a).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    fn spd_sample() -> Matrix {
        Matrix::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]).unwrap()
    }

    #[test]
    fn factor_matches_known_result() {
        let chol = CholeskyFactor::new(&spd_sample()).unwrap();
        let expected =
            Matrix::from_rows(&[&[5.0, 0.0, 0.0], &[3.0, 3.0, 0.0], &[-1.0, 1.0, 3.0]]).unwrap();
        assert!(chol.l.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn l_lt_reconstructs_a() {
        let a = spd_sample();
        let chol = CholeskyFactor::new(&a).unwrap();
        let back = chol.l.matmul(&chol.l.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn solve_roundtrip() {
        let a = spd_sample();
        let chol = CholeskyFactor::new(&a).unwrap();
        let x_true = [1.0, 2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = chol.solve(&b).unwrap();
        assert!(vector::approx_eq(&x, &x_true, 1e-12));
        assert!(chol.solve(&[1.0]).is_err());
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        assert!(matches!(
            CholeskyFactor::new(&a),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn rejects_non_square() {
        assert!(CholeskyFactor::new(&Matrix::zeros(2, 3)).is_err());
        assert!(CholeskyFactor::new(&Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn spd_predicate() {
        assert!(is_spd(&spd_sample(), 0.0));
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(!is_spd(&asym, 1e-12));
    }
}
