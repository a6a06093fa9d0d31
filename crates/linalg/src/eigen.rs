//! Symmetric eigensolver (cyclic Jacobi rotations) and spectral helpers.
//!
//! The INV circuit's stability and settling time are governed by the
//! spectrum of the mapped matrix (Sun et al., T-ED 2020): all eigenvalues
//! of the (symmetrized) normalized matrix must be positive for the
//! feedback loop to converge, and the smallest one sets the time
//! constant. This module provides a dependable dense symmetric
//! eigensolver for those analyses, plus convenience spectral queries used
//! by the split-search optimizer in `blockamc`.

use crate::{LinalgError, Matrix, Result};

/// Full eigendecomposition of a symmetric matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, column `k` pairing with `values[k]`.
    pub vectors: Matrix,
}

/// Computes all eigenvalues/eigenvectors of a symmetric matrix with the
/// cyclic Jacobi method.
///
/// Robust and simple — O(n³) per sweep with typically 6–10 sweeps — which
/// is plenty for the ≤ 512-sized spectral diagnostics this workspace
/// runs.
///
/// # Errors
///
/// * [`LinalgError::NonSquare`] if `a` is not square.
/// * [`LinalgError::InvalidArgument`] if `a` is empty or not symmetric to
///   `1e-9·max|a|`.
/// * [`LinalgError::ConvergenceFailure`] if the off-diagonal mass does not
///   vanish within 50 sweeps (does not happen for finite symmetric input).
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    if !a.is_square() {
        return Err(LinalgError::NonSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    if n == 0 {
        return Err(LinalgError::invalid("cannot decompose an empty matrix"));
    }
    let scale = a.max_abs();
    if !a.is_symmetric(1e-9 * scale.max(1.0)) {
        return Err(LinalgError::invalid(
            "jacobi eigensolver requires a symmetric matrix",
        ));
    }
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-14 * scale.max(f64::MIN_POSITIVE);

    for _sweep in 0..50 {
        let mut off = 0.0_f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(m[(i, j)].abs());
            }
        }
        if off <= tol {
            let mut pairs: Vec<(f64, usize)> = (0..n).map(|k| (m[(k, k)], k)).collect();
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let values: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
            let mut vectors = Matrix::zeros(n, n);
            for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
                for r in 0..n {
                    vectors[(r, new_col)] = v[(r, old_col)];
                }
            }
            return Ok(SymmetricEigen { values, vectors });
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol {
                    continue;
                }
                // Classic Jacobi rotation annihilating (p, q).
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Update rows/columns p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(LinalgError::ConvergenceFailure {
        iterations: 50,
        residual: f64::NAN,
        tolerance: tol,
    })
}

/// Spectral condition number `|λ|_max / |λ|_min` of a symmetric matrix.
///
/// Returns `f64::INFINITY` for a singular matrix.
///
/// # Errors
///
/// Same conditions as [`symmetric_eigen`].
fn spectral_condition(a: &Matrix) -> Result<f64> {
    let e = symmetric_eigen(a)?;
    let abs_min = e
        .values
        .iter()
        .map(|v| v.abs())
        .fold(f64::INFINITY, f64::min);
    let abs_max = e.values.iter().map(|v| v.abs()).fold(0.0_f64, f64::max);
    if abs_min == 0.0 {
        Ok(f64::INFINITY)
    } else {
        Ok(abs_max / abs_min)
    }
}

/// Condition proxy for a general square matrix: the spectral condition of
/// its symmetric part — cheap and adequate for ranking alternative block
/// splits (the BlockAMC split-search use case).
///
/// # Errors
///
/// Propagates [`symmetric_eigen`] failures.
pub fn symmetric_part_condition(a: &Matrix) -> Result<f64> {
    if !a.is_square() {
        return Err(LinalgError::NonSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    // Fused symmetrization: one pass and one allocation instead of the
    // transpose + add + scale chain (three temporaries). The split-search
    // optimizer calls this once per candidate split, so it is hot.
    let sym = Matrix::from_fn(a.rows(), a.rows(), |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    spectral_condition(&sym)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.values, vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_2x2_spectrum() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3 with vectors (1,∓1)/√2.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        // Eigenvector check: A·v = λ·v.
        for k in 0..2 {
            let v: Vec<f64> = (0..2).map(|r| e.vectors[(r, k)]).collect();
            let av = a.matvec(&v).unwrap();
            for i in 0..2 {
                assert!((av[i] - e.values[k] * v[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = generate::wishart_default(12, &mut rng).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        // VᵀV = I, with the product chain run through the scratch-reusing
        // GEMM entry point.
        let mut scratch = Matrix::zeros(1, 1);
        e.vectors
            .transpose()
            .matmul_into(&e.vectors, &mut scratch)
            .unwrap();
        assert!(scratch.approx_eq(&Matrix::identity(12), 1e-10));
        // V·Λ·Vᵀ = A.
        let lambda = Matrix::from_diag(&e.values);
        e.vectors.matmul_into(&lambda, &mut scratch).unwrap();
        let back = scratch.matmul(&e.vectors.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-9 * a.max_abs()));
        // Values ascend.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn spd_matrices_have_positive_spectrum() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = generate::random_spd_toeplitz(16, 8, 0.02, &mut rng).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let (lo, hi) = (e.values[0], e.values[e.values.len() - 1]);
        assert!(lo > 0.0);
        assert!(hi >= lo);
    }

    #[test]
    fn condition_number_matches_diagonal_case() {
        let a = Matrix::from_diag(&[10.0, 0.1, 1.0]);
        assert!((spectral_condition(&a).unwrap() - 100.0).abs() < 1e-9);
        let singular = Matrix::from_diag(&[1.0, 0.0]);
        assert_eq!(spectral_condition(&singular).unwrap(), f64::INFINITY);
    }

    #[test]
    fn rejects_asymmetric_and_non_square() {
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(symmetric_eigen(&asym).is_err());
        assert!(symmetric_eigen(&Matrix::zeros(2, 3)).is_err());
        // But the symmetric-part proxy accepts it.
        assert!(symmetric_part_condition(&asym).is_ok());
    }

    #[test]
    fn agrees_with_inverse_iteration_estimate() {
        // Cross-check against the independent λ_min estimator in the
        // circuit crate's style: smallest |eigenvalue| via this solver.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = generate::wishart_default(10, &mut rng).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let lu = crate::lu::LuFactor::new(&a).unwrap();
        let cond_est = lu.cond_estimate(a.norm_one());
        let cond_true = e.values.last().unwrap() / e.values.first().unwrap();
        // The 1-norm estimate should be within a modest factor of truth.
        assert!(
            cond_est > cond_true * 0.1 && cond_est < cond_true * 10.0,
            "estimate {cond_est} vs true {cond_true}"
        );
    }
}
