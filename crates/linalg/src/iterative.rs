//! Iterative solvers and preconditioners.
//!
//! Two consumers exist in this workspace:
//!
//! 1. The exact interconnect grid model in `amc-circuit` solves large sparse
//!    SPD systems (resistive-network Laplacians) with [`conjugate_gradient`].
//! 2. The "AMC as seed/preconditioner" experiments (paper §IV: AMC
//!    "provide\[s\] a seed solution … to speed up the convergence of iterative
//!    algorithms") warm-start [`conjugate_gradient`] from an analog solution
//!    and count how many digital iterations the seed saves.

use crate::sparse::CsrMatrix;
use crate::vector::{axpy, dot, norm2};
use crate::{LinalgError, Result};

/// Outcome of an iterative solve.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationReport {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Final residual 2-norm.
    pub residual: f64,
}

/// A (left) preconditioner: given `r`, returns `M⁻¹·r`.
pub trait Preconditioner {
    /// Applies the preconditioner to a residual vector.
    fn apply(&self, r: &[f64]) -> Vec<f64>;
}

/// Identity preconditioner (no-op).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdentityPrecond;

impl Preconditioner for IdentityPrecond {
    fn apply(&self, r: &[f64]) -> Vec<f64> {
        r.to_vec()
    }
}

/// Jacobi (diagonal) preconditioner.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Builds the preconditioner from the matrix diagonal.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::InvalidArgument`] if any diagonal entry is
    /// zero (the preconditioner would be singular).
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        let diag = a.diag();
        if diag.contains(&0.0) {
            return Err(LinalgError::invalid(
                "jacobi preconditioner requires a non-zero diagonal",
            ));
        }
        Ok(JacobiPrecond {
            inv_diag: diag.into_iter().map(|d| 1.0 / d).collect(),
        })
    }
}

impl Preconditioner for JacobiPrecond {
    fn apply(&self, r: &[f64]) -> Vec<f64> {
        r.iter()
            .zip(&self.inv_diag)
            .map(|(&ri, &di)| ri * di)
            .collect()
    }
}

/// Options controlling an iterative solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterOptions {
    /// Maximum iterations before reporting failure.
    pub max_iterations: usize,
    /// Relative residual tolerance `‖r‖ / ‖b‖`.
    pub tolerance: f64,
}

impl Default for IterOptions {
    fn default() -> Self {
        IterOptions {
            max_iterations: 10_000,
            tolerance: 1e-10,
        }
    }
}

fn check_system(a: &CsrMatrix, b: &[f64], x0: Option<&[f64]>) -> Result<()> {
    if a.nrows() != a.ncols() {
        return Err(LinalgError::NonSquare {
            rows: a.nrows(),
            cols: a.ncols(),
        });
    }
    if b.len() != a.nrows() {
        return Err(LinalgError::ShapeMismatch {
            op: "iterative_solve",
            lhs: (a.nrows(), a.ncols()),
            rhs: (b.len(), 1),
        });
    }
    if let Some(x0) = x0 {
        if x0.len() != b.len() {
            return Err(LinalgError::ShapeMismatch {
                op: "iterative_solve_x0",
                lhs: (b.len(), 1),
                rhs: (x0.len(), 1),
            });
        }
    }
    Ok(())
}

/// Preconditioned conjugate gradient for symmetric positive-definite systems.
///
/// # Errors
///
/// * Shape errors for mismatched inputs.
/// * [`LinalgError::ConvergenceFailure`] if `opts.max_iterations` is reached.
///
/// # Example
///
/// ```
/// use amc_linalg::sparse::CsrMatrix;
/// use amc_linalg::iterative::{conjugate_gradient, IdentityPrecond, IterOptions};
///
/// # fn main() -> Result<(), amc_linalg::LinalgError> {
/// let a = CsrMatrix::from_triplets(2, 2, &[(0, 0, 4.0), (1, 1, 2.0)])?;
/// let report = conjugate_gradient(&a, &[4.0, 2.0], None, &IdentityPrecond, IterOptions::default())?;
/// assert!((report.x[0] - 1.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn conjugate_gradient<P: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    precond: &P,
    opts: IterOptions,
) -> Result<IterationReport> {
    check_system(a, b, x0)?;
    let n = b.len();
    let mut x = x0.map(<[f64]>::to_vec).unwrap_or_else(|| vec![0.0; n]);
    let ax = a.matvec(&x)?;
    let mut r = crate::vector::sub(b, &ax);
    let norm_b = norm2(b).max(f64::MIN_POSITIVE);
    if norm2(&r) / norm_b <= opts.tolerance {
        let residual = norm2(&r);
        return Ok(IterationReport {
            x,
            iterations: 0,
            residual,
        });
    }
    let mut z = precond.apply(&r);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    for it in 1..=opts.max_iterations {
        let ap = a.matvec(&p)?;
        let pap = dot(&p, &ap);
        if pap == 0.0 {
            return Err(LinalgError::ConvergenceFailure {
                iterations: it,
                residual: norm2(&r),
                tolerance: opts.tolerance,
            });
        }
        let alpha = rz / pap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);
        let res = norm2(&r);
        if res / norm_b <= opts.tolerance {
            return Ok(IterationReport {
                x,
                iterations: it,
                residual: res,
            });
        }
        z = precond.apply(&r);
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for (pi, &zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }
    Err(LinalgError::ConvergenceFailure {
        iterations: opts.max_iterations,
        residual: norm2(&r),
        tolerance: opts.tolerance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    /// 1-D Poisson (tridiagonal SPD) matrix of size n.
    fn poisson(n: usize) -> CsrMatrix {
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 2.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        CsrMatrix::from_triplets(n, n, &t).unwrap()
    }

    #[test]
    fn cg_solves_poisson() {
        let n = 50;
        let a = poisson(n);
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let b = a.matvec(&x_true).unwrap();
        let rep =
            conjugate_gradient(&a, &b, None, &IdentityPrecond, IterOptions::default()).unwrap();
        assert!(vector::approx_eq(&rep.x, &x_true, 1e-7));
        assert!(rep.iterations <= n + 1);
    }

    #[test]
    fn jacobi_precond_reduces_iterations_on_scaled_system() {
        // Badly scaled diagonal: plain CG struggles, Jacobi fixes scaling.
        let n = 40;
        let mut t = Vec::new();
        for i in 0..n {
            let s = 10f64.powi((i % 5) as i32);
            t.push((i, i, 2.0 * s));
            if i > 0 {
                t.push((i, i - 1, -0.5));
            }
            if i + 1 < n {
                t.push((i, i + 1, -0.5));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let b = vec![1.0; n];
        let plain =
            conjugate_gradient(&a, &b, None, &IdentityPrecond, IterOptions::default()).unwrap();
        let jacobi = JacobiPrecond::new(&a).unwrap();
        let pre = conjugate_gradient(&a, &b, None, &jacobi, IterOptions::default()).unwrap();
        assert!(pre.iterations <= plain.iterations);
    }

    #[test]
    fn jacobi_rejects_zero_diagonal() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(JacobiPrecond::new(&a).is_err());
    }

    #[test]
    fn warm_start_reduces_cg_iterations() {
        // Well-conditioned system (diag 4, off-diag -1): CG converges at its
        // asymptotic rate well before the exact-termination bound of n
        // iterations, so a good initial guess saves iterations. (On the
        // Poisson matrix both cold and warm start hit the n-iteration exact
        // termination, which is why that matrix is not used here.)
        let n = 80;
        let mut t = Vec::new();
        for i in 0..n {
            t.push((i, i, 4.0));
            if i > 0 {
                t.push((i, i - 1, -1.0));
            }
            if i + 1 < n {
                t.push((i, i + 1, -1.0));
            }
        }
        let a = CsrMatrix::from_triplets(n, n, &t).unwrap();
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 / 9.0).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let cold =
            conjugate_gradient(&a, &b, None, &IdentityPrecond, IterOptions::default()).unwrap();
        // Seed close to the answer, perturbed non-uniformly so the initial
        // residual is not parallel to b — like a noisy AMC seed solution.
        let mut seed: Vec<f64> = x_true.iter().map(|v| v * (1.0 + 1e-6)).collect();
        seed[0] += 1e-6;
        let warm = conjugate_gradient(
            &a,
            &b,
            Some(&seed),
            &IdentityPrecond,
            IterOptions::default(),
        )
        .unwrap();
        assert!(
            warm.iterations < cold.iterations,
            "warm {} vs cold {}",
            warm.iterations,
            cold.iterations
        );
    }

    #[test]
    fn solvers_validate_shapes() {
        let a = poisson(4);
        let badb = vec![1.0; 3];
        assert!(
            conjugate_gradient(&a, &badb, None, &IdentityPrecond, IterOptions::default()).is_err()
        );
        let b = vec![1.0; 4];
        assert!(conjugate_gradient(
            &a,
            &b,
            Some(&[0.0; 2]),
            &IdentityPrecond,
            IterOptions::default()
        )
        .is_err());
    }

    #[test]
    fn zero_rhs_returns_zero_immediately() {
        let a = poisson(6);
        let rep = conjugate_gradient(
            &a,
            &[0.0; 6],
            None,
            &IdentityPrecond,
            IterOptions::default(),
        )
        .unwrap();
        assert_eq!(rep.iterations, 0);
        assert!(rep.x.iter().all(|&v| v == 0.0));
    }
}
