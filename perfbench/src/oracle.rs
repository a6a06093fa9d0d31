//! Correctness oracles that share no code with the solvers under test
//! beyond the matrix type: a normwise backward error, and the paper's
//! eq. 6 error against a plain LU reference.

use amc_linalg::lu::LuFactor;
use amc_linalg::metrics::relative_error;
use amc_linalg::Matrix;

/// Backward-error budget `c` in `η ≤ c·n·ε`.
const BACKWARD_C: f64 = 4.0;

/// Normwise backward error `η = ‖b − Ax‖∞ / (‖A‖∞‖x‖∞ + ‖b‖∞)`
/// (Rigal–Gaches; Higham, *Accuracy and Stability*, §7.1).
pub fn backward_error(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
    let n = a.rows();
    let mut residual = 0.0f64;
    let mut a_norm = 0.0f64;
    for (i, &bi) in b.iter().enumerate().take(n) {
        let row = a.row(i);
        let ax: f64 = row.iter().zip(x).map(|(aij, xj)| aij * xj).sum();
        residual = residual.max((bi - ax).abs());
        a_norm = a_norm.max(row.iter().map(|v| v.abs()).sum());
    }
    let inf = |v: &[f64]| v.iter().fold(0.0f64, |m, e| m.max(e.abs()));
    residual / (a_norm * inf(x) + inf(b))
}

/// Whether `x` is an acceptable digital answer to `A·x = b`.
pub fn backward_ok(a: &Matrix, x: &[f64], b: &[f64]) -> bool {
    let bound = BACKWARD_C * a.rows() as f64 * f64::EPSILON;
    x.len() == a.rows() && backward_error(a, x, b) <= bound
}

/// Checks numeric answers against their systems: each `(matrix index,
/// b, x)` must pass [`backward_ok`]. Returns the eq. 6 errors against an
/// LU reference and the number of answers that failed. One matrix is
/// factorised at a time.
pub fn check_numeric(matrices: &[&Matrix], answers: &[(usize, &[f64], &[f64])]) -> (Vec<f64>, u64) {
    let mut errors = Vec::with_capacity(answers.len());
    let mut failed = answers
        .iter()
        .filter(|(i, ..)| *i >= matrices.len())
        .count() as u64;
    for (index, a) in matrices.iter().enumerate() {
        let lu = LuFactor::new(a).ok();
        for &(_, b, x) in answers.iter().filter(|(i, ..)| *i == index) {
            let reference = lu.as_ref().and_then(|lu| lu.solve(b).ok());
            match reference {
                Some(x_ref) if backward_ok(a, x, b) => errors.push(relative_error(&x_ref, x)),
                _ => failed += 1,
            }
        }
    }
    (errors, failed)
}
