//! Settling-time models for the AMC circuits.
//!
//! Neither circuit is instantaneous: the op-amps' finite gain-bandwidth
//! product (GBWP) sets the dynamics.
//!
//! * **MVM** — the computing time is *linear in the maximal sum of
//!   conductances along a row of the array* and controlled by the feedback
//!   conductance and GBWP of the TIAs (Sun & Huang, IEEE TCAS-II 68(8),
//!   2021 — the paper's ref. \[22\]). The dominant closed-loop time constant
//!   of TIA `i` is `(1 + Ŝ_i) / ω_gbw` with `Ŝ_i` the normalized row sum.
//! * **INV** — the time constant is set by the *minimal eigenvalue* of the
//!   normalized matrix and the op-amp GBWP (Sun et al., IEEE T-ED 67(7),
//!   2020 — the paper's ref. \[23\]): `τ ≈ 1 / (ω_gbw·λ_min)`.
//!
//! Settling to a relative accuracy `ε` multiplies either constant by
//! `ln(1/ε)`.

use amc_linalg::{eigen, Matrix};

use crate::opamp::OpAmpSpec;
use crate::{CircuitError, Result};

/// Default settling accuracy target (0.1%), giving `ln(1/ε) ≈ 6.9`.
pub const DEFAULT_SETTLE_EPSILON: f64 = 1e-3;

/// Settling-time estimate for an MVM operation.
///
/// `max_row_sum_normalized` is `max_i Σ_j |Ĝ_ij|` — the largest normalized
/// row-conductance sum of the (combined pos+neg) array, i.e. the largest
/// row sum of the programmed conductances divided by `G₀`.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidConfig`] for an invalid op-amp spec or a
/// negative row sum.
pub fn mvm_settle_time(
    max_row_sum_normalized: f64,
    opamp: &OpAmpSpec,
    epsilon: f64,
) -> Result<f64> {
    opamp.validate()?;
    if !(max_row_sum_normalized >= 0.0 && max_row_sum_normalized.is_finite()) {
        return Err(CircuitError::config("row sum must be non-negative"));
    }
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(CircuitError::config("epsilon must lie in (0, 1)"));
    }
    let omega = std::f64::consts::TAU * opamp.gbwp_hz;
    Ok((1.0 + max_row_sum_normalized) / omega * (1.0 / epsilon).ln())
}

/// Settling-time estimate for an INV operation on the normalized matrix
/// `g_hat = G/G₀`: `ln(1/ε) / (ω_gbw·|λ_min|)`.
///
/// `|λ_min|` is the smallest eigenvalue magnitude of the symmetric part
/// of `g_hat` (exact for the symmetric matrices the paper benchmarks; a
/// conservative proxy otherwise), from [`min_eigenvalue_magnitude`].
///
/// # Errors
///
/// * [`CircuitError::InvalidConfig`] for invalid spec/epsilon or a
///   non-square matrix.
/// * [`CircuitError::NoOperatingPoint`] if the matrix is singular (the
///   circuit would not settle at all).
pub fn inv_settle_time(g_hat: &Matrix, opamp: &OpAmpSpec, epsilon: f64) -> Result<f64> {
    opamp.validate()?;
    if !(epsilon > 0.0 && epsilon < 1.0) {
        return Err(CircuitError::config("epsilon must lie in (0, 1)"));
    }
    let lambda = min_eigenvalue_magnitude(g_hat)?;
    let omega = std::f64::consts::TAU * opamp.gbwp_hz;
    Ok((1.0 / epsilon).ln() / (omega * lambda))
}

/// `|λ_min|` of the symmetric part `(A + Aᵀ)/2` of a square matrix, from
/// [`amc_linalg::eigen::min_abs_eigenvalue`]: Lanczos on the inverse
/// through one LU factorisation, stopped once its a-posteriori error
/// bound falls to `1e-11` relative. Only the `λ_min` end is computed.
///
/// # Errors
///
/// * [`CircuitError::InvalidConfig`] if the matrix is not square or empty.
/// * [`CircuitError::NoOperatingPoint`] if the matrix is singular or not
///   finite.
pub fn min_eigenvalue_magnitude(a: &Matrix) -> Result<f64> {
    if !a.is_square() || a.rows() == 0 {
        return Err(CircuitError::config(
            "eigenvalue estimate requires a non-empty square matrix",
        ));
    }
    let n = a.rows();
    let sym = Matrix::from_fn(n, n, |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let lambda = eigen::min_abs_eigenvalue(&sym)
        .map_err(|e| CircuitError::no_op_point(format!("λ_min estimate failed: {e}")))?;
    if !lambda.is_finite() || lambda <= 0.0 {
        return Err(CircuitError::no_op_point(
            "eigenvalue estimate did not give a positive value",
        ));
    }
    Ok(lambda)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mvm_time_linear_in_row_sum() {
        let spec = OpAmpSpec::default_45nm();
        let t1 = mvm_settle_time(1.0, &spec, 1e-3).unwrap();
        let t2 = mvm_settle_time(3.0, &spec, 1e-3).unwrap();
        assert!((t2 / t1 - 2.0).abs() < 1e-12); // (1+3)/(1+1) = 2
        assert!(t1 > 0.0);
    }

    #[test]
    fn mvm_time_scales_with_accuracy() {
        let spec = OpAmpSpec::default_45nm();
        let loose = mvm_settle_time(1.0, &spec, 1e-2).unwrap();
        let tight = mvm_settle_time(1.0, &spec, 1e-6).unwrap();
        assert!((tight / loose - 3.0).abs() < 1e-12); // ln ratios 6/2
    }

    #[test]
    fn mvm_time_validation() {
        let spec = OpAmpSpec::default_45nm();
        assert!(mvm_settle_time(-1.0, &spec, 1e-3).is_err());
        assert!(mvm_settle_time(1.0, &spec, 0.0).is_err());
        assert!(mvm_settle_time(1.0, &spec, 1.5).is_err());
    }

    #[test]
    fn eigenvalue_of_diagonal_matrix() {
        let a = Matrix::from_diag(&[3.0, 0.5, 2.0]);
        let l = min_eigenvalue_magnitude(&a).unwrap();
        assert!((l - 0.5).abs() < 1e-9, "got {l}");
    }

    #[test]
    fn eigenvalue_of_spd_matrix() {
        // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let l = min_eigenvalue_magnitude(&a).unwrap();
        assert!((l - 1.0).abs() < 1e-9, "got {l}");
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        assert!(min_eigenvalue_magnitude(&a).is_err());
        assert!(min_eigenvalue_magnitude(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn inv_time_grows_for_ill_conditioned_matrices() {
        let spec = OpAmpSpec::default_45nm();
        let well = Matrix::identity(4);
        let ill = Matrix::from_diag(&[1.0, 1.0, 1.0, 1e-3]);
        let t_well = inv_settle_time(&well, &spec, 1e-3).unwrap();
        let t_ill = inv_settle_time(&ill, &spec, 1e-3).unwrap();
        assert!(t_ill > 100.0 * t_well);
    }

    #[test]
    fn inv_time_is_microseconds_scale_for_unit_matrix() {
        // Sanity: 10 MHz GBWP, λ=1, ε=1e-3 -> ln(1000)/(2π·1e7) ≈ 110 ns.
        let spec = OpAmpSpec::default_45nm();
        let t = inv_settle_time(&Matrix::identity(8), &spec, 1e-3).unwrap();
        assert!(t > 5e-8 && t < 5e-7, "got {t}");
    }
}
