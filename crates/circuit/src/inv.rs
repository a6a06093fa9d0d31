//! The INV circuit (Fig. 1b): analytic DC solution.
//!
//! The input vector is injected through `G₀` resistors into the word-line
//! virtual-ground nodes; op-amp outputs feed back through the crossbar to
//! the bit lines, closing `n` nested feedback loops. Kirchhoff's current
//! law at equilibrium gives `G₀·v_in + G·v_out = 0`, i.e.
//! `v_out = −(G/G₀)⁻¹·v_in` — the circuit solves the linear system in one
//! step.
//!
//! With two arrays realizing `A = A⁺ − A⁻` (the negative array fed by the
//! inverted op-amp outputs) and finite op-amp open-loop gain `a₀`, the
//! exact node equations become
//!
//! ```text
//! (Ĝ + D̂/a₀) · v_out = −v_in,     D̂ = diag(1 + Ŝ_i)
//! ```
//!
//! with `Ĝ = (G⁺ − G⁻)/G₀` and `Ŝ_i = Σ_j (G⁺ + G⁻)_ij / G₀`. The finite
//! gain perturbs the solved matrix by `D̂/a₀` — a systematic error that
//! grows with the total row conductance, i.e. with array size. This is the
//! mechanism behind the paper's observation that even "ideal mapping"
//! HSPICE results degrade at large sizes while BlockAMC's smaller arrays
//! hold up better.

use amc_linalg::{lu::LuFactor, Matrix};

use crate::opamp::GainModel;
use crate::{CircuitError, Result};

/// DC solution of the (analytic) INV circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct InvSolution {
    /// Op-amp output voltages (physical volts). At the ideal operating
    /// point these equal `−(G/G₀)⁻¹·v_in`.
    pub volts: Vec<f64>,
}

/// Solves the INV circuit given the *effective* conductance matrices of
/// the two arrays (after any interconnect transformation), the unit
/// conductance `g0`, the input voltages, and the op-amp gain model.
///
/// # Errors
///
/// * [`CircuitError::InvalidConfig`] if `g0` is not positive or the gain
///   model is invalid.
/// * [`CircuitError::ShapeMismatch`] if the arrays are not square or
///   shapes disagree, or `v_in` does not match the row count.
/// * [`CircuitError::NoOperatingPoint`] if the feedback system is
///   singular (the circuit has no stable equilibrium).
pub fn solve_inv(
    g_pos: &Matrix,
    g_neg: &Matrix,
    g0: f64,
    v_in: &[f64],
    gain: GainModel,
) -> Result<InvSolution> {
    if v_in.len() != g_pos.rows() {
        return Err(CircuitError::ShapeMismatch {
            op: "inv input",
            expected: g_pos.rows(),
            got: v_in.len(),
        });
    }
    let system = inv_system(g_pos, g_neg, g0, gain)?;
    let rhs: Vec<f64> = v_in.iter().map(|&v| -v).collect();
    let volts = system.solve(&rhs)?;
    Ok(InvSolution { volts })
}

/// The input-independent half of [`solve_inv`]: the LU factorisation of
/// the feedback system `Ĝ + D̂/a₀`. The operating point for an input
/// `v_in` is then `system.solve(−v_in)`.
///
/// # Errors
///
/// As [`solve_inv`], minus the input-length check.
pub(crate) fn inv_system(
    g_pos: &Matrix,
    g_neg: &Matrix,
    g0: f64,
    gain: GainModel,
) -> Result<LuFactor> {
    gain.validate()?;
    if !(g0 > 0.0 && g0.is_finite()) {
        return Err(CircuitError::config("g0 must be positive and finite"));
    }
    if g_pos.shape() != g_neg.shape() {
        return Err(CircuitError::ShapeMismatch {
            op: "inv arrays",
            expected: g_pos.cols(),
            got: g_neg.cols(),
        });
    }
    if !g_pos.is_square() {
        return Err(CircuitError::ShapeMismatch {
            op: "inv (square array required)",
            expected: g_pos.rows(),
            got: g_pos.cols(),
        });
    }
    let n = g_pos.rows();
    let inv_a0 = gain.inverse_gain();
    // System matrix Ĝ + D̂/a₀.
    let mut sys = Matrix::zeros(n, n);
    for i in 0..n {
        let rp = g_pos.row(i);
        let rn = g_neg.row(i);
        let mut row_sum = 0.0;
        for j in 0..n {
            let signed = (rp[j] - rn[j]) / g0;
            sys[(i, j)] = signed;
            row_sum += (rp[j] + rn[j]) / g0;
        }
        if inv_a0 > 0.0 {
            sys[(i, i)] += (1.0 + row_sum) * inv_a0;
        }
    }
    LuFactor::new(&sys)
        .map_err(|e| CircuitError::no_op_point(format!("INV feedback system is singular: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_linalg::vector;

    fn arrays() -> (Matrix, Matrix, f64) {
        // Signed matrix [[2, -0.5], [0.25, 1.5]] normalized by g0 = 1e-4:
        // well-conditioned and diagonally dominant.
        let g0 = 1e-4;
        let gp = Matrix::from_rows(&[&[2e-4, 0.0], &[0.25e-4, 1.5e-4]]).unwrap();
        let gn = Matrix::from_rows(&[&[0.0, 0.5e-4], &[0.0, 0.0]]).unwrap();
        (gp, gn, g0)
    }

    #[test]
    fn ideal_circuit_solves_the_system() {
        let (gp, gn, g0) = arrays();
        let b = [0.3, -0.1];
        let sol = solve_inv(&gp, &gn, g0, &b, GainModel::Ideal).unwrap();
        // Ĝ·v = -b must hold.
        let g_hat = Matrix::from_rows(&[&[2.0, -0.5], &[0.25, 1.5]]).unwrap();
        let gv = g_hat.matvec(&sol.volts).unwrap();
        assert!(vector::approx_eq(&gv, &[-0.3, 0.1], 1e-12));
    }

    #[test]
    fn finite_gain_introduces_systematic_error() {
        let (gp, gn, g0) = arrays();
        let b = [0.3, -0.1];
        let ideal = solve_inv(&gp, &gn, g0, &b, GainModel::Ideal).unwrap();
        let finite = solve_inv(&gp, &gn, g0, &b, GainModel::Finite { a0: 50.0 }).unwrap();
        let err = amc_linalg::metrics::relative_error(&ideal.volts, &finite.volts);
        assert!(err > 1e-4, "a0=50 should visibly perturb, err={err}");
        assert!(err < 0.2, "perturbation should stay moderate, err={err}");
        let precise = solve_inv(&gp, &gn, g0, &b, GainModel::Finite { a0: 1e9 }).unwrap();
        assert!(vector::approx_eq(&precise.volts, &ideal.volts, 1e-7));
    }

    #[test]
    fn finite_gain_error_grows_with_row_conductance() {
        // Same matrix; add a cancelling pos/neg pair that increases the
        // absolute row conductance without changing the signed matrix.
        let g0 = 1e-4;
        let b = [0.2, 0.2];
        let gp_light = Matrix::from_rows(&[&[2e-4, 0.0], &[0.0, 2e-4]]).unwrap();
        let gn_light = Matrix::zeros(2, 2);
        let gp_heavy = Matrix::from_rows(&[&[2e-4, 1e-4], &[1e-4, 2e-4]]).unwrap();
        let gn_heavy = Matrix::from_rows(&[&[0.0, 1e-4], &[1e-4, 0.0]]).unwrap();
        let gain = GainModel::Finite { a0: 100.0 };
        let ideal = solve_inv(&gp_light, &gn_light, g0, &b, GainModel::Ideal).unwrap();
        let light = solve_inv(&gp_light, &gn_light, g0, &b, gain).unwrap();
        let heavy = solve_inv(&gp_heavy, &gn_heavy, g0, &b, gain).unwrap();
        let e_light = amc_linalg::metrics::relative_error(&ideal.volts, &light.volts);
        let e_heavy = amc_linalg::metrics::relative_error(&ideal.volts, &heavy.volts);
        assert!(
            e_heavy > e_light,
            "heavier rows must hurt more: {e_heavy} vs {e_light}"
        );
    }

    #[test]
    fn singular_feedback_is_detected() {
        let g0 = 1e-4;
        let gp = Matrix::from_rows(&[&[1e-4, 1e-4], &[1e-4, 1e-4]]).unwrap();
        let gn = Matrix::zeros(2, 2);
        let err = solve_inv(&gp, &gn, g0, &[0.1, 0.1], GainModel::Ideal);
        assert!(matches!(err, Err(CircuitError::NoOperatingPoint { .. })));
    }

    #[test]
    fn validation_errors() {
        let (gp, gn, g0) = arrays();
        assert!(solve_inv(&gp, &gn, -1.0, &[0.1, 0.1], GainModel::Ideal).is_err());
        assert!(solve_inv(&gp, &gn, g0, &[0.1], GainModel::Ideal).is_err());
        let rect = Matrix::zeros(2, 3);
        assert!(solve_inv(&rect, &rect, g0, &[0.1, 0.1, 0.1], GainModel::Ideal).is_err());
        let wrong = Matrix::zeros(3, 3);
        assert!(solve_inv(&gp, &wrong, g0, &[0.1, 0.1], GainModel::Ideal).is_err());
    }

    #[test]
    fn inv_and_mvm_are_inverse_operations() {
        let (gp, gn, g0) = arrays();
        let b = [0.25, 0.15];
        let x = solve_inv(&gp, &gn, g0, &b, GainModel::Ideal).unwrap();
        // Feed the INV output into the MVM circuit: should recover -b…
        // MVM(v) = -Ĝ v, and Ĝ x = -b, so MVM(x) = b.
        let back = crate::mvm::solve_mvm(&gp, &gn, g0, &x.volts, GainModel::Ideal).unwrap();
        assert!(vector::approx_eq(&back.volts, &b, 1e-12));
    }
}
