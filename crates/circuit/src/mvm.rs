//! The MVM circuit (Fig. 1a): analytic DC solution.
//!
//! Bit lines carry the input voltages, word-line currents are collected by
//! transimpedance amplifiers (feedback conductance `G₀`), so at the DC
//! operating point `v_out = −(G/G₀)·v_in`. With two arrays realizing
//! `A = A⁺ − A⁻` (the negative array driven by `−v_in`) and a finite
//! op-amp open-loop gain `a₀`, the exact node equation at TIA `i` gives
//!
//! ```text
//! v_out_i = −(Ĝ·v_in)_i / (1 + (1 + Ŝ_i)/a₀)
//! ```
//!
//! where `Ĝ = (G⁺ − G⁻)/G₀` is the normalized signed matrix and
//! `Ŝ_i = Σ_j (G⁺ + G⁻)_ij / G₀` the normalized total row conductance. The
//! `a₀ = ∞` limit recovers the ideal expression.

use amc_linalg::Matrix;

use crate::opamp::GainModel;
use crate::{CircuitError, Result};

/// DC solution of the (analytic) MVM circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct MvmSolution {
    /// TIA output voltages (physical volts).
    pub volts: Vec<f64>,
}

/// Solves the MVM circuit given the *effective* conductance matrices of
/// the two arrays (after any interconnect transformation), the unit
/// conductance `g0`, the input voltages, and the op-amp gain model.
///
/// # Errors
///
/// * [`CircuitError::InvalidConfig`] if `g0` is not positive or the gain
///   model is invalid.
/// * [`CircuitError::ShapeMismatch`] if shapes disagree.
pub fn solve_mvm(
    g_pos: &Matrix,
    g_neg: &Matrix,
    g0: f64,
    v_in: &[f64],
    gain: GainModel,
) -> Result<MvmSolution> {
    let denominators = row_denominators(g_pos, g_neg, g0, gain)?;
    if v_in.len() != g_pos.cols() {
        return Err(CircuitError::ShapeMismatch {
            op: "mvm input",
            expected: g_pos.cols(),
            got: v_in.len(),
        });
    }
    let volts = apply_mvm(&g_pos.sub_matrix(g_neg)?, &denominators, v_in);
    Ok(MvmSolution { volts })
}

/// The input-independent half of [`solve_mvm`]: the TIA denominator
/// `G₀·(1 + (1 + Ŝ_i)/a₀)` of every row.
///
/// # Errors
///
/// As [`solve_mvm`], minus the input-length check.
pub(crate) fn row_denominators(
    g_pos: &Matrix,
    g_neg: &Matrix,
    g0: f64,
    gain: GainModel,
) -> Result<Vec<f64>> {
    gain.validate()?;
    if !(g0 > 0.0 && g0.is_finite()) {
        return Err(CircuitError::config("g0 must be positive and finite"));
    }
    if g_pos.shape() != g_neg.shape() {
        return Err(CircuitError::ShapeMismatch {
            op: "mvm arrays",
            expected: g_pos.cols(),
            got: g_neg.cols(),
        });
    }
    let inv_a0 = gain.inverse_gain();
    Ok((0..g_pos.rows())
        .map(|i| {
            let mut row_sum = 0.0; // Σ_j (g⁺+g⁻)_ij
            for (&gp, &gn) in g_pos.row(i).iter().zip(g_neg.row(i)) {
                row_sum += gp + gn;
            }
            g0 * (1.0 + (1.0 + row_sum / g0) * inv_a0)
        })
        .collect())
}

/// The per-input half of [`solve_mvm`]: `v_out_i = −(Σ_j g_diff_ij·v_j) /
/// denominator_i` with `g_diff = G⁺ − G⁻`. The caller guarantees
/// `v_in.len() == g_diff.cols()`.
pub(crate) fn apply_mvm(g_diff: &Matrix, denominators: &[f64], v_in: &[f64]) -> Vec<f64> {
    denominators
        .iter()
        .enumerate()
        .map(|(i, &denom)| {
            let mut current = 0.0; // Σ_j (g⁺−g⁻)_ij · v_j
            for (&g, &v) in g_diff.row(i).iter().zip(v_in) {
                current += g * v;
            }
            -current / denom
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_linalg::vector;

    fn arrays() -> (Matrix, Matrix, f64) {
        // Signed matrix [[1, -0.5], [0.25, 0.75]] at g0 = 1e-4.
        let g0 = 1e-4;
        let gp = Matrix::from_rows(&[&[1e-4, 0.0], &[0.25e-4, 0.75e-4]]).unwrap();
        let gn = Matrix::from_rows(&[&[0.0, 0.5e-4], &[0.0, 0.0]]).unwrap();
        (gp, gn, g0)
    }

    #[test]
    fn ideal_gain_matches_formula() {
        let (gp, gn, g0) = arrays();
        let v_in = [0.4, -0.2];
        let sol = solve_mvm(&gp, &gn, g0, &v_in, GainModel::Ideal).unwrap();
        // v_out = -Ĝ v_in with Ĝ = [[1, -0.5], [0.25, 0.75]].
        let expect = [
            -(1.0 * 0.4 + (-0.5) * (-0.2)),
            -(0.25 * 0.4 + 0.75 * (-0.2)),
        ];
        assert!(vector::approx_eq(&sol.volts, &expect, 1e-12));
    }

    #[test]
    fn finite_gain_attenuates_output() {
        let (gp, gn, g0) = arrays();
        let v_in = [0.4, -0.2];
        let ideal = solve_mvm(&gp, &gn, g0, &v_in, GainModel::Ideal).unwrap();
        let finite = solve_mvm(&gp, &gn, g0, &v_in, GainModel::Finite { a0: 100.0 }).unwrap();
        for (f, i) in finite.volts.iter().zip(&ideal.volts) {
            assert!(f.abs() < i.abs());
            // Error scale ~ (1 + Ŝ)/a0 = few percent at a0=100.
            assert!((f - i).abs() / i.abs() < 0.05);
        }
    }

    #[test]
    fn finite_gain_error_vanishes_with_large_a0() {
        let (gp, gn, g0) = arrays();
        let v_in = [0.1, 0.9];
        let ideal = solve_mvm(&gp, &gn, g0, &v_in, GainModel::Ideal).unwrap();
        let finite = solve_mvm(&gp, &gn, g0, &v_in, GainModel::Finite { a0: 1e9 }).unwrap();
        assert!(vector::approx_eq(&finite.volts, &ideal.volts, 1e-8));
    }

    #[test]
    fn denominator_uses_absolute_conductance_sum() {
        // A matrix whose signed entries cancel still loads the op-amp with
        // the *sum* of conductances: output error must reflect that.
        let g0 = 1e-4;
        let gp = Matrix::from_rows(&[&[1e-4, 0.0]]).unwrap();
        let gn = Matrix::from_rows(&[&[0.0, 1e-4]]).unwrap();
        // v_in chosen so the signed current is non-zero.
        let v_in = [0.5, 0.2];
        let sol = solve_mvm(&gp, &gn, g0, &v_in, GainModel::Finite { a0: 10.0 }).unwrap();
        // Ŝ = 2, ideal current = (0.5 - 0.2)·1e-4; denom = g0(1 + 3/10).
        let expect = -(0.3e-4) / (1e-4 * 1.3);
        assert!((sol.volts[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn shape_and_config_validation() {
        let (gp, gn, g0) = arrays();
        assert!(solve_mvm(&gp, &gn, 0.0, &[0.1, 0.1], GainModel::Ideal).is_err());
        assert!(solve_mvm(&gp, &gn, g0, &[0.1], GainModel::Ideal).is_err());
        let wrong = Matrix::zeros(3, 2);
        assert!(solve_mvm(&gp, &wrong, g0, &[0.1, 0.1], GainModel::Ideal).is_err());
        assert!(solve_mvm(&gp, &gn, g0, &[0.1, 0.1], GainModel::Finite { a0: -1.0 }).is_err());
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let (gp, gn, g0) = arrays();
        let sol = solve_mvm(&gp, &gn, g0, &[0.0, 0.0], GainModel::Ideal).unwrap();
        assert!(sol.volts.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rectangular_arrays_supported() {
        // 3 word lines x 2 bit lines.
        let gp = Matrix::filled(3, 2, 5e-5);
        let gn = Matrix::zeros(3, 2);
        let sol = solve_mvm(&gp, &gn, 1e-4, &[0.2, 0.2], GainModel::Ideal).unwrap();
        assert_eq!(sol.volts.len(), 3);
        assert!(sol.volts.iter().all(|&v| (v + 0.2).abs() < 1e-12));
    }
}
