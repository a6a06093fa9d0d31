//! Static power at the DC operating point.
//!
//! Power has three contributors in the AMC circuits:
//!
//! 1. the crossbar arrays (current through every programmed cell),
//! 2. the input/feedback `G₀` resistors,
//! 3. the op-amps' quiescent draw, `N·V_s·I_q` (paper eq. 7).
//!
//! The analytic expressions below assume ideal virtual grounds (word-line
//! nodes at 0 V), which matches the analytic MVM/INV solutions; the exact
//! grid model computes its own dissipation from node voltages.

use amc_linalg::Matrix;

use crate::opamp::OpAmpSpec;
use crate::{CircuitError, Result};

/// Power of the MVM circuit at its operating point.
///
/// * Arrays: bit line `j` sits at `±v_in_j`, word lines at virtual ground,
///   so each cell dissipates `g·v_in_j²` (both the positive and negative
///   array see the same magnitude).
/// * Feedback resistors: `G₀·v_out_i²`.
/// * Op-amps: one TIA per word line.
///
/// # Errors
///
/// Returns [`CircuitError::ShapeMismatch`] if vector lengths disagree with
/// the array shape.
pub fn mvm_power(
    g_pos: &Matrix,
    g_neg: &Matrix,
    g0: f64,
    v_in: &[f64],
    v_out: &[f64],
    opamp: &OpAmpSpec,
) -> Result<f64> {
    if v_in.len() != g_pos.cols() || v_out.len() != g_pos.rows() {
        return Err(CircuitError::ShapeMismatch {
            op: "mvm_power",
            expected: g_pos.cols(),
            got: v_in.len(),
        });
    }
    Ok(operating_point_power(
        &g_pos.add_matrix(g_neg)?,
        g0,
        v_in,
        v_out,
        opamp,
    ))
}

/// Power of the INV circuit at its operating point.
///
/// * Arrays: bit line `j` sits at `±v_out_j` (op-amp feedback), word lines
///   at virtual ground: each cell dissipates `g·v_out_j²`.
/// * Input resistors: `G₀·v_in_i²`.
/// * Op-amps: one per row.
///
/// # Errors
///
/// Returns [`CircuitError::ShapeMismatch`] if vector lengths disagree with
/// the array shape.
pub fn inv_power(
    g_pos: &Matrix,
    g_neg: &Matrix,
    g0: f64,
    v_in: &[f64],
    v_out: &[f64],
    opamp: &OpAmpSpec,
) -> Result<f64> {
    if v_in.len() != g_pos.rows() || v_out.len() != g_pos.cols() {
        return Err(CircuitError::ShapeMismatch {
            op: "inv_power",
            expected: g_pos.rows(),
            got: v_in.len(),
        });
    }
    Ok(operating_point_power(
        &g_pos.add_matrix(g_neg)?,
        g0,
        v_out,
        v_in,
        opamp,
    ))
}

/// The power sum both circuits share, given the summed conductances
/// `g_sum = G⁺ + G⁻` (the bit-line voltage magnitude is the same on both
/// arrays): `Σ_ij g_sum_ij·v_bl_j² + Σ_i G₀·v_g0_i² + rows·P_opamp`.
///
/// `v_bit_lines` drives the array columns (the MVM input, the INV output)
/// and `v_g0` sits across the `G₀` resistors (the MVM output, the INV
/// input). The caller guarantees `v_bit_lines.len() == g_sum.cols()`.
pub(crate) fn operating_point_power(
    g_sum: &Matrix,
    g0: f64,
    v_bit_lines: &[f64],
    v_g0: &[f64],
    opamp: &OpAmpSpec,
) -> f64 {
    let mut p = 0.0;
    for i in 0..g_sum.rows() {
        for (&g, &v) in g_sum.row(i).iter().zip(v_bit_lines) {
            p += g * v * v;
        }
    }
    for &v in v_g0 {
        p += g0 * v * v;
    }
    p + g_sum.rows() as f64 * opamp.static_power_w()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> OpAmpSpec {
        OpAmpSpec::default_45nm() // 13 µW per op-amp
    }

    #[test]
    fn mvm_power_components() {
        // Single cell g=1e-4, v_in=1V: array power 1e-4 W.
        let gp = Matrix::filled(1, 1, 1e-4);
        let gn = Matrix::zeros(1, 1);
        let p = mvm_power(&gp, &gn, 1e-4, &[1.0], &[-1.0], &spec()).unwrap();
        // array 1e-4 + feedback 1e-4 + opamp 13e-6.
        assert!((p - (2e-4 + 13e-6)).abs() < 1e-12);
    }

    #[test]
    fn inv_power_components() {
        let gp = Matrix::filled(2, 2, 5e-5);
        let gn = Matrix::zeros(2, 2);
        let v_in = [0.5, 0.5];
        let v_out = [0.2, -0.2];
        let p = inv_power(&gp, &gn, 1e-4, &v_in, &v_out, &spec()).unwrap();
        // arrays: Σ_ij g·v_out_j² = 2 rows × (5e-5·0.04 + 5e-5·0.04) = 8e-6
        // inputs: 2 × 1e-4·0.25 = 5e-5 ; opamps: 26e-6.
        assert!((p - (8e-6 + 5e-5 + 26e-6)).abs() < 1e-12, "p={p}");
    }

    #[test]
    fn both_arrays_contribute() {
        let gp = Matrix::filled(1, 1, 1e-4);
        let gn = Matrix::filled(1, 1, 1e-4);
        let single = mvm_power(&gp, &Matrix::zeros(1, 1), 1e-4, &[1.0], &[0.0], &spec()).unwrap();
        let double = mvm_power(&gp, &gn, 1e-4, &[1.0], &[0.0], &spec()).unwrap();
        assert!((double - single - 1e-4).abs() < 1e-12);
    }

    #[test]
    fn shape_validation() {
        let gp = Matrix::zeros(2, 3);
        let gn = Matrix::zeros(2, 3);
        assert!(mvm_power(&gp, &gn, 1e-4, &[1.0], &[0.0, 0.0], &spec()).is_err());
        assert!(inv_power(&gp, &gn, 1e-4, &[1.0], &[0.0, 0.0, 0.0], &spec()).is_err());
    }

    #[test]
    fn zero_signals_leave_only_quiescent_power() {
        let gp = Matrix::filled(3, 3, 1e-4);
        let gn = Matrix::zeros(3, 3);
        let p = mvm_power(&gp, &gn, 1e-4, &[0.0; 3], &[0.0; 3], &spec()).unwrap();
        assert!((p - 3.0 * 13e-6).abs() < 1e-15);
    }
}
