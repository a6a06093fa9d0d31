//! Interconnect (wire-resistance) models.
//!
//! The paper's Fig. 9 experiments assume "the segment resistance between
//! every two memory cells along the BL or WL … as 1 Ω" (the 65 nm value).
//! Two models of that non-ideality are provided:
//!
//! * [`InterconnectModel::SeriesApprox`] — the standard first-order model:
//!   each cell sees, in series with its own resistance, the wire segments
//!   accumulated along its bit line (from the driver) and word line (to
//!   the sensing amplifier). This folds the non-ideality into a perturbed
//!   conductance matrix in O(m·n) and captures the dominant
//!   position-dependent degradation, which grows with array size — the
//!   effect BlockAMC exploits.
//! * [`InterconnectModel::ExactGrid`] — defer to the full resistive-grid
//!   MNA solve in [`crate::grid`], which models current sharing between
//!   cells exactly. Used for validation on small arrays; tests bound the
//!   divergence between the two models.
//!
//! Geometry convention (matching Fig. 1): bit lines are driven at the top
//! (above row 0), word lines are sensed at the right (past column n−1), so
//! cell `(i, j)` in an `m x n` array accumulates `(i + 1)` BL segments and
//! `(n − j)` WL segments.

use amc_linalg::Matrix;

use crate::{CircuitError, Result};

/// Wire-resistance model selection.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
#[derive(Default)]
pub enum InterconnectModel {
    /// Ideal wires (zero resistance).
    #[default]
    Ideal,
    /// Accumulated series-resistance approximation with the given segment
    /// resistance in ohms.
    SeriesApprox {
        /// Resistance of one wire segment between adjacent cells, in ohms.
        r_segment: f64,
    },
    /// Exact 2-D resistive grid solve with the given segment resistance in
    /// ohms (see [`crate::grid::ResistiveGrid`]).
    ExactGrid {
        /// Resistance of one wire segment between adjacent cells, in ohms.
        r_segment: f64,
    },
}

impl InterconnectModel {
    /// The paper's Fig. 9 configuration: 1 Ω per segment, fast model.
    pub fn paper_default() -> Self {
        InterconnectModel::SeriesApprox { r_segment: 1.0 }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] if the segment resistance is
    /// negative or not finite, or zero for the exact grid (a zero-resistance
    /// grid is singular; use [`InterconnectModel::Ideal`] instead).
    pub(crate) fn validate(&self) -> Result<()> {
        match *self {
            InterconnectModel::Ideal => Ok(()),
            InterconnectModel::SeriesApprox { r_segment } => {
                if r_segment.is_finite() && r_segment >= 0.0 {
                    Ok(())
                } else {
                    Err(CircuitError::config(format!(
                        "segment resistance must be finite and non-negative, got {r_segment}"
                    )))
                }
            }
            InterconnectModel::ExactGrid { r_segment } => {
                if r_segment.is_finite() && r_segment > 0.0 {
                    Ok(())
                } else {
                    Err(CircuitError::config(format!(
                        "exact-grid segment resistance must be finite and positive \
                         (use Ideal for zero), got {r_segment}"
                    )))
                }
            }
        }
    }

    /// Returns `true` if the model requires the exact grid solver.
    pub(crate) fn is_exact_grid(&self) -> bool {
        matches!(self, InterconnectModel::ExactGrid { .. })
    }
}

/// Applies the series-resistance approximation to one array's conductance
/// matrix: `g_eff(i,j) = 1 / (1/g(i,j) + r_segment·((i+1) + (n−j)))`.
///
/// Deselected cells (zero conductance) stay zero. With `r_segment == 0`
/// the matrix is returned unchanged.
///
/// # Errors
///
/// Returns [`CircuitError::InvalidConfig`] if `r_segment` is negative or
/// not finite.
pub fn series_effective_conductances(g: &Matrix, r_segment: f64) -> Result<Matrix> {
    if !(r_segment.is_finite() && r_segment >= 0.0) {
        return Err(CircuitError::config(format!(
            "segment resistance must be finite and non-negative, got {r_segment}"
        )));
    }
    if r_segment == 0.0 {
        return Ok(g.clone());
    }
    let n = g.cols();
    Ok(g.map_indexed(|i, j, v| {
        if v == 0.0 {
            0.0
        } else {
            let r_wire = r_segment * ((i + 1) + (n - j)) as f64;
            1.0 / (1.0 / v + r_wire)
        }
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(InterconnectModel::Ideal.validate().is_ok());
        assert!(InterconnectModel::paper_default().validate().is_ok());
        assert!(InterconnectModel::SeriesApprox { r_segment: -1.0 }
            .validate()
            .is_err());
        assert!(InterconnectModel::ExactGrid { r_segment: 0.0 }
            .validate()
            .is_err());
        assert!(InterconnectModel::ExactGrid { r_segment: 1.0 }
            .validate()
            .is_ok());
        assert_eq!(InterconnectModel::default(), InterconnectModel::Ideal);
        assert!(InterconnectModel::ExactGrid { r_segment: 1.0 }.is_exact_grid());
        assert!(!InterconnectModel::Ideal.is_exact_grid());
    }

    #[test]
    fn zero_resistance_is_identity() {
        let g = Matrix::from_rows(&[&[1e-4, 5e-5], &[2e-5, 0.0]]).unwrap();
        let e = series_effective_conductances(&g, 0.0).unwrap();
        assert_eq!(e, g);
    }

    #[test]
    fn effective_conductance_decreases_with_distance() {
        // 2x2 array, all cells at 100 µS, 1 Ω segments.
        let g = Matrix::filled(2, 2, 1e-4);
        let e = series_effective_conductances(&g, 1.0).unwrap();
        // Cell (0,1): wire = (0+1) + (2-1) = 2 segments -> R = 10kΩ + 2Ω.
        assert!((1.0 / e[(0, 1)] - (1e4 + 2.0)).abs() < 1e-9);
        // Cell (1,0): wire = (1+1) + (2-0) = 4 segments.
        assert!((1.0 / e[(1, 0)] - (1e4 + 4.0)).abs() < 1e-9);
        // The farther cell from both driver and sense sees more resistance.
        assert!(e[(1, 0)] < e[(0, 1)]);
        // All effective conductances shrink.
        assert!(e
            .as_slice()
            .iter()
            .zip(g.as_slice())
            .all(|(&ev, &gv)| ev < gv));
    }

    #[test]
    fn deselected_cells_stay_deselected() {
        let g = Matrix::from_rows(&[&[0.0, 1e-4]]).unwrap();
        let e = series_effective_conductances(&g, 1.0).unwrap();
        assert_eq!(e[(0, 0)], 0.0);
    }

    #[test]
    fn degradation_grows_with_array_size() {
        // Same cell conductance, larger array -> worse worst-case cell.
        let small = Matrix::filled(8, 8, 1e-4);
        let large = Matrix::filled(64, 64, 1e-4);
        let es = series_effective_conductances(&small, 1.0).unwrap();
        let el = series_effective_conductances(&large, 1.0).unwrap();
        let worst_small = es[(7, 0)] / 1e-4;
        let worst_large = el[(63, 0)] / 1e-4;
        assert!(worst_large < worst_small);
    }

    #[test]
    fn invalid_resistance_rejected() {
        let g = Matrix::filled(2, 2, 1e-4);
        assert!(series_effective_conductances(&g, -1.0).is_err());
        assert!(series_effective_conductances(&g, f64::NAN).is_err());
    }
}
