//! Exact resistive-grid model of a crossbar with wire resistance.
//!
//! Every wire segment between adjacent cells is an explicit resistor
//! (`r_segment`, 1 Ω in the paper's Fig. 9), every cell is a resistor
//! between its bit-line node and its word-line node, bit lines are driven
//! at the top, and word lines terminate in the (virtual-ground) sensing
//! node at the right. The resulting network is a 2-D ladder whose node
//! equations form a sparse SPD Laplacian, solved here with Jacobi-
//! preconditioned conjugate gradients.
//!
//! This module is the ground truth the fast
//! [`crate::interconnect::InterconnectModel::SeriesApprox`] model is
//! validated against, and it also powers the `ExactGrid` simulation mode
//! for small arrays.

use amc_device::array::ProgrammedMatrix;
use amc_linalg::iterative::{conjugate_gradient, IterOptions, JacobiPrecond};
use amc_linalg::sparse::CsrMatrix;
use amc_linalg::{lu::LuFactor, Matrix};

use crate::{CircuitError, Result};

/// Exact 2-D resistive network of a single crossbar array.
///
/// # Example
///
/// ```
/// use amc_circuit::grid::ResistiveGrid;
/// use amc_linalg::Matrix;
///
/// # fn main() -> Result<(), amc_circuit::CircuitError> {
/// let g = Matrix::filled(2, 2, 1e-4); // all cells 100 µS
/// let grid = ResistiveGrid::new(&g, 1.0)?; // 1 Ω segments
/// let sol = grid.solve(&[0.2, 0.2])?;
/// // Each word line collects ~ 2 cells × 100 µS × 0.2 V = 40 µA
/// assert!((sol.sense_currents[0] - 4e-5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ResistiveGrid<'a> {
    /// Cell conductance matrix (word lines × bit lines), in siemens.
    g: &'a Matrix,
    /// Wire segment resistance in ohms (> 0).
    r_segment: f64,
}

/// DC solution of a [`ResistiveGrid`].
#[derive(Debug, Clone, PartialEq)]
pub struct GridSolution {
    /// Current flowing into each word line's sensing node, in amperes
    /// (length = number of rows).
    pub sense_currents: Vec<f64>,
    /// Total static power dissipated in the network, in watts.
    pub power_w: f64,
    /// Conjugate-gradient iterations used.
    pub iterations: usize,
}

impl<'a> ResistiveGrid<'a> {
    /// Creates the grid model.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] if `r_segment` is not
    /// strictly positive and finite, `g` is empty, or any conductance is
    /// negative / not finite.
    pub fn new(g: &'a Matrix, r_segment: f64) -> Result<Self> {
        if !(r_segment.is_finite() && r_segment > 0.0) {
            return Err(CircuitError::config(format!(
                "grid segment resistance must be positive and finite, got {r_segment}"
            )));
        }
        if g.rows() == 0 || g.cols() == 0 {
            return Err(CircuitError::config("grid must be non-empty"));
        }
        if g.as_slice().iter().any(|&v| !v.is_finite() || v < 0.0) {
            return Err(CircuitError::config(
                "cell conductances must be finite and non-negative",
            ));
        }
        Ok(ResistiveGrid { g, r_segment })
    }

    /// Node index of bit-line node `(row, col)`.
    fn bl(&self, i: usize, j: usize) -> usize {
        i * self.g.cols() + j
    }

    /// Node index of word-line node `(row, col)`.
    fn wl(&self, i: usize, j: usize) -> usize {
        self.g.rows() * self.g.cols() + i * self.g.cols() + j
    }

    /// Solves the network for the given bit-line driver voltages (one per
    /// column) and returns sense currents + power.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::ShapeMismatch`] if `v_drivers.len()` differs from
    ///   the column count.
    /// * [`CircuitError::NoOperatingPoint`] if CG fails to converge.
    pub fn solve(&self, v_drivers: &[f64]) -> Result<GridSolution> {
        let (m, n) = self.g.shape();
        if v_drivers.len() != n {
            return Err(CircuitError::ShapeMismatch {
                op: "grid_solve",
                expected: n,
                got: v_drivers.len(),
            });
        }
        let gs = 1.0 / self.r_segment;
        let total = 2 * m * n;
        let mut triplets: Vec<(usize, usize, f64)> = Vec::with_capacity(10 * m * n);
        let mut rhs = vec![0.0; total];

        let stamp = |a: usize,
                     b_node: Option<usize>,
                     g_val: f64,
                     triplets: &mut Vec<(usize, usize, f64)>,
                     rhs: &mut Vec<f64>,
                     v_fixed: f64| {
            // Conductance between unknown node `a` and either unknown `b`
            // or a fixed-voltage terminal.
            triplets.push((a, a, g_val));
            match b_node {
                Some(b) => {
                    triplets.push((b, b, g_val));
                    triplets.push((a, b, -g_val));
                    triplets.push((b, a, -g_val));
                }
                None => {
                    rhs[a] += g_val * v_fixed;
                }
            }
        };

        for (j, &v_driver) in v_drivers.iter().enumerate().take(n) {
            // Driver -> first BL node.
            stamp(self.bl(0, j), None, gs, &mut triplets, &mut rhs, v_driver);
            // BL ladder.
            for i in 0..m.saturating_sub(1) {
                stamp(
                    self.bl(i, j),
                    Some(self.bl(i + 1, j)),
                    gs,
                    &mut triplets,
                    &mut rhs,
                    0.0,
                );
            }
        }
        for i in 0..m {
            // Cells.
            for j in 0..n {
                let gc = self.g[(i, j)];
                if gc > 0.0 {
                    stamp(
                        self.bl(i, j),
                        Some(self.wl(i, j)),
                        gc,
                        &mut triplets,
                        &mut rhs,
                        0.0,
                    );
                }
            }
            // WL ladder.
            for j in 0..n.saturating_sub(1) {
                stamp(
                    self.wl(i, j),
                    Some(self.wl(i, j + 1)),
                    gs,
                    &mut triplets,
                    &mut rhs,
                    0.0,
                );
            }
            // Last WL node -> sense node at 0 V.
            stamp(self.wl(i, n - 1), None, gs, &mut triplets, &mut rhs, 0.0);
        }

        let laplacian = CsrMatrix::from_triplets(total, total, &triplets)?;
        let precond = JacobiPrecond::new(&laplacian)
            .map_err(|e| CircuitError::no_op_point(format!("grid preconditioner: {e}")))?;
        let opts = IterOptions {
            max_iterations: 50_000,
            tolerance: 1e-12,
        };
        let report = conjugate_gradient(&laplacian, &rhs, None, &precond, opts)
            .map_err(|e| CircuitError::no_op_point(format!("grid CG: {e}")))?;
        let v = report.x;

        // Sense currents: through the last WL segment into the 0 V node.
        let sense_currents: Vec<f64> = (0..m).map(|i| gs * v[self.wl(i, n - 1)]).collect();

        // Power: sum over every resistor of g·Δv².
        let mut power = 0.0;
        for j in 0..n {
            power += gs * (v_drivers[j] - v[self.bl(0, j)]).powi(2);
            for i in 0..m.saturating_sub(1) {
                power += gs * (v[self.bl(i, j)] - v[self.bl(i + 1, j)]).powi(2);
            }
        }
        for i in 0..m {
            for j in 0..n {
                let gc = self.g[(i, j)];
                if gc > 0.0 {
                    power += gc * (v[self.bl(i, j)] - v[self.wl(i, j)]).powi(2);
                }
            }
            for j in 0..n.saturating_sub(1) {
                power += gs * (v[self.wl(i, j)] - v[self.wl(i, j + 1)]).powi(2);
            }
            power += gs * v[self.wl(i, n - 1)].powi(2);
        }

        Ok(GridSolution {
            sense_currents,
            power_w: power,
            iterations: report.iterations,
        })
    }
}

/// Output of an exact-grid MVM or INV computation.
#[derive(Debug, Clone, PartialEq)]
pub struct GridComputeOutput {
    /// Op-amp output voltages (physical volts).
    pub volts: Vec<f64>,
    /// Static power dissipated in both arrays (watts), excluding op-amps.
    pub array_power_w: f64,
}

/// Exact-grid MVM: drives the positive array with `v_in` and the negative
/// array with `−v_in`, sums the word-line sense currents, and converts
/// through the TIA: `v_out = −I/G₀` (ideal op-amps).
///
/// # Errors
///
/// * [`CircuitError::ShapeMismatch`] if `v_in` does not match the array
///   column count.
/// * Configuration / convergence errors from the grid solver.
pub fn mvm_exact(
    programmed: &ProgrammedMatrix,
    v_in: &[f64],
    r_segment: f64,
) -> Result<GridComputeOutput> {
    mvm_exact_conductances(
        &programmed.pos().conductances(),
        &programmed.neg().conductances(),
        programmed.g0(),
        v_in,
        r_segment,
    )
}

/// [`mvm_exact`] on conductance matrices already read off the two arrays.
///
/// # Errors
///
/// As [`mvm_exact`].
pub(crate) fn mvm_exact_conductances(
    g_pos: &Matrix,
    g_neg: &Matrix,
    g0: f64,
    v_in: &[f64],
    r_segment: f64,
) -> Result<GridComputeOutput> {
    let neg_in: Vec<f64> = v_in.iter().map(|v| -v).collect();
    let grid_p = ResistiveGrid::new(g_pos, r_segment)?;
    let grid_n = ResistiveGrid::new(g_neg, r_segment)?;
    let sol_p = grid_p.solve(v_in)?;
    let sol_n = grid_n.solve(&neg_in)?;
    let volts: Vec<f64> = sol_p
        .sense_currents
        .iter()
        .zip(&sol_n.sense_currents)
        .map(|(&ip, &in_)| -(ip + in_) / g0)
        .collect();
    Ok(GridComputeOutput {
        volts,
        array_power_w: sol_p.power_w + sol_n.power_w,
    })
}

/// Exact-grid INV: finds op-amp output voltages `v` such that the current
/// into every word-line virtual-ground node balances the injected input
/// current: `G₀·v_in + I(v) = 0`, with `I(v)` computed by exact grid
/// solves (positive array driven by `v`, negative array by `−v`).
///
/// Because the network is linear, `I(v) = M·v`; `M` is assembled column by
/// column with unit-vector drives and the resulting dense `n x n` system
/// is solved by LU. This is exact but costs `2n` grid solves — use it for
/// validation-scale arrays (the paper's two non-ideality figures use it at
/// HSPICE scale; the sweeps here use the series approximation).
/// [`crate::sim::AnalogSimulator::prepare_inv`] keeps `M` factorised for
/// repeated inputs.
///
/// # Errors
///
/// * [`CircuitError::ShapeMismatch`] if the array is not square or `v_in`
///   has the wrong length.
/// * [`CircuitError::NoOperatingPoint`] if the current-balance system is
///   singular.
pub fn inv_exact(
    programmed: &ProgrammedMatrix,
    v_in: &[f64],
    r_segment: f64,
) -> Result<GridComputeOutput> {
    let (m, n) = programmed.shape();
    if m != n {
        return Err(CircuitError::ShapeMismatch {
            op: "inv_exact (square array required)",
            expected: m,
            got: n,
        });
    }
    check_inv_input(n, v_in)?;
    ExactInvSystem::new(
        programmed.pos().conductances(),
        programmed.neg().conductances(),
        r_segment,
    )?
    .solve(programmed.g0(), v_in)
}

fn check_inv_input(n: usize, v_in: &[f64]) -> Result<()> {
    if v_in.len() != n {
        return Err(CircuitError::ShapeMismatch {
            op: "inv_exact",
            expected: n,
            got: v_in.len(),
        });
    }
    Ok(())
}

/// The input-independent half of [`inv_exact`]: the two arrays'
/// conductances and the LU factorisation of the current-balance matrix
/// `M`, assembled from `2n` unit-drive grid solves.
#[derive(Debug, Clone)]
pub(crate) struct ExactInvSystem {
    g_pos: Matrix,
    g_neg: Matrix,
    r_segment: f64,
    balance: LuFactor,
}

impl ExactInvSystem {
    /// Assembles and factorises `M` for the arrays `g_pos` / `g_neg`.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::ShapeMismatch`] if the arrays are not square or
    ///   their shapes differ.
    /// * Configuration / convergence errors from the grid solver.
    /// * [`CircuitError::NoOperatingPoint`] if `M` is singular.
    pub(crate) fn new(g_pos: Matrix, g_neg: Matrix, r_segment: f64) -> Result<Self> {
        let (m, n) = g_pos.shape();
        if m != n {
            return Err(CircuitError::ShapeMismatch {
                op: "inv_exact (square array required)",
                expected: m,
                got: n,
            });
        }
        if g_neg.shape() != (m, n) {
            return Err(CircuitError::ShapeMismatch {
                op: "inv_exact arrays",
                expected: n,
                got: g_neg.cols(),
            });
        }
        let grid_p = ResistiveGrid::new(&g_pos, r_segment)?;
        let grid_n = ResistiveGrid::new(&g_neg, r_segment)?;

        // Assemble M: column j = sense currents for unit drive on op-amp j.
        let mut m_mat = Matrix::zeros(n, n);
        let mut unit = vec![0.0; n];
        for j in 0..n {
            unit[j] = 1.0;
            let neg_unit: Vec<f64> = unit.iter().map(|v| -v).collect();
            let sol_p = grid_p.solve(&unit)?;
            let sol_n = grid_n.solve(&neg_unit)?;
            for i in 0..n {
                m_mat[(i, j)] = sol_p.sense_currents[i] + sol_n.sense_currents[i];
            }
            unit[j] = 0.0;
        }
        let balance = LuFactor::new(&m_mat)
            .map_err(|e| CircuitError::no_op_point(format!("INV current-balance system: {e}")))?;
        Ok(ExactInvSystem {
            g_pos,
            g_neg,
            r_segment,
            balance,
        })
    }

    /// Solves `M·v = −G₀·v_in` for the operating point, then re-solves
    /// both grids there for the power figure.
    ///
    /// # Errors
    ///
    /// * [`CircuitError::ShapeMismatch`] if `v_in` has the wrong length.
    /// * Convergence errors from the grid solver.
    pub(crate) fn solve(&self, g0: f64, v_in: &[f64]) -> Result<GridComputeOutput> {
        check_inv_input(self.balance.dim(), v_in)?;
        let rhs: Vec<f64> = v_in.iter().map(|&b| -g0 * b).collect();
        let volts = self.balance.solve(&rhs)?;

        // Re-solve the grids at the operating point for the power figure.
        let neg_volts: Vec<f64> = volts.iter().map(|v| -v).collect();
        let sol_p = ResistiveGrid::new(&self.g_pos, self.r_segment)?.solve(&volts)?;
        let sol_n = ResistiveGrid::new(&self.g_neg, self.r_segment)?.solve(&neg_volts)?;
        // Input-resistor dissipation: G₀ between v_in and the virtual ground.
        let input_power: f64 = v_in.iter().map(|&b| g0 * b * b).sum();
        Ok(GridComputeOutput {
            volts,
            array_power_w: sol_p.power_w + sol_n.power_w + input_power,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_device::mapping::MappingConfig;
    use amc_device::variation::VariationModel;
    use amc_linalg::vector;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn program(a: &Matrix) -> ProgrammedMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        ProgrammedMatrix::program(
            a,
            &MappingConfig::paper_default(),
            &VariationModel::None,
            &mut rng,
        )
        .unwrap()
    }

    #[test]
    fn construction_validation() {
        let g = Matrix::filled(2, 2, 1e-4);
        assert!(ResistiveGrid::new(&g, 1.0).is_ok());
        assert!(ResistiveGrid::new(&g, 0.0).is_err());
        assert!(ResistiveGrid::new(&g, -1.0).is_err());
        let neg = Matrix::from_rows(&[&[-1e-4]]).unwrap();
        assert!(ResistiveGrid::new(&neg, 1.0).is_err());
    }

    #[test]
    fn single_cell_matches_series_formula() {
        // 1x1 array: driver -(r)- bl -(cell g)- wl -(r)- ground.
        // I = v / (2r + 1/g); sense current must match exactly.
        let g = Matrix::filled(1, 1, 1e-4);
        let grid = ResistiveGrid::new(&g, 2.5).unwrap();
        let sol = grid.solve(&[0.5]).unwrap();
        let expected = 0.5 / (2.0 * 2.5 + 1e4);
        assert!(
            (sol.sense_currents[0] - expected).abs() < 1e-12,
            "got {} want {}",
            sol.sense_currents[0],
            expected
        );
        // Power = v*I for a series chain.
        assert!((sol.power_w - 0.5 * expected).abs() < 1e-12);
    }

    #[test]
    fn tiny_wire_resistance_approaches_ideal_mvm() {
        let a = Matrix::from_rows(&[&[1.0, 0.5], &[0.25, 0.75]]).unwrap();
        let p = program(&a);
        let v_in = [0.3, -0.2];
        let out = mvm_exact(&p, &v_in, 1e-6).unwrap();
        // Ideal: v_out = -(A/scale)·v_in (normalized matrix = A/scale).
        let ideal = p.normalized_matrix().matvec(&v_in).unwrap();
        let expect: Vec<f64> = ideal.iter().map(|v| -v).collect();
        assert!(vector::approx_eq(&out.volts, &expect, 1e-6));
    }

    #[test]
    fn wire_resistance_attenuates_mvm_output() {
        let a = Matrix::filled(4, 4, 1.0);
        let p = program(&a);
        let v_in = [0.25; 4];
        let near_ideal = mvm_exact(&p, &v_in, 1e-6).unwrap();
        let resistive = mvm_exact(&p, &v_in, 50.0).unwrap();
        for (r, i) in resistive.volts.iter().zip(&near_ideal.volts) {
            assert!(r.abs() < i.abs(), "wire resistance must attenuate");
        }
    }

    #[test]
    fn inv_exact_solves_system_at_tiny_resistance() {
        let a = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.5]]).unwrap();
        let p = program(&a);
        let b = [0.4, -0.3];
        let out = inv_exact(&p, &b, 1e-6).unwrap();
        // v = -(A/scale)^{-1} b => A·(-v·(1/scale)^{-1}) ... check via
        // normalized matrix: Ĝ·v = -b.
        let back = p.normalized_matrix().matvec(&out.volts).unwrap();
        for (g, want) in back.iter().zip(&b) {
            assert!((g + want).abs() < 1e-6, "Ĝv = -b violated: {g} vs {want}");
        }
        assert!(out.array_power_w > 0.0);
    }

    #[test]
    fn inv_exact_requires_square() {
        let a = Matrix::from_rows(&[&[1.0, 0.5, 0.2], &[0.1, 2.0, 0.3]]).unwrap();
        let p = program(&a);
        assert!(inv_exact(&p, &[1.0, 1.0, 1.0], 1.0).is_err());
        let sq = Matrix::identity(2);
        let p = program(&sq);
        assert!(inv_exact(&p, &[1.0], 1.0).is_err());
    }

    #[test]
    fn grid_solve_validates_driver_length() {
        let g = Matrix::filled(2, 3, 1e-4);
        let grid = ResistiveGrid::new(&g, 1.0).unwrap();
        assert!(grid.solve(&[1.0, 1.0]).is_err());
    }

    #[test]
    fn deselected_row_draws_no_current() {
        let g = Matrix::from_rows(&[&[1e-4, 1e-4], &[0.0, 0.0]]).unwrap();
        let grid = ResistiveGrid::new(&g, 1.0).unwrap();
        let sol = grid.solve(&[0.5, 0.5]).unwrap();
        assert!(sol.sense_currents[0] > 1e-6);
        assert!(sol.sense_currents[1].abs() < 1e-15);
    }

    #[test]
    fn superposition_holds() {
        // The grid is linear: solve(v1 + v2) = solve(v1) + solve(v2).
        let g = Matrix::filled(3, 3, 5e-5);
        let grid = ResistiveGrid::new(&g, 2.0).unwrap();
        let v1 = [0.1, 0.0, 0.3];
        let v2 = [0.0, -0.2, 0.1];
        let sum: Vec<f64> = v1.iter().zip(&v2).map(|(a, b)| a + b).collect();
        let s1 = grid.solve(&v1).unwrap();
        let s2 = grid.solve(&v2).unwrap();
        let s12 = grid.solve(&sum).unwrap();
        for i in 0..3 {
            assert!(
                (s12.sense_currents[i] - s1.sense_currents[i] - s2.sense_currents[i]).abs() < 1e-12
            );
        }
    }
}
