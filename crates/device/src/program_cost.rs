//! Programming (write-and-verify) time and energy model.
//!
//! BlockAMC's Schur complement `A4s` "should be calculated in advance,
//! and stored in a crosspoint RRAM array, which may cause a pre-processing
//! overhead" (paper §III.A). This module quantifies that overhead: how
//! many write pulses, how much time, and how much energy it takes to
//! program an array with a write-and-verify loop.
//!
//! The model: each cell needs a number of program/verify iterations that
//! grows with the demanded relative accuracy (empirically
//! `~log(1/accuracy)` pulses for tuned analog RRAM — Seo et al. 2011,
//! Park et al. 2016 report tens of pulses for percent-level targets).
//! Deselected cells cost nothing.

use amc_linalg::Matrix;

use crate::{DeviceError, Result};

/// Write-and-verify cost parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ProgramCostModel {
    /// Duration of one program pulse plus its verify read, seconds.
    pub pulse_s: f64,
    /// Energy of one program pulse, joules (verify read energy included).
    pub pulse_j: f64,
    /// Pulses needed per decade of relative accuracy: a cell tuned to
    /// relative accuracy `acc` needs `pulses_per_decade · log10(1/acc)`
    /// pulses (at least one).
    pub pulses_per_decade: f64,
}

impl ProgramCostModel {
    /// Representative analog-RRAM values: 100 ns program+verify cycle,
    /// 1 pJ per pulse, ~13 pulses per decade (≈ 26 pulses to reach the
    /// paper's 5% write accuracy — the "tens of pulses" regime of the
    /// write-verify literature).
    pub fn typical_rram() -> Self {
        ProgramCostModel {
            pulse_s: 1e-7,
            pulse_j: 1e-12,
            pulses_per_decade: 13.0,
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidConfig`] for non-positive values.
    pub fn validate(&self) -> Result<()> {
        if [self.pulse_s, self.pulse_j, self.pulses_per_decade]
            .iter()
            .all(|v| v.is_finite() && *v > 0.0)
        {
            Ok(())
        } else {
            Err(DeviceError::config(
                "program cost parameters must be positive and finite",
            ))
        }
    }

    /// Pulses needed to tune one cell to the given relative accuracy.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidConfig`] unless `0 < accuracy < 1`.
    pub(crate) fn pulses_per_cell(&self, accuracy: f64) -> Result<f64> {
        self.validate()?;
        if !(accuracy > 0.0 && accuracy < 1.0) {
            return Err(DeviceError::config(format!(
                "write accuracy must lie in (0, 1), got {accuracy}"
            )));
        }
        Ok((self.pulses_per_decade * (1.0 / accuracy).log10()).max(1.0))
    }
}

/// Cost of programming one array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramCost {
    /// Cells that actually receive pulses (non-zero targets).
    pub programmed_cells: usize,
    /// Total write pulses issued.
    pub total_pulses: f64,
    /// Programming time assuming row-parallel writes (all cells of a row
    /// tuned concurrently, rows sequenced), seconds.
    pub time_row_parallel_s: f64,
    /// Programming time with strictly serial per-cell writes, seconds.
    pub time_serial_s: f64,
    /// Total programming energy, joules.
    pub energy_j: f64,
}

/// Estimates the cost of programming the conductance targets `g_targets`
/// (zeros = deselected, free) to the given relative accuracy.
///
/// # Errors
///
/// Propagates parameter/accuracy validation failures.
pub fn program_cost(
    g_targets: &Matrix,
    accuracy: f64,
    model: &ProgramCostModel,
) -> Result<ProgramCost> {
    let per_cell = model.pulses_per_cell(accuracy)?;
    let mut programmed = 0usize;
    let mut max_row_cells = 0usize;
    for i in 0..g_targets.rows() {
        let row_cells = g_targets.row(i).iter().filter(|&&v| v != 0.0).count();
        programmed += row_cells;
        max_row_cells = max_row_cells.max(row_cells);
    }
    let total_pulses = per_cell * programmed as f64;
    Ok(ProgramCost {
        programmed_cells: programmed,
        total_pulses,
        // Row-parallel: each row costs `per_cell` pulse slots regardless of
        // how many of its cells are active (they tune concurrently).
        time_row_parallel_s: g_targets.rows() as f64 * per_cell * model.pulse_s,
        time_serial_s: total_pulses * model.pulse_s,
        energy_j: total_pulses * model.pulse_j,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typical_model_validates() {
        let m = ProgramCostModel::typical_rram();
        assert!(m.validate().is_ok());
        // 5% accuracy ≈ 1.3 decades ≈ 17 pulses.
        let p = m.pulses_per_cell(0.05).unwrap();
        assert!(p > 10.0 && p < 30.0, "pulses {p}");
    }

    #[test]
    fn tighter_accuracy_needs_more_pulses() {
        let m = ProgramCostModel::typical_rram();
        let loose = m.pulses_per_cell(0.1).unwrap();
        let tight = m.pulses_per_cell(0.001).unwrap();
        assert!(tight > 2.5 * loose);
        assert!(m.pulses_per_cell(0.0).is_err());
        assert!(m.pulses_per_cell(1.0).is_err());
    }

    #[test]
    fn deselected_cells_are_free() {
        let m = ProgramCostModel::typical_rram();
        let mut g = Matrix::zeros(4, 4);
        g[(0, 0)] = 1e-4;
        g[(2, 3)] = 5e-5;
        let c = program_cost(&g, 0.05, &m).unwrap();
        assert_eq!(c.programmed_cells, 2);
        let full = program_cost(&Matrix::filled(4, 4, 1e-4), 0.05, &m).unwrap();
        assert!(full.energy_j > 7.0 * c.energy_j);
    }

    #[test]
    fn row_parallel_is_faster_than_serial() {
        let m = ProgramCostModel::typical_rram();
        let g = Matrix::filled(8, 8, 1e-4);
        let c = program_cost(&g, 0.05, &m).unwrap();
        assert!(c.time_row_parallel_s < c.time_serial_s);
        // Row-parallel time scales with rows, serial with cells.
        assert!((c.time_serial_s / c.time_row_parallel_s - 8.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_model_rejected() {
        let mut m = ProgramCostModel::typical_rram();
        m.pulse_s = 0.0;
        assert!(m.validate().is_err());
        assert!(program_cost(&Matrix::filled(2, 2, 1e-4), 0.05, &m).is_err());
    }

    #[test]
    fn blockamc_preprocessing_overhead_is_quantifiable() {
        // The pre-processing story: programming the Schur array costs the
        // same as any other block of equal occupancy — the overhead is the
        // digital Schur computation plus one extra array program.
        let m = ProgramCostModel::typical_rram();
        let a4s = Matrix::filled(16, 16, 5e-5);
        let c = program_cost(&a4s, 0.05, &m).unwrap();
        assert!(c.time_row_parallel_s < 1e-3, "sub-millisecond programming");
        assert!(c.energy_j < 1e-8);
    }
}
