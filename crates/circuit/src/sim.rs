//! The [`AnalogSimulator`] facade: one entry point for simulating an AMC
//! operation end to end (interconnect transformation → circuit equilibrium
//! → saturation check → power and timing estimates).
//!
//! # Voltage vs mathematical value
//!
//! The circuits operate on *normalized* matrices (`Ĝ = A/scale` after the
//! mapping stage), so physical output voltages differ from the
//! mathematical result by the mapping scale:
//!
//! * MVM: `volts = −Ĝ·v_in` ⇒ mathematical value = `volts · scale`
//!   (equals `−A·x`).
//! * INV: `volts = −Ĝ⁻¹·v_in` ⇒ mathematical value = `volts / scale`
//!   (equals `−A⁻¹·b`).
//!
//! [`CircuitOutput`] carries both; the AMC minus sign is preserved in each
//! (the BlockAMC algorithm exploits those signs, see the paper's Fig. 2).

use amc_device::array::ProgrammedMatrix;
use amc_linalg::{lu::LuFactor, Matrix};

use crate::interconnect::{series_effective_conductances, InterconnectModel};
use crate::opamp::{GainModel, OpAmpSpec};
use crate::{grid, inv, mvm, power, timing, CircuitError, Result};

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SimConfig {
    /// Op-amp model (gain, GBWP, supply, quiescent current).
    pub opamp: OpAmpSpec,
    /// Wire-resistance model.
    pub interconnect: InterconnectModel,
    /// If `true`, outputs beyond the op-amp supply rails fail the
    /// simulation with [`CircuitError::OutputSaturated`].
    pub check_saturation: bool,
    /// Settling accuracy target used by the timing estimates.
    pub settle_epsilon: f64,
}

impl SimConfig {
    /// Fully ideal circuit: infinite-gain op-amps, perfect wires, no rail
    /// checks. With ideal device programming this reproduces the numerical
    /// solver exactly — useful as a self-check.
    pub fn ideal() -> Self {
        SimConfig {
            opamp: OpAmpSpec::ideal(),
            interconnect: InterconnectModel::Ideal,
            check_saturation: false,
            settle_epsilon: timing::DEFAULT_SETTLE_EPSILON,
        }
    }

    /// The paper's circuit non-idealities: finite-gain 45 nm op-amps and
    /// 1 Ω/segment interconnect (series approximation for speed).
    pub fn paper_nonideal() -> Self {
        SimConfig {
            opamp: OpAmpSpec::default_45nm(),
            interconnect: InterconnectModel::paper_default(),
            check_saturation: false,
            settle_epsilon: timing::DEFAULT_SETTLE_EPSILON,
        }
    }

    /// Finite-gain op-amps with ideal wires — the configuration behind the
    /// paper's "ideal mapping" Fig. 6 accuracy study.
    pub fn finite_gain_only() -> Self {
        SimConfig {
            opamp: OpAmpSpec::default_45nm(),
            interconnect: InterconnectModel::Ideal,
            check_saturation: false,
            settle_epsilon: timing::DEFAULT_SETTLE_EPSILON,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for invalid op-amp or
    /// interconnect parameters, an out-of-range `settle_epsilon`, or the
    /// unsupported combination of exact-grid interconnect with finite-gain
    /// op-amps (the grid solver assumes ideal virtual grounds).
    pub(crate) fn validate(&self) -> Result<()> {
        self.opamp.validate()?;
        self.interconnect.validate()?;
        if !(self.settle_epsilon > 0.0 && self.settle_epsilon < 1.0) {
            return Err(CircuitError::config("settle_epsilon must lie in (0, 1)"));
        }
        if self.interconnect.is_exact_grid() && self.opamp.gain != GainModel::Ideal {
            return Err(CircuitError::config(
                "exact-grid interconnect requires ideal op-amps \
                 (the grid formulation assumes perfect virtual grounds)",
            ));
        }
        Ok(())
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_nonideal()
    }
}

/// Result of one simulated AMC operation.
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitOutput {
    /// Mathematical result including the AMC minus sign
    /// (`−A·x` for MVM, `−A⁻¹·b` for INV).
    pub values: Vec<f64>,
    /// Physical op-amp output voltages.
    pub volts: Vec<f64>,
    /// Static power at the operating point, in watts (arrays + resistors +
    /// op-amp quiescent).
    pub power_w: f64,
    /// Estimated settling time, in seconds.
    pub settle_time_s: f64,
}

/// End-to-end simulator of AMC operations on programmed arrays.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalogSimulator {
    config: SimConfig,
}

impl AnalogSimulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Does not panic: invalid configurations are reported by the
    /// operation methods (validation is re-run per call so a config edited
    /// in place cannot bypass it).
    pub fn new(config: SimConfig) -> Self {
        AnalogSimulator { config }
    }

    /// Borrows the configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Effective per-array conductances after the interconnect model.
    fn effective_conductances(&self, p: &ProgrammedMatrix) -> Result<(Matrix, Matrix)> {
        match self.config.interconnect {
            InterconnectModel::Ideal | InterconnectModel::ExactGrid { .. } => {
                Ok((p.pos().conductances(), p.neg().conductances()))
            }
            InterconnectModel::SeriesApprox { r_segment } => Ok((
                series_effective_conductances(&p.pos().conductances(), r_segment)?,
                series_effective_conductances(&p.neg().conductances(), r_segment)?,
            )),
        }
    }

    /// Simulates an MVM operation: returns `−A·x` (mathematically) for the
    /// matrix `A` represented by `programmed`. One-shot form of
    /// [`AnalogSimulator::prepare_mvm`] + [`PreparedMvm::apply`].
    ///
    /// # Errors
    ///
    /// Shape (checked first), configuration, convergence, and (if
    /// enabled) saturation errors.
    pub fn mvm(&self, programmed: &ProgrammedMatrix, x: &[f64]) -> Result<CircuitOutput> {
        check_mvm_input(programmed, x)?;
        self.prepare_mvm(programmed)?.apply(x)
    }

    /// Simulates an INV operation: returns `−A⁻¹·b` (mathematically) for
    /// the matrix `A` represented by `programmed` — i.e. solves `A·x = b`
    /// in one step, with the AMC minus sign. One-shot form of
    /// [`AnalogSimulator::prepare_inv`] + [`PreparedInv::apply`].
    ///
    /// # Errors
    ///
    /// Shape (checked first), configuration, operating-point, and (if
    /// enabled) saturation errors.
    pub fn inv(&self, programmed: &ProgrammedMatrix, b: &[f64]) -> Result<CircuitOutput> {
        check_inv_input(programmed, b)?;
        self.prepare_inv(programmed)?.apply(b)
    }

    /// Everything an MVM on `programmed` computes before it sees an
    /// input: the effective conductances, the per-row TIA denominators
    /// and the settling time. Costs O(m·n).
    ///
    /// # Errors
    ///
    /// Configuration and shape errors.
    pub fn prepare_mvm(&self, programmed: &ProgrammedMatrix) -> Result<PreparedMvm> {
        self.config.validate()?;
        let g0 = programmed.g0();
        let (gp, gn) = self.effective_conductances(programmed)?;
        let g_sum = gp.add_matrix(&gn)?;
        let max_row = g_sum.norm_inf() / g0;
        let kernel = match self.config.interconnect {
            InterconnectModel::ExactGrid { r_segment } => MvmKernel::Grid {
                g_pos: gp,
                g_neg: gn,
                r_segment,
            },
            _ => MvmKernel::Analytic {
                denominators: mvm::row_denominators(&gp, &gn, g0, self.config.opamp.gain)?,
                g_diff: gp.sub_matrix(&gn)?,
                g_sum,
            },
        };
        let settle_time_s =
            timing::mvm_settle_time(max_row, &self.config.opamp, self.config.settle_epsilon)?;
        Ok(PreparedMvm {
            kernel,
            config: self.config,
            g0,
            scale: programmed.scale(),
            settle_time_s,
        })
    }

    /// Everything an INV on `programmed` computes before it sees an
    /// input: the effective conductances, the factorised feedback system
    /// and the settling time. Costs O(n³) (the exact grid adds `2n` grid
    /// solves); each [`PreparedInv::apply`] then costs O(n²).
    ///
    /// # Errors
    ///
    /// Configuration and shape errors, and
    /// [`CircuitError::NoOperatingPoint`] if the feedback system or the
    /// settling-time estimate finds the array singular.
    pub fn prepare_inv(&self, programmed: &ProgrammedMatrix) -> Result<PreparedInv> {
        self.config.validate()?;
        let g0 = programmed.g0();
        let (gp, gn) = self.effective_conductances(programmed)?;
        let g_hat = gp.sub_matrix(&gn)?.scaled(1.0 / g0);
        let kernel = match self.config.interconnect {
            InterconnectModel::ExactGrid { r_segment } => {
                InvKernel::Grid(grid::ExactInvSystem::new(gp, gn, r_segment)?)
            }
            _ => InvKernel::Analytic {
                system: inv::inv_system(&gp, &gn, g0, self.config.opamp.gain)?,
                g_sum: gp.add_matrix(&gn)?,
            },
        };
        // The settling estimate runs after the feedback system so that a
        // singular array reports the feedback system's error, not the
        // eigen-estimate's.
        let settle_time_s =
            timing::inv_settle_time(&g_hat, &self.config.opamp, self.config.settle_epsilon)?;
        Ok(PreparedInv {
            kernel,
            config: self.config,
            g0,
            scale: programmed.scale(),
            settle_time_s,
        })
    }
}

/// Rejects an MVM input whose length is not `programmed`'s column count
/// — the check [`PreparedMvm::apply`] makes, available before preparing.
///
/// # Errors
///
/// [`CircuitError::ShapeMismatch`].
pub fn check_mvm_input(programmed: &ProgrammedMatrix, x: &[f64]) -> Result<()> {
    check_len("mvm input", programmed.shape().1, x.len())
}

/// Rejects an INV input whose length is not `programmed`'s row count —
/// the check [`PreparedInv::apply`] makes, available before preparing.
///
/// # Errors
///
/// [`CircuitError::ShapeMismatch`].
pub fn check_inv_input(programmed: &ProgrammedMatrix, b: &[f64]) -> Result<()> {
    check_len("inv input", programmed.shape().0, b.len())
}

fn check_len(op: &'static str, expected: usize, got: usize) -> Result<()> {
    if got != expected {
        return Err(CircuitError::ShapeMismatch { op, expected, got });
    }
    Ok(())
}

#[derive(Debug, Clone)]
enum MvmKernel {
    /// Ideal or series-approximated wires: the closed-form TIA outputs.
    Analytic {
        g_diff: Matrix,
        g_sum: Matrix,
        denominators: Vec<f64>,
    },
    /// Exact resistive grid: two grid solves per input.
    Grid {
        g_pos: Matrix,
        g_neg: Matrix,
        r_segment: f64,
    },
}

/// The input-independent state of MVM operations on one programmed array,
/// built by [`AnalogSimulator::prepare_mvm`]. [`PreparedMvm::apply`]
/// returns the same [`CircuitOutput`], bit for bit, as
/// [`AnalogSimulator::mvm`].
#[derive(Debug, Clone)]
pub struct PreparedMvm {
    kernel: MvmKernel,
    config: SimConfig,
    g0: f64,
    scale: f64,
    settle_time_s: f64,
}

impl PreparedMvm {
    /// The simulator configuration this state was prepared under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates the MVM for input `x`.
    ///
    /// # Errors
    ///
    /// Shape, grid-convergence, and (if enabled) saturation errors.
    pub fn apply(&self, x: &[f64]) -> Result<CircuitOutput> {
        let opamp = &self.config.opamp;
        let (volts, power_w) = match &self.kernel {
            MvmKernel::Analytic {
                g_diff,
                g_sum,
                denominators,
            } => {
                check_len("mvm input", g_diff.cols(), x.len())?;
                let volts = mvm::apply_mvm(g_diff, denominators, x);
                let power_w = power::operating_point_power(g_sum, self.g0, x, &volts, opamp);
                (volts, power_w)
            }
            MvmKernel::Grid {
                g_pos,
                g_neg,
                r_segment,
            } => {
                let out = grid::mvm_exact_conductances(g_pos, g_neg, self.g0, x, *r_segment)?;
                let power_w = out.array_power_w + g_pos.rows() as f64 * opamp.static_power_w();
                (out.volts, power_w)
            }
        };
        if self.config.check_saturation {
            opamp.check_saturation(&volts)?;
        }
        Ok(CircuitOutput {
            values: volts.iter().map(|v| v * self.scale).collect(),
            volts,
            power_w,
            settle_time_s: self.settle_time_s,
        })
    }
}

#[derive(Debug, Clone)]
enum InvKernel {
    /// Ideal or series-approximated wires: the factorised `Ĝ + D̂/a₀` and
    /// `G⁺ + G⁻` for the power sum.
    Analytic { system: LuFactor, g_sum: Matrix },
    /// Exact resistive grid: the factorised current-balance matrix.
    Grid(grid::ExactInvSystem),
}

/// The input-independent state of INV operations on one programmed array,
/// built by [`AnalogSimulator::prepare_inv`]. [`PreparedInv::apply`]
/// returns the same [`CircuitOutput`], bit for bit, as
/// [`AnalogSimulator::inv`].
#[derive(Debug, Clone)]
pub struct PreparedInv {
    kernel: InvKernel,
    config: SimConfig,
    g0: f64,
    scale: f64,
    settle_time_s: f64,
}

impl PreparedInv {
    /// The simulator configuration this state was prepared under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Simulates the INV for input `b`.
    ///
    /// # Errors
    ///
    /// Shape, grid-convergence, and (if enabled) saturation errors.
    pub fn apply(&self, b: &[f64]) -> Result<CircuitOutput> {
        let opamp = &self.config.opamp;
        let (volts, power_w) = match &self.kernel {
            InvKernel::Analytic { system, g_sum } => {
                check_len("inv input", system.dim(), b.len())?;
                let rhs: Vec<f64> = b.iter().map(|&v| -v).collect();
                let volts = system.solve(&rhs)?;
                let power_w = power::operating_point_power(g_sum, self.g0, &volts, b, opamp);
                (volts, power_w)
            }
            InvKernel::Grid(system) => {
                let out = system.solve(self.g0, b)?;
                let rows = out.volts.len() as f64;
                (out.volts, out.array_power_w + rows * opamp.static_power_w())
            }
        };
        if self.config.check_saturation {
            opamp.check_saturation(&volts)?;
        }
        Ok(CircuitOutput {
            values: volts.iter().map(|v| v / self.scale).collect(),
            volts,
            power_w,
            settle_time_s: self.settle_time_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_device::mapping::MappingConfig;
    use amc_device::variation::VariationModel;
    use amc_linalg::{lu, vector};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn program(a: &Matrix, seed: u64) -> ProgrammedMatrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        ProgrammedMatrix::program(
            a,
            &MappingConfig::paper_default(),
            &VariationModel::None,
            &mut rng,
        )
        .unwrap()
    }

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.5]]).unwrap()
    }

    #[test]
    fn ideal_mvm_matches_mathematics() {
        let a = sample();
        let p = program(&a, 1);
        let sim = AnalogSimulator::new(SimConfig::ideal());
        let x = [0.3, -0.1];
        let out = sim.mvm(&p, &x).unwrap();
        let expect: Vec<f64> = a.matvec(&x).unwrap().iter().map(|v| -v).collect();
        assert!(vector::approx_eq(&out.values, &expect, 1e-12));
        assert!(out.power_w > 0.0);
        assert!(out.settle_time_s > 0.0);
    }

    #[test]
    fn ideal_inv_matches_numerical_solver() {
        let a = sample();
        let p = program(&a, 2);
        let sim = AnalogSimulator::new(SimConfig::ideal());
        let b = [0.4, 0.1];
        let out = sim.inv(&p, &b).unwrap();
        let x_num = lu::solve(&a, &b).unwrap();
        let expect: Vec<f64> = x_num.iter().map(|v| -v).collect();
        assert!(vector::approx_eq(&out.values, &expect, 1e-10));
    }

    #[test]
    fn volts_and_values_differ_by_scale() {
        let a = sample(); // scale = 2
        let p = program(&a, 3);
        let sim = AnalogSimulator::new(SimConfig::ideal());
        let out_mvm = sim.mvm(&p, &[0.1, 0.2]).unwrap();
        for (val, v) in out_mvm.values.iter().zip(&out_mvm.volts) {
            assert!((val - v * 2.0).abs() < 1e-15);
        }
        let out_inv = sim.inv(&p, &[0.1, 0.2]).unwrap();
        for (val, v) in out_inv.values.iter().zip(&out_inv.volts) {
            assert!((val - v / 2.0).abs() < 1e-15);
        }
    }

    #[test]
    fn finite_gain_perturbs_inv_solution() {
        let a = sample();
        let p = program(&a, 4);
        let ideal = AnalogSimulator::new(SimConfig::ideal());
        let finite = AnalogSimulator::new(SimConfig::finite_gain_only());
        let b = [0.4, 0.1];
        let vi = ideal.inv(&p, &b).unwrap();
        let vf = finite.inv(&p, &b).unwrap();
        let err = amc_linalg::metrics::relative_error(&vi.values, &vf.values);
        assert!(err > 1e-6 && err < 1e-2, "err={err}");
    }

    #[test]
    fn series_interconnect_perturbs_and_exact_grid_agrees_roughly() {
        let a = sample();
        let p = program(&a, 5);
        let b = [0.3, 0.2];
        let ideal = AnalogSimulator::new(SimConfig::ideal());
        let mut cfg = SimConfig::ideal();
        cfg.interconnect = InterconnectModel::SeriesApprox { r_segment: 20.0 };
        let series = AnalogSimulator::new(cfg);
        let mut cfg = SimConfig::ideal();
        cfg.interconnect = InterconnectModel::ExactGrid { r_segment: 20.0 };
        let exact = AnalogSimulator::new(cfg);

        let vi = ideal.inv(&p, &b).unwrap();
        let vs = series.inv(&p, &b).unwrap();
        let ve = exact.inv(&p, &b).unwrap();
        let e_series = amc_linalg::metrics::relative_error(&vi.values, &vs.values);
        let e_exact = amc_linalg::metrics::relative_error(&vi.values, &ve.values);
        assert!(e_series > 1e-6, "series model must perturb");
        assert!(e_exact > 1e-6, "exact model must perturb");
        // The approximation should agree with the exact model within ~3x
        // on this small array.
        let ratio = e_series / e_exact;
        assert!(
            (0.3..3.0).contains(&ratio),
            "series vs exact ratio {ratio} (e_series={e_series}, e_exact={e_exact})"
        );
    }

    #[test]
    fn exact_grid_with_finite_gain_is_rejected() {
        let mut cfg = SimConfig::paper_nonideal();
        cfg.interconnect = InterconnectModel::ExactGrid { r_segment: 1.0 };
        let sim = AnalogSimulator::new(cfg);
        let p = program(&sample(), 6);
        assert!(matches!(
            sim.inv(&p, &[0.1, 0.1]),
            Err(CircuitError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn saturation_check_trips() {
        // Near-singular matrix drives huge outputs.
        let a = Matrix::from_rows(&[&[1.0, 0.999], &[0.999, 1.0]]).unwrap();
        let p = program(&a, 7);
        let mut cfg = SimConfig::ideal();
        cfg.check_saturation = true;
        let sim = AnalogSimulator::new(cfg);
        let err = sim.inv(&p, &[1.0, -1.0]);
        assert!(matches!(err, Err(CircuitError::OutputSaturated { .. })));
    }

    #[test]
    fn default_config_is_paper_nonideal() {
        assert_eq!(SimConfig::default(), SimConfig::paper_nonideal());
        assert!(SimConfig::default().validate().is_ok());
        assert!(SimConfig::ideal().validate().is_ok());
    }

    #[test]
    fn invalid_epsilon_rejected() {
        let mut cfg = SimConfig::ideal();
        cfg.settle_epsilon = 0.0;
        assert!(cfg.validate().is_err());
    }
}
