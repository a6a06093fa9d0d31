//! The one-stage BlockAMC solver: the paper's five-step algorithm.
//!
//! Given the partition `A = [[A1, A2], [A3, A4]]`, the pre-computed Schur
//! complement `A4s`, and `b = [f; g]`, the solver executes (Fig. 2 /
//! Algorithm 1), tracking the AMC minus signs exactly as hardware
//! produces them:
//!
//! | Step | Operation             | Output                              |
//! |------|-----------------------|-------------------------------------|
//! | 1    | INV(A1, f)            | `−y_t = −A1⁻¹·f`                    |
//! | 2    | MVM(A3, −y_t)         | `g_t = A3·y_t`                      |
//! | 3    | INV(A4s, g_t − g)     | `z = A4s⁻¹·(g − g_t)` (bottom of x) |
//! | 4    | MVM(A2, z)            | `−f_t = −A2·z`                      |
//! | 5    | INV(A1, f − f_t)      | `−y` (upper of x, negated)          |
//!
//! Block `A1` is used in steps 1 and 5 **on the same programmed array**
//! (its variation draw is shared), matching the paper's macro in which
//! "the A1 array should be used twice".
//!
//! Signals cascade through sample-and-hold buffers between steps; external
//! inputs (`f`, `g`) enter through the DAC and the solution parts (`z`,
//! `−y`) leave through the ADC — see [`crate::converter::IoConfig`].
//!
//! **Migration note:** this module is the low-level execution layer.
//! Prefer the builder facade —
//! `SolverConfig::builder().stages(Stages::One).io(io)` followed by
//! [`crate::solver::BlockAmcSolver::prepare`] — which is pinned
//! bit-identical to these functions and adds searched splits, per-level
//! signal plans, and multi-RHS batching (see the crate-level migration
//! table).

use amc_linalg::{vector, Matrix};

use crate::converter::IoConfig;
use crate::engine::{AmcEngine, Operand};
use crate::multi_stage::{run_cascade, InvExec, LevelIo, SignalPath, TraceLog};
use crate::partition::BlockPartition;
use crate::Result;

/// Identifies one of the five algorithm steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepId {
    /// Step 1: INV with `A1` and `f`.
    Inv1,
    /// Step 2: MVM with `A3`.
    Mvm2,
    /// Step 3: INV with `A4s`.
    Inv3,
    /// Step 4: MVM with `A2`.
    Mvm4,
    /// Step 5: INV with `A1` again.
    Inv5,
}

impl std::fmt::Display for StepId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StepId::Inv1 => "step 1 (INV A1)",
            StepId::Mvm2 => "step 2 (MVM A3)",
            StepId::Inv3 => "step 3 (INV A4s)",
            StepId::Mvm4 => "step 4 (MVM A2)",
            StepId::Inv5 => "step 5 (INV A1)",
        };
        f.write_str(s)
    }
}

/// Input/output record of one executed step (Fig. 6(a) plots exactly
/// these signals against their numerical references).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Which step this record describes.
    pub step: StepId,
    /// The analog input vector fed to the array.
    pub input: Vec<f64>,
    /// The analog output vector produced.
    pub output: Vec<f64>,
}

/// Result of a one-stage solve.
#[derive(Debug, Clone, PartialEq)]
pub struct OneStageSolution {
    /// The recovered solution of `A·x = b`.
    pub x: Vec<f64>,
    /// Per-step signal trace.
    pub trace: Vec<StepRecord>,
}

/// A partition whose blocks have been programmed onto engine operands.
///
/// Create once with [`prepare`], then [`solve`] any number of right-hand
/// sides against the same programmed arrays.
#[derive(Debug, Clone)]
pub struct PreparedOneStage {
    split: usize,
    n: usize,
    a1: Operand,
    /// `None` when `A2` is a zero block (step 4 is skipped; `f_t = 0`).
    a2: Option<Operand>,
    /// `None` when `A3` is a zero block (step 2 is skipped; `g_t = 0`).
    a3: Option<Operand>,
    a4s: Operand,
}

impl PreparedOneStage {
    /// The split index (size of `A1`).
    pub fn split(&self) -> usize {
        self.split
    }

    /// Full problem size `n`.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Mutable access to the programmed `A1` operand (for diagnostics).
    pub fn a1_operand(&self) -> &Operand {
        &self.a1
    }

    /// Mutable access to the programmed `A4s` operand (for diagnostics).
    pub fn a4s_operand(&self) -> &Operand {
        &self.a4s
    }
}

/// Computes the Schur complement digitally and programs all blocks onto
/// the engine.
///
/// # Errors
///
/// Propagates Schur (singular `A1`) and programming failures.
pub fn prepare<E: AmcEngine + ?Sized>(
    engine: &mut E,
    partition: &BlockPartition,
) -> Result<PreparedOneStage> {
    let a4s = partition.schur_complement()?;
    let a1 = engine.program(&partition.a1)?;
    let a2 = if partition.a2.is_zero() {
        None
    } else {
        Some(engine.program(&partition.a2)?)
    };
    let a3 = if partition.a3.is_zero() {
        None
    } else {
        Some(engine.program(&partition.a3)?)
    };
    let a4s = engine.program(&a4s)?;
    Ok(PreparedOneStage {
        split: partition.split,
        n: partition.size(),
        a1,
        a2,
        a3,
        a4s,
    })
}

/// Convenience: partition `a` at the default split and [`prepare`] it.
///
/// # Errors
///
/// Propagates partitioning, Schur, and programming failures.
pub fn prepare_matrix<E: AmcEngine + ?Sized>(
    engine: &mut E,
    a: &Matrix,
) -> Result<PreparedOneStage> {
    let partition = BlockPartition::halves(a)?;
    prepare(engine, &partition)
}

/// Executes the five-step algorithm for one right-hand side.
///
/// The cascade itself lives in the recursive execution core
/// (`run_cascade` in [`crate::multi_stage`]); this wrapper contributes the
/// macro signal path (DAC entry, S&H hops, ADC exit), the per-step
/// trace, and the digital negation of the upper solution half.
///
/// # Errors
///
/// * [`crate::BlockAmcError::ShapeMismatch`] if `b.len()` differs from the
///   prepared size.
/// * Engine execution failures.
pub fn solve<E: AmcEngine + ?Sized>(
    engine: &mut E,
    prepared: &mut PreparedOneStage,
    b: &[f64],
    io: &IoConfig,
) -> Result<OneStageSolution> {
    io.validate()?;
    if b.len() != prepared.n {
        return Err(crate::BlockAmcError::ShapeMismatch {
            op: "one_stage_solve",
            expected: prepared.n,
            got: b.len(),
        });
    }
    let mut log = TraceLog::enabled();
    let levels = [LevelIo::Macro(*io)];
    let mut neg_x = Vec::new();
    prepared.inv_signed(
        engine,
        b,
        1,
        SignalPath::new(&levels),
        &mut log,
        &mut amc_obs::Recorder::disabled(),
        &mut neg_x,
    )?;
    Ok(OneStageSolution {
        x: vector::neg(&neg_x),
        trace: log.steps,
    })
}

// A prepared macro is itself an INV executor: this is what lets the
// two-stage solver (and any deeper bus-connected layout) cascade whole
// macros exactly like single arrays. The head of `path` is this macro's
// signal-path policy (`Macro` when driven by [`solve`] or by a bus
// level above it).
impl<E: AmcEngine + ?Sized> InvExec<E> for PreparedOneStage {
    fn inv_signed(
        &mut self,
        engine: &mut E,
        b: &[f64],
        k: usize,
        path: SignalPath<'_>,
        log: &mut TraceLog,
        rec: &mut amc_obs::Recorder,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        run_cascade(
            engine,
            self.split,
            k,
            &mut self.a1,
            &mut self.a4s,
            self.a2.as_mut(),
            self.a3.as_mut(),
            b,
            path,
            log,
            rec,
            out,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::converter::Converter;
    use crate::engine::{CircuitEngine, CircuitEngineConfig, NumericEngine};
    use amc_linalg::{generate, lu, metrics};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn workload(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        let b = generate::random_vector(n, &mut rng);
        (a, b)
    }

    #[test]
    fn numeric_engine_recovers_exact_solution() {
        let (a, b) = workload(8, 1);
        let mut engine = NumericEngine::new();
        let mut prep = prepare_matrix(&mut engine, &a).unwrap();
        let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(vector::approx_eq(&sol.x, &x_ref, 1e-9));
    }

    #[test]
    fn odd_size_works() {
        let (a, b) = workload(9, 2);
        let mut engine = NumericEngine::new();
        let mut prep = prepare_matrix(&mut engine, &a).unwrap();
        let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(vector::approx_eq(&sol.x, &x_ref, 1e-9));
    }

    #[test]
    fn arbitrary_split_works() {
        let (a, b) = workload(10, 3);
        let x_ref = lu::solve(&a, &b).unwrap();
        for split in [1usize, 3, 7, 9] {
            let mut engine = NumericEngine::new();
            let p = BlockPartition::new(&a, split).unwrap();
            let mut prep = prepare(&mut engine, &p).unwrap();
            let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
            assert!(
                vector::approx_eq(&sol.x, &x_ref, 1e-8),
                "split {split} diverged"
            );
        }
    }

    #[test]
    fn trace_has_five_steps_with_correct_signals() {
        let (a, b) = workload(8, 4);
        let mut engine = NumericEngine::new();
        let mut prep = prepare_matrix(&mut engine, &a).unwrap();
        let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
        assert_eq!(sol.trace.len(), 5);
        assert_eq!(sol.trace[0].step, StepId::Inv1);
        assert_eq!(sol.trace[4].step, StepId::Inv5);
        // Step-1 output is −A1⁻¹ f.
        let p = BlockPartition::halves(&a).unwrap();
        let yt = lu::solve(&p.a1, &b[..4]).unwrap();
        assert!(vector::approx_eq(
            &sol.trace[0].output,
            &vector::neg(&yt),
            1e-10
        ));
        // Step-3 output equals the bottom half of the solution.
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(vector::approx_eq(&sol.trace[2].output, &x_ref[4..], 1e-9));
    }

    #[test]
    fn zero_a2_and_a3_blocks_skip_mvm_steps() {
        // Block-diagonal matrix: both MVM steps are skipped, trace has 3.
        let a1 = Matrix::from_diag(&[2.0, 3.0]);
        let a4 = Matrix::from_diag(&[4.0, 5.0]);
        let z = Matrix::zeros(2, 2);
        let a = Matrix::from_blocks(&a1, &z, &z, &a4).unwrap();
        let b = [2.0, 3.0, 4.0, 5.0];
        let mut engine = NumericEngine::new();
        let mut prep = prepare_matrix(&mut engine, &a).unwrap();
        let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
        assert_eq!(sol.trace.len(), 3);
        assert!(vector::approx_eq(&sol.x, &[1.0; 4], 1e-12));
        // Only A1 and A4s were programmed.
        assert_eq!(engine.stats().program_ops, 2);
    }

    #[test]
    fn triangular_block_matrix_uses_a4_directly() {
        // A2 = 0: the Schur complement equals A4, no digital inversion.
        let a1 = Matrix::from_diag(&[2.0, 1.0]);
        let a3 = Matrix::filled(2, 2, 0.25);
        let a4 = Matrix::from_diag(&[3.0, 1.5]);
        let z = Matrix::zeros(2, 2);
        let a = Matrix::from_blocks(&a1, &z, &a3, &a4).unwrap();
        let b = [1.0, 1.0, 1.0, 1.0];
        let mut engine = NumericEngine::new();
        let mut prep = prepare_matrix(&mut engine, &a).unwrap();
        let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(vector::approx_eq(&sol.x, &x_ref, 1e-12));
    }

    #[test]
    fn ideal_circuit_engine_matches_numeric_one_stage() {
        let (a, b) = workload(8, 5);
        let mut engine = CircuitEngine::new(CircuitEngineConfig::ideal(), 11);
        let mut prep = prepare_matrix(&mut engine, &a).unwrap();
        let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(metrics::relative_error(&x_ref, &sol.x) < 1e-8);
    }

    #[test]
    fn variation_produces_bounded_error() {
        let (a, b) = workload(16, 6);
        let mut engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 12);
        let mut prep = prepare_matrix(&mut engine, &a).unwrap();
        let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        let err = metrics::relative_error(&x_ref, &sol.x);
        assert!(err > 1e-6, "variation must perturb (err={err})");
        assert!(err < 1.0, "error should stay bounded (err={err})");
    }

    #[test]
    fn a1_array_is_programmed_once_and_reused() {
        let (a, b) = workload(8, 7);
        let mut engine = NumericEngine::new();
        let mut prep = prepare_matrix(&mut engine, &a).unwrap();
        let _ = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
        // 4 programs (A1, A2, A3, A4s); 3 INV (two of them on A1); 2 MVM.
        let s = engine.stats();
        assert_eq!(s.program_ops, 4);
        assert_eq!(s.inv_ops, 3);
        assert_eq!(s.mvm_ops, 2);
    }

    #[test]
    fn converters_quantize_the_digital_boundary() {
        let (a, b) = workload(8, 8);
        let mut engine = NumericEngine::new();
        let mut prep = prepare_matrix(&mut engine, &a).unwrap();
        let io = IoConfig {
            dac: Some(Converter::new(6, 1.0).unwrap()),
            adc: Some(Converter::new(6, 1.0).unwrap()),
            sh_droop: 0.0,
        };
        let sol = solve(&mut engine, &mut prep, &b, &io).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        let err = metrics::relative_error(&x_ref, &sol.x);
        assert!(err > 1e-6, "6-bit converters must quantize (err={err})");
        // Quantization error is amplified by the condition number of the
        // Wishart draw, so only a coarse upper bound is meaningful here.
        assert!(err < 1.0, "but coarsely bounded (err={err})");
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let (a, _) = workload(8, 9);
        let mut engine = NumericEngine::new();
        let mut prep = prepare_matrix(&mut engine, &a).unwrap();
        assert!(solve(&mut engine, &mut prep, &[1.0; 4], &IoConfig::ideal()).is_err());
    }

    #[test]
    fn prepared_partition_reusable_across_rhs() {
        let (a, _) = workload(8, 10);
        let mut engine = NumericEngine::new();
        let mut prep = prepare_matrix(&mut engine, &a).unwrap();
        for seed in 0..3u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let b = generate::random_vector(8, &mut rng);
            let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
            let x_ref = lu::solve(&a, &b).unwrap();
            assert!(vector::approx_eq(&sol.x, &x_ref, 1e-9));
        }
        // Arrays were programmed exactly once despite three solves.
        assert_eq!(engine.stats().program_ops, 4);
    }
}
