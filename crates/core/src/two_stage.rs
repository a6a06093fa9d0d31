//! The two-stage BlockAMC solver (paper §III.C, Fig. 5).
//!
//! When `n/2` still exceeds the manufacturable array size, the first-stage
//! blocks are partitioned again: the INV operations on `A1` and `A4s` are
//! themselves solved by one-stage BlockAMC macros on `n/4` arrays, and the
//! first-stage MVM operations on `A2`/`A3` are tiled into four partial
//! MVMs whose results are recombined.
//!
//! In the paper's architecture the four one-stage macros communicate
//! through the data bus: each macro's output is "converted and stored in
//! the main memory, which in turn will be converted back as analog input
//! voltages for the following BlockAMC macro". The inter-macro hops
//! therefore pass through the ADC/DAC pair (quantized when an
//! [`IoConfig`] with converters is supplied), unlike the intra-macro S&H
//! cascades.
//!
//! **Migration note:** this module is the low-level execution layer.
//! Prefer the builder facade —
//! `SolverConfig::builder().stages(Stages::Two).io(io)` followed by
//! [`crate::solver::BlockAmcSolver::prepare`] — which is pinned
//! bit-identical to these functions and adds searched splits, per-level
//! signal plans, and multi-RHS batching (see the crate-level migration
//! table).

use amc_linalg::{vector, Matrix};

use crate::converter::IoConfig;
use crate::engine::AmcEngine;
use crate::multi_stage::{run_cascade, LevelIo, MvmExec, QuadMvm, SignalPath, TraceLog};
use crate::one_stage::{self, PreparedOneStage};
use crate::partition::BlockPartition;
use crate::{BlockAmcError, Result};

/// A rectangular matrix programmed as four quadrant tiles for partial
/// MVM (the "divide and recover" scheme the paper cites for forward
/// operations): one quadrant level of the partition tree's tiled MVM
/// blocks, so the two are executed by the same code.
#[derive(Debug, Clone)]
pub struct TiledMvm(QuadMvm);

impl TiledMvm {
    /// Partitions `m` at half rows/columns and programs the non-zero
    /// quadrants.
    ///
    /// # Errors
    ///
    /// * [`BlockAmcError::InvalidConfig`] if either dimension is < 2.
    /// * Programming failures.
    pub fn prepare<E: AmcEngine + ?Sized>(engine: &mut E, m: &Matrix) -> Result<Self> {
        let (rows, cols) = m.shape();
        if rows < 2 || cols < 2 {
            return Err(BlockAmcError::config(format!(
                "tiled MVM requires at least 2x2, got {rows}x{cols}"
            )));
        }
        Ok(TiledMvm(QuadMvm::prepare(engine, m, 1)?))
    }

    /// Computes `−M·x` from four partial MVMs: each half of the output is
    /// the (analog) sum of two quadrant results.
    ///
    /// # Errors
    ///
    /// Shape mismatches and engine failures.
    pub fn mvm<E: AmcEngine + ?Sized>(&mut self, engine: &mut E, x: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.0.mvm(engine, x, 1, &mut out)?;
        Ok(out)
    }

    /// Number of programmed (non-zero) tiles.
    pub fn tile_count(&self) -> usize {
        self.0.tile_count()
    }
}

// A tiled matrix is an MVM executor for the recursive cascade core.
impl<E: AmcEngine + ?Sized> MvmExec<E> for TiledMvm {
    fn mvm_signed(
        &mut self,
        engine: &mut E,
        x: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.0.mvm(engine, x, k, out)
    }
}

/// A fully prepared two-stage solver: inner one-stage macros for the INV
/// blocks, tiled arrays for the MVM blocks.
#[derive(Debug, Clone)]
pub struct PreparedTwoStage {
    split: usize,
    n: usize,
    /// Inner one-stage macro solving with `A1` (used twice).
    a1: PreparedOneStage,
    /// Inner one-stage macro solving with `A4s`.
    a4s: PreparedOneStage,
    /// Tiled `A2` (`None` for a zero block).
    a2: Option<TiledMvm>,
    /// Tiled `A3` (`None` for a zero block).
    a3: Option<TiledMvm>,
}

impl PreparedTwoStage {
    /// The first-stage split index.
    pub fn split(&self) -> usize {
        self.split
    }

    /// Full problem size `n`.
    pub fn size(&self) -> usize {
        self.n
    }

    /// Borrows the inner one-stage macro for `A1` (diagnostics).
    pub fn a1_macro(&self) -> &PreparedOneStage {
        &self.a1
    }

    /// Borrows the inner one-stage macro for `A4s` (diagnostics).
    pub fn a4s_macro(&self) -> &PreparedOneStage {
        &self.a4s
    }
}

/// Result of a two-stage solve.
#[derive(Debug, Clone, PartialEq)]
pub struct TwoStageSolution {
    /// The recovered solution of `A·x = b`.
    pub x: Vec<f64>,
    /// Traces of the two inner INV solves of step 3 (`A4s`) and step 5
    /// (`A1`) — the signals Fig. 8(a)/(b) plot.
    pub inner_traces: Vec<(String, Vec<one_stage::StepRecord>)>,
}

/// Partitions twice and programs everything.
///
/// Requires `n >= 4` so that the second-stage blocks are non-empty.
///
/// # Errors
///
/// Partitioning, Schur, and programming failures.
pub fn prepare<E: AmcEngine + ?Sized>(engine: &mut E, a: &Matrix) -> Result<PreparedTwoStage> {
    if a.rows() < 4 {
        return Err(BlockAmcError::config(format!(
            "two-stage solver requires n >= 4, got {}",
            a.rows()
        )));
    }
    let p = BlockPartition::halves(a)?;
    let a4s = p.schur_complement()?;
    // Programming follows the canonical recursive order (A1, A2, A3,
    // A4s) used by one_stage::prepare and the multi-stage tree, so the
    // engine's variation stream is consumed identically to an
    // equivalent depth-2 paper-layout tree — see
    // tests/solver_equivalence.rs.
    // Second stage: the INV blocks become one-stage macros; the MVM
    // blocks are tiled.
    let a1_inner = one_stage::prepare_matrix(engine, &p.a1)?;
    let a2 = if p.a2.is_zero() {
        None
    } else {
        Some(TiledMvm::prepare(engine, &p.a2)?)
    };
    let a3 = if p.a3.is_zero() {
        None
    } else {
        Some(TiledMvm::prepare(engine, &p.a3)?)
    };
    let a4s_inner = one_stage::prepare_matrix(engine, &a4s)?;
    Ok(PreparedTwoStage {
        split: p.split,
        n: p.size(),
        a1: a1_inner,
        a4s: a4s_inner,
        a2,
        a3,
    })
}

/// Executes the two-stage algorithm for one right-hand side.
///
/// The five first-stage steps are the same as [`one_stage::solve`], but
/// the INV operations are delegated to inner one-stage macros and the MVM
/// operations to tiled arrays. Inter-macro values cross the digital
/// boundary (ADC then DAC) as in the paper's bus-connected architecture.
///
/// # Errors
///
/// Shape mismatches and engine failures.
pub fn solve<E: AmcEngine + ?Sized>(
    engine: &mut E,
    prepared: &mut PreparedTwoStage,
    b: &[f64],
    io: &IoConfig,
) -> Result<TwoStageSolution> {
    io.validate()?;
    if b.len() != prepared.n {
        return Err(BlockAmcError::ShapeMismatch {
            op: "two_stage_solve",
            expected: prepared.n,
            got: b.len(),
        });
    }
    // The five steps live in the recursive execution core; `Bus` policy
    // inserts the ADC→DAC hop on every inter-macro value and captures
    // the step-3/step-5 inner-macro traces.
    let mut log = TraceLog::enabled();
    let levels = [LevelIo::Bus(*io), LevelIo::Macro(*io)];
    let mut neg_x = Vec::new();
    run_cascade(
        engine,
        prepared.split,
        1,
        &mut prepared.a1,
        &mut prepared.a4s,
        prepared.a2.as_mut(),
        prepared.a3.as_mut(),
        b,
        SignalPath::new(&levels),
        &mut log,
        &mut amc_obs::Recorder::disabled(),
        &mut neg_x,
    )?;
    Ok(TwoStageSolution {
        x: vector::neg(&neg_x),
        inner_traces: log.inner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn numeric_two_stage_recovers_exact_solution() {
        let (a, b) = workload(16, 1);
        let mut engine = NumericEngine::new();
        let mut prep = prepare(&mut engine, &a).unwrap();
        let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(vector::approx_eq(&sol.x, &x_ref, 1e-8));
    }

    #[test]
    fn odd_and_non_power_of_two_sizes() {
        for (n, seed) in [(9usize, 2u64), (12, 3), (15, 4)] {
            let (a, b) = workload(n, seed);
            let mut engine = NumericEngine::new();
            let mut prep = prepare(&mut engine, &a).unwrap();
            let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
            let x_ref = lu::solve(&a, &b).unwrap();
            assert!(
                metrics::relative_error(&x_ref, &sol.x) < 1e-8,
                "n={n} diverged"
            );
        }
    }

    #[test]
    fn too_small_matrix_rejected() {
        let (a, _) = workload(3, 5);
        let mut engine = NumericEngine::new();
        assert!(prepare(&mut engine, &a).is_err());
    }

    #[test]
    fn tiled_mvm_matches_direct_product() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let m = generate::gaussian(6, 5, &mut rng);
        let x = generate::random_vector(5, &mut rng);
        let mut engine = NumericEngine::new();
        let mut tiled = TiledMvm::prepare(&mut engine, &m).unwrap();
        let got = tiled.mvm(&mut engine, &x).unwrap();
        let expect = vector::neg(&m.matvec(&x).unwrap());
        assert!(vector::approx_eq(&got, &expect, 1e-12));
        assert_eq!(tiled.tile_count(), 4);
    }

    #[test]
    fn tiled_mvm_skips_zero_quadrants() {
        let mut m = Matrix::zeros(4, 4);
        m.set_block(0, 0, &Matrix::identity(2)).unwrap();
        let mut engine = NumericEngine::new();
        let mut tiled = TiledMvm::prepare(&mut engine, &m).unwrap();
        assert_eq!(tiled.tile_count(), 1);
        let got = tiled.mvm(&mut engine, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!(vector::approx_eq(&got, &[-1.0, -2.0, 0.0, 0.0], 1e-12));
        assert!(tiled.mvm(&mut engine, &[1.0]).is_err());
    }

    #[test]
    fn inner_traces_cover_steps_3_and_5() {
        let (a, b) = workload(8, 7);
        let mut engine = NumericEngine::new();
        let mut prep = prepare(&mut engine, &a).unwrap();
        let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
        assert_eq!(sol.inner_traces.len(), 2);
        assert_eq!(sol.inner_traces[0].0, "A4s");
        assert_eq!(sol.inner_traces[1].0, "A1");
        assert!(!sol.inner_traces[0].1.is_empty());
    }

    #[test]
    fn circuit_engine_two_stage_with_variation_is_accurate_enough() {
        let (a, b) = workload(16, 8);
        let mut engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 21);
        let mut prep = prepare(&mut engine, &a).unwrap();
        let sol = solve(&mut engine, &mut prep, &b, &IoConfig::ideal()).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        let err = metrics::relative_error(&x_ref, &sol.x);
        assert!(err > 1e-6, "variation must perturb (err={err})");
        assert!(err < 1.0, "error should stay bounded (err={err})");
    }

    #[test]
    fn sixteen_quarter_size_arrays_for_dense_matrix() {
        // The paper: a 256x256 Wishart matrix becomes 16 64x64 blocks.
        // At n=16: inner macros hold 4 blocks each (A1, A2, A3, A4s) and
        // each MVM block is 4 tiles -> 16 programmed arrays total.
        let (a, _) = workload(16, 9);
        let mut engine = NumericEngine::new();
        let prep = prepare(&mut engine, &a).unwrap();
        assert_eq!(engine.stats().program_ops, 16);
        assert_eq!(prep.size(), 16);
        assert_eq!(prep.split(), 8);
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let (a, _) = workload(8, 10);
        let mut engine = NumericEngine::new();
        let mut prep = prepare(&mut engine, &a).unwrap();
        assert!(solve(&mut engine, &mut prep, &[0.0; 3], &IoConfig::ideal()).is_err());
    }
}
