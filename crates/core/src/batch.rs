//! Pipelined batch solving.
//!
//! The macro's two S&H banks exist so that "the pipelining of the
//! algorithm … improv\[es\] the throughput of the system" (paper §III.B):
//! while problem *k* drains through steps 3–5, problem *k+1* can already
//! occupy the earlier phases. This module solves a batch of right-hand
//! sides against one prepared facade solver (arrays programmed once —
//! matrices are nonvolatile) and reports both the solutions and the
//! pipelined/unpipelined timing derived from the macro model.
//!
//! Batches run through [`crate::solver::PreparedSolver::solve_batch`],
//! so any architecture and per-level signal plan the facade supports can
//! be batched. To shard a batch over bitwise replicas, prepare once and
//! call [`crate::solver::SolverReplica::solve_batch_parallel`] on a
//! replica; its solutions are bit-identical to [`solve_batch`]'s, and
//! [`BatchSolution::batch_time_parallel_s`] models the sharded timing.

use amc_circuit::opamp::OpAmpSpec;
use amc_circuit::timing;
use amc_linalg::Matrix;

use crate::engine::{AmcEngine, EngineStats};
use crate::macro_model::MacroTiming;
use crate::solver::{validate_batch, BlockAmcSolver};
use crate::Result;

/// Result of a batch solve.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSolution {
    /// One solution per right-hand side, in input order.
    pub solutions: Vec<Vec<f64>>,
    /// Macro timing (per-phase settle times fed by the circuit model).
    pub timing: MacroTiming,
    /// Total batch latency with pipelining: the first solve pays the full
    /// 5-phase latency, each subsequent one only a cycle.
    pub batch_time_pipelined_s: f64,
    /// Total batch latency without pipelining (solves strictly serialize).
    pub batch_time_unpipelined_s: f64,
    /// Engine cost of the whole batch call: the one preparation plus
    /// every solve.
    pub stats: EngineStats,
}

impl BatchSolution {
    /// Throughput speedup delivered by the S&H double-buffering for this
    /// batch.
    pub fn pipeline_speedup(&self) -> f64 {
        if self.batch_time_pipelined_s == 0.0 {
            1.0
        } else {
            self.batch_time_unpipelined_s / self.batch_time_pipelined_s
        }
    }

    /// Total batch latency when the batch is sharded across `workers`
    /// independently-programmed macro instances, each pipelining its own
    /// shard — the multi-macro extension of the paper's §III.B timing
    /// model.
    ///
    /// The `k` right-hand sides are dealt as evenly as possible, so the
    /// slowest macro processes `⌈k/workers⌉` of them: it fills its
    /// five-phase pipe once (`latency_s`) and then retires one solution
    /// per `cycle_s`. `workers` is clamped to at least 1; with more
    /// workers than right-hand sides every macro solves at most one RHS
    /// and the batch takes a single pipeline latency.
    pub fn batch_time_parallel_s(&self, workers: usize) -> f64 {
        let k = self.solutions.len();
        if k == 0 {
            return 0.0;
        }
        let per_macro = k.div_ceil(workers.max(1)) as f64;
        self.timing.latency_s + (per_macro - 1.0) * self.timing.cycle_s
    }
}

/// Estimates the five per-phase settle times of a one-stage macro for the
/// partitioned matrix `a` (INV phases from the block eigenvalues, MVM
/// phases from row-conductance sums).
///
/// # Errors
///
/// Propagates timing-model failures (e.g. a singular block).
pub fn phase_settle_times(a: &Matrix, opamp: &OpAmpSpec) -> Result<[f64; 5]> {
    let p = crate::partition::BlockPartition::halves(a)?;
    let a4s = p.schur_complement()?;
    let eps = timing::DEFAULT_SETTLE_EPSILON;
    let norm = |m: &Matrix| m.scaled(1.0 / m.max_abs().max(f64::MIN_POSITIVE));
    let inv1 = timing::inv_settle_time(&norm(&p.a1), opamp, eps)?;
    let inv3 = timing::inv_settle_time(&norm(&a4s), opamp, eps)?;
    // MVM phases: row-sum-based (normalized matrices have max element 1).
    let mvm_row = |m: &Matrix| {
        let nm = norm(m);
        nm.norm_inf()
    };
    let mvm2 = timing::mvm_settle_time(mvm_row(&p.a3), opamp, eps)?;
    let mvm4 = timing::mvm_settle_time(mvm_row(&p.a2), opamp, eps)?;
    Ok([inv1, mvm2, inv3, mvm4, inv1])
}

/// Prepares `a` once on the facade solver, solves every right-hand side
/// of `batch` against the programmed arrays, and derives the pipeline
/// timing; `conversion_s` is the DAC/ADC conversion time.
///
/// The timing model describes the one-stage macro's five phases (the
/// midpoint partition of `a`), matching the paper's pipelining analysis;
/// the solutions honour whatever architecture and signal plan `solver`
/// is configured with.
///
/// # Errors
///
/// * [`crate::BlockAmcError::InvalidConfig`] for an empty batch, and
///   [`crate::BlockAmcError::ShapeMismatch`] /
///   [`crate::BlockAmcError::NonFinite`] for a right-hand side of the
///   wrong length or with a NaN or infinity — all before programming.
/// * Preparation and engine failures.
pub fn solve_batch<E: AmcEngine>(
    solver: &mut BlockAmcSolver<E>,
    a: &Matrix,
    batch: &[Vec<f64>],
    opamp: &OpAmpSpec,
    conversion_s: f64,
) -> Result<BatchSolution> {
    // Reject before programming: a failed call must not consume the
    // engine's variation stream or pollute its stats.
    validate_batch(batch, a.rows())?;
    let before = solver.engine().stats();
    let span = solver.recorder_mut().enter("batch");
    let solutions = solver.prepare(a)?.solve_batch(batch)?;
    let k = batch.len() as f64;
    solver.recorder_mut().exit_with(span, &[("rhs", k)]);
    let stats = solver.engine().stats() - before;
    let phases = phase_settle_times(a, opamp)?;
    let timing = MacroTiming::from_phase_times(phases, conversion_s)?;
    // Pipelined: fill the 5-stage pipe once, then one result per cycle.
    let batch_time_pipelined_s = timing.latency_s + (k - 1.0) * timing.cycle_s;
    let batch_time_unpipelined_s = k * timing.latency_s;
    Ok(BatchSolution {
        solutions,
        timing,
        batch_time_pipelined_s,
        batch_time_unpipelined_s,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NumericEngine;
    use crate::solver::Stages;
    use amc_linalg::{generate, lu, vector};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup(n: usize) -> (Matrix, Vec<Vec<f64>>) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        let batch = (0..4)
            .map(|_| generate::random_vector(n, &mut rng))
            .collect();
        (a, batch)
    }

    fn one_stage_solver() -> BlockAmcSolver<NumericEngine> {
        BlockAmcSolver::new(NumericEngine::new(), Stages::One)
    }

    #[test]
    fn batch_solutions_match_individual_solves() {
        let (a, batch) = setup(12);
        let mut solver = one_stage_solver();
        let out = solve_batch(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 1e-7).unwrap();
        assert_eq!(out.solutions.len(), 4);
        for (b, x) in batch.iter().zip(&out.solutions) {
            let x_ref = lu::solve(&a, b).unwrap();
            assert!(vector::approx_eq(x, &x_ref, 1e-8));
        }
    }

    #[test]
    fn arrays_programmed_once_for_the_whole_batch() {
        let (a, batch) = setup(8);
        let mut solver = one_stage_solver();
        let _ = solve_batch(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 0.0).unwrap();
        assert_eq!(solver.engine().stats().program_ops, 4); // A1, A2, A3, A4s once
        assert_eq!(solver.engine().stats().inv_ops, 3 * 4); // 3 INVs per solve
    }

    #[test]
    fn batch_runs_any_architecture() {
        // The pre-redesign API could only batch the one-stage module
        // path; the facade routing batches deeper cascades too.
        let (a, batch) = setup(16);
        let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::Two);
        let out = solve_batch(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 0.0).unwrap();
        for (b, x) in batch.iter().zip(&out.solutions) {
            let x_ref = lu::solve(&a, b).unwrap();
            assert!(vector::approx_eq(x, &x_ref, 1e-8));
        }
        // 16 quarter-size arrays, programmed once for the whole batch.
        assert_eq!(solver.engine().stats().program_ops, 16);
    }

    #[test]
    fn pipelining_approaches_5x_for_long_batches() {
        let (a, _) = setup(8);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let batch: Vec<Vec<f64>> = (0..50)
            .map(|_| generate::random_vector(8, &mut rng))
            .collect();
        let mut solver = one_stage_solver();
        let out = solve_batch(&mut solver, &a, &batch, &OpAmpSpec::ideal(), 0.0).unwrap();
        let speedup = out.pipeline_speedup();
        assert!(speedup > 3.0, "speedup {speedup}");
        assert!(speedup <= 5.0 + 1e-9);
    }

    #[test]
    fn phase_times_are_positive_and_inv_phases_match() {
        let (a, _) = setup(10);
        let phases = phase_settle_times(&a, &OpAmpSpec::ideal()).unwrap();
        assert!(phases.iter().all(|&t| t > 0.0));
        assert_eq!(phases[0], phases[4], "steps 1 and 5 share the A1 array");
    }

    #[test]
    fn empty_batch_rejected_before_any_programming() {
        let (a, _) = setup(8);
        let mut solver = one_stage_solver();
        assert!(solve_batch(&mut solver, &a, &[], &OpAmpSpec::ideal(), 0.0).is_err());
        // Validation precedes side effects: no arrays were programmed.
        assert_eq!(solver.engine().stats().program_ops, 0);
    }

    #[test]
    fn parallel_timing_model_matches_hand_computation() {
        let timing = MacroTiming::from_phase_times([1e-6; 5], 1e-6).unwrap();
        let k = 10;
        let sol = BatchSolution {
            solutions: vec![vec![0.0]; k],
            timing,
            batch_time_pipelined_s: timing.latency_s + 9.0 * timing.cycle_s,
            batch_time_unpipelined_s: 10.0 * timing.latency_s,
            stats: EngineStats::default(),
        };
        let (lat, cyc) = (timing.latency_s, timing.cycle_s);
        // One macro: the pipelined time itself.
        assert_eq!(sol.batch_time_parallel_s(1), sol.batch_time_pipelined_s);
        // Two macros: slowest shard has ⌈10/2⌉ = 5 solves.
        assert_eq!(sol.batch_time_parallel_s(2), lat + 4.0 * cyc);
        // Three macros: ⌈10/3⌉ = 4 solves on the slowest.
        assert_eq!(sol.batch_time_parallel_s(3), lat + 3.0 * cyc);
        // More macros than RHS: a single pipeline latency.
        assert_eq!(sol.batch_time_parallel_s(16), lat);
        // workers = 0 is clamped to one macro.
        assert_eq!(sol.batch_time_parallel_s(0), sol.batch_time_pipelined_s);
    }
}
