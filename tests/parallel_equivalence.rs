//! Parallel ≡ serial bit-identity properties for the execution layer.
//!
//! The parallel batch path promises that the worker count is
//! *invisible* in the output: sharding only decides where work runs,
//! never what it computes. These properties pin that contract —
//!
//! * `SolverReplica::solve_batch_parallel` at 1, 2, and 4 workers, on a
//!   replica of a prepared solver, produces solutions bit-identical to
//!   the serial `batch::solve_batch`, under both the exact
//!   `NumericEngine` and the analog `CircuitEngine` (where identity
//!   additionally proves every replica carries the same programmed
//!   variation draw as the serial solver's arrays);
//! * ten successive `SolverReplica::solve_batch_parallel` calls on one
//!   replica — which keeps its worker clones across calls — each equal
//!   `solve_batch` bit for bit, and the clones are made once, not per
//!   call.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use amc_circuit::opamp::OpAmpSpec;
use amc_linalg::lu::LuFactor;
use amc_linalg::{generate, Matrix};
use blockamc::batch;
use blockamc::engine::{
    AmcEngine, CircuitEngine, CircuitEngineConfig, EngineStats, NumericEngine, Operand,
};
use blockamc::solver::{BlockAmcSolver, SolverReplica, Stages};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: a well-conditioned SPD system (size 8..=16), a batch of
/// 1..=6 right-hand sides, and the seed it all derives from.
fn batch_workload() -> impl Strategy<Value = (Matrix, Vec<Vec<f64>>, u64)> {
    (8usize..=16, 1usize..=6, any::<u64>()).prop_map(|(n, k, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        let batch = (0..k)
            .map(|_| generate::random_vector(n, &mut rng))
            .collect();
        (a, batch, seed)
    })
}

fn serial_solutions<E>(engine: E, stages: Stages, a: &Matrix, batch: &[Vec<f64>]) -> Vec<Vec<f64>>
where
    E: blockamc::engine::AmcEngine,
{
    let mut solver = BlockAmcSolver::new(engine, stages);
    batch::solve_batch(&mut solver, a, batch, &OpAmpSpec::ideal(), 0.0)
        .unwrap()
        .solutions
}

fn parallel_solutions<E>(
    engine: E,
    stages: Stages,
    a: &Matrix,
    batch: &[Vec<f64>],
    workers: usize,
) -> Vec<Vec<f64>>
where
    E: blockamc::engine::AmcEngine + Clone + Send,
{
    replica_of(engine, stages, a)
        .solve_batch_parallel(batch, workers)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_batch_matches_serial_numeric_engine((a, batch, _seed) in batch_workload()) {
        for stages in [Stages::One, Stages::Two] {
            let serial = serial_solutions(NumericEngine::new(), stages, &a, &batch);
            for workers in [1usize, 2, 4] {
                let par = parallel_solutions(NumericEngine::new(), stages, &a, &batch, workers);
                prop_assert_eq!(&par, &serial, "{:?} workers={}", stages, workers);
            }
        }
    }

    #[test]
    fn parallel_batch_matches_serial_circuit_engine((a, batch, seed) in batch_workload()) {
        // Variation draws make each programmed part unique, so equality
        // here proves the replicas inherit the serial solver's draw.
        let config = CircuitEngineConfig::paper_variation();
        let serial = serial_solutions(CircuitEngine::new(config, seed), Stages::One, &a, &batch);
        for workers in [1usize, 2, 4] {
            let par = parallel_solutions(
                CircuitEngine::new(config, seed),
                Stages::One,
                &a,
                &batch,
                workers,
            );
            prop_assert_eq!(&par, &serial, "workers={}", workers);
        }
    }
}

/// Worker counts and batch widths of the repeated-call checks: widths
/// below, at and just past one 8-column panel, and a full and a ragged
/// 32-column batch.
const REPEAT_WORKERS: [usize; 4] = [1, 2, 3, 5];
const REPEAT_WIDTHS: [usize; 6] = [1, 7, 8, 9, 32, 33];
/// Successive calls made on one replica.
const CALLS: usize = 10;

fn bits(xs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    xs.iter()
        .map(|x| x.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Prepares `a` once and hands out a replica of the prepared solver.
fn replica_of<E: AmcEngine + Clone>(engine: E, stages: Stages, a: &Matrix) -> SolverReplica<E> {
    let mut solver = BlockAmcSolver::new(engine, stages);
    let prepared = solver.prepare(a).unwrap();
    prepared.replicate(1).remove(0)
}

/// Runs [`CALLS`] successive parallel batches of every width on one
/// replica per worker count, checking each call against `solve_batch` on
/// a fresh clone of the replica.
fn repeated_calls_match_serial<E: AmcEngine + Clone>(engine: E, stages: Stages, seed: u64) {
    let n = 12;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = generate::wishart_default(n, &mut rng).unwrap();
    let reference = replica_of(engine, stages, &a);
    let batches: Vec<Vec<Vec<f64>>> = REPEAT_WIDTHS
        .iter()
        .map(|&k| {
            (0..k)
                .map(|_| generate::random_vector(n, &mut rng))
                .collect()
        })
        .collect();
    let serial: Vec<Vec<Vec<u64>>> = batches
        .iter()
        .map(|batch| bits(&reference.clone().solve_batch(batch).unwrap()))
        .collect();
    for workers in REPEAT_WORKERS {
        let mut replica = reference.clone();
        for call in 0..CALLS {
            for (batch, expected) in batches.iter().zip(&serial) {
                let xs = replica.solve_batch_parallel(batch, workers).unwrap();
                assert_eq!(
                    &bits(&xs),
                    expected,
                    "{} engine, {workers} workers, k={}, call {call}",
                    reference.engine().name(),
                    batch.len()
                );
            }
        }
    }
}

#[test]
fn repeated_parallel_batches_match_serial_numeric_engine() {
    for stages in [Stages::One, Stages::Two] {
        repeated_calls_match_serial(NumericEngine::new(), stages, 51);
    }
}

#[test]
fn repeated_parallel_batches_match_serial_circuit_engine() {
    // The variation draw makes every programmed array unique, so each
    // call matching proves the kept clones still carry the draw.
    let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 52);
    repeated_calls_match_serial(engine, Stages::One, 53);
}

/// A numeric engine whose clones are counted: every `Clone::clone` (and
/// so every replica copy) bumps the shared counter.
#[derive(Debug)]
struct CloneCounting {
    inner: NumericEngine,
    clones: Arc<AtomicUsize>,
}

impl Clone for CloneCounting {
    fn clone(&self) -> Self {
        self.clones.fetch_add(1, Ordering::SeqCst);
        CloneCounting {
            inner: self.inner.clone(),
            clones: Arc::clone(&self.clones),
        }
    }
}

impl AmcEngine for CloneCounting {
    fn program(&mut self, a: &Matrix) -> blockamc::Result<Operand> {
        self.inner.program(a)
    }

    fn program_factored(&mut self, a: &Matrix, lu: LuFactor) -> blockamc::Result<Operand> {
        self.inner.program_factored(a, lu)
    }

    fn inv(&mut self, operand: &mut Operand, b: &[f64]) -> blockamc::Result<Vec<f64>> {
        self.inner.inv(operand, b)
    }

    fn mvm(&mut self, operand: &mut Operand, x: &[f64]) -> blockamc::Result<Vec<f64>> {
        self.inner.mvm(operand, x)
    }

    fn inv_block_into(
        &mut self,
        operand: &mut Operand,
        b: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> blockamc::Result<()> {
        self.inner.inv_block_into(operand, b, k, out)
    }

    fn mvm_block_into(
        &mut self,
        operand: &mut Operand,
        x: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> blockamc::Result<()> {
        self.inner.mvm_block_into(operand, x, k, out)
    }

    fn name(&self) -> &'static str {
        "clone-counting"
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn clone_boxed(&self) -> Box<dyn AmcEngine> {
        Box::new(self.clone())
    }
}

#[test]
fn parallel_batches_clone_the_replica_once() {
    let n = 16;
    let mut rng = ChaCha8Rng::seed_from_u64(54);
    let a = generate::wishart_default(n, &mut rng).unwrap();
    let batch: Vec<Vec<f64>> = (0..32)
        .map(|_| generate::random_vector(n, &mut rng))
        .collect();
    for workers in REPEAT_WORKERS {
        let clones = Arc::new(AtomicUsize::new(0));
        let engine = CloneCounting {
            inner: NumericEngine::new(),
            clones: Arc::clone(&clones),
        };
        let mut replica = replica_of(engine, Stages::Two, &a);
        let serial = bits(&replica.clone().solve_batch(&batch).unwrap());
        let before = clones.load(Ordering::SeqCst);
        for call in 0..CALLS {
            let xs = replica.solve_batch_parallel(&batch, workers).unwrap();
            assert_eq!(bits(&xs), serial, "{workers} workers, call {call}");
        }
        assert_eq!(
            clones.load(Ordering::SeqCst) - before,
            workers - 1,
            "{workers} workers: the spares are made once, not per call"
        );
        // A copy of the replica does not carry the spares along.
        let mut copy = replica.clone();
        let before = clones.load(Ordering::SeqCst);
        copy.solve_batch_parallel(&batch, workers).unwrap();
        assert_eq!(clones.load(Ordering::SeqCst) - before, workers - 1);
    }
    // A batch narrower than the worker count clones only the spares
    // that get a shard: 3 right-hand sides at 5 workers make 2 clones.
    let clones = Arc::new(AtomicUsize::new(0));
    let engine = CloneCounting {
        inner: NumericEngine::new(),
        clones: Arc::clone(&clones),
    };
    let mut replica = replica_of(engine, Stages::Two, &a);
    let serial = bits(&replica.clone().solve_batch(&batch[..3]).unwrap());
    let before = clones.load(Ordering::SeqCst);
    let xs = replica.solve_batch_parallel(&batch[..3], 5).unwrap();
    assert_eq!(bits(&xs), serial);
    assert_eq!(clones.load(Ordering::SeqCst) - before, 2);
}
