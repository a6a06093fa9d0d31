//! A replica's parallel batches run on spare clones it keeps across
//! calls. These tests pin that the spares never outlive the state they
//! copied: reprogramming the arrays (aging `advance`) and attaching a new
//! recorder both drop them, so the next parallel batch matches a serial
//! solve of the current arrays bit for bit and records into the current
//! trace session.

use amc_device::drift::DriftModel;
use amc_linalg::{generate, Matrix};
use amc_obs::{Trace, TraceSession};
use blockamc::aging::{AgedSolver, AgingModel};
use blockamc::engine::NumericEngine;
use blockamc::solver::{BlockAmcSolver, SolverConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const N: usize = 128;
/// 32 right-hand sides make four 8-column shards at 2 and at 3 workers.
const K: usize = 32;
/// Parallel calls per check: the spares solve shards on calls where the
/// pool deals them work, so several calls make that all but certain.
const CALLS: usize = 5;
const SHARDS: usize = 4;

fn bits(xs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    xs.iter()
        .map(|x| x.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Drift fast enough that one tick visibly changes every array.
fn accelerated_model() -> AgingModel {
    AgingModel {
        drift: DriftModel {
            nu: 0.05,
            nu_sigma: 0.01,
            t0_s: 1.0,
        },
        tick_s: 100.0,
        ..AgingModel::typical_rram()
    }
}

fn workload(seed: u64) -> (Matrix, Vec<Vec<f64>>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = generate::wishart_default(N, &mut rng).unwrap();
    let batch = (0..K)
        .map(|_| generate::random_vector(N, &mut rng))
        .collect();
    (a, batch)
}

fn aged_solver(a: &Matrix) -> AgedSolver<NumericEngine> {
    let config = SolverConfig::builder().finish().unwrap();
    let mut solver = BlockAmcSolver::from_config(NumericEngine::new(), config);
    let replica = solver.prepare(a).unwrap().replicate(1).remove(0);
    AgedSolver::new(replica, a.clone(), accelerated_model(), 61).unwrap()
}

/// `solve_batch` on a copy of the aged solver's current replica.
fn serial_bits(aged: &AgedSolver<NumericEngine>, batch: &[Vec<f64>]) -> Vec<Vec<u64>> {
    bits(&aged.replica().clone().solve_batch(batch).unwrap())
}

#[test]
fn advancing_the_arrays_drops_the_spares() {
    let (a, batch) = workload(60);
    for workers in [2usize, 3] {
        let mut aged = aged_solver(&a);
        let fresh = serial_bits(&aged, &batch);
        for call in 0..CALLS {
            let xs = aged
                .replica_mut()
                .solve_batch_parallel(&batch, workers)
                .unwrap();
            assert_eq!(bits(&xs), fresh, "{workers} workers, fresh call {call}");
        }

        aged.advance(1).unwrap();
        let advanced = serial_bits(&aged, &batch);
        assert_ne!(advanced, fresh, "advance must change the programmed arrays");
        for call in 0..CALLS {
            let xs = aged
                .replica_mut()
                .solve_batch_parallel(&batch, workers)
                .unwrap();
            assert_eq!(
                bits(&xs),
                advanced,
                "{workers} workers, call {call} after advance"
            );
        }
    }
}

/// Flushes the replica's own lane and drains `session`.
fn drain(aged: &mut AgedSolver<NumericEngine>, session: &TraceSession) -> Trace {
    aged.replica_mut().recorder_mut().flush();
    session.drain()
}

fn count(trace: &Trace, name: &str) -> usize {
    trace.events().iter().filter(|e| e.name == name).count()
}

#[test]
fn a_new_recorder_drops_the_spares() {
    let (a, batch) = workload(62);
    for workers in [2usize, 3] {
        let mut aged = aged_solver(&a);
        let first = TraceSession::new();
        aged.set_recorder(first.recorder());
        for call in 0..CALLS {
            aged.replica_mut()
                .solve_batch_parallel(&batch, workers)
                .unwrap();
            // The spares flush at the end of every call, so a drain right
            // after it sees every shard's solve span, whichever worker
            // lane recorded it.
            let trace = drain(&mut aged, &first);
            assert_eq!(count(&trace, "batch"), 1, "{workers} workers, call {call}");
            assert_eq!(
                count(&trace, "solve"),
                SHARDS,
                "{workers} workers, call {call}"
            );
        }

        let second = TraceSession::new();
        aged.set_recorder(second.recorder());
        for call in 0..CALLS {
            aged.replica_mut()
                .solve_batch_parallel(&batch, workers)
                .unwrap();
            let trace = drain(&mut aged, &second);
            assert_eq!(count(&trace, "batch"), 1, "{workers} workers, call {call}");
            assert_eq!(
                count(&trace, "solve"),
                SHARDS,
                "{workers} workers, call {call}"
            );
            assert!(
                first.drain().events().is_empty(),
                "{workers} workers, call {call}: spans landed in the old session"
            );
        }
    }
}
