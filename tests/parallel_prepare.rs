//! Parallel prepare is invisible: `prepare_with_workers` shards the
//! per-subtree partition/Schur work over `amc-par`, but the programmed
//! tree — and therefore every solve — must be bit-identical to the
//! serial `prepare` at any worker count. Phase 2 programs the arrays in
//! the canonical cascade order, so even order-sensitive engines (the
//! fixed-point quantiser and the circuit backend, which draws device
//! variation per programmed array) cannot tell the difference.

use amc_linalg::{generate, Matrix};
use blockamc::engine::{
    AmcEngine, CircuitEngine, CircuitEngineConfig, FixedPointEngine, NumericEngine,
};
use blockamc::solver::{BlockAmcSolver, Stages};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A seeded SPD workload (Wishart) with one right-hand side.
fn spd_workload(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = generate::wishart_default(n, &mut rng).unwrap();
    let b = generate::random_vector(n, &mut rng);
    (a, b)
}

/// One of the exact, the fixed-point and the variation-drawing circuit
/// engines, freshly built.
fn any_engine() -> impl Strategy<Value = Box<dyn AmcEngine>> {
    (0usize..3, any::<u64>()).prop_map(|(kind, seed)| -> Box<dyn AmcEngine> {
        match kind {
            0 => Box::new(NumericEngine::new()),
            1 => Box::new(FixedPointEngine::new(8).unwrap()),
            _ => Box::new(CircuitEngine::new(
                CircuitEngineConfig::paper_variation(),
                seed,
            )),
        }
    })
}

/// Solve `A·x = b` at the given depth on a copy of `engine`, preparing
/// with `workers` (`None` = the serial `prepare` path).
fn prepared_solution(
    engine: &dyn AmcEngine,
    depth: usize,
    a: &Matrix,
    b: &[f64],
    workers: Option<usize>,
) -> Vec<f64> {
    let mut solver = BlockAmcSolver::new(engine.clone_boxed(), Stages::Multi(depth));
    let mut prepared = match workers {
        Some(w) => solver.prepare_with_workers(a, w).unwrap(),
        None => solver.prepare(a).unwrap(),
    };
    prepared.solve(b).unwrap().x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_prepare_matches_serial(
        engine in any_engine(),
        n in 12usize..=32,
        depth in 1usize..=3,
        seed in any::<u64>(),
    ) {
        let (a, b) = spd_workload(n, seed);
        let serial = prepared_solution(&*engine, depth, &a, &b, None);
        for workers in [1usize, 2, 4] {
            let par = prepared_solution(&*engine, depth, &a, &b, Some(workers));
            prop_assert_eq!(
                &par,
                &serial,
                "engine={} n={} depth={} workers={}",
                engine.name(),
                n,
                depth,
                workers
            );
        }
    }
}
