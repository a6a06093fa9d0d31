//! Correctness properties of the open engine-backend API.
//!
//! * `FixedPointEngine` converges to `NumericEngine` as the word length
//!   grows — the max relative error over a spread of bit depths is
//!   monotone nonincreasing on SPD workloads (a failed solve counts as
//!   infinite error, so a grid coarse enough to break the matrix sits
//!   at the top of the ladder instead of flaking the property).
//! * The registry builds every shipped backend by name, each solves
//!   through the facade, and unknown names fail loudly.
//! * `Box<dyn AmcEngine>` supports the *whole* production surface —
//!   replication and parallel batching included — bit-identically to
//!   the concrete engine.

use amc_circuit::opamp::OpAmpSpec;
use amc_linalg::{generate, lu, metrics, Matrix};
use blockamc::batch;
use blockamc::engine::{
    AmcEngine, CircuitEngine, CircuitEngineConfig, EngineRegistry, EngineSpec, FixedPointEngine,
    NumericEngine,
};
use blockamc::solver::{BlockAmcSolver, SolverConfig, Stages};
use blockamc::BlockAmcError;
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

/// Max relative error of the fixed-point engine against the exact
/// solution over a small RHS set; `inf` when any solve fails.
fn fixed_point_max_error(a: &Matrix, seeds: &[u64], bits: u32) -> f64 {
    let mut engine = FixedPointEngine::new(bits).unwrap();
    let mut op = engine.program(a).unwrap();
    let mut worst = 0.0_f64;
    for &seed in seeds {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let b = generate::random_vector(a.rows(), &mut rng);
        let x_ref = match lu::solve(a, &b) {
            Ok(x) => x,
            Err(_) => return f64::INFINITY,
        };
        match engine.inv(&mut op, &b) {
            Ok(mut x) => {
                amc_linalg::vector::neg_in_place(&mut x);
                let err = metrics::relative_error(&x_ref, &x);
                if !err.is_finite() {
                    return f64::INFINITY;
                }
                worst = worst.max(err);
            }
            Err(_) => return f64::INFINITY,
        }
    }
    worst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fixed_point_converges_monotonically_to_numeric(
        n in 4usize..=16,
        seed in any::<u64>(),
    ) {
        let (a, _) = spd_workload(n, seed);
        let rhs_seeds = [seed ^ 1, seed ^ 2, seed ^ 3];
        // Widely spaced depths: each step shrinks the grid by 16x, so
        // the max error over the RHS set cannot grow between rungs.
        let ladder = [6u32, 10, 14, 18, 30];
        let errors: Vec<f64> = ladder
            .iter()
            .map(|&bits| fixed_point_max_error(&a, &rhs_seeds, bits))
            .collect();
        for pair in errors.windows(2) {
            prop_assert!(
                pair[1] <= pair[0] + 1e-12,
                "error must not grow with bits: {errors:?}"
            );
        }
        prop_assert!(
            errors[ladder.len() - 1] < 1e-6,
            "30-bit grid must approach the numeric floor: {errors:?}"
        );
    }

    #[test]
    fn boxed_engine_replicates_and_batches_bit_identically(
        n in 8usize..=16,
        seed in any::<u64>(),
    ) {
        // The parallel layer end to end over Box<dyn AmcEngine>:
        // prepare, replicate, shard — merged output equals both the
        // serial path and the concrete-engine run.
        let (a, _) = spd_workload(n, seed);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xBA7C4);
        let batch_rhs: Vec<Vec<f64>> = (0..9)
            .map(|_| generate::random_vector(n, &mut rng))
            .collect();
        let cfg = CircuitEngineConfig::paper_variation();
        let concrete = {
            let mut solver =
                BlockAmcSolver::new(CircuitEngine::new(cfg, seed), Stages::One);
            batch::solve_batch(&mut solver, &a, &batch_rhs, &OpAmpSpec::ideal(), 0.0).unwrap()
        };
        for workers in [1usize, 3] {
            let boxed: Box<dyn AmcEngine> = Box::new(CircuitEngine::new(cfg, seed));
            let mut solver = BlockAmcSolver::new(boxed, Stages::One);
            let erased = batch::solve_batch_parallel(
                &mut solver,
                &a,
                &batch_rhs,
                &OpAmpSpec::ideal(),
                0.0,
                workers,
            )
            .unwrap();
            prop_assert_eq!(&erased.solutions, &concrete.solutions, "workers={}", workers);
            // Integer counters aggregate exactly; the analog sums are
            // reassociated across workers, so compare those to float
            // tolerance.
            prop_assert_eq!(erased.stats.program_ops, concrete.stats.program_ops);
            prop_assert_eq!(erased.stats.inv_ops, concrete.stats.inv_ops);
            prop_assert_eq!(erased.stats.mvm_ops, concrete.stats.mvm_ops);
            let dt = (erased.stats.analog_time_s - concrete.stats.analog_time_s).abs();
            prop_assert!(dt <= 1e-9 * concrete.stats.analog_time_s.max(1e-30));
        }
    }
}

#[test]
fn registry_backends_solve_through_the_facade() {
    let (a, b) = spd_workload(12, 7);
    let x_ref = lu::solve(&a, &b).unwrap();
    let registry = EngineRegistry::builtin();
    for name in ["numeric", "fixed-point", "circuit"] {
        let engine = registry.build(name, 3).unwrap();
        let mut solver = SolverConfig::builder()
            .stages(Stages::One)
            .build(engine)
            .unwrap();
        let report = solver.solve(&a, &b).unwrap();
        assert_eq!(report.engine, name);
        let err = metrics::relative_error(&x_ref, &report.x);
        assert!(err.is_finite() && err < 1.0, "{name}: err={err}");
        // Exact backends hit the floor; quantized/analog ones deviate.
        match name {
            "numeric" => assert!(err < 1e-9, "{name}: err={err}"),
            _ => assert!(err > 1e-9, "{name}: err={err}"),
        }
    }
    assert!(matches!(
        registry.build("does-not-exist", 0),
        Err(BlockAmcError::UnknownEngine { .. })
    ));
    // The retired `blocked` backend is an unknown name like any other.
    let Err(BlockAmcError::UnknownEngine { name, known }) = registry.build("blocked", 0) else {
        panic!("`blocked` must be rejected as an unknown engine");
    };
    assert_eq!(name, "blocked");
    assert_eq!(known, "numeric, fixed-point, circuit");
}

#[test]
fn engine_spec_is_campaign_grade_data() {
    // An EngineSpec round-trips through build() to an engine reporting
    // the spec's name — the contract scenario ladders depend on.
    let specs = [
        EngineSpec::Numeric,
        EngineSpec::FixedPoint { bits: 12 },
        EngineSpec::Circuit(CircuitEngineConfig::ideal()),
    ];
    for spec in specs {
        let engine = spec.build(11).unwrap();
        assert_eq!(engine.name(), spec.name());
    }
    // Invalid parameters fail at construction, not mid-campaign.
    assert!(EngineSpec::FixedPoint { bits: 60 }.build(0).is_err());
}

#[test]
fn mixed_operands_are_rejected_across_all_backends() {
    let (a, _) = spd_workload(6, 9);
    let registry = EngineRegistry::builtin();
    let names: Vec<String> = registry.names().map(str::to_string).collect();
    for programmer in &names {
        for executor in &names {
            if programmer == executor {
                continue;
            }
            let mut p = registry.build(programmer, 0).unwrap();
            let mut e = registry.build(executor, 0).unwrap();
            let mut op = p.program(&a).unwrap();
            assert!(
                matches!(
                    e.inv(&mut op, &[0.1; 6]),
                    Err(BlockAmcError::OperandMismatch { .. })
                ),
                "{programmer} operand must be rejected by {executor}"
            );
        }
    }
}

#[test]
fn numeric_engine_unchanged_by_the_redesign() {
    // Spot-pin: the type-erased operand path returns exactly what the
    // closed-enum implementation returned (LU solve + negation).
    let (a, b) = spd_workload(10, 21);
    let mut engine = NumericEngine::new();
    let mut op = engine.program(&a).unwrap();
    let mut expected = lu::solve(&a, &b).unwrap();
    amc_linalg::vector::neg_in_place(&mut expected);
    assert_eq!(engine.inv(&mut op, &b).unwrap(), expected);
}
