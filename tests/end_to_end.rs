//! End-to-end integration tests: the full pipeline from matrix generation
//! through device programming, circuit simulation, and the BlockAMC
//! algorithm, checked against the exact digital solver.

use amc_linalg::{generate, lu, metrics, vector};
use blockamc::converter::IoConfig;
use blockamc::engine::{CircuitEngine, CircuitEngineConfig, NumericEngine};
use blockamc::solver::{BlockAmcSolver, SolverConfig, Stages};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn wishart_workload(n: usize, seed: u64) -> (amc_linalg::Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = generate::wishart_default(n, &mut rng).unwrap();
    let b = generate::random_vector(n, &mut rng);
    (a, b)
}

fn toeplitz_workload(n: usize, seed: u64) -> (amc_linalg::Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = generate::random_spd_toeplitz(n, 8, 0.02, &mut rng).unwrap();
    let b = generate::random_vector(n, &mut rng);
    (a, b)
}

#[test]
fn every_architecture_solves_every_family_exactly_with_numeric_engine() {
    type Make = fn(usize, u64) -> (amc_linalg::Matrix, Vec<f64>);
    for (family, make) in [
        ("wishart", wishart_workload as Make),
        ("toeplitz", toeplitz_workload as Make),
    ] {
        for n in [8usize, 12, 17, 32] {
            let (a, b) = make(n, n as u64);
            let x_ref = lu::solve(&a, &b).unwrap();
            for stages in [Stages::Original, Stages::One, Stages::Two, Stages::Multi(3)] {
                let mut solver = BlockAmcSolver::new(NumericEngine::new(), stages);
                let r = solver.solve(&a, &b).unwrap();
                let err = metrics::relative_error(&x_ref, &r.x);
                assert!(err < 1e-7, "{family} n={n} {stages:?}: err={err}");
            }
        }
    }
}

#[test]
fn ideal_analog_stack_reproduces_digital_solution() {
    let (a, b) = wishart_workload(24, 1);
    let x_ref = lu::solve(&a, &b).unwrap();
    for stages in [Stages::Original, Stages::One, Stages::Two] {
        let engine = CircuitEngine::new(CircuitEngineConfig::ideal(), 7);
        let mut solver = BlockAmcSolver::new(engine, stages);
        let r = solver.solve(&a, &b).unwrap();
        let err = metrics::relative_error(&x_ref, &r.x);
        assert!(err < 1e-8, "{stages:?}: err={err}");
    }
}

#[test]
fn noisy_analog_solutions_are_usable_seeds() {
    // The headline behavioural claim: at the paper's 5% write accuracy the
    // analog solution lands within ~20% of the exact one on the benchmark
    // families — a usable seed, not garbage.
    let (a, b) = wishart_workload(32, 2);
    let x_ref = lu::solve(&a, &b).unwrap();
    for stages in [Stages::One, Stages::Two] {
        let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 3);
        let mut solver = BlockAmcSolver::new(engine, stages);
        let r = solver.solve(&a, &b).unwrap();
        let err = metrics::relative_error(&x_ref, &r.x);
        assert!(err < 0.3, "{stages:?}: err={err}");
        assert!(err > 1e-6, "{stages:?}: variation must actually perturb");
    }
}

#[test]
fn residual_is_consistent_with_reported_error() {
    let (a, b) = toeplitz_workload(16, 3);
    let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 5);
    let mut solver = BlockAmcSolver::new(engine, Stages::One);
    let r = solver.solve(&a, &b).unwrap();
    // ‖A·x̂ − b‖ must be small iff the error is small (sanity link between
    // the metric and the algebra).
    let residual = vector::norm2(&vector::sub(&a.matvec(&r.x).unwrap(), &b));
    assert!(residual.is_finite());
    assert!(residual / vector::norm2(&b) < 1.0);
}

#[test]
fn full_nonideal_stack_runs_end_to_end_with_converters() {
    let (a, b) = wishart_workload(16, 4);
    let x_ref = lu::solve(&a, &b).unwrap();
    let engine = CircuitEngine::new(CircuitEngineConfig::paper_full(), 11);
    let mut solver = SolverConfig::builder()
        .stages(Stages::One)
        .io(IoConfig::default_8bit())
        .build(engine)
        .unwrap();
    let r = solver.solve(&a, &b).unwrap();
    let err = metrics::relative_error(&x_ref, &r.x);
    assert!(err.is_finite());
    assert!(err < 0.5, "err={err}");
    // The analog cost accounting must be populated by the circuit engine.
    assert!(r.stats_delta.analog_time_s > 0.0);
    assert!(r.stats_delta.analog_energy_j > 0.0);
}

#[test]
fn same_seed_gives_identical_results_across_runs() {
    let (a, b) = wishart_workload(16, 5);
    let run = || {
        let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 42);
        let mut solver = BlockAmcSolver::new(engine, Stages::One);
        solver.solve(&a, &b).unwrap().x
    };
    assert_eq!(run(), run());
}

#[test]
fn multi_stage_depth_increases_program_count_but_not_error_with_numeric_engine() {
    let (a, b) = wishart_workload(32, 6);
    let x_ref = lu::solve(&a, &b).unwrap();
    let mut prev_programs = 0;
    for depth in 1..=3 {
        let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::Multi(depth));
        let r = solver.solve(&a, &b).unwrap();
        assert!(
            metrics::relative_error(&x_ref, &r.x) < 1e-8,
            "depth {depth}"
        );
        assert!(
            r.stats_delta.program_ops > prev_programs,
            "deeper partitioning must use more arrays"
        );
        prev_programs = r.stats_delta.program_ops;
    }
}
