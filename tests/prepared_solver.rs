//! Integration tests of the builder facade: prepare/solve split,
//! per-level signal plans, and the amortization guarantee.
//!
//! The headline physical claim of the redesign: a multi-RHS workload
//! driven through [`blockamc::solver::PreparedSolver`] programs each
//! array exactly once (`EngineStats::program_ops` stays flat across
//! solves), and repeated solves see one fixed variation draw — the
//! paper's §III.B amortization of nonvolatile array programming.

use amc_linalg::{generate, lu, metrics, vector, Matrix};
use blockamc::converter::{Converter, IoConfig};
use blockamc::engine::{AmcEngine, CircuitEngine, CircuitEngineConfig, NumericEngine};
use blockamc::solver::{BlockAmcSolver, LevelIo, SignalPlan, SolverConfig, Stages};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn workload(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = generate::wishart_default(n, &mut rng).unwrap();
    let b = generate::random_vector(n, &mut rng);
    (a, b)
}

/// Diagonally dominant matrix and RHS with exactly-representable
/// entries (same construction as `tests/io_signal_paths.rs`), so
/// snapshot expectations are exact on every IEEE-754 platform.
fn dyadic_workload(n: usize) -> (Matrix, Vec<f64>) {
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            4.0
        } else {
            ((i * 3 + j * 5) % 7) as f64 * 0.125 - 0.375
        }
    });
    let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 * 0.25 - 0.5).collect();
    (a, b)
}

#[test]
fn multi_rhs_workload_programs_each_array_exactly_once() {
    // The contract: many right-hand sides, one programming pass.
    let (a, _) = workload(16, 1);
    let mut rng = ChaCha8Rng::seed_from_u64(2);
    let batch: Vec<Vec<f64>> = (0..16)
        .map(|_| generate::random_vector(16, &mut rng))
        .collect();
    for (stages, arrays) in [(Stages::One, 4), (Stages::Two, 16)] {
        let mut solver = SolverConfig::builder()
            .stages(stages)
            .build(NumericEngine::new())
            .unwrap();
        let mut prepared = solver.prepare(&a).unwrap();
        assert_eq!(prepared.engine().stats().program_ops, arrays, "{stages:?}");
        let solutions = prepared.solve_batch(&batch).unwrap();
        assert_eq!(
            prepared.engine().stats().program_ops,
            arrays,
            "{stages:?}: solving must not reprogram"
        );
        for (b, x) in batch.iter().zip(&solutions) {
            let x_ref = lu::solve(&a, b).unwrap();
            assert!(vector::approx_eq(x, &x_ref, 1e-8), "{stages:?}");
        }
    }
}

#[test]
fn program_ops_stay_flat_across_repeated_solves() {
    // Per-solve stats deltas report zero programming, under both engines.
    let (a, b) = workload(12, 3);
    let mut numeric = SolverConfig::builder()
        .stages(Stages::One)
        .build(NumericEngine::new())
        .unwrap();
    let mut prepared = numeric.prepare(&a).unwrap();
    for _ in 0..5 {
        let r = prepared.solve(&b).unwrap();
        assert_eq!(r.stats_delta.program_ops, 0);
        assert_eq!(r.stats_delta.inv_ops, 3);
        assert_eq!(r.stats_delta.mvm_ops, 2);
    }

    let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 7);
    let mut analog = SolverConfig::builder()
        .stages(Stages::Two)
        .build(engine)
        .unwrap();
    let mut prepared = analog.prepare(&a).unwrap();
    let baseline = prepared.engine().stats().program_ops;
    let first = prepared.solve(&b).unwrap().x;
    for _ in 0..3 {
        // One variation draw: repeated solves are bit-identical.
        assert_eq!(prepared.solve(&b).unwrap().x, first);
    }
    assert_eq!(prepared.engine().stats().program_ops, baseline);
}

#[test]
fn prepared_solve_is_bit_identical_to_the_reprogramming_facade() {
    // For an identically-seeded engine, going through prepare() once
    // must consume the same variation stream as the convenience solve.
    let (a, b) = workload(16, 4);
    let config = CircuitEngineConfig::paper_variation();
    let mut via_solve = SolverConfig::builder()
        .stages(Stages::One)
        .build(CircuitEngine::new(config, 11))
        .unwrap();
    let x_solve = via_solve.solve(&a, &b).unwrap().x;
    let mut via_prepare = SolverConfig::builder()
        .stages(Stages::One)
        .build(CircuitEngine::new(config, 11))
        .unwrap();
    let x_prepare = via_prepare.prepare(&a).unwrap().solve(&b).unwrap().x;
    assert_eq!(x_solve, x_prepare);
}

/// The non-ideal signal path of `tests/io_signal_paths.rs`: asymmetric
/// converters plus S&H droop, so any dropped or doubled hop moves the
/// snapshot.
fn nonideal_io() -> IoConfig {
    IoConfig {
        dac: Some(Converter::new(8, 1.0).unwrap()),
        adc: Some(Converter::new(6, 1.0).unwrap()),
        sh_droop: 0.0625,
    }
}

#[test]
fn depth3_cascade_with_bus_entry_at_level1_snapshot() {
    // The contract: a depth-3 cascade whose level-1 boundary
    // crosses the data bus runs through the facade. The workload is
    // dyadic and the engine exact, so the solution is pinned to the
    // bit; a dropped or doubled ADC→DAC hop at level 1 moves it.
    let (a, b) = dyadic_workload(8);
    let plan = SignalPlan::pure().with_level(1, LevelIo::Bus(nonideal_io()));
    let mut solver = SolverConfig::builder()
        .stages(Stages::Multi(3))
        .signal_plan(plan)
        .build(NumericEngine::new())
        .unwrap();
    let mut prepared = solver.prepare(&a).unwrap();
    assert_eq!(prepared.depth(), 3);
    let r = prepared.solve(&b).unwrap();
    // The pure root cascade records its five steps; the bus sits one
    // level below it.
    assert_eq!(r.trace.as_ref().map(Vec::len), Some(5));
    let expected = [
        -0.12698412698412698,
        -0.031746031746031744,
        0.12698412698412698,
        -0.06349206349206349,
        0.06349206349206349,
        -0.12698412698412698,
        0.0,
        0.12698412698412698,
    ];
    assert_eq!(r.x, expected, "level-1 bus snapshot moved");
    // Sanity: the coarse 6-bit hops perturb but do not destroy the
    // solution.
    let x_ref = lu::solve(&a, &b).unwrap();
    let err = metrics::relative_error(&x_ref, &r.x);
    assert!(err > 1e-6 && err < 0.5, "err={err}");
}

#[test]
fn deep_paper_plan_applies_converters_at_every_level() {
    // A depth-3 paper plan ([Bus, Bus, Macro]) must quantize harder
    // than a depth-3 plan with converters only at the root, which in
    // turn beats an unconverted (pure) plan — each additional
    // bus/macro level adds ADC→DAC hops.
    let (a, b) = workload(16, 9);
    let x_ref = lu::solve(&a, &b).unwrap();
    let io = IoConfig {
        dac: Some(Converter::new(10, 4.0).unwrap()),
        adc: Some(Converter::new(10, 4.0).unwrap()),
        sh_droop: 0.0,
    };
    let err_with = |plan: SignalPlan| {
        let mut solver = SolverConfig::builder()
            .stages(Stages::Multi(3))
            .signal_plan(plan)
            .build(NumericEngine::new())
            .unwrap();
        metrics::relative_error(&x_ref, &solver.solve(&a, &b).unwrap().x)
    };
    let pure = err_with(SignalPlan::pure());
    let root_only = err_with(SignalPlan::from_levels(vec![LevelIo::Macro(io)]));
    let full_paper = err_with(SignalPlan::paper(3, io));
    assert!(pure < 1e-10, "pure plan is exact: {pure}");
    assert!(root_only > 1e-6, "root converters quantize: {root_only}");
    assert!(
        full_paper > root_only,
        "per-level hops must add error: {full_paper} vs {root_only}"
    );
}

#[test]
fn non_finite_inputs_get_typed_errors_before_any_engine_call() {
    use blockamc::batch;
    use blockamc::BlockAmcError;
    let (a, b) = workload(8, 41);
    fn non_finite<T>(which: &'static str, index: usize) -> Result<T, BlockAmcError> {
        Err(BlockAmcError::NonFinite { which, index })
    }
    let solver = || BlockAmcSolver::new(NumericEngine::new(), Stages::Two);

    // Probe 1: a NaN in b used to come back as Ok with an all-NaN x.
    let mut bad_b = b.clone();
    bad_b[5] = f64::NAN;
    let mut facade = solver();
    assert_eq!(facade.solve(&a, &bad_b).map(|r| r.x), non_finite("b", 5));
    assert_eq!(facade.engine().stats().program_ops, 0);
    let mut prepared = facade.prepare(&a).unwrap();
    assert_eq!(prepared.solve(&bad_b).map(|r| r.x), non_finite("b", 5));
    let mut replica = prepared.replicate(1).remove(0);
    assert_eq!(replica.solve(&bad_b).map(|r| r.x), non_finite("b", 5));
    assert_eq!(replica.engine().stats().inv_ops, 0);

    // Probe 2: a +Inf in A used to be reported as "singular".
    let mut bad_a = a.clone();
    bad_a[(2, 3)] = f64::INFINITY;
    let mut facade = solver();
    assert_eq!(
        facade.prepare(&bad_a).err(),
        Some(BlockAmcError::NonFinite {
            which: "A",
            index: 2 * 8 + 3,
        })
    );
    assert_eq!(facade.solve(&bad_a, &b).map(|r| r.x), non_finite("A", 19));
    assert_eq!(facade.engine().stats().program_ops, 0);

    // A batch with one bad right-hand side: entry i of RHS r is index
    // r·n + i, and every batch entry point rejects it up front.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut rhs: Vec<Vec<f64>> = (0..5)
        .map(|_| generate::random_vector(8, &mut rng))
        .collect();
    rhs[3][1] = f64::NEG_INFINITY;
    let mut facade = solver();
    let mut prepared = facade.prepare(&a).unwrap();
    assert_eq!(prepared.solve_batch(&rhs), non_finite("b", 25));
    let mut replica = prepared.replicate(1).remove(0);
    assert_eq!(replica.solve_batch(&rhs), non_finite("b", 25));
    assert_eq!(replica.solve_batch_parallel(&rhs, 2), non_finite("b", 25));
    assert_eq!(replica.engine().stats().inv_ops, 0);
    let opamp = amc_circuit::opamp::OpAmpSpec::ideal();
    let mut facade = solver();
    let serial = batch::solve_batch(&mut facade, &a, &rhs, &opamp, 0.0);
    assert_eq!(serial.map(|s| s.solutions), non_finite("b", 25));
    assert_eq!(facade.engine().stats().program_ops, 0);
}

#[test]
fn singular_leading_block_gets_a_typed_error_not_a_singular_matrix() {
    use blockamc::solver::{SplitRule, SplitSearchOptions};
    use blockamc::BlockAmcError;
    // An orthogonal 4x4 block swap [[0, I], [I, 0]] (κ = 1) whose
    // leading 2x2 block is zero.
    let (z, i) = (Matrix::zeros(2, 2), Matrix::identity(2));
    let a = Matrix::from_blocks(&z, &i, &i, &z).unwrap();
    let build = |split| {
        SolverConfig::builder()
            .stages(Stages::One)
            .split_rule(split)
            .build(NumericEngine::new())
            .unwrap()
    };

    let err = build(SplitRule::Halves).prepare(&a).unwrap_err();
    assert_eq!(
        err,
        BlockAmcError::SingularLeadingBlock {
            n: 4,
            split: 2,
            pivot: 0
        }
    );
    let msg = err.to_string();
    assert!(msg.contains("A1 (2x2)") && msg.contains("split"), "{msg}");
    assert!(!msg.contains("matrix is singular"), "{msg}");

    // Every candidate split of the searched rule has a singular leading
    // block here too: an error, not a panic.
    let searched = SplitRule::Searched(SplitSearchOptions::default());
    assert!(build(searched).prepare(&a).is_err());
}
