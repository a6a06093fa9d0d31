//! The AMC sign conventions, verified end to end.
//!
//! Every feedback amplifier in the AMC circuits negates its output, and
//! the five-step algorithm is built around those negations (the paper's
//! Fig. 2 labels every intermediate with its sign). These tests pin the
//! conventions down so a refactor can never silently flip one.

use amc_linalg::{generate, lu, vector, Matrix};
use blockamc::engine::{AmcEngine, CircuitEngine, CircuitEngineConfig, NumericEngine};
use blockamc::partition::BlockPartition;
use blockamc::solver::{BlockAmcSolver, Stages, StepRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn workload(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = generate::diagonally_dominant(n, 1.0, &mut rng).unwrap();
    let b = generate::random_vector(n, &mut rng);
    (a, b)
}

/// One-stage solve (midpoint split, ideal signal path): `x` and the
/// per-step trace.
fn one_stage(a: &Matrix, b: &[f64]) -> (Vec<f64>, Vec<StepRecord>) {
    let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::One);
    let report = solver.solve(a, b).unwrap();
    (report.x, report.trace.unwrap())
}

#[test]
fn engine_inv_carries_the_minus_sign() {
    let (a, b) = workload(6, 1);
    for engine in &mut [
        Box::new(NumericEngine::new()) as Box<dyn AmcEngine>,
        Box::new(CircuitEngine::new(CircuitEngineConfig::ideal(), 1)),
    ] {
        let mut op = engine.program(&a).unwrap();
        let out = engine.inv(&mut op, &b).unwrap();
        let x = lu::solve(&a, &b).unwrap();
        assert!(
            vector::approx_eq(&out, &vector::neg(&x), 1e-8),
            "{} engine INV must return −A⁻¹b",
            engine.name()
        );
    }
}

#[test]
fn engine_mvm_carries_the_minus_sign() {
    let (a, x) = workload(6, 2);
    for engine in &mut [
        Box::new(NumericEngine::new()) as Box<dyn AmcEngine>,
        Box::new(CircuitEngine::new(CircuitEngineConfig::ideal(), 2)),
    ] {
        let mut op = engine.program(&a).unwrap();
        let out = engine.mvm(&mut op, &x).unwrap();
        let y = a.matvec(&x).unwrap();
        assert!(
            vector::approx_eq(&out, &vector::neg(&y), 1e-8),
            "{} engine MVM must return −A·x",
            engine.name()
        );
    }
}

#[test]
fn step_signs_match_the_papers_flow_chart() {
    // Verify every intermediate of Fig. 2 against its algebraic
    // definition: −y_t, g_t, z, −f_t, −y.
    let (a, b) = workload(8, 3);
    let p = BlockPartition::halves(&a).unwrap();
    let (f, g) = p.split_vector(&b).unwrap();
    let a4s = p.schur_complement().unwrap();

    let y_t = lu::solve(&p.a1, &f).unwrap();
    let g_t = p.a3.matvec(&y_t).unwrap();
    let z = lu::solve(&a4s, &vector::sub(&g, &g_t)).unwrap();
    let f_t = p.a2.matvec(&z).unwrap();
    let y = lu::solve(&p.a1, &vector::sub(&f, &f_t)).unwrap();

    let (x, trace) = one_stage(&a, &b);

    assert_eq!(trace.len(), 5);
    assert!(
        vector::approx_eq(&trace[0].output, &vector::neg(&y_t), 1e-10),
        "step 1 = −y_t"
    );
    assert!(
        vector::approx_eq(&trace[1].output, &g_t, 1e-10),
        "step 2 = g_t"
    );
    assert!(vector::approx_eq(&trace[2].output, &z, 1e-10), "step 3 = z");
    assert!(
        vector::approx_eq(&trace[3].output, &vector::neg(&f_t), 1e-10),
        "step 4 = −f_t"
    );
    assert!(
        vector::approx_eq(&trace[4].output, &vector::neg(&y), 1e-10),
        "step 5 = −y"
    );
    // Final solution assembles [y; z].
    assert!(vector::approx_eq(&x, &vector::concat(&y, &z), 1e-10));
}

#[test]
fn step_inputs_match_the_papers_flow_chart() {
    let (a, b) = workload(8, 4);
    let p = BlockPartition::halves(&a).unwrap();
    let (f, g) = p.split_vector(&b).unwrap();

    let (_, trace) = one_stage(&a, &b);

    // Step 1 input is f; step 3 input is g_t − g (the "−g_s" of eq. 3);
    // step 5 input is f − f_t (the "f_s").
    assert!(
        vector::approx_eq(&trace[0].input, &f, 0.0),
        "step 1 input = f"
    );
    let gt = &trace[1].output;
    assert!(
        vector::approx_eq(&trace[2].input, &vector::sub(gt, &g), 1e-12),
        "step 3 input = g_t − g"
    );
    let neg_ft = &trace[3].output;
    assert!(
        vector::approx_eq(&trace[4].input, &vector::add(&f, neg_ft), 1e-12),
        "step 5 input = f + (−f_t)"
    );
}

#[test]
fn double_negation_recovers_positive_solution() {
    // x_upper = −(step-5 output): the only digital negation in the flow.
    let (a, b) = workload(10, 5);
    let (x, trace) = one_stage(&a, &b);
    let x_ref = lu::solve(&a, &b).unwrap();
    assert!(vector::approx_eq(&x, &x_ref, 1e-9));
    // And the raw step-5 output is its negation.
    let split = BlockPartition::halves(&a).unwrap().split;
    assert!(vector::approx_eq(
        &trace[4].output,
        &vector::neg(&x_ref[..split]),
        1e-9
    ));
}
