//! Solver-equivalence properties for the unified execution core.
//!
//! After the refactor, `one_stage` and `two_stage` are thin wrappers
//! over the recursive cascade in `multi_stage`. These properties pin
//! the equivalences that refactor promised: with an ideal signal path
//! and identically-seeded engines, the wrappers produce **bit-identical**
//! results to the equivalent shallow partition trees —
//!
//! * `one_stage` ≡ `multi_stage` at depth 1 (natural-size MVM blocks),
//! * `two_stage` ≡ `multi_stage` with the paper layout at depth 2
//!   (quadrant-tiled MVM blocks),
//!
//! under both the exact `NumericEngine` and the analog `CircuitEngine`
//! (where bit-identity additionally requires that both sides program
//! the same arrays in the same order, consuming the same variation
//! draws from a fixed RNG seed).
//!
//! The builder facade (`SolverConfig::builder()` →
//! `BlockAmcSolver::prepare` → `PreparedSolver::solve`) routes every
//! architecture through the partition tree, so the same pinning applies
//! one layer up: the facade must be bit-identical to the legacy module
//! APIs it replaced.
//!
//! The open engine-backend API adds one more equivalence at the same
//! strength: the whole cascade through a type-erased `Box<dyn AmcEngine>`
//! is bit-identical to the concrete engine it wraps.

use blockamc::converter::IoConfig;
use blockamc::engine::{AmcEngine, CircuitEngine, CircuitEngineConfig, NumericEngine};
use blockamc::multi_stage::PartitionPlan;
use blockamc::solver::{SolverConfig, Stages};
use blockamc::{multi_stage, one_stage, two_stage};

use amc_linalg::{generate, Matrix};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: a well-conditioned SPD system of size 4..=20 derived from
/// a seed (so failures reproduce from the seed alone).
fn workload() -> impl Strategy<Value = (Matrix, Vec<f64>, u64)> {
    (4usize..=20, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        let b = generate::random_vector(n, &mut rng);
        (a, b, seed)
    })
}

fn one_stage_x<E: AmcEngine>(mut engine: E, a: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut prep = one_stage::prepare_matrix(&mut engine, a).unwrap();
    one_stage::solve(&mut engine, &mut prep, b, &IoConfig::ideal())
        .unwrap()
        .x
}

fn two_stage_x<E: AmcEngine>(mut engine: E, a: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut prep = two_stage::prepare(&mut engine, a).unwrap();
    two_stage::solve(&mut engine, &mut prep, b, &IoConfig::ideal())
        .unwrap()
        .x
}

fn multi_stage_x<E: AmcEngine>(
    mut engine: E,
    a: &Matrix,
    b: &[f64],
    plan: &PartitionPlan,
) -> Vec<f64> {
    let mut prep = multi_stage::prepare_plan(&mut engine, a, plan).unwrap();
    multi_stage::solve(&mut engine, &mut prep, b).unwrap()
}

fn facade_x<E: AmcEngine>(engine: E, a: &Matrix, b: &[f64], stages: Stages) -> Vec<f64> {
    let mut solver = SolverConfig::builder()
        .stages(stages)
        .build(engine)
        .unwrap();
    let mut prepared = solver.prepare(a).unwrap();
    prepared.solve(b).unwrap().x
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_stage_is_a_depth_one_tree_numeric((a, b, _) in workload()) {
        let one = one_stage_x(NumericEngine::new(), &a, &b);
        let multi = multi_stage_x(NumericEngine::new(), &a, &b, &PartitionPlan::depth(1));
        prop_assert_eq!(one, multi);
    }

    #[test]
    fn one_stage_is_a_depth_one_tree_circuit((a, b, seed) in workload()) {
        let cfg = CircuitEngineConfig::paper_variation();
        let one = one_stage_x(CircuitEngine::new(cfg, seed), &a, &b);
        let multi = multi_stage_x(
            CircuitEngine::new(cfg, seed),
            &a,
            &b,
            &PartitionPlan::depth(1),
        );
        prop_assert_eq!(one, multi);
    }

    #[test]
    fn two_stage_is_a_depth_two_paper_tree_numeric((a, b, _) in workload()) {
        let two = two_stage_x(NumericEngine::new(), &a, &b);
        let multi = multi_stage_x(NumericEngine::new(), &a, &b, &PartitionPlan::paper(2));
        prop_assert_eq!(two, multi);
    }

    #[test]
    fn two_stage_is_a_depth_two_paper_tree_circuit((a, b, seed) in workload()) {
        let cfg = CircuitEngineConfig::paper_variation();
        let two = two_stage_x(CircuitEngine::new(cfg, seed), &a, &b);
        let multi = multi_stage_x(
            CircuitEngine::new(cfg, seed),
            &a,
            &b,
            &PartitionPlan::paper(2),
        );
        prop_assert_eq!(two, multi);
    }

    #[test]
    fn prepared_facade_matches_one_stage_module_numeric((a, b, _) in workload()) {
        let one = one_stage_x(NumericEngine::new(), &a, &b);
        let facade = facade_x(NumericEngine::new(), &a, &b, Stages::One);
        prop_assert_eq!(one, facade);
    }

    #[test]
    fn prepared_facade_matches_one_stage_module_circuit((a, b, seed) in workload()) {
        let cfg = CircuitEngineConfig::paper_variation();
        let one = one_stage_x(CircuitEngine::new(cfg, seed), &a, &b);
        let facade = facade_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::One);
        prop_assert_eq!(one, facade);
    }

    #[test]
    fn prepared_facade_matches_two_stage_module_numeric((a, b, _) in workload()) {
        let two = two_stage_x(NumericEngine::new(), &a, &b);
        let facade = facade_x(NumericEngine::new(), &a, &b, Stages::Two);
        prop_assert_eq!(two, facade);
    }

    #[test]
    fn prepared_facade_matches_two_stage_module_circuit((a, b, seed) in workload()) {
        let cfg = CircuitEngineConfig::paper_variation();
        let two = two_stage_x(CircuitEngine::new(cfg, seed), &a, &b);
        let facade = facade_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::Two);
        prop_assert_eq!(two, facade);
    }

    #[test]
    fn prepared_facade_matches_multi_stage_module_circuit((a, b, seed) in workload()) {
        // Depth bounded by the facade's log2(n) validation.
        let depth = 2.min(a.rows().ilog2() as usize);
        let cfg = CircuitEngineConfig::paper_variation();
        let module = multi_stage_x(
            CircuitEngine::new(cfg, seed),
            &a,
            &b,
            &PartitionPlan::depth(depth),
        );
        let facade = facade_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::Multi(depth));
        prop_assert_eq!(module, facade);
    }

    #[test]
    fn boxed_engine_is_bit_identical_to_concrete((a, b, seed) in workload()) {
        // The acceptance pin of the open backend API: the full cascade
        // through `Box<dyn AmcEngine>` equals the concrete engine
        // bitwise — including under variation, where any divergence in
        // programming order or RNG consumption would show immediately.
        let cfg = CircuitEngineConfig::paper_variation();
        let concrete = facade_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::Two);
        let boxed: Box<dyn AmcEngine> = Box::new(CircuitEngine::new(cfg, seed));
        let erased = facade_x(boxed, &a, &b, Stages::Two);
        prop_assert_eq!(concrete, erased);
    }
}
