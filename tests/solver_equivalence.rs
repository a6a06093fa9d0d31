//! Solver-equivalence properties for the unified execution core.
//!
//! Every architecture runs on the one recursive cascade in
//! `multi_stage`, reached through the builder facade
//! (`SolverConfig::builder()` → `BlockAmcSolver::prepare` →
//! `PreparedSolver::solve`). These properties pin that with an ideal
//! signal path and identically-seeded engines the paper's signal paths
//! are **bit-identical** to the plain analog tree they are layered on —
//!
//! * `Stages::One` (a `Macro` root) ≡ a depth-1 tree with a pure plan,
//! * `Stages::Two` (`[Bus, Macro]`) ≡ the same quadrant-tiled depth-2
//!   tree with a pure plan,
//! * `Stages::Multi(d)` (paper plan) ≡ the depth-`d` tree with a pure
//!   plan,
//!
//! and that the prepared facade is bit-identical to a one- and two-stage
//! macro rebuilt in this file from the engine primitives alone (program,
//! INV, MVM) — an oracle that shares no code with the cascade.
//!
//! All of this holds under both the exact `NumericEngine` and the analog
//! `CircuitEngine` (where bit-identity additionally requires that both
//! sides program the same arrays in the same order, consuming the same
//! variation draws from a fixed RNG seed).
//!
//! The open engine-backend API adds one more equivalence at the same
//! strength: the whole cascade through a type-erased `Box<dyn AmcEngine>`
//! is bit-identical to the concrete engine it wraps.

use blockamc::engine::{AmcEngine, CircuitEngine, CircuitEngineConfig, NumericEngine, Operand};
use blockamc::partition::BlockPartition;
use blockamc::solver::{SignalPlan, SolverConfig, Stages};

use amc_linalg::{generate, vector, Matrix};
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

/// Prepared-facade solve; `signal` overrides the architecture's
/// default (paper) signal plan.
fn facade_x<E: AmcEngine>(
    engine: E,
    a: &Matrix,
    b: &[f64],
    stages: Stages,
    signal: Option<SignalPlan>,
) -> Vec<f64> {
    let mut builder = SolverConfig::builder().stages(stages);
    if let Some(plan) = signal {
        builder = builder.signal_plan(plan);
    }
    let mut solver = builder.build(engine).unwrap();
    let mut prepared = solver.prepare(a).unwrap();
    prepared.solve(b).unwrap().x
}

fn pure_x<E: AmcEngine>(engine: E, a: &Matrix, b: &[f64], stages: Stages) -> Vec<f64> {
    facade_x(engine, a, b, stages, Some(SignalPlan::pure()))
}

fn program_nonzero<E: AmcEngine>(engine: &mut E, m: &Matrix) -> Option<Operand> {
    (!m.is_zero()).then(|| engine.program(m).unwrap())
}

/// The one-stage macro of Fig. 2 from engine primitives: `A1`, `A2`,
/// `A3`, `A4s` programmed in that order (zero blocks skipped), then
/// the five steps.
struct RefOneStage {
    split: usize,
    a1: Operand,
    a2: Option<Operand>,
    a3: Option<Operand>,
    a4s: Operand,
}

impl RefOneStage {
    fn prepare<E: AmcEngine>(engine: &mut E, a: &Matrix) -> Self {
        let p = BlockPartition::halves(a).unwrap();
        let a4s = p.schur_complement().unwrap();
        RefOneStage {
            split: p.split,
            a1: engine.program(&p.a1).unwrap(),
            a2: program_nonzero(engine, &p.a2),
            a3: program_nonzero(engine, &p.a3),
            a4s: engine.program(&a4s).unwrap(),
        }
    }

    /// `[−y; −z]` — the macro's INV output `−x`, as a cascade above it
    /// receives it.
    fn neg_solve<E: AmcEngine>(&mut self, engine: &mut E, b: &[f64]) -> Vec<f64> {
        let (f, g) = b.split_at(self.split);
        let neg_yt = engine.inv(&mut self.a1, f).unwrap();
        let gt = match &mut self.a3 {
            Some(op) => engine.mvm(op, &neg_yt).unwrap(),
            None => vec![0.0; g.len()],
        };
        let z = engine.inv(&mut self.a4s, &vector::sub(&gt, g)).unwrap();
        let neg_ft = match &mut self.a2 {
            Some(op) => engine.mvm(op, &z).unwrap(),
            None => vec![0.0; f.len()],
        };
        let neg_y = engine.inv(&mut self.a1, &vector::add(&neg_ft, f)).unwrap();
        vector::concat(&neg_y, &vector::neg(&z))
    }
}

/// A matrix programmed as its non-zero quadrants (row-major), whose MVM
/// sums the partial products of each output half.
struct RefTiled {
    row_split: usize,
    col_split: usize,
    tiles: Vec<Option<Operand>>,
}

impl RefTiled {
    fn prepare<E: AmcEngine>(engine: &mut E, m: &Matrix) -> Option<Self> {
        if m.is_zero() {
            return None;
        }
        let (rows, cols) = m.shape();
        let (rs, cs) = (rows.div_ceil(2), cols.div_ceil(2));
        let tiles = [(0, 0, rs, cs), (0, cs, rs, cols - cs)]
            .into_iter()
            .chain([(rs, 0, rows - rs, cs), (rs, cs, rows - rs, cols - cs)])
            .map(|(r, c, h, w)| program_nonzero(engine, &m.block(r, c, h, w).unwrap()))
            .collect();
        Some(RefTiled {
            row_split: rs,
            col_split: cs,
            tiles,
        })
    }

    fn mvm<E: AmcEngine>(&mut self, engine: &mut E, x: &[f64], rows: usize) -> Vec<f64> {
        let (xt, xb) = x.split_at(self.col_split);
        let mut out = vec![0.0; rows];
        let (top, bottom) = out.split_at_mut(self.row_split);
        let mut tiles = self.tiles.iter_mut();
        for acc in [top, bottom] {
            for input in [xt, xb] {
                if let Some(op) = tiles.next().unwrap() {
                    vector::axpy(1.0, &engine.mvm(op, input).unwrap(), acc);
                }
            }
        }
        out
    }
}

/// The two-stage solver of Fig. 5 from engine primitives: one-stage
/// macros for `A1` and `A4s`, quadrant-tiled `A2`/`A3`, programmed in
/// the order `A1` macro, `A2` tiles, `A3` tiles, `A4s` macro.
fn ref_two_stage_x<E: AmcEngine>(mut engine: E, a: &Matrix, b: &[f64]) -> Vec<f64> {
    let e = &mut engine;
    let p = BlockPartition::halves(a).unwrap();
    let a4s = p.schur_complement().unwrap();
    let mut a1 = RefOneStage::prepare(e, &p.a1);
    let mut a2 = RefTiled::prepare(e, &p.a2);
    let mut a3 = RefTiled::prepare(e, &p.a3);
    let mut a4s = RefOneStage::prepare(e, &a4s);

    let (f, g) = b.split_at(p.split);
    let neg_yt = a1.neg_solve(e, f);
    let gt = match &mut a3 {
        Some(t) => t.mvm(e, &neg_yt, g.len()),
        None => vec![0.0; g.len()],
    };
    let z = vector::neg(&a4s.neg_solve(e, &vector::sub(g, &gt)));
    let neg_ft = match &mut a2 {
        Some(t) => t.mvm(e, &z, f.len()),
        None => vec![0.0; f.len()],
    };
    let neg_y = a1.neg_solve(e, &vector::add(&neg_ft, f));
    vector::concat(&vector::neg(&neg_y), &z)
}

fn ref_one_stage_x<E: AmcEngine>(mut engine: E, a: &Matrix, b: &[f64]) -> Vec<f64> {
    let mut prep = RefOneStage::prepare(&mut engine, a);
    vector::neg(&prep.neg_solve(&mut engine, b))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_stage_is_a_depth_one_tree_numeric((a, b, _) in workload()) {
        let one = facade_x(NumericEngine::new(), &a, &b, Stages::One, None);
        let multi = pure_x(NumericEngine::new(), &a, &b, Stages::Multi(1));
        prop_assert_eq!(one, multi);
    }

    #[test]
    fn one_stage_is_a_depth_one_tree_circuit((a, b, seed) in workload()) {
        let cfg = CircuitEngineConfig::paper_variation();
        let one = facade_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::One, None);
        let multi = pure_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::Multi(1));
        prop_assert_eq!(one, multi);
    }

    #[test]
    fn two_stage_is_a_depth_two_paper_tree_numeric((a, b, _) in workload()) {
        let two = facade_x(NumericEngine::new(), &a, &b, Stages::Two, None);
        let tree = pure_x(NumericEngine::new(), &a, &b, Stages::Two);
        prop_assert_eq!(two, tree);
    }

    #[test]
    fn two_stage_is_a_depth_two_paper_tree_circuit((a, b, seed) in workload()) {
        let cfg = CircuitEngineConfig::paper_variation();
        let two = facade_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::Two, None);
        let tree = pure_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::Two);
        prop_assert_eq!(two, tree);
    }

    #[test]
    fn prepared_facade_matches_one_stage_module_numeric((a, b, _) in workload()) {
        let one = ref_one_stage_x(NumericEngine::new(), &a, &b);
        let facade = facade_x(NumericEngine::new(), &a, &b, Stages::One, None);
        prop_assert_eq!(one, facade);
    }

    #[test]
    fn prepared_facade_matches_one_stage_module_circuit((a, b, seed) in workload()) {
        let cfg = CircuitEngineConfig::paper_variation();
        let one = ref_one_stage_x(CircuitEngine::new(cfg, seed), &a, &b);
        let facade = facade_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::One, None);
        prop_assert_eq!(one, facade);
    }

    #[test]
    fn prepared_facade_matches_two_stage_module_numeric((a, b, _) in workload()) {
        let two = ref_two_stage_x(NumericEngine::new(), &a, &b);
        let facade = facade_x(NumericEngine::new(), &a, &b, Stages::Two, None);
        prop_assert_eq!(two, facade);
    }

    #[test]
    fn prepared_facade_matches_two_stage_module_circuit((a, b, seed) in workload()) {
        let cfg = CircuitEngineConfig::paper_variation();
        let two = ref_two_stage_x(CircuitEngine::new(cfg, seed), &a, &b);
        let facade = facade_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::Two, None);
        prop_assert_eq!(two, facade);
    }

    #[test]
    fn prepared_facade_matches_multi_stage_module_circuit((a, b, seed) in workload()) {
        // Depth bounded by the facade's log2(n) validation.
        let depth = 2.min(a.rows().ilog2() as usize);
        let cfg = CircuitEngineConfig::paper_variation();
        let tree = pure_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::Multi(depth));
        let facade = facade_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::Multi(depth), None);
        prop_assert_eq!(tree, facade);
    }

    #[test]
    fn boxed_engine_is_bit_identical_to_concrete((a, b, seed) in workload()) {
        // The acceptance pin of the open backend API: the full cascade
        // through `Box<dyn AmcEngine>` equals the concrete engine
        // bitwise — including under variation, where any divergence in
        // programming order or RNG consumption would show immediately.
        let cfg = CircuitEngineConfig::paper_variation();
        let concrete = facade_x(CircuitEngine::new(cfg, seed), &a, &b, Stages::Two, None);
        let boxed: Box<dyn AmcEngine> = Box::new(CircuitEngine::new(cfg, seed));
        let erased = facade_x(boxed, &a, &b, Stages::Two, None);
        prop_assert_eq!(concrete, erased);
    }
}
