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
//! * The multi-RHS block methods match per-column `inv_into`/`mvm_into`
//!   bit for bit on every backend, count one op per column, and a
//!   registry-built `Box<dyn AmcEngine>` reaches a backend's override.
//! * A circuit operand prepares its INV/MVM circuit state once and
//!   reuses it: repeated calls, clones taken before or after the first
//!   call, and the one-shot `AnalogSimulator` agree bit for bit; a failed
//!   prepare is never cached; input-shape errors come before prepare
//!   errors.

use amc_circuit::interconnect::InterconnectModel;
use amc_circuit::opamp::OpAmpSpec;
use amc_circuit::sim::{AnalogSimulator, CircuitOutput};
use amc_circuit::CircuitError;
use amc_device::array::ProgrammedMatrix;
use amc_linalg::{generate, lu, metrics, Matrix};
use blockamc::batch;
use blockamc::engine::{
    AmcEngine, CircuitEngine, CircuitEngineConfig, EngineRegistry, EngineSpec, EngineStats,
    FixedPointEngine, NumericEngine, Operand,
};
use blockamc::solver::{BlockAmcSolver, SolverConfig, Stages};
use blockamc::BlockAmcError;
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

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
            let erased = solver
                .prepare(&a)
                .unwrap()
                .replicate(1)
                .remove(0)
                .solve_batch_parallel(&batch_rhs, workers)
                .unwrap();
            prop_assert_eq!(&erased, &concrete.solutions, "workers={}", workers);
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

/// Column `c` of a row-major block of width `k`.
fn column(block: &[f64], k: usize, c: usize) -> Vec<f64> {
    block.iter().skip(c).step_by(k).copied().collect()
}

/// A `rows×k` block of seeded entries with one all-zero column (the
/// last) and a `-0.0` in the first.
fn rhs_block(rows: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut block = generate::random_vector(rows * k, &mut rng);
    for row in block.chunks_exact_mut(k) {
        row[k - 1] = 0.0;
    }
    block[0] = -0.0;
    block
}

/// The block methods against per-column `inv_into`/`mvm_into` on the
/// same operands: bit-identical columns and `k` ops counted per call.
fn assert_block_methods_match_per_column(mut engine: impl AmcEngine, name: &str) {
    let (a, _) = spd_workload(10, 17);
    let mut inv_op = engine.program(&a).unwrap();
    // A rectangular MVM operand, as the odd-split A2/A3 blocks are.
    let m = a.block(0, 0, 7, 5).unwrap();
    let mut mvm_op = engine.program(&m).unwrap();
    for k in [1usize, 2, 5, 9] {
        let b = rhs_block(10, k, k as u64);
        let before = engine.stats();
        let mut block = Vec::new();
        engine
            .inv_block_into(&mut inv_op, &b, k, &mut block)
            .unwrap();
        assert_eq!(engine.stats().inv_ops - before.inv_ops, k, "{name} k={k}");
        let mut single = Vec::new();
        for c in 0..k {
            engine
                .inv_into(&mut inv_op, &column(&b, k, c), &mut single)
                .unwrap();
            let got: Vec<u64> = column(&block, k, c).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = single.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{name} inv k={k} column {c}");
        }

        let x = rhs_block(5, k, 100 + k as u64);
        let before = engine.stats();
        engine
            .mvm_block_into(&mut mvm_op, &x, k, &mut block)
            .unwrap();
        assert_eq!(engine.stats().mvm_ops - before.mvm_ops, k, "{name} k={k}");
        assert_eq!(block.len(), 7 * k);
        for c in 0..k {
            engine
                .mvm_into(&mut mvm_op, &column(&x, k, c), &mut single)
                .unwrap();
            let got: Vec<u64> = column(&block, k, c).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = single.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{name} mvm k={k} column {c}");
        }
    }
    // A block whose length is not a multiple of k, and k = 0, are
    // rejected before any op is counted.
    let before = engine.stats();
    let mut out = Vec::new();
    assert!(engine
        .inv_block_into(&mut inv_op, &[0.5; 21], 2, &mut out)
        .is_err());
    assert!(engine
        .mvm_block_into(&mut mvm_op, &[0.5; 5], 0, &mut out)
        .is_err());
    assert_eq!(engine.stats().inv_ops, before.inv_ops, "{name}");
    assert_eq!(engine.stats().mvm_ops, before.mvm_ops, "{name}");
}

#[test]
fn block_methods_match_per_column_calls_bit_for_bit() {
    // Fixed-point and circuit take the per-column default; numeric
    // overrides both methods with the multi-column kernels.
    assert_block_methods_match_per_column(FixedPointEngine::new(12).unwrap(), "fixed-point");
    assert_block_methods_match_per_column(
        CircuitEngine::new(CircuitEngineConfig::paper_variation(), 5),
        "circuit",
    );
    assert_block_methods_match_per_column(NumericEngine::new(), "numeric");
    let boxed: Box<dyn AmcEngine> = Box::new(NumericEngine::new());
    assert_block_methods_match_per_column(boxed, "boxed numeric");
}

/// A numeric backend whose block overrides count their calls, so a test
/// can see whether a `Box<dyn AmcEngine>` reaches them.
#[derive(Debug, Clone)]
struct MarkedEngine {
    inner: NumericEngine,
    block_calls: Arc<AtomicUsize>,
}

impl AmcEngine for MarkedEngine {
    fn program(&mut self, a: &Matrix) -> blockamc::Result<Operand> {
        self.inner.program(a)
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
        self.block_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.inv_block_into(operand, b, k, out)
    }

    fn mvm_block_into(
        &mut self,
        operand: &mut Operand,
        x: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> blockamc::Result<()> {
        self.block_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.mvm_block_into(operand, x, k, out)
    }

    fn name(&self) -> &'static str {
        "marked"
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn clone_boxed(&self) -> Box<dyn AmcEngine> {
        Box::new(self.clone())
    }
}

#[test]
fn registry_built_engines_reach_the_block_overrides() {
    let block_calls = Arc::new(AtomicUsize::new(0));
    let mut registry = EngineRegistry::empty();
    let marker = Arc::clone(&block_calls);
    registry.register("marked", move |_seed| {
        Ok(Box::new(MarkedEngine {
            inner: NumericEngine::new(),
            block_calls: Arc::clone(&marker),
        }))
    });
    let (a, _) = spd_workload(12, 23);
    let mut rng = ChaCha8Rng::seed_from_u64(24);
    let batch: Vec<Vec<f64>> = (0..6)
        .map(|_| generate::random_vector(12, &mut rng))
        .collect();
    let mut solver = SolverConfig::builder()
        .stages(Stages::Two)
        .build(registry.build("marked", 0).unwrap())
        .unwrap();
    let mut prepared = solver.prepare(&a).unwrap();
    let solutions = prepared.solve_batch(&batch).unwrap();
    assert!(
        block_calls.load(Ordering::Relaxed) > 0,
        "the boxed engine must forward the block methods to the override"
    );
    // The override path agrees bit for bit with one solve per RHS.
    for (b, x) in batch.iter().zip(&solutions) {
        assert_eq!(&prepared.solve(b).unwrap().x, x);
    }
    // Every worker's replica clones the override, too.
    let mut replica = prepared.replicate(1).remove(0);
    block_calls.store(0, Ordering::Relaxed);
    assert_eq!(replica.solve_batch_parallel(&batch, 2).unwrap(), solutions);
    assert!(block_calls.load(Ordering::Relaxed) > 0);
}

/// The circuit configurations the cache must be invisible under, each
/// with an array size it runs at (the exact grid is small-array only).
fn circuit_configs() -> Vec<(&'static str, CircuitEngineConfig, usize)> {
    let mut exact_grid = CircuitEngineConfig::ideal();
    exact_grid.sim.interconnect = InterconnectModel::ExactGrid { r_segment: 1.0 };
    vec![
        ("ideal", CircuitEngineConfig::ideal(), 10),
        ("ideal_mapping", CircuitEngineConfig::ideal_mapping(), 10),
        (
            "paper_variation",
            CircuitEngineConfig::paper_variation(),
            10,
        ),
        ("paper_full", CircuitEngineConfig::paper_full(), 10),
        ("exact_grid", exact_grid, 4),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn circuit_operands_reuse_prepared_state_bit_for_bit() {
    for (label, config, n) in circuit_configs() {
        let (a, _) = spd_workload(n, 31);
        let mut rng = ChaCha8Rng::seed_from_u64(32);
        let inputs: Vec<Vec<f64>> = (0..3)
            .map(|_| generate::random_vector(n, &mut rng))
            .collect();
        // The engine's first program() draws from a ChaCha8 stream seeded
        // with the engine seed; the same draw feeds the one-shot simulator.
        let seed = 5;
        let programmed = ProgrammedMatrix::program(
            &a,
            &config.mapping,
            &config.variation,
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
        .unwrap();
        let sim = AnalogSimulator::new(config.sim);
        let mut engine = CircuitEngine::new(config, seed);
        let mut op = engine.program(&a).unwrap();

        let (mut time, mut energy) = (0.0, 0.0);
        let mut account = |out: &CircuitOutput| {
            time += out.settle_time_s;
            energy += out.settle_time_s * out.power_w;
        };
        // Interleave INV and MVM, and revisit the first input at the end.
        for input in inputs.iter().chain(&inputs[..1]) {
            let want = sim.inv(&programmed, input).unwrap();
            account(&want);
            let got = engine.inv(&mut op, input).unwrap();
            assert_eq!(bits(&got), bits(&want.values), "{label}: inv");
            let want = sim.mvm(&programmed, input).unwrap();
            account(&want);
            let got = engine.mvm(&mut op, input).unwrap();
            assert_eq!(bits(&got), bits(&want.values), "{label}: mvm");
        }
        let stats = engine.stats();
        assert_eq!((stats.inv_ops, stats.mvm_ops), (4, 4), "{label}");
        assert_eq!(stats.analog_time_s.to_bits(), time.to_bits(), "{label}");
        assert_eq!(stats.analog_energy_j.to_bits(), energy.to_bits(), "{label}");
    }
}

#[test]
fn circuit_operand_clones_share_results_before_and_after_first_use() {
    for (label, config, n) in circuit_configs() {
        let (a, b) = spd_workload(n, 41);
        let mut engine = CircuitEngine::new(config, 6);
        let mut op = engine.program(&a).unwrap();
        let mut cold = op.clone();
        let first_inv = engine.inv(&mut op, &b).unwrap();
        let first_mvm = engine.mvm(&mut op, &b).unwrap();
        let mut warm = op.clone();
        for clone in [&mut cold, &mut warm] {
            assert_eq!(
                bits(&engine.inv(clone, &b).unwrap()),
                bits(&first_inv),
                "{label}: inv"
            );
            assert_eq!(
                bits(&engine.mvm(clone, &b).unwrap()),
                bits(&first_mvm),
                "{label}: mvm"
            );
        }
    }
}

#[test]
fn circuit_operand_reprepares_under_another_simulator_config() {
    let (a, b) = spd_workload(8, 51);
    let mut programmer = CircuitEngine::new(CircuitEngineConfig::ideal(), 8);
    let mut op = programmer.program(&a).unwrap();
    programmer.inv(&mut op, &b).unwrap();
    programmer.mvm(&mut op, &b).unwrap();
    let mut finite = CircuitEngineConfig::ideal();
    finite.sim = CircuitEngineConfig::ideal_mapping().sim;
    let mut other = CircuitEngine::new(finite, 8);
    let mut fresh = other.program(&a).unwrap(); // same seed: same draw
    assert_eq!(
        bits(&other.inv(&mut op, &b).unwrap()),
        bits(&other.inv(&mut fresh, &b).unwrap())
    );
    assert_eq!(
        bits(&other.mvm(&mut op, &b).unwrap()),
        bits(&other.mvm(&mut fresh, &b).unwrap())
    );
}

#[test]
fn failed_circuit_prepare_is_not_cached_and_shape_errors_come_first() {
    let singular = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
    let mut engine = CircuitEngine::new(CircuitEngineConfig::ideal(), 7);
    let mut op = engine.program(&singular).unwrap();
    for attempt in ["first", "second"] {
        assert!(
            matches!(
                engine.inv(&mut op, &[0.1, 0.2]),
                Err(BlockAmcError::Circuit(
                    CircuitError::NoOperatingPoint { .. }
                ))
            ),
            "{attempt} INV on a singular array"
        );
    }
    // A wrong-length input is a shape error even though preparing this
    // operand would fail, and on a healthy operand after its first use.
    let shape_error = |r: blockamc::Result<Vec<f64>>| {
        matches!(
            r,
            Err(BlockAmcError::Circuit(CircuitError::ShapeMismatch {
                expected: 2,
                got: 3,
                ..
            }))
        )
    };
    assert!(shape_error(engine.inv(&mut op, &[0.1; 3])));
    let mut healthy = engine
        .program(&Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.5]]).unwrap())
        .unwrap();
    for _ in 0..2 {
        assert!(shape_error(engine.inv(&mut healthy, &[0.1; 3])));
        assert!(shape_error(engine.mvm(&mut healthy, &[0.1; 3])));
        engine.inv(&mut healthy, &[0.1, 0.2]).unwrap();
        engine.mvm(&mut healthy, &[0.1, 0.2]).unwrap();
    }
    let stats = engine.stats();
    assert_eq!((stats.inv_ops, stats.mvm_ops), (2, 2));
}
