//! Facade tests of the one-stage architecture (`Stages::One`).

mod tests {
    use crate::converter::{Converter, IoConfig};
    use crate::engine::{AmcEngine, CircuitEngine, CircuitEngineConfig, NumericEngine};
    use crate::partition::BlockPartition;
    use crate::solver::{BlockAmcSolver, SolveReport, SolverConfig, SplitRule, Stages, StepId};
    use crate::split_search::{best_split, SplitSearchOptions};
    use amc_linalg::{generate, lu, metrics, vector, Matrix};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn workload(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        (a, generate::random_vector(n, &mut rng))
    }

    /// One prepare-and-solve on a fresh `Stages::One` solver.
    fn solve<E: AmcEngine>(engine: E, a: &Matrix, b: &[f64]) -> SolveReport {
        BlockAmcSolver::new(engine, Stages::One)
            .solve(a, b)
            .unwrap()
    }

    fn rel_error(a: &Matrix, b: &[f64], x: &[f64]) -> f64 {
        metrics::relative_error(&lu::solve(a, b).unwrap(), x)
    }

    /// The numeric engine recovers `x` of workload `(n, seed)`.
    fn assert_exact(n: usize, seed: u64) {
        let (a, b) = workload(n, seed);
        let x = solve(NumericEngine::new(), &a, &b).x;
        assert!(vector::approx_eq(&x, &lu::solve(&a, &b).unwrap(), 1e-9));
    }

    #[test]
    fn numeric_engine_recovers_exact_solution() {
        assert_exact(8, 1);
    }

    #[test]
    fn odd_size_works() {
        assert_exact(9, 2);
    }

    #[test]
    fn arbitrary_split_works() {
        // An orthogonal matrix whose midpoint leading block is singular:
        // the searched rule moves the split off n/2, and the cascade
        // recovers x there.
        let mut a = Matrix::identity(8);
        for (i, j) in [(3, 4), (4, 3)] {
            a[(i, i)] = 0.0;
            a[(i, j)] = 1.0;
        }
        let (_, b) = workload(8, 3);
        let opts = SplitSearchOptions::default();
        assert_ne!(best_split(&a, &opts).unwrap().0.split, 4);
        let mut solver = SolverConfig::builder()
            .split_rule(SplitRule::Searched(opts))
            .build(NumericEngine::new())
            .unwrap();
        assert!(rel_error(&a, &b, &solver.solve(&a, &b).unwrap().x) < 1e-12);
    }

    #[test]
    fn trace_has_five_steps_with_correct_signals() {
        let (a, b) = workload(8, 4);
        let trace = solve(NumericEngine::new(), &a, &b).trace.unwrap();
        assert_eq!(trace.len(), 5);
        assert_eq!((trace[0].step, trace[4].step), (StepId::Inv1, StepId::Inv5));
        // Step 1 outputs −A1⁻¹·f; step 3 the bottom half of x.
        let yt = lu::solve(&BlockPartition::halves(&a).unwrap().a1, &b[..4]).unwrap();
        assert!(vector::approx_eq(
            &trace[0].output,
            &vector::neg(&yt),
            1e-10
        ));
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(vector::approx_eq(&trace[2].output, &x_ref[4..], 1e-9));
    }

    #[test]
    fn zero_a2_and_a3_blocks_skip_mvm_steps() {
        // Block-diagonal matrix: both MVM steps are skipped, only A1 and
        // A4s are programmed, and the trace has 3 records.
        let z = Matrix::zeros(2, 2);
        let (a1, a4) = (
            Matrix::from_diag(&[2.0, 3.0]),
            Matrix::from_diag(&[4.0, 5.0]),
        );
        let a = Matrix::from_blocks(&a1, &z, &z, &a4).unwrap();
        let report = solve(NumericEngine::new(), &a, &[2.0, 3.0, 4.0, 5.0]);
        assert_eq!(report.trace.unwrap().len(), 3);
        assert!(vector::approx_eq(&report.x, &[1.0; 4], 1e-12));
        assert_eq!(report.stats_delta.program_ops, 2);
    }

    #[test]
    fn triangular_block_matrix_uses_a4_directly() {
        // A2 = 0: the Schur complement equals A4, no digital inversion.
        let a1 = Matrix::from_diag(&[2.0, 1.0]);
        let (a3, a4) = (Matrix::filled(2, 2, 0.25), Matrix::from_diag(&[3.0, 1.5]));
        let a = Matrix::from_blocks(&a1, &Matrix::zeros(2, 2), &a3, &a4).unwrap();
        let x = solve(NumericEngine::new(), &a, &[1.0; 4]).x;
        assert!(rel_error(&a, &[1.0; 4], &x) < 1e-12);
    }

    #[test]
    fn ideal_circuit_engine_matches_numeric_one_stage() {
        let (a, b) = workload(8, 5);
        let x = solve(CircuitEngine::new(CircuitEngineConfig::ideal(), 11), &a, &b).x;
        assert!(rel_error(&a, &b, &x) < 1e-8);
    }

    #[test]
    fn variation_produces_bounded_error() {
        let (a, b) = workload(16, 6);
        let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 12);
        let err = rel_error(&a, &b, &solve(engine, &a, &b).x);
        assert!(
            err > 1e-6 && err < 1.0,
            "variation perturbs, boundedly (err={err})"
        );
    }

    #[test]
    fn a1_array_is_programmed_once_and_reused() {
        // 4 programs (A1, A2, A3, A4s); 3 INV (two of them on A1); 2 MVM.
        let (a, b) = workload(8, 7);
        let s = solve(NumericEngine::new(), &a, &b).stats_delta;
        assert_eq!((s.program_ops, s.inv_ops, s.mvm_ops), (4, 3, 2));
    }

    #[test]
    fn converters_quantize_the_digital_boundary() {
        let (a, b) = workload(8, 8);
        let adc = Converter::new(6, 1.0).unwrap();
        let io = IoConfig {
            dac: Some(adc),
            adc: Some(adc),
            sh_droop: 0.0,
        };
        let mut solver = SolverConfig::builder()
            .io(io)
            .build(NumericEngine::new())
            .unwrap();
        // Quantization error is amplified by the condition number of the
        // Wishart draw, so only a coarse upper bound is meaningful here.
        let err = rel_error(&a, &b, &solver.solve(&a, &b).unwrap().x);
        assert!(
            err > 1e-6 && err < 1.0,
            "6-bit converters quantize (err={err})"
        );
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let (a, _) = workload(8, 9);
        let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::One);
        assert!(solver.prepare(&a).unwrap().solve(&[1.0; 4]).is_err());
    }

    #[test]
    fn prepared_partition_reusable_across_rhs() {
        let (a, _) = workload(8, 10);
        let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::One);
        let mut prepared = solver.prepare(&a).unwrap();
        for seed in 0..3u64 {
            let b = generate::random_vector(8, &mut ChaCha8Rng::seed_from_u64(seed));
            assert!(rel_error(&a, &b, &prepared.solve(&b).unwrap().x) < 1e-9);
        }
        // Arrays were programmed exactly once despite three solves.
        assert_eq!(prepared.engine().stats().program_ops, 4);
    }
}
