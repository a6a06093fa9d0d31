//! Facade tests of the two-stage architecture (`Stages::Two`) and of
//! the quadrant-tiled MVM blocks of its layout.

mod tests {
    use crate::engine::{AmcEngine, CircuitEngine, CircuitEngineConfig, NumericEngine};
    use crate::multi_stage::QuadMvm;
    use crate::solver::{BlockAmcSolver, SolveReport, Stages};
    use amc_linalg::{generate, lu, metrics, vector, Matrix};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn workload(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        (a, generate::random_vector(n, &mut rng))
    }

    fn solver() -> BlockAmcSolver<NumericEngine> {
        BlockAmcSolver::new(NumericEngine::new(), Stages::Two)
    }

    /// One prepare-and-solve on a fresh `Stages::Two` solver.
    fn solve<E: AmcEngine>(engine: E, a: &Matrix, b: &[f64]) -> SolveReport {
        BlockAmcSolver::new(engine, Stages::Two)
            .solve(a, b)
            .unwrap()
    }

    fn rel_error(a: &Matrix, b: &[f64], x: &[f64]) -> f64 {
        metrics::relative_error(&lu::solve(a, b).unwrap(), x)
    }

    /// `−M·x` through one quadrant level, and the arrays it programmed.
    fn tiled_mvm(m: &Matrix, x: &[f64]) -> (crate::Result<Vec<f64>>, usize) {
        let mut engine = NumericEngine::new();
        let mut tiled = QuadMvm::prepare(&mut engine, m, 1).unwrap();
        let mut out = Vec::new();
        let result = tiled.mvm(&mut engine, x, 1, &mut out).map(|()| out);
        (result, engine.stats().program_ops)
    }

    #[test]
    fn numeric_two_stage_recovers_exact_solution() {
        let (a, b) = workload(16, 1);
        let x = solve(NumericEngine::new(), &a, &b).x;
        assert!(vector::approx_eq(&x, &lu::solve(&a, &b).unwrap(), 1e-8));
    }

    #[test]
    fn odd_and_non_power_of_two_sizes() {
        for (n, seed) in [(9usize, 2u64), (12, 3), (15, 4)] {
            let (a, b) = workload(n, seed);
            let x = solve(NumericEngine::new(), &a, &b).x;
            assert!(rel_error(&a, &b, &x) < 1e-8, "n={n} diverged");
        }
    }

    #[test]
    fn too_small_matrix_rejected() {
        assert!(solver().prepare(&workload(3, 5).0).is_err());
    }

    #[test]
    fn tiled_mvm_matches_direct_product() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let m = generate::gaussian(6, 5, &mut rng);
        let x = generate::random_vector(5, &mut rng);
        let (got, arrays) = tiled_mvm(&m, &x);
        let expect = vector::neg(&m.matvec(&x).unwrap());
        assert!(vector::approx_eq(&got.unwrap(), &expect, 1e-12));
        assert_eq!(arrays, 4);
    }

    #[test]
    fn tiled_mvm_skips_zero_quadrants() {
        let mut m = Matrix::zeros(4, 4);
        m.set_block(0, 0, &Matrix::identity(2)).unwrap();
        let (got, arrays) = tiled_mvm(&m, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(arrays, 1);
        assert!(vector::approx_eq(
            &got.unwrap(),
            &[-1.0, -2.0, 0.0, 0.0],
            1e-12
        ));
        assert!(tiled_mvm(&m, &[1.0]).0.is_err());
    }

    #[test]
    fn inner_traces_cover_steps_3_and_5() {
        let (a, b) = workload(8, 7);
        let inner = solve(NumericEngine::new(), &a, &b).inner_traces;
        let labels: Vec<&str> = inner.iter().map(|t| t.0.as_str()).collect();
        assert_eq!(labels, ["A4s", "A1"]);
        assert!(!inner[0].1.is_empty());
    }

    #[test]
    fn circuit_engine_two_stage_with_variation_is_accurate_enough() {
        let (a, b) = workload(16, 8);
        let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 21);
        let err = rel_error(&a, &b, &solve(engine, &a, &b).x);
        assert!(
            err > 1e-6 && err < 1.0,
            "variation perturbs, boundedly (err={err})"
        );
    }

    #[test]
    fn sixteen_quarter_size_arrays_for_dense_matrix() {
        // The paper: a 256x256 Wishart matrix becomes 16 64x64 blocks.
        // At n=16: inner macros hold 4 blocks each (A1, A2, A3, A4s) and
        // each MVM block is 4 tiles -> 16 programmed 4x4 arrays total.
        let mut solver = solver();
        let prepared = solver.prepare(&workload(16, 9).0).unwrap();
        assert_eq!(prepared.engine().stats().program_ops, 16);
        assert_eq!(prepared.max_array_size(), 4);
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let mut solver = solver();
        let mut prepared = solver.prepare(&workload(8, 10).0).unwrap();
        assert!(prepared.solve(&[0.0; 3]).is_err());
    }
}
