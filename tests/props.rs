//! Property-based tests of the core invariants, spanning all crates.

use amc_linalg::{generate, lu, vector, Matrix};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy: a well-conditioned (diagonally dominant) square matrix of
/// size 2..=10 plus a compatible RHS, both derived from a seed so that
/// shrinking works on the seed.
fn dd_system() -> impl Strategy<Value = (Matrix, Vec<f64>)> {
    (2usize..=10, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generate::diagonally_dominant(n, 1.0, &mut rng).unwrap();
        let b = generate::random_vector(n, &mut rng);
        (a, b)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_satisfies_the_system((a, b) in dd_system()) {
        let x = lu::solve(&a, &b).unwrap();
        let back = a.matvec(&x).unwrap();
        prop_assert!(vector::approx_eq(&back, &b, 1e-7));
    }

    #[test]
    fn matrix_transpose_is_involutive((a, _b) in dd_system()) {
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn sign_split_reconstructs_any_matrix((a, _b) in dd_system()) {
        let (p, n) = a.split_signs();
        prop_assert!(p.as_slice().iter().all(|&v| v >= 0.0));
        prop_assert!(n.as_slice().iter().all(|&v| v >= 0.0));
        prop_assert!(p.sub_matrix(&n).unwrap().approx_eq(&a, 0.0));
    }

    #[test]
    fn block_partition_recomposes((a, _b) in dd_system()) {
        if a.rows() >= 2 {
            let p = blockamc::partition::BlockPartition::halves(&a).unwrap();
            prop_assert_eq!(p.recompose(), a);
        }
    }

    #[test]
    fn one_stage_blockamc_equals_direct_solve((a, b) in dd_system()) {
        use blockamc::engine::NumericEngine;
        use blockamc::solver::{BlockAmcSolver, Stages};
        if a.rows() >= 2 {
            let x_ref = lu::solve(&a, &b).unwrap();
            let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::One);
            let r = solver.solve(&a, &b).unwrap();
            prop_assert!(
                amc_linalg::metrics::relative_error(&x_ref, &r.x) < 1e-6,
                "one-stage diverged from LU"
            );
        }
    }

    #[test]
    fn multi_stage_equals_direct_solve_at_any_depth(
        (a, b) in dd_system(),
        depth in 0usize..4,
    ) {
        use blockamc::engine::NumericEngine;
        use blockamc::solver::{SignalPlan, SolverConfig, Stages};
        let x_ref = lu::solve(&a, &b).unwrap();
        // The facade caps the depth at log2(n); depth 0 is one array.
        let stages = match depth.min(a.rows().ilog2() as usize) {
            0 => Stages::Original,
            d => Stages::Multi(d),
        };
        let mut solver = SolverConfig::builder()
            .stages(stages)
            .signal_plan(SignalPlan::pure())
            .build(NumericEngine::new())
            .unwrap();
        let x = solver.solve(&a, &b).unwrap().x;
        prop_assert!(
            amc_linalg::metrics::relative_error(&x_ref, &x) < 1e-6,
            "depth {} diverged", depth
        );
    }

    #[test]
    fn ideal_programming_roundtrips_conductances((a, _b) in dd_system()) {
        use amc_device::array::ProgrammedMatrix;
        use amc_device::mapping::MappingConfig;
        use amc_device::variation::VariationModel;
        // Widen the window so no element is clamped: the roundtrip must be
        // exact for any matrix then.
        let mut cfg = MappingConfig::paper_default();
        cfg.g_min = 1e-15;
        cfg.g_max = 1.0;
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let p = ProgrammedMatrix::program(&a, &cfg, &VariationModel::None, &mut rng).unwrap();
        prop_assert!(p.effective_matrix().approx_eq(&a, 1e-12 * a.max_abs()));
    }

    #[test]
    fn inv_circuit_inverts_mvm_circuit((a, b) in dd_system()) {
        use amc_circuit::sim::{AnalogSimulator, SimConfig};
        use amc_device::array::ProgrammedMatrix;
        use amc_device::mapping::MappingConfig;
        use amc_device::variation::VariationModel;
        let mut cfg = MappingConfig::paper_default();
        cfg.g_min = 1e-15;
        cfg.g_max = 1.0;
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let p = ProgrammedMatrix::program(&a, &cfg, &VariationModel::None, &mut rng).unwrap();
        let sim = AnalogSimulator::new(SimConfig::ideal());
        // INV then MVM: mvm(inv(b)) = -A·(-A⁻¹·b) = b.
        let x = sim.inv(&p, &b).unwrap();
        let back = sim.mvm(&p, &x.values).unwrap();
        prop_assert!(
            vector::approx_eq(&back.values, &b, 1e-6 * vector::norm_inf(&b).max(1.0))
        );
    }

    #[test]
    fn relative_error_is_zero_iff_equal(v in proptest::collection::vec(-1e3f64..1e3, 1..20)) {
        prop_assert_eq!(amc_linalg::metrics::relative_error(&v, &v), 0.0);
    }

    #[test]
    fn converter_quantization_error_is_bounded(
        v in proptest::collection::vec(-2.0f64..2.0, 1..16),
        bits in 4u32..12,
    ) {
        let c = blockamc::converter::Converter::new(bits, 1.0).unwrap();
        for (orig, q) in v.iter().zip(c.quantize_vec(&v)) {
            let clipped = orig.clamp(-1.0, 1.0);
            prop_assert!((q - clipped).abs() <= c.lsb() / 2.0 + 1e-12);
            prop_assert!(q.abs() <= 1.0 + 1e-12);
        }
    }
}
