//! Property-based tests of the linear-algebra invariants.

use amc_linalg::sparse::CsrMatrix;
use amc_linalg::{cholesky, eigen, generate, lu, metrics, vector, Matrix};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn dd_matrix() -> impl Strategy<Value = Matrix> {
    (2usize..=9, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generate::diagonally_dominant(n, 1.0, &mut rng).unwrap()
    })
}

fn spd_matrix() -> impl Strategy<Value = Matrix> {
    (2usize..=9, any::<u64>()).prop_map(|(n, seed)| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generate::wishart_default(n, &mut rng).unwrap()
    })
}

fn rhs_for(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xbeef);
    generate::random_vector(n, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lu_inverse_is_two_sided(a in dd_matrix()) {
        let inv = lu::inverse(&a).unwrap();
        let n = a.rows();
        let tol = 1e-8 * a.max_abs().max(1.0);
        prop_assert!(a.matmul(&inv).unwrap().approx_eq(&Matrix::identity(n), tol));
        prop_assert!(inv.matmul(&a).unwrap().approx_eq(&Matrix::identity(n), tol));
    }

    #[test]
    fn determinant_is_multiplicative(a in dd_matrix(), b_seed in any::<u64>()) {
        let n = a.rows();
        let mut rng = ChaCha8Rng::seed_from_u64(b_seed);
        let b = generate::diagonally_dominant(n, 1.0, &mut rng).unwrap();
        let det_a = lu::LuFactor::new(&a).unwrap().det();
        let det_b = lu::LuFactor::new(&b).unwrap().det();
        let det_ab = lu::LuFactor::new(&a.matmul(&b).unwrap()).unwrap().det();
        let scale = det_a.abs().max(det_b.abs()).max(1.0);
        prop_assert!(
            (det_ab - det_a * det_b).abs() <= 1e-6 * scale * scale,
            "det(AB)={} det(A)det(B)={}", det_ab, det_a * det_b
        );
    }

    #[test]
    fn cholesky_and_lu_agree_on_spd(a in spd_matrix()) {
        let b = rhs_for(a.rows(), 1);
        let x_lu = lu::solve(&a, &b).unwrap();
        let x_ch = cholesky::CholeskyFactor::new(&a).unwrap().solve(&b).unwrap();
        prop_assert!(vector::approx_eq(&x_lu, &x_ch, 1e-6 * vector::norm_inf(&x_lu).max(1.0)));
    }

    #[test]
    fn eigenvalues_sum_to_trace(a in spd_matrix()) {
        let e = eigen::symmetric_eigen(&a).unwrap();
        let trace: f64 = a.diag().iter().sum();
        let sum: f64 = e.values.iter().sum();
        prop_assert!((trace - sum).abs() < 1e-8 * trace.abs().max(1.0));
        // SPD: all eigenvalues positive.
        prop_assert!(e.values.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn csr_matvec_equals_dense(a in dd_matrix()) {
        let s = CsrMatrix::from_dense(&a);
        let x = rhs_for(a.cols(), 3);
        prop_assert_eq!(s.matvec(&x).unwrap(), a.matvec(&x).unwrap());
        prop_assert_eq!(s.to_dense(), a);
    }

    #[test]
    fn cg_matches_lu_on_spd(a in spd_matrix()) {
        use amc_linalg::iterative::{conjugate_gradient, IdentityPrecond, IterOptions};
        let b = rhs_for(a.rows(), 4);
        let s = CsrMatrix::from_dense(&a);
        let opts = IterOptions { max_iterations: 10_000, tolerance: 1e-12 };
        let rep = conjugate_gradient(&s, &b, None, &IdentityPrecond, opts).unwrap();
        let x_lu = lu::solve(&a, &b).unwrap();
        prop_assert!(vector::approx_eq(&rep.x, &x_lu, 1e-5 * vector::norm_inf(&x_lu).max(1.0)));
    }

    #[test]
    fn paper_error_metric_is_scale_invariant(
        v in proptest::collection::vec(-100.0f64..100.0, 2..12),
        scale in 0.01f64..100.0,
    ) {
        let perturbed: Vec<f64> = v.iter().map(|x| x + 0.1).collect();
        let e1 = metrics::relative_error(&v, &perturbed);
        let vs: Vec<f64> = v.iter().map(|x| x * scale).collect();
        let ps: Vec<f64> = perturbed.iter().map(|x| x * scale).collect();
        let e2 = metrics::relative_error(&vs, &ps);
        if e1.is_finite() && e2.is_finite() {
            prop_assert!((e1 - e2).abs() < 1e-9 * e1.max(1.0));
        }
    }

    #[test]
    fn toeplitz_families_have_constant_diagonals(n in 2usize..32, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for a in [
            generate::random_toeplitz(n, 1.2, &mut rng).unwrap(),
            generate::random_toeplitz_raw(n, &mut rng).unwrap(),
            generate::random_spd_toeplitz(n, 8, 0.02, &mut rng).unwrap(),
        ] {
            for i in 1..n {
                for j in 1..n {
                    prop_assert_eq!(a[(i, j)], a[(i - 1, j - 1)]);
                }
            }
        }
    }

    #[test]
    fn wishart_is_always_spd(n in 2usize..24, seed in any::<u64>()) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        prop_assert!(a.is_symmetric(1e-12 * a.max_abs()));
        prop_assert!(cholesky::CholeskyFactor::new(&a).is_ok());
    }

    #[test]
    fn norm_inequalities_hold(a in dd_matrix()) {
        // ‖A‖_F <= sqrt(n)·‖A‖_2-ish chain checks via comparable norms:
        // max_abs <= norm_inf and max_abs <= norm_one, frobenius >= max_abs.
        prop_assert!(a.max_abs() <= a.norm_inf() + 1e-15);
        prop_assert!(a.max_abs() <= a.norm_one() + 1e-15);
        prop_assert!(a.frobenius_norm() >= a.max_abs() - 1e-15);
    }
}
