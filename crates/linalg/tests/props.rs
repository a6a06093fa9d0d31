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

/// Diagonally dominant matrices up to n = 40, so the LU's 32-column
/// panels and trailing tiles are reached.
fn block_dd_matrix() -> impl Strategy<Value = Matrix> {
    (1usize..=40, any::<u64>()).prop_map(|(n, seed)| {
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

/// Bit patterns of column `c` of a row-major block of width `k`.
fn column_bits(block: &[f64], k: usize, c: usize) -> Vec<u64> {
    block
        .iter()
        .skip(c)
        .step_by(k)
        .map(|v| v.to_bits())
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A seeded `rows×k` block salted with the cases the bit-identity
/// contract must survive: column `seed % k` all zero, a `-0.0` in
/// every row, and (with `inf`) a `+Inf` and a `-Inf`.
fn edge_block(rows: usize, k: usize, seed: u64, inf: bool) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut block = generate::random_vector(rows * k, &mut rng);
    let zero_col = (seed % k as u64) as usize;
    for (i, row) in block.chunks_exact_mut(k).enumerate() {
        row[zero_col] = 0.0;
        row[(zero_col + 1 + i) % k] = -0.0;
    }
    if inf {
        block[(seed as usize / 7) % (rows * k)] = f64::INFINITY;
        block[(seed as usize / 11) % (rows * k)] = f64::NEG_INFINITY;
    }
    block
}

/// The column-at-a-time Schur update the multi-column kernel replaces:
/// solve column `j` of `A2`, then subtract `dot(A3[i, :], y)` from
/// `out[i, j]`.
fn schur_reference(lu: &lu::LuFactor, a2: &Matrix, a3: &Matrix, out: &mut Matrix) {
    let mut y = vec![0.0; a2.rows()];
    for j in 0..a2.cols() {
        lu.solve_into(&a2.col(j), &mut y).unwrap();
        for i in 0..out.rows() {
            out[(i, j)] -= vector::dot(a3.row(i), &y);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn solve_block_matches_solve_into_bit_for_bit(
        a in block_dd_matrix(),
        seed in any::<u64>(),
        inf in any::<bool>(),
    ) {
        // Every k up to 33 covers each 8/4/1 column-group remainder,
        // the one-panel blocks k = 4 and k = 8, and 8+4+1 at k = 13.
        let n = a.rows();
        let factor = lu::LuFactor::new(&a).unwrap();
        let mut col = vec![0.0; n];
        for k in 1..=33 {
            let b = edge_block(n, k, seed ^ k as u64, inf);
            let mut x = vec![f64::NAN; n * k];
            factor.solve_block_into(&b, k, &mut x).unwrap();
            for c in 0..k {
                let bc: Vec<f64> = b.iter().skip(c).step_by(k).copied().collect();
                factor.solve_into(&bc, &mut col).unwrap();
                prop_assert_eq!(column_bits(&x, k, c), bits(&col), "k={} column {}", k, c);
            }
        }
    }

    #[test]
    fn matvec_block_matches_matvec_into_bit_for_bit(
        rows in 1usize..=40,
        cols in 1usize..=40,
        seed in any::<u64>(),
        inf in any::<bool>(),
    ) {
        // Square and rectangular shapes, odd row counts (the panel
        // matvec takes rows in pairs); the matrix carries -0.0 too.
        let m = Matrix::from_vec(rows, cols, edge_block(rows, cols, seed, false)).unwrap();
        let mut col = vec![0.0; rows];
        for k in 1..=33 {
            let x = edge_block(cols, k, seed ^ ((k as u64) << 8), inf);
            let mut out = vec![f64::NAN; rows * k];
            m.matvec_block_into(&x, k, &mut out).unwrap();
            for c in 0..k {
                let xc: Vec<f64> = x.iter().skip(c).step_by(k).copied().collect();
                m.matvec_into(&xc, &mut col).unwrap();
                prop_assert_eq!(column_bits(&out, k, c), bits(&col), "k={} column {}", k, c);
            }
        }
    }

    #[test]
    fn schur_update_matches_column_reference_bit_for_bit(
        a1 in block_dd_matrix(),
        m in 1usize..=40,
        seed in any::<u64>(),
    ) {
        // Rectangular A2 (n×k) and A3 (m×n) with m ≠ k in general.
        let n = a1.rows();
        let factor = lu::LuFactor::new(&a1).unwrap();
        let a3 = Matrix::from_vec(m, n, edge_block(m, n, seed ^ 1, false)).unwrap();
        for k in 1..=33 {
            let a2 = Matrix::from_vec(n, k, edge_block(n, k, seed ^ k as u64, false)).unwrap();
            let a4 = Matrix::from_vec(m, k, edge_block(m, k, seed ^ 2, false)).unwrap();
            let mut got = a4.clone();
            factor.schur_update_into(&a2, &a3, &mut got).unwrap();
            let mut want = a4;
            schur_reference(&factor, &a2, &a3, &mut want);
            prop_assert_eq!(bits(got.as_slice()), bits(want.as_slice()), "k={}", k);
        }
    }
}

#[test]
fn block_kernels_reject_mismatched_shapes() {
    let a = Matrix::identity(3);
    let factor = lu::LuFactor::new(&a).unwrap();
    assert!(factor
        .solve_block_into(&[1.0; 6], 2, &mut [0.0; 5])
        .is_err());
    assert!(factor
        .solve_block_into(&[1.0; 5], 2, &mut [0.0; 6])
        .is_err());
    assert!(a.matvec_block_into(&[1.0; 9], 2, &mut [0.0; 6]).is_err());
    assert!(a.matvec_block_into(&[1.0; 6], 2, &mut [0.0; 9]).is_err());
    // k = 0 is an empty block, not an error.
    assert!(factor.solve_block_into(&[], 0, &mut []).is_ok());
    assert!(a.matvec_block_into(&[], 0, &mut []).is_ok());
}
