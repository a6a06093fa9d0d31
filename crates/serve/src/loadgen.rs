//! Deterministic workload generators for driving the server.
//!
//! [`workload_matrix`] and [`workload_rhs`] give seeded matrices and
//! right-hand sides; the benchmark's `serve_mix` workload and
//! `repro trace` build their requests from them, so every run sends
//! the same systems.
//!
//! No `rand` dependency: matrices and right-hand sides come from an
//! inline SplitMix64 stream, diagonally dominant so every generated
//! system is comfortably solvable at any size.

use amc_linalg::Matrix;

/// SplitMix64 step — the workspace-standard cheap deterministic stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[-1, 1)`.
fn unit(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
}

/// The `n×n` workload matrix for `seed`: random
/// entries in `[-1, 1)` with the diagonal lifted above each row's
/// absolute sum, so the system is strictly diagonally dominant (hence
/// nonsingular and well-conditioned) at every size.
pub fn workload_matrix(n: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xa076_1d64_78bd_642f;
    let mut data = vec![0.0; n * n];
    for row in 0..n {
        let mut row_sum = 0.0;
        for col in 0..n {
            let v = unit(&mut state);
            data[row * n + col] = v;
            row_sum += v.abs();
        }
        data[row * n + row] = row_sum + 1.0;
    }
    Matrix::from_vec(n, n, data).expect("n*n data")
}

/// The workload right-hand side for (`seed`, `request`): `n` entries
/// in `[-1, 1)`.
pub fn workload_rhs(n: usize, seed: u64, request: u64) -> Vec<f64> {
    let mut state = seed ^ request.wrapping_mul(0xd6e8_feb8_6659_fd93);
    (0..n).map(|_| unit(&mut state)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_matrices_are_deterministic_and_dominant() {
        let a = workload_matrix(16, 3);
        let b = workload_matrix(16, 3);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(
            a.fingerprint(),
            workload_matrix(16, 4).fingerprint(),
            "seed must matter"
        );
        // Strict diagonal dominance.
        for i in 0..16 {
            let row_sum: f64 = (0..16).filter(|&j| j != i).map(|j| a[(i, j)].abs()).sum();
            assert!(a[(i, i)] > row_sum, "row {i} not dominant");
        }
        // RHS stream is deterministic too.
        assert_eq!(workload_rhs(8, 1, 2), workload_rhs(8, 1, 2));
        assert_ne!(workload_rhs(8, 1, 2), workload_rhs(8, 1, 3));
    }
}
