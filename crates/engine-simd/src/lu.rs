//! Panel-blocked LU factorization feeding the micro-tiled GEMM.
//!
//! Classic right-looking blocked elimination: factorize a narrow panel
//! with partial pivoting, triangular-solve the row block to its right,
//! then push the whole trailing submatrix through
//! [`kernels::gemm_sub`] — which is where ~all the flops of a large
//! factorization land, and where the micro-tiles vectorize. The panel
//! width adapts to the problem size ([`auto_panel`]), as does the
//! micro-tile width ([`kernels::select_tile`]).
//!
//! Unlike the reference `amc_linalg::lu::LuFactor`, this factorization
//! reorders the trailing-update accumulation for speed, so it agrees
//! with the reference only to rounding (proven bounded by the proptests
//! in `lib.rs`).

use amc_linalg::{LinalgError, Matrix};

use crate::kernels;

/// Relative pivot floor mirroring `amc_linalg::lu`: a pivot at or below
/// `max|A|·RTOL` is reported singular.
const SINGULARITY_RTOL: f64 = 1e-300;

/// Panel width for a problem of size `n`: narrow panels keep small
/// factorizations in the pivot-bound regime; wide panels feed the GEMM
/// bigger rank-`k` updates once the trailing matrix dominates.
pub fn auto_panel(n: usize) -> usize {
    match n {
        0..=127 => 24,
        128..=511 => 48,
        _ => 64,
    }
}

/// A blocked LU factorization `P·A = L·U` with packed storage.
#[derive(Debug, Clone)]
pub struct SimdLu {
    /// Row-major packed factors: strict lower = `L` (unit diagonal
    /// implicit), upper = `U`.
    lu: Vec<f64>,
    /// Row permutation: solve reads `b[perm[i]]` into slot `i`.
    perm: Vec<usize>,
    n: usize,
}

impl SimdLu {
    /// Factorizes a square matrix with the size-adapted panel width.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::NonSquare`] for a non-square input.
    /// * [`LinalgError::InvalidArgument`] for an empty one.
    /// * [`LinalgError::Singular`] when a pivot falls to the floor.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        Self::with_panel(a, auto_panel(a.rows()))
    }

    /// Factorizes with an explicit panel width (clamped to at least 1).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimdLu::new`].
    pub fn with_panel(a: &Matrix, panel: usize) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NonSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::invalid("cannot factorize an empty matrix"));
        }
        let panel = panel.max(1);
        let tol = SINGULARITY_RTOL * a.max_abs().max(1.0);
        let tile = kernels::select_tile(n);
        let mut lu = a.as_slice().to_vec();
        let mut perm: Vec<usize> = (0..n).collect();
        // Packing buffers for the trailing update: L21 (m×kp) and U12
        // (kp×nn) are copied out so the GEMM reads contiguous panels —
        // the usual cache/TLB win, and it sidesteps aliasing between
        // the three regions of `lu`.
        let mut l21 = Vec::new();
        let mut u12 = Vec::new();

        let mut k0 = 0;
        while k0 < n {
            let kend = (k0 + panel).min(n);
            // 1. Panel factorization: partial pivoting over rows k..n,
            //    eliminating within columns k0..kend only.
            for k in k0..kend {
                let mut piv = k;
                let mut best = lu[k * n + k].abs();
                for i in (k + 1)..n {
                    let v = lu[i * n + k].abs();
                    if v > best {
                        best = v;
                        piv = i;
                    }
                }
                if best <= tol {
                    return Err(LinalgError::Singular { pivot: k });
                }
                if piv != k {
                    perm.swap(k, piv);
                    for j in 0..n {
                        lu.swap(k * n + j, piv * n + j);
                    }
                }
                let pivot = lu[k * n + k];
                for i in (k + 1)..n {
                    let mult = lu[i * n + k] / pivot;
                    lu[i * n + k] = mult;
                    if mult != 0.0 {
                        let (head, tail) = lu.split_at_mut(i * n);
                        let src = &head[k * n + k + 1..k * n + kend];
                        let dst = &mut tail[k + 1..kend];
                        for (d, &s) in dst.iter_mut().zip(src) {
                            *d -= mult * s;
                        }
                    }
                }
            }
            if kend < n {
                // 2. U12 = L11⁻¹·A12: unit-lower forward substitution
                //    applied row-block-wise to columns kend..n.
                for k in k0..kend {
                    for i in (k + 1)..kend {
                        let lik = lu[i * n + k];
                        if lik != 0.0 {
                            let (head, tail) = lu.split_at_mut(i * n);
                            let src = &head[k * n + kend..k * n + n];
                            let dst = &mut tail[kend..n];
                            for (d, &s) in dst.iter_mut().zip(src) {
                                *d -= lik * s;
                            }
                        }
                    }
                }
                // 3. Trailing update A22 -= L21·U12 through the
                //    micro-tiled GEMM, on packed panels.
                let m = n - kend;
                let kp = kend - k0;
                let nn = n - kend;
                l21.clear();
                for i in kend..n {
                    l21.extend_from_slice(&lu[i * n + k0..i * n + kend]);
                }
                u12.clear();
                for k in k0..kend {
                    u12.extend_from_slice(&lu[k * n + kend..k * n + n]);
                }
                kernels::gemm_sub(&mut lu, n, kend, kend, &l21, kp, &u12, nn, m, kp, nn, tile);
            }
            k0 = kend;
        }
        Ok(SimdLu { lu, perm, n })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` into a caller-owned buffer of length `n`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] if `b` or `out` has the wrong
    /// length.
    pub fn solve_into(&self, b: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        let n = self.n;
        if b.len() != n || out.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "simd_lu_solve",
                lhs: (n, n),
                rhs: (b.len().max(out.len()), 1),
            });
        }
        for (slot, &src) in out.iter_mut().zip(&self.perm) {
            *slot = b[src];
        }
        // Forward substitution, unit lower triangle. Splitting the
        // solution at `i` turns each step into a plain dot product the
        // autovectorizer can widen.
        for i in 1..n {
            let row = &self.lu[i * n..i * n + i];
            let (solved, rest) = out.split_at_mut(i);
            let acc: f64 = row.iter().zip(solved.iter()).map(|(&l, &x)| l * x).sum();
            rest[0] -= acc;
        }
        // Back substitution on U, same shape from the other end.
        for i in (0..n).rev() {
            let row = &self.lu[i * n + i..(i + 1) * n];
            let (head, solved) = out.split_at_mut(i + 1);
            let acc: f64 = row[1..]
                .iter()
                .zip(solved.iter())
                .map(|(&u, &x)| u * x)
                .sum();
            head[i] = (head[i] - acc) / row[0];
        }
        Ok(())
    }

    /// Allocating convenience wrapper over [`SimdLu::solve_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`SimdLu::solve_into`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x)?;
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_linalg::{generate, lu::LuFactor, vector};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn panel_width_is_monotone_in_problem_size() {
        assert!(auto_panel(16) <= auto_panel(200));
        assert!(auto_panel(200) <= auto_panel(2048));
    }

    #[test]
    fn solves_match_reference_lu_across_sizes_and_panels() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for n in [1usize, 2, 7, 24, 25, 48, 97, 160] {
            let a = generate::diagonally_dominant(n, 1.5, &mut rng).unwrap();
            let b = generate::random_vector(n, &mut rng);
            let x_ref = LuFactor::new(&a).unwrap().solve(&b).unwrap();
            for panel in [1usize, 3, 24, 64, 1000] {
                let x = SimdLu::with_panel(&a, panel).unwrap().solve(&b).unwrap();
                assert!(vector::approx_eq(&x, &x_ref, 1e-9), "n={n} panel={panel}");
            }
            let x = SimdLu::new(&a).unwrap().solve(&b).unwrap();
            assert!(vector::approx_eq(&x, &x_ref, 1e-9), "n={n} auto panel");
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entries() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 1.0]]).unwrap();
        let x = SimdLu::new(&a).unwrap().solve(&[4.0, 5.0]).unwrap();
        assert!((a.matvec(&x).unwrap()[0] - 4.0).abs() < 1e-12);
        assert!((a.matvec(&x).unwrap()[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_singular_empty_and_non_square() {
        assert!(matches!(
            SimdLu::new(&Matrix::zeros(3, 3)),
            Err(LinalgError::Singular { pivot: 0 })
        ));
        assert!(SimdLu::new(&Matrix::zeros(0, 0)).is_err());
        assert!(SimdLu::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn solve_validates_lengths() {
        let a = Matrix::identity(3);
        let f = SimdLu::new(&a).unwrap();
        assert_eq!(f.dim(), 3);
        assert!(f.solve(&[1.0]).is_err());
        let mut short = vec![0.0; 2];
        assert!(f.solve_into(&[1.0, 2.0, 3.0], &mut short).is_err());
    }
}
