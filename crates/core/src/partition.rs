//! Block partitioning and Schur-complement pre-processing.
//!
//! The original matrix `A` (n×n) is split into four blocks around a split
//! index `s` (paper Fig. 2; `s = n/2` by default, but "the size of A1 can
//! be arbitrarily selected, only requiring that it is square"):
//!
//! ```text
//! A = [ A1 (s×s)      A2 (s×(n−s)) ]
//!     [ A3 ((n−s)×s)  A4 ((n−s)×(n−s)) ]
//! ```
//!
//! The INV steps operate on `A1` and on the Schur complement
//! `A4s = A4 − A3·A1⁻¹·A2`, which is computed *digitally in advance* and
//! stored in a crossbar (the paper's acknowledged pre-processing
//! overhead). When `A2` or `A3` is a zero block, `A4s = A4` and the
//! pre-processing is free — [`BlockPartition::schur_complement`]
//! implements that shortcut.
//!
//! Partitioning is applied recursively by `crate::multi_stage`; the
//! split index per node is either the midpoint or chosen by
//! `crate::split_search` (see `SplitRule`).

use amc_linalg::{lu::LuFactor, sparse::CsrMatrix, LinalgError, Matrix};

use crate::{BlockAmcError, Result};

/// Coupling-block density at or below which
/// [`BlockPartition::schur_complement`] routes through the sparse
/// kernel. Grounded Laplacians and PDN grids partition into
/// off-diagonal blocks carrying only the edges that cross the split —
/// a few percent dense — while random dense families sit near 100 %.
const SPARSE_SCHUR_MAX_DENSITY: f64 = 0.10;

/// A 2×2 block view of a square matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPartition {
    /// Upper-left block `A1` (square, `split x split`).
    pub a1: Matrix,
    /// Upper-right block `A2` (`split x (n-split)`).
    pub a2: Matrix,
    /// Lower-left block `A3` (`(n-split) x split`).
    pub a3: Matrix,
    /// Lower-right block `A4` (`(n-split) x (n-split)`).
    pub a4: Matrix,
    /// The split index (size of `A1`).
    pub split: usize,
}

impl BlockPartition {
    /// Partitions a square matrix at `split` (the size of `A1`).
    ///
    /// # Errors
    ///
    /// * [`BlockAmcError::ShapeMismatch`] if `a` is not square.
    /// * [`BlockAmcError::InvalidConfig`] if `split` is 0 or ≥ n (both
    ///   halves must be non-empty).
    pub(crate) fn new(a: &Matrix, split: usize) -> Result<Self> {
        if !a.is_square() {
            return Err(BlockAmcError::ShapeMismatch {
                op: "partition (square matrix required)",
                expected: a.rows(),
                got: a.cols(),
            });
        }
        let n = a.rows();
        if split == 0 || split >= n {
            return Err(BlockAmcError::config(format!(
                "split must satisfy 0 < split < n, got split={split}, n={n}"
            )));
        }
        Ok(BlockPartition {
            a1: a.block(0, 0, split, split)?,
            a2: a.block(0, split, split, n - split)?,
            a3: a.block(split, 0, n - split, split)?,
            a4: a.block(split, split, n - split, n - split)?,
            split,
        })
    }

    /// Partitions at the paper's default split `⌈n/2⌉` (the `(n+1)/2`
    /// choice for odd `n` described in §III.A).
    ///
    /// # Errors
    ///
    /// Same conditions as `BlockPartition::new`; requires `n >= 2`.
    pub fn halves(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        if n < 2 {
            return Err(BlockAmcError::config(format!(
                "cannot partition a {n}x{n} matrix into four blocks"
            )));
        }
        Self::new(a, n.div_ceil(2))
    }

    /// Total size `n` of the original matrix.
    pub(crate) fn size(&self) -> usize {
        self.split + self.a4.rows()
    }

    /// Computes the Schur complement `A4s = A4 − A3·A1⁻¹·A2`
    /// (paper eq. 3), with the zero-block shortcut: if `A2` or `A3` is a
    /// zero matrix, `A4s = A4` and no digital inversion is needed.
    ///
    /// The update kernel is chosen by the coupling blocks' measured
    /// density: sparse couplings (grounded Laplacians, PDN grids — see
    /// `BlockPartition::coupling_density`) stream through the CSR
    /// kernel, which skips zero columns outright; everything else runs
    /// the dense fused kernel. Both agree to within signed zeros.
    ///
    /// # Errors
    ///
    /// Returns [`BlockAmcError::SingularLeadingBlock`] if `A1` is
    /// singular (the algorithm requires an invertible `A1`; choose a
    /// different split in that case).
    pub fn schur_complement(&self) -> Result<Matrix> {
        self.schur_complement_with_factor().map(|(a4s, _)| a4s)
    }

    /// [`BlockPartition::schur_complement`] together with the LU
    /// factorisation of `A1` it computed — `None` under the zero-block
    /// shortcut, which factorises nothing. The factor is exactly
    /// `LuFactor::new(&self.a1)`, so a caller that programs `A1` on a
    /// digital array can keep it instead of factorising the same matrix
    /// a second time.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockPartition::schur_complement`].
    pub(crate) fn schur_complement_with_factor(&self) -> Result<(Matrix, Option<LuFactor>)> {
        if self.a2.is_zero() || self.a3.is_zero() {
            return Ok((self.a4.clone(), None));
        }
        let (a4s, lu) = if self.coupling_density() <= SPARSE_SCHUR_MAX_DENSITY {
            self.schur_complement_sparse()?
        } else {
            self.schur_complement_dense()?
        };
        Ok((a4s, Some(lu)))
    }

    /// Fraction of structurally nonzero entries across the coupling
    /// blocks `A2` and `A3` — the routing signal of
    /// [`BlockPartition::schur_complement`].
    pub(crate) fn coupling_density(&self) -> f64 {
        let nnz = |m: &Matrix| m.as_slice().iter().filter(|&&v| v != 0.0).count();
        let stored = nnz(&self.a2) + nnz(&self.a3);
        let total = self.a2.as_slice().len() + self.a3.as_slice().len();
        stored as f64 / total.max(1) as f64
    }

    /// The dense Schur kernel: one fused pass per column group of `A2`
    /// (solve the group in a packed panel, multiply by `A3`, subtract
    /// from the `A4` copy), with no `A1⁻¹·A2` or `A3·A1⁻¹·A2`
    /// intermediate (see [`LuFactor::schur_update_into`]). Returns the
    /// complement and the `A1` factor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockPartition::schur_complement`].
    fn schur_complement_dense(&self) -> Result<(Matrix, LuFactor)> {
        let lu = self.factor_a1()?;
        let mut a4s = self.a4.clone();
        lu.schur_update_into(&self.a2, &self.a3, &mut a4s)?;
        Ok((a4s, lu))
    }

    /// The sparse Schur kernel: converts the coupling blocks to CSR and
    /// runs [`LuFactor::schur_update_sparse_into`], skipping the zero
    /// columns that dominate Laplacian/PDN partitions. Returns the
    /// complement and the `A1` factor.
    ///
    /// # Errors
    ///
    /// Same conditions as [`BlockPartition::schur_complement`].
    fn schur_complement_sparse(&self) -> Result<(Matrix, LuFactor)> {
        let lu = self.factor_a1()?;
        let mut a4s = self.a4.clone();
        lu.schur_update_sparse_into(
            &CsrMatrix::from_dense(&self.a2),
            &CsrMatrix::from_dense(&self.a3),
            &mut a4s,
        )?;
        Ok((a4s, lu))
    }

    /// The LU factorisation of `A1`, with a breakdown reported as
    /// [`BlockAmcError::SingularLeadingBlock`].
    fn factor_a1(&self) -> Result<LuFactor> {
        LuFactor::new(&self.a1).map_err(|e| match e {
            LinalgError::Singular { pivot } => BlockAmcError::SingularLeadingBlock {
                n: self.size(),
                split: self.split,
                pivot,
            },
            e => e.into(),
        })
    }

    /// Splits a right-hand-side vector into `(f, g)` — the upper `split`
    /// entries and the rest (paper Fig. 2).
    ///
    /// # Errors
    ///
    /// Returns [`BlockAmcError::ShapeMismatch`] if `b.len() != n`.
    pub fn split_vector(&self, b: &[f64]) -> Result<(Vec<f64>, Vec<f64>)> {
        if b.len() != self.size() {
            return Err(BlockAmcError::ShapeMismatch {
                op: "split_vector",
                expected: self.size(),
                got: b.len(),
            });
        }
        Ok((b[..self.split].to_vec(), b[self.split..].to_vec()))
    }

    /// Reassembles the original matrix from the four blocks (inverse of
    /// `BlockPartition::new`).
    pub fn recompose(&self) -> Matrix {
        Matrix::from_blocks(&self.a1, &self.a2, &self.a3, &self.a4)
            .expect("blocks tile by construction")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_linalg::{generate, lu};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample(n: usize, seed: u64) -> Matrix {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        generate::diagonally_dominant(n, 1.0, &mut rng).unwrap()
    }

    #[test]
    fn partition_roundtrip_even() {
        let a = sample(8, 1);
        let p = BlockPartition::halves(&a).unwrap();
        assert_eq!(p.split, 4);
        assert_eq!(p.a1.shape(), (4, 4));
        assert_eq!(p.a4.shape(), (4, 4));
        assert_eq!(p.recompose(), a);
        assert_eq!(p.size(), 8);
    }

    #[test]
    fn partition_roundtrip_odd() {
        // Odd n: A1 is (n+1)/2 per the paper.
        let a = sample(7, 2);
        let p = BlockPartition::halves(&a).unwrap();
        assert_eq!(p.split, 4);
        assert_eq!(p.a1.shape(), (4, 4));
        assert_eq!(p.a2.shape(), (4, 3));
        assert_eq!(p.a3.shape(), (3, 4));
        assert_eq!(p.a4.shape(), (3, 3));
        assert_eq!(p.recompose(), a);
    }

    #[test]
    fn arbitrary_split_supported() {
        let a = sample(10, 3);
        for split in 1..10 {
            let p = BlockPartition::new(&a, split).unwrap();
            assert_eq!(p.a1.shape(), (split, split));
            assert_eq!(p.recompose(), a);
        }
    }

    #[test]
    fn invalid_inputs_rejected() {
        let a = sample(6, 4);
        assert!(BlockPartition::new(&a, 0).is_err());
        assert!(BlockPartition::new(&a, 6).is_err());
        assert!(BlockPartition::new(&Matrix::zeros(2, 3), 1).is_err());
        assert!(BlockPartition::halves(&Matrix::identity(1)).is_err());
    }

    #[test]
    fn schur_complement_matches_definition() {
        let a = sample(6, 5);
        let p = BlockPartition::halves(&a).unwrap();
        let s = p.schur_complement().unwrap();
        let a1_inv = lu::inverse(&p.a1).unwrap();
        let expect =
            p.a4.sub_matrix(&p.a3.matmul(&a1_inv).unwrap().matmul(&p.a2).unwrap())
                .unwrap();
        assert!(s.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn sparse_and_dense_schur_agree_on_structured_matrices() {
        // A grounded path Laplacian partitions into coupling blocks with
        // a single entry each: firmly on the sparse route.
        let a = generate::path_laplacian(12, 0.05).unwrap();
        let p = BlockPartition::halves(&a).unwrap();
        assert!(p.coupling_density() <= 0.10, "{}", p.coupling_density());
        let sparse = p.schur_complement().unwrap();
        let (dense, _) = p.schur_complement_dense().unwrap();
        assert!(sparse.approx_eq(&dense, 1e-13));
        // A dense sample routes through the dense kernel and both
        // explicit paths still agree.
        let a = sample(10, 9);
        let p = BlockPartition::halves(&a).unwrap();
        assert!(p.coupling_density() > 0.10);
        let (sparse, _) = p.schur_complement_sparse().unwrap();
        assert!(sparse.approx_eq(&p.schur_complement().unwrap(), 1e-12));
    }

    /// `Matrix::fingerprint` of `halves(a).schur_complement()`: three
    /// seeded Wisharts on the dense route and a 16×16 PDN grid on the
    /// sparse route. A1 fits one 32-column LU panel at n=40 and spans
    /// three at n=150 (both recorded while an earlier LU tiled its
    /// trailing update). At n=300, A1 spans five panels and `A2`'s 150
    /// columns make 18 groups of 8, one of 4 and two single columns;
    /// that value was recorded with the unblocked LU and the strided
    /// block kernels, before either was packed.
    #[test]
    fn schur_complement_matches_recorded_fingerprints() {
        use amc_circuit::pdn::{pdn_matrix, PdnSpec};
        let wishart =
            |n, seed| generate::wishart_default(n, &mut ChaCha8Rng::seed_from_u64(seed)).unwrap();
        let pdn = pdn_matrix(
            &PdnSpec::default_grid(16, 16),
            &mut ChaCha8Rng::seed_from_u64(3),
        )
        .unwrap();
        let cases = [
            (wishart(40, 1), false, 0x82f3_5758_932e_f7fe_u64),
            (wishart(150, 2), false, 0xcaf4_44fd_7476_bc07),
            (wishart(300, 3), false, 0xcd79_0188_9a3c_558d),
            (pdn, true, 0x60e4_345b_67d6_b417),
        ];
        for (a, sparse, golden) in cases {
            let p = BlockPartition::halves(&a).unwrap();
            assert_eq!(p.coupling_density() <= SPARSE_SCHUR_MAX_DENSITY, sparse);
            let got = p.schur_complement().unwrap().fingerprint();
            assert_eq!(got, golden, "n={}", a.rows());
        }
    }

    #[test]
    fn schur_shortcut_for_zero_blocks() {
        // Block lower-triangular: A2 = 0 -> A4s = A4.
        let a1 = Matrix::identity(2);
        let a2 = Matrix::zeros(2, 2);
        let a3 = Matrix::filled(2, 2, 0.5);
        let a4 = Matrix::from_diag(&[3.0, 4.0]);
        let a = Matrix::from_blocks(&a1, &a2, &a3, &a4).unwrap();
        let p = BlockPartition::halves(&a).unwrap();
        assert_eq!(p.schur_complement().unwrap(), a4);
    }

    #[test]
    fn schur_detects_singular_a1() {
        let a1 = Matrix::zeros(2, 2);
        let rest = Matrix::identity(2);
        let a2 = Matrix::filled(2, 2, 1.0);
        let a = Matrix::from_blocks(&a1, &a2, &a2, &rest).unwrap();
        let p = BlockPartition::halves(&a).unwrap();
        let err = BlockAmcError::SingularLeadingBlock {
            n: 4,
            split: 2,
            pivot: 0,
        };
        assert_eq!(p.schur_complement_dense().map(|(s, _)| s), Err(err.clone()));
        assert_eq!(p.schur_complement_sparse().map(|(s, _)| s), Err(err));
    }

    #[test]
    fn vector_splitting() {
        let a = sample(5, 6);
        let p = BlockPartition::halves(&a).unwrap(); // split = 3
        let (f, g) = p.split_vector(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(f, vec![1.0, 2.0, 3.0]);
        assert_eq!(g, vec![4.0, 5.0]);
        assert!(p.split_vector(&[1.0]).is_err());
    }

    #[test]
    fn block_inverse_identity_via_schur() {
        // The block-inverse identity: for x = A⁻¹b,
        // x_bot = A4s⁻¹(g − A3·A1⁻¹·f) must hold.
        let a = sample(8, 7);
        let b: Vec<f64> = (0..8).map(|i| (i as f64 * 0.3).sin()).collect();
        let x = lu::solve(&a, &b).unwrap();
        let p = BlockPartition::halves(&a).unwrap();
        let (f, g) = p.split_vector(&b).unwrap();
        let a4s = p.schur_complement().unwrap();
        let yt = lu::solve(&p.a1, &f).unwrap();
        let gt = p.a3.matvec(&yt).unwrap();
        let gs = amc_linalg::vector::sub(&g, &gt);
        let z = lu::solve(&a4s, &gs).unwrap();
        assert!(amc_linalg::vector::approx_eq(&z, &x[4..], 1e-10));
    }
}
