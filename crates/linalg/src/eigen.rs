//! Spectral estimates of symmetric matrices: a Lanczos estimator of the
//! extreme eigenvalue magnitudes, and a cyclic-Jacobi eigensolver that
//! serves as its reference.
//!
//! The INV circuit's stability and settling time are governed by the
//! spectrum of the mapped matrix (Sun et al., T-ED 2020): all eigenvalues
//! of the (symmetrized) normalized matrix must be positive for the
//! feedback loop to converge, and the smallest one sets the time
//! constant. The split-search optimizer in `blockamc` ranks candidate
//! splits by the condition `|λ|_max / |λ|_min` of their blocks.
//!
//! Both needs are served by one Lanczos core with full
//! reorthogonalisation (Parlett, *The Symmetric Eigenvalue Problem*;
//! Golub & Van Loan §10.1). [`min_abs_eigenvalue`] runs it on `S⁻¹`
//! through one LU factorisation of `S`, and the condition estimate of
//! [`symmetric_part_condition`] also runs it on `S`. Each step takes the
//! Ritz value of larger magnitude of the two ends of the tridiagonal
//! `T_k`, so an indefinite `S` is handled, and stops once an
//! a-posteriori bound on its distance to an eigenvalue falls to `1e-11`
//! relative: the residual bound `|θ − λ| ≤ β_k·|s_k|` (the last component of the
//! Ritz vector in the Lanczos basis), or Kato–Temple's `β_k²·s_k²/gap`
//! once the next Ritz value gives a gap estimate. A breakdown (`β_k = 0`)
//! makes the bound zero, and `n` steps span the whole space. The start
//! vector is fixed, so every estimate is deterministic. Lanczos
//! converges at a rate set by the square root of the relative gap, where
//! inverse iteration's is set by the gap itself.
//!
//! [`symmetric_eigen`] computes the whole spectrum in O(n³) per sweep;
//! the tests check the estimator against it.

use crate::lu::LuFactor;
use crate::{vector, LinalgError, Matrix, Result};

/// Full eigendecomposition of a symmetric matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct SymmetricEigen {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors, column `k` pairing with `values[k]`.
    pub vectors: Matrix,
}

/// Computes all eigenvalues/eigenvectors of a symmetric matrix with the
/// cyclic Jacobi method.
///
/// Robust and simple — O(n³) per sweep with typically 6–10 sweeps. It is
/// the reference the Lanczos estimates are checked against; the hot
/// paths use [`min_abs_eigenvalue`] and [`symmetric_part_condition`].
///
/// # Errors
///
/// * [`LinalgError::NonSquare`] if `a` is not square.
/// * [`LinalgError::InvalidArgument`] if `a` is empty, has a non-finite
///   entry or is not symmetric to `1e-9·max|a|`.
/// * [`LinalgError::ConvergenceFailure`] if the off-diagonal mass does not
///   vanish within 50 sweeps (does not happen for finite symmetric input).
pub fn symmetric_eigen(a: &Matrix) -> Result<SymmetricEigen> {
    check_symmetric(a)?;
    let n = a.rows();
    let scale = a.max_abs();
    let mut m = a.clone();
    let mut v = Matrix::identity(n);
    let tol = 1e-14 * scale.max(f64::MIN_POSITIVE);

    for _sweep in 0..50 {
        let mut off = 0.0_f64;
        for i in 0..n {
            for j in (i + 1)..n {
                off = off.max(m[(i, j)].abs());
            }
        }
        if off <= tol {
            let mut pairs: Vec<(f64, usize)> = (0..n).map(|k| (m[(k, k)], k)).collect();
            pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            let values: Vec<f64> = pairs.iter().map(|&(val, _)| val).collect();
            let mut vectors = Matrix::zeros(n, n);
            for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
                for r in 0..n {
                    vectors[(r, new_col)] = v[(r, old_col)];
                }
            }
            return Ok(SymmetricEigen { values, vectors });
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() <= tol {
                    continue;
                }
                // Classic Jacobi rotation annihilating (p, q).
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    1.0 / (theta - (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Update rows/columns p and q of m.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = c * mkp - s * mkq;
                    m[(k, q)] = s * mkp + c * mkq;
                }
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = c * mpk - s * mqk;
                    m[(q, k)] = s * mpk + c * mqk;
                }
                // Accumulate the rotation into the eigenvector matrix.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = c * vkp - s * vkq;
                    v[(k, q)] = s * vkp + c * vkq;
                }
            }
        }
    }
    Err(LinalgError::ConvergenceFailure {
        iterations: 50,
        residual: f64::NAN,
        tolerance: tol,
    })
}

/// Relative accuracy at which the Lanczos estimator stops: its
/// a-posteriori bound on `|θ − λ|` must fall to `LANCZOS_RTOL·|θ|`.
const LANCZOS_RTOL: f64 = 1e-11;

/// Magnitude of the smallest-magnitude eigenvalue of a symmetric matrix,
/// `|λ|_min = 1 / |μ|_max` of `S⁻¹`, from Lanczos on `S⁻¹` applied
/// through one [`LuFactor`] of `s` (see the module docs for the stopping
/// rule). Costs one LU plus a solve and a reorthogonalisation per step.
///
/// # Errors
///
/// * [`LinalgError::NonSquare`] if `s` is not square.
/// * [`LinalgError::InvalidArgument`] if `s` is empty, has a non-finite
///   entry or is not symmetric to `1e-9·max|s|`, or if the solves
///   overflow.
/// * [`LinalgError::Singular`] if the LU factorisation of `s` fails.
pub fn min_abs_eigenvalue(s: &Matrix) -> Result<f64> {
    check_symmetric(s)?;
    let lu = LuFactor::new(s)?;
    let mu = dominant_eigenvalue(s.rows(), |x, y| lu.solve_into(x, y))?;
    Ok(1.0 / mu)
}

/// Magnitude of the largest-magnitude eigenvalue of a symmetric matrix
/// that passed [`check_symmetric`], from Lanczos on `s` itself (one
/// matrix-vector product per step).
fn max_abs_eigenvalue(s: &Matrix) -> Result<f64> {
    dominant_eigenvalue(s.rows(), |x, y| s.matvec_into(x, y))
}

/// Condition proxy for a general square matrix: the spectral condition
/// `|λ|_max / |λ|_min` of its symmetric part, from the two Lanczos
/// estimates — cheap and adequate for ranking alternative block splits
/// (the BlockAMC split-search use case).
///
/// Returns `f64::INFINITY` when the symmetric part is singular.
///
/// # Errors
///
/// [`LinalgError::NonSquare`] for a non-square matrix, and the input
/// errors of [`min_abs_eigenvalue`] other than singularity.
pub fn symmetric_part_condition(a: &Matrix) -> Result<f64> {
    if !a.is_square() {
        return Err(LinalgError::NonSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    // Fused symmetrization: one pass and one allocation instead of the
    // transpose + add + scale chain (three temporaries). The split-search
    // optimizer calls this once per candidate split, so it is hot.
    let sym = Matrix::from_fn(a.rows(), a.rows(), |i, j| 0.5 * (a[(i, j)] + a[(j, i)]));
    let abs_min = match min_abs_eigenvalue(&sym) {
        Ok(v) => v,
        Err(LinalgError::Singular { .. }) => 0.0,
        Err(e) => return Err(e),
    };
    if abs_min == 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(max_abs_eigenvalue(&sym)? / abs_min)
}

/// Rejects what the spectral routines cannot take: a non-square, empty,
/// non-finite or asymmetric matrix.
fn check_symmetric(s: &Matrix) -> Result<()> {
    if !s.is_square() {
        return Err(LinalgError::NonSquare {
            rows: s.rows(),
            cols: s.cols(),
        });
    }
    if s.rows() == 0 {
        return Err(LinalgError::invalid(
            "cannot estimate the spectrum of an empty matrix",
        ));
    }
    if !s.as_slice().iter().all(|v| v.is_finite()) {
        return Err(LinalgError::invalid("matrix has a non-finite entry"));
    }
    if !s.is_symmetric(1e-9 * s.max_abs().max(1.0)) {
        return Err(LinalgError::invalid(
            "the spectral routines require a symmetric matrix",
        ));
    }
    Ok(())
}

/// `|θ|` of the largest-magnitude eigenvalue of the symmetric `n×n`
/// operator `apply` (`y ← S·x`): Lanczos with full reorthogonalisation
/// from a fixed start vector, stopped by the bound of the module docs,
/// after a breakdown (`β = 0` gives a zero bound), or after `n` steps.
fn dominant_eigenvalue(
    n: usize,
    mut apply: impl FnMut(&[f64], &mut [f64]) -> Result<()>,
) -> Result<f64> {
    // The Lanczos vectors q₀, q₁, … stored back to back.
    let mut basis = start_vector(n);
    let mut w = vec![0.0; n];
    let mut t = Tridiagonal::new();
    for k in 0..n {
        let q = &basis[k * n..(k + 1) * n];
        apply(q, &mut w)?;
        let alpha = vector::dot(q, &w);
        vector::axpy(-alpha, q, &mut w);
        if let Some(&beta) = t.beta.last() {
            vector::axpy(-beta, &basis[(k - 1) * n..k * n], &mut w);
        }
        reorthogonalise(&basis, &mut w);
        let beta = vector::norm2(&w);
        if !(alpha.is_finite() && beta.is_finite()) {
            return Err(LinalgError::invalid("the Lanczos recurrence overflowed"));
        }
        t.push(alpha);
        if k + 1 == n || t.converged(beta) {
            return Ok(t.lead.value);
        }
        t.push_beta(beta);
        basis.extend(w.iter().map(|v| v / beta));
    }
    unreachable!("the loop returns by step n (n >= 1)")
}

/// A fixed start vector of unit length whose entries (before scaling)
/// lie in `[0.5, 1.5)`, from the golden-ratio sequence: no entry is near
/// zero, so no eigenvector of a diagonal matrix is nearly missed.
fn start_vector(n: usize) -> Vec<f64> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let mut v: Vec<f64> = (1..=n).map(|i| 0.5 + (i as f64 * GOLDEN).fract()).collect();
    let norm = vector::norm2(&v);
    v.iter_mut().for_each(|x| *x /= norm);
    v
}

/// Removes from `w` its components along every vector of `basis` (one
/// modified Gram–Schmidt pass, and a second when the first cancels more
/// than `1 − 1/√2` of `w`'s norm: the Daniel–Gragg–Kaufman–Stewart test).
fn reorthogonalise(basis: &[f64], w: &mut [f64]) {
    for pass in 0..2 {
        let before = vector::norm2(w);
        for q in basis.chunks_exact(w.len()) {
            vector::axpy(-vector::dot(q, w), q, w);
        }
        if pass == 1 || vector::norm2(w) >= std::f64::consts::FRAC_1_SQRT_2 * before {
            break;
        }
    }
}

/// The dominant Ritz value: `value = λmax(σ·T)` for the orientation
/// `sign = σ` whose top end has the larger magnitude, `prev` its value
/// one step earlier (`NaN` when the other end led then), and `1/e` the
/// squared last component of its unit eigenvector.
#[derive(Debug, Clone, Copy)]
struct Ritz {
    sign: f64,
    value: f64,
    prev: f64,
    e: f64,
}

/// The Lanczos tridiagonal `T` (diagonal `alpha`, off-diagonal `beta`)
/// and its dominant Ritz value.
#[derive(Debug)]
struct Tridiagonal {
    alpha: Vec<f64>,
    beta: Vec<f64>,
    lead: Ritz,
    /// `ε·max(|α|, 2β)` over `T`: Sturm pivots smaller than this (a
    /// rounding error of `T`) are replaced by it, as in LAPACK's `dstebz`.
    pivmin: f64,
}

impl Tridiagonal {
    fn new() -> Self {
        Tridiagonal {
            alpha: Vec::new(),
            beta: Vec::new(),
            lead: Ritz {
                sign: 1.0,
                value: f64::NAN,
                prev: f64::NAN,
                e: 1.0,
            },
            pivmin: f64::MIN_POSITIVE,
        }
    }

    /// Appends the next diagonal entry and finds the grown `T`'s
    /// dominant Ritz value. Only the leading end is solved for; the far
    /// end costs one Sturm count unless it has overtaken.
    fn push(&mut self, alpha: f64) {
        self.alpha.push(alpha);
        self.pivmin = self.pivmin.max(f64::EPSILON * alpha.abs());
        let Some(&beta) = self.beta.last() else {
            let sign = if alpha < 0.0 { -1.0 } else { 1.0 };
            self.lead = Ritz {
                sign,
                value: sign * alpha,
                prev: f64::NAN,
                e: 1.0,
            };
            return;
        };
        let end = self.lead;
        // λmax(σT) lies between λmax(σT′) of the previous step
        // (interlacing) and λmax(diag(σT′, σα)) + β (Weyl), widened by a
        // few rounding errors. It starts one residual `β·|s|` of the
        // previous Ritz pair above its old value.
        let lo = end.value;
        let slack = 8.0 * f64::EPSILON * (lo.abs() + alpha.abs() + beta) + self.pivmin;
        let hi = lo.max(end.sign * alpha) + beta + slack;
        let start = (lo + beta / end.e.sqrt()).min(hi);
        let (value, e) = self.largest(end.sign, lo, hi, lo, start);
        self.lead = Ritz {
            sign: end.sign,
            value,
            prev: lo,
            e,
        };
        if self.pivots(end.sign, -value).0 > 0 {
            // λmin(σT) < −θ: the far end has overtaken in magnitude.
            let sign = -end.sign;
            let hi = -self.gershgorin_floor(end.sign) + slack;
            let (value, e) = self.largest(sign, value, hi, f64::NAN, hi);
            self.lead = Ritz {
                sign,
                value,
                prev: f64::NAN,
                e,
            };
        }
    }

    /// Appends the off-diagonal entry below the last diagonal one.
    fn push_beta(&mut self, beta: f64) {
        self.beta.push(beta);
        self.pivmin = self.pivmin.max(2.0 * f64::EPSILON * beta);
    }

    /// Gershgorin's lower bound on the spectrum of `σT`.
    fn gershgorin_floor(&self, sign: f64) -> f64 {
        let beta = |i: usize| self.beta.get(i).copied().unwrap_or(0.0);
        (0..self.alpha.len())
            .map(|i| sign * self.alpha[i] - beta(i) - if i > 0 { beta(i - 1) } else { 0.0 })
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether the dominant Ritz value, with the next off-diagonal
    /// `beta`, meets the stopping bound: the residual bound `r = β·|s_k|`,
    /// or Kato–Temple's `r²/gap`, the gap taken to the next Ritz value
    /// at the same end.
    fn converged(&self, beta: f64) -> bool {
        let theta = self.lead;
        let r = beta / theta.e.sqrt();
        let tol = LANCZOS_RTOL * theta.value;
        if r <= tol {
            return true;
        }
        // Gershgorin bounds the whole spectrum, so θ − floor bounds every
        // gap; interlacing puts λ₂(σT) below θ′, the previous step's θ
        // (unknown right after the far end took the lead).
        let floor = self.gershgorin_floor(theta.sign);
        if theta.prev.is_nan() || r * r > tol * (theta.value - floor) {
            return false;
        }
        r * r <= tol * (theta.value - self.second(floor))
    }

    /// An upper bound on the second-largest eigenvalue of `σT`, to a
    /// hundredth of its distance from `θ`: bisection on the Sturm count
    /// inside `[floor, θ′]`.
    fn second(&self, floor: f64) -> f64 {
        let theta = self.lead;
        let below = self.alpha.len() - 2;
        let (mut lo, mut hi) = (floor, theta.prev);
        for _ in 0..64 {
            if hi - lo <= 0.01 * (theta.value - hi) {
                break;
            }
            let x = 0.5 * (lo + hi);
            if self.pivots(theta.sign, x).0 > below {
                hi = x;
            } else {
                lo = x;
            }
        }
        hi
    }

    /// Sturm sequence of `σ·T − x·I`: the number of its negative pivots
    /// (= eigenvalues of `σT` below `x`), the last pivot `d` and `e =
    /// −∂d/∂x ≥ 1`. Right of the previous step's spectrum, `d(x)` is
    /// convex and decreasing with its root at `λmax(σT)`, where `1/e` is
    /// the squared last component of the unit eigenvector.
    fn pivots(&self, sign: f64, x: f64) -> (usize, f64, f64) {
        let (mut count, mut d, mut e) = (0, 1.0, 0.0);
        for (i, &a) in self.alpha.iter().enumerate() {
            let b2 = if i == 0 {
                0.0
            } else {
                self.beta[i - 1].powi(2)
            };
            let t = b2 / d;
            e = 1.0 + t * e / d;
            d = sign * a - x - t;
            if d.abs() < self.pivmin {
                d = -self.pivmin;
            }
            if d < 0.0 {
                count += 1;
            }
        }
        (count, d, e)
    }

    /// `λmax(σT)` inside `[lo, hi]`, and its `e`, from `start`. Where the
    /// last pivot's sign agrees with the Sturm count (the convex side),
    /// each step jumps to the root of the model `ρ/(x − pole) + c` fitted
    /// to the pivot and its slope (the pole is the previous step's
    /// `λmax`, when known), or else takes a Newton step; elsewhere it
    /// bisects the Sturm-count bracket.
    fn largest(&self, sign: f64, mut lo: f64, mut hi: f64, pole: f64, start: f64) -> (f64, f64) {
        let below = self.alpha.len() - 1;
        let mut x = start;
        let mut e = 1.0;
        // Bisection alone halves the bracket to `tol` in well under 200
        // steps; the cap only guards against a stalled model sequence.
        for _ in 0..200 {
            let (count, d, e_x) = self.pivots(sign, x);
            e = e_x;
            let above = count > below;
            if above {
                hi = x;
            } else {
                lo = x;
            }
            let convex = (d < 0.0) == above;
            let step = d / e;
            let tol = 2.0 * f64::EPSILON * lo.abs().max(hi.abs()) + self.pivmin;
            if hi - lo <= tol || (convex && step.abs() <= tol) {
                return (x, e);
            }
            let delta = x - pole;
            let rational = pole + e * delta * delta / (e * delta - d);
            let inside = |y: f64| lo < y && y < hi;
            x = if convex && inside(rational) {
                rational
            } else if convex && inside(x + step) {
                x + step
            } else {
                0.5 * (lo + hi)
            };
        }
        (x, e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let e = symmetric_eigen(&a).unwrap();
        assert_eq!(e.values, vec![-1.0, 2.0, 3.0]);
    }

    #[test]
    fn known_2x2_spectrum() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3 with vectors (1,∓1)/√2.
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
        // Eigenvector check: A·v = λ·v.
        for k in 0..2 {
            let v: Vec<f64> = (0..2).map(|r| e.vectors[(r, k)]).collect();
            let av = a.matvec(&v).unwrap();
            for i in 0..2 {
                assert!((av[i] - e.values[k] * v[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn reconstruction_and_orthogonality() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = generate::wishart_default(12, &mut rng).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        // VᵀV = I, with the product chain run through the scratch-reusing
        // GEMM entry point.
        let mut scratch = Matrix::zeros(1, 1);
        e.vectors
            .transpose()
            .matmul_into(&e.vectors, &mut scratch)
            .unwrap();
        assert!(scratch.approx_eq(&Matrix::identity(12), 1e-10));
        // V·Λ·Vᵀ = A.
        let lambda = Matrix::from_diag(&e.values);
        e.vectors.matmul_into(&lambda, &mut scratch).unwrap();
        let back = scratch.matmul(&e.vectors.transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-9 * a.max_abs()));
        // Values ascend.
        for w in e.values.windows(2) {
            assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn spd_matrices_have_positive_spectrum() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = generate::random_spd_toeplitz(16, 8, 0.02, &mut rng).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let (lo, hi) = (e.values[0], e.values[e.values.len() - 1]);
        assert!(lo > 0.0);
        assert!(hi >= lo);
    }

    #[test]
    fn condition_number_matches_diagonal_case() {
        let a = Matrix::from_diag(&[10.0, 0.1, 1.0]);
        assert!((symmetric_part_condition(&a).unwrap() - 100.0).abs() < 1e-9);
        let indefinite = Matrix::from_diag(&[-10.0, 0.1, 1.0]);
        assert!((symmetric_part_condition(&indefinite).unwrap() - 100.0).abs() < 1e-9);
        let singular = Matrix::from_diag(&[1.0, 0.0]);
        assert_eq!(symmetric_part_condition(&singular).unwrap(), f64::INFINITY);
    }

    #[test]
    fn lanczos_extremes_match_jacobi() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for n in [1, 2, 3, 7, 24, 60] {
            let a = generate::wishart_default(n, &mut rng).unwrap();
            let e = symmetric_eigen(&a).unwrap();
            let lo = e.values[0];
            let hi = e.values[n - 1];
            let got_lo = min_abs_eigenvalue(&a).unwrap();
            let got_hi = max_abs_eigenvalue(&a).unwrap();
            assert!((got_lo - lo).abs() <= 1e-10 * lo, "n={n}: {got_lo} vs {lo}");
            assert!((got_hi - hi).abs() <= 1e-10 * hi, "n={n}: {got_hi} vs {hi}");
        }
        // Negative definite: the dominant end is the bottom one.
        let neg = Matrix::from_diag(&[-3.0, -0.5, -2.0, -1.0]);
        assert!((min_abs_eigenvalue(&neg).unwrap() - 0.5).abs() < 1e-12);
        assert!((max_abs_eigenvalue(&neg).unwrap() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lanczos_rejects_bad_input() {
        assert!(min_abs_eigenvalue(&Matrix::zeros(2, 3)).is_err());
        assert!(min_abs_eigenvalue(&Matrix::zeros(0, 0)).is_err());
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(min_abs_eigenvalue(&asym).is_err());
        let nan = Matrix::from_diag(&[1.0, f64::NAN]);
        assert!(min_abs_eigenvalue(&nan).is_err());
        assert!(matches!(
            min_abs_eigenvalue(&Matrix::from_diag(&[1.0, 0.0])),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn rejects_asymmetric_and_non_square() {
        let asym = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
        assert!(symmetric_eigen(&asym).is_err());
        assert!(symmetric_eigen(&Matrix::zeros(2, 3)).is_err());
        // But the symmetric-part proxy accepts it.
        assert!(symmetric_part_condition(&asym).is_ok());
    }

    #[test]
    fn agrees_with_inverse_iteration_estimate() {
        // Cross-check of the LU's 1-norm condition estimate against the
        // spectral condition from this solver.
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = generate::wishart_default(10, &mut rng).unwrap();
        let e = symmetric_eigen(&a).unwrap();
        let lu = crate::lu::LuFactor::new(&a).unwrap();
        let cond_est = lu.cond_estimate(a.norm_one());
        let cond_true = e.values.last().unwrap() / e.values.first().unwrap();
        // The 1-norm estimate should be within a modest factor of truth.
        assert!(
            cond_est > cond_true * 0.1 && cond_est < cond_true * 10.0,
            "estimate {cond_est} vs true {cond_true}"
        );
    }
}
