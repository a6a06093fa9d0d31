//! Seeded generators for the paper's benchmark matrix families.
//!
//! The BlockAMC evaluation uses two matrix families (paper §IV):
//!
//! * **Wishart** matrices `A = Xᵀ·X` with `X` an `m x n` real Gaussian
//!   matrix — stochastic SPD matrices common in statistical physics.
//! * **Toeplitz** matrices, constant along diagonals — common in cyclic
//!   convolution and discrete Fourier analysis.
//!
//! All generators take an explicit RNG so experiments are reproducible; the
//! repro harness seeds a `rand_chacha::ChaCha8Rng` per (figure, size, trial).

use crate::{LinalgError, Matrix, Result};
use rand::Rng;

/// Samples a standard normal value using the Box-Muller transform.
///
/// Kept local (instead of `rand_distr`) to keep the dependency set minimal.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller: u1 in (0,1], u2 in [0,1).
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Generates an `rows x cols` matrix with i.i.d. standard normal entries.
pub fn gaussian<R: Rng + ?Sized>(rows: usize, cols: usize, rng: &mut R) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| standard_normal(rng))
}

/// Generates an `n x n` Wishart matrix `A = Xᵀ·X / m` with `X` an `m x n`
/// real Gaussian matrix (paper eq. 4).
///
/// The `1/m` normalization keeps element magnitudes O(1) across sizes; the
/// AMC mapping stage re-normalizes to the conductance range anyway, so this
/// does not change any of the paper's experiments.
///
/// With `m >= n` the result is symmetric positive definite with probability
/// one. The paper does not state `m`; the reproduction default, used by the
/// harness, is `m = 4n`, which by the Marchenko–Pastur law gives condition
/// numbers around `((1+√γ)/(1−√γ))² = 9` (γ = n/m = 1/4), independent of
/// `n` — the regime in which the paper's reported relative errors (0.05 to
/// 0.4 under 5% conductance variation) are reachable. Smaller `m` (e.g.
/// `m = n`) gives much worse conditioning and proportionally larger analog
/// errors.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0` or `m < n`.
pub(crate) fn wishart<R: Rng + ?Sized>(n: usize, m: usize, rng: &mut R) -> Result<Matrix> {
    if n == 0 {
        return Err(LinalgError::invalid("wishart size must be positive"));
    }
    if m < n {
        return Err(LinalgError::invalid(format!(
            "wishart requires m >= n for invertibility, got m={m}, n={n}"
        )));
    }
    let x = gaussian(m, n, rng);
    let mut a = x.transpose().matmul(&x)?;
    let scale = 1.0 / m as f64;
    a = a.scaled(scale);
    Ok(a)
}

/// Generates an `n x n` Wishart matrix with the reproduction's default
/// degrees-of-freedom choice `m = 4n` (see `wishart` for why).
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0`.
pub fn wishart_default<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Result<Matrix> {
    wishart(n, 4 * n, rng)
}

/// Builds a Toeplitz matrix from its first column and first row
/// (paper eq. 5): `A[i][j] = first_col[i - j]` for `i >= j`, else
/// `first_row[j - i]`.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if the inputs are empty, have
/// different lengths, or disagree on the shared diagonal element
/// `first_col[0] != first_row[0]`.
pub(crate) fn toeplitz(first_col: &[f64], first_row: &[f64]) -> Result<Matrix> {
    if first_col.is_empty() {
        return Err(LinalgError::invalid("toeplitz inputs must be non-empty"));
    }
    if first_col.len() != first_row.len() {
        return Err(LinalgError::invalid(format!(
            "toeplitz first_col ({}) and first_row ({}) must have equal length",
            first_col.len(),
            first_row.len()
        )));
    }
    if (first_col[0] - first_row[0]).abs() > 0.0 {
        return Err(LinalgError::invalid(
            "toeplitz first_col[0] must equal first_row[0]",
        ));
    }
    let n = first_col.len();
    Ok(Matrix::from_fn(n, n, |i, j| {
        if i >= j {
            first_col[i - j]
        } else {
            first_row[j - i]
        }
    }))
}

/// Generates a random diagonally dominant Toeplitz matrix.
///
/// Off-diagonal generators are uniform in `[-1, 1]` and the diagonal is set
/// to a value exceeding the absolute sum of the off-diagonals, which makes
/// the matrix well-posed for the INV circuit (a singular Toeplitz draw
/// would make neither the numerical nor the analog solver meaningful).
/// `dominance` scales how strongly the diagonal dominates: `1.0` is
/// marginal, larger is safer; the harness default is `1.2`.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0` or
/// `dominance <= 0`.
pub fn random_toeplitz<R: Rng + ?Sized>(n: usize, dominance: f64, rng: &mut R) -> Result<Matrix> {
    if n == 0 {
        return Err(LinalgError::invalid("toeplitz size must be positive"));
    }
    if dominance <= 0.0 {
        return Err(LinalgError::invalid("dominance must be positive"));
    }
    let mut col: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut row: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    // Decay off-diagonals so distant diagonals matter less (typical of the
    // convolution kernels Toeplitz matrices model) and dominance is cheap.
    for k in 1..n {
        let decay = 1.0 / (1.0 + k as f64);
        col[k] *= decay;
        row[k] *= decay;
    }
    let off_sum: f64 = col[1..]
        .iter()
        .chain(row[1..].iter())
        .map(|v| v.abs())
        .sum();
    let d = dominance * off_sum.max(1.0);
    col[0] = d;
    row[0] = d;
    toeplitz(&col, &row)
}

/// Generates a raw random Toeplitz matrix: first row/column entries are
/// i.i.d. uniform in `[-1, 1]` with no conditioning safeguards.
///
/// This matches the paper's benchmark family (eq. 5 with random
/// generators): such matrices are almost surely invertible but can be
/// arbitrarily ill-conditioned, which is why the paper's Toeplitz relative
/// errors grow toward O(1) at large sizes. Use [`random_toeplitz`] when a
/// well-posed (diagonally dominant) instance is needed.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0`.
pub fn random_toeplitz_raw<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Result<Matrix> {
    if n == 0 {
        return Err(LinalgError::invalid("toeplitz size must be positive"));
    }
    let mut col: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let row_rest: Vec<f64> = (1..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut row = Vec::with_capacity(n);
    row.push(col[0]);
    row.extend(row_rest);
    // Guard against a (measure-zero) zero diagonal which would make the
    // matrix trivially singular for n = 1.
    if col[0] == 0.0 {
        col[0] = 0.5;
        row[0] = 0.5;
    }
    toeplitz(&col, &row)
}

/// Generates a raw random Toeplitz matrix whose condition-number
/// estimate does not exceed `max_cond`, by seeded resampling.
///
/// [`random_toeplitz_raw`] occasionally draws catastrophically
/// conditioned instances (the family is almost surely invertible but
/// unboundedly ill-conditioned), which makes any experiment consuming
/// it flaky: a single near-singular draw dominates means and can sink a
/// shape check. This helper redraws from the caller's RNG stream until
/// the 1-norm condition estimate is within `max_cond`, up to
/// `MAX_TOEPLITZ_RESAMPLES` attempts, then returns the
/// **best-conditioned draw seen** — so it always succeeds, stays fully
/// deterministic for a given RNG state, and still exercises the
/// ill-conditioned (but finite) regime the paper's Toeplitz benchmarks
/// target.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0` or `max_cond`
/// is not greater than 1.
pub fn random_toeplitz_conditioned<R: Rng + ?Sized>(
    n: usize,
    max_cond: f64,
    rng: &mut R,
) -> Result<Matrix> {
    if !(max_cond.is_finite() && max_cond > 1.0) {
        return Err(LinalgError::invalid(format!(
            "max_cond must be finite and > 1, got {max_cond}"
        )));
    }
    let mut best: Option<(f64, Matrix)> = None;
    for _ in 0..MAX_TOEPLITZ_RESAMPLES {
        let a = random_toeplitz_raw(n, rng)?;
        let cond = match crate::lu::LuFactor::new(&a) {
            Ok(lu) => lu.cond_estimate(a.norm_one()),
            Err(_) => f64::INFINITY, // singular draw: resample
        };
        if cond <= max_cond {
            return Ok(a);
        }
        if best.as_ref().map_or(true, |(c, _)| cond < *c) {
            best = Some((cond, a));
        }
    }
    Ok(best.expect("at least one draw was recorded").1)
}

/// Resampling budget of [`random_toeplitz_conditioned`]. At the default
/// guard of [`DEFAULT_TOEPLITZ_MAX_COND`] a draw passes with high
/// probability, so the budget is almost never exhausted; it exists to
/// bound the worst case.
pub(crate) const MAX_TOEPLITZ_RESAMPLES: usize = 16;

/// The workspace-wide default condition ceiling for guarded raw
/// Toeplitz draws: generous enough to keep the family genuinely
/// ill-conditioned (the paper's eq. 5 regime), tight enough to exclude
/// the catastrophic tail that makes experiments flaky. The bench
/// harness and the scenario registry both use this value.
pub const DEFAULT_TOEPLITZ_MAX_COND: f64 = 1e8;

/// Generates a random symmetric positive-definite Toeplitz matrix from a
/// random autocorrelation sequence.
///
/// A length-`kernel_len` random vector `w` defines
/// `a_k = Σ_j w_j·w_{j+k}` (zero for `k ≥ kernel_len`); the Toeplitz
/// matrix with those diagonals is a finite section of the PSD convolution operator with
/// symbol `|W(e^{iθ})|²`, hence positive semidefinite — and positive
/// definite for generic `w` (strictly, whenever `W` has no zeros on the
/// unit circle). This is the natural Toeplitz family of the paper's
/// motivating applications (cyclic convolution, autocorrelation /
/// discrete-Fourier analysis), and its condition number grows with `n`
/// toward `max|W|²/min|W|²`, giving the error-vs-size growth the paper's
/// Fig. 7(b)/9(b) show.
///
/// `ridge` adds `ridge·a_0` to the diagonal (a relative regularization,
/// like the noise floor of a measured autocorrelation), which bounds the
/// condition number by roughly `1 + 1/ridge`; pass `0.0` for the raw
/// autocorrelation matrix.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0`, `kernel_len == 0`,
/// or `ridge` is negative/not finite.
pub fn random_spd_toeplitz<R: Rng + ?Sized>(
    n: usize,
    kernel_len: usize,
    ridge: f64,
    rng: &mut R,
) -> Result<Matrix> {
    if n == 0 {
        return Err(LinalgError::invalid("toeplitz size must be positive"));
    }
    if kernel_len == 0 {
        return Err(LinalgError::invalid("kernel length must be positive"));
    }
    if !(ridge.is_finite() && ridge >= 0.0) {
        return Err(LinalgError::invalid(
            "ridge must be finite and non-negative",
        ));
    }
    let k = kernel_len.min(n);
    let w: Vec<f64> = (0..k).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut diag0 = 0.0;
    for &wj in &w {
        diag0 += wj * wj;
    }
    diag0 = diag0.max(1e-6); // guard against an (astronomically unlikely) zero draw
    let mut col = vec![0.0; n];
    col[0] = diag0 * (1.0 + ridge);
    for lag in 1..k {
        let mut s = 0.0;
        for j in 0..(k - lag) {
            s += w[j] * w[j + lag];
        }
        col[lag] = s;
    }
    toeplitz(&col, &col)
}

/// Generates a random strictly diagonally dominant matrix with off-diagonal
/// entries uniform in `[-1, 1]`.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0` or `margin <= 0`.
pub fn diagonally_dominant<R: Rng + ?Sized>(n: usize, margin: f64, rng: &mut R) -> Result<Matrix> {
    if n == 0 {
        return Err(LinalgError::invalid("size must be positive"));
    }
    if margin <= 0.0 {
        return Err(LinalgError::invalid("margin must be positive"));
    }
    let mut a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    for i in 0..n {
        let off: f64 = a
            .row(i)
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, v)| v.abs())
            .sum();
        let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
        a[(i, i)] = sign * (off + margin);
    }
    Ok(a)
}

/// Builds the `n x n` 1-D Poisson (second-difference) matrix
/// `tridiag(-1, 2, -1)`, which is SPD and Toeplitz — used by the Poisson
/// solver example.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0`.
pub fn poisson_1d(n: usize) -> Result<Matrix> {
    if n == 0 {
        return Err(LinalgError::invalid("size must be positive"));
    }
    Ok(Matrix::from_fn(n, n, |i, j| {
        if i == j {
            2.0
        } else if i.abs_diff(j) == 1 {
            -1.0
        } else {
            0.0
        }
    }))
}

/// Builds the `(nx·ny) x (nx·ny)` 2-D Poisson matrix: the 5-point
/// finite-difference Laplacian on an `nx x ny` grid with Dirichlet
/// boundaries (diagonal 4, adjacent grid neighbours −1).
///
/// SPD, sparse-structured, and progressively ill-conditioned as the grid
/// grows (`κ ~ (max(nx,ny)/π)²`) — the canonical "physics workload" for
/// a linear-system solver.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `nx == 0` or `ny == 0`.
pub fn poisson_2d(nx: usize, ny: usize) -> Result<Matrix> {
    if nx == 0 || ny == 0 {
        return Err(LinalgError::invalid("grid dimensions must be positive"));
    }
    let n = nx * ny;
    let mut a = Matrix::zeros(n, n);
    for ix in 0..nx {
        for iy in 0..ny {
            let k = ix * ny + iy;
            a[(k, k)] = 4.0;
            if ix + 1 < nx {
                let k2 = (ix + 1) * ny + iy;
                a[(k, k2)] = -1.0;
                a[(k2, k)] = -1.0;
            }
            if iy + 1 < ny {
                let k2 = ix * ny + iy + 1;
                a[(k, k2)] = -1.0;
                a[(k2, k)] = -1.0;
            }
        }
    }
    Ok(a)
}

/// Builds the grounded Laplacian of a path graph on `n` vertices:
/// `L + ground·I` with `L = D − A` of the path `0 − 1 − … − n−1`.
///
/// The raw graph Laplacian is only positive *semi*-definite (the all-ones
/// vector is in its kernel); the `ground > 0` leak to a reference node
/// makes it SPD — exactly how a resistor network with a grounding
/// conductance per node becomes solvable. The condition number scales
/// like `1/ground` for small `ground`.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0` or `ground` is
/// not positive and finite.
pub fn path_laplacian(n: usize, ground: f64) -> Result<Matrix> {
    chain_laplacian(n, ground, false)
}

/// Builds the grounded Laplacian of a ring (cycle) graph on `n`
/// vertices: the path of [`path_laplacian`] plus the wrap-around edge
/// `n−1 — 0`. Circulant, hence also Toeplitz-like in structure.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0` or `ground` is
/// not positive and finite.
pub fn ring_laplacian(n: usize, ground: f64) -> Result<Matrix> {
    chain_laplacian(n, ground, true)
}

fn chain_laplacian(n: usize, ground: f64, ring: bool) -> Result<Matrix> {
    if n == 0 {
        return Err(LinalgError::invalid("graph size must be positive"));
    }
    if !(ground.is_finite() && ground > 0.0) {
        return Err(LinalgError::invalid(
            "grounding conductance must be positive and finite",
        ));
    }
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = ground;
    }
    let mut connect = |i: usize, j: usize| {
        a[(i, i)] += 1.0;
        a[(j, j)] += 1.0;
        a[(i, j)] -= 1.0;
        a[(j, i)] -= 1.0;
    };
    for i in 0..n.saturating_sub(1) {
        connect(i, i + 1);
    }
    if ring && n > 2 {
        connect(n - 1, 0);
    }
    Ok(a)
}

/// Builds the grounded Laplacian of a random regular multigraph on `n`
/// vertices via the permutation model: `degree/2` random permutations
/// each contribute the edge set `{i — σ(i)}`, giving every vertex
/// (multigraph) degree `degree`; self-loops of a permutation are
/// skipped. The result is `L + ground·I`: symmetric, diagonally
/// dominant, and SPD for `ground > 0` — an expander-like workload whose
/// conditioning stays flat as `n` grows (unlike the path/ring families).
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0`, `degree` is
/// zero or odd, or `ground` is not positive and finite.
pub fn random_regular_laplacian<R: Rng + ?Sized>(
    n: usize,
    degree: usize,
    ground: f64,
    rng: &mut R,
) -> Result<Matrix> {
    if n == 0 {
        return Err(LinalgError::invalid("graph size must be positive"));
    }
    if degree == 0 || degree % 2 != 0 {
        return Err(LinalgError::invalid(format!(
            "permutation-model regular graphs need a positive even degree, got {degree}"
        )));
    }
    if !(ground.is_finite() && ground > 0.0) {
        return Err(LinalgError::invalid(
            "grounding conductance must be positive and finite",
        ));
    }
    let mut a = Matrix::zeros(n, n);
    for i in 0..n {
        a[(i, i)] = ground;
    }
    for _ in 0..degree / 2 {
        // Fisher–Yates shuffle of 0..n from the caller's RNG stream.
        let mut perm: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        for (i, &j) in perm.iter().enumerate() {
            if i == j {
                continue;
            }
            a[(i, i)] += 1.0;
            a[(j, j)] += 1.0;
            a[(i, j)] -= 1.0;
            a[(j, i)] -= 1.0;
        }
    }
    Ok(a)
}

/// Generates a random SPD matrix with a prescribed spectrum: eigenvalues
/// log-spaced from `1/√cond` to `√cond` (so the 2-norm condition number
/// is exactly `cond` and the spectrum is centred on 1), conjugated by a
/// random orthogonal matrix.
///
/// The orthogonal factor comes from modified Gram–Schmidt on an i.i.d.
/// Gaussian matrix (Haar-distributed up to column signs), so instances
/// are dense and unstructured — the family isolates *conditioning* from
/// structure, which is what the split-rule and depth studies need.
///
/// # Errors
///
/// Returns [`LinalgError::InvalidArgument`] if `n == 0` or `cond < 1`
/// (or non-finite).
pub fn spd_with_condition<R: Rng + ?Sized>(n: usize, cond: f64, rng: &mut R) -> Result<Matrix> {
    if n == 0 {
        return Err(LinalgError::invalid("size must be positive"));
    }
    if !(cond.is_finite() && cond >= 1.0) {
        return Err(LinalgError::invalid(format!(
            "condition target must be finite and >= 1, got {cond}"
        )));
    }
    // Random orthogonal basis: modified Gram–Schmidt with degenerate
    // columns redrawn (measure-zero, but keeps the loop total).
    let mut q: Vec<Vec<f64>> = Vec::with_capacity(n);
    while q.len() < n {
        let mut v: Vec<f64> = (0..n).map(|_| standard_normal(rng)).collect();
        for u in &q {
            let dot: f64 = v.iter().zip(u).map(|(a, b)| a * b).sum();
            for (vi, ui) in v.iter_mut().zip(u) {
                *vi -= dot * ui;
            }
        }
        let norm = crate::vector::norm2(&v);
        if norm > 1e-8 {
            for vi in &mut v {
                *vi /= norm;
            }
            q.push(v);
        }
    }
    // Log-spaced eigenvalues in [1/√cond, √cond].
    let half_log = 0.5 * cond.ln();
    let eig = |k: usize| -> f64 {
        if n == 1 {
            1.0
        } else {
            let t = k as f64 / (n - 1) as f64; // 0..1
            ((2.0 * t - 1.0) * half_log).exp()
        }
    };
    // A = Σ_k λ_k · q_k q_kᵀ.
    let mut a = Matrix::zeros(n, n);
    for (k, qk) in q.iter().enumerate() {
        let lk = eig(k);
        for i in 0..n {
            let s = lk * qk[i];
            for j in 0..n {
                a[(i, j)] += s * qk[j];
            }
        }
    }
    // Symmetrize exactly: rounding in the outer-product accumulation
    // leaves ~1e-16 asymmetry that strict symmetry checks would reject.
    for i in 0..n {
        for j in (i + 1)..n {
            let m = 0.5 * (a[(i, j)] + a[(j, i)]);
            a[(i, j)] = m;
            a[(j, i)] = m;
        }
    }
    Ok(a)
}

/// Generates a random vector with entries uniform in `[-1, 1]`.
pub fn random_vector<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<f64> {
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cholesky;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn gaussian_has_plausible_moments() {
        let mut r = rng(1);
        let m = gaussian(100, 100, &mut r);
        let n = (m.rows() * m.cols()) as f64;
        let mean: f64 = m.as_slice().iter().sum::<f64>() / n;
        let var: f64 = m
            .as_slice()
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f64>()
            / n;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn wishart_is_spd_and_symmetric() {
        let mut r = rng(2);
        let a = wishart_default(16, &mut r).unwrap();
        assert!(a.is_symmetric(1e-12));
        assert!(cholesky::is_spd(&a, 1e-12));
    }

    #[test]
    fn wishart_validates_arguments() {
        let mut r = rng(3);
        assert!(wishart(0, 4, &mut r).is_err());
        assert!(wishart(8, 4, &mut r).is_err());
    }

    #[test]
    fn wishart_is_reproducible_with_same_seed() {
        let a = wishart_default(8, &mut rng(7)).unwrap();
        let b = wishart_default(8, &mut rng(7)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn toeplitz_structure() {
        let a = toeplitz(&[1.0, 2.0, 3.0], &[1.0, -1.0, -2.0]).unwrap();
        // Constant along diagonals.
        assert_eq!(a[(0, 0)], 1.0);
        assert_eq!(a[(1, 1)], 1.0);
        assert_eq!(a[(2, 2)], 1.0);
        assert_eq!(a[(1, 0)], 2.0);
        assert_eq!(a[(2, 1)], 2.0);
        assert_eq!(a[(0, 1)], -1.0);
        assert_eq!(a[(1, 2)], -1.0);
        assert_eq!(a[(0, 2)], -2.0);
    }

    #[test]
    fn toeplitz_validates_inputs() {
        assert!(toeplitz(&[], &[]).is_err());
        assert!(toeplitz(&[1.0, 2.0], &[1.0]).is_err());
        assert!(toeplitz(&[1.0, 2.0], &[2.0, 3.0]).is_err());
    }

    #[test]
    fn random_toeplitz_is_invertible_and_dominant() {
        let mut r = rng(4);
        for n in [4usize, 16, 33] {
            let a = random_toeplitz(n, 1.2, &mut r).unwrap();
            assert!(a.is_diagonally_dominant(), "n={n}");
            assert!(crate::lu::LuFactor::new(&a).is_ok(), "n={n}");
        }
        assert!(random_toeplitz(0, 1.0, &mut r).is_err());
        assert!(random_toeplitz(4, 0.0, &mut r).is_err());
    }

    #[test]
    fn random_toeplitz_raw_is_toeplitz_structured() {
        let mut r = rng(11);
        let a = random_toeplitz_raw(6, &mut r).unwrap();
        for i in 1..6 {
            for j in 1..6 {
                assert_eq!(a[(i, j)], a[(i - 1, j - 1)], "diagonal constancy");
            }
        }
        assert!(random_toeplitz_raw(0, &mut r).is_err());
        // Entries stay in [-1, 1].
        assert!(a.max_abs() <= 1.0);
    }

    #[test]
    fn random_spd_toeplitz_is_spd_and_symmetric() {
        let mut r = rng(12);
        for n in [4usize, 16, 33] {
            let a = random_spd_toeplitz(n, 8, 0.0, &mut r).unwrap();
            assert!(a.is_symmetric(0.0), "n={n}");
            assert!(cholesky::is_spd(&a, 0.0), "n={n}");
            // Toeplitz structure.
            if n > 2 {
                assert_eq!(a[(2, 1)], a[(1, 0)]);
            }
        }
        assert!(random_spd_toeplitz(0, 4, 0.0, &mut r).is_err());
        assert!(random_spd_toeplitz(4, 0, 0.0, &mut r).is_err());
    }

    #[test]
    fn spd_toeplitz_conditioning_grows_with_n() {
        // Finite sections approach the symbol's max/min ratio from below,
        // so condition numbers are (weakly) increasing in n.
        use crate::lu::LuFactor;
        let mut r = rng(13);
        let small = random_spd_toeplitz(8, 8, 0.0, &mut r).unwrap();
        let mut r = rng(13);
        let large = random_spd_toeplitz(128, 8, 0.0, &mut r).unwrap();
        let cs = LuFactor::new(&small)
            .unwrap()
            .cond_estimate(small.norm_one());
        let cl = LuFactor::new(&large)
            .unwrap()
            .cond_estimate(large.norm_one());
        assert!(cl >= cs, "cond small {cs} vs large {cl}");
    }

    #[test]
    fn diagonally_dominant_is_dominant() {
        let mut r = rng(5);
        let a = diagonally_dominant(12, 0.5, &mut r).unwrap();
        assert!(a.is_diagonally_dominant());
        assert!(diagonally_dominant(0, 1.0, &mut r).is_err());
    }

    #[test]
    fn poisson_1d_shape() {
        let p = poisson_1d(4).unwrap();
        assert_eq!(p[(0, 0)], 2.0);
        assert_eq!(p[(0, 1)], -1.0);
        assert_eq!(p[(0, 2)], 0.0);
        assert!(cholesky::is_spd(&p, 0.0));
        assert!(poisson_1d(0).is_err());
    }

    #[test]
    fn conditioned_toeplitz_respects_the_guard() {
        use crate::lu::LuFactor;
        let mut r = rng(21);
        for n in [8usize, 32] {
            let a = random_toeplitz_conditioned(n, 1e8, &mut r).unwrap();
            let cond = LuFactor::new(&a).unwrap().cond_estimate(a.norm_one());
            assert!(cond <= 1e8, "n={n} cond={cond}");
            // Still the raw family: Toeplitz-structured, entries in [-1,1].
            assert_eq!(a[(2, 1)], a[(1, 0)]);
            assert!(a.max_abs() <= 1.0);
        }
        assert!(random_toeplitz_conditioned(0, 10.0, &mut r).is_err());
        assert!(random_toeplitz_conditioned(4, 1.0, &mut r).is_err());
        assert!(random_toeplitz_conditioned(4, f64::NAN, &mut r).is_err());
    }

    #[test]
    fn conditioned_toeplitz_is_deterministic_and_falls_back_gracefully() {
        let a = random_toeplitz_conditioned(16, 1e6, &mut rng(33)).unwrap();
        let b = random_toeplitz_conditioned(16, 1e6, &mut rng(33)).unwrap();
        assert_eq!(a, b);
        // An unreachable guard exhausts the budget but still returns the
        // best draw instead of failing.
        let c = random_toeplitz_conditioned(16, 1.0 + 1e-12, &mut rng(33)).unwrap();
        assert!(crate::lu::LuFactor::new(&c).is_ok());
    }

    #[test]
    fn poisson_2d_is_spd_with_five_point_stencil() {
        let a = poisson_2d(3, 4).unwrap();
        assert_eq!(a.shape(), (12, 12));
        assert!(a.is_symmetric(0.0));
        assert!(cholesky::is_spd(&a, 0.0));
        // Interior point (1,1) = index 1*4+1 = 5: four -1 neighbours.
        assert_eq!(a[(5, 5)], 4.0);
        assert_eq!(a[(5, 4)], -1.0); // (1,0)
        assert_eq!(a[(5, 6)], -1.0); // (1,2)
        assert_eq!(a[(5, 1)], -1.0); // (0,1)
        assert_eq!(a[(5, 9)], -1.0); // (2,1)
                                     // No wrap-around between row ends.
        assert_eq!(a[(3, 4)], 0.0);
        assert!(poisson_2d(0, 3).is_err());
        assert!(poisson_2d(3, 0).is_err());
    }

    #[test]
    fn grounded_graph_laplacians_are_spd_and_dominant() {
        let p = path_laplacian(6, 0.1).unwrap();
        assert!(p.is_symmetric(0.0));
        assert!(p.is_diagonally_dominant());
        assert!(cholesky::is_spd(&p, 0.0));
        // Interior vertex: degree 2 + ground.
        assert!((p[(2, 2)] - 2.1).abs() < 1e-15);
        assert!((p[(0, 0)] - 1.1).abs() < 1e-15);

        let c = ring_laplacian(6, 0.1).unwrap();
        assert!(cholesky::is_spd(&c, 0.0));
        assert_eq!(c[(0, 5)], -1.0, "ring wrap-around edge");
        assert!((c[(0, 0)] - 2.1).abs() < 1e-15);

        assert!(path_laplacian(0, 0.1).is_err());
        assert!(path_laplacian(4, 0.0).is_err());
        assert!(ring_laplacian(4, -1.0).is_err());
    }

    #[test]
    fn random_regular_laplacian_is_spd_with_bounded_degree() {
        let mut r = rng(22);
        let degree = 4;
        let a = random_regular_laplacian(12, degree, 0.2, &mut r).unwrap();
        assert!(a.is_symmetric(0.0));
        assert!(a.is_diagonally_dominant());
        assert!(cholesky::is_spd(&a, 0.0));
        for i in 0..12 {
            // Diagonal = ground + multigraph degree <= ground + degree
            // (self-loop skips can only lower it).
            assert!(a[(i, i)] <= 0.2 + degree as f64 + 1e-12);
            assert!(a[(i, i)] > 0.2);
        }
        assert!(random_regular_laplacian(0, 2, 0.1, &mut r).is_err());
        assert!(random_regular_laplacian(8, 3, 0.1, &mut r).is_err());
        assert!(random_regular_laplacian(8, 0, 0.1, &mut r).is_err());
        assert!(random_regular_laplacian(8, 2, 0.0, &mut r).is_err());
    }

    #[test]
    fn spd_with_condition_hits_the_target() {
        use crate::lu::LuFactor;
        let mut r = rng(23);
        for cond in [1e1, 1e3, 1e5] {
            let a = spd_with_condition(16, cond, &mut r).unwrap();
            assert!(a.is_symmetric(1e-12));
            assert!(cholesky::is_spd(&a, 0.0), "cond={cond}");
            // The 1-norm estimate brackets the 2-norm condition number
            // within a factor of n.
            let est = LuFactor::new(&a).unwrap().cond_estimate(a.norm_one());
            assert!(est >= cond / 16.0, "cond={cond} est={est}");
            assert!(est <= cond * 16.0, "cond={cond} est={est}");
        }
        assert!(spd_with_condition(0, 10.0, &mut r).is_err());
        assert!(spd_with_condition(4, 0.5, &mut r).is_err());
        // cond = 1 is the identity up to basis rotation.
        let i = spd_with_condition(5, 1.0, &mut r).unwrap();
        assert!(i.approx_eq(&Matrix::identity(5), 1e-12));
    }

    #[test]
    fn spd_with_condition_estimates_are_monotone_in_target() {
        use crate::lu::LuFactor;
        let est = |cond: f64| {
            let a = spd_with_condition(12, cond, &mut rng(24)).unwrap();
            LuFactor::new(&a).unwrap().cond_estimate(a.norm_one())
        };
        assert!(est(1e2) < est(1e4));
        assert!(est(1e4) < est(1e6));
    }

    #[test]
    fn random_vectors() {
        let mut r = rng(6);
        let v = random_vector(10, &mut r);
        assert_eq!(v.len(), 10);
        assert!(v.iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn standard_normal_distribution_adapter() {
        let mut r = rng(8);
        let samples: Vec<f64> = (0..1000).map(|_| standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / 1000.0;
        assert!(mean.abs() < 0.15);
    }
}
