//! Small vector helpers over `&[f64]` slices.
//!
//! These free functions are used pervasively by the solvers; they keep the
//! hot paths allocation-free where possible and panic-free by returning
//! checked results only where shapes can disagree (callers in this workspace
//! validate shapes at the matrix level, so these helpers use debug
//! assertions instead of `Result`s).

/// The start value of every dot-product accumulation in this crate:
/// `−0.0`, the additive identity of IEEE-754 (`−0.0 + x == x` for every
/// `x`, `+0.0` included). [`dot`], [`Matrix::matvec_into`] and the
/// multi-column kernels ([`Matrix::matvec_block_into`],
/// [`LuFactor::solve_block_into`]) all start from it, so each column of a
/// block result is bit-identical to its single-column counterpart —
/// signed zeros included — whatever start value `Iterator::sum` uses.
///
/// [`Matrix::matvec_into`]: crate::Matrix::matvec_into
/// [`Matrix::matvec_block_into`]: crate::Matrix::matvec_block_into
/// [`LuFactor::solve_block_into`]: crate::lu::LuFactor::solve_block_into
pub(crate) const SUM_NEUTRAL: f64 = -0.0;

/// Dot product of two equally sized slices, summed in index order from
/// `SUM_NEUTRAL`.
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).fold(SUM_NEUTRAL, |acc, (x, y)| acc + x * y)
}

/// Width of the wide column groups (and packed panels) of the
/// multi-column kernels: a block of `k` columns runs fastest when `k` is
/// a multiple of it, so callers that cut a batch into column blocks
/// (the parallel batch solve) cut on multiples of `WIDE`.
pub const WIDE: usize = 8;
/// Width of the narrow column group of the multi-column kernels.
pub(crate) const NARROW: usize = 4;

/// Cuts the columns `0..k` of a block into the groups the multi-column
/// kernels process, yielding `(first column, width)`: groups of [`WIDE`]
/// first, then at most one group of [`NARROW`], then the remaining
/// columns one at a time (width 1).
pub(crate) fn column_groups(k: usize) -> impl Iterator<Item = (usize, usize)> {
    let wide_end = k / WIDE * WIDE;
    let narrow_end = wide_end + (k - wide_end) / NARROW * NARROW;
    (0..wide_end)
        .step_by(WIDE)
        .map(|c| (c, WIDE))
        .chain((wide_end..narrow_end).step_by(NARROW).map(|c| (c, NARROW)))
        .chain((narrow_end..k).map(|c| (c, 1)))
}

/// Dot products of `R` rows with each column of a contiguous row-major
/// panel of width `W`: entry `[r][c]` is `Σ_j rows[r][j]·panel[j·W + c]`,
/// summed in `j` order from [`SUM_NEUTRAL`] — column for column the
/// arithmetic of [`dot`], so the compiler can vectorize across the
/// panel's columns and interleave the rows without changing a bit. Only
/// the first `rows[0].len()` panel rows are read.
///
/// # Panics
///
/// Panics if a row is shorter than `rows[0]` or the panel has fewer
/// than `rows[0].len()` rows.
#[inline]
pub(crate) fn dot_panel<const R: usize, const W: usize>(
    rows: [&[f64]; R],
    panel: &[f64],
) -> [[f64; W]; R] {
    let len = rows[0].len();
    let rows = rows.map(|r| &r[..len]);
    let mut acc = [[SUM_NEUTRAL; W]; R];
    for (j, panel_row) in panel[..len * W].chunks_exact(W).enumerate() {
        let panel_row: &[f64; W] = panel_row.try_into().expect("chunks are W wide");
        for (acc_r, row) in acc.iter_mut().zip(&rows) {
            let a = row[j];
            for (s, &v) in acc_r.iter_mut().zip(panel_row) {
                *s += a * v;
            }
        }
    }
    acc
}

/// Copies columns `c0..c0 + w` of a row-major block of width `k` into
/// `panel` as a contiguous row-major block of width `w`, taking the
/// block's rows in the order `rows` yields them (a permutation for the
/// triangular solves, `0..rows` for the matvec).
pub(crate) fn pack_columns(
    block: &[f64],
    k: usize,
    c0: usize,
    w: usize,
    rows: impl ExactSizeIterator<Item = usize>,
    panel: &mut Vec<f64>,
) {
    panel.clear();
    panel.reserve(rows.len() * w);
    for i in rows {
        panel.extend_from_slice(&block[i * k + c0..i * k + c0 + w]);
    }
}

/// Writes a contiguous panel of width `w` back into columns
/// `c0..c0 + w` of a row-major block of width `k` — the inverse of
/// [`pack_columns`] over the rows in order.
pub(crate) fn unpack_columns(panel: &[f64], w: usize, block: &mut [f64], k: usize, c0: usize) {
    for (block_row, panel_row) in block.chunks_exact_mut(k).zip(panel.chunks_exact(w)) {
        block_row[c0..c0 + w].copy_from_slice(panel_row);
    }
}

/// Rows per group of the single-vector kernels ([`Matrix::matvec_into`]
/// and the forward substitution of [`LuFactor::solve_into`]).
///
/// [`Matrix::matvec_into`]: crate::Matrix::matvec_into
/// [`LuFactor::solve_into`]: crate::lu::LuFactor::solve_into
pub(crate) const ROW_GROUP: usize = 4;

/// Dot products of `W` rows of a row-major block with `x`: entry `r` is
/// `Σ_j rows[r·stride + j]·x[j]` over `j < x.len()`, summed in `j` order
/// from [`SUM_NEUTRAL`] — row for row the arithmetic of [`dot`]. The `W`
/// sums are independent, so they advance side by side instead of each
/// waiting on the latency of the previous row's additions.
///
/// # Panics
///
/// Panics if `rows` is shorter than `(W − 1)·stride + x.len()`.
#[inline]
pub(crate) fn dot_rows<const W: usize>(rows: &[f64], stride: usize, x: &[f64]) -> [f64; W] {
    let rows: [&[f64]; W] = std::array::from_fn(|r| &rows[r * stride..][..x.len()]);
    let mut acc = [SUM_NEUTRAL; W];
    for (j, &xj) in x.iter().enumerate() {
        for (s, row) in acc.iter_mut().zip(&rows) {
            *s += row[j] * xj;
        }
    }
    acc
}

/// Copies column `c` of a row-major block of width `k` into `out`
/// (resized to the block's row count).
///
/// # Panics
///
/// Panics if `c >= k`.
pub fn gather_column(block: &[f64], k: usize, c: usize, out: &mut Vec<f64>) {
    assert!(c < k, "column index out of bounds");
    out.clear();
    out.extend(block.iter().skip(c).step_by(k));
}

/// Writes `col` into column `c` of a row-major block of width `k`.
///
/// # Panics
///
/// Panics if `c >= k` or `col` has more entries than the block has rows.
pub fn scatter_column(col: &[f64], k: usize, c: usize, block: &mut [f64]) {
    assert!(c < k, "column index out of bounds");
    assert!(col.len() * k <= block.len(), "column longer than the block");
    for (&v, row) in col.iter().zip(block.chunks_exact_mut(k)) {
        row[c] = v;
    }
}

/// Euclidean norm.
pub fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

/// Maximum absolute value (zero for an empty slice).
pub fn norm_inf(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// Sum of absolute values.
pub(crate) fn norm1(v: &[f64]) -> f64 {
    v.iter().map(|x| x.abs()).sum()
}

/// Element-wise sum `a + b` as a new vector.
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

/// Element-wise difference `a - b` as a new vector.
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    debug_assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Scaled copy `alpha * v`.
pub fn scale(v: &[f64], alpha: f64) -> Vec<f64> {
    v.iter().map(|x| alpha * x).collect()
}

/// Negated copy `-v`.
pub fn neg(v: &[f64]) -> Vec<f64> {
    scale(v, -1.0)
}

/// In-place negation `v = -v`.
pub fn neg_in_place(v: &mut [f64]) {
    for x in v {
        *x = -*x;
    }
}

/// In-place element-wise sum `a += b`.
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths.
pub fn add_assign(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len(), "add_assign: length mismatch");
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// In-place element-wise difference `a -= b`.
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths.
pub fn sub_assign(a: &mut [f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len(), "sub_assign: length mismatch");
    for (x, &y) in a.iter_mut().zip(b) {
        *x -= y;
    }
}

/// In-place `y += alpha * x` (the BLAS `axpy` operation).
///
/// # Panics
///
/// Panics in debug builds if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Concatenates two slices into a new vector.
pub fn concat(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

/// Returns `true` if every pair of elements differs by at most `tol`.
pub fn approx_eq(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norms() {
        let a = [3.0, 4.0];
        assert_eq!(dot(&a, &a), 25.0);
        assert_eq!(norm2(&a), 5.0);
        assert_eq!(norm_inf(&a), 4.0);
        assert_eq!(norm1(&a), 7.0);
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn dot_starts_from_negative_zero() {
        assert!(dot(&[], &[]).is_sign_negative());
        assert!(dot(&[-0.0], &[1.0]).is_sign_negative());
        assert!(dot(&[0.0], &[1.0]).is_sign_positive());
    }

    #[test]
    fn column_groups_cover_every_column_once() {
        for k in 0..=20 {
            let groups: Vec<(usize, usize)> = column_groups(k).collect();
            let mut next = 0;
            for &(c0, w) in &groups {
                assert_eq!(c0, next, "k={k}: groups must tile the columns in order");
                next += w;
            }
            assert_eq!(next, k);
            // Widths never grow along the block, and at most one 4 appears.
            assert!(groups.windows(2).all(|p| p[0].1 >= p[1].1), "k={k}");
            assert!(groups.iter().filter(|g| g.1 == 4).count() <= 1, "k={k}");
            assert!(groups.iter().filter(|g| g.1 == 1).count() < 4, "k={k}");
        }
    }

    #[test]
    fn gather_and_scatter_round_trip() {
        let block = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 2 rows x 3 columns
        let mut col = vec![9.0; 7];
        gather_column(&block, 3, 1, &mut col);
        assert_eq!(col, vec![2.0, 5.0]);
        let mut out = [0.0; 6];
        scatter_column(&col, 3, 2, &mut out);
        assert_eq!(out, [0.0, 0.0, 2.0, 0.0, 0.0, 5.0]);
    }

    #[test]
    fn pack_and_unpack_round_trip() {
        let block = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]; // 3x3
        let mut panel = vec![9.0; 1];
        pack_columns(&block, 3, 1, 2, [2, 0, 1].into_iter(), &mut panel);
        assert_eq!(panel, vec![8.0, 9.0, 2.0, 3.0, 5.0, 6.0]);
        let mut out = [0.0; 9];
        unpack_columns(&panel, 2, &mut out, 3, 0);
        assert_eq!(out, [8.0, 9.0, 0.0, 2.0, 3.0, 0.0, 5.0, 6.0, 0.0]);
    }

    #[test]
    fn arithmetic() {
        let a = [1.0, 2.0];
        let b = [3.0, 5.0];
        assert_eq!(add(&a, &b), vec![4.0, 7.0]);
        assert_eq!(sub(&b, &a), vec![2.0, 3.0]);
        assert_eq!(scale(&a, 2.0), vec![2.0, 4.0]);
        assert_eq!(neg(&a), vec![-1.0, -2.0]);
    }

    #[test]
    fn in_place_arithmetic() {
        let mut v = [1.0, -2.0];
        neg_in_place(&mut v);
        assert_eq!(v, [-1.0, 2.0]);
        add_assign(&mut v, &[2.0, 2.0]);
        assert_eq!(v, [1.0, 4.0]);
        sub_assign(&mut v, &[1.0, 1.0]);
        assert_eq!(v, [0.0, 3.0]);
    }

    #[test]
    fn axpy_updates_in_place() {
        let x = [1.0, 1.0];
        let mut y = [0.5, -0.5];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [2.5, 1.5]);
    }

    #[test]
    fn concat_and_split_roundtrip() {
        let v = concat(&[1.0, 2.0], &[3.0]);
        assert_eq!(v, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn approx_eq_checks_both_length_and_values() {
        assert!(approx_eq(&[1.0, 2.0], &[1.0 + 1e-12, 2.0], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.0, 2.0], 1e-9));
        assert!(!approx_eq(&[1.0], &[1.1], 1e-3));
    }
}
