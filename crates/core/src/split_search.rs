//! Adaptive split-index selection.
//!
//! The paper notes that "for a given matrix A, the size of A1 can be
//! arbitrarily selected, only requiring that it is square". That freedom
//! matters: the analog error of the five-step cascade is governed by the
//! conditioning of the two INV blocks (`A1` and the Schur complement
//! `A4s`), and a poorly placed split can hand the INV circuits
//! near-singular blocks even when `A` itself is healthy. This module
//! scores candidate splits and picks the best one — a design-space
//! exploration the paper leaves implicit (its benchmarks use `n/2`).
//!
//! The score of a split is `max(κ(A1), κ(A4s))` (spectral condition of
//! the symmetric part), optionally weighted by the array-size imbalance;
//! lower is better.

use amc_linalg::eigen;
use amc_linalg::lu::LuFactor;
use amc_linalg::Matrix;

use crate::partition::BlockPartition;
use crate::{BlockAmcError, Result};

/// A partition, its Schur complement `A4s`, and the `A1` factor the
/// complement was computed with (`None` under the zero-block shortcut,
/// which factorises nothing).
pub(crate) type SchurSplit = (BlockPartition, Matrix, Option<LuFactor>);

/// The score sheet of one candidate split.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SplitScore {
    /// The candidate split index.
    pub split: usize,
    /// Condition estimate of `A1`.
    pub cond_a1: f64,
    /// Condition estimate of `A4s`.
    pub cond_a4s: f64,
    /// The combined score (lower is better); `f64::INFINITY` when a block
    /// is singular or the Schur complement does not exist.
    pub score: f64,
}

/// A scored split with the partition, Schur complement and `A1` factor
/// its score was computed from (`None` when the Schur complement does not
/// exist).
pub(crate) type Candidate = (SplitScore, Option<SchurSplit>);

/// Options controlling the search.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SplitSearchOptions {
    /// Weight of the size-imbalance penalty: a split far from `n/2` makes
    /// the larger block nearly as big as `A` itself, eroding BlockAMC's
    /// scalability benefit. The penalty multiplies the conditioning score
    /// by `1 + weight·imbalance` with `imbalance = |2·split − n| / n`.
    pub imbalance_weight: f64,
}

impl Default for SplitSearchOptions {
    fn default() -> Self {
        SplitSearchOptions {
            imbalance_weight: 1.0,
        }
    }
}

/// Scores a single candidate split.
///
/// # Errors
///
/// Returns partitioning errors for invalid `split`; a singular `A1`
/// yields an infinite score rather than an error (it is a legitimate —
/// just terrible — candidate).
pub(crate) fn score_split(
    a: &Matrix,
    split: usize,
    opts: &SplitSearchOptions,
) -> Result<Candidate> {
    let p = BlockPartition::new(a, split)?;
    let cond_a1 = eigen::symmetric_part_condition(&p.a1).unwrap_or(f64::INFINITY);
    let (cond_a4s, score, parts) = match p.schur_complement_with_factor() {
        Ok((a4s, lu)) => {
            let c = eigen::symmetric_part_condition(&a4s).unwrap_or(f64::INFINITY);
            let n = a.rows() as f64;
            let imbalance = ((2 * split) as f64 - n).abs() / n;
            let penalty = 1.0 + opts.imbalance_weight * imbalance;
            (c, cond_a1.max(c) * penalty, Some((p, a4s, lu)))
        }
        Err(_) => (f64::INFINITY, f64::INFINITY, None),
    };
    Ok((
        SplitScore {
            split,
            cond_a1,
            cond_a4s,
            score,
        },
        parts,
    ))
}

/// Scores every candidate and returns them sorted best-first (a stable
/// sort: ties keep candidate order).
///
/// # Errors
///
/// * [`BlockAmcError::ShapeMismatch`] for a non-square matrix.
/// * [`BlockAmcError::InvalidConfig`] if `candidates` is empty or contains
///   an out-of-range split.
pub(crate) fn rank_splits(
    a: &Matrix,
    candidates: &[usize],
    opts: &SplitSearchOptions,
) -> Result<Vec<Candidate>> {
    if !a.is_square() {
        return Err(BlockAmcError::ShapeMismatch {
            op: "split search",
            expected: a.rows(),
            got: a.cols(),
        });
    }
    if candidates.is_empty() {
        return Err(BlockAmcError::config("no candidate splits supplied"));
    }
    let mut scores = Vec::with_capacity(candidates.len());
    for &s in candidates {
        scores.push(score_split(a, s, opts)?);
    }
    scores.sort_by(|(x, _), (y, _)| {
        x.score
            .partial_cmp(&y.score)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(scores)
}

/// Runs [`best_split`] and hands over the winner's partition, Schur
/// complement and `A1` factor, which scoring already computed (used by
/// [`crate::multi_stage::SplitRule::Searched`]).
///
/// # Errors
///
/// Propagates [`best_split`] failures, and the winner's Schur complement
/// error (e.g. [`BlockAmcError::SingularLeadingBlock`]) when no
/// candidate has one.
pub(crate) fn best_partition(a: &Matrix, opts: &SplitSearchOptions) -> Result<SchurSplit> {
    match best_split(a, opts)? {
        (_, Some(parts)) => Ok(parts),
        (best, None) => {
            let p = BlockPartition::new(a, best.split)?;
            let (a4s, lu) = p.schur_complement_with_factor()?;
            Ok((p, a4s, lu))
        }
    }
}

/// Picks the best split among a default candidate set (quartile points
/// plus the midpoint).
///
/// # Errors
///
/// Propagates [`rank_splits`] failures; requires `n >= 4`.
pub(crate) fn best_split(a: &Matrix, opts: &SplitSearchOptions) -> Result<Candidate> {
    let n = a.rows();
    if n < 4 {
        return Err(BlockAmcError::config(format!(
            "split search requires n >= 4, got {n}"
        )));
    }
    let mut candidates: Vec<usize> = vec![n / 4, n / 2, (3 * n) / 4];
    candidates.retain(|&s| s > 0 && s < n);
    candidates.dedup();
    let ranked = rank_splits(a, &candidates, opts)?;
    Ok(ranked.into_iter().next().expect("candidates are non-empty"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_linalg::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn midpoint_wins_on_homogeneous_matrices() {
        // For a Wishart matrix all splits are statistically alike, so the
        // imbalance penalty should steer the choice to n/2.
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = generate::wishart_default(16, &mut rng).unwrap();
        let (best, _) = best_split(&a, &SplitSearchOptions::default()).unwrap();
        assert_eq!(best.split, 8);
    }

    #[test]
    fn search_avoids_splitting_through_an_ill_conditioned_block() {
        // Construct a block-diagonal matrix whose leading 4x4 is nearly
        // singular when truncated at split 2 but fine at split 4.
        let mut a = Matrix::identity(8);
        // Leading 4x4: well-conditioned as a whole, but its leading 2x2
        // principal submatrix is nearly singular.
        a[(0, 0)] = 1e-6;
        a[(0, 1)] = 0.0;
        a[(1, 0)] = 0.0;
        a[(1, 1)] = 1e-6;
        a[(2, 2)] = 1e-6;
        a[(3, 3)] = 1e-6;
        // split=2 -> A1 = diag(1e-6, 1e-6), fine alone… make it bad by
        // mixing scales inside A1 instead:
        a[(0, 0)] = 1.0;
        let opts = SplitSearchOptions {
            imbalance_weight: 0.0,
        };
        let (s2, _) = score_split(&a, 2, &opts).unwrap();
        let (s4, _) = score_split(&a, 4, &opts).unwrap();
        // split=2 puts {1, 1e-6} inside A1 (κ=1e6); split=4 groups the
        // small scales {1e-6 x3, 1} -> same κ for A1 but A4s is identity.
        assert!(s2.cond_a1 > 1e5);
        assert!(s4.cond_a4s < 10.0);
        let ranked = rank_splits(&a, &[2, 4, 6], &opts).unwrap();
        assert!(ranked[0].0.score <= ranked[1].0.score);
    }

    #[test]
    fn best_partition_hands_over_the_scored_schur_complement() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let wishart = generate::wishart_default(16, &mut rng).unwrap();
        // A tiny pivot at index 3 that only the Schur step repairs: every
        // A1 holding it is ill-conditioned, so the quartile split 2 wins.
        let mut skewed = Matrix::identity(8);
        skewed[(3, 3)] = 1e-6;
        skewed[(0, 3)] = 1.0;
        skewed[(3, 0)] = -1.0;
        let default = SplitSearchOptions::default();
        assert_eq!(best_split(&skewed, &default).unwrap().0.split, 2);
        let free = SplitSearchOptions {
            imbalance_weight: 0.0,
        };
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (a, opts) in [
            (&wishart, default),
            (&wishart, free),
            (&skewed, default),
            // Block diagonal: the zero-block shortcut factorises nothing.
            (&Matrix::identity(8), default),
        ] {
            let split = best_split(a, &opts).unwrap().0.split;
            let (p, a4s, lu) = best_partition(a, &opts).unwrap();
            let fresh = BlockPartition::new(a, split).unwrap();
            let (fresh_a4s, fresh_lu) = fresh.schur_complement_with_factor().unwrap();
            assert_eq!(p, fresh, "split {split}");
            assert_eq!(bits(&a4s), bits(&fresh_a4s), "split {split}");
            // Debug prints every stored f64 in round-trip form.
            assert_eq!(format!("{lu:?}"), format!("{fresh_lu:?}"), "split {split}");
        }
    }

    #[test]
    fn singular_a1_gets_infinite_score_not_error() {
        let mut a = Matrix::identity(6);
        a[(0, 0)] = 0.0; // split=1 -> A1 = [0], singular.
        let (s, _) = score_split(&a, 1, &SplitSearchOptions::default()).unwrap();
        assert_eq!(s.score, f64::INFINITY);
    }

    #[test]
    fn validation() {
        let a = Matrix::identity(8);
        assert!(rank_splits(&a, &[], &SplitSearchOptions::default()).is_err());
        assert!(rank_splits(&Matrix::zeros(2, 3), &[1], &SplitSearchOptions::default()).is_err());
        assert!(best_split(&Matrix::identity(2), &SplitSearchOptions::default()).is_err());
        // Out-of-range candidate propagates the partition error.
        assert!(rank_splits(&a, &[0], &SplitSearchOptions::default()).is_err());
        assert!(rank_splits(&a, &[8], &SplitSearchOptions::default()).is_err());
    }

    #[test]
    fn imbalance_penalty_is_monotone() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = generate::wishart_default(16, &mut rng).unwrap();
        let no_penalty = SplitSearchOptions {
            imbalance_weight: 0.0,
        };
        let with_penalty = SplitSearchOptions {
            imbalance_weight: 10.0,
        };
        let edge_free = score_split(&a, 2, &no_penalty).unwrap().0.score;
        let edge_pen = score_split(&a, 2, &with_penalty).unwrap().0.score;
        assert!(edge_pen > edge_free);
        // The midpoint is unaffected by the penalty.
        let mid_free = score_split(&a, 8, &no_penalty).unwrap().0.score;
        let mid_pen = score_split(&a, 8, &with_penalty).unwrap().0.score;
        assert!((mid_free - mid_pen).abs() < 1e-12);
    }

    #[test]
    fn chosen_split_actually_solves_well() {
        use crate::engine::NumericEngine;
        use crate::solver::{SolverConfig, SplitRule, Stages};
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = generate::wishart_default(12, &mut rng).unwrap();
        let b = generate::random_vector(12, &mut rng);
        // Stages::One under the searched rule splits at `best_split`.
        let mut solver = SolverConfig::builder()
            .stages(Stages::One)
            .split_rule(SplitRule::Searched(SplitSearchOptions::default()))
            .build(NumericEngine::new())
            .unwrap();
        let x = solver.solve(&a, &b).unwrap().x;
        let x_ref = amc_linalg::lu::solve(&a, &b).unwrap();
        assert!(amc_linalg::metrics::relative_error(&x_ref, &x) < 1e-8);
    }
}
