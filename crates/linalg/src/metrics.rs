//! Accuracy metrics, including the paper's relative-error definition.

use crate::vector;

/// The paper's relative error (eq. 6):
///
/// ```text
/// ε_r = | Σ_i sqrt((x_i − x̂_i)²) / Σ_i sqrt(x_i²) |
/// ```
///
/// Since `sqrt(v²) = |v|`, this is the ratio of the 1-norm of the error to
/// the 1-norm of the ideal solution. `x_ideal` is the numerical-solver
/// reference `x_i`; `x_actual` is the analog result `x̂_i`.
///
/// Returns `0.0` when both vectors are empty and `f64::INFINITY` when the
/// reference is all-zero but the actual is not (relative error is undefined
/// there; infinity preserves "worse is bigger" ordering).
///
/// # Panics
///
/// Panics if the two slices have different lengths.
///
/// # Example
///
/// ```
/// use amc_linalg::metrics::relative_error;
///
/// let ideal = [1.0, -1.0];
/// let off_by_ten_percent = [1.1, -0.9];
/// let err = relative_error(&ideal, &off_by_ten_percent);
/// assert!((err - 0.1).abs() < 1e-12);
/// ```
pub fn relative_error(x_ideal: &[f64], x_actual: &[f64]) -> f64 {
    assert_eq!(
        x_ideal.len(),
        x_actual.len(),
        "relative_error: length mismatch"
    );
    if x_ideal.is_empty() {
        return 0.0;
    }
    let err: f64 = x_ideal
        .iter()
        .zip(x_actual)
        .map(|(&a, &b)| (a - b).abs())
        .sum();
    let denom: f64 = x_ideal.iter().map(|v| v.abs()).sum();
    if denom == 0.0 {
        if err == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        err / denom
    }
}

/// Relative error in the Euclidean norm, `‖x − x̂‖₂ / ‖x‖₂`.
///
/// # Panics
///
/// Panics if the two slices have different lengths.
pub fn relative_error_l2(x_ideal: &[f64], x_actual: &[f64]) -> f64 {
    assert_eq!(
        x_ideal.len(),
        x_actual.len(),
        "relative_error_l2: length mismatch"
    );
    if x_ideal.is_empty() {
        return 0.0;
    }
    let diff = vector::sub(x_ideal, x_actual);
    let denom = vector::norm2(x_ideal);
    if denom == 0.0 {
        if vector::norm2(&diff) == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        vector::norm2(&diff) / denom
    }
}

/// Summary statistics over a set of trial errors (used by the Monte-Carlo
/// sweeps: the paper plots the mean of 40 random trials per size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStats {
    /// Number of samples aggregated.
    pub count: usize,
    /// Mean error.
    pub mean: f64,
    /// Median error — the robust statistic to read when a family (like
    /// random Toeplitz) occasionally produces catastrophically conditioned
    /// draws that dominate the mean.
    pub median: f64,
    /// Sample standard deviation (0 for fewer than 2 samples).
    pub std_dev: f64,
    /// Minimum error.
    pub min: f64,
    /// Maximum error.
    pub max: f64,
}

impl ErrorStats {
    /// Aggregates a slice of error samples.
    ///
    /// Returns a zeroed struct for an empty slice.
    pub fn from_samples(samples: &[f64]) -> Self {
        if samples.is_empty() {
            return ErrorStats {
                count: 0,
                mean: 0.0,
                median: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let count = samples.len();
        let mean = samples.iter().sum::<f64>() / count as f64;
        let var = if count > 1 {
            samples.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (count - 1) as f64
        } else {
            0.0
        };
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = if count % 2 == 1 {
            sorted[count / 2]
        } else {
            (sorted[count / 2 - 1] + sorted[count / 2]) / 2.0
        };
        ErrorStats {
            count,
            mean,
            median,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_relative_error_is_l1_ratio() {
        let ideal = [2.0, -2.0];
        let actual = [2.5, -1.5];
        // |0.5| + |0.5| over |2| + |2| = 0.25
        assert!((relative_error(&ideal, &actual) - 0.25).abs() < 1e-15);
    }

    #[test]
    fn zero_cases() {
        assert_eq!(relative_error(&[], &[]), 0.0);
        assert_eq!(relative_error(&[0.0], &[0.0]), 0.0);
        assert_eq!(relative_error(&[0.0], &[1.0]), f64::INFINITY);
        assert_eq!(relative_error_l2(&[0.0], &[0.0]), 0.0);
        assert_eq!(relative_error_l2(&[0.0], &[1.0]), f64::INFINITY);
    }

    #[test]
    fn identical_vectors_have_zero_error() {
        let v = [1.0, 2.0, -3.0];
        assert_eq!(relative_error(&v, &v), 0.0);
        assert_eq!(relative_error_l2(&v, &v), 0.0);
    }

    #[test]
    fn l2_error_matches_hand_computation() {
        let ideal = [3.0, 4.0]; // norm 5
        let actual = [3.0, 3.0]; // diff norm 1
        assert!((relative_error_l2(&ideal, &actual) - 0.2).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = relative_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn stats_aggregate() {
        let s = ErrorStats::from_samples(&[1.0, 2.0, 3.0]);
        assert_eq!(s.count, 3);
        assert!((s.mean - 2.0).abs() < 1e-15);
        assert_eq!(s.median, 2.0);
        assert!((s.std_dev - 1.0).abs() < 1e-15);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);

        // Even count: median averages the middle pair; an outlier skews
        // the mean but not the median.
        let s = ErrorStats::from_samples(&[0.1, 0.2, 0.3, 100.0]);
        assert!((s.median - 0.25).abs() < 1e-15);
        assert!(s.mean > 20.0);

        let empty = ErrorStats::from_samples(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.mean, 0.0);

        let single = ErrorStats::from_samples(&[0.5]);
        assert_eq!(single.std_dev, 0.0);
        assert_eq!(single.min, 0.5);
    }
}
