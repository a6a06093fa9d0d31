//! Latency model: how many sequential analog operations each solver
//! needs, and what that costs in wall-clock time.
//!
//! The original AMC solver settles in a single INV operation. BlockAMC
//! trades that for five cascaded operations on smaller arrays; the
//! two-stage solver nests the cascade. Smaller arrays settle faster
//! (lower row conductance, better-conditioned normalized blocks), so the
//! latency gap is smaller than the op-count ratio suggests — the repro
//! harness measures actual settle times through `amc-circuit`; this
//! module provides the op-count bookkeeping.

use crate::inventory::SolverKind;
use crate::{ArchError, Result};

/// Sequential analog operation counts of one solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpCounts {
    /// INV operations on the critical path.
    pub inv: usize,
    /// MVM operations on the critical path.
    pub mvm: usize,
}

/// Sequential operation counts of each architecture.
///
/// * Original: 1 INV.
/// * One-stage: 3 INV + 2 MVM (the five steps share one op-amp column, so
///   they serialize).
/// * Two-stage: each first-stage INV expands into a one-stage solve
///   (5 ops) and each first-stage MVM into tiled partial MVMs whose four
///   tiles run on four macros (counted as 1 sequential step):
///   3×5 + 2×1 = 17 sequential operations.
pub fn op_counts(kind: SolverKind) -> OpCounts {
    match kind {
        SolverKind::OriginalAmc => OpCounts { inv: 1, mvm: 0 },
        SolverKind::OneStage => OpCounts { inv: 3, mvm: 2 },
        SolverKind::TwoStage => OpCounts { inv: 9, mvm: 8 },
    }
}

/// Sequential operation counts of a depth-`d` BlockAMC cascade.
///
/// Each INV of a depth-`d−1` cascade expands into a full five-step
/// sub-cascade while each MVM stays one (tiled) sequential step, so the
/// recurrences `inv(d) = 3·inv(d−1)` and `mvm(d) = 3·mvm(d−1) + 2`
/// close to `inv(d) = 3^d`, `mvm(d) = 3^d − 1`. Depth 0 is the original
/// single-array solver (1 INV), depth 1 matches
/// [`SolverKind::OneStage`], depth 2 matches [`SolverKind::TwoStage`].
pub(crate) fn cascade_op_counts(depth: usize) -> OpCounts {
    let pow3 = 3usize.saturating_pow(depth as u32);
    OpCounts {
        inv: pow3,
        mvm: pow3 - 1,
    }
}

/// Latency of one solve through a depth-`depth` cascade, given the
/// per-operation settle times.
///
/// `inv_settle_s` / `mvm_settle_s` are the characteristic settle times of
/// one INV / MVM at the leaf array size (obtain them from
/// `amc_circuit::timing`); `conversion_s` is added once per digital
/// boundary crossing (DAC at the start, ADC at the end). The sequential
/// op counts are those of [`op_counts`], generalized to any depth (depth
/// 0 is the original single-array solver).
///
/// # Errors
///
/// Returns [`ArchError::InvalidConfig`] for negative or non-finite
/// times.
pub fn cascade_latency(
    depth: usize,
    inv_settle_s: f64,
    mvm_settle_s: f64,
    conversion_s: f64,
) -> Result<f64> {
    for t in [inv_settle_s, mvm_settle_s, conversion_s] {
        if !t.is_finite() || t < 0.0 {
            return Err(ArchError::config(
                "settle/conversion times must be finite and non-negative",
            ));
        }
    }
    let c = cascade_op_counts(depth);
    Ok(c.inv as f64 * inv_settle_s + c.mvm as f64 * mvm_settle_s + 2.0 * conversion_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(c: OpCounts) -> usize {
        c.inv + c.mvm
    }

    #[test]
    fn op_counts_match_algorithm() {
        assert_eq!(total(op_counts(SolverKind::OriginalAmc)), 1);
        assert_eq!(total(op_counts(SolverKind::OneStage)), 5);
        assert_eq!(op_counts(SolverKind::OneStage).inv, 3);
        assert_eq!(total(op_counts(SolverKind::TwoStage)), 17);
    }

    #[test]
    fn cascade_counts_extend_the_fixed_architectures() {
        assert_eq!(cascade_op_counts(0), op_counts(SolverKind::OriginalAmc));
        assert_eq!(cascade_op_counts(1), op_counts(SolverKind::OneStage));
        assert_eq!(cascade_op_counts(2), op_counts(SolverKind::TwoStage));
        // Depth 3: 27 INV + 26 MVM = 53 sequential ops.
        assert_eq!(total(cascade_op_counts(3)), 53);
        // Recurrence: total(d) = 3·total(d−1) + 2.
        for d in 1..6 {
            assert_eq!(
                total(cascade_op_counts(d)),
                3 * total(cascade_op_counts(d - 1)) + 2
            );
        }
    }

    #[test]
    fn cascade_latency_matches_fixed_latency_at_shared_depths() {
        for (d, kind) in [
            (0, SolverKind::OriginalAmc),
            (1, SolverKind::OneStage),
            (2, SolverKind::TwoStage),
        ] {
            let a = cascade_latency(d, 2e-6, 1e-6, 0.5e-6).unwrap();
            let c = op_counts(kind);
            let b = c.inv as f64 * 2e-6 + c.mvm as f64 * 1e-6 + 2.0 * 0.5e-6;
            assert!((a - b).abs() < 1e-18, "depth {d}");
        }
        assert!(cascade_latency(3, -1.0, 0.0, 0.0).is_err());
        assert!(cascade_latency(3, 0.0, f64::INFINITY, 0.0).is_err());
    }

    #[test]
    fn latency_combines_counts_and_times() {
        // One-stage: 3 INV × 2 µs + 2 MVM × 1 µs + 2 conversions × 0.5 µs.
        let t = cascade_latency(1, 2e-6, 1e-6, 0.5e-6).unwrap();
        assert!((t - 9e-6).abs() < 1e-18);
    }

    #[test]
    fn original_is_lowest_latency_at_equal_settle_times() {
        let orig = cascade_latency(0, 1e-6, 1e-6, 0.0).unwrap();
        let one = cascade_latency(1, 1e-6, 1e-6, 0.0).unwrap();
        assert!(orig < one);
    }

    #[test]
    fn faster_small_arrays_can_beat_the_op_count() {
        // If half-size arrays settle 6x faster (smaller λ_min penalty),
        // one-stage latency beats the original.
        let orig = cascade_latency(0, 6e-6, 6e-6, 0.0).unwrap();
        let one = cascade_latency(1, 1e-6, 0.5e-6, 0.0).unwrap();
        assert!(one < orig);
    }

    #[test]
    fn invalid_times_rejected() {
        assert!(cascade_latency(1, -1.0, 0.0, 0.0).is_err());
        assert!(cascade_latency(1, f64::NAN, 0.0, 0.0).is_err());
    }
}
