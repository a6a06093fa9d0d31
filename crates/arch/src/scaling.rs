//! Architecture scaling: how area/power evolve with problem size, and
//! when each solver becomes infeasible on real arrays.
//!
//! The paper's core motivation is that a single array cannot exceed the
//! manufacturable size ("generally below 256×256, in the consideration of
//! multi-bit storage capability"). This module turns that constraint into
//! a feasibility table: for each problem size, which architectures fit
//! within a given maximum array dimension, and what they cost.

use crate::area::area_breakdown;
use crate::inventory::SolverKind;
use crate::params::ComponentParams;
use crate::power::power_breakdown;
use crate::{ArchError, Result};

/// The manufacturable-array ceiling the paper cites (cells per side).
pub(crate) const PAPER_MAX_ARRAY_SIDE: usize = 256;

/// Largest single-array side each architecture needs for an `n × n`
/// problem.
pub(crate) fn required_array_side(kind: SolverKind, n: usize) -> usize {
    match kind {
        SolverKind::OriginalAmc => n,
        SolverKind::OneStage => n.div_ceil(2),
        SolverKind::TwoStage => n.div_ceil(4),
    }
}

/// Returns `true` if the architecture fits within arrays of
/// `max_side × max_side` cells.
pub(crate) fn is_feasible(kind: SolverKind, n: usize, max_side: usize) -> bool {
    required_array_side(kind, n) <= max_side
}

/// One row of the scaling table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Problem size.
    pub n: usize,
    /// Architecture.
    pub kind: SolverKind,
    /// Required array side.
    pub array_side: usize,
    /// Feasible within `PAPER_MAX_ARRAY_SIDE`?
    pub feasible: bool,
    /// Total area, mm².
    pub area_mm2: f64,
    /// Total power, W.
    pub power_w: f64,
}

/// Computes the scaling table over the given sizes for all three
/// architectures.
///
/// # Errors
///
/// Propagates model errors; requires every size ≥ 4.
pub fn scaling_table(sizes: &[usize], params: &ComponentParams) -> Result<Vec<ScalingPoint>> {
    if sizes.is_empty() {
        return Err(ArchError::config("no sizes supplied"));
    }
    let mut out = Vec::with_capacity(sizes.len() * 3);
    for &n in sizes {
        for kind in SolverKind::ALL {
            let area = area_breakdown(kind, n, params)?;
            let power = power_breakdown(kind, n, params)?;
            out.push(ScalingPoint {
                n,
                kind,
                array_side: required_array_side(kind, n),
                feasible: is_feasible(kind, n, PAPER_MAX_ARRAY_SIDE),
                area_mm2: area.total(),
                power_w: power.total(),
            });
        }
    }
    Ok(out)
}

/// Renders the scaling table as text.
pub fn render_scaling_table(points: &[ScalingPoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:>6} {:<22} {:>10} {:>9} {:>12} {:>11}\n",
        "n", "solver", "array", "feasible", "area (mm^2)", "power (mW)"
    ));
    for p in points {
        out.push_str(&format!(
            "{:>6} {:<22} {:>7}x{:<3} {:>8} {:>12.5} {:>11.2}\n",
            p.n,
            p.kind.label(),
            p.array_side,
            p.array_side,
            if p.feasible { "yes" } else { "NO" },
            p.area_mm2,
            p.power_w * 1e3
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_requirements_halve_per_stage() {
        assert_eq!(required_array_side(SolverKind::OriginalAmc, 512), 512);
        assert_eq!(required_array_side(SolverKind::OneStage, 512), 256);
        assert_eq!(required_array_side(SolverKind::TwoStage, 512), 128);
        // Odd sizes round up.
        assert_eq!(required_array_side(SolverKind::OneStage, 9), 5);
    }

    #[test]
    fn feasibility_matches_the_papers_motivation() {
        // At n = 512 the original AMC needs a 512-cell array — beyond the
        // manufacturable ceiling; one-stage BlockAMC just fits; two-stage
        // fits comfortably. This is the paper's entire premise.
        assert!(!is_feasible(
            SolverKind::OriginalAmc,
            512,
            PAPER_MAX_ARRAY_SIDE
        ));
        assert!(is_feasible(SolverKind::OneStage, 512, PAPER_MAX_ARRAY_SIDE));
        assert!(is_feasible(SolverKind::TwoStage, 512, PAPER_MAX_ARRAY_SIDE));
        // And at n = 1024 only the two-stage solver survives.
        assert!(!is_feasible(
            SolverKind::OneStage,
            1024,
            PAPER_MAX_ARRAY_SIDE
        ));
        assert!(is_feasible(
            SolverKind::TwoStage,
            1024,
            PAPER_MAX_ARRAY_SIDE
        ));
    }

    #[test]
    fn table_covers_all_architectures() {
        let t = scaling_table(&[64, 512], &ComponentParams::calibrated_45nm()).unwrap();
        assert_eq!(t.len(), 6);
        assert!(t.iter().all(|p| p.area_mm2 > 0.0 && p.power_w > 0.0));
        assert!(scaling_table(&[], &ComponentParams::calibrated_45nm()).is_err());
    }

    #[test]
    fn render_marks_infeasible_rows() {
        let t = scaling_table(&[512], &ComponentParams::calibrated_45nm()).unwrap();
        let text = render_scaling_table(&t);
        assert!(text.contains("NO"));
        assert!(text.contains("yes"));
        assert!(text.contains("Original AMC"));
    }

    #[test]
    fn area_grows_monotonically_with_n() {
        let p = ComponentParams::calibrated_45nm();
        let t = scaling_table(&[64, 128, 256, 512], &p).unwrap();
        let one_stage: Vec<f64> = t
            .iter()
            .filter(|x| x.kind == SolverKind::OneStage)
            .map(|x| x.area_mm2)
            .collect();
        for w in one_stage.windows(2) {
            assert!(w[1] > w[0]);
        }
    }
}
