//! Component inventories of the three solver architectures.

use crate::{ArchError, Result};

/// Which solver architecture to count components for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// A single full-size INV circuit (`n × n` array, `n` op-amps,
    /// `n` DAC and `n` ADC channels).
    OriginalAmc,
    /// The one-stage BlockAMC macro: four `(n/2)²` arrays sharing one
    /// column of `n/2` op-amps and `n/2`-channel converters.
    OneStage,
    /// The two-stage solver: sixteen `(n/4)²` arrays in four one-stage
    /// macros. Per the paper, "OPAs are separately deployed for the
    /// first-stage INV and MVM, resulting in the same count of OPAs [as
    /// the original] and thus a rise of area and power" — so the OPA
    /// count stays `n` while the converter interfaces remain at the
    /// first-stage width `n/2`.
    TwoStage,
}

impl SolverKind {
    /// All architectures, in the paper's comparison order.
    pub(crate) const ALL: [SolverKind; 3] = [
        SolverKind::OriginalAmc,
        SolverKind::OneStage,
        SolverKind::TwoStage,
    ];

    /// Display label used in reports.
    pub(crate) fn label(&self) -> &'static str {
        match self {
            SolverKind::OriginalAmc => "Original AMC",
            SolverKind::OneStage => "One-stage BlockAMC",
            SolverKind::TwoStage => "Two-stage BlockAMC",
        }
    }
}

/// Component counts of one solver deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComponentCounts {
    /// Operational amplifiers.
    pub opa: usize,
    /// DAC channels.
    pub dac: usize,
    /// ADC channels.
    pub adc: usize,
    /// RRAM cells (sum over all arrays).
    pub rram_cells: usize,
    /// Number of crossbar arrays.
    pub arrays: usize,
}

/// Counts the components a solver of kind `kind` needs for an `n × n`
/// problem.
///
/// Note: all three architectures store `n²` cells in total — BlockAMC
/// saves *periphery*, not memory (the paper's Fig. 10 shows the RRAM bar
/// nearly equal across solvers).
///
/// # Errors
///
/// Returns [`ArchError::InvalidConfig`] if `n < 4` (the two-stage solver
/// needs quarter-size blocks) — use larger problems for architecture
/// comparisons.
pub fn component_counts(kind: SolverKind, n: usize) -> Result<ComponentCounts> {
    if n < 4 {
        return Err(ArchError::config(format!(
            "architecture comparison requires n >= 4, got {n}"
        )));
    }
    let half = n.div_ceil(2);
    let quarter = n.div_ceil(4);
    Ok(match kind {
        SolverKind::OriginalAmc => ComponentCounts {
            opa: n,
            dac: n,
            adc: n,
            rram_cells: n * n,
            arrays: 1,
        },
        SolverKind::OneStage => ComponentCounts {
            opa: half,
            dac: half,
            adc: half,
            rram_cells: 4 * half * half,
            arrays: 4,
        },
        SolverKind::TwoStage => ComponentCounts {
            opa: 2 * half,
            dac: half,
            adc: half,
            rram_cells: 16 * quarter * quarter,
            arrays: 16,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_at_512_match_paper_architecture() {
        let orig = component_counts(SolverKind::OriginalAmc, 512).unwrap();
        assert_eq!(orig.opa, 512);
        assert_eq!(orig.dac, 512);
        assert_eq!(orig.adc, 512);
        assert_eq!(orig.rram_cells, 512 * 512);
        assert_eq!(orig.arrays, 1);

        let one = component_counts(SolverKind::OneStage, 512).unwrap();
        assert_eq!(one.opa, 256, "shared OPA column halves the count");
        assert_eq!(one.arrays, 4);
        assert_eq!(one.rram_cells, 512 * 512, "same total storage");

        let two = component_counts(SolverKind::TwoStage, 512).unwrap();
        assert_eq!(two.opa, 512, "separate INV/MVM deployment");
        assert_eq!(two.dac, 256);
        assert_eq!(two.arrays, 16);
        assert_eq!(two.rram_cells, 512 * 512);
    }

    #[test]
    fn odd_sizes_round_up() {
        let one = component_counts(SolverKind::OneStage, 9).unwrap();
        assert_eq!(one.opa, 5);
        assert_eq!(one.rram_cells, 4 * 25);
        let two = component_counts(SolverKind::TwoStage, 9).unwrap();
        assert_eq!(two.rram_cells, 16 * 9);
    }

    #[test]
    fn small_sizes_rejected() {
        assert!(component_counts(SolverKind::TwoStage, 2).is_err());
    }

    #[test]
    fn labels_and_all() {
        assert_eq!(SolverKind::ALL.len(), 3);
        assert_eq!(SolverKind::OriginalAmc.label(), "Original AMC");
        assert_eq!(SolverKind::OneStage.label(), "One-stage BlockAMC");
        assert_eq!(SolverKind::TwoStage.label(), "Two-stage BlockAMC");
    }
}
