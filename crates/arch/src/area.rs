//! Chip-area model (Fig. 10(a)).

use crate::inventory::{component_counts, SolverKind};
use crate::params::ComponentParams;
use crate::Result;

/// Area breakdown of one solver, in mm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaBreakdown {
    /// The architecture.
    pub kind: SolverKind,
    /// Problem size.
    pub n: usize,
    /// Op-amp area, mm².
    pub opa: f64,
    /// DAC area, mm².
    pub dac: f64,
    /// ADC area, mm².
    pub adc: f64,
    /// RRAM array area, mm².
    pub rram: f64,
}

impl AreaBreakdown {
    /// Total area, mm².
    pub(crate) fn total(&self) -> f64 {
        self.opa + self.dac + self.adc + self.rram
    }
}

/// Computes the area breakdown of `kind` for an `n × n` problem.
///
/// # Errors
///
/// Propagates parameter-validation and inventory errors.
pub(crate) fn area_breakdown(
    kind: SolverKind,
    n: usize,
    params: &ComponentParams,
) -> Result<AreaBreakdown> {
    params.validate()?;
    let c = component_counts(kind, n)?;
    Ok(AreaBreakdown {
        kind,
        n,
        opa: c.opa as f64 * params.area_opa_mm2,
        dac: c.dac as f64 * params.area_dac_mm2,
        adc: c.adc as f64 * params.area_adc_mm2,
        rram: c.rram_cells as f64 * params.area_cell_mm2,
    })
}

/// Relative saving of `candidate` versus `baseline` (positive = smaller).
pub(crate) fn area_saving(baseline: &AreaBreakdown, candidate: &AreaBreakdown) -> f64 {
    1.0 - candidate.total() / baseline.total()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_512(kind: SolverKind) -> AreaBreakdown {
        area_breakdown(kind, 512, &ComponentParams::calibrated_45nm()).unwrap()
    }

    #[test]
    fn totals_match_paper_fig10a() {
        // Paper: 0.01577 / 0.00807 / 0.01383 mm².
        let orig = at_512(SolverKind::OriginalAmc);
        let one = at_512(SolverKind::OneStage);
        let two = at_512(SolverKind::TwoStage);
        assert!(
            (orig.total() - 0.01577).abs() / 0.01577 < 0.01,
            "orig {}",
            orig.total()
        );
        assert!(
            (one.total() - 0.00807).abs() / 0.00807 < 0.01,
            "one {}",
            one.total()
        );
        assert!(
            (two.total() - 0.01383).abs() / 0.01383 < 0.01,
            "two {}",
            two.total()
        );
    }

    #[test]
    fn savings_match_abstract() {
        // Abstract: one-stage saves 48.83%; §IV.B: two-stage saves 12.3%.
        let orig = at_512(SolverKind::OriginalAmc);
        let one = at_512(SolverKind::OneStage);
        let two = at_512(SolverKind::TwoStage);
        let s1 = area_saving(&orig, &one);
        let s2 = area_saving(&orig, &two);
        assert!((s1 - 0.4883).abs() < 0.005, "one-stage saving {s1}");
        assert!((s2 - 0.123).abs() < 0.005, "two-stage saving {s2}");
    }

    #[test]
    fn rram_area_is_equal_across_solvers() {
        let orig = at_512(SolverKind::OriginalAmc);
        let one = at_512(SolverKind::OneStage);
        assert!((orig.rram - one.rram).abs() < 1e-12);
    }

    #[test]
    fn periphery_dominates_area() {
        let orig = at_512(SolverKind::OriginalAmc);
        assert!(orig.opa + orig.dac + orig.adc > 10.0 * orig.rram);
    }

    #[test]
    fn scales_with_n() {
        let p = ComponentParams::calibrated_45nm();
        let small = area_breakdown(SolverKind::OneStage, 64, &p).unwrap();
        let large = area_breakdown(SolverKind::OneStage, 128, &p).unwrap();
        assert!(large.total() > small.total());
    }
}
