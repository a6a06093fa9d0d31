//! Power model (Fig. 10(b)).

use crate::inventory::{component_counts, SolverKind};
use crate::params::ComponentParams;
use crate::Result;

/// Power breakdown of one solver, in watts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBreakdown {
    /// The architecture.
    pub kind: SolverKind,
    /// Problem size.
    pub n: usize,
    /// Op-amp power (`N·V_s·I_q`, eq. 7), W.
    pub opa: f64,
    /// DAC power, W.
    pub dac: f64,
    /// ADC power, W.
    pub adc: f64,
    /// RRAM array power, W.
    pub rram: f64,
}

impl PowerBreakdown {
    /// Total power, W.
    pub(crate) fn total(&self) -> f64 {
        self.opa + self.dac + self.adc + self.rram
    }
}

/// Computes the power breakdown of `kind` for an `n × n` problem.
///
/// # Errors
///
/// Propagates parameter-validation and inventory errors.
pub(crate) fn power_breakdown(
    kind: SolverKind,
    n: usize,
    params: &ComponentParams,
) -> Result<PowerBreakdown> {
    params.validate()?;
    let c = component_counts(kind, n)?;
    Ok(PowerBreakdown {
        kind,
        n,
        opa: c.opa as f64 * params.power_opa_w,
        dac: c.dac as f64 * params.power_dac_w,
        adc: c.adc as f64 * params.power_adc_w,
        rram: c.rram_cells as f64 * params.power_cell_w,
    })
}

/// Relative saving of `candidate` versus `baseline` (positive = lower).
pub(crate) fn power_saving(baseline: &PowerBreakdown, candidate: &PowerBreakdown) -> f64 {
    1.0 - candidate.total() / baseline.total()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at_512(kind: SolverKind) -> PowerBreakdown {
        power_breakdown(kind, 512, &ComponentParams::calibrated_45nm()).unwrap()
    }

    #[test]
    fn savings_match_paper_fig10b() {
        // Paper: one-stage −40%, two-stage −37.4% vs original.
        let orig = at_512(SolverKind::OriginalAmc);
        let one = at_512(SolverKind::OneStage);
        let two = at_512(SolverKind::TwoStage);
        let s1 = power_saving(&orig, &one);
        let s2 = power_saving(&orig, &two);
        assert!((s1 - 0.40).abs() < 0.005, "one-stage saving {s1}");
        assert!((s2 - 0.374).abs() < 0.005, "two-stage saving {s2}");
    }

    #[test]
    fn original_total_is_fig10_scale() {
        // The Fig. 10(b) axis tops out around 140 mW; the calibrated
        // original solver draws 128 mW.
        let orig = at_512(SolverKind::OriginalAmc);
        assert!(
            (orig.total() - 0.128).abs() < 0.002,
            "total {}",
            orig.total()
        );
    }

    #[test]
    fn adc_dominates_periphery_power() {
        // RePAST-class interfaces: ADC is the most power-hungry channel.
        let orig = at_512(SolverKind::OriginalAmc);
        assert!(orig.adc > orig.dac);
        assert!(orig.adc > orig.opa);
    }

    #[test]
    fn rram_power_equal_across_solvers() {
        let orig = at_512(SolverKind::OriginalAmc);
        let two = at_512(SolverKind::TwoStage);
        assert!((orig.rram - two.rram).abs() < 1e-12);
    }

    #[test]
    fn two_stage_sits_between_original_and_one_stage() {
        let orig = at_512(SolverKind::OriginalAmc).total();
        let one = at_512(SolverKind::OneStage).total();
        let two = at_512(SolverKind::TwoStage).total();
        assert!(one < two && two < orig);
    }
}
