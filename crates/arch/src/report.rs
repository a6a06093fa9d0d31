//! Formatted reproduction of Fig. 10 and the abstract's headline numbers.

use crate::area::{area_breakdown, area_saving, AreaBreakdown};
use crate::inventory::SolverKind;
use crate::params::ComponentParams;
use crate::power::{power_breakdown, power_saving, PowerBreakdown};
use crate::Result;

/// The complete Fig. 10 dataset at one problem size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig10Report {
    /// Problem size (the paper uses 512).
    pub n: usize,
    /// Area breakdowns in the paper's order (original, one-stage,
    /// two-stage).
    pub area: Vec<AreaBreakdown>,
    /// Power breakdowns in the same order.
    pub power: Vec<PowerBreakdown>,
}

impl Fig10Report {
    /// Computes the report.
    ///
    /// # Errors
    ///
    /// Propagates model errors.
    pub fn compute(n: usize, params: &ComponentParams) -> Result<Self> {
        let mut area = Vec::new();
        let mut power = Vec::new();
        for kind in SolverKind::ALL {
            area.push(area_breakdown(kind, n, params)?);
            power.push(power_breakdown(kind, n, params)?);
        }
        Ok(Fig10Report { n, area, power })
    }

    /// One-stage area saving vs original (the abstract's 48.83%).
    pub(crate) fn one_stage_area_saving(&self) -> f64 {
        area_saving(&self.area[0], &self.area[1])
    }

    /// Two-stage area saving vs original (12.3% in §IV.B).
    pub(crate) fn two_stage_area_saving(&self) -> f64 {
        area_saving(&self.area[0], &self.area[2])
    }

    /// One-stage power saving vs original (40%).
    pub(crate) fn one_stage_power_saving(&self) -> f64 {
        power_saving(&self.power[0], &self.power[1])
    }

    /// Two-stage power saving vs original (37.4%).
    pub(crate) fn two_stage_power_saving(&self) -> f64 {
        power_saving(&self.power[0], &self.power[2])
    }

    /// Renders the two breakdown tables as text (the harness prints this
    /// as the Fig. 10 reproduction).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Fig. 10(a) — circuit area breakdown, n = {} (mm^2)\n",
            self.n
        ));
        out.push_str(&format!(
            "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "solver", "OPA", "DAC", "ADC", "RRAM", "total"
        ));
        for a in &self.area {
            out.push_str(&format!(
                "{:<22} {:>10.5} {:>10.5} {:>10.5} {:>10.5} {:>10.5}\n",
                a.kind.label(),
                a.opa,
                a.dac,
                a.adc,
                a.rram,
                a.total()
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "Fig. 10(b) — power breakdown, n = {} (mW)\n",
            self.n
        ));
        out.push_str(&format!(
            "{:<22} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "solver", "OPA", "DAC", "ADC", "RRAM", "total"
        ));
        for p in &self.power {
            out.push_str(&format!(
                "{:<22} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>10.3}\n",
                p.kind.label(),
                p.opa * 1e3,
                p.dac * 1e3,
                p.adc * 1e3,
                p.rram * 1e3,
                p.total() * 1e3
            ));
        }
        out.push('\n');
        out.push_str(&format!(
            "savings vs original: one-stage area {:.2}% (paper 48.3%), \
             two-stage area {:.2}% (paper 12.3%), one-stage power {:.2}% \
             (paper 40%), two-stage power {:.2}% (paper 37.4%)\n",
            100.0 * self.one_stage_area_saving(),
            100.0 * self.two_stage_area_saving(),
            100.0 * self.one_stage_power_saving(),
            100.0 * self.two_stage_power_saving(),
        ));
        out
    }
}

/// The abstract's headline sentence, computed from the model.
///
/// # Errors
///
/// Propagates model errors.
pub fn headline(params: &ComponentParams) -> Result<String> {
    let r = Fig10Report::compute(512, params)?;
    Ok(format!(
        "Compared to a single AMC circuit solving the same 512x512 problem, \
         one-stage BlockAMC improves area efficiency by {:.2}% (paper: 48.83%) \
         and power by {:.2}% (paper: 40%).",
        100.0 * r.one_stage_area_saving(),
        100.0 * r.one_stage_power_saving()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_reproduces_paper_percentages() {
        let r = Fig10Report::compute(512, &ComponentParams::calibrated_45nm()).unwrap();
        assert!((r.one_stage_area_saving() - 0.4883).abs() < 0.005);
        assert!((r.two_stage_area_saving() - 0.123).abs() < 0.005);
        assert!((r.one_stage_power_saving() - 0.40).abs() < 0.005);
        assert!((r.two_stage_power_saving() - 0.374).abs() < 0.005);
    }

    #[test]
    fn render_contains_all_rows() {
        let r = Fig10Report::compute(512, &ComponentParams::calibrated_45nm()).unwrap();
        let text = r.render();
        assert!(text.contains("Original AMC"));
        assert!(text.contains("One-stage BlockAMC"));
        assert!(text.contains("Two-stage BlockAMC"));
        assert!(text.contains("Fig. 10(a)"));
        assert!(text.contains("Fig. 10(b)"));
        assert!(text.contains("savings vs original"));
    }

    #[test]
    fn headline_mentions_both_savings() {
        let h = headline(&ComponentParams::calibrated_45nm()).unwrap();
        assert!(h.contains("48.83%"));
        assert!(h.contains('%'));
    }
}
