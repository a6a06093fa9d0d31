//! The 45 nm component library.
//!
//! The paper estimates area and power from four component classes — OPA,
//! DAC, ADC, and RRAM array — with "parameters for estimating the area and
//! power of ADCs and DACs refer\[ring\] to previous works (RePAST)" and OPA
//! power from `P_OPA = N·V_s·I_q` (eq. 7). The paper does not tabulate the
//! unit values, so this reproduction *calibrates* them against the
//! published totals; the fit is documented per field below and verified by
//! unit tests.

/// Per-unit area and power of the four component classes.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ComponentParams {
    /// Area of one operational amplifier, mm².
    pub area_opa_mm2: f64,
    /// Area of one DAC channel, mm².
    pub area_dac_mm2: f64,
    /// Area of one ADC channel, mm².
    pub area_adc_mm2: f64,
    /// Area of one RRAM cell (1T1R), mm².
    pub area_cell_mm2: f64,
    /// Static power of one op-amp (`V_s·I_q`), W.
    pub power_opa_w: f64,
    /// Power of one DAC channel, W.
    pub power_dac_w: f64,
    /// Power of one ADC channel, W.
    pub power_adc_w: f64,
    /// Average signal-dependent power per RRAM cell, W.
    pub power_cell_w: f64,
}

impl ComponentParams {
    /// Unit parameters calibrated to reproduce the paper's Fig. 10 totals
    /// at `n = 512`.
    ///
    /// Derivation (all at n = 512, using the inventories in
    /// [`crate::inventory`]):
    ///
    /// * Area. Original total 0.01577 mm² and one-stage total
    ///   0.00807 mm² differ only by halving the periphery counts, so
    ///   periphery area is `2·(0.01577 − 0.00807) = 0.01541 mm²` (512
    ///   channels → 30.1 µm²/channel) and the RRAM array is the remaining
    ///   0.00037 mm² (512² cells → 1.41e-9 mm²/cell). The two-stage total
    ///   0.01383 mm² then splits the periphery into OPA (count n) vs
    ///   DAC+ADC (count n/2): `256·a_opa = 0.01383 − 0.00807` →
    ///   `a_opa = 22.5 µm²`, leaving 7.6 µm² for DAC+ADC, split 2.6/5.0
    ///   (ADC ≈ 2× DAC, consistent with RePAST-class interfaces).
    /// * Power. OPA power is `V_s·I_q = 1.3 V × 10 µA = 13 µW` (eq. 7
    ///   with the 45 nm op-amp of `amc-circuit`). Solving the same three
    ///   totals with savings 40% (one-stage) and 37.4% (two-stage) yields
    ///   a 128 mW original solver: DAC 62 µW, ADC 125 µW, and an RRAM
    ///   array draw of 25.6 mW (512² cells → 97.7 nW/cell).
    pub fn calibrated_45nm() -> Self {
        ComponentParams {
            area_opa_mm2: 2.25e-5,
            area_dac_mm2: 2.6e-6,
            area_adc_mm2: 5.0e-6,
            area_cell_mm2: 1.41e-9,
            power_opa_w: 1.3e-5,
            power_dac_w: 6.2e-5,
            power_adc_w: 1.25e-4,
            power_cell_w: 9.7656e-8,
        }
    }

    /// Validates that all parameters are positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ArchError::InvalidConfig`] otherwise.
    pub(crate) fn validate(&self) -> crate::Result<()> {
        let vals = [
            self.area_opa_mm2,
            self.area_dac_mm2,
            self.area_adc_mm2,
            self.area_cell_mm2,
            self.power_opa_w,
            self.power_dac_w,
            self.power_adc_w,
            self.power_cell_w,
        ];
        if vals.iter().all(|v| v.is_finite() && *v > 0.0) {
            Ok(())
        } else {
            Err(crate::ArchError::config(
                "component parameters must be positive and finite",
            ))
        }
    }
}

impl Default for ComponentParams {
    fn default() -> Self {
        Self::calibrated_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_values_are_valid() {
        assert!(ComponentParams::calibrated_45nm().validate().is_ok());
        assert_eq!(
            ComponentParams::default(),
            ComponentParams::calibrated_45nm()
        );
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = ComponentParams::calibrated_45nm();
        p.area_opa_mm2 = 0.0;
        assert!(p.validate().is_err());
        let mut p = ComponentParams::calibrated_45nm();
        p.power_cell_w = f64::NAN;
        assert!(p.validate().is_err());
    }

    #[test]
    fn opa_power_matches_eq7() {
        // V_s·I_q = 1.3 V × 10 µA.
        let p = ComponentParams::calibrated_45nm();
        assert!((p.power_opa_w - 1.3 * 1e-5).abs() < 1e-12);
    }
}
