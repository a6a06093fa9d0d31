//! Operational amplifier models.
//!
//! The MVM and INV circuits are built from the same op-amps (paper §II);
//! only the feedback topology differs. The accuracy-relevant parameter at
//! DC is the finite open-loop gain `a₀` (an ideal op-amp has `a₀ = ∞`);
//! the timing-relevant parameter is the gain-bandwidth product; the
//! power-relevant parameters are the supply voltage and quiescent current
//! (paper eq. 7: `P_OPA = N·V_s·I_q`).

use crate::{CircuitError, Result};

/// DC gain model of an op-amp.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
#[derive(Default)]
pub enum GainModel {
    /// Infinite open-loop gain: the inverting input is a perfect virtual
    /// ground.
    #[default]
    Ideal,
    /// Finite open-loop gain `a0` (V/V): the inverting input sits at
    /// `−v_out / a0`, producing a systematic computing error that grows
    /// with array size — this is what makes the paper's "ideal mapping"
    /// HSPICE results differ from the numerical solver (Fig. 6).
    Finite {
        /// Open-loop DC gain in V/V (e.g. `1e4` for 80 dB).
        a0: f64,
    },
}

impl GainModel {
    /// Validates the model.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] if a finite gain is not
    /// strictly positive and finite.
    pub(crate) fn validate(&self) -> Result<()> {
        match *self {
            GainModel::Ideal => Ok(()),
            GainModel::Finite { a0 } => {
                if a0.is_finite() && a0 > 0.0 {
                    Ok(())
                } else {
                    Err(CircuitError::config(format!(
                        "open-loop gain must be positive and finite, got {a0}"
                    )))
                }
            }
        }
    }

    /// Returns `1/a0`, the defect factor entering the DC equations
    /// (`0.0` for an ideal op-amp).
    pub(crate) fn inverse_gain(&self) -> f64 {
        match *self {
            GainModel::Ideal => 0.0,
            GainModel::Finite { a0 } => 1.0 / a0,
        }
    }
}

/// Full op-amp specification used by the timing and power models.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct OpAmpSpec {
    /// DC gain model.
    pub gain: GainModel,
    /// Gain-bandwidth product in Hz.
    pub gbwp_hz: f64,
    /// Supply voltage in volts (single number; rails are `±supply_v`).
    pub supply_v: f64,
    /// Quiescent current in amperes.
    pub quiescent_a: f64,
}

impl OpAmpSpec {
    /// A 45 nm-class op-amp consistent with the paper's power analysis:
    /// 80 dB open-loop gain, 10 MHz GBWP, 1.3 V supply, 10 µA quiescent
    /// current (`V_s·I_q = 13 µW` per amplifier).
    pub fn default_45nm() -> Self {
        OpAmpSpec {
            gain: GainModel::Finite { a0: 1e4 },
            gbwp_hz: 1e7,
            supply_v: 1.3,
            quiescent_a: 1e-5,
        }
    }

    /// An idealized op-amp: infinite gain, same dynamics/power as
    /// [`OpAmpSpec::default_45nm`].
    pub fn ideal() -> Self {
        OpAmpSpec {
            gain: GainModel::Ideal,
            ..Self::default_45nm()
        }
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] for non-positive GBWP,
    /// supply, or quiescent current, or an invalid gain model.
    pub(crate) fn validate(&self) -> Result<()> {
        self.gain.validate()?;
        if !(self.gbwp_hz > 0.0 && self.gbwp_hz.is_finite()) {
            return Err(CircuitError::config("GBWP must be positive and finite"));
        }
        if !(self.supply_v > 0.0 && self.supply_v.is_finite()) {
            return Err(CircuitError::config("supply must be positive and finite"));
        }
        if !(self.quiescent_a >= 0.0 && self.quiescent_a.is_finite()) {
            return Err(CircuitError::config(
                "quiescent current must be non-negative and finite",
            ));
        }
        Ok(())
    }

    /// Static power of one amplifier, `V_s·I_q` (paper eq. 7 with `N = 1`).
    pub(crate) fn static_power_w(&self) -> f64 {
        self.supply_v * self.quiescent_a
    }

    /// Checks a vector of op-amp output voltages against the supply rails.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::OutputSaturated`] identifying the first
    /// output beyond `±supply_v`.
    pub(crate) fn check_saturation(&self, outputs: &[f64]) -> Result<()> {
        for (i, &v) in outputs.iter().enumerate() {
            if v.abs() > self.supply_v {
                return Err(CircuitError::OutputSaturated {
                    index: i,
                    voltage: v,
                    limit: self.supply_v,
                });
            }
        }
        Ok(())
    }
}

impl Default for OpAmpSpec {
    fn default() -> Self {
        Self::default_45nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_model_inverse() {
        assert_eq!(GainModel::Ideal.inverse_gain(), 0.0);
        assert_eq!(GainModel::Finite { a0: 100.0 }.inverse_gain(), 0.01);
        assert_eq!(GainModel::default(), GainModel::Ideal);
    }

    #[test]
    fn gain_validation() {
        assert!(GainModel::Ideal.validate().is_ok());
        assert!(GainModel::Finite { a0: 1e4 }.validate().is_ok());
        assert!(GainModel::Finite { a0: 0.0 }.validate().is_err());
        assert!(GainModel::Finite { a0: -10.0 }.validate().is_err());
        assert!(GainModel::Finite { a0: f64::INFINITY }.validate().is_err());
    }

    #[test]
    fn spec_defaults_and_power() {
        let s = OpAmpSpec::default_45nm();
        assert!(s.validate().is_ok());
        assert!((s.static_power_w() - 13e-6).abs() < 1e-12);
        assert_eq!(OpAmpSpec::ideal().gain, GainModel::Ideal);
        assert_eq!(OpAmpSpec::default(), OpAmpSpec::default_45nm());
    }

    #[test]
    fn spec_validation_rejects_bad_values() {
        let mut s = OpAmpSpec::default_45nm();
        s.gbwp_hz = 0.0;
        assert!(s.validate().is_err());
        let mut s = OpAmpSpec::default_45nm();
        s.supply_v = -1.0;
        assert!(s.validate().is_err());
        let mut s = OpAmpSpec::default_45nm();
        s.quiescent_a = f64::NAN;
        assert!(s.validate().is_err());
    }

    #[test]
    fn saturation_check() {
        let s = OpAmpSpec::default_45nm(); // rails ±1.3 V
        assert!(s.check_saturation(&[0.5, -1.2]).is_ok());
        let err = s.check_saturation(&[0.5, -2.0]);
        assert!(matches!(
            err,
            Err(CircuitError::OutputSaturated { index: 1, .. })
        ));
    }
}
