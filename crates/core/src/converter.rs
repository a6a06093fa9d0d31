//! DAC / ADC interfaces and the sample-and-hold path.
//!
//! The BlockAMC macro talks to the digital domain through a DAC (known
//! vector `b` in steps 1 and 3) and an ADC (solution parts in steps 3 and
//! 5) — see Fig. 3/4 of the paper. Intermediate cascades stay analog in
//! sample-and-hold (S&H) buffers. These converters quantize the signals
//! crossing the boundary; the S&H hop can optionally model droop.

use crate::{BlockAmcError, Result};

/// A uniform signed converter (used for both DAC and ADC): `2^bits` levels
/// spanning `[-v_range, +v_range]`, mid-rise, clipping outside the range.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Converter {
    bits: u32,
    v_range: f64,
}

impl Converter {
    /// Creates a converter with the given resolution and full-scale range.
    ///
    /// # Errors
    ///
    /// Returns [`BlockAmcError::InvalidConfig`] if `bits` is 0 or > 24, or
    /// `v_range` is not strictly positive and finite.
    pub fn new(bits: u32, v_range: f64) -> Result<Self> {
        if bits == 0 || bits > 24 {
            return Err(BlockAmcError::config(format!(
                "converter resolution must be 1..=24 bits, got {bits}"
            )));
        }
        if !(v_range > 0.0 && v_range.is_finite()) {
            return Err(BlockAmcError::config(
                "converter range must be positive and finite",
            ));
        }
        Ok(Converter { bits, v_range })
    }

    /// An 8-bit, ±1 V converter — the RePAST-class interface assumed by
    /// the paper's area/power analysis.
    pub(crate) fn default_8bit() -> Self {
        Converter {
            bits: 8,
            v_range: 1.0,
        }
    }

    /// Resolution in bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Full-scale range (the converter spans `±v_range`).
    pub fn v_range(&self) -> f64 {
        self.v_range
    }

    /// Step between adjacent codes.
    pub fn lsb(&self) -> f64 {
        2.0 * self.v_range / ((1u64 << self.bits) - 1) as f64
    }

    /// Quantizes one value (clipping outside `±v_range`).
    pub(crate) fn quantize(&self, v: f64) -> f64 {
        let clipped = v.clamp(-self.v_range, self.v_range);
        let lsb = self.lsb();
        // Mid-rise rounding can land half an LSB beyond the rail; clamp
        // back so the output range is exactly ±v_range.
        ((clipped / lsb).round() * lsb).clamp(-self.v_range, self.v_range)
    }

    /// Quantizes a vector.
    pub fn quantize_vec(&self, v: &[f64]) -> Vec<f64> {
        v.iter().map(|&x| self.quantize(x)).collect()
    }
}

/// Signal-path configuration for a BlockAMC solve: converters at the
/// digital boundary and the analog S&H cascade.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct IoConfig {
    /// DAC applied to externally supplied inputs (steps 1 and 3).
    /// `None` = ideal input path.
    pub dac: Option<Converter>,
    /// ADC applied to the solution outputs (steps 3 and 5).
    /// `None` = ideal output path.
    pub adc: Option<Converter>,
    /// Fractional sample-and-hold droop per buffered hop (0.0 = ideal).
    /// Each analog cascade multiplies the held value by `1 − sh_droop`.
    pub sh_droop: f64,
}

impl IoConfig {
    /// Ideal signal path: no quantization, no droop.
    pub fn ideal() -> Self {
        IoConfig::default()
    }

    /// 8-bit DAC and ADC with an ideal S&H — a realistic digital boundary.
    pub fn default_8bit() -> Self {
        IoConfig {
            dac: Some(Converter::default_8bit()),
            adc: Some(Converter::default_8bit()),
            sh_droop: 0.0,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BlockAmcError::InvalidConfig`] if the droop is outside
    /// `[0, 1)`.
    pub(crate) fn validate(&self) -> Result<()> {
        if !(self.sh_droop >= 0.0 && self.sh_droop < 1.0) {
            return Err(BlockAmcError::config(format!(
                "S&H droop must lie in [0, 1), got {}",
                self.sh_droop
            )));
        }
        Ok(())
    }

    /// Applies the DAC (if any) to an external input vector.
    pub(crate) fn apply_dac(&self, v: &[f64]) -> Vec<f64> {
        match &self.dac {
            Some(c) => c.quantize_vec(v),
            None => v.to_vec(),
        }
    }

    /// Applies the ADC (if any) to a solution output vector.
    pub(crate) fn apply_adc(&self, v: &[f64]) -> Vec<f64> {
        match &self.adc {
            Some(c) => c.quantize_vec(v),
            None => v.to_vec(),
        }
    }

    /// Applies one S&H hop to an analog intermediate.
    pub(crate) fn apply_sh(&self, v: &[f64]) -> Vec<f64> {
        if self.sh_droop == 0.0 {
            v.to_vec()
        } else {
            let k = 1.0 - self.sh_droop;
            v.iter().map(|&x| x * k).collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Converter::new(8, 1.0).is_ok());
        assert!(Converter::new(0, 1.0).is_err());
        assert!(Converter::new(25, 1.0).is_err());
        assert!(Converter::new(8, 0.0).is_err());
        assert!(Converter::new(8, f64::NAN).is_err());
    }

    #[test]
    fn quantization_error_bounded_by_half_lsb() {
        let c = Converter::new(8, 1.0).unwrap();
        for i in 0..1000 {
            let v = -1.0 + 2.0 * i as f64 / 999.0;
            let q = c.quantize(v);
            assert!((q - v).abs() <= c.lsb() / 2.0 + 1e-15, "v={v}");
        }
    }

    #[test]
    fn clipping_outside_range() {
        let c = Converter::new(8, 0.5).unwrap();
        assert_eq!(c.quantize(2.0), 0.5);
        assert_eq!(c.quantize(-3.0), -0.5);
    }

    #[test]
    fn high_resolution_is_nearly_transparent() {
        let c = Converter::new(20, 1.0).unwrap();
        assert!((c.quantize(0.123456789) - 0.123456789).abs() < 1e-5);
    }

    #[test]
    fn io_config_paths() {
        let io = IoConfig::default_8bit();
        assert!(io.validate().is_ok());
        let v = [0.1234, -0.5678];
        let d = io.apply_dac(&v);
        assert_ne!(d, v.to_vec());
        assert!((d[0] - v[0]).abs() < 0.01);

        let ideal = IoConfig::ideal();
        assert_eq!(ideal.apply_dac(&v), v.to_vec());
        assert_eq!(ideal.apply_adc(&v), v.to_vec());
        assert_eq!(ideal.apply_sh(&v), v.to_vec());
    }

    #[test]
    fn sh_droop_attenuates() {
        let io = IoConfig {
            sh_droop: 0.01,
            ..IoConfig::ideal()
        };
        assert!(io.validate().is_ok());
        let out = io.apply_sh(&[1.0, -2.0]);
        assert!((out[0] - 0.99).abs() < 1e-15);
        assert!((out[1] + 1.98).abs() < 1e-15);

        let bad = IoConfig {
            sh_droop: 1.5,
            ..IoConfig::ideal()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn zero_maps_to_zero() {
        let c = Converter::default_8bit();
        assert_eq!(c.quantize(0.0), 0.0);
        assert_eq!(c.bits(), 8);
        assert_eq!(c.v_range(), 1.0);
    }
}
