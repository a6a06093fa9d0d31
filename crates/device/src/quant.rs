//! Finite conductance-level quantization.
//!
//! Analog RRAM devices offer a limited number of reliably distinguishable
//! conductance states (e.g. 64 levels in Park et al., IEEE EDL 2016). The
//! paper assumes fully analog devices; [`Quantizer`] lets experiments relax
//! that assumption and study how many levels BlockAMC actually needs — one
//! of the ablations indexed in DESIGN.md.

use crate::{DeviceError, Result};

/// Uniform quantizer over the conductance window `[g_min, g_max]`.
///
/// Targets are snapped to the nearest of `levels` equally spaced states;
/// a zero target stays zero (deselected cell).
///
/// # Example
///
/// ```
/// use amc_device::quant::Quantizer;
///
/// # fn main() -> Result<(), amc_device::DeviceError> {
/// let q = Quantizer::new(0.0, 1.0, 5)?; // states at 0.0, 0.25, 0.5, 0.75, 1.0
/// assert_eq!(q.quantize(0.6), 0.5);
/// assert_eq!(q.quantize(0.9), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Quantizer {
    g_min: f64,
    g_max: f64,
    levels: u32,
}

impl Quantizer {
    /// Creates a quantizer with `levels` states spanning `[g_min, g_max]`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidConfig`] if `levels < 2` or the window
    /// is empty/reversed/not finite.
    pub fn new(g_min: f64, g_max: f64, levels: u32) -> Result<Self> {
        if levels < 2 {
            return Err(DeviceError::config("quantizer requires at least 2 levels"));
        }
        if !(g_min.is_finite() && g_max.is_finite() && g_min < g_max) {
            return Err(DeviceError::config(format!(
                "quantizer window must satisfy g_min < g_max, got [{g_min}, {g_max}]"
            )));
        }
        Ok(Quantizer {
            g_min,
            g_max,
            levels,
        })
    }

    /// Spacing between adjacent states.
    pub(crate) fn step(&self) -> f64 {
        (self.g_max - self.g_min) / (self.levels - 1) as f64
    }

    /// Snaps `target` to the nearest state. Values outside the window clamp
    /// to the window edges; an exact zero stays zero (deselected cell).
    pub fn quantize(&self, target: f64) -> f64 {
        if target == 0.0 {
            return 0.0;
        }
        let clamped = target.clamp(self.g_min, self.g_max);
        let step = self.step();
        let idx = ((clamped - self.g_min) / step).round();
        self.g_min + idx * step
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(Quantizer::new(0.0, 1.0, 2).is_ok());
        assert!(Quantizer::new(0.0, 1.0, 1).is_err());
        assert!(Quantizer::new(1.0, 0.0, 4).is_err());
        assert!(Quantizer::new(0.0, f64::INFINITY, 4).is_err());
    }

    #[test]
    fn quantizes_to_nearest_state() {
        let q = Quantizer::new(0.0, 1.0, 5).unwrap();
        assert_eq!(q.step(), 0.25);
        assert_eq!(q.quantize(0.1), 0.0);
        assert_eq!(q.quantize(0.13), 0.25);
        assert_eq!(q.quantize(0.5), 0.5);
        assert_eq!(q.quantize(0.99), 1.0);
    }

    #[test]
    fn clamps_out_of_window() {
        let q = Quantizer::new(0.2, 1.0, 5).unwrap();
        assert_eq!(q.quantize(0.01), 0.2);
        assert_eq!(q.quantize(5.0), 1.0);
    }

    #[test]
    fn zero_stays_deselected() {
        let q = Quantizer::new(0.2, 1.0, 5).unwrap();
        assert_eq!(q.quantize(0.0), 0.0);
    }

    #[test]
    fn error_bound_holds() {
        let q = Quantizer::new(0.0, 1.0, 33).unwrap();
        for i in 0..1000 {
            let v = i as f64 / 999.0;
            let e = (q.quantize(v) - v).abs();
            assert!(e <= q.step() / 2.0 + 1e-15, "v={v} e={e}");
        }
    }

    #[test]
    fn many_levels_approach_identity() {
        let q = Quantizer::new(0.0, 1.0, 1 << 16).unwrap();
        assert!((q.quantize(0.123456) - 0.123456).abs() < 1e-4);
    }
}
