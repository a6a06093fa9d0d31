//! Matrix → conductance mapping.
//!
//! Every AMC operation begins by mapping a mathematical matrix onto device
//! conductances (paper §IV: "the matrix is normalized to make the largest
//! element equal to 1. The resulting matrices are mapped to RRAM arrays,
//! according to a unit conductance of G₀ = 100 µS").
//!
//! Because conductances are physically non-negative, a signed matrix is
//! split as `A = A⁺ − A⁻` and realized with *two* arrays (paper §II); the
//! circuit subtracts their contributions (analog inverters / differential
//! op-amp inputs).

use amc_linalg::Matrix;

use crate::faults::FaultModel;
use crate::quant::Quantizer;
use crate::variation::VariationModel;
use crate::{DeviceError, Result};

/// Default minimum programmable conductance (high-resistance state), 1 µS.
///
/// Typical analog RRAM devices have an ON/OFF conductance window of about
/// two orders of magnitude (e.g. Park et al., IEEE EDL 2016); with the
/// paper's unit conductance G₀ = 100 µS this gives a 1 µS floor.
const DEFAULT_G_MIN: f64 = 1e-6;

/// Default maximum programmable conductance (low-resistance state), 150 µS.
///
/// Slightly above the paper's G₀ = 100 µS so that a matrix normalized to a
/// maximum element of 1 maps comfortably inside the window.
const DEFAULT_G_MAX: f64 = 1.5e-4;

/// Static configuration of the matrix → conductance mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MappingConfig {
    /// Unit conductance G₀ in siemens: a normalized matrix element of 1.0
    /// maps to this conductance. The paper uses 100 µS.
    pub g0: f64,
    /// Lower edge of the programmable device window in siemens.
    pub g_min: f64,
    /// Upper edge of the programmable device window in siemens.
    pub g_max: f64,
    /// Optional finite-level quantization of conductance targets.
    pub quantizer: Option<Quantizer>,
    /// Stuck-at fault model applied at programming time.
    pub faults: FaultModel,
}

impl MappingConfig {
    /// The paper's configuration: `G₀ = 100 µS`, default device window,
    /// fully analog (no quantization), no faults.
    pub fn paper_default() -> Self {
        MappingConfig {
            g0: 1e-4,
            g_min: DEFAULT_G_MIN,
            g_max: DEFAULT_G_MAX,
            quantizer: None,
            faults: FaultModel::none(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidConfig`] if `g0` is non-positive or
    /// outside the device window, or the window itself is invalid.
    pub(crate) fn validate(&self) -> Result<()> {
        if !(self.g_min > 0.0 && self.g_min < self.g_max) {
            return Err(DeviceError::config(format!(
                "device window requires 0 < g_min < g_max, got [{}, {}]",
                self.g_min, self.g_max
            )));
        }
        if !(self.g0 > 0.0 && self.g0.is_finite()) {
            return Err(DeviceError::config("g0 must be positive and finite"));
        }
        if self.g0 > self.g_max {
            return Err(DeviceError::config(format!(
                "g0 = {} exceeds g_max = {}; normalized elements of 1.0 would \
                 not be programmable",
                self.g0, self.g_max
            )));
        }
        Ok(())
    }
}

impl Default for MappingConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The deterministic part of a matrix mapping: normalization scale and the
/// positive/negative conductance *targets* (before variation/faults).
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixMapping {
    /// Normalization factor: the mapped matrix is `a / scale`, chosen so the
    /// largest absolute element becomes 1.0.
    scale: f64,
    /// Conductance targets for the positive-part array, in siemens.
    g_pos: Matrix,
    /// Conductance targets for the negative-part array, in siemens.
    g_neg: Matrix,
    /// The unit conductance used.
    g0: f64,
}

impl MatrixMapping {
    /// Maps matrix `a` to conductance targets under `cfg`.
    ///
    /// Normalization makes the largest absolute element equal 1, so its
    /// target conductance is exactly `g0`. Elements whose targets fall
    /// below the device window are handled like a write-and-verify loop
    /// would: targets below `g_min / 2` deselect the cell (stored as 0),
    /// others clamp to `g_min`.
    ///
    /// # Errors
    ///
    /// * [`DeviceError::InvalidConfig`] if `cfg` is invalid or `a` is the
    ///   zero matrix (the normalization scale would vanish).
    pub fn new(a: &Matrix, cfg: &MappingConfig) -> Result<Self> {
        cfg.validate()?;
        let scale = a.max_abs();
        if scale == 0.0 {
            return Err(DeviceError::config(
                "cannot map the zero matrix: normalization scale is zero",
            ));
        }
        let normalized = a.scaled(1.0 / scale);
        let (pos, neg) = normalized.split_signs();
        let to_target = |v: f64| -> f64 {
            if v == 0.0 {
                return 0.0;
            }
            let mut g = v * cfg.g0;
            if let Some(q) = cfg.quantizer {
                g = q.quantize(g);
            }
            if g < cfg.g_min {
                if g < cfg.g_min / 2.0 {
                    0.0
                } else {
                    cfg.g_min
                }
            } else {
                g.min(cfg.g_max)
            }
        };
        Ok(MatrixMapping {
            scale,
            g_pos: pos.map(to_target),
            g_neg: neg.map(to_target),
            g0: cfg.g0,
        })
    }

    /// The normalization factor (`max |a_ij|` of the original matrix).
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Unit conductance in siemens.
    pub(crate) fn g0(&self) -> f64 {
        self.g0
    }

    /// Conductance targets of the positive-part array.
    pub fn g_pos(&self) -> &Matrix {
        &self.g_pos
    }

    /// Conductance targets of the negative-part array.
    pub fn g_neg(&self) -> &Matrix {
        &self.g_neg
    }

    /// Samples programmed (noisy / faulty) conductances for both arrays.
    ///
    /// Order of effects per cell: stuck-at faults first (a stuck cell
    /// ignores programming entirely), then programming variation on the
    /// quantized target. Results are clamped into `[0, ∞)` by the
    /// variation model.
    pub(crate) fn sample_programmed<R: rand::Rng + ?Sized>(
        &self,
        cfg: &MappingConfig,
        variation: &VariationModel,
        rng: &mut R,
    ) -> (Matrix, Matrix) {
        let mut program = |targets: &Matrix| -> Matrix {
            targets.map_indexed(|_, _, target| {
                use crate::faults::FaultState;
                match cfg.faults.draw(rng) {
                    FaultState::StuckOn => cfg.faults.g_on,
                    FaultState::StuckOff => cfg.faults.g_off,
                    FaultState::Healthy => variation.sample(target, rng),
                }
            })
        };
        let pos = program(&self.g_pos);
        let neg = program(&self.g_neg);
        (pos, neg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn sample_matrix() -> Matrix {
        Matrix::from_rows(&[&[2.0, -1.0], &[0.5, 0.0]]).unwrap()
    }

    #[test]
    fn paper_default_validates() {
        assert!(MappingConfig::paper_default().validate().is_ok());
        assert_eq!(MappingConfig::default(), MappingConfig::paper_default());
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = MappingConfig::paper_default();
        cfg.g0 = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = MappingConfig::paper_default();
        cfg.g0 = 1.0; // above g_max
        assert!(cfg.validate().is_err());
        let mut cfg = MappingConfig::paper_default();
        cfg.g_min = cfg.g_max;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn normalization_puts_largest_element_at_g0() {
        let cfg = MappingConfig::paper_default();
        let m = MatrixMapping::new(&sample_matrix(), &cfg).unwrap();
        assert_eq!(m.scale(), 2.0);
        // The largest element (2.0) maps to exactly g0 in the positive array.
        assert_eq!(m.g_pos()[(0, 0)], cfg.g0);
        // The negative element maps into the negative array.
        assert_eq!(m.g_neg()[(0, 1)], 0.5 * cfg.g0);
        assert_eq!(m.g_pos()[(0, 1)], 0.0);
        // Zero elements deselect both arrays.
        assert_eq!(m.g_pos()[(1, 1)], 0.0);
        assert_eq!(m.g_neg()[(1, 1)], 0.0);
    }

    #[test]
    fn zero_matrix_is_rejected() {
        let cfg = MappingConfig::paper_default();
        assert!(MatrixMapping::new(&Matrix::zeros(2, 2), &cfg).is_err());
    }

    #[test]
    fn sub_window_targets_clamp_or_deselect() {
        let cfg = MappingConfig::paper_default();
        // g_min/g0 = 0.01. Element ratios: 1.0, 0.004 (-> deselect, since
        // 0.004*g0 = 4e-7 < g_min/2 = 5e-7), 0.008 (-> clamp to g_min since
        // 0.008*g0 = 8e-7 >= g_min/2).
        let a = Matrix::from_rows(&[&[1.0, 0.004], &[0.008, 1.0]]).unwrap();
        let m = MatrixMapping::new(&a, &cfg).unwrap();
        assert_eq!(m.g_pos()[(0, 1)], 0.0, "tiny element should deselect");
        assert_eq!(m.g_pos()[(1, 0)], cfg.g_min, "small element should clamp");
    }

    #[test]
    fn quantizer_snaps_targets() {
        let mut cfg = MappingConfig::paper_default();
        cfg.quantizer = Some(Quantizer::new(cfg.g_min, cfg.g0, 3).unwrap());
        // 3 states between 1e-6 and 1e-4: {1e-6, 5.05e-5, 1e-4}.
        let a = Matrix::from_rows(&[&[1.0, 0.49], &[0.9, 0.02]]).unwrap();
        let m = MatrixMapping::new(&a, &cfg).unwrap();
        assert_eq!(m.g_pos()[(0, 0)], 1e-4);
        assert!((m.g_pos()[(0, 1)] - 5.05e-5).abs() < 1e-9);
        assert_eq!(m.g_pos()[(1, 0)], 1e-4, "0.9 snaps up to the top state");
    }

    #[test]
    fn sample_without_variation_equals_targets() {
        let cfg = MappingConfig::paper_default();
        let m = MatrixMapping::new(&sample_matrix(), &cfg).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let (p, n) = m.sample_programmed(&cfg, &VariationModel::None, &mut rng);
        assert_eq!(&p, m.g_pos());
        assert_eq!(&n, m.g_neg());
    }

    #[test]
    fn sample_with_variation_perturbs_but_stays_nonnegative() {
        let cfg = MappingConfig::paper_default();
        let m = MatrixMapping::new(&sample_matrix(), &cfg).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let var = VariationModel::paper_default(cfg.g0);
        let (p, _) = m.sample_programmed(&cfg, &var, &mut rng);
        assert_ne!(&p, m.g_pos());
        assert!(p.as_slice().iter().all(|&v| v >= 0.0));
        // Deselected cells stay deselected under variation.
        assert_eq!(p[(1, 1)], 0.0);
    }

    #[test]
    fn stuck_on_fault_overrides_target() {
        let mut cfg = MappingConfig::paper_default();
        cfg.faults = FaultModel::new(1.0, 0.0, cfg.g_max, 0.0).unwrap();
        let m = MatrixMapping::new(&sample_matrix(), &cfg).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let (p, n) = m.sample_programmed(&cfg, &VariationModel::None, &mut rng);
        assert!(p.as_slice().iter().all(|&v| v == cfg.g_max));
        assert!(n.as_slice().iter().all(|&v| v == cfg.g_max));
    }

    #[test]
    fn sampling_is_reproducible_with_same_seed() {
        let cfg = MappingConfig::paper_default();
        let m = MatrixMapping::new(&sample_matrix(), &cfg).unwrap();
        let var = VariationModel::paper_default(cfg.g0);
        let a = m.sample_programmed(&cfg, &var, &mut ChaCha8Rng::seed_from_u64(9));
        let b = m.sample_programmed(&cfg, &var, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
