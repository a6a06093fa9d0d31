//! Conductance programming-variation models.
//!
//! The paper's accuracy experiments (Figs. 7–9) assume the programmed
//! conductance deviates from its target by Gaussian noise with a standard
//! deviation of `0.05·G₀` — "achievable by using the write&verify
//! algorithm". [`VariationModel::paper_default`] reproduces exactly that;
//! lognormal and proportional variants are provided for sensitivity
//! studies.

use rand::Rng;

use crate::{DeviceError, Result};

/// A stochastic model of how programmed conductances deviate from their
/// targets.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
#[non_exhaustive]
#[derive(Default)]
pub enum VariationModel {
    /// Ideal programming: the stored conductance equals the target.
    #[default]
    None,
    /// Additive Gaussian noise with standard deviation `sigma` siemens,
    /// independent of the target value. The paper uses
    /// `sigma = 0.05·G₀ = 5 µS`.
    Gaussian {
        /// Standard deviation in siemens.
        sigma: f64,
    },
    /// Additive Gaussian noise whose standard deviation is
    /// `sigma_rel × target` — device-to-device variability that scales with
    /// the stored conductance.
    Proportional {
        /// Relative standard deviation (e.g. `0.05` for 5%).
        sigma_rel: f64,
    },
    /// Multiplicative lognormal noise: the stored value is
    /// `target · exp(N(0, sigma_log))`. Common in the RRAM literature for
    /// cycle-to-cycle variation.
    Lognormal {
        /// Standard deviation of the underlying normal in log-space.
        sigma_log: f64,
    },
}

impl VariationModel {
    /// The paper's model: Gaussian with `σ = 0.05·G₀`.
    ///
    /// `g0` is the unit conductance (100 µS in the paper).
    pub fn paper_default(g0: f64) -> Self {
        VariationModel::Gaussian { sigma: 0.05 * g0 }
    }

    /// Validates the model parameters.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidConfig`] if a deviation parameter is
    /// negative or not finite.
    pub(crate) fn validate(&self) -> Result<()> {
        let ok = match *self {
            VariationModel::None => true,
            VariationModel::Gaussian { sigma } => sigma.is_finite() && sigma >= 0.0,
            VariationModel::Proportional { sigma_rel } => sigma_rel.is_finite() && sigma_rel >= 0.0,
            VariationModel::Lognormal { sigma_log } => sigma_log.is_finite() && sigma_log >= 0.0,
        };
        if ok {
            Ok(())
        } else {
            Err(DeviceError::config(format!(
                "variation parameters must be finite and non-negative: {self:?}"
            )))
        }
    }

    /// Samples the conductance actually stored when programming `target`
    /// siemens.
    ///
    /// Deselected cells (`target == 0.0`) are returned unchanged: an
    /// unselected 1T1R cell contributes no conductance regardless of device
    /// variability. Sampled values are clamped at zero from below — a
    /// resistor cannot have negative conductance.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, target: f64, rng: &mut R) -> f64 {
        if target == 0.0 {
            return 0.0;
        }
        let value = match *self {
            VariationModel::None => target,
            VariationModel::Gaussian { sigma } => target + sigma * normal(rng),
            VariationModel::Proportional { sigma_rel } => target * (1.0 + sigma_rel * normal(rng)),
            VariationModel::Lognormal { sigma_log } => target * (sigma_log * normal(rng)).exp(),
        };
        value.max(0.0)
    }
}

/// Standard normal sample (Box–Muller), kept private to this crate.
fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn none_is_exact() {
        let mut r = rng(1);
        assert_eq!(VariationModel::None.sample(5e-5, &mut r), 5e-5);
    }

    #[test]
    fn paper_default_sigma() {
        let g0 = 1e-4;
        let m = VariationModel::paper_default(g0);
        assert_eq!(m, VariationModel::Gaussian { sigma: 5e-6 });
    }

    #[test]
    fn gaussian_statistics_match() {
        let mut r = rng(2);
        let sigma = 5e-6;
        let target = 1e-4;
        let m = VariationModel::Gaussian { sigma };
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| m.sample(target, &mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let std = (samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64).sqrt();
        assert!((mean - target).abs() < 3.0 * sigma / (n as f64).sqrt() * 4.0);
        assert!((std - sigma).abs() / sigma < 0.05, "std {std}");
    }

    #[test]
    fn zero_target_never_varies() {
        let mut r = rng(3);
        let m = VariationModel::Gaussian { sigma: 1.0 };
        for _ in 0..100 {
            assert_eq!(m.sample(0.0, &mut r), 0.0);
        }
    }

    #[test]
    fn samples_are_clamped_non_negative() {
        let mut r = rng(4);
        // Huge sigma relative to target forces negative draws.
        let m = VariationModel::Gaussian { sigma: 1.0 };
        for _ in 0..1000 {
            assert!(m.sample(1e-6, &mut r) >= 0.0);
        }
    }

    #[test]
    fn lognormal_is_multiplicative_and_positive() {
        let mut r = rng(5);
        let m = VariationModel::Lognormal { sigma_log: 0.2 };
        for _ in 0..1000 {
            let v = m.sample(1e-4, &mut r);
            assert!(v > 0.0);
        }
    }

    #[test]
    fn proportional_scales_with_target() {
        let mut r1 = rng(6);
        let mut r2 = rng(6);
        let m = VariationModel::Proportional { sigma_rel: 0.1 };
        let small = m.sample(1e-6, &mut r1) - 1e-6;
        let large = m.sample(1e-4, &mut r2) - 1e-4;
        // Same RNG stream => same normal draw => deviation scales by 100x.
        assert!((large / small - 100.0).abs() < 1e-6);
    }

    #[test]
    fn validate_rejects_bad_parameters() {
        assert!(VariationModel::Gaussian { sigma: -1.0 }.validate().is_err());
        assert!(VariationModel::Proportional {
            sigma_rel: f64::NAN
        }
        .validate()
        .is_err());
        assert!(VariationModel::Lognormal { sigma_log: 0.1 }
            .validate()
            .is_ok());
        assert!(VariationModel::None.validate().is_ok());
        assert_eq!(VariationModel::default(), VariationModel::None);
    }
}
