//! Crossbar arrays and programmed signed matrices.

use amc_linalg::Matrix;
use rand::Rng;

use crate::mapping::{MappingConfig, MatrixMapping};
use crate::variation::VariationModel;
use crate::{DeviceError, Result};

/// A crosspoint RRAM array holding one non-negative conductance matrix.
///
/// Rows correspond to word lines (WLs) and columns to bit lines (BLs),
/// matching Fig. 1 of the paper. A conductance of exactly `0.0` models an
/// unselected cell (the 1T1R selector keeps the device out of the circuit),
/// which is how zero matrix elements are realized in hardware.
///
/// # Example
///
/// ```
/// use amc_device::array::ProgrammedMatrix;
/// use amc_device::mapping::MappingConfig;
/// use amc_device::variation::VariationModel;
/// use amc_linalg::Matrix;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), amc_device::DeviceError> {
/// let a = Matrix::from_rows(&[&[1.0, 0.0], &[-0.5, 0.25]])?;
/// let cfg = MappingConfig::paper_default();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
/// let p = ProgrammedMatrix::program(&a, &cfg, &VariationModel::None, &mut rng)?;
/// // Each sign lands on its own array; zeros leave their cells unselected.
/// let (g_pos, g_neg) = (p.pos().conductances(), p.neg().conductances());
/// assert!((g_pos[(0, 0)] - cfg.g0).abs() < 1e-18);
/// assert_eq!(g_pos[(1, 0)], 0.0);
/// assert!((g_neg[(1, 0)] - 0.5 * cfg.g0).abs() < 1e-18);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CrossbarArray {
    g: Matrix,
}

impl CrossbarArray {
    /// Creates an array directly from a matrix of conductance values in
    /// siemens (bypassing window checks — values are stored verbatim, which
    /// is what the circuit simulator needs after variation sampling may
    /// have pushed values slightly outside the nominal window).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::InvalidConfig`] if `g` is empty or contains
    /// negative or non-finite values.
    fn from_conductances(g: &Matrix) -> Result<Self> {
        if g.rows() == 0 || g.cols() == 0 {
            return Err(DeviceError::config("array dimensions must be positive"));
        }
        if g.as_slice().iter().any(|&v| !v.is_finite() || v < 0.0) {
            return Err(DeviceError::config(
                "conductances must be finite and non-negative",
            ));
        }
        Ok(CrossbarArray { g: g.clone() })
    }

    /// Reads the whole array back as a conductance matrix in siemens.
    pub fn conductances(&self) -> Matrix {
        self.g.clone()
    }
}

/// A signed matrix programmed onto a pair of crossbar arrays
/// (`A = A⁺ − A⁻`), together with the scale metadata needed to interpret
/// circuit outputs mathematically.
///
/// This is the handle the circuit crate operates on: it exposes both the
/// physical conductances (for circuit-level simulation) and the effective
/// mathematical matrix they represent (for the fast analytic path).
#[derive(Debug, Clone, PartialEq)]
pub struct ProgrammedMatrix {
    pos: CrossbarArray,
    neg: CrossbarArray,
    scale: f64,
    g0: f64,
}

impl ProgrammedMatrix {
    /// Maps matrix `a` under `cfg` and programs both arrays, sampling
    /// variation and faults from `rng`.
    ///
    /// # Errors
    ///
    /// * [`DeviceError::InvalidConfig`] for invalid configuration, a zero
    ///   matrix, or invalid variation parameters.
    pub fn program<R: Rng + ?Sized>(
        a: &Matrix,
        cfg: &MappingConfig,
        variation: &VariationModel,
        rng: &mut R,
    ) -> Result<Self> {
        variation.validate()?;
        let mapping = MatrixMapping::new(a, cfg)?;
        let (gp, gn) = mapping.sample_programmed(cfg, variation, rng);
        Ok(ProgrammedMatrix {
            pos: CrossbarArray::from_conductances(&gp)?,
            neg: CrossbarArray::from_conductances(&gn)?,
            scale: mapping.scale(),
            g0: mapping.g0(),
        })
    }

    /// The positive-part array.
    pub fn pos(&self) -> &CrossbarArray {
        &self.pos
    }

    /// The negative-part array.
    pub fn neg(&self) -> &CrossbarArray {
        &self.neg
    }

    /// The normalization factor applied before mapping.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The unit conductance G₀ in siemens.
    pub fn g0(&self) -> f64 {
        self.g0
    }

    /// Shape `(rows, cols)` of the represented matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.pos.g.shape()
    }

    /// The *normalized* signed conductance matrix `(G⁺ − G⁻) / g0` the
    /// circuit computes with; its ideal value is `a / scale`.
    pub fn normalized_matrix(&self) -> Matrix {
        let diff = self
            .pos
            .conductances()
            .sub_matrix(&self.neg.conductances())
            .expect("pos/neg arrays share a shape by construction");
        diff.scaled(1.0 / self.g0)
    }

    /// The effective mathematical matrix represented by the programmed
    /// conductances, `(G⁺ − G⁻) · scale / g0`. With no variation, faults,
    /// quantization, or sub-window clamping this equals the original
    /// matrix.
    pub fn effective_matrix(&self) -> Matrix {
        self.normalized_matrix().scaled(self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::FaultModel;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    fn sample_matrix() -> Matrix {
        Matrix::from_rows(&[&[2.0, -1.0], &[0.5, 1.5]]).unwrap()
    }

    #[test]
    fn array_construction_validation() {
        assert!(CrossbarArray::from_conductances(&Matrix::zeros(0, 4)).is_err());
        assert!(CrossbarArray::from_conductances(&Matrix::zeros(4, 0)).is_err());
        let a = CrossbarArray::from_conductances(&Matrix::zeros(3, 5)).unwrap();
        assert_eq!(a.conductances().shape(), (3, 5));
    }

    #[test]
    fn from_conductances_rejects_negative_and_nan() {
        let bad = Matrix::from_rows(&[&[1e-4, -1e-5]]).unwrap();
        assert!(CrossbarArray::from_conductances(&bad).is_err());
        let nan = Matrix::from_rows(&[&[f64::NAN]]).unwrap();
        assert!(CrossbarArray::from_conductances(&nan).is_err());
    }

    #[test]
    fn conductance_roundtrip_and_stats() {
        let g = Matrix::from_rows(&[&[1e-4, 0.0], &[5e-5, 2e-5]]).unwrap();
        let a = CrossbarArray::from_conductances(&g).unwrap();
        assert_eq!(a.conductances(), g);
    }

    #[test]
    fn ideal_programming_roundtrips_matrix() {
        let a = sample_matrix();
        let cfg = MappingConfig::paper_default();
        let p = ProgrammedMatrix::program(&a, &cfg, &VariationModel::None, &mut rng(1)).unwrap();
        assert!(p.effective_matrix().approx_eq(&a, 1e-12));
        assert_eq!(p.shape(), (2, 2));
        assert_eq!(p.scale(), 2.0);
        assert_eq!(p.g0(), cfg.g0);
    }

    #[test]
    fn normalized_matrix_has_unit_max() {
        let a = sample_matrix();
        let cfg = MappingConfig::paper_default();
        let p = ProgrammedMatrix::program(&a, &cfg, &VariationModel::None, &mut rng(2)).unwrap();
        assert!((p.normalized_matrix().max_abs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn variation_perturbs_effective_matrix() {
        let a = sample_matrix();
        let cfg = MappingConfig::paper_default();
        let var = VariationModel::paper_default(cfg.g0);
        let p = ProgrammedMatrix::program(&a, &cfg, &var, &mut rng(3)).unwrap();
        let eff = p.effective_matrix();
        assert!(!eff.approx_eq(&a, 1e-9), "variation should perturb");
        // …but the perturbation should be small: σ/g0 = 5%, scale = 2.
        let diff = eff.sub_matrix(&a).unwrap();
        assert!(diff.max_abs() < 0.05 * 2.0 * 6.0, "6-sigma bound");
    }

    #[test]
    fn stuck_off_faults_zero_cells() {
        let a = sample_matrix();
        let mut cfg = MappingConfig::paper_default();
        cfg.faults = FaultModel::new(0.0, 1.0, cfg.g_max, 0.0).unwrap();
        let p = ProgrammedMatrix::program(&a, &cfg, &VariationModel::None, &mut rng(4)).unwrap();
        assert!(p.effective_matrix().is_zero());
    }

    #[test]
    fn programming_is_reproducible() {
        let a = sample_matrix();
        let cfg = MappingConfig::paper_default();
        let var = VariationModel::paper_default(cfg.g0);
        let p1 = ProgrammedMatrix::program(&a, &cfg, &var, &mut rng(5)).unwrap();
        let p2 = ProgrammedMatrix::program(&a, &cfg, &var, &mut rng(5)).unwrap();
        assert_eq!(p1, p2);
    }

    #[test]
    fn invalid_variation_is_rejected() {
        let a = sample_matrix();
        let cfg = MappingConfig::paper_default();
        let bad = VariationModel::Gaussian { sigma: -1.0 };
        assert!(ProgrammedMatrix::program(&a, &cfg, &bad, &mut rng(6)).is_err());
    }
}
