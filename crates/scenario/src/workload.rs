//! The workload registry: linear-system families as declarative specs.
//!
//! A [`WorkloadSpec`] is pure data — a family, a size, and a seed — and
//! [`WorkloadSpec::instantiate`] turns it into a concrete matrix, a
//! right-hand-side stream, and measured per-instance metadata (condition
//! estimate, symmetry, diagonal dominance, definiteness). Campaigns
//! cross lists of specs with solver grids; nothing downstream needs to
//! know how a family is generated.
//!
//! The registry wraps the paper's two benchmark families
//! (`amc_linalg::generate`'s Wishart and Toeplitz) and adds families
//! biased toward scenario *diversity*: a 2-D Poisson operator (physics),
//! grounded graph Laplacians from path/ring/random-regular topologies
//! (networks), power-delivery-network conductance matrices exported
//! from an `amc_circuit::mna` netlist (EDA), and a condition-targeted
//! SPD family that isolates conditioning from structure.

use amc_circuit::pdn::{pdn_matrix, PdnSpec};
use amc_linalg::{cholesky, generate, lu::LuFactor, Matrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::{Result, ScenarioError};

/// A matrix family the registry can draw instances from.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WorkloadFamily {
    /// Wishart `A = XᵀX/m`, `m = 4n` — the paper's benchmark family,
    /// well-conditioned (κ ≈ 9) at every size.
    Wishart,
    /// SPD autocorrelation Toeplitz (the paper's convolution context);
    /// conditioning grows with `n` toward the symbol's max/min ratio.
    ToeplitzSpd {
        /// Autocorrelation kernel length.
        kernel_len: usize,
        /// Relative diagonal ridge (bounds κ by ≈ `1 + 1/ridge`).
        ridge: f64,
    },
    /// Raw random Toeplitz behind the seeded condition guard
    /// (`generate::random_toeplitz_conditioned`) — ill-conditioned but
    /// never catastrophically so.
    ToeplitzRaw {
        /// Condition-estimate ceiling for the resample guard.
        max_cond: f64,
    },
    /// 5-point 2-D Poisson (finite-difference Laplacian) on the most
    /// nearly square `rows x cols` factorization of `n`.
    Poisson2d,
    /// Grounded path-graph Laplacian `L + ground·I`.
    PathLaplacian {
        /// Grounding conductance (κ grows like `1/ground`).
        ground: f64,
    },
    /// Grounded ring-graph Laplacian.
    RingLaplacian {
        /// Grounding conductance.
        ground: f64,
    },
    /// Grounded random-regular (permutation-model) graph Laplacian —
    /// expander-like, flat conditioning in `n`.
    RandomRegular {
        /// Vertex degree (positive, even).
        degree: usize,
        /// Grounding conductance.
        ground: f64,
    },
    /// Power-delivery-network conductance matrix exported from an
    /// `amc_circuit::mna` grid netlist on the most nearly square
    /// factorization of `n` (seeded manufacturing jitter).
    Pdn,
    /// Random SPD with a prescribed 2-norm condition number
    /// (log-spaced spectrum under a random orthogonal basis).
    SpdWithCondition {
        /// The target condition number.
        cond: f64,
    },
}

impl WorkloadFamily {
    /// Short registry key for reports (`wishart`, `poisson2d`, …).
    pub(crate) fn key(&self) -> &'static str {
        match self {
            WorkloadFamily::Wishart => "wishart",
            WorkloadFamily::ToeplitzSpd { .. } => "toeplitz-spd",
            WorkloadFamily::ToeplitzRaw { .. } => "toeplitz-raw",
            WorkloadFamily::Poisson2d => "poisson2d",
            WorkloadFamily::PathLaplacian { .. } => "path-laplacian",
            WorkloadFamily::RingLaplacian { .. } => "ring-laplacian",
            WorkloadFamily::RandomRegular { .. } => "random-regular",
            WorkloadFamily::Pdn => "pdn",
            WorkloadFamily::SpdWithCondition { .. } => "spd-cond",
        }
    }
}

/// A declarative workload: family × size × seed, plus a display name.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WorkloadSpec {
    /// Display name used in reports (unique within a campaign).
    pub name: String,
    /// The generating family.
    pub family: WorkloadFamily,
    /// Problem size (matrix dimension).
    pub n: usize,
    /// Seed of the instance's private RNG stream.
    pub seed: u64,
}

/// Measured metadata of one instantiated workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMeta {
    /// 1-norm condition estimate from the LU factorization.
    pub cond_estimate: f64,
    /// Symmetric to 1e-12 relative tolerance.
    pub symmetric: bool,
    /// Strictly diagonally dominant (weakly dominant families like the
    /// 2-D Poisson operator report `false`).
    pub diagonally_dominant: bool,
    /// Symmetric positive definite (Cholesky succeeds).
    pub spd: bool,
}

/// A concrete instance: the matrix, a deterministic right-hand-side
/// stream, and measured metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadInstance {
    /// The spec this instance was drawn from.
    pub spec: WorkloadSpec,
    /// The system matrix.
    pub matrix: Matrix,
    /// Right-hand sides drawn from the instance stream (as many as
    /// requested at instantiation).
    pub rhs: Vec<Vec<f64>>,
    /// Measured properties of `matrix`.
    pub meta: WorkloadMeta,
}

impl WorkloadSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, family: WorkloadFamily, n: usize, seed: u64) -> Self {
        WorkloadSpec {
            name: name.into(),
            family,
            n,
            seed,
        }
    }

    /// Draws the instance: the matrix and `rhs_count` right-hand sides,
    /// all from one ChaCha8 stream keyed on `(seed, n)` — two specs
    /// differing only in name produce identical instances.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidSpec`] for `n == 0` or `rhs_count == 0`;
    /// generator parameter errors from the family constructors.
    pub fn instantiate(&self, rhs_count: usize) -> Result<WorkloadInstance> {
        if self.n == 0 {
            return Err(ScenarioError::spec(format!(
                "workload '{}' has size 0",
                self.name
            )));
        }
        if rhs_count == 0 {
            return Err(ScenarioError::spec(format!(
                "workload '{}' needs at least one right-hand side",
                self.name
            )));
        }
        let mut rng = ChaCha8Rng::seed_from_u64(
            self.seed
                .wrapping_mul(0x9E37_79B9)
                .wrapping_add(self.n as u64),
        );
        let matrix = match self.family {
            WorkloadFamily::Wishart => generate::wishart_default(self.n, &mut rng)?,
            WorkloadFamily::ToeplitzSpd { kernel_len, ridge } => {
                generate::random_spd_toeplitz(self.n, kernel_len, ridge, &mut rng)?
            }
            WorkloadFamily::ToeplitzRaw { max_cond } => {
                generate::random_toeplitz_conditioned(self.n, max_cond, &mut rng)?
            }
            WorkloadFamily::Poisson2d => {
                let (rows, cols) = near_square_factors(self.n);
                generate::poisson_2d(rows, cols)?
            }
            WorkloadFamily::PathLaplacian { ground } => generate::path_laplacian(self.n, ground)?,
            WorkloadFamily::RingLaplacian { ground } => generate::ring_laplacian(self.n, ground)?,
            WorkloadFamily::RandomRegular { degree, ground } => {
                generate::random_regular_laplacian(self.n, degree, ground, &mut rng)?
            }
            WorkloadFamily::Pdn => {
                let (rows, cols) = near_square_factors(self.n);
                let spec = PdnSpec::default_grid(rows, cols);
                pdn_matrix(&spec, &mut rng)?
            }
            WorkloadFamily::SpdWithCondition { cond } => {
                generate::spd_with_condition(self.n, cond, &mut rng)?
            }
        };
        let rhs: Vec<Vec<f64>> = (0..rhs_count)
            .map(|_| generate::random_vector(self.n, &mut rng))
            .collect();
        let meta = measure(&matrix);
        Ok(WorkloadInstance {
            spec: self.clone(),
            matrix,
            rhs,
            meta,
        })
    }
}

/// Measures the metadata of a matrix.
fn measure(a: &Matrix) -> WorkloadMeta {
    let symmetric = a.is_symmetric(1e-12);
    let cond_estimate = match LuFactor::new(a) {
        Ok(lu) => lu.cond_estimate(a.norm_one()),
        Err(_) => f64::INFINITY,
    };
    WorkloadMeta {
        cond_estimate,
        symmetric,
        diagonally_dominant: a.is_diagonally_dominant(),
        spd: symmetric && cholesky::is_spd(a, 1e-14),
    }
}

/// The most nearly square `rows x cols` factorization of `n`
/// (`rows <= cols`, `rows·cols == n`); a prime `n` degenerates to a
/// `1 x n` chain.
pub fn near_square_factors(n: usize) -> (usize, usize) {
    let mut rows = (n as f64).sqrt() as usize;
    while rows > 1 && n % rows != 0 {
        rows -= 1;
    }
    (rows.max(1), n / rows.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative spec per family at size `n`, seeds derived
    /// from `base_seed`.
    fn default_registry(n: usize, base_seed: u64) -> Vec<WorkloadSpec> {
        let families: [(&str, WorkloadFamily); 9] = [
            ("wishart", WorkloadFamily::Wishart),
            (
                "toeplitz-spd",
                WorkloadFamily::ToeplitzSpd {
                    kernel_len: 8,
                    ridge: 0.02,
                },
            ),
            (
                "toeplitz-raw",
                WorkloadFamily::ToeplitzRaw {
                    max_cond: generate::DEFAULT_TOEPLITZ_MAX_COND,
                },
            ),
            ("poisson2d", WorkloadFamily::Poisson2d),
            (
                "path-laplacian",
                WorkloadFamily::PathLaplacian { ground: 0.05 },
            ),
            (
                "ring-laplacian",
                WorkloadFamily::RingLaplacian { ground: 0.05 },
            ),
            (
                "random-regular",
                WorkloadFamily::RandomRegular {
                    degree: 4,
                    ground: 0.2,
                },
            ),
            ("pdn", WorkloadFamily::Pdn),
            (
                "spd-cond-1e4",
                WorkloadFamily::SpdWithCondition { cond: 1e4 },
            ),
        ];
        families
            .into_iter()
            .enumerate()
            .map(|(k, (name, family))| {
                WorkloadSpec::new(name, family, n, base_seed.wrapping_add(101 * k as u64))
            })
            .collect()
    }

    #[test]
    fn near_square_factorization() {
        assert_eq!(near_square_factors(16), (4, 4));
        assert_eq!(near_square_factors(12), (3, 4));
        assert_eq!(near_square_factors(32), (4, 8));
        assert_eq!(near_square_factors(7), (1, 7));
        assert_eq!(near_square_factors(1), (1, 1));
    }

    #[test]
    fn instances_are_deterministic_per_seed() {
        for spec in default_registry(16, 42) {
            let a = spec.instantiate(2).unwrap();
            let b = spec.instantiate(2).unwrap();
            assert_eq!(a, b, "{}", spec.name);
            assert_eq!(a.matrix.shape(), (16, 16));
            assert_eq!(a.rhs.len(), 2);
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        let spec = WorkloadSpec::new("w", WorkloadFamily::Wishart, 0, 1);
        assert!(spec.instantiate(1).is_err());
        let spec = WorkloadSpec::new("w", WorkloadFamily::Wishart, 8, 1);
        assert!(spec.instantiate(0).is_err());
        let spec = WorkloadSpec::new(
            "bad-degree",
            WorkloadFamily::RandomRegular {
                degree: 3,
                ground: 0.1,
            },
            8,
            1,
        );
        assert!(spec.instantiate(1).is_err());
    }

    #[test]
    fn metadata_reflects_the_family() {
        let spd = WorkloadSpec::new("p", WorkloadFamily::Poisson2d, 16, 3)
            .instantiate(1)
            .unwrap();
        assert!(spd.meta.spd && spd.meta.symmetric);
        // 2-D Poisson interior rows are only weakly dominant.
        assert!(!spd.meta.diagonally_dominant);
        assert!(spd.meta.cond_estimate.is_finite());

        let pdn = WorkloadSpec::new("g", WorkloadFamily::Pdn, 12, 3)
            .instantiate(1)
            .unwrap();
        assert!(pdn.meta.spd && pdn.meta.symmetric && pdn.meta.diagonally_dominant);

        let raw = WorkloadSpec::new("t", WorkloadFamily::ToeplitzRaw { max_cond: 1e8 }, 16, 3)
            .instantiate(1)
            .unwrap();
        assert!(!raw.meta.spd, "raw Toeplitz draws are not symmetric");
        assert!(raw.meta.cond_estimate <= 1e8);
    }
}
