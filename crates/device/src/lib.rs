//! RRAM device and crossbar-array models for the BlockAMC reproduction.
//!
//! The BlockAMC paper (DATE 2024) assumes analog RRAM devices: nonvolatile,
//! continuously tunable conductances arranged in a crosspoint array. In its
//! simulations "each RRAM device is equivalent to a resistor with a specific
//! conductance given by matrix mapping", perturbed by Gaussian programming
//! variation with σ = 0.05·G₀. This crate implements exactly that device
//! abstraction, plus the practical machinery around it:
//!
//! * [`variation::VariationModel`] — programming-noise models (none /
//!   Gaussian / lognormal), applied at write-and-verify time.
//! * [`quant::Quantizer`] — finite conductance-level quantization, for
//!   studying devices with a discrete number of programmable states.
//! * [`faults::FaultModel`] — stuck-at-ON / stuck-at-OFF cells (the paper's
//!   motivation mentions cells that "get stuck … losing the tunability").
//! * [`mapping`] — the matrix → conductance mapping used by every AMC
//!   circuit: normalization so the largest element maps to the full
//!   conductance scale, the split `A = A⁺ − A⁻` onto two arrays (device
//!   conductances are non-negative), and the unit conductance `G₀`
//!   (100 µS in the paper).
//! * [`array::CrossbarArray`] and [`array::ProgrammedMatrix`] — programmed
//!   crosspoint arrays, the unit the circuit crate builds MVM/INV
//!   topologies around.
//!
//! # Example
//!
//! ```
//! use amc_device::mapping::MappingConfig;
//! use amc_device::array::ProgrammedMatrix;
//! use amc_device::variation::VariationModel;
//! use amc_linalg::Matrix;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), amc_device::DeviceError> {
//! let a = Matrix::from_rows(&[&[1.0, -0.5], &[0.25, 2.0]])?;
//! let cfg = MappingConfig::paper_default();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let programmed = ProgrammedMatrix::program(&a, &cfg, &VariationModel::None, &mut rng)?;
//! // With no variation, reading back recovers the matrix exactly.
//! let read = programmed.effective_matrix();
//! assert!(read.approx_eq(&a, 1e-12));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod array;
pub mod drift;
mod error;
pub mod faults;
pub mod mapping;
pub mod program_cost;
pub mod quant;
pub mod variation;

pub use error::DeviceError;

/// Convenient result alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, DeviceError>;
