//! Analog circuit simulation of in-memory analog matrix computing (AMC).
//!
//! This crate is the reproduction's substitute for the paper's HSPICE
//! simulations. The BlockAMC accuracy experiments are DC operating-point
//! analyses of linear resistive networks around (ideal or finite-gain)
//! op-amps; this crate computes the same equilibria directly:
//!
//! * [`opamp`] — op-amp models: ideal (infinite gain), finite open-loop
//!   gain, output saturation, gain-bandwidth product for timing.
//! * [`mvm`] — the matrix-vector-multiplication circuit of Fig. 1(a):
//!   transimpedance amplifiers (TIAs) collect word-line currents, giving
//!   `v_out = −(G/G₀)·v_in`.
//! * [`inv`] — the inversion circuit of Fig. 1(b): op-amp outputs feed back
//!   through the array, settling to `v_out = −(G/G₀)⁻¹·v_in`, i.e. the
//!   circuit *solves the linear system in one step*.
//! * [`interconnect`] — wire-resistance models.
//!   [`interconnect::InterconnectModel::SeriesApprox`] folds per-cell
//!   accumulated wire resistance into the conductances in O(m·n);
//!   [`grid::ResistiveGrid`] solves the *exact* 2-D resistive ladder
//!   network (every wire segment an explicit resistor) via sparse
//!   conjugate gradients — bit-for-bit the paper's circuit at 1 Ω/segment.
//! * [`timing`] — settling-time estimates: MVM time is linear in the
//!   largest row-conductance sum (Sun & Huang, TCAS-II 2021); INV time is
//!   set by the smallest eigenvalue of the normalized matrix and the
//!   op-amp GBWP (Sun et al., T-ED 2020).
//! * [`power`] — static power of arrays and op-amps at the DC operating
//!   point.
//! * [`pdn`] — power-delivery-network grids, assembled as conductance
//!   netlists and exported as SPD linear-system workloads for the scenario
//!   registry.
//! * [`sim`] — the [`sim::AnalogSimulator`] facade combining all of the
//!   above; this is what the BlockAMC engine drives. Each operation
//!   splits into an input-independent prepare, done once per programmed
//!   array ([`sim::PreparedInv`] holds the factorised feedback system),
//!   and a per-input apply.
//!
//! # Example
//!
//! ```
//! use amc_circuit::sim::{AnalogSimulator, SimConfig};
//! use amc_device::array::ProgrammedMatrix;
//! use amc_device::mapping::MappingConfig;
//! use amc_device::variation::VariationModel;
//! use amc_linalg::Matrix;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), amc_circuit::CircuitError> {
//! let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]])?;
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let programmed = ProgrammedMatrix::program(
//!     &a,
//!     &MappingConfig::paper_default(),
//!     &VariationModel::None,
//!     &mut rng,
//! )?;
//! let sim = AnalogSimulator::new(SimConfig::ideal());
//! // The INV circuit solves A·x = b in one step (output carries a minus
//! // sign; voltages are in normalized units here, see `sim`).
//! let out = sim.inv(&programmed, &[0.3, 0.4])?;
//! let x: Vec<f64> = out.values.iter().map(|v| -v).collect();
//! let b = a.matvec(&x)?;
//! assert!((b[0] - 0.3).abs() < 1e-9 && (b[1] - 0.4).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod grid;
pub mod interconnect;
pub mod inv;
pub(crate) mod mna;
pub mod mvm;
pub mod opamp;
pub mod pdn;
pub mod power;
pub mod sim;
pub mod timing;
pub mod transient;

pub use error::CircuitError;

/// Convenient result alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, CircuitError>;
