//! Area / power / latency models for AMC solvers.
//!
//! Reproduces the macro performance analysis of the BlockAMC paper
//! (§IV.B, Fig. 10): component inventories for the original single-array
//! AMC solver, the one-stage BlockAMC macro, and the two-stage solver,
//! multiplied by a calibrated 45 nm component library.
//!
//! The paper's headline numbers at `n = 512`:
//!
//! | Solver      | Area (mm²) | Area saving | Power saving |
//! |-------------|-----------:|------------:|-------------:|
//! | Original    |    0.01577 |           — |            — |
//! | One-stage   |    0.00807 |       48.3% |          40% |
//! | Two-stage   |    0.01383 |       12.3% |        37.4% |
//!
//! [`params::ComponentParams::calibrated_45nm`] documents how the unit
//! areas/powers were fitted to those totals; [`report`] regenerates the
//! figure.
//!
//! # Example
//!
//! ```
//! use amc_arch::params::ComponentParams;
//! use amc_arch::report::Fig10Report;
//!
//! # fn main() -> Result<(), amc_arch::ArchError> {
//! let report = Fig10Report::compute(512, &ComponentParams::calibrated_45nm())?;
//! // Rows are original, one-stage, two-stage.
//! let area = |i: usize| {
//!     let a = &report.area[i];
//!     a.opa + a.dac + a.adc + a.rram
//! };
//! assert!(area(1) < 0.55 * area(0)); // one-stage ≈48% smaller
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod area;
mod error;
pub mod inventory;
pub mod latency;
pub mod params;
pub(crate) mod power;
pub mod report;
pub mod scaling;

pub use error::ArchError;

/// Convenient result alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, ArchError>;
