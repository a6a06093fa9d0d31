//! Dense and sparse linear-algebra substrate for the BlockAMC reproduction.
//!
//! This crate is a from-scratch numerical kernel written for the
//! [BlockAMC](https://arxiv.org/abs/2401.10042) (DATE 2024) reproduction.
//! It intentionally avoids external linear-algebra dependencies so that the
//! whole simulation stack — from LU factorisation up to the analog circuit
//! solver — is auditable in one workspace.
//!
//! # What lives here
//!
//! * [`Matrix`] — a dense, row-major, `f64` matrix with block extraction and
//!   composition helpers used heavily by the BlockAMC partitioner.
//! * [`lu::LuFactor`] — partial-pivot LU with solves, inverse, determinant
//!   and a condition-number estimate. This is the "numerical solver"
//!   baseline the paper compares against.
//! * [`cholesky::CholeskyFactor`] — the factorization for SPD systems
//!   (Wishart matrices are SPD).
//! * [`sparse::CsrMatrix`] — compressed sparse row storage for the circuit
//!   crate's modified-nodal-analysis grids.
//! * [`iterative`] — conjugate gradient with identity and Jacobi
//!   preconditioners (used both by the circuit grid solver and by the "AMC
//!   as a seed/preconditioner" experiments).
//! * [`generate`] — seeded generators for the paper's workloads (Wishart and
//!   Toeplitz matrices) plus auxiliary families used by examples and tests.
//! * [`metrics`] — the paper's relative-error definition (eq. 6) and the
//!   usual vector/matrix norms.
//! * [`vector`] — small helpers over `&[f64]` slices.
//!
//! # Example
//!
//! ```
//! use amc_linalg::{Matrix, lu::LuFactor};
//!
//! # fn main() -> Result<(), amc_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let b = [1.0, 2.0];
//! let lu = LuFactor::new(&a)?;
//! let x = lu.solve(&b)?;
//! let r = a.matvec(&x)?;
//! assert!((r[0] - b[0]).abs() < 1e-12 && (r[1] - b[1]).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cholesky;
pub mod eigen;
mod error;
pub mod generate;
pub mod iterative;
pub mod lu;
mod matrix;
pub mod metrics;
pub mod sparse;
pub mod vector;

pub use error::LinalgError;
pub use matrix::Matrix;

/// Convenient result alias used across the crate.
pub(crate) type Result<T> = std::result::Result<T, LinalgError>;
