//! # BlockAMC — scalable in-memory analog matrix computing
//!
//! Reproduction of *"BlockAMC: Scalable In-Memory Analog Matrix Computing
//! for Solving Linear Systems"* (Pan, Zuo, Luo, Sun, Huang — DATE 2024).
//!
//! A single in-memory INV circuit solves `A·x = b` in one step, but does
//! not scale past the manufacturable crossbar size. BlockAMC partitions
//!
//! ```text
//! A = [ A1  A2 ]      b = [ f ]
//!     [ A3  A4 ]          [ g ]
//! ```
//!
//! pre-computes the Schur complement `A4s = A4 − A3·A1⁻¹·A2` digitally,
//! and recovers the full solution with five cascaded analog operations
//! (3×INV + 2×MVM) on half-size arrays ([`solver::Stages::One`]).
//! Recursion yields the two-stage solver on quarter-size arrays
//! ([`solver::Stages::Two`]) and, in general, a cascade of any depth
//! ([`solver::Stages::Multi`]).
//!
//! All of them are faces of **one recursive execution core**: the
//! five-step cascade is implemented exactly once (in `multi_stage`),
//! and the one-/two-stage solvers are depth-1/depth-2 partition trees
//! with the macro and bus signal paths layered on.
//!
//! The algorithm is written once against the object-safe
//! [`engine::AmcEngine`] trait, and the set of backends is **open**:
//! each backend owns its programmed state ([`engine::OperandState`]),
//! is selectable as data through a serializable [`engine::EngineSpec`]
//! or a name in the [`engine::EngineRegistry`], and drives the whole
//! stack through `Box<dyn AmcEngine>` bit-identically to the concrete
//! type. The shipped backends range from the exact digital reference
//! through `b`-bit fixed-point digital solvers to the
//! full analog device + circuit stack — see
//! [`engine::EngineRegistry::builtin`] for the authoritative list.
//!
//! [`solver::BlockAmcSolver`] is the one public way to prepare and
//! solve, configured through [`solver::SolverConfig::builder`]: pick an
//! architecture ([`solver::Stages`]), a per-level signal-path plan
//! ([`solver::SignalPlan`]), and a split rule ([`solver::SplitRule`]),
//! then [`solver::BlockAmcSolver::prepare`] programs every array once
//! and the returned [`solver::PreparedSolver`] amortizes that
//! programming over any number of right-hand sides (§III.B).
//! [`macro_model`] describes the reconfigurable hardware macro (clock
//! phases S0–S4, transmission-gate topologies, S&H pipelining) and its
//! timing.
//!
//! Multi-RHS batches parallelize across worker threads:
//! [`solver::SolverReplica::solve_batch_parallel`] shards a batch over
//! replicated macro instances ([`solver::PreparedSolver::replicate`]) on
//! the `amc_par` work-stealing pool, **bit-identical to
//! [`solver::SolverReplica::solve_batch`] at every worker count**
//! (replicas inherit the prepare-time variation draw).
//!
//! # Quickstart
//!
//! ```
//! use blockamc::engine::NumericEngine;
//! use blockamc::solver::{SolverConfig, Stages};
//! use amc_linalg::{generate, Matrix};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), blockamc::BlockAmcError> {
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
//! let a = generate::wishart_default(8, &mut rng)?;
//! let b = generate::random_vector(8, &mut rng);
//!
//! let mut solver = SolverConfig::builder()
//!     .stages(Stages::One)
//!     .build(NumericEngine::new())?;
//!
//! // Program the arrays once, then solve any number of right-hand sides.
//! let mut prepared = solver.prepare(&a)?;
//! let report = prepared.solve(&b)?;
//! let residual = amc_linalg::vector::sub(&a.matvec(&report.x)?, &b);
//! assert!(amc_linalg::vector::norm2(&residual) < 1e-9);
//! assert_eq!(report.stats_delta.program_ops, 0); // arrays were reused
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aging;
pub mod batch;
pub mod converter;
pub mod engine;
mod error;
pub mod macro_model;
pub mod montecarlo;
pub(crate) mod multi_stage;
pub mod partition;
pub mod refine;
pub mod solver;
pub(crate) mod split_search;

// Facade tests of `Stages::One` and `Stages::Two`, kept at the module
// paths the one-stage and two-stage solvers used to live at, so the
// test names stay stable.
#[cfg(test)]
#[path = "stage_tests/one_stage.rs"]
mod one_stage;
#[cfg(test)]
#[path = "stage_tests/two_stage.rs"]
mod two_stage;

pub use error::BlockAmcError;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, BlockAmcError>;
