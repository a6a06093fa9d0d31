//! # amc-scenario — declarative workloads and the campaign engine
//!
//! The reproduction's studies used to be imperative: every new question
//! (depth tolerance, split rules, worker scaling, …) meant another
//! hand-coded sweep in the repro binary. This crate turns a study into
//! **data**:
//!
//! * [`workload`] — a registry of linear-system families behind one
//!   spec type: [`WorkloadSpec`] `{ name, family, n, seed }` →
//!   matrix + RHS stream + measured metadata. Families span the paper's
//!   benchmarks (Wishart, Toeplitz) and new scenario-diverse ones:
//!   2-D Poisson, grounded graph Laplacians, power-delivery-network
//!   matrices exported from `amc_circuit::mna` netlists, and a
//!   condition-targeted SPD family.
//! * [`campaign`] — the engine: a [`Campaign`] crosses workloads × a
//!   named [`SolverConfig`](blockamc::solver::SolverConfig) grid × a
//!   nonideality ladder × Monte-Carlo trials, shards trials over
//!   `amc-par` workers (bit-identical to serial at any worker count),
//!   and emits per-cell [`CellRecord`]s: error statistics,
//!   engine-measured analog cost, and `amc-arch` cascade-model scoring.
//!   Each [`Nonideality`] rung selects its backend as data — an inline
//!   [`EngineSpec`](blockamc::engine::EngineSpec) or a name resolved in
//!   the campaign's
//!   [`EngineRegistry`](blockamc::engine::EngineRegistry)
//!   ([`EngineSel`]); every trial's executor is built behind
//!   `Box<dyn AmcEngine>` from selection + seed.
//! * [`campaigns`] — the shipped studies:
//!   depth sweep with per-level bus placement, `Searched` vs `Halves`
//!   splits on ill-conditioned families, the worker-scaling campaign,
//!   and the engine ladder comparing every shipped backend.
//! * [`spec`] — campaigns as *files*: [`CampaignSpec`] is the pure-data
//!   mirror of a built [`Campaign`] (serialized with `amc-config`'s
//!   strict JSON), [`CampaignFile`] pairs a `quick` and a `full`
//!   variant, and [`CampaignSpec::lower`] rebuilds the runnable
//!   campaign through [`Campaign::builder`] — file-loaded studies are
//!   bit-identical to their in-code twins at any worker count.
//!
//! # Example
//!
//! ```
//! use amc_scenario::campaign::{Campaign, Nonideality};
//! use amc_scenario::workload::{WorkloadFamily, WorkloadSpec};
//! use blockamc::engine::CircuitEngineConfig;
//! use blockamc::solver::{SolverConfig, Stages};
//!
//! # fn main() -> Result<(), amc_scenario::ScenarioError> {
//! let campaign = Campaign::builder("example")
//!     .workload(WorkloadSpec::new("poisson", WorkloadFamily::Poisson2d, 16, 1))
//!     .solver(
//!         "one-stage",
//!         SolverConfig::builder().stages(Stages::One).finish()?,
//!     )
//!     .nonideality(Nonideality::circuit(
//!         "variation",
//!         CircuitEngineConfig::paper_variation(),
//!     ))
//!     .trials(3)
//!     .finish()?;
//! let report = campaign.run()?;
//! assert_eq!(report.cells.len(), 1);
//! assert!(report.cells[0].errors.mean > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod campaigns;
mod error;
pub mod lifetime;
pub mod spec;
pub mod workload;

pub use campaign::{Campaign, CampaignReport, CellRecord, EngineSel, Nonideality, SolverCell};
pub use error::ScenarioError;
pub use spec::{CampaignFile, CampaignSpec, EngineSelSpec, RungSpec, SolverSpec};
pub use workload::{WorkloadFamily, WorkloadInstance, WorkloadMeta, WorkloadSpec};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, ScenarioError>;
