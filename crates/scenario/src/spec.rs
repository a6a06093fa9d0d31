//! Campaigns as files: the declarative spec layer over [`Campaign`].
//!
//! A [`CampaignSpec`] is the pure-data mirror of a built [`Campaign`]:
//! every axis (workloads, solver grid, nonideality ladder) plus the
//! trial/sharding/seed knobs, with nothing resolved — engine backends
//! stay as an inline [`EngineSpec`] or a registry *name*. It derives
//! `serde::Serialize` / `serde::Deserialize`, so a campaign can live in
//! a committed JSON file and load back through the same
//! [`Campaign::builder`] path the in-code studies use
//! ([`CampaignSpec::lower`] re-validates everything the builder does).
//!
//! A [`CampaignFile`] pairs a `quick` and a `full` variant of the same
//! study — the on-disk shape of the shipped `campaigns/*.json` files —
//! mirroring the `quick: bool` parameter the in-code constructors in
//! [`crate::campaigns`] take.
//!
//! Lowering is exact: for any campaign,
//! `CampaignSpec::from_campaign(&c).lower(registry)?` compares equal to
//! `c` (same axes, same seeds, same worker default), so file-loaded
//! campaigns produce bit-identical reports to their in-code twins at
//! any worker count.

use std::path::Path;

use blockamc::engine::{EngineRegistry, EngineSpec};
use blockamc::solver::SolverConfig;

use crate::campaign::{Campaign, EngineSel, Nonideality};
use crate::workload::WorkloadSpec;
use crate::{Result, ScenarioError};

/// One named solver configuration of the campaign grid (the spec twin
/// of [`crate::campaign::SolverCell`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolverSpec {
    /// Display label used in reports (unique within a campaign).
    pub label: String,
    /// The solver configuration (decoded through
    /// [`SolverConfig::builder`], so invalid files are rejected with the
    /// builder's own diagnostics).
    pub config: SolverConfig,
}

/// Backend selection as pure data (the spec twin of [`EngineSel`]):
/// an inline engine spec or a name resolved against the campaign's
/// [`EngineRegistry`] at lowering time.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum EngineSelSpec {
    /// An inline backend specification.
    Spec(EngineSpec),
    /// A backend resolved by registry name.
    Registered(String),
}

/// One rung of the nonideality ladder (the spec twin of
/// [`Nonideality`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RungSpec {
    /// Display label used in reports.
    pub label: String,
    /// The backend this rung runs on.
    pub engine: EngineSelSpec,
}

/// A complete campaign as pure data — see the module docs.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignSpec {
    /// Campaign name used in reports and file names.
    pub name: String,
    /// The workload axis.
    pub workloads: Vec<WorkloadSpec>,
    /// The solver-grid axis.
    pub solvers: Vec<SolverSpec>,
    /// The nonideality axis.
    pub ladder: Vec<RungSpec>,
    /// Monte-Carlo trials per cell.
    pub trials: usize,
    /// Right-hand sides drawn per trial.
    pub rhs_per_trial: usize,
    /// Default worker count of [`Campaign::run`] (reports are
    /// bit-identical at any worker count; this only sets the default).
    pub workers: usize,
    /// Base seed all trial streams derive from.
    pub seed: u64,
}

impl CampaignSpec {
    /// Captures a built campaign as pure data. Inverse of
    /// [`CampaignSpec::lower`] up to the engine registry (which is
    /// runtime state, not data: the spec keeps only the *names* of
    /// registered rungs).
    pub fn from_campaign(campaign: &Campaign) -> CampaignSpec {
        CampaignSpec {
            name: campaign.name().to_string(),
            workloads: campaign.workloads().to_vec(),
            solvers: campaign
                .solvers()
                .iter()
                .map(|cell| SolverSpec {
                    label: cell.label.clone(),
                    config: cell.config.clone(),
                })
                .collect(),
            ladder: campaign
                .ladder()
                .iter()
                .map(|rung| RungSpec {
                    label: rung.label.to_string(),
                    engine: match &rung.engine {
                        EngineSel::Spec(spec) => EngineSelSpec::Spec(*spec),
                        EngineSel::Registered(name) => {
                            EngineSelSpec::Registered((*name).to_string())
                        }
                    },
                })
                .collect(),
            trials: campaign.trials(),
            rhs_per_trial: campaign.rhs_per_trial(),
            workers: campaign.workers(),
            seed: campaign.seed(),
        }
    }

    /// Builds the runnable campaign through [`Campaign::builder`],
    /// re-validating every axis and knob exactly like the in-code
    /// constructors (empty axes, zero trials, and unresolvable
    /// registered backends are rejected at [`Campaign::run`] /
    /// builder time, not mid-campaign).
    ///
    /// Labels become `&'static str` by leaking — campaign specs are
    /// loaded a handful of times per process, so the bytes are
    /// negligible and the leak keeps [`Nonideality`]'s zero-cost label
    /// type unchanged.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidSpec`] from the builder's validation.
    pub fn lower(&self, registry: EngineRegistry) -> Result<Campaign> {
        let mut builder = Campaign::builder(self.name.clone())
            .workloads(self.workloads.iter().cloned())
            .trials(self.trials)
            .rhs_per_trial(self.rhs_per_trial)
            .workers(self.workers)
            .seed(self.seed)
            .registry(registry);
        for solver in &self.solvers {
            builder = builder.solver(solver.label.clone(), solver.config.clone());
        }
        for rung in &self.ladder {
            let label: &'static str = Box::leak(rung.label.clone().into_boxed_str());
            builder = builder.nonideality(match &rung.engine {
                EngineSelSpec::Spec(spec) => Nonideality::spec(label, *spec),
                EngineSelSpec::Registered(name) => {
                    Nonideality::registered(label, Box::leak(name.clone().into_boxed_str()))
                }
            });
        }
        builder.finish()
    }
}

/// The on-disk shape of a shipped campaign file: the same study at two
/// scales, selected by the `repro` binary's `--quick` flag.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CampaignFile {
    /// The CI-sized variant (`repro --quick`).
    pub quick: CampaignSpec,
    /// The full study.
    pub full: CampaignSpec,
}

impl CampaignFile {
    /// Selects the variant matching the `--quick` flag.
    pub fn select(&self, quick: bool) -> &CampaignSpec {
        if quick {
            &self.quick
        } else {
            &self.full
        }
    }

    /// Decodes a campaign file from JSON text.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidSpec`] carrying the parser's positioned
    /// message (line/column for syntax errors, a `path` into the
    /// document for schema errors).
    pub fn from_json_str(text: &str) -> Result<CampaignFile> {
        let value = serde::Json::parse(text)
            .map_err(|e| ScenarioError::spec(format!("campaign file: {e}")))?;
        serde::FromConfig::from_json(&value)
            .map_err(|e| ScenarioError::spec(format!("campaign file: {e}")))
    }

    /// Reads and decodes a campaign file from disk.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidSpec`] for I/O failures and everything
    /// [`CampaignFile::from_json_str`] rejects.
    pub fn load(path: impl AsRef<Path>) -> Result<CampaignFile> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path)
            .map_err(|e| ScenarioError::spec(format!("cannot read '{}': {e}", path.display())))?;
        CampaignFile::from_json_str(&text).map_err(|e| match e {
            ScenarioError::InvalidSpec { message } => {
                ScenarioError::spec(format!("{}: {message}", path.display()))
            }
            other => other,
        })
    }

    /// Renders the file as the repo's canonical pretty-printed JSON
    /// (the exact bytes `repro export-campaigns` commits).
    pub fn render(&self) -> String {
        serde::ToConfig::to_json(self).render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaigns;
    use crate::workload::WorkloadFamily;
    use blockamc::solver::{SolverConfig, Stages};

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            name: "tiny".to_string(),
            workloads: vec![WorkloadSpec::new(
                "poisson",
                WorkloadFamily::Poisson2d,
                16,
                1,
            )],
            solvers: vec![SolverSpec {
                label: "one-stage".to_string(),
                config: SolverConfig::builder()
                    .stages(Stages::One)
                    .finish()
                    .unwrap(),
            }],
            ladder: vec![
                RungSpec {
                    label: "numeric".to_string(),
                    engine: EngineSelSpec::Spec(EngineSpec::Numeric),
                },
                RungSpec {
                    label: "by-name".to_string(),
                    engine: EngineSelSpec::Registered("fixed-point".to_string()),
                },
            ],
            trials: 2,
            rhs_per_trial: 1,
            workers: 1,
            seed: 7,
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = tiny_spec();
        let text = serde::ToConfig::to_json(&spec).render();
        let back: CampaignSpec =
            serde::FromConfig::from_json(&serde::Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn lowering_is_the_inverse_of_capture() {
        for quick in [false, true] {
            let campaign = campaigns::engine_ladder(quick).unwrap();
            let spec = CampaignSpec::from_campaign(&campaign);
            let lowered = spec.lower(EngineRegistry::builtin()).unwrap();
            assert_eq!(lowered, campaign);
        }
    }

    #[test]
    fn campaign_file_round_trips_and_selects() {
        let quick = tiny_spec();
        let mut full = tiny_spec();
        full.trials = 10;
        let file = CampaignFile {
            quick: quick.clone(),
            full: full.clone(),
        };
        let back = CampaignFile::from_json_str(&file.render()).unwrap();
        assert_eq!(back, file);
        assert_eq!(back.select(true), &quick);
        assert_eq!(back.select(false), &full);
    }

    #[test]
    fn lowering_validates_like_the_builder() {
        let mut spec = tiny_spec();
        spec.trials = 0;
        let err = spec.lower(EngineRegistry::builtin()).unwrap_err();
        assert!(err.to_string().contains("trial"), "{err}");
    }

    #[test]
    fn malformed_files_are_rejected_with_positions() {
        let err = CampaignFile::from_json_str("{\n  \"quick\": ?\n}").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("line 2"), "{msg}");

        let spec = tiny_spec();
        let file = CampaignFile {
            quick: spec.clone(),
            full: spec,
        };
        let misspelled = file.render().replace("\"trials\"", "\"trails\"");
        let err = CampaignFile::from_json_str(&misspelled).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("trails") && msg.contains("trials"), "{msg}");
    }
}
