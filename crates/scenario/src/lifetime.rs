//! Streaming lifetime campaigns: policy × workload reliability traces.
//!
//! A [`LifetimeCampaign`] drives a long request trace through an aging
//! solver ([`blockamc::aging::AgedSolver`]): per tick the arrays drift
//! and accumulate stuck cells, a [`RepairPolicy`] decides between
//! serving degraded, CG refinement, and write-and-verify
//! reprogramming, and the campaign records accuracy, programming
//! energy, SLO availability, and repair count — the data behind the
//! policy frontier `repro lifetime` emits.
//!
//! Cells (`workload × policy`) are sharded over `amc-par` workers with
//! the same determinism contract as [`crate::campaign::Campaign`]:
//! every random stream is keyed on `(campaign seed, cell indices,
//! tick)`, never on scheduling, so the tick-by-tick report is
//! **bit-identical at any worker count** —
//! [`run_lifetime_worker_sweep`] checks it.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use blockamc::aging::{AgedSolver, AgingModel, RepairScheduler, TickRecord};
use blockamc::engine::NumericEngine;
use blockamc::solver::{BlockAmcSolver, SolverConfig};

use crate::error::ScenarioError;
use crate::workload::WorkloadSpec;
use crate::Result;

pub use blockamc::aging::RepairPolicy;

/// One named repair policy on the campaign's policy axis.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyCell {
    /// Display label used in reports.
    pub label: String,
    /// The scheduler policy.
    pub policy: RepairPolicy,
}

/// A declarative lifetime study: workloads × repair policies, one
/// streaming trace per cell.
#[derive(Debug, Clone)]
pub struct LifetimeCampaign {
    name: String,
    workloads: Vec<WorkloadSpec>,
    policies: Vec<PolicyCell>,
    model: AgingModel,
    ticks: usize,
    rhs_per_tick: usize,
    seed: u64,
}

/// Builder for [`LifetimeCampaign`] — validated by
/// [`LifetimeCampaignBuilder::finish`].
#[derive(Debug, Clone)]
pub struct LifetimeCampaignBuilder {
    campaign: LifetimeCampaign,
}

impl LifetimeCampaign {
    /// Starts a builder. Every cell prepares the facade's default solver
    /// config on the exact `numeric` backend. Defaults:
    /// [`AgingModel::typical_rram`], 50 ticks, 2 RHS per tick, seed 0.
    pub fn builder(name: impl Into<String>) -> LifetimeCampaignBuilder {
        LifetimeCampaignBuilder {
            campaign: LifetimeCampaign {
                name: name.into(),
                workloads: Vec::new(),
                policies: Vec::new(),
                model: AgingModel::typical_rram(),
                ticks: 50,
                rhs_per_tick: 2,
                seed: 0,
            },
        }
    }

    /// Campaign name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload axis.
    pub fn workloads(&self) -> &[WorkloadSpec] {
        &self.workloads
    }

    /// The policy axis.
    pub fn policies(&self) -> &[PolicyCell] {
        &self.policies
    }

    /// Ticks per trace.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// Runs the campaign, sharding cells over `workers` threads.
    ///
    /// The report is bit-identical at every worker count: cells are
    /// independent, merged in index order, and all randomness inside a
    /// cell is keyed on `(seed, workload index, policy index, tick)`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidSpec`] for `workers == 0` or a
    /// config/workload mismatch (reported up front, naming the cell);
    /// solver/aging failures from the traces themselves.
    pub fn run_with_workers(&self, workers: usize) -> Result<LifetimeReport> {
        if workers == 0 {
            return Err(ScenarioError::spec(
                "lifetime campaign needs at least one worker",
            ));
        }
        // Fail fast before any trace runs: every policy and the model
        // were validated at build time; the config × workload grid is
        // checked here, naming the offender.
        let config = SolverConfig::builder()
            .finish()
            .expect("default solver config is valid");
        for w in &self.workloads {
            config.validate_for_size(w.n).map_err(|e| {
                ScenarioError::spec(format!("workload '{}' (n={}): {e}", w.name, w.n))
            })?;
        }

        let jobs: Vec<(usize, usize)> = (0..self.workloads.len())
            .flat_map(|w| (0..self.policies.len()).map(move |p| (w, p)))
            .collect();
        let results = amc_par::map_indexed(workers, jobs, |_, (w, p)| self.run_cell(w, p, &config));
        let mut cells = Vec::with_capacity(results.len());
        for r in results {
            cells.push(r?);
        }
        Ok(LifetimeReport {
            name: self.name.clone(),
            ticks: self.ticks,
            rhs_per_tick: self.rhs_per_tick,
            cells,
        })
    }

    /// Runs one `(workload, policy)` cell: prepare once, then stream
    /// `ticks` scheduler ticks with fresh per-tick right-hand sides.
    fn run_cell(&self, w: usize, p: usize, config: &SolverConfig) -> Result<LifetimeCellRecord> {
        let spec = &self.workloads[w];
        let cell = &self.policies[p];
        let cell_seed = cell_seed(self.seed, w, p);

        // The campaign streams its own per-tick RHS trace; the
        // instance's single RHS is unused.
        let instance = spec.instantiate(1)?;
        let mut solver = BlockAmcSolver::from_config(NumericEngine::new(), config.clone());
        let replica = solver.prepare(&instance.matrix)?.replicate(1).remove(0);
        let mut aged = AgedSolver::new(replica, instance.matrix, self.model, cell_seed)?;
        let mut scheduler = RepairScheduler::new(cell.policy)?;

        let mut trace_rng = ChaCha8Rng::seed_from_u64(cell_seed.wrapping_add(0x9E37_79B9));
        let mut ticks = Vec::with_capacity(self.ticks);
        for _ in 0..self.ticks {
            let rhs: Vec<Vec<f64>> = (0..self.rhs_per_tick)
                .map(|_| {
                    (0..spec.n)
                        .map(|_| trace_rng.gen::<f64>() * 2.0 - 1.0)
                        .collect()
                })
                .collect();
            ticks.push(aged.run_tick(&mut scheduler, &rhs)?);
        }

        let summary = LifetimeSummary::from_ticks(&ticks);
        Ok(LifetimeCellRecord {
            workload: spec.name.clone(),
            family: spec.family.key().to_string(),
            n: spec.n,
            policy: cell.label.clone(),
            arrays: aged.array_count(),
            stuck_cells: aged.stuck_cells(),
            ticks,
            summary,
        })
    }
}

/// Derives one cell's seed from the campaign seed and the cell's grid
/// coordinates — the same hash shape as the campaign engine's
/// `trial_seed`, so cells land in independent streams.
fn cell_seed(base: u64, w: usize, p: usize) -> u64 {
    let mut h = base ^ 0x517C_C1B7_2722_0A95;
    for v in [w as u64 + 1, p as u64 + 1] {
        h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    h
}

/// Aggregates of one cell's trace — the numbers a policy-frontier
/// table is made of.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeSummary {
    /// Mean served relative residual over all ticks.
    pub mean_accuracy: f64,
    /// Worst served relative residual over all ticks.
    pub worst_accuracy: f64,
    /// Total write-and-verify energy spent (J).
    pub total_energy_j: f64,
    /// Mean SLO availability over all ticks.
    pub mean_availability: f64,
    /// Total arrays reprogrammed.
    pub total_repairs: u64,
    /// Ticks that served through CG refinement.
    pub refine_ticks: u64,
    /// Total CG iterations saved by warm-starting from degraded
    /// answers (across all refined ticks).
    pub iterations_saved: i64,
    /// Ticks whose served answers missed the SLO (availability 0).
    pub degraded_ticks: u64,
}

impl LifetimeSummary {
    /// Summarizes a trace in tick order (deterministic aggregation).
    pub(crate) fn from_ticks(ticks: &[TickRecord]) -> Self {
        let count = ticks.len().max(1) as f64;
        let mut s = LifetimeSummary {
            mean_accuracy: 0.0,
            worst_accuracy: 0.0,
            total_energy_j: 0.0,
            mean_availability: 0.0,
            total_repairs: 0,
            refine_ticks: 0,
            iterations_saved: 0,
            degraded_ticks: 0,
        };
        for t in ticks {
            s.mean_accuracy += t.accuracy / count;
            s.worst_accuracy = s.worst_accuracy.max(t.accuracy);
            s.total_energy_j += t.energy_j;
            s.mean_availability += t.availability / count;
            s.total_repairs += t.arrays_reprogrammed;
            s.refine_ticks += u64::from(t.refine_iterations > 0);
            s.iterations_saved += t.iterations_saved;
            s.degraded_ticks += u64::from(t.availability == 0.0);
        }
        s
    }
}

/// One cell of a lifetime report: a full tick-by-tick trace plus its
/// summary.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeCellRecord {
    /// Workload display name.
    pub workload: String,
    /// Workload family key.
    pub family: String,
    /// Problem size.
    pub n: usize,
    /// Policy label.
    pub policy: String,
    /// Programmed arrays aging in the cell's solver.
    pub arrays: usize,
    /// Stuck cells accumulated by the end of the trace.
    pub stuck_cells: usize,
    /// The tick-by-tick trace.
    pub ticks: Vec<TickRecord>,
    /// Trace aggregates.
    pub summary: LifetimeSummary,
}

/// A full lifetime campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeReport {
    /// Campaign name.
    pub name: String,
    /// Ticks per trace.
    pub ticks: usize,
    /// Right-hand sides served per tick.
    pub rhs_per_tick: usize,
    /// One record per `workload × policy` cell, workload-major.
    pub cells: Vec<LifetimeCellRecord>,
}

impl LifetimeReport {
    /// The report's repair/refine/degraded totals as a metrics
    /// snapshot — the same queryable surface the server exposes, built
    /// purely from the (deterministic) report so it is bit-identical
    /// at any worker count.
    pub fn metrics(&self) -> amc_obs::MetricsSnapshot {
        let registry = amc_obs::Registry::new();
        registry
            .counter("lifetime.cells")
            .set(self.cells.len() as u64);
        registry
            .counter("lifetime.ticks")
            .set(self.cells.iter().map(|c| c.ticks.len() as u64).sum());
        let repairs = registry.counter("lifetime.total_repairs");
        let refines = registry.counter("lifetime.refine_ticks");
        let degraded = registry.counter("lifetime.degraded_ticks");
        let repairs_per_tick = registry.histogram("lifetime.repairs_per_tick");
        for cell in &self.cells {
            repairs.add(cell.summary.total_repairs);
            refines.add(cell.summary.refine_ticks);
            degraded.add(cell.summary.degraded_ticks);
            for tick in &cell.ticks {
                repairs_per_tick.record(tick.arrays_reprogrammed);
            }
        }
        registry.snapshot()
    }
}

/// The result of [`run_lifetime_worker_sweep`].
#[derive(Debug, Clone)]
pub struct LifetimeWorkerSweep {
    /// The report (identical at every worker count).
    pub report: LifetimeReport,
    /// Whether every worker count reproduced the first report bitwise.
    pub bit_identical: bool,
}

/// Runs `campaign` once per entry of `worker_counts`, checking the
/// tick-by-tick reports agree bitwise — the lifetime determinism
/// contract, checked.
///
/// # Errors
///
/// [`ScenarioError::InvalidSpec`] for an empty `worker_counts`;
/// campaign failures per run.
pub fn run_lifetime_worker_sweep(
    campaign: &LifetimeCampaign,
    worker_counts: &[usize],
) -> Result<LifetimeWorkerSweep> {
    let Some((&first, rest)) = worker_counts.split_first() else {
        return Err(ScenarioError::spec("worker sweep needs at least one count"));
    };
    let report = campaign.run_with_workers(first)?;
    let mut bit_identical = true;
    for &workers in rest {
        bit_identical &= campaign.run_with_workers(workers)? == report;
    }
    Ok(LifetimeWorkerSweep {
        report,
        bit_identical,
    })
}

impl LifetimeCampaignBuilder {
    /// Adds one workload spec.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.campaign.workloads.push(spec);
        self
    }

    /// Adds one labelled repair policy.
    pub fn policy(mut self, label: impl Into<String>, policy: RepairPolicy) -> Self {
        self.campaign.policies.push(PolicyCell {
            label: label.into(),
            policy,
        });
        self
    }

    /// Sets the lifetime model.
    pub fn model(mut self, model: AgingModel) -> Self {
        self.campaign.model = model;
        self
    }

    /// Sets the trace length in ticks.
    pub fn ticks(mut self, ticks: usize) -> Self {
        self.campaign.ticks = ticks;
        self
    }

    /// Sets the right-hand sides served per tick.
    pub fn rhs_per_tick(mut self, rhs: usize) -> Self {
        self.campaign.rhs_per_tick = rhs;
        self
    }

    /// Sets the campaign base seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.campaign.seed = seed;
        self
    }

    /// Validates and returns the campaign — fail-fast: empty axes,
    /// zero counts, invalid policies, and invalid drift/fault/cost
    /// model parameters are all rejected here, before any trace runs.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidSpec`] (or the wrapped
    /// `InvalidConfig` from the aging layer) naming the offending
    /// parameter.
    pub fn finish(self) -> Result<LifetimeCampaign> {
        let c = self.campaign;
        if c.workloads.is_empty() {
            return Err(ScenarioError::spec(
                "lifetime campaign needs at least one workload",
            ));
        }
        if c.policies.is_empty() {
            return Err(ScenarioError::spec(
                "lifetime campaign needs at least one policy",
            ));
        }
        if c.ticks == 0 {
            return Err(ScenarioError::spec(
                "lifetime campaign needs at least one tick",
            ));
        }
        if c.rhs_per_tick == 0 {
            return Err(ScenarioError::spec(
                "lifetime campaign needs at least one RHS per tick",
            ));
        }
        c.model.validate().map_err(ScenarioError::from)?;
        for cell in &c.policies {
            cell.policy
                .validate()
                .map_err(|e| ScenarioError::spec(format!("policy '{}': {e}", cell.label)))?;
        }
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadFamily;
    use amc_device::drift::DriftModel;

    fn accelerated_model() -> AgingModel {
        AgingModel {
            drift: DriftModel {
                nu: 0.05,
                nu_sigma: 0.01,
                t0_s: 1.0,
            },
            tick_s: 100.0,
            ..AgingModel::typical_rram()
        }
    }

    fn tiny_campaign() -> LifetimeCampaign {
        LifetimeCampaign::builder("tiny")
            .workload(WorkloadSpec::new("wishart", WorkloadFamily::Wishart, 8, 1))
            .policy("never", RepairPolicy::Never)
            .policy(
                "threshold",
                RepairPolicy::ResidualThreshold {
                    refine_above: 1e-6,
                    reprogram_above: 1e-2,
                },
            )
            .model(accelerated_model())
            .ticks(6)
            .rhs_per_tick(1)
            .seed(3)
            .finish()
            .unwrap()
    }

    #[test]
    fn report_is_bit_identical_across_worker_counts() {
        let sweep = run_lifetime_worker_sweep(&tiny_campaign(), &[1, 2, 4]).unwrap();
        assert!(sweep.bit_identical);
        assert_eq!(sweep.report.cells.len(), 2);
        assert_eq!(sweep.report.cells[0].ticks.len(), 6);
    }

    #[test]
    fn never_policy_degrades_and_threshold_holds_the_slo() {
        let report = tiny_campaign().run_with_workers(1).unwrap();
        let never = &report.cells[0];
        let threshold = &report.cells[1];
        assert_eq!(never.policy, "never");
        assert!(never.summary.total_energy_j == 0.0);
        assert!(
            threshold.summary.mean_accuracy <= never.summary.mean_accuracy,
            "repairing must not serve worse answers: {} vs {}",
            threshold.summary.mean_accuracy,
            never.summary.mean_accuracy
        );
    }

    #[test]
    fn invalid_campaigns_fail_fast() {
        assert!(LifetimeCampaign::builder("empty").finish().is_err());
        // Invalid policy parameters are rejected at build time.
        let bad_policy = LifetimeCampaign::builder("t")
            .workload(WorkloadSpec::new("w", WorkloadFamily::Wishart, 8, 1))
            .policy(
                "inverted",
                RepairPolicy::ResidualThreshold {
                    refine_above: 1e-2,
                    reprogram_above: 1e-6,
                },
            )
            .finish();
        assert!(bad_policy.is_err());
        // Invalid device-model parameters are rejected at build time.
        let mut model = AgingModel::typical_rram();
        model.tick_s = -1.0;
        let bad_model = LifetimeCampaign::builder("t")
            .workload(WorkloadSpec::new("w", WorkloadFamily::Wishart, 8, 1))
            .policy("never", RepairPolicy::Never)
            .model(model)
            .finish();
        assert!(bad_model.is_err());
    }
}
