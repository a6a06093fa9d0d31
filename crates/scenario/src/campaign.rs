//! The campaign engine: `workloads × solver grid × nonideality ladder ×
//! trials`, executed by one engine, reported as data.
//!
//! A [`Campaign`] is the declarative cross product the repro binary used
//! to hand-code per study: a list of [`WorkloadSpec`]s, a grid of named
//! facade [`SolverConfig`]s, a ladder of named analog nonideality
//! levels, and a trial count. [`Campaign::run`] executes every cell —
//! each trial programs a fresh "manufactured part" through
//! [`BlockAmcSolver::prepare`] and streams the cell's right-hand sides
//! through the returned [`PreparedSolver`](blockamc::solver::PreparedSolver)
//! (arrays programmed once per trial, the paper's §III.B amortization) —
//! and aggregates per-cell records: error statistics, engine-measured
//! analog cost, and `amc-arch` cascade-model scoring.
//!
//! ## Execution
//!
//! [`Campaign::run_with_workers`] is one `amc-par` pass. Its jobs are the
//! trials of every cell, plus one arch-model latency job per distinct
//! (workload, cascade depth, op-amp, settle ε): cells that agree on all
//! four share that latency. A workload's setup (instantiation, the
//! solver-size checks, one reference LU and the reference solves) sits
//! in a `OnceLock` that the first job needing it fills. Jobs are dealt
//! with the workloads interleaved, so each worker starts on a different
//! workload's setup; only building the job list and folding the results
//! run outside the pool. After a failed setup the remaining jobs skip
//! their work, and the run returns the first error in workload order —
//! the one a serial setup loop would have met first.
//!
//! ## Determinism contract
//!
//! A trial's engine seed depends only on the campaign seed and the
//! cell/trial indices — never on the worker that runs it. Setups and
//! latencies are pure functions of the campaign, and every result is
//! put back in its cell's slot before any statistic is computed, so a
//! [`CampaignReport`] is **bit-identical at every worker count** (pinned
//! by `tests/campaign_equivalence.rs`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};

use amc_circuit::opamp::OpAmpSpec;
use amc_circuit::timing;
use amc_linalg::{lu, metrics, Matrix};
use blockamc::engine::{AmcEngine, CircuitEngineConfig, EngineRegistry, EngineSpec, EngineStats};
use blockamc::solver::{BlockAmcSolver, SolverConfig};

use crate::workload::{WorkloadInstance, WorkloadMeta, WorkloadSpec};
use crate::{Result, ScenarioError};

/// One named solver configuration of the campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverCell {
    /// Display label (unique within a campaign).
    pub label: String,
    /// The facade configuration.
    pub config: SolverConfig,
}

/// How a nonideality rung selects its engine backend: an inline
/// [`EngineSpec`], or a name resolved against the campaign's
/// [`EngineRegistry`] at trial time.
///
/// The registered form is the open half of the backend API: a crate
/// core never heard of registers a constructor under a name
/// ([`EngineRegistry::register`]) and a campaign rung runs it purely by
/// that name.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineSel {
    /// An inline spec, built directly ([`EngineSpec::build`]).
    Spec(EngineSpec),
    /// A name looked up in the campaign's registry
    /// ([`EngineRegistry::build`]).
    Registered(&'static str),
}

impl EngineSel {
    /// The backend name this selection runs (registry key / spec name).
    pub(crate) fn name(&self) -> &'static str {
        match self {
            EngineSel::Spec(spec) => spec.name(),
            EngineSel::Registered(name) => name,
        }
    }

    /// The analog stack configuration, for inline circuit specs.
    /// Registered backends expose no circuit model (the analog
    /// cost/latency models simply don't apply to them).
    pub(crate) fn circuit(&self) -> Option<&CircuitEngineConfig> {
        match self {
            EngineSel::Spec(spec) => spec.circuit(),
            EngineSel::Registered(_) => None,
        }
    }

    /// Builds the backend against `registry` with the given seed.
    ///
    /// # Errors
    ///
    /// Spec build failures; unknown registered names.
    pub(crate) fn build(
        &self,
        registry: &EngineRegistry,
        seed: u64,
    ) -> blockamc::Result<Box<dyn AmcEngine>> {
        match self {
            EngineSel::Spec(spec) => spec.build(seed),
            EngineSel::Registered(name) => registry.build(name, seed),
        }
    }
}

/// One named rung of the nonideality ladder: any engine backend,
/// selected purely as data.
///
/// The rung carries an [`EngineSel`], not a concrete engine type — a
/// cell can run the exact digital reference, the fixed-point digital
/// backend, the full analog stack, or any backend a downstream crate
/// registered by name, and the campaign engine builds each trial's
/// `Box<dyn AmcEngine>` from the selection plus the trial seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Nonideality {
    /// Display label (`ideal`, `variation`, `fixed-point-8b`, …).
    pub label: &'static str,
    /// The backend this rung solves with.
    pub engine: EngineSel,
}

impl Nonideality {
    /// A rung building the given inline spec.
    pub(crate) fn spec(label: &'static str, spec: EngineSpec) -> Nonideality {
        Nonideality {
            label,
            engine: EngineSel::Spec(spec),
        }
    }

    /// A rung resolving `name` in the campaign's engine registry.
    pub fn registered(label: &'static str, name: &'static str) -> Nonideality {
        Nonideality {
            label,
            engine: EngineSel::Registered(name),
        }
    }

    /// A rung running the analog stack with the given configuration.
    pub fn circuit(label: &'static str, config: CircuitEngineConfig) -> Nonideality {
        Nonideality::spec(label, EngineSpec::Circuit(config))
    }
}

/// A declarative study: the full cross product plus execution knobs.
#[derive(Debug, Clone)]
pub struct Campaign {
    name: String,
    workloads: Vec<WorkloadSpec>,
    solvers: Vec<SolverCell>,
    ladder: Vec<Nonideality>,
    trials: usize,
    rhs_per_trial: usize,
    workers: usize,
    seed: u64,
    /// Backend registry [`EngineSel::Registered`] rungs resolve
    /// against; shared, since constructors are opaque closures.
    registry: Arc<EngineRegistry>,
}

impl PartialEq for Campaign {
    fn eq(&self, other: &Self) -> bool {
        // Registries hold opaque constructors; equality compares their
        // name sets (plus everything else structurally).
        self.name == other.name
            && self.workloads == other.workloads
            && self.solvers == other.solvers
            && self.ladder == other.ladder
            && self.trials == other.trials
            && self.rhs_per_trial == other.rhs_per_trial
            && self.workers == other.workers
            && self.seed == other.seed
            && self.registry.names().eq(other.registry.names())
    }
}

/// Builder for [`Campaign`].
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    campaign: Campaign,
}

impl Campaign {
    /// Starts building a campaign (defaults: 5 trials, 1 RHS per trial,
    /// 1 worker, seed 0).
    pub fn builder(name: impl Into<String>) -> CampaignBuilder {
        CampaignBuilder {
            campaign: Campaign {
                name: name.into(),
                workloads: Vec::new(),
                solvers: Vec::new(),
                ladder: Vec::new(),
                trials: 5,
                rhs_per_trial: 1,
                workers: 1,
                seed: 0,
                registry: Arc::new(EngineRegistry::builtin()),
            },
        }
    }

    /// Campaign name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The workload axis.
    pub(crate) fn workloads(&self) -> &[WorkloadSpec] {
        &self.workloads
    }

    /// The solver-grid axis.
    pub(crate) fn solvers(&self) -> &[SolverCell] {
        &self.solvers
    }

    /// The nonideality axis.
    pub(crate) fn ladder(&self) -> &[Nonideality] {
        &self.ladder
    }

    /// Variation draws per cell.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// Right-hand sides drawn per trial.
    pub(crate) fn rhs_per_trial(&self) -> usize {
        self.rhs_per_trial
    }

    /// Worker count trials are sharded over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The campaign's base seed.
    pub(crate) fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of cells (`workloads × solvers × ladder`).
    pub fn cell_count(&self) -> usize {
        self.workloads.len() * self.solvers.len() * self.ladder.len()
    }

    /// Runs the campaign with its configured worker count.
    ///
    /// # Errors
    ///
    /// See [`Campaign::run_with_workers`].
    pub fn run(&self) -> Result<CampaignReport> {
        self.run_with_workers(self.workers)
    }

    /// Runs the campaign — workload setups, trials and latency models —
    /// in one pass over `workers` work-stealing threads. The report is
    /// bit-identical at every worker count (see the module docs).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidSpec`] for `workers == 0` or a solver
    /// configuration invalid for a workload's size (checked in the
    /// workload's setup, so a misconfigured cell fails loudly instead of
    /// silently producing zero completed trials); workload instantiation
    /// and reference-solve failures. Per-trial analog failures are
    /// *counted*, not propagated. (Empty axes and zero trials cannot
    /// reach here — [`CampaignBuilder::finish`] rejects them.)
    pub fn run_with_workers(&self, workers: usize) -> Result<CampaignReport> {
        if workers == 0 {
            return Err(ScenarioError::spec("campaign needs at least 1 worker"));
        }

        // An unbuildable rung (zero panel width, out-of-range bits, a
        // name missing from the registry) is a configuration error, not
        // trials-worth of silent `completed: 0` cells: fail loudly
        // before any work starts.
        for rung in &self.ladder {
            rung.engine.build(&self.registry, self.seed).map_err(|e| {
                ScenarioError::spec(format!(
                    "nonideality rung '{}' cannot build its engine: {e}",
                    rung.label
                ))
            })?;
        }

        // Cells in w-major order, each with its latency key's index into
        // `keys` (one entry per distinct key, in first-use order).
        let (s_len, l_len, t_len) = (self.solvers.len(), self.ladder.len(), self.trials);
        let cells: Vec<(usize, usize, usize)> = (0..self.workloads.len())
            .flat_map(|w| (0..s_len).flat_map(move |s| (0..l_len).map(move |l| (w, s, l))))
            .collect();
        let mut keys: Vec<LatencyKey> = Vec::new();
        let cell_keys: Vec<Option<usize>> = cells
            .iter()
            .map(|&(w, s, l)| {
                let key = LatencyKey::of(w, &self.solvers[s].config, &self.ladder[l])?;
                Some(keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                    keys.push(key);
                    keys.len() - 1
                }))
            })
            .collect();

        // Each workload's jobs — its trials, then its latency keys —
        // dealt interleaved with the other workloads', so that each
        // worker starts on a different workload's setup.
        let mut per_workload: Vec<Vec<Job>> = vec![Vec::new(); self.workloads.len()];
        for &cell in &cells {
            per_workload[cell.0].extend((0..t_len).map(|trial| Job::Trial { cell, trial }));
        }
        for (k, key) in keys.iter().enumerate() {
            per_workload[key.workload].push(Job::Latency(k));
        }
        let longest = per_workload.iter().map(Vec::len).max().unwrap_or(0);
        let jobs: Vec<Job> = (0..longest)
            .flat_map(|i| per_workload.iter().filter_map(move |js| js.get(i).copied()))
            .collect();

        // A workload's setup runs once, in the first job that needs it.
        // After a failed setup the run will return an error, so the
        // remaining jobs skip their work; the flag publishes nothing
        // else (the `OnceLock`s carry the setups), hence `Relaxed`.
        let setups: Vec<OnceLock<Result<Setup>>> =
            self.workloads.iter().map(|_| OnceLock::new()).collect();
        let failed = AtomicBool::new(false);
        let setup_of = |w: usize| -> Option<&Setup> {
            if failed.load(Ordering::Relaxed) {
                return None;
            }
            let setup = setups[w].get_or_init(|| self.setup(&self.workloads[w]));
            if setup.is_err() {
                failed.store(true, Ordering::Relaxed);
            }
            setup.as_ref().ok()
        };
        let done = amc_par::map_indexed(workers, jobs, |_, job| match job {
            Job::Trial { cell, trial } => {
                let (w, s, l) = cell;
                let slot = ((w * s_len + s) * l_len + l) * t_len + trial;
                let outcome = setup_of(w).and_then(|setup| {
                    self.run_trial(setup, &self.solvers[s], &self.ladder[l], cell, trial)
                });
                Done::Trial(slot, outcome)
            }
            Job::Latency(k) => {
                let key = &keys[k];
                Done::Latency(
                    k,
                    setup_of(key.workload).and_then(|(inst, _)| key.latency(&inst.matrix)),
                )
            }
        });

        // The first failing workload, in workload order, decides the
        // error — the one a serial setup loop would have met first. A
        // setup skipped after another failed runs here.
        let setups: Vec<Setup> = setups
            .into_iter()
            .zip(&self.workloads)
            .map(|(setup, spec)| setup.into_inner().unwrap_or_else(|| self.setup(spec)))
            .collect::<Result<_>>()?;

        let mut outcomes: Vec<Option<TrialOutcome>> = vec![None; cells.len() * t_len];
        let mut latencies: Vec<Option<f64>> = vec![None; keys.len()];
        for d in done {
            match d {
                Done::Trial(slot, outcome) => outcomes[slot] = outcome,
                Done::Latency(k, latency) => latencies[k] = latency,
            }
        }

        // Aggregate per cell, in cell order.
        let records = cells
            .iter()
            .zip(&cell_keys)
            .zip(outcomes.chunks_exact(t_len))
            .map(|((&(w, s, l), key), trials)| {
                let latency = key.and_then(|k| latencies[k]);
                self.aggregate_cell(
                    &setups[w].0,
                    &self.solvers[s],
                    &self.ladder[l],
                    trials,
                    latency,
                )
            })
            .collect();
        Ok(CampaignReport {
            name: self.name.clone(),
            trials: self.trials,
            rhs_per_trial: self.rhs_per_trial,
            cells: records,
        })
    }

    /// One workload's setup: the instance, every solver checked against
    /// its size, and the reference solution of each right-hand side
    /// from one LU factorisation.
    fn setup(&self, spec: &WorkloadSpec) -> Result<Setup> {
        let inst = spec.instantiate(self.rhs_per_trial)?;
        for cell in &self.solvers {
            cell.config.validate_for_size(spec.n).map_err(|e| {
                ScenarioError::spec(format!(
                    "solver '{}' cannot run workload '{}' (n = {}): {e}",
                    cell.label, spec.name, spec.n
                ))
            })?;
        }
        let lu = lu::LuFactor::new(&inst.matrix)?;
        let x_refs = inst
            .rhs
            .iter()
            .map(|b| lu.solve(b))
            .collect::<std::result::Result<_, _>>()?;
        Ok((inst, x_refs))
    }

    /// Runs one trial: build the rung's engine from spec + seed,
    /// program a fresh part, stream the cell's RHS set through the
    /// prepared solver. `None` marks a per-trial failure (singular
    /// operating point, non-finite error); unbuildable specs were
    /// rejected before any trial ran.
    fn run_trial(
        &self,
        (inst, x_refs): &Setup,
        solver: &SolverCell,
        rung: &Nonideality,
        cell: (usize, usize, usize),
        trial: usize,
    ) -> Option<TrialOutcome> {
        let seed = trial_seed(self.seed, cell, trial);
        let engine = rung.engine.build(&self.registry, seed).ok()?;
        let mut facade = BlockAmcSolver::from_config(engine, solver.config.clone());
        let mut prepared = facade.prepare(&inst.matrix).ok()?;
        let mut errors = Vec::with_capacity(inst.rhs.len());
        for (b, x_ref) in inst.rhs.iter().zip(x_refs) {
            let report = prepared.solve(b).ok()?;
            let err = metrics::relative_error(x_ref, &report.x);
            if !err.is_finite() {
                return None;
            }
            errors.push(err);
        }
        let stats = prepared.engine().stats();
        Some(TrialOutcome { errors, stats })
    }

    /// Folds a cell's trial outcomes into its record.
    fn aggregate_cell(
        &self,
        inst: &WorkloadInstance,
        solver: &SolverCell,
        rung: &Nonideality,
        trials: &[Option<TrialOutcome>],
        model_latency_s: Option<f64>,
    ) -> CellRecord {
        let completed: Vec<&TrialOutcome> = trials.iter().flatten().collect();
        let errors: Vec<f64> = completed
            .iter()
            .flat_map(|o| o.errors.iter().copied())
            .collect();
        let solves = (completed.len() * self.rhs_per_trial).max(1) as f64;
        let analog_time_s: f64 = completed.iter().map(|o| o.stats.analog_time_s).sum();
        let analog_energy_j: f64 = completed.iter().map(|o| o.stats.analog_energy_j).sum();
        // Op counts are tree-structural, identical across completed
        // trials; take the first.
        let ops = completed.first().map(|o| o.stats).unwrap_or_default();
        CellRecord {
            workload: inst.spec.name.clone(),
            family: inst.spec.family.key(),
            n: inst.spec.n,
            solver: solver.label.clone(),
            nonideality: rung.label,
            engine: rung.engine.name(),
            trials: trials.len(),
            completed: completed.len(),
            errors: metrics::ErrorStats::from_samples(&errors),
            program_ops: ops.program_ops,
            inv_ops: ops.inv_ops,
            mvm_ops: ops.mvm_ops,
            analog_time_per_solve_s: analog_time_s / solves,
            analog_energy_per_solve_j: analog_energy_j / solves,
            model_latency_s,
            meta: inst.meta,
        }
    }
}

/// One workload's hoisted state: the instance and the reference
/// solution of each of its right-hand sides.
type Setup = (WorkloadInstance, Vec<Vec<f64>>);

/// One job of [`Campaign::run_with_workers`]' pool.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// Trial `trial` of cell `(workload, solver, rung)`.
    Trial {
        cell: (usize, usize, usize),
        trial: usize,
    },
    /// The arch-model latency of latency key `k`.
    Latency(usize),
}

/// A finished [`Job`], carrying where its result goes: the trial's
/// w-major slot, or the latency key's index.
enum Done {
    Trial(usize, Option<TrialOutcome>),
    Latency(usize, Option<f64>),
}

/// Everything a cell's arch-model latency depends on: the workload (its
/// matrix), the cascade depth, and the rung's op-amp and settle
/// accuracy. Cells sharing a key share one [`LatencyKey::latency`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LatencyKey {
    workload: usize,
    depth: usize,
    opamp: OpAmpSpec,
    settle_epsilon: f64,
}

impl LatencyKey {
    /// The key of a cell of workload `workload`; `None` for rungs with
    /// no circuit model (digital and registered backends), where no
    /// analog settle model applies.
    fn of(workload: usize, config: &SolverConfig, rung: &Nonideality) -> Option<LatencyKey> {
        let sim = &rung.engine.circuit()?.sim;
        Some(LatencyKey {
            workload,
            depth: config.stages().depth(),
            opamp: sim.opamp,
            settle_epsilon: sim.settle_epsilon,
        })
    }

    /// Arch-model latency of one solve: the depth-generalized sequential
    /// op count ([`amc_arch::latency::cascade_latency`]) priced with
    /// settle times of the leaf-sized leading block of `a` under the
    /// key's op-amp. `None` when the settle model has no answer (e.g. a
    /// leaf block whose minimum eigenvalue estimate fails).
    fn latency(&self, a: &Matrix) -> Option<f64> {
        let leaf = (a.rows() >> self.depth).max(1);
        let block = a.block(0, 0, leaf, leaf).ok()?;
        let max_abs = block.max_abs();
        if max_abs <= 0.0 {
            return None;
        }
        let g_hat = block.scaled(1.0 / max_abs);
        let eps = self.settle_epsilon;
        let inv_s = timing::inv_settle_time(&g_hat, &self.opamp, eps).ok()?;
        let mvm_s = timing::mvm_settle_time(g_hat.norm_inf(), &self.opamp, eps).ok()?;
        amc_arch::latency::cascade_latency(self.depth, inv_s, mvm_s, 0.0).ok()
    }
}

/// Deterministic per-trial engine seed: a function of the campaign
/// seed, the cell indices, and the trial index only — never of the
/// worker executing the trial.
fn trial_seed(base: u64, (w, s, l): (usize, usize, usize), trial: usize) -> u64 {
    let mut h = base ^ 0x517C_C1B7_2722_0A95;
    for v in [w as u64 + 1, s as u64 + 1, l as u64 + 1] {
        h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    h.wrapping_add(trial as u64)
}

/// One trial's measurements.
#[derive(Debug, Clone, PartialEq)]
struct TrialOutcome {
    /// Relative error per right-hand side.
    errors: Vec<f64>,
    /// Engine counters after the trial (programming + all solves).
    stats: EngineStats,
}

/// One cell of a campaign report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Workload display name.
    pub workload: String,
    /// Workload family key.
    pub family: &'static str,
    /// Problem size.
    pub n: usize,
    /// Solver-grid label.
    pub solver: String,
    /// Nonideality-rung label.
    pub nonideality: &'static str,
    /// Backend name of the rung's [`EngineSel`].
    pub engine: &'static str,
    /// Variation draws attempted.
    pub trials: usize,
    /// Draws whose every solve completed with finite error.
    pub completed: usize,
    /// Error statistics over all completed solves of the cell.
    pub errors: metrics::ErrorStats,
    /// Arrays programmed per trial (tree-structural).
    pub program_ops: usize,
    /// INV operations per trial.
    pub inv_ops: usize,
    /// MVM operations per trial.
    pub mvm_ops: usize,
    /// Mean engine-measured analog settle time per solve, seconds.
    pub analog_time_per_solve_s: f64,
    /// Mean engine-measured analog energy per solve, joules.
    pub analog_energy_per_solve_j: f64,
    /// `amc-arch` cascade-model latency of one solve at this depth,
    /// seconds (`None` when the settle model is inapplicable).
    pub model_latency_s: Option<f64>,
    /// Measured workload metadata.
    pub meta: WorkloadMeta,
}

/// The machine-readable result of a campaign run.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Campaign name.
    pub name: String,
    /// Trials per cell.
    pub trials: usize,
    /// Right-hand sides per trial.
    pub rhs_per_trial: usize,
    /// One record per cell, in `workloads × solvers × ladder` order.
    pub cells: Vec<CellRecord>,
}

impl CampaignReport {
    /// The report's trial/op totals as a metrics snapshot — the same
    /// queryable surface the server exposes, built purely from the
    /// (deterministic) report so it is bit-identical at any worker
    /// count.
    pub fn metrics(&self) -> amc_obs::MetricsSnapshot {
        let registry = amc_obs::Registry::new();
        registry
            .counter("campaign.cells")
            .set(self.cells.len() as u64);
        let attempted = registry.counter("campaign.trials_attempted");
        let completed = registry.counter("campaign.trials_completed");
        let inv_ops = registry.counter("campaign.inv_ops_per_trial");
        let mvm_ops = registry.counter("campaign.mvm_ops_per_trial");
        let program_ops = registry.counter("campaign.program_ops_per_trial");
        for cell in &self.cells {
            attempted.add(cell.trials as u64);
            completed.add(cell.completed as u64);
            inv_ops.add(cell.inv_ops as u64);
            mvm_ops.add(cell.mvm_ops as u64);
            program_ops.add(cell.program_ops as u64);
        }
        registry.snapshot()
    }
}

/// Result of [`run_worker_sweep`]: the (identical) report and whether
/// every worker count reproduced it.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerSweep {
    /// The campaign report (identical at every worker count).
    pub report: CampaignReport,
    /// Whether every worker count reproduced the serial report bitwise.
    pub bit_identical: bool,
}

/// Runs `campaign` once per entry of `worker_counts`, checking the
/// reports agree bitwise — the determinism contract, checked.
///
/// # Errors
///
/// [`ScenarioError::InvalidSpec`] for an empty `worker_counts`;
/// campaign failures per run.
pub fn run_worker_sweep(campaign: &Campaign, worker_counts: &[usize]) -> Result<WorkerSweep> {
    let Some((&first, rest)) = worker_counts.split_first() else {
        return Err(ScenarioError::spec("worker sweep needs at least one count"));
    };
    let report = campaign.run_with_workers(first)?;
    let mut bit_identical = true;
    for &workers in rest {
        bit_identical &= campaign.run_with_workers(workers)? == report;
    }
    Ok(WorkerSweep {
        report,
        bit_identical,
    })
}

impl CampaignBuilder {
    /// Adds one workload spec.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.campaign.workloads.push(spec);
        self
    }

    /// Adds many workload specs.
    pub(crate) fn workloads(mut self, specs: impl IntoIterator<Item = WorkloadSpec>) -> Self {
        self.campaign.workloads.extend(specs);
        self
    }

    /// Adds one named solver configuration.
    pub fn solver(mut self, label: impl Into<String>, config: SolverConfig) -> Self {
        self.campaign.solvers.push(SolverCell {
            label: label.into(),
            config,
        });
        self
    }

    /// Adds one nonideality rung.
    pub fn nonideality(mut self, rung: Nonideality) -> Self {
        self.campaign.ladder.push(rung);
        self
    }

    /// Adds many nonideality rungs.
    pub fn ladder(mut self, rungs: impl IntoIterator<Item = Nonideality>) -> Self {
        self.campaign.ladder.extend(rungs);
        self
    }

    /// Sets the variation draws per cell.
    pub fn trials(mut self, trials: usize) -> Self {
        self.campaign.trials = trials;
        self
    }

    /// Sets the right-hand sides streamed through each prepared part.
    pub fn rhs_per_trial(mut self, rhs: usize) -> Self {
        self.campaign.rhs_per_trial = rhs;
        self
    }

    /// Sets the default worker count of [`Campaign::run`].
    pub fn workers(mut self, workers: usize) -> Self {
        self.campaign.workers = workers;
        self
    }

    /// Sets the campaign seed all trial streams derive from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.campaign.seed = seed;
        self
    }

    /// Replaces the backend registry [`EngineSel::Registered`] rungs
    /// resolve against (defaults to [`EngineRegistry::builtin`]).
    pub fn registry(mut self, registry: EngineRegistry) -> Self {
        self.campaign.registry = Arc::new(registry);
        self
    }

    /// Finishes the campaign.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::InvalidSpec`] for empty axes or zero
    /// trials/RHS/workers.
    pub fn finish(self) -> Result<Campaign> {
        let c = &self.campaign;
        if c.workloads.is_empty() || c.solvers.is_empty() || c.ladder.is_empty() {
            return Err(ScenarioError::spec(format!(
                "campaign '{}' needs at least one workload, solver, and nonideality",
                c.name
            )));
        }
        if c.trials == 0 || c.rhs_per_trial == 0 || c.workers == 0 {
            return Err(ScenarioError::spec(
                "trials, rhs_per_trial, and workers must all be at least 1",
            ));
        }
        Ok(self.campaign)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadFamily;
    use blockamc::solver::Stages;

    /// The three-rung ladder of the paper's figures: ideal mapping
    /// (Fig. 6), 5 % variation (Fig. 7), variation + wire resistance
    /// (Fig. 9).
    fn paper_ladder() -> Vec<Nonideality> {
        vec![
            Nonideality::circuit("ideal-mapping", CircuitEngineConfig::ideal_mapping()),
            Nonideality::circuit("variation", CircuitEngineConfig::paper_variation()),
            Nonideality::circuit("variation+wire", CircuitEngineConfig::paper_full()),
        ]
    }

    fn tiny_campaign() -> Campaign {
        Campaign::builder("test")
            .workload(WorkloadSpec::new("w", WorkloadFamily::Wishart, 8, 1))
            .solver(
                "one",
                SolverConfig::builder()
                    .stages(Stages::One)
                    .capture_trace(false)
                    .finish()
                    .unwrap(),
            )
            .nonideality(Nonideality::circuit(
                "variation",
                CircuitEngineConfig::paper_variation(),
            ))
            .trials(3)
            .rhs_per_trial(2)
            .seed(7)
            .finish()
            .unwrap()
    }

    #[test]
    fn campaign_produces_one_record_per_cell() {
        let report = tiny_campaign().run().unwrap();
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert_eq!(cell.trials, 3);
        assert_eq!(cell.completed, 3);
        assert_eq!(cell.errors.count, 6, "3 trials x 2 RHS");
        assert!(cell.errors.mean > 0.0);
        // One-stage tree: 4 arrays programmed once per trial, 3 INV +
        // 2 MVM per solve x 2 RHS.
        assert_eq!(cell.program_ops, 4);
        assert_eq!(cell.inv_ops, 6);
        assert_eq!(cell.mvm_ops, 4);
        assert!(cell.analog_time_per_solve_s > 0.0);
        assert!(cell.model_latency_s.is_some());
        assert!(cell.meta.spd);
    }

    #[test]
    fn reports_are_reproducible() {
        let c = tiny_campaign();
        assert_eq!(c.run().unwrap(), c.run().unwrap());
    }

    #[test]
    fn worker_count_is_invisible_in_the_report() {
        let c = tiny_campaign();
        let sweep = run_worker_sweep(&c, &[1, 2, 4]).unwrap();
        assert!(sweep.bit_identical);
        // Two workloads, whose setups and latency jobs share the pool
        // with the trials.
        let sweep = run_worker_sweep(&two_workload_campaign(&[]), &[1, 2, 3, 5]).unwrap();
        assert!(sweep.bit_identical);
        assert_eq!(sweep.report.cells.len(), 12);
        assert!(sweep.report.cells.iter().all(|cell| cell.completed == 2));
    }

    /// Wishart + Poisson2d at n = 16, Original and Two-stage, the
    /// paper ladder plus `extra` rungs: two trials of two RHS per cell.
    fn two_workload_campaign(extra: &[Nonideality]) -> Campaign {
        let solver = |stages| {
            SolverConfig::builder()
                .stages(stages)
                .capture_trace(false)
                .finish()
                .unwrap()
        };
        Campaign::builder("two-workloads")
            .workload(WorkloadSpec::new("wishart", WorkloadFamily::Wishart, 16, 3))
            .workload(WorkloadSpec::new(
                "poisson",
                WorkloadFamily::Poisson2d,
                16,
                4,
            ))
            .solver("original", solver(Stages::Original))
            .solver("two-stage", solver(Stages::Two))
            .ladder(paper_ladder())
            .ladder(extra.iter().copied())
            .trials(2)
            .rhs_per_trial(2)
            .seed(11)
            .finish()
            .unwrap()
    }

    #[test]
    fn cells_get_the_latency_of_their_own_key() {
        let c = two_workload_campaign(&[Nonideality::spec("exact", EngineSpec::Numeric)]);
        let report = c.run_with_workers(2).unwrap();
        let cells = c
            .workloads()
            .iter()
            .enumerate()
            .flat_map(|(w, spec)| c.solvers().iter().map(move |s| (w, spec, s)))
            .flat_map(|(w, spec, s)| c.ladder().iter().map(move |l| (w, spec, s, l)));
        let mut keys = Vec::new();
        for ((w, spec, solver, rung), cell) in cells.zip(&report.cells) {
            assert_eq!(
                (cell.solver.as_str(), cell.nonideality),
                (solver.label.as_str(), rung.label)
            );
            let key = LatencyKey::of(w, &solver.config, rung);
            let matrix = spec.instantiate(c.rhs_per_trial()).unwrap().matrix;
            let direct = key.and_then(|k| k.latency(&matrix));
            assert_eq!(
                cell.model_latency_s.map(f64::to_bits),
                direct.map(f64::to_bits)
            );
            assert_eq!(
                cell.model_latency_s.is_some(),
                rung.label != "exact",
                "{}",
                rung.label
            );
            if let Some(key) = key {
                if !keys.contains(&key) {
                    keys.push(key);
                }
            }
        }
        // Per workload and depth: the finite-gain `ideal-mapping` rung
        // and the two ideal-op-amp rungs, which share a key.
        assert_eq!(keys.len(), 2 * 2 * 2);
        let key = |l: usize| LatencyKey::of(0, &c.solvers()[0].config, &c.ladder()[l]);
        assert_ne!(
            key(0),
            key(1),
            "finite-gain and ideal op-amps must not share a key"
        );
        assert_eq!(key(1), key(2));
    }

    #[test]
    fn a_failing_workload_setup_errors_at_every_worker_count() {
        let c = Campaign::builder("ring")
            .workload(WorkloadSpec::new("wishart", WorkloadFamily::Wishart, 16, 3))
            .workload(WorkloadSpec::new(
                "ring",
                WorkloadFamily::RingLaplacian { ground: 0.0 },
                16,
                4,
            ))
            .solver(
                "one",
                SolverConfig::builder()
                    .stages(Stages::One)
                    .capture_trace(false)
                    .finish()
                    .unwrap(),
            )
            .ladder(paper_ladder())
            .trials(3)
            .finish()
            .unwrap();
        let want = ScenarioError::Linalg(amc_linalg::LinalgError::invalid(
            "grounding conductance must be positive and finite",
        ));
        for workers in [1, 2, 3, 5] {
            assert_eq!(
                c.run_with_workers(workers).unwrap_err(),
                want,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn invalid_campaigns_fail_fast() {
        assert!(Campaign::builder("empty").finish().is_err());
        let no_trials = Campaign::builder("t")
            .workload(WorkloadSpec::new("w", WorkloadFamily::Wishart, 8, 1))
            .solver(
                "one",
                SolverConfig::builder()
                    .stages(Stages::One)
                    .finish()
                    .unwrap(),
            )
            .nonideality(Nonideality::circuit("ideal", CircuitEngineConfig::ideal()))
            .trials(0)
            .finish();
        assert!(no_trials.is_err());
        // A solver too deep for a workload is rejected before any trial.
        let deep = Campaign::builder("t")
            .workload(WorkloadSpec::new("w", WorkloadFamily::Wishart, 8, 1))
            .solver(
                "deep",
                SolverConfig::builder()
                    .stages(Stages::Multi(5))
                    .finish()
                    .unwrap(),
            )
            .nonideality(Nonideality::circuit("ideal", CircuitEngineConfig::ideal()))
            .finish()
            .unwrap();
        let err = deep.run().unwrap_err();
        assert!(err.to_string().contains("deep"), "{err}");
        // A rung whose EngineSpec cannot build fails the run loudly,
        // naming the rung — never a silent completed-0 report.
        let bad_rung = Campaign::builder("t")
            .workload(WorkloadSpec::new("w", WorkloadFamily::Wishart, 8, 1))
            .solver(
                "one",
                SolverConfig::builder()
                    .stages(Stages::One)
                    .finish()
                    .unwrap(),
            )
            .nonideality(Nonideality::spec(
                "fp-60b",
                blockamc::engine::EngineSpec::FixedPoint { bits: 60 },
            ))
            .finish()
            .unwrap();
        let err = bad_rung.run().unwrap_err();
        assert!(err.to_string().contains("fp-60b"), "{err}");
        // Same for a registered name missing from the registry.
        let unknown = Campaign::builder("t")
            .workload(WorkloadSpec::new("w", WorkloadFamily::Wishart, 8, 1))
            .solver(
                "one",
                SolverConfig::builder()
                    .stages(Stages::One)
                    .finish()
                    .unwrap(),
            )
            .nonideality(Nonideality::registered("mystery", "no-such-backend"))
            .finish()
            .unwrap();
        let err = unknown.run().unwrap_err();
        assert!(err.to_string().contains("mystery"), "{err}");
    }

    #[test]
    fn registered_rungs_resolve_through_the_campaign_registry() {
        let mut registry = EngineRegistry::builtin();
        // A custom name whose constructor is opaque to this crate.
        registry.register_spec("exact", EngineSpec::Numeric);
        let c = Campaign::builder("registered")
            .workload(WorkloadSpec::new("w", WorkloadFamily::Wishart, 8, 1))
            .solver(
                "one",
                SolverConfig::builder()
                    .stages(Stages::One)
                    .capture_trace(false)
                    .finish()
                    .unwrap(),
            )
            .nonideality(Nonideality::registered("exact-by-name", "exact"))
            .trials(2)
            .registry(registry)
            .finish()
            .unwrap();
        let report = c.run().unwrap();
        assert_eq!(report.cells.len(), 1);
        let cell = &report.cells[0];
        assert_eq!(cell.engine, "exact");
        assert_eq!(cell.completed, 2);
        // Exact digital backend: machine-precision errors, no analog
        // latency model.
        assert!(cell.errors.max < 1e-10);
        assert!(cell.model_latency_s.is_none());
    }
}
