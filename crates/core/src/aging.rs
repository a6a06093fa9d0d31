//! Lifetime aging of prepared solvers: drift, stuck cells, health
//! probes, and repair scheduling.
//!
//! The paper's yield number is a static snapshot; this module provides
//! the production view. An [`AgedSolver`] owns a programmed partition
//! tree plus a virtual clock. Each tick it applies
//! [`DriftModel::apply`] conductance decay and [`FaultModel`] stuck-at
//! failures to every array — deterministically, from seeded streams —
//! and re-installs the degraded state through the engine, so every
//! subsequent solve runs against the aged hardware. A cheap health
//! probe ([`AgedSolver::health`]) solves a fixed sentinel RHS and
//! measures its relative residual via [`crate::refine::seed_quality`].
//!
//! A [`RepairScheduler`] drives the serving loop: per tick it chooses
//! between serving degraded, recovering accuracy digitally with
//! [`crate::refine::refine_with_cg`], or paying [`ProgramCostModel`]
//! write-and-verify energy to reprogram arrays (the worst few, or all
//! of them). The per-policy decision rules are documented on
//! [`RepairPolicy`].
//!
//! # Determinism
//!
//! Every random draw comes from a `ChaCha8Rng` seeded purely from the
//! solver's base seed plus structural indices (stream tag, array
//! index, reprogram generation, tick number). Drift draws are keyed on
//! `(array, generation)` — *not* on the tick — so each cell's drift
//! exponent is fixed between reprograms and its decay is monotone in
//! age. Fault draws are keyed on `(array, tick)` and accumulate into a
//! persistent overlay: a stuck cell stays stuck, even across
//! reprogramming (write-and-verify cannot fix a stuck device). Replays
//! with the same seed are bit-identical, which is what lets the
//! `amc-scenario` lifetime campaign shard traces over workers without
//! changing the report.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use amc_device::faults::{FaultModel, FaultState};
use amc_device::program_cost::program_cost;
use amc_linalg::Matrix;

// Re-exported so downstream crates (e.g. the serving layer) can
// configure an [`AgingModel`] without depending on `amc-device`.
pub use amc_device::drift::DriftModel;
pub use amc_device::program_cost::ProgramCostModel;

use crate::engine::AmcEngine;
use crate::error::BlockAmcError;
use crate::refine;
use crate::solver::{SolveReport, SolverReplica};
use crate::Result;

/// Stream tags keeping the independent random streams disjoint.
const DRIFT_STREAM: u64 = 1;
const FAULT_STREAM: u64 = 2;
const SENTINEL_STREAM: u64 = 3;

/// Derives a per-(stream, array, epoch) seed from the base seed with
/// the same splitmix-style hash the campaign layers use, so distinct
/// coordinates land in statistically independent streams.
fn stream_seed(base: u64, stream: u64, array: u64, epoch: u64) -> u64 {
    let mut h = base ^ 0x517C_C1B7_2722_0A95;
    for v in [stream, array.wrapping_add(1), epoch.wrapping_add(1)] {
        h = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    }
    h
}

/// The full lifetime model an [`AgedSolver`] ages under.
///
/// All parameters are validated up front by [`AgingModel::validate`]
/// (called from [`AgedSolver::new`] and the scenario campaign builder),
/// never per-tick deep inside a trial.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AgingModel {
    /// Conductance relaxation over time.
    pub drift: DriftModel,
    /// Per-tick stuck-at hazard. `p_stuck_on`/`p_stuck_off` are the
    /// per-cell probabilities of getting stuck *during one tick*;
    /// `g_on`/`g_off` are the forced magnitudes in **matrix-value
    /// units** (the stuck value keeps the pristine cell's sign).
    pub faults: FaultModel,
    /// Write-and-verify cost charged for every reprogram.
    pub cost: ProgramCostModel,
    /// Virtual wall-clock seconds per tick.
    pub tick_s: f64,
    /// Relative per-cell accuracy the write-and-verify loop targets on
    /// reprogram (feeds [`ProgramCostModel::pulses_per_cell`]).
    pub program_accuracy: f64,
    /// The serving SLO: a tick whose served answers have mean relative
    /// residual above this bound counts as unavailable.
    pub slo_residual: f64,
}

impl AgingModel {
    /// A typical-RRAM lifetime model: the device crate's drift and
    /// programming-cost defaults, no stuck-at hazard, one-minute ticks,
    /// 1% programming accuracy, and a 1e-3 residual SLO.
    pub fn typical_rram() -> Self {
        AgingModel {
            drift: DriftModel::typical_rram(),
            faults: FaultModel::none(),
            cost: ProgramCostModel::typical_rram(),
            tick_s: 60.0,
            program_accuracy: 0.01,
            slo_residual: 1e-3,
        }
    }

    /// Validates every sub-model and the scheduler parameters.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] naming the offending parameter
    /// — including the device-model validation failures, re-wrapped so
    /// callers see one error type at build time.
    pub fn validate(&self) -> Result<()> {
        self.drift
            .validate()
            .map_err(|e| BlockAmcError::config(format!("aging drift model: {e}")))?;
        self.faults
            .validate()
            .map_err(|e| BlockAmcError::config(format!("aging fault model: {e}")))?;
        self.cost
            .validate()
            .map_err(|e| BlockAmcError::config(format!("aging program-cost model: {e}")))?;
        if !(self.tick_s.is_finite() && self.tick_s > 0.0) {
            return Err(BlockAmcError::config(format!(
                "aging tick_s must be positive and finite, got {}",
                self.tick_s
            )));
        }
        if !(self.program_accuracy.is_finite()
            && self.program_accuracy > 0.0
            && self.program_accuracy < 1.0)
        {
            return Err(BlockAmcError::config(format!(
                "aging program_accuracy must lie in (0, 1), got {}",
                self.program_accuracy
            )));
        }
        if !(self.slo_residual.is_finite() && self.slo_residual > 0.0) {
            return Err(BlockAmcError::config(format!(
                "aging slo_residual must be positive and finite, got {}",
                self.slo_residual
            )));
        }
        Ok(())
    }
}

/// When and how an aged solver gets repaired.
///
/// Each variant is a complete per-tick decision rule over the health
/// probe's relative residual `r` (measured on the sentinel RHS after
/// the tick's aging step):
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RepairPolicy {
    /// **Serve degraded, always.** No refinement, no reprogramming:
    /// zero repair energy and zero downtime, but accuracy collapses as
    /// the arrays drift — the lower frontier anchor.
    Never,
    /// **Full reprogram, every tick**, regardless of `r`. Accuracy and
    /// availability stay near-perfect (modulo stuck cells), but
    /// write-and-verify energy grows linearly with uptime — the upper
    /// frontier anchor.
    Always,
    /// **Repair only when the probe crosses a threshold.** If
    /// `r > reprogram_above`: reprogram every array. Else if
    /// `r > refine_above`: serve each answer through
    /// [`crate::refine::refine_with_cg`] (digital cleanup, zero
    /// programming energy). Else: serve degraded as-is. Requires
    /// `0 < refine_above <= reprogram_above`.
    ResidualThreshold {
        /// Probe residual above which served answers are CG-refined.
        refine_above: f64,
        /// Probe residual above which the solver is fully reprogrammed.
        reprogram_above: f64,
    },
    /// **Threshold repair under a finite energy budget.** If
    /// `r > reprogram_above`, reprogram the `arrays_per_repair` arrays
    /// whose current state deviates most from pristine (relative
    /// Frobenius deviation) — but only while the cumulative
    /// write-and-verify energy of this scheduler stays within
    /// `energy_budget_j`; once a repair would overrun the budget, fall
    /// back to CG refinement for the rest of the solver's life. Below
    /// the threshold: serve degraded.
    Budgeted {
        /// Total programming energy this scheduler may ever spend.
        energy_budget_j: f64,
        /// Probe residual above which a partial reprogram is attempted.
        reprogram_above: f64,
        /// How many worst arrays each partial reprogram rewrites.
        arrays_per_repair: usize,
    },
}

impl RepairPolicy {
    /// Validates the policy's parameters.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] for non-finite or non-positive
    /// thresholds, `refine_above > reprogram_above`, a non-positive
    /// energy budget, or `arrays_per_repair == 0`.
    pub fn validate(&self) -> Result<()> {
        let threshold_ok = |t: f64| t.is_finite() && t > 0.0;
        match *self {
            RepairPolicy::Never | RepairPolicy::Always => Ok(()),
            RepairPolicy::ResidualThreshold {
                refine_above,
                reprogram_above,
            } => {
                if !threshold_ok(refine_above) || !threshold_ok(reprogram_above) {
                    return Err(BlockAmcError::config(format!(
                        "residual-threshold policy thresholds must be positive and finite, \
                         got refine_above={refine_above}, reprogram_above={reprogram_above}"
                    )));
                }
                if refine_above > reprogram_above {
                    return Err(BlockAmcError::config(format!(
                        "residual-threshold policy needs refine_above <= reprogram_above, \
                         got refine_above={refine_above} > reprogram_above={reprogram_above}"
                    )));
                }
                Ok(())
            }
            RepairPolicy::Budgeted {
                energy_budget_j,
                reprogram_above,
                arrays_per_repair,
            } => {
                if !threshold_ok(energy_budget_j) {
                    return Err(BlockAmcError::config(format!(
                        "budgeted policy energy_budget_j must be positive and finite, \
                         got {energy_budget_j}"
                    )));
                }
                if !threshold_ok(reprogram_above) {
                    return Err(BlockAmcError::config(format!(
                        "budgeted policy reprogram_above must be positive and finite, \
                         got {reprogram_above}"
                    )));
                }
                if arrays_per_repair == 0 {
                    return Err(BlockAmcError::config(
                        "budgeted policy needs arrays_per_repair >= 1",
                    ));
                }
                Ok(())
            }
        }
    }
}

/// What the scheduler did on one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairAction {
    /// Served the degraded solver untouched.
    Serve,
    /// Served through digital CG refinement.
    Refine,
    /// Reprogrammed a subset of arrays (the count), then served.
    ReprogramPartial(usize),
    /// Reprogrammed every array, then served.
    ReprogramFull,
}

impl RepairAction {
    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RepairAction::Serve => "serve",
            RepairAction::Refine => "refine",
            RepairAction::ReprogramPartial(_) => "reprogram-partial",
            RepairAction::ReprogramFull => "reprogram-full",
        }
    }
}

/// A [`RepairPolicy`] plus its running energy ledger.
///
/// Built fail-fast: [`RepairScheduler::new`] validates the policy
/// before any tick runs.
#[derive(Debug, Clone)]
pub struct RepairScheduler {
    policy: RepairPolicy,
    spent_energy_j: f64,
}

impl RepairScheduler {
    /// Creates a scheduler, validating the policy parameters up front.
    ///
    /// # Errors
    ///
    /// The [`RepairPolicy::validate`] conditions.
    pub fn new(policy: RepairPolicy) -> Result<Self> {
        policy.validate()?;
        Ok(RepairScheduler {
            policy,
            spent_energy_j: 0.0,
        })
    }
}

/// One tick of a lifetime trace: what the solver looked like, what the
/// scheduler did, and what serving cost.
#[derive(Debug, Clone, PartialEq)]
pub struct TickRecord {
    /// Tick number (1-based; tick `t` covers virtual time `(t−1)·tick_s
    /// → t·tick_s`).
    pub tick: u64,
    /// Health-probe relative residual after aging, before any repair.
    pub health: f64,
    /// The action the scheduler took.
    pub action: RepairAction,
    /// Arrays reprogrammed this tick.
    pub arrays_reprogrammed: u64,
    /// Write-and-verify energy paid this tick (J).
    pub energy_j: f64,
    /// Row-parallel write-and-verify downtime this tick (s).
    pub repair_time_s: f64,
    /// Total CG iterations spent refining served answers.
    pub refine_iterations: u64,
    /// CG iterations saved by warm-starting from the degraded answers
    /// (versus cold starts); 0 when nothing was refined.
    pub iterations_saved: i64,
    /// Mean relative residual of the served answers.
    pub accuracy: f64,
    /// SLO availability: `max(0, 1 − repair_time/tick_s)` when
    /// `accuracy <= slo_residual`, else `0.0`.
    pub availability: f64,
}

/// A prepared solver aging under an [`AgingModel`].
///
/// Owns a [`SolverReplica`] (engine + programmed tree), the pristine
/// system matrix, and per-array state: the pristine effective matrix
/// snapshotted at construction, the accumulated stuck-cell overlay,
/// the age since last reprogram, and the reprogram generation.
#[derive(Debug, Clone)]
pub struct AgedSolver<E: AmcEngine> {
    replica: SolverReplica<E>,
    matrix: Matrix,
    model: AgingModel,
    seed: u64,
    /// Per-array effective matrices snapshotted right after prepare —
    /// the write-and-verify targets a reprogram restores.
    pristine: Vec<Matrix>,
    /// Persistent stuck cells per array: `(row, col, forced value)`.
    stuck: Vec<Vec<(usize, usize, f64)>>,
    /// Ticks since each array was last (re)programmed.
    age_ticks: Vec<u64>,
    /// Reprogram count per array; keys the drift stream so a fresh
    /// write draws fresh per-cell drift exponents.
    generation: Vec<u64>,
    tick: u64,
    sentinel: Vec<f64>,
}

impl<E: AmcEngine> AgedSolver<E> {
    /// Wraps a freshly prepared replica in the aging layer.
    ///
    /// `matrix` is the pristine system matrix `A` (used by the health
    /// probe and refinement); `seed` keys every random stream.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] from [`AgingModel::validate`]
    /// (fail-fast: nothing ages under an invalid model) or
    /// [`BlockAmcError::ShapeMismatch`] when `matrix` does not match
    /// the replica's size.
    pub fn new(
        mut replica: SolverReplica<E>,
        matrix: Matrix,
        model: AgingModel,
        seed: u64,
    ) -> Result<Self> {
        model.validate()?;
        let n = replica.size();
        if matrix.rows() != n || matrix.cols() != n {
            return Err(BlockAmcError::ShapeMismatch {
                op: "aged solver matrix",
                expected: n,
                got: matrix.rows().max(matrix.cols()),
            });
        }
        let mut pristine = Vec::new();
        {
            let (_, _, tree) = replica.parts_mut();
            tree.for_each_operand(&mut |_, op| pristine.push(op.effective_matrix()));
        }
        let arrays = pristine.len();
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(seed, SENTINEL_STREAM, 0, 0));
        let sentinel: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 2.0 - 1.0).collect();
        Ok(AgedSolver {
            replica,
            matrix,
            model,
            seed,
            pristine,
            stuck: vec![Vec::new(); arrays],
            age_ticks: vec![0; arrays],
            generation: vec![0; arrays],
            tick: 0,
            sentinel,
        })
    }

    /// Problem size `n`.
    pub fn size(&self) -> usize {
        self.replica.size()
    }

    /// Number of programmed arrays aging independently.
    pub fn array_count(&self) -> usize {
        self.pristine.len()
    }

    /// The pristine system matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.matrix
    }

    /// Total stuck cells accumulated across all arrays.
    pub fn stuck_cells(&self) -> usize {
        self.stuck.iter().map(Vec::len).sum()
    }

    /// Borrows the (possibly degraded) inner replica.
    pub fn replica(&self) -> &SolverReplica<E> {
        &self.replica
    }

    /// Mutably borrows the inner replica — to serve batches from the
    /// current (aged) array state in place. Solving through it is the
    /// same as [`AgedSolver::solve`]: it reads the arrays and only fills
    /// in what the engine caches per array.
    pub fn replica_mut(&mut self) -> &mut SolverReplica<E> {
        &mut self.replica
    }

    /// Solves against the current (aged) array state.
    ///
    /// At tick 0 this is bit-identical to solving on the replica before
    /// it was wrapped: construction only reads the programmed state.
    ///
    /// # Errors
    ///
    /// Shape mismatches and engine failures.
    pub fn solve(&mut self, b: &[f64]) -> Result<SolveReport> {
        self.replica.solve(b)
    }

    /// The health probe: solves the fixed sentinel RHS against the aged
    /// arrays and returns its relative residual against the pristine
    /// matrix (via [`refine::seed_quality`]). Cheap — one solve plus
    /// one mat-vec.
    ///
    /// # Errors
    ///
    /// Engine failures during the sentinel solve.
    pub fn health(&mut self) -> Result<f64> {
        let sentinel = self.sentinel.clone();
        let span = self.replica.recorder_mut().enter("aging.probe");
        let report = self.replica.solve(&sentinel)?;
        let quality = refine::seed_quality(&self.matrix, &sentinel, &report.x)?;
        self.replica.recorder_mut().exit(span);
        Ok(quality)
    }

    /// Attaches a span [`amc_obs::Recorder`] to the underlying replica:
    /// subsequent probe/repair/serve ticks record `aging.*` spans on it
    /// (read-only instrumentation; results are unchanged).
    pub fn set_recorder(&mut self, recorder: amc_obs::Recorder) {
        self.replica.set_recorder(recorder);
    }

    /// The current degraded target matrix of array `idx`: pristine
    /// state decayed by the array's age, with the stuck overlay forced
    /// on top.
    fn degraded_matrix(&self, idx: usize) -> Result<Matrix> {
        let age_s = self.age_ticks[idx] as f64 * self.model.tick_s;
        let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(
            self.seed,
            DRIFT_STREAM,
            idx as u64,
            self.generation[idx],
        ));
        let mut m = self
            .model
            .drift
            .apply(&self.pristine[idx], age_s, &mut rng)?;
        for &(r, c, v) in &self.stuck[idx] {
            m.set(r, c, v);
        }
        Ok(m)
    }

    /// Draws this tick's new stuck-at failures for every array and
    /// appends them to the persistent overlay. Zero cells are skipped:
    /// they are never programmed (the cost model treats them as free),
    /// so they have no device to get stuck.
    fn draw_faults(&mut self) {
        if self.model.faults.is_none() {
            return;
        }
        for idx in 0..self.pristine.len() {
            let mut rng = ChaCha8Rng::seed_from_u64(stream_seed(
                self.seed,
                FAULT_STREAM,
                idx as u64,
                self.tick,
            ));
            let (rows, cols) = (self.pristine[idx].rows(), self.pristine[idx].cols());
            for r in 0..rows {
                for c in 0..cols {
                    let target = self.pristine[idx].get(r, c).unwrap_or(0.0);
                    if target == 0.0 {
                        continue;
                    }
                    let state = self.model.faults.draw(&mut rng);
                    if state == FaultState::Healthy
                        || self.stuck[idx]
                            .iter()
                            .any(|&(sr, sc, _)| sr == r && sc == c)
                    {
                        continue;
                    }
                    let magnitude = match state {
                        FaultState::StuckOn => self.model.faults.g_on,
                        FaultState::StuckOff => self.model.faults.g_off,
                        FaultState::Healthy => unreachable!(),
                    };
                    self.stuck[idx].push((r, c, magnitude.copysign(target)));
                }
            }
        }
    }

    /// Recomputes every array's degraded matrix and installs it through
    /// the engine, in canonical program order.
    fn install_all(&mut self) -> Result<()> {
        let degraded: Vec<Matrix> = (0..self.pristine.len())
            .map(|i| self.degraded_matrix(i))
            .collect::<Result<_>>()?;
        let (engine, _, tree) = self.replica.parts_mut();
        tree.for_each_operand_mut(&mut |idx, op| {
            *op = engine.program(&degraded[idx])?;
            Ok(())
        })
    }

    /// Advances the virtual clock by `ticks`, aging every array: drift
    /// deepens with age, new stuck cells are drawn per tick, and the
    /// degraded state is installed on the arrays.
    ///
    /// # Errors
    ///
    /// Drift-model application and engine programming failures.
    pub fn advance(&mut self, ticks: u64) -> Result<()> {
        for _ in 0..ticks {
            self.tick += 1;
            for age in &mut self.age_ticks {
                *age += 1;
            }
            self.draw_faults();
        }
        if ticks > 0 {
            self.install_all()?;
        }
        Ok(())
    }

    /// Reprograms the given arrays back to their pristine targets:
    /// resets their age, bumps their generation (fresh drift draws),
    /// charges [`ProgramCostModel`] energy/time, and reinstalls the
    /// tree. Stuck cells persist — write-and-verify cannot fix them.
    ///
    /// Returns `(energy_j, row_parallel_time_s)`.
    fn reprogram_arrays(&mut self, idxs: &[usize]) -> Result<(f64, f64)> {
        let span = self.replica.recorder_mut().enter("aging.reprogram");
        let mut energy = 0.0;
        let mut time = 0.0;
        for &i in idxs {
            let cost = program_cost(
                &self.pristine[i],
                self.model.program_accuracy,
                &self.model.cost,
            )
            .map_err(BlockAmcError::from)?;
            energy += cost.energy_j;
            time += cost.time_row_parallel_s;
            self.age_ticks[i] = 0;
            self.generation[i] += 1;
        }
        self.install_all()?;
        let arrays = idxs.len() as f64;
        self.replica
            .recorder_mut()
            .exit_with(span, &[("arrays", arrays)]);
        Ok((energy, time))
    }

    /// The `k` arrays whose current state deviates most from pristine
    /// (relative Frobenius deviation), worst first.
    fn worst_arrays(&self, k: usize) -> Result<Vec<usize>> {
        let mut scored: Vec<(usize, f64)> = Vec::with_capacity(self.pristine.len());
        for i in 0..self.pristine.len() {
            let deviation = self
                .degraded_matrix(i)?
                .sub_matrix(&self.pristine[i])?
                .frobenius_norm();
            let scale = self.pristine[i].frobenius_norm();
            scored.push((
                i,
                if scale > 0.0 {
                    deviation / scale
                } else {
                    deviation
                },
            ));
        }
        // Stable worst-first order with the array index as tie-break,
        // so the selection is deterministic.
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        Ok(scored.into_iter().take(k).map(|(i, _)| i).collect())
    }

    /// Runs one full scheduler tick: age one tick, probe health, let
    /// the policy act (see [`RepairPolicy`]), serve every RHS in `rhs`,
    /// and return the tick's [`TickRecord`].
    ///
    /// # Errors
    ///
    /// Aging, engine, programming-cost, and CG-refinement failures
    /// (refinement requires the system matrix to be SPD).
    pub fn run_tick(
        &mut self,
        scheduler: &mut RepairScheduler,
        rhs: &[Vec<f64>],
    ) -> Result<TickRecord> {
        let tick_span = self.replica.recorder_mut().enter("aging.tick");
        self.advance(1)?;
        let health = self.health()?;

        let mut action = RepairAction::Serve;
        let mut energy_j = 0.0;
        let mut repair_time_s = 0.0;
        let mut arrays_reprogrammed = 0u64;
        match scheduler.policy {
            RepairPolicy::Never => {}
            RepairPolicy::Always => {
                let all: Vec<usize> = (0..self.pristine.len()).collect();
                let (e, t) = self.reprogram_arrays(&all)?;
                energy_j = e;
                repair_time_s = t;
                arrays_reprogrammed = all.len() as u64;
                action = RepairAction::ReprogramFull;
            }
            RepairPolicy::ResidualThreshold {
                refine_above,
                reprogram_above,
            } => {
                if health > reprogram_above {
                    let all: Vec<usize> = (0..self.pristine.len()).collect();
                    let (e, t) = self.reprogram_arrays(&all)?;
                    energy_j = e;
                    repair_time_s = t;
                    arrays_reprogrammed = all.len() as u64;
                    action = RepairAction::ReprogramFull;
                } else if health > refine_above {
                    action = RepairAction::Refine;
                }
            }
            RepairPolicy::Budgeted {
                energy_budget_j,
                reprogram_above,
                arrays_per_repair,
            } => {
                if health > reprogram_above {
                    let idxs = self.worst_arrays(arrays_per_repair)?;
                    let estimate: f64 = idxs
                        .iter()
                        .map(|&i| {
                            program_cost(
                                &self.pristine[i],
                                self.model.program_accuracy,
                                &self.model.cost,
                            )
                            .map(|c| c.energy_j)
                            .map_err(BlockAmcError::from)
                        })
                        .sum::<Result<f64>>()?;
                    if scheduler.spent_energy_j + estimate <= energy_budget_j {
                        let (e, t) = self.reprogram_arrays(&idxs)?;
                        energy_j = e;
                        repair_time_s = t;
                        arrays_reprogrammed = idxs.len() as u64;
                        action = RepairAction::ReprogramPartial(idxs.len());
                    } else {
                        action = RepairAction::Refine;
                    }
                }
            }
        }
        scheduler.spent_energy_j += energy_j;

        // Serve the tick's request batch against whatever state the
        // policy left behind, refining digitally when it asked for it.
        let refine = action == RepairAction::Refine;
        let mut residual_sum = 0.0;
        let mut refine_iterations = 0u64;
        let mut iterations_saved = 0i64;
        for b in rhs {
            let degraded = self.replica.solve(b)?.x;
            let x = if refine {
                let tolerance = (self.model.slo_residual * 0.1).max(1e-14);
                let max_iterations = 20 * self.size() + 100;
                let span = self.replica.recorder_mut().enter("aging.refine");
                let outcome =
                    refine::refine_with_cg(&self.matrix, b, &degraded, tolerance, max_iterations)?;
                let iters = outcome.iterations_with_seed as f64;
                self.replica
                    .recorder_mut()
                    .exit_with(span, &[("iterations", iters)]);
                refine_iterations += outcome.iterations_with_seed as u64;
                iterations_saved += outcome.iterations_saved() as i64;
                outcome.x
            } else {
                degraded
            };
            residual_sum += refine::seed_quality(&self.matrix, b, &x)?;
        }
        let accuracy = if rhs.is_empty() {
            health
        } else {
            residual_sum / rhs.len() as f64
        };
        let availability = if accuracy <= self.model.slo_residual {
            (1.0 - repair_time_s / self.model.tick_s).max(0.0)
        } else {
            0.0
        };

        self.replica
            .recorder_mut()
            .exit_with(tick_span, &[("health", health)]);
        Ok(TickRecord {
            tick: self.tick,
            health,
            action,
            arrays_reprogrammed,
            energy_j,
            repair_time_s,
            refine_iterations,
            iterations_saved,
            accuracy,
            availability,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{BlockAmcSolver, SolverConfig};
    use amc_linalg::Matrix;

    fn spd_matrix(n: usize) -> Matrix {
        Matrix::from_fn(n, n, |i, j| {
            if i == j {
                4.0 + i as f64 * 0.1
            } else {
                1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        })
    }

    fn aged(n: usize, model: AgingModel, seed: u64) -> AgedSolver<crate::engine::NumericEngine> {
        let a = spd_matrix(n);
        let config = SolverConfig::builder().finish().unwrap();
        let mut solver = BlockAmcSolver::from_config(crate::engine::NumericEngine::new(), config);
        let replica = solver.prepare(&a).unwrap().replicate(1).remove(0);
        AgedSolver::new(replica, a, model, seed).unwrap()
    }

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

    #[test]
    fn fresh_solver_is_bit_identical_to_unwrapped_replica() {
        let a = spd_matrix(8);
        let config = SolverConfig::builder().finish().unwrap();
        let mut solver = BlockAmcSolver::from_config(crate::engine::NumericEngine::new(), config);
        let mut replicas = solver.prepare(&a).unwrap().replicate(2);
        let mut direct = replicas.pop().unwrap();
        let mut aged =
            AgedSolver::new(replicas.pop().unwrap(), a, AgingModel::typical_rram(), 7).unwrap();
        let b = vec![1.0; 8];
        assert_eq!(direct.solve(&b).unwrap().x, aged.solve(&b).unwrap().x);
    }

    #[test]
    fn health_degrades_monotonically_under_drift() {
        let mut aged = aged(8, accelerated_model(), 11);
        let h0 = aged.health().unwrap();
        assert!(h0 < 1e-10, "fresh health {h0}");
        let mut last = h0;
        for _ in 0..5 {
            aged.advance(3).unwrap();
            let h = aged.health().unwrap();
            assert!(
                h >= last,
                "health must not improve while aging: {h} < {last}"
            );
            last = h;
        }
        assert!(last > 1e-4, "drift should be visible, got {last}");
    }

    #[test]
    fn aging_replay_is_deterministic() {
        let run = || {
            let mut aged = aged(8, accelerated_model(), 23);
            let mut sched = RepairScheduler::new(RepairPolicy::ResidualThreshold {
                refine_above: 1e-6,
                reprogram_above: 1e-2,
            })
            .unwrap();
            let rhs = vec![vec![1.0; 8], vec![0.5; 8]];
            (0..6)
                .map(|_| aged.run_tick(&mut sched, &rhs).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reprogram_restores_health_and_charges_energy() {
        let mut aged = aged(8, accelerated_model(), 31);
        let mut sched = RepairScheduler::new(RepairPolicy::Always).unwrap();
        aged.advance(10).unwrap();
        let degraded = aged.health().unwrap();
        assert!(degraded > 1e-6);
        let rec = aged.run_tick(&mut sched, &[vec![1.0; 8]]).unwrap();
        assert_eq!(rec.action, RepairAction::ReprogramFull);
        assert!(rec.energy_j > 0.0);
        assert!(sched.spent_energy_j > 0.0);
        let healed = aged.health().unwrap();
        assert!(healed < degraded * 1e-2, "reprogram should heal: {healed}");
    }

    #[test]
    fn stuck_cells_survive_reprogramming() {
        let mut model = accelerated_model();
        model.faults = FaultModel {
            p_stuck_on: 0.05,
            p_stuck_off: 0.05,
            g_on: 1.0,
            g_off: 0.0,
        };
        let mut aged = aged(8, model, 5);
        aged.advance(10).unwrap();
        let stuck = aged.stuck_cells();
        assert!(stuck > 0, "hazard of 10% over 10 ticks should stick cells");
        let mut sched = RepairScheduler::new(RepairPolicy::Always).unwrap();
        aged.run_tick(&mut sched, &[]).unwrap();
        assert!(aged.stuck_cells() >= stuck);
    }

    #[test]
    fn budgeted_policy_stops_spending_at_the_budget() {
        let mut aged = aged(8, accelerated_model(), 13);
        let probe_cost = program_cost(&aged.pristine[0], 0.01, &aged.model.cost)
            .unwrap()
            .energy_j;
        let mut sched = RepairScheduler::new(RepairPolicy::Budgeted {
            energy_budget_j: probe_cost * 1.5,
            reprogram_above: 1e-9,
            arrays_per_repair: 1,
        })
        .unwrap();
        let mut repairs = 0;
        for _ in 0..8 {
            let rec = aged.run_tick(&mut sched, &[vec![1.0; 8]]).unwrap();
            repairs += rec.arrays_reprogrammed;
        }
        assert!(repairs >= 1, "budget allows at least one repair");
        assert!(
            sched.spent_energy_j <= probe_cost * 1.5,
            "budget must bound spending"
        );
    }

    #[test]
    fn invalid_configs_fail_fast() {
        let a = spd_matrix(4);
        let config = SolverConfig::builder().finish().unwrap();
        let mut solver = BlockAmcSolver::from_config(crate::engine::NumericEngine::new(), config);
        let replica = solver.prepare(&a).unwrap().replicate(1).remove(0);
        let mut model = AgingModel::typical_rram();
        model.tick_s = 0.0;
        assert!(matches!(
            AgedSolver::new(replica, a, model, 1),
            Err(BlockAmcError::InvalidConfig { .. })
        ));
        assert!(RepairScheduler::new(RepairPolicy::ResidualThreshold {
            refine_above: 1e-2,
            reprogram_above: 1e-4,
        })
        .is_err());
        assert!(RepairScheduler::new(RepairPolicy::Budgeted {
            energy_budget_j: 0.0,
            reprogram_above: 1e-3,
            arrays_per_repair: 1,
        })
        .is_err());
        assert!(RepairScheduler::new(RepairPolicy::Budgeted {
            energy_budget_j: 1.0,
            reprogram_above: 1e-3,
            arrays_per_repair: 0,
        })
        .is_err());
    }
}
