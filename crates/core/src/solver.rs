//! High-level solver facade.
//!
//! The facade is built in two steps. A [`SolverConfig`] — created
//! through [`SolverConfig::builder`] — selects the architecture
//! ([`Stages`]), the per-level signal path ([`SignalPlan`]), the split
//! rule ([`SplitRule`]), and trace capture. Binding a config to an
//! engine yields a [`BlockAmcSolver`], whose [`prepare`] programs every
//! array of the partition tree **exactly once** and returns a
//! [`PreparedSolver`] that solves any number of right-hand sides against
//! those arrays — the paper's §III.B amortization: matrices are
//! programmed into nonvolatile arrays once, then reused.
//!
//! Every architecture executes on the same recursive cascade core
//! (`run_cascade` in `crate::multi_stage`); they differ only in tree
//! depth and signal path. The paper's three compared solvers map to:
//!
//! * `Stages::Original` — the baseline: one INV circuit with a single
//!   full-size array,
//! * `Stages::One` — the one-stage BlockAMC macro (Fig. 4),
//! * `Stages::Two` — the two-stage solver (Fig. 5),
//! * `Stages::Multi(d)` — the depth-`d` generalization, with a
//!   paper-style signal plan (`Bus` hops above one `Macro` level) by
//!   default.
//!
//! [`prepare`]: BlockAmcSolver::prepare

use amc_linalg::{vector, Matrix};
use amc_obs::Recorder;

use crate::converter::IoConfig;
use crate::engine::{AmcEngine, EngineStats};
use crate::multi_stage::{self, PreparedMultiStage};
use crate::{BlockAmcError, Result};

pub use crate::multi_stage::{LevelIo, PartitionPlan, SignalPlan, SplitRule, StepId, StepRecord};
pub use crate::split_search::SplitSearchOptions;

/// Solver architecture selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Stages {
    /// Single full-size INV circuit (the paper's "original AMC" baseline).
    Original,
    /// One-stage BlockAMC: one partition, five steps on half-size arrays.
    One,
    /// Two-stage BlockAMC: recursive partition, sixteen quarter-size
    /// arrays.
    Two,
    /// Multi-stage BlockAMC at the given depth (`Multi(1)` is the
    /// one-stage tree with natural-size MVM blocks; see
    /// `crate::multi_stage`). `Multi(0)` is rejected by validation —
    /// use [`Stages::Original`] for a single full-size array.
    Multi(usize),
}

impl Stages {
    /// The partition-tree depth of this architecture.
    pub fn depth(&self) -> usize {
        match self {
            Stages::Original => 0,
            Stages::One => 1,
            Stages::Two => 2,
            Stages::Multi(d) => *d,
        }
    }
}

/// Complete configuration of a [`BlockAmcSolver`], independent of the
/// engine: architecture, per-level signal path, split rule, and trace
/// capture. Build one with [`SolverConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolverConfig {
    stages: Stages,
    signal: SignalPlan,
    split: SplitRule,
    capture_trace: bool,
}

impl SolverConfig {
    /// Starts building a configuration (defaults: [`Stages::One`], an
    /// ideal signal path in the architecture's paper layout, midpoint
    /// splits, trace capture on).
    pub fn builder() -> SolverConfigBuilder {
        SolverConfigBuilder::default()
    }

    /// The architecture's default signal plan: the paper layout
    /// ([`SignalPlan::paper`]) at the architecture's depth, carrying
    /// `io` at every level.
    pub(crate) fn default_signal_plan(stages: Stages, io: IoConfig) -> SignalPlan {
        SignalPlan::paper(stages.depth(), io)
    }

    /// The configured architecture.
    pub fn stages(&self) -> Stages {
        self.stages
    }

    /// The per-level signal-path plan.
    pub fn signal_plan(&self) -> &SignalPlan {
        &self.signal
    }

    /// The split-index rule applied at every partition node.
    pub fn split_rule(&self) -> SplitRule {
        self.split
    }

    /// Whether solves record per-step signal traces.
    pub fn capture_trace(&self) -> bool {
        self.capture_trace
    }

    /// Validates the size-independent parts of the configuration.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] for `Stages::Multi(0)`, an
    /// invalid converter configuration in the signal plan, or a plan
    /// with non-`Pure` entries deeper than the architecture's cascade
    /// (which would otherwise be silently ignored).
    pub(crate) fn validate(&self) -> Result<()> {
        if self.stages == Stages::Multi(0) {
            return Err(BlockAmcError::config(
                "Stages::Multi(0) has no cascade; use Stages::Original \
                 for a single full-size array",
            ));
        }
        // Cascade levels run 0..depth (a depth-0 tree still honours a
        // level-0 entry as its digital boundary); a converter entry
        // past the deepest cascade level would never execute.
        let deepest_entry = self
            .signal
            .levels()
            .iter()
            .rposition(|level| *level != LevelIo::Pure)
            .map_or(0, |i| i + 1);
        let cascade_levels = self.stages.depth().max(1);
        if deepest_entry > cascade_levels {
            return Err(BlockAmcError::config(format!(
                "signal plan configures level {} but a {:?} solver has \
                 only {cascade_levels} cascade level(s); the deeper \
                 entries would be silently ignored",
                deepest_entry - 1,
                self.stages,
            )));
        }
        self.signal.validate()
    }

    /// Validates the configuration against a concrete problem size.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] when the architecture cannot
    /// partition an `n`-sized system (e.g. depth exceeding `log2(n)`).
    pub fn validate_for_size(&self, n: usize) -> Result<()> {
        self.validate()?;
        if n == 0 {
            return Err(BlockAmcError::config("cannot solve an empty 0x0 system"));
        }
        match self.stages {
            Stages::Original => Ok(()),
            Stages::One if n < 2 => Err(BlockAmcError::config(format!(
                "one-stage BlockAMC requires n >= 2, got {n}"
            ))),
            Stages::Two if n < 4 => Err(BlockAmcError::config(format!(
                "two-stage solver requires n >= 4, got {n}"
            ))),
            Stages::Multi(d) if (d as u32) > n.ilog2() => Err(BlockAmcError::config(format!(
                "partition depth {d} exceeds log2({n}) = {}: blocks would \
                 shrink below 1x1 before the cascade bottoms out",
                n.ilog2()
            ))),
            _ => Ok(()),
        }
    }

    /// The partition layout this configuration programs: natural-size
    /// MVM blocks for `Original`/`One`/`Multi`, the paper's quadrant
    /// tiling for `Two`, with the configured split rule.
    pub(crate) fn partition_plan(&self) -> PartitionPlan {
        let base = match self.stages {
            Stages::Original => PartitionPlan::depth(0),
            Stages::One => PartitionPlan::depth(1),
            Stages::Two => PartitionPlan::paper(2),
            Stages::Multi(d) => PartitionPlan::depth(d),
        };
        base.with_split_rule(self.split)
    }
}

/// Encodes as a four-field object: `stages`, `signal_plan`,
/// `split_rule`, `capture_trace`.
#[cfg(feature = "serde")]
impl serde::ToConfig for SolverConfig {
    fn to_json(&self) -> serde::Json {
        serde::Json::obj([
            ("stages", serde::ToConfig::to_json(&self.stages)),
            ("signal_plan", serde::ToConfig::to_json(&self.signal)),
            ("split_rule", serde::ToConfig::to_json(&self.split)),
            (
                "capture_trace",
                serde::ToConfig::to_json(&self.capture_trace),
            ),
        ])
    }
}

/// Decodes by routing the four fields back through
/// [`SolverConfig::builder`], so a file-loaded configuration passes
/// exactly the validation an in-code one does — the same contract as
/// the `amc-serve` wire codec.
#[cfg(feature = "serde")]
impl serde::FromConfig for SolverConfig {
    fn from_json(value: &serde::Json) -> std::result::Result<Self, serde::ConfigError> {
        let record = serde::decode::fields(
            value,
            "SolverConfig",
            &["stages", "signal_plan", "split_rule", "capture_trace"],
        )?;
        SolverConfig::builder()
            .stages(record.required("stages")?)
            .signal_plan(record.required("signal_plan")?)
            .split_rule(record.required("split_rule")?)
            .capture_trace(record.required("capture_trace")?)
            .finish()
            .map_err(|e| serde::ConfigError::invalid(e.to_string()))
    }
}

/// Builder for [`SolverConfig`] — the single configuration surface of
/// the facade.
///
/// # Example
///
/// ```
/// use blockamc::converter::IoConfig;
/// use blockamc::engine::NumericEngine;
/// use blockamc::solver::{SolverConfig, SplitRule, SplitSearchOptions, Stages};
///
/// # fn main() -> Result<(), blockamc::BlockAmcError> {
/// let solver = SolverConfig::builder()
///     .stages(Stages::Two)
///     .io(IoConfig::default_8bit())
///     .split_rule(SplitRule::Searched(SplitSearchOptions::default()))
///     .build(NumericEngine::new())?;
/// # let _ = solver;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SolverConfigBuilder {
    stages: Stages,
    io: IoConfig,
    signal: Option<SignalPlan>,
    split: SplitRule,
    capture_trace: bool,
}

impl Default for SolverConfigBuilder {
    fn default() -> Self {
        SolverConfigBuilder {
            stages: Stages::One,
            io: IoConfig::ideal(),
            signal: None,
            split: SplitRule::Halves,
            capture_trace: true,
        }
    }
}

impl SolverConfigBuilder {
    /// Selects the architecture.
    pub fn stages(mut self, stages: Stages) -> Self {
        self.stages = stages;
        self
    }

    /// Sets the DAC/ADC/S&H configuration used by the architecture's
    /// default signal plan (ignored when [`signal_plan`] supplies an
    /// explicit plan).
    ///
    /// [`signal_plan`]: SolverConfigBuilder::signal_plan
    pub fn io(mut self, io: IoConfig) -> Self {
        self.io = io;
        self
    }

    /// Overrides the per-level signal plan (otherwise
    /// `SolverConfig::default_signal_plan` of the selected
    /// architecture is used).
    pub fn signal_plan(mut self, signal: SignalPlan) -> Self {
        self.signal = Some(signal);
        self
    }

    /// Sets the split-index rule applied at every partition node.
    pub fn split_rule(mut self, split: SplitRule) -> Self {
        self.split = split;
        self
    }

    /// Enables or disables per-step signal-trace capture (on by
    /// default).
    pub fn capture_trace(mut self, capture: bool) -> Self {
        self.capture_trace = capture;
        self
    }

    /// Finishes the configuration without binding an engine.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] for nonsensical configurations
    /// (see `SolverConfig::validate`).
    pub fn finish(self) -> Result<SolverConfig> {
        let config = SolverConfig {
            stages: self.stages,
            signal: self
                .signal
                .unwrap_or_else(|| SolverConfig::default_signal_plan(self.stages, self.io)),
            split: self.split,
            capture_trace: self.capture_trace,
        };
        config.validate()?;
        Ok(config)
    }

    /// Finishes the configuration and binds it to an engine.
    ///
    /// # Errors
    ///
    /// Same conditions as [`SolverConfigBuilder::finish`].
    pub fn build<E: AmcEngine>(self, engine: E) -> Result<BlockAmcSolver<E>> {
        Ok(BlockAmcSolver::from_config(engine, self.finish()?))
    }
}

/// Result of a facade solve.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The recovered solution of `A·x = b`.
    pub x: Vec<f64>,
    /// The architecture used.
    pub stages: Stages,
    /// Engine name, as reported by [`AmcEngine::name`] — for shipped
    /// backends this is the registry key (see
    /// [`crate::engine::EngineRegistry::builtin`]; the registry, not
    /// this field's docs, is the authoritative list).
    pub engine: &'static str,
    /// Per-step trace of the root cascade when trace capture is on and
    /// the root level records per-step signals — a macro level (e.g.
    /// `Stages::One`) or a pure analog cascade. Bus-connected roots
    /// report [`SolveReport::inner_traces`] instead, and a depth-0 tree
    /// has no cascade to trace.
    pub trace: Option<Vec<StepRecord>>,
    /// Labeled traces of the inner macros a bus-connected root captured
    /// (e.g. the `"A4s"`/`"A1"` second-stage traces of `Stages::Two`).
    pub inner_traces: Vec<(String, Vec<StepRecord>)>,
    /// Engine cost counters accumulated during this solve (including
    /// array programming for [`BlockAmcSolver::solve`]; excluding it for
    /// [`PreparedSolver::solve`], which programs nothing).
    pub stats_delta: EngineStats,
}

fn stats_delta(before: &EngineStats, after: &EngineStats) -> EngineStats {
    *after - *before
}

/// Engine + configuration, ready to prepare and solve linear systems.
///
/// # Example
///
/// ```
/// use blockamc::engine::NumericEngine;
/// use blockamc::solver::{BlockAmcSolver, Stages};
/// use amc_linalg::Matrix;
///
/// # fn main() -> Result<(), blockamc::BlockAmcError> {
/// let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]])?;
/// let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::One);
/// let report = solver.solve(&a, &[4.0, 3.0])?;
/// assert!((report.x[0] - 1.0).abs() < 1e-10);
/// assert!((report.x[1] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
///
/// The engine can equally be chosen *as data* — a registry name (or an
/// [`crate::engine::EngineSpec`]) instead of a concrete type — and the
/// solver runs unchanged over `Box<dyn AmcEngine>`:
///
/// ```
/// use blockamc::engine::EngineRegistry;
/// use blockamc::solver::{SolverConfig, Stages};
/// use amc_linalg::Matrix;
///
/// # fn main() -> Result<(), blockamc::BlockAmcError> {
/// let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]])?;
/// let mut solver = SolverConfig::builder()
///     .stages(Stages::One)
///     .build(EngineRegistry::builtin().build("fixed-point", 0)?)?;
/// let report = solver.solve(&a, &[4.0, 3.0])?;
/// assert_eq!(report.engine, "fixed-point");
/// # Ok(())
/// # }
/// ```
///
/// To amortize array programming across many right-hand sides, use
/// [`BlockAmcSolver::prepare`]:
///
/// ```
/// use blockamc::engine::{AmcEngine, NumericEngine};
/// use blockamc::solver::{SolverConfig, Stages};
/// use amc_linalg::Matrix;
///
/// # fn main() -> Result<(), blockamc::BlockAmcError> {
/// let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]])?;
/// let mut solver = SolverConfig::builder()
///     .stages(Stages::One)
///     .build(NumericEngine::new())?;
/// let mut prepared = solver.prepare(&a)?;
/// let r1 = prepared.solve(&[4.0, 3.0])?;
/// let r2 = prepared.solve(&[3.0, 3.0])?;
/// assert_eq!(r1.stats_delta.program_ops, 0); // arrays reused, not reprogrammed
/// assert_eq!(r2.stats_delta.program_ops, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BlockAmcSolver<E: AmcEngine> {
    engine: E,
    config: SolverConfig,
    recorder: Recorder,
}

impl<E: AmcEngine> BlockAmcSolver<E> {
    /// Creates a solver with the architecture's default configuration
    /// and an ideal signal path.
    ///
    /// Nonsensical architectures (e.g. `Stages::Multi(0)`) are rejected
    /// when [`prepare`]/[`solve`] is called, keeping this constructor
    /// infallible; use [`SolverConfig::builder`] to fail fast instead.
    ///
    /// [`prepare`]: BlockAmcSolver::prepare
    /// [`solve`]: BlockAmcSolver::solve
    pub fn new(engine: E, stages: Stages) -> Self {
        BlockAmcSolver {
            engine,
            config: SolverConfig {
                stages,
                signal: SolverConfig::default_signal_plan(stages, IoConfig::ideal()),
                split: SplitRule::Halves,
                capture_trace: true,
            },
            recorder: Recorder::disabled(),
        }
    }

    /// Binds a finished configuration to an engine.
    pub fn from_config(engine: E, config: SolverConfig) -> Self {
        BlockAmcSolver {
            engine,
            config,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a span [`Recorder`]: subsequent [`prepare`] /
    /// [`solve`] calls record hierarchical prepare/solve spans on it.
    ///
    /// Instrumentation is strictly read-only — results are bit-identical
    /// whether the recorder is enabled, disabled (the default), or
    /// absent; only timing observation changes.
    ///
    /// [`prepare`]: BlockAmcSolver::prepare
    /// [`solve`]: BlockAmcSolver::solve
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Borrows the attached recorder (e.g. to flush it mid-run).
    pub(crate) fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Borrows the engine (e.g. to read [`AmcEngine::stats`]).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// Partitions `a` per the configuration and programs every array of
    /// the partition tree **once**, returning a solver that reuses those
    /// arrays — and therefore one fixed variation draw, as in hardware —
    /// for any number of right-hand sides.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::NonFinite`] for a NaN or infinite entry of `a`,
    /// configuration validation ([`SolverConfig::validate_for_size`]),
    /// shape, partitioning/Schur, and programming failures.
    pub fn prepare(&mut self, a: &Matrix) -> Result<PreparedSolver<'_, E>> {
        // Checked before any engine call.
        if !a.is_square() {
            return Err(BlockAmcError::ShapeMismatch {
                op: "prepare (square matrix required)",
                expected: a.rows(),
                got: a.cols(),
            });
        }
        BlockAmcError::check_finite("A", a.as_slice())?;
        self.config.validate_for_size(a.rows())?;
        let plan = self.config.partition_plan();
        let tree = multi_stage::prepare_plan(&mut self.engine, a, &plan, &mut self.recorder)?;
        Ok(PreparedSolver {
            engine: &mut self.engine,
            config: &self.config,
            tree,
            recorder: &mut self.recorder,
        })
    }

    /// Solves `A·x = b`: a thin [`prepare`]-then-[`solve`] convenience.
    ///
    /// Arrays are (re)programmed on every call — each call models a
    /// fresh hardware deployment, which is what the Monte-Carlo accuracy
    /// sweeps need. To amortize programming across many right-hand
    /// sides, call [`prepare`] once and solve through the returned
    /// [`PreparedSolver`].
    ///
    /// [`prepare`]: BlockAmcSolver::prepare
    /// [`solve`]: PreparedSolver::solve
    ///
    /// # Errors
    ///
    /// Shape mismatches, [`BlockAmcError::NonFinite`] for a NaN or
    /// infinity in `a` or `b` (before anything is programmed),
    /// configuration validation, partitioning/Schur failures, and engine
    /// errors.
    pub fn solve(&mut self, a: &Matrix, b: &[f64]) -> Result<SolveReport> {
        if a.is_square() && b.len() != a.rows() {
            return Err(BlockAmcError::ShapeMismatch {
                op: "solve",
                expected: a.rows(),
                got: b.len(),
            });
        }
        // Checked before `prepare` programs anything.
        BlockAmcError::check_finite("b", b)?;
        let before = self.engine.stats();
        let mut report = {
            let mut prepared = self.prepare(a)?;
            prepared.solve(b)?
        };
        // The convenience path charges programming to the solve, exactly
        // like the pre-builder facade did.
        report.stats_delta = stats_delta(&before, &self.engine.stats());
        Ok(report)
    }
}

/// A partition tree whose arrays have been programmed once, bound to
/// the engine and configuration that built it.
///
/// Obtained from [`BlockAmcSolver::prepare`]; solves any number of
/// right-hand sides against the same programmed arrays (one variation
/// draw, zero additional `program_ops`).
#[derive(Debug)]
pub struct PreparedSolver<'a, E: AmcEngine> {
    engine: &'a mut E,
    config: &'a SolverConfig,
    tree: PreparedMultiStage,
    recorder: &'a mut Recorder,
}

impl<E: AmcEngine> PreparedSolver<'_, E> {
    /// Partition-tree depth.
    pub fn depth(&self) -> usize {
        self.tree.depth()
    }

    /// Largest programmed array dimension in the tree.
    #[cfg(test)]
    pub(crate) fn max_array_size(&self) -> usize {
        self.tree.max_leaf_size()
    }

    /// Borrows the engine (e.g. to read [`AmcEngine::stats`]).
    pub fn engine(&self) -> &E {
        self.engine
    }

    /// Solves `A·x = b` against the already-programmed arrays.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::NonFinite`] for a NaN or infinite entry of `b`
    /// (before any engine call), shape mismatches and engine failures.
    pub fn solve(&mut self, b: &[f64]) -> Result<SolveReport> {
        solve_prepared(self.engine, self.config, &mut self.tree, b, self.recorder)
    }

    /// Clones this prepared solver into `n` independently owned
    /// replicas — the "independently-programmed macro instances" the
    /// parallel batch layer shards work across.
    ///
    /// Each replica owns a copy of the engine and of every programmed
    /// array, modeling a separate hardware deployment whose
    /// write-and-verify loop reached the **same effective conductances**
    /// as this solver's arrays: the one variation draw taken at
    /// [`BlockAmcSolver::prepare`] time is inherited bitwise. That is
    /// the determinism contract the parallel layer builds on — any
    /// right-hand side solved on any replica is bit-identical to
    /// solving it here, so sharded output cannot depend on the worker
    /// count or on which worker stole which shard.
    ///
    /// Replication is cheap relative to preparation: no partitioning,
    /// Schur pre-processing, or variation sampling is repeated — only
    /// the programmed state is copied.
    pub fn replicate(&self, n: usize) -> Vec<SolverReplica<E>>
    where
        E: Clone,
    {
        (0..n)
            .map(|_| SolverReplica {
                engine: self.engine.clone(),
                config: self.config.clone(),
                tree: self.tree.clone(),
                // Recorder clones fork: each replica records on its own
                // worker lane of the same trace session.
                recorder: self.recorder.clone(),
                spares: Spares::default(),
            })
            .collect()
    }

    /// Solves every right-hand side of `batch` against the same
    /// programmed arrays and returns the solutions in input order —
    /// the multi-RHS workload the paper's §III.B pipelining serves.
    ///
    /// The batch runs through the cascade as one block (see
    /// [`AmcEngine::inv_block_into`]); each solution is bit-identical to
    /// [`solve`](Self::solve) on that right-hand side alone.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] for an empty batch,
    /// [`BlockAmcError::ShapeMismatch`] for a right-hand side of the
    /// wrong length and [`BlockAmcError::NonFinite`] for a NaN or
    /// infinity (both before any engine call), and engine failures.
    pub fn solve_batch(&mut self, batch: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        validate_batch(batch, self.tree.size())?;
        solve_block(
            self.engine,
            self.config,
            &mut self.tree,
            batch,
            self.recorder,
        )
    }
}

/// The checks every batch entry point runs before any engine call: a
/// non-empty batch of finite right-hand sides of length `n`. A
/// non-finite entry `i` of right-hand side `r` is reported at index
/// `r·n + i`.
///
/// Public so that a caller coalescing several requests into one batch
/// (the `amc-serve` dispatcher) can reject a bad request on its own,
/// with the message the batch solve would give, before it joins its
/// peers.
///
/// # Errors
///
/// [`BlockAmcError::InvalidConfig`] for an empty batch,
/// [`BlockAmcError::ShapeMismatch`] for a right-hand side of the wrong
/// length and [`BlockAmcError::NonFinite`] for a NaN or infinity.
pub fn validate_batch(batch: &[Vec<f64>], n: usize) -> Result<()> {
    if batch.is_empty() {
        return Err(BlockAmcError::config("batch must contain at least one RHS"));
    }
    if let Some(b) = batch.iter().find(|b| b.len() != n) {
        return Err(BlockAmcError::ShapeMismatch {
            op: "solve_batch",
            expected: n,
            got: b.len(),
        });
    }
    BlockAmcError::check_finite("b", batch.iter().flatten())
}

/// Runs one solve against an already-prepared partition tree; shared by
/// the borrowing [`PreparedSolver`] and the owning [`SolverReplica`].
/// `b` is checked for NaN and infinity before any engine call.
fn solve_prepared<E: AmcEngine>(
    engine: &mut E,
    config: &SolverConfig,
    tree: &mut PreparedMultiStage,
    b: &[f64],
    rec: &mut Recorder,
) -> Result<SolveReport> {
    BlockAmcError::check_finite("b", b)?;
    let before = engine.stats();
    let (x, log) = solve_recorded(engine, config, tree, b, 1, rec)?;
    let trace = (!log.steps.is_empty()).then_some(log.steps);
    Ok(SolveReport {
        x,
        stages: config.stages,
        engine: engine.name(),
        trace,
        inner_traces: log.inner,
        stats_delta: stats_delta(&before, &engine.stats()),
    })
}

/// Solves an already-validated batch as one `n×k` block: interleaves
/// the right-hand sides (entry `i` of right-hand side `c` at
/// `[i*k + c]`), runs the cascade once, and de-interleaves the
/// solutions in input order.
fn solve_block<E: AmcEngine>(
    engine: &mut E,
    config: &SolverConfig,
    tree: &mut PreparedMultiStage,
    batch: &[Vec<f64>],
    rec: &mut Recorder,
) -> Result<Vec<Vec<f64>>> {
    let k = batch.len();
    let mut block = vec![0.0; tree.size() * k];
    for (c, b) in batch.iter().enumerate() {
        vector::scatter_column(b, k, c, &mut block);
    }
    let (x, _) = solve_recorded(engine, config, tree, &block, k, rec)?;
    Ok((0..k)
        .map(|c| {
            let mut col = Vec::new();
            vector::gather_column(&x, k, c, &mut col);
            col
        })
        .collect())
}

/// The cascade run behind [`solve_prepared`] and [`solve_block`], inside
/// a `solve` span that carries the block's engine op counts.
fn solve_recorded<E: AmcEngine>(
    engine: &mut E,
    config: &SolverConfig,
    tree: &mut PreparedMultiStage,
    b: &[f64],
    k: usize,
    rec: &mut Recorder,
) -> Result<(Vec<f64>, multi_stage::TraceLog)> {
    let before = engine.stats();
    let span = rec.enter("solve");
    let out = multi_stage::solve_with_signal(
        engine,
        tree,
        b,
        k,
        &config.signal,
        config.capture_trace,
        rec,
    )?;
    let after = engine.stats();
    // Fold the engine op-count delta of this solve into the root span.
    rec.exit_with(
        span,
        &[
            ("n", (b.len() / k) as f64),
            (
                "inv_ops",
                after.inv_ops.saturating_sub(before.inv_ops) as f64,
            ),
            (
                "mvm_ops",
                after.mvm_ops.saturating_sub(before.mvm_ops) as f64,
            ),
        ],
    );
    Ok(out)
}

/// A self-contained copy of a prepared solver: engine, configuration,
/// and programmed partition tree, all owned.
///
/// Created by [`PreparedSolver::replicate`]. Unlike [`PreparedSolver`]
/// it borrows nothing, so replicas can be moved onto worker threads and
/// driven concurrently — each models an independently deployed macro
/// instance programmed to the same effective conductances as the
/// original (see [`PreparedSolver::replicate`] for the determinism
/// contract).
///
/// A replica that has run [`solve_batch_parallel`](Self::solve_batch_parallel)
/// keeps the worker clones it made for later calls; cloning the replica
/// does not copy them.
#[derive(Debug, Clone)]
pub struct SolverReplica<E: AmcEngine> {
    engine: E,
    config: SolverConfig,
    tree: PreparedMultiStage,
    // Cloned replicas fork the recorder, so each worker's solves land
    // on a distinct lane of the same trace session.
    recorder: Recorder,
    spares: Spares<E>,
}

/// The bitwise clones a replica's parallel batches run on besides the
/// replica itself, made on first demand and kept across calls. Cloning
/// yields none, and whatever can change the programmed state or the
/// recorder drops them (see [`SolverReplica::parts_mut`] and
/// [`SolverReplica::set_recorder`]).
struct Spares<E: AmcEngine>(Vec<SolverReplica<E>>);

impl<E: AmcEngine> Default for Spares<E> {
    fn default() -> Self {
        Spares(Vec::new())
    }
}

impl<E: AmcEngine> Clone for Spares<E> {
    fn clone(&self) -> Self {
        Spares::default()
    }
}

impl<E: AmcEngine> std::fmt::Debug for Spares<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Spares({})", self.0.len())
    }
}

impl<E: AmcEngine> SolverReplica<E> {
    /// Problem size `n`.
    pub fn size(&self) -> usize {
        self.tree.size()
    }

    /// Borrows this replica's engine (e.g. to read per-worker
    /// [`AmcEngine::stats`] after a sharded run).
    pub fn engine(&self) -> &E {
        &self.engine
    }

    /// The configuration the replica was prepared under.
    pub fn config(&self) -> &SolverConfig {
        &self.config
    }

    /// Splits the replica into disjoint mutable borrows of its engine,
    /// configuration, and programmed tree — the aging layer rewrites
    /// operands through the engine while walking the tree, which needs
    /// both halves mutable at once. The batch spares no longer match
    /// what the caller may program, so they are dropped.
    pub(crate) fn parts_mut(&mut self) -> (&mut E, &SolverConfig, &mut PreparedMultiStage) {
        self.spares = Spares::default();
        (&mut self.engine, &self.config, &mut self.tree)
    }

    /// Attaches a span [`Recorder`]: subsequent solves on this replica
    /// record hierarchical solve spans on it. See
    /// [`BlockAmcSolver::set_recorder`] for the bit-identity contract.
    /// The batch spares recorded on forks of the old recorder, so they
    /// are dropped; the next parallel batch forks the new one.
    pub(crate) fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
        self.spares = Spares::default();
    }

    /// Borrows the attached recorder (e.g. to flush it mid-run).
    pub fn recorder_mut(&mut self) -> &mut Recorder {
        &mut self.recorder
    }

    /// Solves `A·x = b` against the replica's programmed arrays.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSolver::solve`].
    pub fn solve(&mut self, b: &[f64]) -> Result<SolveReport> {
        solve_prepared(
            &mut self.engine,
            &self.config,
            &mut self.tree,
            b,
            &mut self.recorder,
        )
    }

    /// Solves every right-hand side of `batch` against the replica's
    /// programmed arrays as one block, returning the solutions in input
    /// order (see [`PreparedSolver::solve_batch`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PreparedSolver::solve_batch`].
    pub fn solve_batch(&mut self, batch: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        validate_batch(batch, self.tree.size())?;
        self.solve_shard(batch)
    }

    /// One validated shard through the block cascade.
    fn solve_shard(&mut self, batch: &[Vec<f64>]) -> Result<Vec<Vec<f64>>> {
        solve_block(
            &mut self.engine,
            &self.config,
            &mut self.tree,
            batch,
            &mut self.recorder,
        )
    }

    /// Shards `batch` over `workers` solving instances — this replica
    /// plus `workers − 1` bitwise clones of it, or one instance per
    /// right-hand side if the batch is narrower — on an `amc_par`
    /// work-stealing pool inside a `batch` span, returning the solutions
    /// in input order. The clones are made on the first call that needs
    /// them and kept for later ones; the calling thread works this
    /// replica, and every clone's recorder is flushed before returning.
    /// Each shard runs through the cascade as one block, and shards are
    /// whole multiples of the kernels' panel width
    /// ([`amc_linalg::vector::WIDE`]) where the batch allows it.
    ///
    /// **Bit-identical to [`solve_batch`](Self::solve_batch) at every
    /// worker count**: clones copy the programmed state (the one
    /// variation draw taken at prepare time), so which worker solves a
    /// right-hand side cannot show in the output. This is the entry the
    /// `amc-serve` dispatcher drives when it coalesces concurrent
    /// requests against one cached replica into a shared batch.
    ///
    /// # Errors
    ///
    /// The batch errors of [`PreparedSolver::solve_batch`], and
    /// [`BlockAmcError::InvalidConfig`] for `workers == 0`.
    pub fn solve_batch_parallel(
        &mut self,
        batch: &[Vec<f64>],
        workers: usize,
    ) -> Result<Vec<Vec<f64>>>
    where
        E: Clone,
    {
        validate_batch(batch, self.tree.size())?;
        if workers == 0 {
            return Err(BlockAmcError::config(
                "parallel batch needs at least one worker",
            ));
        }
        let span = self.recorder.enter("batch");
        let len = batch.len();
        // The pool runs at most one state per shard, and there are never
        // more shards than right-hand sides.
        let helpers = workers.min(len) - 1;
        // Taken out for the call: a panicking shard unwinds past the
        // put-back below and drops them with it.
        let mut spares = std::mem::take(&mut self.spares.0);
        while spares.len() < helpers {
            spares.push(self.clone());
        }
        let mut states: Vec<&mut SolverReplica<E>> = Vec::with_capacity(helpers + 1);
        states.push(&mut *self);
        states.extend(spares.iter_mut().take(helpers));
        // Contiguous shards; input order is restored by the
        // index-preserving pool merge.
        let shards: Vec<&[Vec<f64>]> = batch.chunks(shard_len(len, states.len())).collect();
        let sharded = amc_par::map_with_states(&mut states, shards, |replica, _, shard| {
            replica.solve_shard(shard)
        });
        for spare in &mut spares {
            spare.recorder.flush();
        }
        self.spares.0 = spares;
        let mut solutions = Vec::with_capacity(len);
        for shard in sharded {
            solutions.extend(shard?);
        }
        self.recorder
            .exit_with(span, &[("rhs", len as f64), ("workers", workers as f64)]);
        Ok(solutions)
    }
}

/// Number of shards dealt per worker: a few more shards than workers
/// keeps the stealing pool balanced when solve times vary (deeper
/// recursion on some shards, OS jitter) without shrinking shards into
/// scheduling noise.
const SHARDS_PER_WORKER: usize = 4;

/// Right-hand sides per shard when `len` of them are sharded over
/// `states` solving instances: [`SHARDS_PER_WORKER`] shards per state,
/// each rounded up to whole kernel panels ([`vector::WIDE`] columns) as
/// long as every state still gets a shard. One state solves the batch
/// as one block.
fn shard_len(len: usize, states: usize) -> usize {
    if states == 1 {
        return len;
    }
    len.div_ceil(states * SHARDS_PER_WORKER)
        .next_multiple_of(vector::WIDE)
        .min(len.div_ceil(states))
}

// Compile-time guarantee that prepared solvers cross threads: the
// `amc-serve` cache stores replicas behind a mutex and lends them to
// worker threads, so `Send` is a type-checked invariant here, not an
// assumption. `AmcEngine`'s `Send` supertrait must suffice for *any*
// engine, including the type-erased one the registry builds.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn check_engine<E: AmcEngine>() {
        assert_send::<E>();
        assert_send::<PreparedSolver<'_, E>>();
        assert_send::<SolverReplica<E>>();
    }
    check_engine::<Box<dyn AmcEngine>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::converter::Converter;
    use crate::engine::{CircuitEngine, CircuitEngineConfig, NumericEngine};
    use amc_linalg::{generate, lu, metrics};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn workload(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        let b = generate::random_vector(n, &mut rng);
        (a, b)
    }

    #[test]
    fn all_architectures_agree_with_numeric_engine() {
        let (a, b) = workload(16, 1);
        let x_ref = lu::solve(&a, &b).unwrap();
        for stages in [Stages::Original, Stages::One, Stages::Two, Stages::Multi(3)] {
            let mut solver = BlockAmcSolver::new(NumericEngine::new(), stages);
            let report = solver.solve(&a, &b).unwrap();
            assert!(
                metrics::relative_error(&x_ref, &report.x) < 1e-8,
                "{stages:?} diverged"
            );
            assert_eq!(report.stages, stages);
            assert_eq!(report.engine, "numeric");
        }
    }

    #[test]
    fn trace_only_for_one_stage() {
        let (a, b) = workload(8, 2);
        let mut s1 = BlockAmcSolver::new(NumericEngine::new(), Stages::One);
        assert!(s1.solve(&a, &b).unwrap().trace.is_some());
        let mut s0 = BlockAmcSolver::new(NumericEngine::new(), Stages::Original);
        assert!(s0.solve(&a, &b).unwrap().trace.is_none());
    }

    #[test]
    fn two_stage_reports_inner_traces() {
        let (a, b) = workload(8, 2);
        let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::Two);
        let report = solver.solve(&a, &b).unwrap();
        assert!(report.trace.is_none());
        assert_eq!(
            report
                .inner_traces
                .iter()
                .map(|t| t.0.as_str())
                .collect::<Vec<_>>(),
            ["A4s", "A1"]
        );
    }

    #[test]
    fn trace_capture_can_be_disabled() {
        let (a, b) = workload(8, 2);
        let mut solver = SolverConfig::builder()
            .stages(Stages::One)
            .capture_trace(false)
            .build(NumericEngine::new())
            .unwrap();
        let report = solver.solve(&a, &b).unwrap();
        assert!(report.trace.is_none());
        assert!(report.inner_traces.is_empty());
    }

    #[test]
    fn stats_delta_counts_operations() {
        let (a, b) = workload(8, 3);
        let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::One);
        let r1 = solver.solve(&a, &b).unwrap();
        assert_eq!(r1.stats_delta.inv_ops, 3);
        assert_eq!(r1.stats_delta.mvm_ops, 2);
        assert_eq!(r1.stats_delta.program_ops, 4);
        // Second solve has its own delta, not cumulative.
        let r2 = solver.solve(&a, &b).unwrap();
        assert_eq!(r2.stats_delta.inv_ops, 3);
        assert_eq!(r2.stats_delta.program_ops, 4);
    }

    #[test]
    fn prepared_solver_programs_once_and_reuses_arrays() {
        let (a, _) = workload(8, 3);
        let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::One);
        let mut prepared = solver.prepare(&a).unwrap();
        assert_eq!(prepared.engine().stats().program_ops, 4);
        for seed in 0..3u64 {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let b = generate::random_vector(8, &mut rng);
            let r = prepared.solve(&b).unwrap();
            assert_eq!(r.stats_delta.program_ops, 0);
            assert_eq!(r.stats_delta.inv_ops, 3);
            let x_ref = lu::solve(&a, &b).unwrap();
            assert!(metrics::relative_error(&x_ref, &r.x) < 1e-9);
        }
        assert_eq!(prepared.engine().stats().program_ops, 4);
    }

    #[test]
    fn replicas_are_bit_identical_to_the_prepared_solver() {
        // The determinism contract of the parallel layer: a replica's
        // solve equals the original's bitwise, even under variation.
        let (a, b) = workload(12, 21);
        let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 3);
        let mut solver = BlockAmcSolver::new(engine, Stages::One);
        let mut prepared = solver.prepare(&a).unwrap();
        let mut replicas = prepared.replicate(3);
        let x_ref = prepared.solve(&b).unwrap().x;
        for (i, replica) in replicas.iter_mut().enumerate() {
            assert_eq!(replica.size(), 12);
            assert_eq!(replica.config().stages(), Stages::One);
            let x = replica.solve(&b).unwrap().x;
            assert_eq!(x, x_ref, "replica {i} diverged");
            // Replication copies programmed state; nothing is reprogrammed.
            assert_eq!(replica.engine().stats().program_ops, 4);
        }
    }

    #[test]
    fn replica_batch_parallel_is_bit_identical_to_serial() {
        // The coalescing path of amc-serve: one cached replica fans a
        // shared batch out over clones. Variation makes solutions
        // draw-dependent, so identity across worker counts proves the
        // clones inherit the draw bitwise.
        let (a, _) = workload(16, 33);
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let batch: Vec<Vec<f64>> = (0..9)
            .map(|_| generate::random_vector(16, &mut rng))
            .collect();
        let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 11);
        let mut solver = BlockAmcSolver::new(engine, Stages::One);
        let prepared = solver.prepare(&a).unwrap();
        let mut replica = prepared.replicate(1).remove(0);
        let serial = replica.clone().solve_batch(&batch).unwrap();
        for workers in [1usize, 2, 4] {
            let out = replica.solve_batch_parallel(&batch, workers).unwrap();
            assert_eq!(out, serial, "workers={workers}");
        }
        assert!(replica.solve_batch_parallel(&[], 2).is_err());
        assert!(replica.solve_batch_parallel(&batch, 0).is_err());
    }

    #[test]
    fn shards_follow_the_kernel_panel() {
        // 32 right-hand sides at 2 workers: four 8-column panels.
        assert_eq!(shard_len(32, 2), 8);
        assert_eq!(shard_len(256, 2), 32);
        // Too few panels to go round: every worker still gets a shard.
        assert_eq!(shard_len(9, 2), 5);
        assert_eq!(shard_len(7, 5), 2);
        // One state: the whole batch is one block.
        assert_eq!(shard_len(33, 1), 33);
        assert_eq!(shard_len(1, 1), 1);
    }

    #[test]
    fn replicas_and_boxed_engines_move_across_threads() {
        // Runtime companion to the compile-time Send assertions: a
        // type-erased replica is solved on another thread and must
        // produce the same bits as on this one.
        let (a, b) = workload(8, 35);
        let mut solver = SolverConfig::builder()
            .stages(Stages::One)
            .build(
                crate::engine::EngineRegistry::builtin()
                    .build("circuit", 3)
                    .unwrap(),
            )
            .unwrap();
        let mut prepared = solver.prepare(&a).unwrap();
        let mut replica = prepared.replicate(1).remove(0);
        let x_here = prepared.solve(&b).unwrap().x;
        let b2 = b.clone();
        let x_there = std::thread::spawn(move || replica.solve(&b2).unwrap().x)
            .join()
            .unwrap();
        assert_eq!(x_here, x_there);
    }

    #[test]
    fn prepared_solver_keeps_one_variation_draw() {
        // Repeated solves on one PreparedSolver hit the same programmed
        // (noisy) arrays: results are bit-identical, unlike re-preparing.
        let (a, b) = workload(12, 9);
        let engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 5);
        let mut solver = BlockAmcSolver::new(engine, Stages::One);
        let mut prepared = solver.prepare(&a).unwrap();
        let x1 = prepared.solve(&b).unwrap().x;
        let x2 = prepared.solve(&b).unwrap().x;
        assert_eq!(x1, x2);
    }

    #[test]
    fn original_vs_blockamc_accuracy_under_variation() {
        // With the same seed and variation level, both should be in the
        // same error ballpark; this is the comparison the sweeps run at
        // scale (BlockAMC wins on average, not necessarily per-draw).
        let (a, b) = workload(32, 4);
        let x_ref = lu::solve(&a, &b).unwrap();
        let mut orig = BlockAmcSolver::new(
            CircuitEngine::new(CircuitEngineConfig::paper_variation(), 7),
            Stages::Original,
        );
        let mut blk = BlockAmcSolver::new(
            CircuitEngine::new(CircuitEngineConfig::paper_variation(), 7),
            Stages::One,
        );
        let e_orig = metrics::relative_error(&x_ref, &orig.solve(&a, &b).unwrap().x);
        let e_blk = metrics::relative_error(&x_ref, &blk.solve(&a, &b).unwrap().x);
        // Condition-number amplification of the 5% conductance noise makes
        // absolute values draw-dependent; only coarse bounds are asserted.
        assert!(e_orig > 1e-6 && e_orig < 2.0, "e_orig={e_orig}");
        assert!(e_blk > 1e-6 && e_blk < 2.0, "e_blk={e_blk}");
    }

    #[test]
    fn shape_validation() {
        let (a, _) = workload(8, 5);
        let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::One);
        assert!(solver.solve(&a, &[1.0; 3]).is_err());
        assert!(solver.solve(&Matrix::zeros(2, 3), &[1.0, 1.0]).is_err());
    }

    #[test]
    fn nonsensical_configs_rejected_with_clear_errors() {
        // Multi(0) fails fast at build …
        let err = SolverConfig::builder()
            .stages(Stages::Multi(0))
            .finish()
            .unwrap_err();
        assert!(err.to_string().contains("Multi(0)"), "{err}");
        // … and at prepare through the infallible constructor.
        let (a, b) = workload(8, 5);
        let mut solver = BlockAmcSolver::new(NumericEngine::new(), Stages::Multi(0));
        assert!(solver.solve(&a, &b).is_err());
        // Depth exceeding log2(n) names the bound instead of failing in
        // the partitioner.
        let mut deep = BlockAmcSolver::new(NumericEngine::new(), Stages::Multi(4));
        let err = deep.solve(&a, &b).unwrap_err();
        assert!(err.to_string().contains("log2"), "{err}");
        // Architecture minimum sizes.
        let (a2, _) = workload(2, 6);
        let mut two = BlockAmcSolver::new(NumericEngine::new(), Stages::Two);
        assert!(two.prepare(&a2).is_err());
    }

    #[test]
    fn signal_plan_deeper_than_the_cascade_rejected() {
        // A converter entry below the leaf level would never execute;
        // that must be a loud error, not a silent drop.
        let io = IoConfig::default_8bit();
        let err = SolverConfig::builder()
            .stages(Stages::One)
            .signal_plan(SignalPlan::pure().with_level(1, LevelIo::Macro(io)))
            .finish()
            .unwrap_err();
        assert!(err.to_string().contains("level 1"), "{err}");
        // Trailing Pure padding is harmless and accepted.
        assert!(SolverConfig::builder()
            .stages(Stages::One)
            .signal_plan(SignalPlan::from_levels(vec![
                LevelIo::Macro(io),
                LevelIo::Pure,
                LevelIo::Pure,
            ]))
            .finish()
            .is_ok());
        // A depth-0 tree still honours its level-0 boundary entry.
        assert!(SolverConfig::builder()
            .stages(Stages::Original)
            .io(io)
            .finish()
            .is_ok());
    }

    #[cfg(feature = "serde")]
    #[test]
    fn solver_config_round_trips_through_json() {
        use serde::{FromConfig, ToConfig};
        let io = IoConfig::default_8bit();
        let configs = [
            SolverConfig::builder().finish().unwrap(),
            SolverConfig::builder()
                .stages(Stages::Two)
                .io(io)
                .split_rule(SplitRule::Searched(SplitSearchOptions {
                    imbalance_weight: 0.25,
                }))
                .capture_trace(false)
                .finish()
                .unwrap(),
            SolverConfig::builder()
                .stages(Stages::Multi(3))
                .signal_plan(SignalPlan::uniform_bus(2, io))
                .finish()
                .unwrap(),
        ];
        for config in configs {
            let json = config.to_json();
            let text = json.render();
            let back = SolverConfig::from_json(&serde::Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, config);
        }
    }

    #[cfg(feature = "serde")]
    #[test]
    fn solver_config_decode_revalidates_through_the_builder() {
        use serde::{FromConfig, ToConfig};
        // A structurally valid file describing a nonsensical solver must
        // fail decode with the builder's validation message.
        let mut json = SolverConfig::builder().finish().unwrap().to_json();
        let serde::Json::Obj(pairs) = &mut json else {
            panic!()
        };
        pairs[0].1 = serde::Json::tagged("Multi", serde::Json::Int(0));
        let err = SolverConfig::from_json(&json).unwrap_err();
        assert!(err.to_string().contains("Multi(0)"), "{err}");
        // Misspelled fields name the offender and the known set.
        let bad = serde::Json::obj([("stagez", serde::Json::Str("One".into()))]);
        let err = SolverConfig::from_json(&bad).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("stagez") && msg.contains("stages"), "{msg}");
    }

    #[test]
    fn io_config_is_applied() {
        let (a, b) = workload(8, 6);
        let x_ref = lu::solve(&a, &b).unwrap();
        let mut ideal = BlockAmcSolver::new(NumericEngine::new(), Stages::One);
        let mut coarse = SolverConfig::builder()
            .stages(Stages::One)
            .io(IoConfig {
                dac: Some(Converter::new(4, 1.0).unwrap()),
                adc: Some(Converter::new(4, 1.0).unwrap()),
                sh_droop: 0.0,
            })
            .build(NumericEngine::new())
            .unwrap();
        let e_ideal = metrics::relative_error(&x_ref, &ideal.solve(&a, &b).unwrap().x);
        let e_coarse = metrics::relative_error(&x_ref, &coarse.solve(&a, &b).unwrap().x);
        assert!(e_ideal < 1e-9);
        assert!(e_coarse > 1e-3, "4-bit converters must hurt: {e_coarse}");
    }

    #[test]
    fn multi_stage_no_longer_ignores_io() {
        // The pre-builder facade silently dropped the IoConfig for
        // Stages::Multi; the per-level plan applies it.
        let (a, b) = workload(16, 7);
        let x_ref = lu::solve(&a, &b).unwrap();
        let coarse_io = IoConfig {
            dac: Some(Converter::new(4, 1.0).unwrap()),
            adc: Some(Converter::new(4, 1.0).unwrap()),
            sh_droop: 0.0,
        };
        let mut coarse = SolverConfig::builder()
            .stages(Stages::Multi(2))
            .io(coarse_io)
            .build(NumericEngine::new())
            .unwrap();
        let e = metrics::relative_error(&x_ref, &coarse.solve(&a, &b).unwrap().x);
        assert!(e > 1e-3, "4-bit converters must reach Multi: {e}");
    }

    #[test]
    fn searched_splits_work_through_the_facade() {
        let (a, b) = workload(12, 8);
        let x_ref = lu::solve(&a, &b).unwrap();
        for stages in [Stages::One, Stages::Two, Stages::Multi(2)] {
            let mut solver = SolverConfig::builder()
                .stages(stages)
                .split_rule(SplitRule::Searched(SplitSearchOptions::default()))
                .build(NumericEngine::new())
                .unwrap();
            let r = solver.solve(&a, &b).unwrap();
            assert!(
                metrics::relative_error(&x_ref, &r.x) < 1e-8,
                "{stages:?} diverged under searched splits"
            );
        }
    }

    #[test]
    fn explicit_signal_plan_overrides_the_default() {
        let (a, b) = workload(16, 10);
        let x_ref = lu::solve(&a, &b).unwrap();
        // Wide-range converters: quantization without clipping.
        let bus_io = IoConfig {
            dac: Some(Converter::new(12, 8.0).unwrap()),
            adc: Some(Converter::new(12, 8.0).unwrap()),
            sh_droop: 0.0,
        };
        let plan = SignalPlan::pure().with_level(1, LevelIo::Bus(bus_io));
        let mut solver = SolverConfig::builder()
            .stages(Stages::Multi(3))
            .signal_plan(plan.clone())
            .build(NumericEngine::new())
            .unwrap();
        assert_eq!(solver.config.signal_plan(), &plan);
        let r = solver.solve(&a, &b).unwrap();
        let e = metrics::relative_error(&x_ref, &r.x);
        assert!(e > 1e-8, "12-bit bus hops at level 1 must quantize: {e}");
        assert!(e < 1e-1, "but stay small: {e}");
    }
}
