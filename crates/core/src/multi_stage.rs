//! Arbitrary-depth recursive BlockAMC — **the single execution core**.
//!
//! The paper notes that "for an arbitrarily sized matrix, it can be
//! partitioned stage by stage, resulting eventually in small scale block
//! matrices that can be accommodated in memory arrays", and Fig. 8(d)
//! supports "the scalability of this method towards larger scale INV
//! problems through deeper partitioning". This module implements that
//! generalization. The one-stage and two-stage solvers are its depth-1
//! and depth-2 instances, so it also hosts the one implementation of
//! the five-step cascade (`run_cascade`, crate-internal). Every solve
//! reaches it through the [`crate::solver`] facade.
//!
//! The cascade is written once over two small traits:
//!
//! * `InvExec` — "something that can run a (signed) INV": a programmed
//!   array ([`Operand`]) or a partition-tree node;
//! * `MvmExec` — "something that can run a (signed) MVM": a whole
//!   array or a quadrant-tiled one.
//!
//! What distinguishes the solvers is only their *signal path*, captured
//! per cascade level by [`LevelIo`] and assembled into a per-level
//! [`SignalPlan`]:
//!
//! | Policy  | Entry   | Between steps        | Exit   | Used by |
//! |---------|---------|----------------------|--------|---------|
//! | `Macro` | DAC     | S&H cascades         | ADC    | the root of `Stages::One`, and the deepest level of `Stages::Two` / `Stages::Multi` |
//! | `Bus`   | DAC     | ADC→DAC bus hops     | ADC    | the levels above it in `Stages::Two` / `Stages::Multi` |
//! | `Pure`  | —       | — (ideal analog)     | —      | levels past the end of a plan, and [`SignalPlan::pure`] |
//!
//! MVM blocks are executed directly on engine arrays at their natural
//! block size by default (forward partitioning of MVM is routine —
//! refs. \[13\]–\[15\] of the paper — and orthogonal to the INV
//! recursion studied here); [`PartitionPlan::paper`] reproduces the
//! paper's two-stage layout instead, tiling them into quadrants.

use amc_linalg::{lu::LuFactor, vector, Matrix};
use amc_obs::Recorder;

use crate::converter::IoConfig;
use crate::engine::{AmcEngine, Operand};
use crate::partition::BlockPartition;
use crate::split_search::{self, SchurSplit, SplitSearchOptions};
use crate::{BlockAmcError, Result};

// ---------------------------------------------------------------------
// The execution core shared by all three solvers.
// ---------------------------------------------------------------------

/// Signal-path policy of one cascade level (see the module table).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StageIo {
    /// Ideal analog recursion: no converters, no hops.
    Pure,
    /// One reconfigurable macro: DAC at entry, S&H between steps, ADC at
    /// exit, per-step trace records.
    Macro,
    /// Bus-connected macros (paper §III.C): every inter-macro value is
    /// "converted and stored in the main memory, which in turn will be
    /// converted back", i.e. crosses ADC then DAC.
    Bus,
}

/// Signal-path policy of one cascade level, with its converter
/// configuration — the public, per-level generalization of the
/// hard-wired Macro-at-leaf / Bus-at-two-stage layout.
///
/// A [`SignalPlan`] assigns one `LevelIo` to each cascade depth: the
/// root cascade is level 0, its `A1`/`A4s` sub-solvers are level 1, and
/// so on. Levels beyond the plan run [`LevelIo::Pure`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum LevelIo {
    /// Ideal analog recursion: no converters, no hops (the default for
    /// levels a plan does not mention).
    Pure,
    /// A reconfigurable macro level: DAC at entry, S&H hops between the
    /// five steps, ADC at exit, per-step trace records.
    Macro(IoConfig),
    /// A bus-connected level (paper §III.C): external inputs cross the
    /// DAC, and every inter-macro value crosses ADC then DAC on its way
    /// through main memory.
    Bus(IoConfig),
}

impl LevelIo {
    /// The converter configuration of this level (`None` for
    /// [`LevelIo::Pure`]).
    pub(crate) fn io(&self) -> Option<&IoConfig> {
        match self {
            LevelIo::Pure => None,
            LevelIo::Macro(io) | LevelIo::Bus(io) => Some(io),
        }
    }

    /// Splits into the internal cascade policy and the level's
    /// converter configuration (ideal for `Pure`).
    pub(crate) fn stage_io(&self) -> (StageIo, IoConfig) {
        match self {
            LevelIo::Pure => (StageIo::Pure, IoConfig::ideal()),
            LevelIo::Macro(io) => (StageIo::Macro, *io),
            LevelIo::Bus(io) => (StageIo::Bus, *io),
        }
    }

    /// Validates the level's converter configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`IoConfig::validate`] failures.
    pub(crate) fn validate(&self) -> Result<()> {
        match self.io() {
            Some(io) => io.validate(),
            None => Ok(()),
        }
    }
}

/// A per-level signal-path plan for a cascade of any depth.
///
/// Entry `k` of the plan is applied at cascade level `k` (the root is
/// level 0); levels past the end of the plan run ideal analog
/// ([`LevelIo::Pure`]). The paper's two solvers are the two smallest
/// instances: the one-stage macro is `[Macro]` and the two-stage
/// bus-connected architecture is `[Bus, Macro]` — see
/// [`SignalPlan::paper`].
#[derive(Debug, Clone, PartialEq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SignalPlan {
    levels: Vec<LevelIo>,
}

impl SignalPlan {
    /// The fully analog plan: every level is [`LevelIo::Pure`].
    pub fn pure() -> Self {
        SignalPlan { levels: Vec::new() }
    }

    /// Builds a plan from explicit per-level entries (entry 0 = root).
    pub fn from_levels(levels: Vec<LevelIo>) -> Self {
        SignalPlan { levels }
    }

    /// The paper's architecture at the given depth: bus-connected levels
    /// above, one macro level at the bottom of the cascade. `paper(1)`
    /// is the one-stage macro (`[Macro]`), `paper(2)` the two-stage
    /// bus-connected solver (`[Bus, Macro]`), `paper(3)` adds one more
    /// bus hop (`[Bus, Bus, Macro]`), and so on. `paper(0)` treats the
    /// single array as a macro (DAC in, ADC out).
    pub fn paper(depth: usize, io: IoConfig) -> Self {
        let mut levels = vec![LevelIo::Bus(io); depth.saturating_sub(1)];
        levels.push(LevelIo::Macro(io));
        SignalPlan { levels }
    }

    /// A bus hop at every one of `depth` levels — the configuration for
    /// studying how many ADC/DAC crossings deep cascades tolerate.
    /// `uniform_bus(0, ..)` is the empty (fully pure) plan.
    pub fn uniform_bus(depth: usize, io: IoConfig) -> Self {
        SignalPlan {
            levels: vec![LevelIo::Bus(io); depth],
        }
    }

    /// Replaces the entry at `level`, padding intermediate levels with
    /// [`LevelIo::Pure`] if the plan is shorter.
    pub fn with_level(mut self, level: usize, entry: LevelIo) -> Self {
        if self.levels.len() <= level {
            self.levels.resize(level + 1, LevelIo::Pure);
        }
        self.levels[level] = entry;
        self
    }

    /// The explicit entries of the plan (levels beyond run `Pure`).
    pub fn levels(&self) -> &[LevelIo] {
        &self.levels
    }

    /// The entry applied at cascade level `k`.
    pub(crate) fn level(&self, k: usize) -> LevelIo {
        self.levels.get(k).copied().unwrap_or(LevelIo::Pure)
    }

    /// Validates every level's converter configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`IoConfig::validate`] failures.
    pub(crate) fn validate(&self) -> Result<()> {
        for level in &self.levels {
            level.validate()?;
        }
        Ok(())
    }

    pub(crate) fn path(&self) -> SignalPath<'_> {
        SignalPath::new(&self.levels)
    }
}

/// A borrowed suffix of a [`SignalPlan`], threaded down the cascade:
/// the head entry is the current level's policy, the tail is what the
/// `A1`/`A4s` sub-executors receive.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SignalPath<'a> {
    levels: &'a [LevelIo],
}

impl<'a> SignalPath<'a> {
    pub(crate) fn new(levels: &'a [LevelIo]) -> Self {
        SignalPath { levels }
    }

    fn head(&self) -> LevelIo {
        self.levels.first().copied().unwrap_or(LevelIo::Pure)
    }

    fn tail(&self) -> SignalPath<'a> {
        SignalPath {
            levels: if self.levels.is_empty() {
                self.levels
            } else {
                &self.levels[1..]
            },
        }
    }
}

/// Identifies one of the five algorithm steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepId {
    /// Step 1: INV with `A1` and `f`.
    Inv1,
    /// Step 2: MVM with `A3`.
    Mvm2,
    /// Step 3: INV with `A4s`.
    Inv3,
    /// Step 4: MVM with `A2`.
    Mvm4,
    /// Step 5: INV with `A1` again.
    Inv5,
}

impl std::fmt::Display for StepId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            StepId::Inv1 => "step 1 (INV A1)",
            StepId::Mvm2 => "step 2 (MVM A3)",
            StepId::Inv3 => "step 3 (INV A4s)",
            StepId::Mvm4 => "step 4 (MVM A2)",
            StepId::Inv5 => "step 5 (INV A1)",
        };
        f.write_str(s)
    }
}

/// Input/output record of one executed step (Fig. 6(a) plots exactly
/// these signals against their numerical references).
#[derive(Debug, Clone, PartialEq)]
pub struct StepRecord {
    /// Which step this record describes.
    pub step: StepId,
    /// The analog input vector fed to the array.
    pub input: Vec<f64>,
    /// The analog output vector produced.
    pub output: Vec<f64>,
}

/// Trace sink threaded through a cascade.
///
/// `steps` collects the five [`StepRecord`]s of a `Macro`-policy
/// cascade; `inner` collects the labeled child-macro traces a
/// `Bus`-policy cascade captures for its step-3 (`"A4s"`) and step-5
/// (`"A1"`) INV operations.
#[derive(Debug, Default)]
pub(crate) struct TraceLog {
    enabled: bool,
    pub(crate) steps: Vec<StepRecord>,
    pub(crate) inner: Vec<(String, Vec<StepRecord>)>,
}

impl TraceLog {
    fn new(enabled: bool) -> Self {
        TraceLog {
            enabled,
            steps: Vec::new(),
            inner: Vec::new(),
        }
    }

    pub(crate) fn enabled() -> Self {
        Self::new(true)
    }

    pub(crate) fn disabled() -> Self {
        Self::new(false)
    }

    fn record(&mut self, step: StepId, input: &[f64], output: &[f64]) {
        if self.enabled {
            self.steps.push(StepRecord {
                step,
                input: input.to_vec(),
                output: output.to_vec(),
            });
        }
    }

    fn capture_inner(&mut self, label: &str, sub: TraceLog) {
        if self.enabled {
            self.inner.push((label.to_string(), sub.steps));
            self.inner.extend(sub.inner);
        }
    }
}

/// An executor of a signed INV: computes `−block⁻¹·b` (the AMC sign
/// convention, so executors compose exactly like cascaded INV circuits)
/// for a block of `k` right-hand sides, writing it into `out`.
///
/// Signals are row-major `len×k` blocks (entry `i` of right-hand side
/// `c` at `[i*k + c]`, the engine block layout of
/// [`AmcEngine::inv_block_into`]); a single solve is `k = 1`.
///
/// Implemented by [`Operand`] (a single array) and by [`Node`] (a
/// partition subtree).
pub(crate) trait InvExec<E: AmcEngine + ?Sized> {
    #[allow(clippy::too_many_arguments)] // block + signal path + signal log + span recorder
    fn inv_signed(
        &mut self,
        engine: &mut E,
        b: &[f64],
        k: usize,
        path: SignalPath<'_>,
        log: &mut TraceLog,
        rec: &mut Recorder,
        out: &mut Vec<f64>,
    ) -> Result<()>;
}

/// An executor of a signed MVM: computes `−M·x` for a block of `k`
/// right-hand sides (same layout as [`InvExec`]), writing it into `out`.
///
/// Implemented by [`Operand`] and [`MvmBlock`].
pub(crate) trait MvmExec<E: AmcEngine + ?Sized> {
    fn mvm_signed(&mut self, engine: &mut E, x: &[f64], k: usize, out: &mut Vec<f64>)
        -> Result<()>;
}

/// Executes the paper's five-step algorithm (Fig. 2 / Algorithm 1) once,
/// for every solver in the crate, on a block of `k` right-hand sides.
/// Writes `−x` into `out` so that cascades compose.
///
/// Every glue operation between the engine calls — converters, S&H
/// hops, the sums and negations, the split at row `split` (entry
/// `split·k` of a block) and the final concatenation — is elementwise,
/// so column `c` of a block solve is bit-identical to solving that
/// column alone whenever the engine's block methods honour their
/// per-column contract.
///
/// The head of `path` is this cascade's signal-path policy; the tail is
/// handed to the `A1`/`A4s` executors, so a multi-level [`SignalPlan`]
/// descends the tree one entry per stage.
///
/// Zero blocks (`a2`/`a3` = `None`) skip their MVM step entirely:
/// `g_t`/`f_t` are zero and nothing is recorded, exactly as the hardware
/// would leave those arrays unprogrammed.
#[allow(clippy::too_many_arguments)] // the five-step dataflow really has this arity
pub(crate) fn run_cascade<E, I, M>(
    engine: &mut E,
    split: usize,
    k: usize,
    a1: &mut I,
    a4s: &mut I,
    a2: Option<&mut M>,
    a3: Option<&mut M>,
    b: &[f64],
    path: SignalPath<'_>,
    log: &mut TraceLog,
    rec: &mut Recorder,
    out: &mut Vec<f64>,
) -> Result<()>
where
    E: AmcEngine + ?Sized,
    I: InvExec<E>,
    M: MvmExec<E>,
{
    let (policy, io) = path.head().stage_io();
    let io = &io;
    let inner = path.tail();
    let top = split * k;
    let bottom = b.len() - top;
    // External inputs cross the DAC at macro/bus entries; the pure
    // recursion stays analog.
    let (f, g) = match policy {
        StageIo::Pure => (b[..top].to_vec(), b[top..].to_vec()),
        StageIo::Macro | StageIo::Bus => (io.apply_dac(&b[..top]), io.apply_dac(&b[top..])),
    };
    let bus = |v: &[f64]| io.apply_dac(&io.apply_adc(v));

    // Step 1: INV(A1, f) -> −y_t = −A1⁻¹·f.
    let span = rec.enter("cascade.inv1");
    let mut neg_yt = Vec::new();
    a1.inv_signed(
        engine,
        &f,
        k,
        inner,
        &mut TraceLog::disabled(),
        rec,
        &mut neg_yt,
    )?;
    match policy {
        StageIo::Bus => neg_yt = bus(&neg_yt),
        _ => log.record(StepId::Inv1, &f, &neg_yt),
    }
    rec.exit_with(span, &[("n", split as f64)]);

    // Step 2: MVM(A3, −y_t) -> g_t (= −A3·(−y_t)).
    let span = rec.enter("cascade.mvm2");
    let gt = match a3 {
        Some(m) => {
            let sh_input;
            let input: &[f64] = match policy {
                StageIo::Macro => {
                    sh_input = io.apply_sh(&neg_yt);
                    &sh_input
                }
                _ => &neg_yt,
            };
            let mut gt = Vec::new();
            m.mvm_signed(engine, input, k, &mut gt)?;
            match policy {
                StageIo::Bus => bus(&gt),
                _ => {
                    log.record(StepId::Mvm2, input, &gt);
                    gt
                }
            }
        }
        None => vec![0.0; bottom],
    };
    rec.exit(span);

    // Step 3: INV(A4s, g_t − g) -> z (the bottom half of x).
    // The owned g/g_t vectors die here, so the subtractions reuse their
    // buffers instead of allocating per phase.
    let span = rec.enter("cascade.inv3");
    let mut z = Vec::new();
    match policy {
        StageIo::Bus => {
            // The inner macro is handed the right-hand side g − g_t and
            // returns +z, keeping its trace signals oriented exactly as
            // the bus-connected architecture observes them.
            let mut rhs3 = g;
            vector::sub_assign(&mut rhs3, &gt);
            let mut sub = TraceLog::new(log.enabled);
            a4s.inv_signed(engine, &rhs3, k, inner, &mut sub, rec, &mut z)?;
            log.capture_inner("A4s", sub);
            vector::neg_in_place(&mut z);
        }
        _ => {
            let mut input3 = match policy {
                StageIo::Macro => io.apply_sh(&gt),
                _ => gt,
            };
            vector::sub_assign(&mut input3, &g);
            a4s.inv_signed(
                engine,
                &input3,
                k,
                inner,
                &mut TraceLog::disabled(),
                rec,
                &mut z,
            )?;
            log.record(StepId::Inv3, &input3, &z);
        }
    }
    rec.exit_with(span, &[("n", (bottom / k) as f64)]);
    // The value step 4 consumes and the exit re-reads: the bus hop for
    // inter-macro transfers, the raw analog z otherwise.
    let z_held = match policy {
        StageIo::Bus => bus(&z),
        _ => z,
    };

    // Step 4: MVM(A2, z) -> −f_t = −A2·z.
    let span = rec.enter("cascade.mvm4");
    let neg_ft = match a2 {
        Some(m) => {
            let sh_input;
            let input: &[f64] = match policy {
                StageIo::Macro => {
                    sh_input = io.apply_sh(&z_held);
                    &sh_input
                }
                _ => &z_held,
            };
            let mut neg_ft = Vec::new();
            m.mvm_signed(engine, input, k, &mut neg_ft)?;
            match policy {
                StageIo::Bus => bus(&neg_ft),
                _ => {
                    log.record(StepId::Mvm4, input, &neg_ft);
                    neg_ft
                }
            }
        }
        None => vec![0.0; top],
    };
    rec.exit(span);

    // Step 5: INV(A1, f − f_t) -> −y (the negated upper half of x),
    // reusing the very same A1 executor as step 1 — the paper's "the A1
    // array should be used twice", so both steps see one variation draw.
    // −f_t is owned and dead after this step; its buffer carries the sum,
    // and the dead step-1 output's buffer receives the result.
    let mut input5 = match policy {
        StageIo::Macro => io.apply_sh(&neg_ft),
        _ => neg_ft,
    };
    vector::add_assign(&mut input5, &f);
    let span = rec.enter("cascade.inv5");
    let mut c5 = neg_yt;
    match policy {
        StageIo::Bus => {
            let mut sub = TraceLog::new(log.enabled);
            a1.inv_signed(engine, &input5, k, inner, &mut sub, rec, &mut c5)?;
            log.capture_inner("A1", sub);
        }
        _ => {
            a1.inv_signed(
                engine,
                &input5,
                k,
                inner,
                &mut TraceLog::disabled(),
                rec,
                &mut c5,
            )?;
            log.record(StepId::Inv5, &input5, &c5);
        }
    }
    rec.exit_with(span, &[("n", split as f64)]);

    // This node's "INV output" must be −x for the parent cascade:
    // x = [y; z] with y = −c5, so −x = [c5; −z], assembled in `out`.
    let (head, tail) = match policy {
        StageIo::Pure => (c5, z_held),
        StageIo::Macro | StageIo::Bus => (io.apply_adc(&c5), io.apply_adc(&z_held)),
    };
    out.clear();
    out.extend_from_slice(&head);
    out.extend(tail.iter().map(|v| -v));
    Ok(())
}

// ---------------------------------------------------------------------
// The partition tree.
// ---------------------------------------------------------------------

/// An MVM block of a partition-tree node.
#[derive(Debug, Clone)]
pub(crate) enum MvmBlock {
    /// The whole block programmed on one array.
    Whole(Operand),
    /// The block tiled into quadrants (the paper's layout); boxed to
    /// keep the enum lean next to [`MvmBlock::Whole`].
    Tiled(Box<QuadMvm>),
}

/// A quadrant decomposition of an MVM block whose tiles recurse while
/// tiling levels remain, so that a depth-`d` paper layout shrinks MVM
/// arrays to the same size as its INV leaves; `PartitionPlan::paper(2)`
/// tiles one level, the two-stage solver's array inventory.
#[derive(Debug, Clone)]
pub(crate) struct QuadMvm {
    rows: usize,
    cols: usize,
    row_split: usize,
    col_split: usize,
    /// Quadrants in row-major order: `[top-left, top-right,
    /// bottom-left, bottom-right]`; `None` marks a zero tile.
    tiles: [Option<MvmBlock>; 4],
}

impl QuadMvm {
    /// Programs the non-zero quadrants of `m` (row-major order), tiling
    /// each further while `levels − 1` tiling levels remain.
    pub(crate) fn prepare<E: AmcEngine + ?Sized>(
        engine: &mut E,
        m: &Matrix,
        levels: usize,
    ) -> Result<Self> {
        let (rows, cols) = m.shape();
        let row_split = rows.div_ceil(2);
        let col_split = cols.div_ceil(2);
        let quadrants = [
            m.block(0, 0, row_split, col_split)?,
            m.block(0, col_split, row_split, cols - col_split)?,
            m.block(row_split, 0, rows - row_split, col_split)?,
            m.block(row_split, col_split, rows - row_split, cols - col_split)?,
        ];
        let mut tiles: [Option<MvmBlock>; 4] = [None, None, None, None];
        for (slot, q) in tiles.iter_mut().zip(quadrants.iter()) {
            *slot = prepare_mvm_tile(engine, q, levels - 1)?;
        }
        Ok(QuadMvm {
            rows,
            cols,
            row_split,
            col_split,
            tiles,
        })
    }

    /// `−M·x` for a block of `k` right-hand sides: each half of the
    /// output is the (analog) sum of two quadrant results, zero tiles
    /// skipped.
    pub(crate) fn mvm<E: AmcEngine + ?Sized>(
        &mut self,
        engine: &mut E,
        x: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        if x.len() != self.cols * k {
            return Err(BlockAmcError::ShapeMismatch {
                op: "quad_mvm",
                expected: self.cols * k,
                got: x.len(),
            });
        }
        let (xt, xb) = x.split_at(self.col_split * k);
        out.clear();
        out.resize(self.rows * k, 0.0);
        let (top, bottom) = out.split_at_mut(self.row_split * k);
        // Summing the tiles' signed outputs preserves the AMC sign. One
        // scratch buffer serves all four
        // quadrants, so a quadrant level costs one allocation instead of
        // one per non-zero tile.
        let mut scratch = Vec::new();
        let [t0, t1, t2, t3] = &mut self.tiles;
        for (row_tiles, acc) in [([t0, t1], top), ([t2, t3], bottom)] {
            for (tile, input) in row_tiles.into_iter().zip([xt, xb]) {
                if let Some(t) = tile {
                    t.mvm_signed(engine, input, k, &mut scratch)?;
                    vector::axpy(1.0, &scratch, acc);
                }
            }
        }
        Ok(())
    }

    #[cfg(test)]
    fn max_tile_dim(&self) -> usize {
        self.tiles
            .iter()
            .flatten()
            .map(MvmBlock::max_array_dim)
            .max()
            .unwrap_or(0)
    }
}

impl<E: AmcEngine + ?Sized> MvmExec<E> for MvmBlock {
    fn mvm_signed(
        &mut self,
        engine: &mut E,
        x: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        match self {
            MvmBlock::Whole(op) => op.mvm_signed(engine, x, k, out),
            MvmBlock::Tiled(t) => t.mvm(engine, x, k, out),
        }
    }
}

impl MvmBlock {
    #[cfg(test)]
    fn max_array_dim(&self) -> usize {
        match self {
            MvmBlock::Whole(op) => op.shape().0.max(op.shape().1),
            MvmBlock::Tiled(t) => t.max_tile_dim(),
        }
    }
}

/// A node of the prepared partition tree.
#[derive(Debug, Clone)]
enum Node {
    /// A leaf: the whole block is programmed on one array.
    Leaf(Operand),
    /// An internal node: the block is solved by the five-step algorithm
    /// over its children.
    Split {
        split: usize,
        a1: Box<Node>,
        a4s: Box<Node>,
        /// `None` for a zero block.
        a2: Option<MvmBlock>,
        /// `None` for a zero block.
        a3: Option<MvmBlock>,
    },
}

impl<E: AmcEngine + ?Sized> InvExec<E> for Node {
    fn inv_signed(
        &mut self,
        engine: &mut E,
        b: &[f64],
        k: usize,
        path: SignalPath<'_>,
        log: &mut TraceLog,
        rec: &mut Recorder,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        match self {
            Node::Leaf(op) => op.inv_signed(engine, b, k, path, log, rec, out),
            Node::Split {
                split,
                a1,
                a4s,
                a2,
                a3,
            } => run_cascade(
                engine,
                *split,
                k,
                a1.as_mut(),
                a4s.as_mut(),
                a2.as_mut(),
                a3.as_mut(),
                b,
                path,
                log,
                rec,
                out,
            ),
        }
    }
}

/// How a matrix is recursively partitioned onto arrays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionPlan {
    /// Partitioning depth (0 = single array, 1 = one-stage, 2 =
    /// two-stage INV recursion, …).
    pub depth: usize,
    /// Tile MVM blocks into quadrants wherever their level's INV blocks
    /// are split further — the paper's two-stage layout (16 quarter-size
    /// arrays at depth 2) instead of natural-size MVM arrays.
    pub tile_mvm: bool,
    /// How the split index is chosen at every node.
    pub split: SplitRule,
}

/// Split-index selection rule of a [`PartitionPlan`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum SplitRule {
    /// The paper's default `⌈n/2⌉` everywhere.
    Halves,
    /// Conditioning-driven per-node search (see `crate::split_search`;
    /// nodes smaller than 4 fall back to halves).
    Searched(SplitSearchOptions),
}

impl PartitionPlan {
    /// Natural-size MVM blocks and midpoint splits at the given depth —
    /// the layout of `Stages::One` and `Stages::Multi`.
    pub(crate) fn depth(depth: usize) -> Self {
        PartitionPlan {
            depth,
            tile_mvm: false,
            split: SplitRule::Halves,
        }
    }

    /// The paper's macro layout at the given depth: MVM blocks tiled
    /// into quadrants. `PartitionPlan::paper(2)` is the two-stage
    /// solver's exact array inventory.
    pub(crate) fn paper(depth: usize) -> Self {
        PartitionPlan {
            depth,
            tile_mvm: true,
            split: SplitRule::Halves,
        }
    }

    /// Replaces the split rule.
    pub(crate) fn with_split_rule(mut self, split: SplitRule) -> Self {
        self.split = split;
        self
    }
}

/// A matrix prepared for multi-stage BlockAMC solving: the programmed
/// partition tree behind every prepared facade solver.
#[derive(Debug, Clone)]
pub(crate) struct PreparedMultiStage {
    root: Node,
    n: usize,
    depth: usize,
}

impl PreparedMultiStage {
    /// Problem size `n`.
    pub(crate) fn size(&self) -> usize {
        self.n
    }

    /// Partitioning depth (0 = single array, 1 = one-stage, 2 = two-stage
    /// INV recursion, …).
    pub(crate) fn depth(&self) -> usize {
        self.depth
    }

    /// Visits every programmed operand in **canonical program order** —
    /// the exact order [`prepare_node`] issued the
    /// `program` calls (a1 subtree, a2 tile, a3 tile, a4s subtree;
    /// quadrant tiles in row-major `[TL, TR, BL, BR]` order) — so
    /// callers can snapshot per-array state under a stable index.
    pub(crate) fn for_each_operand(&self, f: &mut dyn FnMut(usize, &Operand)) {
        fn visit_block(block: &MvmBlock, idx: &mut usize, f: &mut dyn FnMut(usize, &Operand)) {
            match block {
                MvmBlock::Whole(op) => {
                    f(*idx, op);
                    *idx += 1;
                }
                MvmBlock::Tiled(q) => {
                    for tile in q.tiles.iter().flatten() {
                        visit_block(tile, idx, f);
                    }
                }
            }
        }
        fn visit(node: &Node, idx: &mut usize, f: &mut dyn FnMut(usize, &Operand)) {
            match node {
                Node::Leaf(op) => {
                    f(*idx, op);
                    *idx += 1;
                }
                Node::Split {
                    a1, a4s, a2, a3, ..
                } => {
                    visit(a1, idx, f);
                    if let Some(block) = a2 {
                        visit_block(block, idx, f);
                    }
                    if let Some(block) = a3 {
                        visit_block(block, idx, f);
                    }
                    visit(a4s, idx, f);
                }
            }
        }
        let mut idx = 0;
        visit(&self.root, &mut idx, f);
    }

    /// Mutable [`Self::for_each_operand`]: same canonical order, but the
    /// callback may replace each operand (the aging layer reprograms
    /// arrays in place through the engine).
    pub(crate) fn for_each_operand_mut(
        &mut self,
        f: &mut dyn FnMut(usize, &mut Operand) -> Result<()>,
    ) -> Result<()> {
        fn visit_block(
            block: &mut MvmBlock,
            idx: &mut usize,
            f: &mut dyn FnMut(usize, &mut Operand) -> Result<()>,
        ) -> Result<()> {
            match block {
                MvmBlock::Whole(op) => {
                    f(*idx, op)?;
                    *idx += 1;
                }
                MvmBlock::Tiled(q) => {
                    for tile in q.tiles.iter_mut().flatten() {
                        visit_block(tile, idx, f)?;
                    }
                }
            }
            Ok(())
        }
        fn visit(
            node: &mut Node,
            idx: &mut usize,
            f: &mut dyn FnMut(usize, &mut Operand) -> Result<()>,
        ) -> Result<()> {
            match node {
                Node::Leaf(op) => {
                    f(*idx, op)?;
                    *idx += 1;
                }
                Node::Split {
                    a1, a4s, a2, a3, ..
                } => {
                    visit(a1, idx, f)?;
                    if let Some(block) = a2 {
                        visit_block(block, idx, f)?;
                    }
                    if let Some(block) = a3 {
                        visit_block(block, idx, f)?;
                    }
                    visit(a4s, idx, f)?;
                }
            }
            Ok(())
        }
        let mut idx = 0;
        visit(&mut self.root, &mut idx, f)
    }

    /// Largest array (leaf or MVM-tile) size in the tree.
    #[cfg(test)]
    pub(crate) fn max_leaf_size(&self) -> usize {
        fn walk(node: &Node) -> usize {
            match node {
                Node::Leaf(op) => op.shape().0.max(op.shape().1),
                Node::Split {
                    a1, a4s, a2, a3, ..
                } => {
                    let mut m = walk(a1).max(walk(a4s));
                    if let Some(block) = a2 {
                        m = m.max(block.max_array_dim());
                    }
                    if let Some(block) = a3 {
                        m = m.max(block.max_array_dim());
                    }
                    m
                }
            }
        }
        walk(&self.root)
    }
}

/// Programs one MVM block, tiling it into quadrants recursively for
/// `levels` levels (0 = whole array). Tiling stops early at blocks
/// thinner than 2 in either dimension.
fn prepare_mvm_tile<E: AmcEngine + ?Sized>(
    engine: &mut E,
    m: &Matrix,
    levels: usize,
) -> Result<Option<MvmBlock>> {
    if m.is_zero() {
        return Ok(None);
    }
    let (rows, cols) = m.shape();
    Ok(Some(if levels >= 1 && rows >= 2 && cols >= 2 {
        MvmBlock::Tiled(Box::new(QuadMvm::prepare(engine, m, levels)?))
    } else {
        MvmBlock::Whole(engine.program(m)?)
    }))
}

/// Whether a block at `depth` is programmed whole on one array (depth
/// exhausted, or nothing left to split).
fn is_leaf(a: &Matrix, depth: usize) -> bool {
    depth == 0 || a.rows() < 2
}

/// Splits one block per the plan's rule and computes its Schur
/// complement, returning the partition, `A4s` and the `A1` factor. Under
/// `Searched` all three come from the split search, which already built
/// them while scoring the winner.
fn split_block(a: &Matrix, plan: &PartitionPlan, rec: &mut Recorder) -> Result<SchurSplit> {
    let span = rec.enter("prepare.partition");
    let p = match plan.split {
        SplitRule::Searched(opts) if a.rows() >= 4 => {
            let split = split_search::best_partition(a, &opts);
            rec.exit(span);
            return split;
        }
        SplitRule::Halves | SplitRule::Searched(_) => BlockPartition::halves(a)?,
    };
    rec.exit(span);
    let span = rec.enter("prepare.schur");
    let (a4s, a1_lu) = p.schur_complement_with_factor()?;
    rec.exit_with(span, &[("n", a4s.rows() as f64)]);
    Ok((p, a4s, a1_lu))
}

fn prepare_node<E: AmcEngine + ?Sized>(
    engine: &mut E,
    a: &Matrix,
    lu: Option<LuFactor>,
    depth: usize,
    plan: &PartitionPlan,
    rec: &mut Recorder,
) -> Result<Node> {
    if is_leaf(a, depth) {
        // A leaf takes over `lu`, the factor of `a` its parent's Schur
        // step already computed, when there is one.
        let span = rec.enter("prepare.program");
        let op = match lu {
            Some(lu) => engine.program_factored(a, lu)?,
            None => engine.program(a)?,
        };
        rec.exit_with(span, &[("n", a.rows() as f64)]);
        return Ok(Node::Leaf(op));
    }
    let node_span = rec.enter("prepare.node");
    let (p, a4s, a1_lu) = split_block(a, plan, rec)?;
    // Canonical programming order (A1, A2, A3, A4s): the order in which
    // the engine's variation stream is consumed, which
    // tests/cascade_golden.rs pins for the one- and two-stage layouts.
    // A leaf A1 takes over the factor the Schur step computed.
    let a1_lu = a1_lu.filter(|_| is_leaf(&p.a1, depth - 1));
    let a1 = prepare_node(engine, &p.a1, a1_lu, depth - 1, plan, rec)?;
    // In the paper layout, MVM blocks tile down to the same size as the
    // INV leaves below them: one quadrant level per remaining INV split
    // (depth 2 ⇒ one level, the two-stage inventory; deeper ⇒ recurse).
    let tile_levels = if plan.tile_mvm { depth - 1 } else { 0 };
    let span = rec.enter("prepare.program_mvm");
    let a2 = prepare_mvm_tile(engine, &p.a2, tile_levels)?;
    let a3 = prepare_mvm_tile(engine, &p.a3, tile_levels)?;
    rec.exit(span);
    let a4s_node = prepare_node(engine, &a4s, None, depth - 1, plan, rec)?;
    rec.exit_with(node_span, &[("n", a.rows() as f64)]);
    Ok(Node::Split {
        split: p.split,
        a1: Box::new(a1),
        a4s: Box::new(a4s_node),
        a2,
        a3,
    })
}

/// Partitions `a` according to `plan` and programs all arrays, with
/// per-level partition / Schur / program-arrays spans recorded on `rec`
/// (pass [`Recorder::disabled`] for the zero-cost no-op).
///
/// Instrumentation is strictly read-only: the prepared tree does not
/// depend on the recorder.
///
/// # Errors
///
/// Partitioning, Schur, and programming failures. `plan.depth` may
/// exceed `log2(n)`; recursion stops early at 1×1 blocks. The caller
/// ([`crate::solver::BlockAmcSolver::prepare`]) has already checked that
/// `a` is square and finite.
pub(crate) fn prepare_plan<E: AmcEngine + ?Sized>(
    engine: &mut E,
    a: &Matrix,
    plan: &PartitionPlan,
    rec: &mut Recorder,
) -> Result<PreparedMultiStage> {
    let span = rec.enter("prepare");
    let root = prepare_node(engine, a, None, plan.depth, plan, rec)?;
    rec.exit_with(
        span,
        &[("n", a.rows() as f64), ("depth", plan.depth as f64)],
    );
    Ok(PreparedMultiStage {
        n: a.rows(),
        root,
        depth: plan.depth,
    })
}

/// Solves `A·X = B` for a row-major `n×k` block of right-hand sides
/// (entry `i` of right-hand side `c` at `[i*k + c]`) with a per-level
/// [`SignalPlan`], returning the solution block together with the trace
/// log the cascade recorded. A single solve is `k = 1`; column `c` of a
/// block solve is bit-identical to solving that column alone.
///
/// The log is empty unless `capture` is set, `k == 1` (a block solve
/// records no per-step signals) and the root level is `Macro`/`Bus`.
///
/// A depth-0 tree (single array) under a `Macro`/`Bus` root level runs
/// as a single-array macro: DAC at entry, one INV, ADC at exit — the
/// paper's "original AMC" baseline with its digital boundary.
pub(crate) fn solve_with_signal<E: AmcEngine + ?Sized>(
    engine: &mut E,
    prepared: &mut PreparedMultiStage,
    b: &[f64],
    k: usize,
    signal: &SignalPlan,
    capture: bool,
    rec: &mut Recorder,
) -> Result<(Vec<f64>, TraceLog)> {
    if k == 0 || b.len() != prepared.n * k {
        return Err(BlockAmcError::ShapeMismatch {
            op: "multi_stage_solve",
            expected: prepared.n * k.max(1),
            got: b.len(),
        });
    }
    signal.validate()?;
    let mut log = if capture && k == 1 {
        TraceLog::enabled()
    } else {
        TraceLog::disabled()
    };
    let path = signal.path();
    let mut x = Vec::new();
    match (&mut prepared.root, signal.level(0)) {
        // A leaf root has no cascade to apply the boundary converters,
        // so the macro/bus digital boundary is applied here.
        (root @ Node::Leaf(_), LevelIo::Macro(io) | LevelIo::Bus(io)) => {
            io.validate()?;
            let input = io.apply_dac(b);
            root.inv_signed(engine, &input, k, path, &mut log, rec, &mut x)?;
            x = io.apply_adc(&x);
        }
        (root, _) => root.inv_signed(engine, b, k, path, &mut log, rec, &mut x)?,
    }
    vector::neg_in_place(&mut x);
    Ok((x, log))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CircuitEngine, CircuitEngineConfig, NumericEngine, NumericOperand};
    use amc_linalg::{generate, lu, metrics};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn workload(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        let b = generate::random_vector(n, &mut rng);
        (a, b)
    }

    fn prepare_plan<E: AmcEngine>(
        engine: &mut E,
        a: &Matrix,
        plan: &PartitionPlan,
    ) -> Result<PreparedMultiStage> {
        super::prepare_plan(engine, a, plan, &mut Recorder::disabled())
    }

    fn prepare<E: AmcEngine>(
        engine: &mut E,
        a: &Matrix,
        depth: usize,
    ) -> Result<PreparedMultiStage> {
        prepare_plan(engine, a, &PartitionPlan::depth(depth))
    }

    /// A fully analog solve (every level `Pure`).
    fn solve<E: AmcEngine>(
        engine: &mut E,
        prepared: &mut PreparedMultiStage,
        b: &[f64],
    ) -> Result<Vec<f64>> {
        let plan = SignalPlan::pure();
        solve_with_signal(
            engine,
            prepared,
            b,
            1,
            &plan,
            false,
            &mut Recorder::disabled(),
        )
        .map(|(x, _)| x)
    }

    #[test]
    fn depth_zero_is_single_array() {
        let (a, b) = workload(8, 1);
        let mut engine = NumericEngine::new();
        let mut prep = prepare(&mut engine, &a, 0).unwrap();
        assert_eq!(prep.max_leaf_size(), 8);
        let x = solve(&mut engine, &mut prep, &b).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(vector::approx_eq(&x, &x_ref, 1e-10));
        assert_eq!(engine.stats().program_ops, 1);
    }

    #[test]
    fn depths_match_exact_solution() {
        let (a, b) = workload(16, 2);
        let x_ref = lu::solve(&a, &b).unwrap();
        for depth in 0..=4 {
            let mut engine = NumericEngine::new();
            let mut prep = prepare(&mut engine, &a, depth).unwrap();
            let x = solve(&mut engine, &mut prep, &b).unwrap();
            assert!(
                metrics::relative_error(&x_ref, &x) < 1e-8,
                "depth {depth} diverged"
            );
        }
    }

    #[test]
    fn leaf_size_halves_per_stage() {
        let (a, _) = workload(32, 3);
        let mut engine = NumericEngine::new();
        let d1 = prepare(&mut engine, &a, 1).unwrap();
        assert_eq!(d1.max_leaf_size(), 16);
        let d2 = prepare(&mut engine, &a, 2).unwrap();
        assert_eq!(d2.max_leaf_size(), 16); // MVM blocks stay at n/2
                                            // INV leaves shrink though: count leaves of size 8.
        let d3 = prepare(&mut engine, &a, 3).unwrap();
        assert_eq!(d3.depth(), 3);
    }

    #[test]
    fn paper_plan_tiles_mvm_blocks() {
        // The paper: a two-stage solve of n uses 16 quarter-size arrays.
        let (a, b) = workload(16, 3);
        let mut engine = NumericEngine::new();
        let mut prep = prepare_plan(&mut engine, &a, &PartitionPlan::paper(2)).unwrap();
        assert_eq!(engine.stats().program_ops, 16);
        assert_eq!(prep.max_leaf_size(), 4);
        let x = solve(&mut engine, &mut prep, &b).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(metrics::relative_error(&x_ref, &x) < 1e-8);
    }

    #[test]
    fn paper_plan_tiling_recurses_with_depth() {
        // Deeper paper layouts shrink MVM tiles along with the INV
        // leaves: at depth d every array is n/2^d on a side.
        let (a, b) = workload(32, 8);
        let x_ref = lu::solve(&a, &b).unwrap();
        for depth in 1..=4usize {
            let mut engine = NumericEngine::new();
            let mut prep = prepare_plan(&mut engine, &a, &PartitionPlan::paper(depth)).unwrap();
            assert_eq!(
                prep.max_leaf_size(),
                32 >> depth,
                "depth {depth} array size"
            );
            let x = solve(&mut engine, &mut prep, &b).unwrap();
            assert!(
                metrics::relative_error(&x_ref, &x) < 1e-8,
                "depth {depth} diverged"
            );
        }
    }

    #[test]
    fn searched_splits_still_solve() {
        let (a, b) = workload(12, 11);
        let mut engine = NumericEngine::new();
        let plan = PartitionPlan::depth(2)
            .with_split_rule(SplitRule::Searched(SplitSearchOptions::default()));
        let mut prep = prepare_plan(&mut engine, &a, &plan).unwrap();
        let x = solve(&mut engine, &mut prep, &b).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(metrics::relative_error(&x_ref, &x) < 1e-8);
    }

    #[test]
    fn excessive_depth_stops_at_1x1() {
        let (a, b) = workload(4, 4);
        let mut engine = NumericEngine::new();
        let mut prep = prepare(&mut engine, &a, 10).unwrap();
        let x = solve(&mut engine, &mut prep, &b).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(vector::approx_eq(&x, &x_ref, 1e-8));
    }

    #[test]
    fn odd_sizes_at_depth_two() {
        let (a, b) = workload(13, 5);
        let mut engine = NumericEngine::new();
        let mut prep = prepare(&mut engine, &a, 2).unwrap();
        let x = solve(&mut engine, &mut prep, &b).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        assert!(metrics::relative_error(&x_ref, &x) < 1e-8);
    }

    /// Whether each leaf `A1` of the tree holds an LU factor, in tree
    /// order.
    fn a1_leaf_factors(prep: &PreparedMultiStage) -> Vec<bool> {
        fn walk(node: &Node, out: &mut Vec<bool>) {
            if let Node::Split { a1, a4s, .. } = node {
                if let Node::Leaf(op) = a1.as_ref() {
                    let state = op
                        .downcast_ref::<NumericOperand>()
                        .expect("numeric operand");
                    out.push(state.lu.is_some());
                }
                walk(a1, out);
                walk(a4s, out);
            }
        }
        let mut out = Vec::new();
        walk(&prep.root, &mut out);
        out
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn schur_factor_is_handed_to_every_a1_leaf() {
        let (a, b) = workload(16, 12);
        let rules = [
            SplitRule::Halves,
            SplitRule::Searched(SplitSearchOptions::default()),
        ];
        for depth in [1, 2] {
            for rule in rules {
                let plan = PartitionPlan::depth(depth).with_split_rule(rule);
                let case = format!("depth {depth}, {rule:?}");
                let mut engine = NumericEngine::new();
                let mut prep = prepare_plan(&mut engine, &a, &plan).unwrap();
                let factors = a1_leaf_factors(&prep);
                assert_eq!(factors.len(), 1 << (depth - 1), "{case}");
                assert!(factors.iter().all(|&f| f), "{case}: {factors:?}");
                // One program op per array, handed a factor or not.
                let mut arrays = 0;
                prep.for_each_operand(&mut |_, _| arrays += 1);
                assert_eq!(engine.stats().program_ops, arrays, "{case}");
                // The reference tree factorises every leaf lazily, at
                // its first INV.
                let mut lazy = prep.clone();
                lazy.for_each_operand_mut(&mut |_, op| {
                    op.downcast_mut::<NumericOperand>().unwrap().lu = None;
                    Ok(())
                })
                .unwrap();
                let x_lazy = solve(&mut engine, &mut lazy, &b).unwrap();
                let x = solve(&mut engine, &mut prep, &b).unwrap();
                assert_eq!(bits(&x), bits(&x_lazy), "{case}");
            }
        }
    }

    #[test]
    fn circuit_engine_depth_two_with_variation() {
        let (a, b) = workload(16, 6);
        let mut engine = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 31);
        let mut prep = prepare(&mut engine, &a, 2).unwrap();
        let x = solve(&mut engine, &mut prep, &b).unwrap();
        let x_ref = lu::solve(&a, &b).unwrap();
        let err = metrics::relative_error(&x_ref, &x);
        assert!(err > 1e-6 && err < 1.0, "err={err}");
    }

    #[test]
    fn non_square_and_wrong_rhs_rejected() {
        let mut engine = NumericEngine::new();
        assert!(prepare(&mut engine, &Matrix::zeros(2, 3), 1).is_err());
        let (a, _) = workload(8, 7);
        let mut prep = prepare(&mut engine, &a, 1).unwrap();
        assert!(solve(&mut engine, &mut prep, &[0.0; 3]).is_err());
    }
}
