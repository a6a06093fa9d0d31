//! Instruments the benchmark attaches from outside the library: a
//! counting allocator, timers around public calls, and a delegating
//! engine that times every AMC primitive.
//!
//! Every instrument records only while [`tracing`] is on. The traced run
//! switches it on and off between measuring segments; the timed run
//! never switches it on, and also runs the plain registry engines rather
//! than [`ProbedEngine`], so its numbers carry no instrument cost. In the
//! traced run, `prepare_churn`, `rhs_stream` and `analog_mc` run the plain
//! engines in "off" segments too, so `trace.overhead_frac` includes the
//! wrapper's forwarding cost; `serve_mix` sends every request to the
//! probed engine (see there), so its overhead leaves that cost out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use amc_linalg::Matrix;

use crate::measure::ratio;
use blockamc::engine::{
    AmcEngine, CircuitEngineConfig, EngineRegistry, EngineSpec, EngineStats, Operand, OperandState,
};

static TRACING: AtomicBool = AtomicBool::new(false);

/// Turns every instrument on or off.
pub fn set_tracing(on: bool) {
    TRACING.store(on, Relaxed);
}

/// Whether the instruments record.
pub fn tracing() -> bool {
    TRACING.load(Relaxed)
}

/// Counts calls and busy time of one layer. `inner_ns` is the engine
/// busy time spent inside the layer's calls, so that busy minus inner is
/// the layer's self time.
pub struct Layer {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    inner_ns: AtomicU64,
}

/// A point-in-time reading of a [`Layer`].
#[derive(Debug, Clone, Copy)]
pub struct LayerReading {
    pub calls: u64,
    pub busy_ns: u64,
    pub inner_ns: u64,
}

impl LayerReading {
    /// Busy time per call in `unit` seconds (1e-3 for ms), 0 without calls.
    pub fn busy_per_call(&self, unit: f64) -> f64 {
        ratio(self.busy_ns as f64 * 1e-9 / unit, self.calls as f64)
    }

    /// Self time (busy minus `inner_ns / share`) per call.
    pub fn self_per_call(&self, unit: f64, share: f64) -> f64 {
        let self_ns = self.busy_ns as f64 - self.inner_ns as f64 / share;
        ratio(self_ns * 1e-9 / unit, self.calls as f64)
    }
}

impl Layer {
    const fn new() -> Layer {
        Layer {
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            inner_ns: AtomicU64::new(0),
        }
    }

    pub fn read(&self) -> LayerReading {
        LayerReading {
            calls: self.calls.load(Relaxed),
            busy_ns: self.busy_ns.load(Relaxed),
            inner_ns: self.inner_ns.load(Relaxed),
        }
    }

    fn record(&self, busy_ns: u64, inner_ns: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.busy_ns.fetch_add(busy_ns, Relaxed);
        self.inner_ns.fetch_add(inner_ns, Relaxed);
    }
}

/// `BlockAmcSolver::prepare` calls the benchmark makes.
pub static PREPARE: Layer = Layer::new();
/// `PreparedSolver::solve` calls the benchmark makes.
pub static SOLVE: Layer = Layer::new();
/// `SolverReplica::solve_batch_parallel` calls the benchmark makes.
pub static BATCH: Layer = Layer::new();
/// `AmcEngine::program` calls on a [`ProbedEngine`].
pub static ENGINE_PROGRAM: Layer = Layer::new();
/// `AmcEngine::inv`/`inv_into` calls on a [`ProbedEngine`].
pub static ENGINE_INV: Layer = Layer::new();
/// `AmcEngine::mvm`/`mvm_into` calls on a [`ProbedEngine`].
pub static ENGINE_MVM: Layer = Layer::new();

/// LU flops computed from the shapes of the blocks the engines factorise.
pub static LU_FLOPS: AtomicU64 = AtomicU64::new(0);
/// Bytes computed from the shapes of the blocks INV and MVM read and write.
pub static SOLVE_BYTES: AtomicU64 = AtomicU64::new(0);

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Heap allocations and bytes requested while tracing was on.
pub fn allocations() -> (u64, u64) {
    (ALLOC_COUNT.load(Relaxed), ALLOC_BYTES.load(Relaxed))
}

fn engine_busy_ns() -> u64 {
    ENGINE_PROGRAM.busy_ns.load(Relaxed)
        + ENGINE_INV.busy_ns.load(Relaxed)
        + ENGINE_MVM.busy_ns.load(Relaxed)
}

/// Runs `f`, charging its wall time to `layer` and the engine time
/// spent inside it to the layer's inner time, when tracing is on.
pub fn timed<T>(layer: &Layer, f: impl FnOnce() -> T) -> T {
    if !tracing() {
        return f();
    }
    let engine_before = engine_busy_ns();
    let start = Instant::now();
    let out = f();
    let busy = start.elapsed().as_nanos() as u64;
    layer.record(busy, engine_busy_ns().saturating_sub(engine_before));
    out
}

/// The system allocator, counting allocations while tracing is on.
pub struct CountingAlloc;

fn count_alloc(size: usize) {
    if tracing() {
        ALLOC_COUNT.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// How an engine spends LU work, for the computed flop count.
#[derive(Debug, Clone, Copy)]
enum Factorises {
    /// Once per programmed array, at its first INV (the numeric engine's
    /// lazy factorisation).
    OncePerArray,
    /// On every INV (the circuit simulator refactorises per call).
    EveryInv,
}

/// A delegating [`AmcEngine`]: forwards every call to the wrapped engine
/// unchanged and, while tracing, times it into the `ENGINE_*` layers.
#[derive(Debug, Clone)]
pub struct ProbedEngine {
    inner: Box<dyn AmcEngine>,
    factorises: Factorises,
}

/// The wrapped engine's operand plus whether it has been inverted, so the
/// flop count knows when a lazy factorisation happens.
#[derive(Debug, Clone)]
struct ProbedOperand {
    inner: Operand,
    inverted: bool,
}

impl OperandState for ProbedOperand {
    fn clone_boxed(&self) -> Box<dyn OperandState> {
        Box::new(self.clone())
    }

    fn shape(&self) -> (usize, usize) {
        self.inner.shape()
    }

    fn effective_matrix(&self) -> Matrix {
        self.inner.effective_matrix()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn add_work(flops: f64, bytes: f64) {
    if tracing() {
        LU_FLOPS.fetch_add(flops as u64, Relaxed);
        SOLVE_BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

impl ProbedEngine {
    fn operand(operand: &mut Operand) -> blockamc::Result<&mut ProbedOperand> {
        operand.expect_state_mut::<ProbedOperand>("probed")
    }

    /// Charges one INV on `op`: an LU when this engine factorises now,
    /// plus the triangular solves reading both factors and three vectors.
    fn count_inv(&self, op: &mut ProbedOperand) {
        let m = op.inner.shape().0 as f64;
        let factorises = match self.factorises {
            Factorises::OncePerArray => !op.inverted,
            Factorises::EveryInv => true,
        };
        op.inverted = true;
        let lu = if factorises {
            2.0 / 3.0 * m * m * m
        } else {
            0.0
        };
        add_work(lu, 8.0 * m * (m + 3.0));
    }

    /// Charges one MVM on `op`: the block and both vectors.
    fn count_mvm(op: &ProbedOperand) {
        let (r, c) = op.inner.shape();
        let (r, c) = (r as f64, c as f64);
        add_work(0.0, 8.0 * (r * c + r + c));
    }
}

impl AmcEngine for ProbedEngine {
    fn program(&mut self, a: &Matrix) -> blockamc::Result<Operand> {
        let inner = timed(&ENGINE_PROGRAM, || self.inner.program(a))?;
        Ok(Operand::new(ProbedOperand {
            inner,
            inverted: false,
        }))
    }

    fn inv(&mut self, operand: &mut Operand, b: &[f64]) -> blockamc::Result<Vec<f64>> {
        let op = Self::operand(operand)?;
        self.count_inv(op);
        timed(&ENGINE_INV, || self.inner.inv(&mut op.inner, b))
    }

    fn mvm(&mut self, operand: &mut Operand, x: &[f64]) -> blockamc::Result<Vec<f64>> {
        let op = Self::operand(operand)?;
        Self::count_mvm(op);
        timed(&ENGINE_MVM, || self.inner.mvm(&mut op.inner, x))
    }

    fn inv_into(
        &mut self,
        operand: &mut Operand,
        b: &[f64],
        out: &mut Vec<f64>,
    ) -> blockamc::Result<()> {
        let op = Self::operand(operand)?;
        self.count_inv(op);
        timed(&ENGINE_INV, || self.inner.inv_into(&mut op.inner, b, out))
    }

    fn mvm_into(
        &mut self,
        operand: &mut Operand,
        x: &[f64],
        out: &mut Vec<f64>,
    ) -> blockamc::Result<()> {
        let op = Self::operand(operand)?;
        Self::count_mvm(op);
        timed(&ENGINE_MVM, || self.inner.mvm_into(&mut op.inner, x, out))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn clone_boxed(&self) -> Box<dyn AmcEngine> {
        Box::new(self.clone())
    }
}

/// Registry name of the probed numeric engine.
pub const PROBED_NUMERIC: &str = "probed-numeric";
/// Registry name of the probed circuit engine at the paper's variation.
pub const PROBED_VARIATION: &str = "probed-circuit-variation";
/// Registry name of the probed circuit engine with variation and wires.
pub const PROBED_FULL: &str = "probed-circuit-full";

/// The built-in registry plus a probed twin of each engine the
/// workloads run.
pub fn registry() -> EngineRegistry {
    let mut registry = EngineRegistry::builtin();
    let twins = [
        (
            PROBED_NUMERIC,
            EngineSpec::Numeric,
            Factorises::OncePerArray,
        ),
        (
            PROBED_VARIATION,
            EngineSpec::Circuit(CircuitEngineConfig::paper_variation()),
            Factorises::EveryInv,
        ),
        (
            PROBED_FULL,
            EngineSpec::Circuit(CircuitEngineConfig::paper_full()),
            Factorises::EveryInv,
        ),
    ];
    for (name, spec, factorises) in twins {
        registry.register(name, move |seed| {
            let inner = spec.build(seed)?;
            Ok(Box::new(ProbedEngine { inner, factorises }) as Box<dyn AmcEngine>)
        });
    }
    registry
}
