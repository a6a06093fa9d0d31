//! Execution engines for the AMC primitives.
//!
//! The BlockAMC algorithm (Fig. 2 / Algorithm 1 of the paper) is a fixed
//! cascade of INV and MVM operations. [`AmcEngine`] abstracts who executes
//! those primitives, and the set of executors is **open**: a backend is
//! any type implementing [`AmcEngine`] whose programmed state implements
//! [`OperandState`]. The backends shipped in-tree are not enumerated
//! here — they are registered in [`EngineRegistry::builtin`] and
//! selectable as data through [`EngineSpec`]; run
//! `EngineRegistry::builtin().names()` for the authoritative list.
//!
//! Both analog-style and digital backends honour the AMC *sign
//! convention*: the negative-feedback circuits produce `−A⁻¹·b` (INV)
//! and `−A·x` (MVM). The five-step algorithm is formulated directly on
//! those signed quantities, exactly as the paper's flow chart.
//!
//! Matrices are programmed once via [`AmcEngine::program`] and the
//! returned [`Operand`] is reused across steps — this matters physically:
//! block `A1` is used twice (steps 1 and 5) *on the same array*, so both
//! steps must see the same variation draw.
//!
//! # Object safety
//!
//! [`AmcEngine`] is object-safe, and `Box<dyn AmcEngine>` itself
//! implements both [`AmcEngine`] and [`Clone`] (via
//! [`AmcEngine::clone_boxed`]), so the entire solver stack — facade,
//! prepared trees, replicas, parallel batching — runs unchanged over a
//! backend chosen at run time:
//!
//! ```
//! use blockamc::engine::EngineRegistry;
//! use blockamc::solver::{SolverConfig, Stages};
//! use amc_linalg::Matrix;
//!
//! # fn main() -> Result<(), blockamc::BlockAmcError> {
//! let engine = EngineRegistry::builtin().build("numeric", 0)?;
//! let mut solver = SolverConfig::builder()
//!     .stages(Stages::One)
//!     .build(engine)?; // BlockAmcSolver<Box<dyn AmcEngine>>
//! let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]])?;
//! let report = solver.solve(&a, &[4.0, 3.0])?;
//! assert!((report.x[0] - 1.0).abs() < 1e-10);
//! # Ok(())
//! # }
//! ```

use std::any::Any;
use std::fmt;
use std::ops::Sub;

use amc_linalg::lu::LuFactor;
use amc_linalg::Matrix;

use crate::{BlockAmcError, Result};

mod circuit;
mod fixed_point;
mod numeric;
mod registry;

pub use circuit::{CircuitEngine, CircuitEngineConfig};
pub use fixed_point::FixedPointEngine;
pub use numeric::NumericEngine;
#[cfg(test)]
pub(crate) use numeric::NumericOperand;
pub use registry::{EngineRegistry, EngineSpec};

/// The backend-owned state of a programmed matrix.
///
/// Each engine backend defines its own state type (a cached
/// factorization, a conductance-programmed crossbar pair, a quantized
/// copy, …) and keeps it **in the backend module** — core neither
/// enumerates nor constrains the possibilities. The engine recovers its
/// concrete type through [`Operand::expect_state_mut`].
pub trait OperandState: Any + fmt::Debug + Send {
    /// Clones the state behind the type erasure.
    fn clone_boxed(&self) -> Box<dyn OperandState>;

    /// Shape `(rows, cols)` of the represented matrix.
    fn shape(&self) -> (usize, usize);

    /// The *effective* matrix this state computes with — exact for
    /// digital backends, the programmed (noisy) matrix for analog ones.
    fn effective_matrix(&self) -> Matrix;

    /// Upcasts to [`Any`] for downcasting.
    fn as_any(&self) -> &dyn Any;

    /// Upcasts to [`Any`] for mutable downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A matrix prepared for repeated AMC operations by a specific engine.
///
/// Obtained from [`AmcEngine::program`]; a thin type-erased handle over
/// the backend's [`OperandState`], opaque to everything but the backend
/// that programmed it.
#[derive(Debug)]
pub struct Operand {
    state: Box<dyn OperandState>,
}

impl Clone for Operand {
    fn clone(&self) -> Self {
        Operand {
            state: self.state.clone_boxed(),
        }
    }
}

impl Operand {
    /// Wraps a backend's programmed state.
    pub fn new(state: impl OperandState) -> Self {
        Operand {
            state: Box::new(state),
        }
    }

    /// Shape `(rows, cols)` of the represented matrix.
    pub fn shape(&self) -> (usize, usize) {
        self.state.shape()
    }

    /// The *effective* matrix this operand computes with — exact for
    /// digital operands, the programmed (noisy) matrix for analog
    /// operands. Useful for diagnostics.
    pub fn effective_matrix(&self) -> Matrix {
        self.state.effective_matrix()
    }

    /// Borrows the state as a concrete backend type, if it matches.
    #[cfg(test)]
    pub(crate) fn downcast_ref<T: OperandState>(&self) -> Option<&T> {
        self.state.as_any().downcast_ref::<T>()
    }

    /// Mutably borrows the state as a concrete backend type, if it
    /// matches.
    pub(crate) fn downcast_mut<T: OperandState>(&mut self) -> Option<&mut T> {
        self.state.as_any_mut().downcast_mut::<T>()
    }

    /// Mutably borrows the state as a concrete backend type; failure is
    /// the standard [`BlockAmcError::OperandMismatch`] an engine reports
    /// when handed an operand programmed by a different backend.
    pub fn expect_state_mut<T: OperandState>(&mut self, engine: &'static str) -> Result<&mut T> {
        self.downcast_mut::<T>()
            .ok_or(BlockAmcError::OperandMismatch { engine })
    }
}

/// Cumulative cost counters of an engine.
///
/// Counters only grow, and [`Sub`] recovers the delta across an
/// operation. All op counts use saturating arithmetic (asserting in
/// debug builds), so a long-lived serving process can never wrap a
/// counter back to a small value or panic in release on overflow.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Number of matrices programmed.
    pub program_ops: usize,
    /// Number of INV operations executed.
    pub inv_ops: usize,
    /// Number of MVM operations executed.
    pub mvm_ops: usize,
    /// Total estimated analog settling time, in seconds (analog
    /// backends only).
    pub analog_time_s: f64,
    /// Total estimated analog energy, in joules (analog backends only).
    pub analog_energy_j: f64,
}

/// Saturating op-count addition: loud in debug builds, safe in release.
fn saturating_count_add(lhs: usize, rhs: usize, what: &'static str) -> usize {
    debug_assert!(
        lhs.checked_add(rhs).is_some(),
        "EngineStats::{what} overflow: {lhs} + {rhs} saturated"
    );
    lhs.saturating_add(rhs)
}

impl EngineStats {
    /// Counts one `program` op (saturating; see struct docs).
    pub(crate) fn count_program(&mut self) {
        self.program_ops = saturating_count_add(self.program_ops, 1, "program_ops");
    }

    /// Counts one `inv` op (saturating; see struct docs).
    pub(crate) fn count_inv(&mut self) {
        self.count_invs(1);
    }

    /// Counts `k` `inv` ops — one block call over `k` right-hand sides
    /// (saturating; see struct docs).
    pub(crate) fn count_invs(&mut self, k: usize) {
        self.inv_ops = saturating_count_add(self.inv_ops, k, "inv_ops");
    }

    /// Counts one `mvm` op (saturating; see struct docs).
    pub(crate) fn count_mvm(&mut self) {
        self.count_mvms(1);
    }

    /// Counts `k` `mvm` ops — one block call over `k` right-hand sides
    /// (saturating; see struct docs).
    pub(crate) fn count_mvms(&mut self, k: usize) {
        self.mvm_ops = saturating_count_add(self.mvm_ops, k, "mvm_ops");
    }
}

impl Sub for EngineStats {
    type Output = EngineStats;

    fn sub(self, rhs: EngineStats) -> EngineStats {
        debug_assert!(
            self.program_ops >= rhs.program_ops
                && self.inv_ops >= rhs.inv_ops
                && self.mvm_ops >= rhs.mvm_ops,
            "EngineStats subtraction underflow (delta taken backwards?)"
        );
        EngineStats {
            program_ops: self.program_ops.saturating_sub(rhs.program_ops),
            inv_ops: self.inv_ops.saturating_sub(rhs.inv_ops),
            mvm_ops: self.mvm_ops.saturating_sub(rhs.mvm_ops),
            analog_time_s: self.analog_time_s - rhs.analog_time_s,
            analog_energy_j: self.analog_energy_j - rhs.analog_energy_j,
        }
    }
}

/// An executor of the two AMC primitives.
///
/// Implementations return results with the AMC minus sign:
/// [`AmcEngine::inv`] yields `−A⁻¹·b` and [`AmcEngine::mvm`] yields
/// `−A·x`.
///
/// The trait is object-safe; see the [module docs](self) for driving
/// the whole solver stack through `Box<dyn AmcEngine>`. Seedable
/// construction lives in the data layer: build a backend from an
/// [`EngineSpec`] (or a registry name) plus a seed.
pub trait AmcEngine: fmt::Debug + Send {
    /// Prepares a matrix for repeated operations (factorization for the
    /// digital backends; conductance mapping + programming for the
    /// circuit engine — variation is drawn here, once per array, as in
    /// hardware).
    ///
    /// # Errors
    ///
    /// Propagates mapping/factorization failures.
    fn program(&mut self, a: &Matrix) -> Result<Operand>;

    /// [`AmcEngine::program`] for a matrix whose LU factorisation the
    /// caller already holds — the partitioner hands over the `A1` factor
    /// its Schur complement computed when `A1` becomes a leaf array.
    /// `lu` must be exactly `LuFactor::new(a)`.
    ///
    /// The default ignores the factor and calls `program`; backends that
    /// factorise their operands (the numeric engine) keep it instead of
    /// factorising the same matrix again at the first INV. Overrides
    /// must be bit-identical to `program` in every later INV and MVM and
    /// count one `program` op.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AmcEngine::program`].
    fn program_factored(&mut self, a: &Matrix, lu: LuFactor) -> Result<Operand> {
        drop(lu);
        self.program(a)
    }

    /// Executes an INV operation: returns `−A⁻¹·b`.
    ///
    /// # Errors
    ///
    /// Shape mismatches, operand-kind mismatches, and solver failures.
    fn inv(&mut self, operand: &mut Operand, b: &[f64]) -> Result<Vec<f64>>;

    /// Executes an MVM operation: returns `−A·x`.
    ///
    /// # Errors
    ///
    /// Shape mismatches, operand-kind mismatches, and solver failures.
    fn mvm(&mut self, operand: &mut Operand, x: &[f64]) -> Result<Vec<f64>>;

    /// [`AmcEngine::inv`] into a caller-owned buffer (`out` is resized
    /// as needed). The default delegates to `inv`; allocation-conscious
    /// backends override it to reuse `out` across repeated solves — the
    /// batch hot path.
    ///
    /// Overrides must be **bit-identical** to `inv`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AmcEngine::inv`].
    fn inv_into(&mut self, operand: &mut Operand, b: &[f64], out: &mut Vec<f64>) -> Result<()> {
        *out = self.inv(operand, b)?;
        Ok(())
    }

    /// [`AmcEngine::mvm`] into a caller-owned buffer (`out` is resized
    /// as needed); same contract as [`AmcEngine::inv_into`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`AmcEngine::mvm`].
    fn mvm_into(&mut self, operand: &mut Operand, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        *out = self.mvm(operand, x)?;
        Ok(())
    }

    /// Executes `k` INV operations on one operand at once: column `c` of
    /// `out` is `−A⁻¹·b_c`.
    ///
    /// **Block layout.** `b` holds the `k` right-hand sides as a
    /// row-major `n×k` block — entry `i` of right-hand side `c` sits at
    /// `[i*k + c]` — and `out` is resized to the same layout.
    ///
    /// **Contract.** Each column must be bit-identical to
    /// [`AmcEngine::inv_into`] on that column alone, and the call counts
    /// `k` INV operations in [`AmcEngine::stats`]. The default honours
    /// both by gathering each column and calling `inv_into` on it, in
    /// column order; backends with a genuinely multi-column kernel
    /// (the numeric engine's grouped triangular solves) override it.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] for `k == 0`,
    /// [`BlockAmcError::ShapeMismatch`] for a `b` whose length is not a
    /// multiple of `k`, plus everything [`AmcEngine::inv_into`] reports.
    fn inv_block_into(
        &mut self,
        operand: &mut Operand,
        b: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        per_column(b, k, out, "inv_block", |col, res| {
            self.inv_into(operand, col, res)
        })
    }

    /// Executes `k` MVM operations on one operand at once: column `c` of
    /// `out` is `−A·x_c`. Same block layout and contract as
    /// [`AmcEngine::inv_block_into`], against [`AmcEngine::mvm_into`]
    /// and the MVM count.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] for `k == 0`,
    /// [`BlockAmcError::ShapeMismatch`] for an `x` whose length is not a
    /// multiple of `k`, plus everything [`AmcEngine::mvm_into`] reports.
    fn mvm_block_into(
        &mut self,
        operand: &mut Operand,
        x: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        per_column(x, k, out, "mvm_block", |col, res| {
            self.mvm_into(operand, col, res)
        })
    }

    /// Engine name for reports (the registry key of shipped backends).
    fn name(&self) -> &'static str;

    /// Cumulative cost counters.
    fn stats(&self) -> EngineStats;

    /// Clones the engine behind the type erasure, so replication
    /// ([`crate::solver::PreparedSolver::replicate`]) works on
    /// `Box<dyn AmcEngine>` exactly as on a concrete engine.
    fn clone_boxed(&self) -> Box<dyn AmcEngine>;
}

/// Checks that `len` entries form a row-major block of width `k`.
///
/// # Errors
///
/// [`BlockAmcError::InvalidConfig`] for `k == 0`;
/// [`BlockAmcError::ShapeMismatch`] (expecting the next multiple of `k`)
/// for a `len` that is not a multiple of `k`.
pub(crate) fn check_block(len: usize, k: usize, op: &'static str) -> Result<()> {
    if k == 0 {
        return Err(BlockAmcError::config(format!(
            "{op}: a block needs at least one column"
        )));
    }
    if len % k != 0 {
        return Err(BlockAmcError::ShapeMismatch {
            op,
            expected: len.next_multiple_of(k),
            got: len,
        });
    }
    Ok(())
}

/// The per-column default of the block methods: runs `single` on each
/// column of the `k`-wide block `input` in column order and interleaves
/// the results into `out`. `k == 1` passes the buffers straight through.
fn per_column(
    input: &[f64],
    k: usize,
    out: &mut Vec<f64>,
    op: &'static str,
    mut single: impl FnMut(&[f64], &mut Vec<f64>) -> Result<()>,
) -> Result<()> {
    check_block(input.len(), k, op)?;
    if k == 1 {
        return single(input, out);
    }
    let (mut col, mut res) = (Vec::new(), Vec::new());
    for c in 0..k {
        amc_linalg::vector::gather_column(input, k, c, &mut col);
        single(&col, &mut res)?;
        if c == 0 {
            out.clear();
            out.resize(res.len() * k, 0.0);
        }
        amc_linalg::vector::scatter_column(&res, k, c, out);
    }
    Ok(())
}

impl AmcEngine for Box<dyn AmcEngine> {
    fn program(&mut self, a: &Matrix) -> Result<Operand> {
        (**self).program(a)
    }

    fn program_factored(&mut self, a: &Matrix, lu: LuFactor) -> Result<Operand> {
        (**self).program_factored(a, lu)
    }

    fn inv(&mut self, operand: &mut Operand, b: &[f64]) -> Result<Vec<f64>> {
        (**self).inv(operand, b)
    }

    fn mvm(&mut self, operand: &mut Operand, x: &[f64]) -> Result<Vec<f64>> {
        (**self).mvm(operand, x)
    }

    fn inv_into(&mut self, operand: &mut Operand, b: &[f64], out: &mut Vec<f64>) -> Result<()> {
        (**self).inv_into(operand, b, out)
    }

    fn mvm_into(&mut self, operand: &mut Operand, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        (**self).mvm_into(operand, x, out)
    }

    fn inv_block_into(
        &mut self,
        operand: &mut Operand,
        b: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        (**self).inv_block_into(operand, b, k, out)
    }

    fn mvm_block_into(
        &mut self,
        operand: &mut Operand,
        x: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        (**self).mvm_block_into(operand, x, k, out)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn stats(&self) -> EngineStats {
        (**self).stats()
    }

    fn clone_boxed(&self) -> Box<dyn AmcEngine> {
        (**self).clone_boxed()
    }
}

impl Clone for Box<dyn AmcEngine> {
    fn clone(&self) -> Self {
        (**self).clone_boxed()
    }
}

// A programmed operand is the leaf executor of the recursive cascade
// core: its INV/MVM are the engine primitives themselves.
impl<E: AmcEngine + ?Sized> crate::multi_stage::InvExec<E> for Operand {
    fn inv_signed(
        &mut self,
        engine: &mut E,
        b: &[f64],
        k: usize,
        _path: crate::multi_stage::SignalPath<'_>,
        _log: &mut crate::multi_stage::TraceLog,
        rec: &mut amc_obs::Recorder,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let span = rec.enter("engine.inv");
        engine.inv_block_into(self, b, k, out)?;
        rec.exit_with(span, &[("n", (b.len() / k) as f64)]);
        Ok(())
    }
}

impl<E: AmcEngine + ?Sized> crate::multi_stage::MvmExec<E> for Operand {
    fn mvm_signed(
        &mut self,
        engine: &mut E,
        x: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        engine.mvm_block_into(self, x, k, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_linalg::vector;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.5]]).unwrap()
    }

    #[test]
    fn operand_kind_mismatch_detected() {
        let mut num = NumericEngine::new();
        let mut cir = CircuitEngine::new(CircuitEngineConfig::ideal(), 5);
        let mut opn = num.program(&sample()).unwrap();
        let mut opc = cir.program(&sample()).unwrap();
        assert!(matches!(
            cir.inv(&mut opn, &[0.1, 0.1]),
            Err(BlockAmcError::OperandMismatch { .. })
        ));
        assert!(matches!(
            num.mvm(&mut opc, &[0.1, 0.1]),
            Err(BlockAmcError::OperandMismatch { .. })
        ));
    }

    #[test]
    fn operand_reports_shape_and_effective_matrix() {
        let mut e = NumericEngine::new();
        let op = e.program(&sample()).unwrap();
        assert_eq!(op.shape(), (2, 2));
        assert!(op.effective_matrix().approx_eq(&sample(), 0.0));
    }

    #[test]
    fn stats_are_additive() {
        let a = EngineStats {
            program_ops: 1,
            inv_ops: 2,
            mvm_ops: 3,
            analog_time_s: 0.5,
            analog_energy_j: 0.25,
        };
        let b = EngineStats {
            program_ops: 10,
            inv_ops: 20,
            mvm_ops: 30,
            analog_time_s: 1.0,
            analog_energy_j: 2.0,
        };
        let sum = EngineStats {
            program_ops: 11,
            inv_ops: 22,
            mvm_ops: 33,
            analog_time_s: 1.5,
            analog_energy_j: 2.25,
        };
        assert_eq!(sum - b, a);
    }

    #[test]
    fn stats_count_methods_increment() {
        let mut s = EngineStats::default();
        s.count_program();
        s.count_inv();
        s.count_inv();
        s.count_mvm();
        assert_eq!((s.program_ops, s.inv_ops, s.mvm_ops), (1, 2, 1));
    }

    #[test]
    fn stats_addition_at_boundary_without_overflow_is_exact() {
        let mut s = EngineStats {
            inv_ops: usize::MAX - 1,
            ..EngineStats::default()
        };
        s.count_inv(); // lands exactly on MAX: no overflow, no assertion
        assert_eq!(s.inv_ops, usize::MAX);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn stats_addition_saturates_in_release() {
        let mut s = EngineStats {
            inv_ops: usize::MAX,
            ..EngineStats::default()
        };
        s.count_inv();
        assert_eq!(s.inv_ops, usize::MAX, "saturates instead of wrapping");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflow")]
    fn stats_addition_overflow_asserts_in_debug() {
        let mut s = EngineStats {
            inv_ops: usize::MAX,
            ..EngineStats::default()
        };
        s.count_inv();
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn stats_subtraction_saturates_in_release() {
        let a = EngineStats {
            inv_ops: 1,
            ..EngineStats::default()
        };
        let b = EngineStats {
            inv_ops: 5,
            ..EngineStats::default()
        };
        assert_eq!((a - b).inv_ops, 0, "underflow clamps to zero");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "underflow")]
    fn stats_subtraction_underflow_asserts_in_debug() {
        let a = EngineStats {
            inv_ops: 1,
            ..EngineStats::default()
        };
        let b = EngineStats {
            inv_ops: 5,
            ..EngineStats::default()
        };
        let _ = a - b;
    }

    #[test]
    fn boxed_engine_is_a_working_engine() {
        let a = sample();
        let b = [0.3, -0.2];
        let mut concrete = NumericEngine::new();
        let mut boxed: Box<dyn AmcEngine> = Box::new(NumericEngine::new());
        let mut opc = concrete.program(&a).unwrap();
        let mut opb = boxed.program(&a).unwrap();
        assert_eq!(
            concrete.inv(&mut opc, &b).unwrap(),
            boxed.inv(&mut opb, &b).unwrap()
        );
        assert_eq!(boxed.name(), "numeric");
        assert_eq!(boxed.stats().inv_ops, 1);
        // Cloning a boxed engine clones the concrete backend behind it.
        let cloned = boxed.clone();
        assert_eq!(cloned.stats(), boxed.stats());
    }

    #[test]
    fn registry_engine_keeps_a_handed_over_factor() {
        let a = sample();
        let b = [0.3, -0.2];
        let mut boxed = EngineRegistry::builtin().build("numeric", 0).unwrap();
        let lu = amc_linalg::lu::LuFactor::new(&a).unwrap();
        let mut handed = boxed.program_factored(&a, lu).unwrap();
        let state = handed.downcast_ref::<NumericOperand>().unwrap();
        assert!(state.lu.is_some(), "the box forwards the factor");
        assert_eq!(boxed.stats().program_ops, 1);
        // The same bits as an operand that factorises at its first INV.
        let mut lazy = boxed.program(&a).unwrap();
        assert!(lazy.downcast_ref::<NumericOperand>().unwrap().lu.is_none());
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let x = boxed.inv(&mut handed, &b).unwrap();
        let y = boxed.inv(&mut lazy, &b).unwrap();
        assert_eq!(bits(x), bits(y));
        assert_eq!(boxed.stats().program_ops, 2);
    }

    #[test]
    fn program_factored_defaults_to_program() {
        let a = sample();
        let lu = amc_linalg::lu::LuFactor::new(&a).unwrap();
        let mut cir = CircuitEngine::new(CircuitEngineConfig::ideal(), 5);
        let mut twin = cir.clone();
        let mut handed = cir.program_factored(&a, lu).unwrap();
        let mut plain = twin.program(&a).unwrap();
        assert_eq!(cir.stats().program_ops, 1);
        let b = [0.1, 0.2];
        assert_eq!(
            cir.inv(&mut handed, &b).unwrap(),
            twin.inv(&mut plain, &b).unwrap()
        );
    }

    #[test]
    fn inv_into_defaults_match_inv() {
        let a = sample();
        let b = [0.7, 0.1];
        let mut e = NumericEngine::new();
        let mut op = e.program(&a).unwrap();
        let x = e.inv(&mut op, &b).unwrap();
        let mut buf = vec![42.0; 5]; // deliberately wrong size + contents
        e.inv_into(&mut op, &b, &mut buf).unwrap();
        assert_eq!(x, buf);
        let y = e.mvm(&mut op, &b).unwrap();
        e.mvm_into(&mut op, &b, &mut buf).unwrap();
        assert_eq!(y, buf);
        assert!(vector::approx_eq(&y, &[-1.45, -0.5], 1e-12));
    }
}
