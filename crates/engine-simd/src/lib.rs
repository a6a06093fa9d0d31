//! `amc-engine-simd`: a cache-blocked, micro-tiled digital backend for
//! the BlockAMC engine API.
//!
//! [`SimdEngine`] implements [`blockamc::engine::AmcEngine`] with
//! kernels written for the autovectorizer: a panel-blocked LU
//! ([`SimdLu`]) whose trailing updates run through a const-generic
//! register-tiled GEMM ([`kernels::gemm_sub`], 4×4 or 8×8 tiles picked
//! at runtime by matrix size). No `unsafe`, no intrinsics — the tiles
//! are shaped so LLVM lowers the unrolled inner loops to wide
//! multiply-adds on any target.
//!
//! The backend plugs into the name-driven engine surface through
//! [`register`], which installs it in an
//! [`blockamc::engine::EngineRegistry`] under [`ENGINE_NAME`] — core
//! never learns the type:
//!
//! ```
//! use blockamc::engine::EngineRegistry;
//!
//! # fn main() -> Result<(), blockamc::BlockAmcError> {
//! let mut registry = EngineRegistry::builtin();
//! amc_engine_simd::register(&mut registry);
//! let mut engine = registry.build(amc_engine_simd::ENGINE_NAME, 0)?;
//! assert_eq!(engine.name(), "simd");
//! # Ok(())
//! # }
//! ```
//!
//! **Accuracy contract:** the blocked accumulation order differs from
//! the reference elimination, so results agree with
//! [`blockamc::engine::NumericEngine`] to rounding rather than
//! bit-for-bit. The bound is pinned by proptests in this crate
//! (`simd_solves_are_bounded_against_numeric`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;

use amc_linalg::Matrix;
use blockamc::engine::{AmcEngine, EngineRegistry, EngineStats, Operand, OperandState};
use blockamc::Result;

pub mod kernels;
mod lu;

pub use lu::{auto_panel, SimdLu};

/// The registry name this backend installs under (and reports from
/// [`AmcEngine::name`]).
pub const ENGINE_NAME: &str = "simd";

/// Registers (or replaces) the simd backend in `registry` under
/// [`ENGINE_NAME`]. The constructor ignores the seed — this backend is
/// exact-digital and draws nothing.
pub fn register(registry: &mut EngineRegistry) {
    registry.register(ENGINE_NAME, |_seed| Ok(Box::new(SimdEngine::new())));
}

/// Operand state of [`SimdEngine`]: the exact matrix with a lazily
/// built blocked factorization.
#[derive(Debug, Clone)]
struct SimdOperand {
    a: Matrix,
    lu: Option<SimdLu>,
}

impl OperandState for SimdOperand {
    fn clone_boxed(&self) -> Box<dyn OperandState> {
        Box::new(self.clone())
    }

    fn shape(&self) -> (usize, usize) {
        self.a.shape()
    }

    fn effective_matrix(&self) -> Matrix {
        self.a.clone()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Cache-blocked, micro-tiled digital engine.
///
/// Same signed conventions as every backend — INV returns `−A⁻¹·b`,
/// MVM returns `−A·x` — and the same lazy-factorize/buffer-reuse hot
/// paths as `NumericEngine`, but with the tiled kernels of this crate
/// underneath.
#[derive(Debug, Clone, Default)]
pub struct SimdEngine {
    stats: EngineStats,
}

impl SimdEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AmcEngine for SimdEngine {
    fn program(&mut self, a: &Matrix) -> Result<Operand> {
        self.stats.count_program();
        Ok(Operand::new(SimdOperand {
            a: a.clone(),
            lu: None,
        }))
    }

    fn inv(&mut self, operand: &mut Operand, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.inv_into(operand, b, &mut x)?;
        Ok(x)
    }

    fn inv_into(&mut self, operand: &mut Operand, b: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let state = operand.expect_state_mut::<SimdOperand>("simd")?;
        if state.lu.is_none() {
            state.lu = Some(SimdLu::new(&state.a)?);
        }
        let lu = state.lu.as_ref().expect("factorization was just installed");
        out.resize(lu.dim(), 0.0);
        lu.solve_into(b, out)?;
        amc_linalg::vector::neg_in_place(out);
        self.stats.count_inv();
        Ok(())
    }

    fn mvm(&mut self, operand: &mut Operand, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = Vec::new();
        self.mvm_into(operand, x, &mut y)?;
        Ok(y)
    }

    fn mvm_into(&mut self, operand: &mut Operand, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let state = operand.expect_state_mut::<SimdOperand>("simd")?;
        out.resize(state.a.rows(), 0.0);
        state.a.matvec_into(x, out)?;
        amc_linalg::vector::neg_in_place(out);
        self.stats.count_mvm();
        Ok(())
    }

    fn name(&self) -> &'static str {
        ENGINE_NAME
    }

    fn stats(&self) -> EngineStats {
        self.stats
    }

    fn clone_boxed(&self) -> Box<dyn AmcEngine> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_linalg::{generate, vector};
    use blockamc::engine::NumericEngine;
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn engine_name_and_stats() {
        let mut e = SimdEngine::new();
        assert_eq!(e.name(), "simd");
        let a = Matrix::identity(4);
        let mut op = e.program(&a).unwrap();
        e.inv(&mut op, &[1.0; 4]).unwrap();
        e.mvm(&mut op, &[1.0; 4]).unwrap();
        let s = e.stats();
        assert_eq!((s.program_ops, s.inv_ops, s.mvm_ops), (1, 1, 1));
    }

    #[test]
    fn signed_conventions_match_numeric_engine() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let a = generate::diagonally_dominant(12, 1.5, &mut rng).unwrap();
        let b = generate::random_vector(12, &mut rng);
        let mut simd = SimdEngine::new();
        let mut numeric = NumericEngine::new();
        let mut op_s = simd.program(&a).unwrap();
        let mut op_n = numeric.program(&a).unwrap();
        // INV: −A⁻¹·b, bounded against the reference.
        let x_s = simd.inv(&mut op_s, &b).unwrap();
        let x_n = numeric.inv(&mut op_n, &b).unwrap();
        assert!(vector::approx_eq(&x_s, &x_n, 1e-10));
        // MVM: −A·x, same dense matvec ⇒ bit-identical.
        assert_eq!(
            simd.mvm(&mut op_s, &b).unwrap(),
            numeric.mvm(&mut op_n, &b).unwrap()
        );
    }

    #[test]
    fn buffers_are_reused_without_reallocation() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        let a = generate::diagonally_dominant(8, 1.5, &mut rng).unwrap();
        let mut e = SimdEngine::new();
        let mut op = e.program(&a).unwrap();
        let mut out = Vec::with_capacity(8);
        let base_ptr = out.as_ptr();
        for _ in 0..3 {
            let b = generate::random_vector(8, &mut rng);
            e.inv_into(&mut op, &b, &mut out).unwrap();
            assert_eq!(out.len(), 8);
        }
        assert_eq!(out.as_ptr(), base_ptr, "no reallocation across solves");
    }

    #[test]
    fn rejects_foreign_operands() {
        let mut numeric = NumericEngine::new();
        let mut foreign = numeric.program(&Matrix::identity(2)).unwrap();
        let mut e = SimdEngine::new();
        assert!(e.inv(&mut foreign, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn registers_and_round_trips_by_name() {
        let mut registry = EngineRegistry::builtin();
        assert!(!registry.contains(ENGINE_NAME));
        register(&mut registry);
        assert!(registry.contains(ENGINE_NAME));
        let mut engine = registry.build(ENGINE_NAME, 42).unwrap();
        assert_eq!(engine.name(), "simd");
        let a = Matrix::identity(3);
        let mut op = engine.program(&a).unwrap();
        let x = engine.inv(&mut op, &[1.0, 2.0, 3.0]).unwrap();
        assert!(vector::approx_eq(&x, &[-1.0, -2.0, -3.0], 1e-14));
        // Re-registration replaces, not duplicates.
        register(&mut registry);
        assert_eq!(registry.names().filter(|n| *n == ENGINE_NAME).count(), 1);
    }

    proptest! {
        // The accuracy contract of the crate: on well-conditioned
        // random systems the simd backend agrees with NumericEngine to
        // a tight relative bound at every size and panel boundary.
        #[test]
        fn simd_solves_are_bounded_against_numeric(
            n in 1usize..80,
            seed in 0u64..256,
        ) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = generate::diagonally_dominant(n, 1.5, &mut rng).unwrap();
            let b = generate::random_vector(n, &mut rng);
            let mut simd = SimdEngine::new();
            let mut numeric = NumericEngine::new();
            let mut op_s = simd.program(&a).unwrap();
            let mut op_n = numeric.program(&a).unwrap();
            let x_s = simd.inv(&mut op_s, &b).unwrap();
            let x_n = numeric.inv(&mut op_n, &b).unwrap();
            prop_assert!(
                vector::approx_eq(&x_s, &x_n, 1e-9),
                "n={} diverged: {:?} vs {:?}", n, x_s, x_n
            );
        }

        // Determinism: repeated factorize+solve of the same system is
        // bit-identical (no hidden state, no run-to-run reordering).
        #[test]
        fn simd_solves_are_deterministic(n in 1usize..40, seed in 0u64..64) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let a = generate::diagonally_dominant(n, 1.5, &mut rng).unwrap();
            let b = generate::random_vector(n, &mut rng);
            let solve = |a: &Matrix, b: &[f64]| {
                let mut e = SimdEngine::new();
                let mut op = e.program(a).unwrap();
                e.inv(&mut op, b).unwrap()
            };
            prop_assert_eq!(solve(&a, &b), solve(&a, &b));
        }
    }
}
