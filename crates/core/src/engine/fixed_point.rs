//! The b-bit quantized digital backend.
//!
//! A nonideality rung *between* the exact numeric reference and the
//! full analog stack: matrices, inputs, and outputs are snapped to
//! signed `bits`-bit fixed-point grids (per-object full-scale range),
//! but the solve itself is an exact LU on the quantized matrix. This
//! isolates the paper's quantization study — how many levels does
//! BlockAMC actually need? — from every other analog nonideality.

use std::any::Any;

use amc_linalg::{lu::LuFactor, Matrix};

use super::{AmcEngine, EngineStats, Operand, OperandState};
use crate::{BlockAmcError, Result};

/// Operand state of [`FixedPointEngine`]: the quantized matrix with a
/// cached LU factorization of it.
#[derive(Debug, Clone)]
pub(crate) struct FixedPointOperand {
    pub(crate) a_q: Matrix,
    pub(crate) lu: Option<LuFactor>,
}

impl OperandState for FixedPointOperand {
    fn clone_boxed(&self) -> Box<dyn OperandState> {
        Box::new(self.clone())
    }

    fn shape(&self) -> (usize, usize) {
        self.a_q.shape()
    }

    fn effective_matrix(&self) -> Matrix {
        self.a_q.clone()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Digital engine computing on `bits`-bit fixed-point values.
///
/// Programming snaps every matrix element to the signed grid spanned by
/// the matrix's own full scale (`±max|aᵢⱼ|`, `2^(bits−1) − 1` positive
/// levels); each INV/MVM likewise quantizes its input and output
/// vectors on their own full-scale grids. As `bits` grows the engine
/// converges to [`super::NumericEngine`] (pinned by proptest in
/// `tests/engine_backends.rs`).
#[derive(Debug, Clone)]
pub struct FixedPointEngine {
    bits: u32,
    stats: EngineStats,
    /// Reused input-quantization buffer: `inv_into`/`mvm_into` quantize
    /// the incoming vector here instead of allocating per primitive.
    scratch: Vec<f64>,
}

impl FixedPointEngine {
    /// Creates the engine with the given word length.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] unless `2 <= bits <= 52` (above
    /// 52 bits the grid outresolves the `f64` mantissa and the engine
    /// would silently degenerate to the numeric one).
    pub fn new(bits: u32) -> Result<Self> {
        if !(2..=52).contains(&bits) {
            return Err(BlockAmcError::config(format!(
                "fixed-point word length must be in 2..=52 bits, got {bits}"
            )));
        }
        Ok(FixedPointEngine {
            bits,
            stats: EngineStats::default(),
            scratch: Vec::new(),
        })
    }

    /// Grid step for a full-scale magnitude `scale` (0 when the data is
    /// all zero — nothing to resolve).
    fn step(&self, scale: f64) -> f64 {
        if scale == 0.0 {
            0.0
        } else {
            scale / ((1u64 << (self.bits - 1)) - 1) as f64
        }
    }

    fn quantize_slice_into(&self, values: &[f64], out: &mut Vec<f64>) {
        let scale = values.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let step = self.step(scale);
        out.clear();
        out.extend(values.iter().map(|&v| quantize(v, step)));
    }

    fn quantize_in_place(&self, values: &mut [f64]) {
        let scale = values.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        let step = self.step(scale);
        for v in values {
            *v = quantize(*v, step);
        }
    }
}

/// Snaps `v` to the grid of spacing `step` (`step == 0` passes through:
/// an all-zero object has nothing to resolve).
fn quantize(v: f64, step: f64) -> f64 {
    if step == 0.0 {
        v
    } else {
        (v / step).round() * step
    }
}

impl AmcEngine for FixedPointEngine {
    fn program(&mut self, a: &Matrix) -> Result<Operand> {
        let step = self.step(a.max_abs());
        let a_q = a.map(|v| quantize(v, step));
        self.stats.count_program();
        Ok(Operand::new(FixedPointOperand { a_q, lu: None }))
    }

    fn inv(&mut self, operand: &mut Operand, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.inv_into(operand, b, &mut x)?;
        Ok(x)
    }

    fn inv_into(&mut self, operand: &mut Operand, b: &[f64], out: &mut Vec<f64>) -> Result<()> {
        // The engine-held scratch buffer carries the quantized input so
        // the batch hot path allocates nothing (taken/restored around
        // the solve to satisfy the borrow checker; an error path merely
        // forfeits the reuse, never correctness).
        let mut b_q = std::mem::take(&mut self.scratch);
        self.quantize_slice_into(b, &mut b_q);
        let state = operand.expect_state_mut::<FixedPointOperand>("fixed-point")?;
        if state.lu.is_none() {
            state.lu = Some(LuFactor::new(&state.a_q)?);
        }
        let lu = state.lu.as_ref().expect("factorization was just installed");
        out.resize(lu.dim(), 0.0);
        let solved = lu.solve_into(&b_q, out);
        self.scratch = b_q;
        solved?;
        amc_linalg::vector::neg_in_place(out);
        self.quantize_in_place(out);
        self.stats.count_inv();
        Ok(())
    }

    fn mvm(&mut self, operand: &mut Operand, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = Vec::new();
        self.mvm_into(operand, x, &mut y)?;
        Ok(y)
    }

    fn mvm_into(&mut self, operand: &mut Operand, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let mut x_q = std::mem::take(&mut self.scratch);
        self.quantize_slice_into(x, &mut x_q);
        let state = operand.expect_state_mut::<FixedPointOperand>("fixed-point")?;
        out.resize(state.a_q.rows(), 0.0);
        let multiplied = state.a_q.matvec_into(&x_q, out);
        self.scratch = x_q;
        multiplied?;
        amc_linalg::vector::neg_in_place(out);
        self.quantize_in_place(out);
        self.stats.count_mvm();
        Ok(())
    }

    fn name(&self) -> &'static str {
        "fixed-point"
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
    use super::super::NumericEngine;
    use super::*;
    use amc_linalg::{generate, metrics};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn word_length_validation() {
        assert!(FixedPointEngine::new(1).is_err());
        assert!(FixedPointEngine::new(53).is_err());
        assert!(FixedPointEngine::new(2).is_ok());
        assert_eq!(FixedPointEngine::new(8).unwrap().bits, 8);
    }

    #[test]
    fn coarse_bits_perturb_fine_bits_converge() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let a = generate::wishart_default(12, &mut rng).unwrap();
        let b = generate::random_vector(12, &mut rng);
        let mut reference = NumericEngine::new();
        let mut op_ref = reference.program(&a).unwrap();
        let x_ref = reference.inv(&mut op_ref, &b).unwrap();

        let err_at = |bits: u32| {
            let mut e = FixedPointEngine::new(bits).unwrap();
            let mut op = e.program(&a).unwrap();
            match e.inv(&mut op, &b) {
                Ok(x) => metrics::relative_error(&x_ref, &x),
                Err(_) => f64::INFINITY,
            }
        };
        let coarse = err_at(6);
        let fine = err_at(40);
        assert!(coarse > 1e-4, "6-bit solve must deviate: {coarse}");
        assert!(fine < 1e-9, "40-bit solve must match numeric: {fine}");
    }

    #[test]
    fn quantization_snaps_to_the_grid() {
        let mut e = FixedPointEngine::new(3).unwrap();
        // 3 bits: positive levels at step = max/3.
        let a = Matrix::from_rows(&[&[3.0, 1.4], &[0.4, 2.0]]).unwrap();
        let op = e.program(&a).unwrap();
        let eff = op.effective_matrix();
        assert_eq!(eff.get(0, 0), Some(3.0));
        assert_eq!(eff.get(0, 1), Some(1.0));
        assert_eq!(eff.get(1, 0), Some(0.0));
        assert_eq!(eff.get(1, 1), Some(2.0));
    }

    #[test]
    fn input_quantization_buffer_is_reused() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let a = generate::wishart_default(8, &mut rng).unwrap();
        let mut e = FixedPointEngine::new(12).unwrap();
        let mut op = e.program(&a).unwrap();
        let mut out = Vec::new();
        // Warm both the scratch buffer and the output buffer.
        let b0 = generate::random_vector(8, &mut rng);
        e.inv_into(&mut op, &b0, &mut out).unwrap();
        let scratch_ptr = e.scratch.as_ptr();
        for _ in 0..3 {
            let b = generate::random_vector(8, &mut rng);
            e.inv_into(&mut op, &b, &mut out).unwrap();
            e.mvm_into(&mut op, &b, &mut out).unwrap();
        }
        assert_eq!(e.scratch.as_ptr(), scratch_ptr, "scratch must be reused");
    }

    #[test]
    fn zero_matrix_survives_programming() {
        let mut e = FixedPointEngine::new(8).unwrap();
        let op = e.program(&Matrix::zeros(3, 3)).unwrap();
        assert!(op.effective_matrix().is_zero());
    }

    #[test]
    fn engine_name() {
        assert_eq!(FixedPointEngine::new(8).unwrap().name(), "fixed-point");
    }
}
