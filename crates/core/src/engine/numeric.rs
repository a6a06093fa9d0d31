//! The exact digital reference backend.

use std::any::Any;

use amc_linalg::{lu::LuFactor, Matrix};

use super::{check_block, AmcEngine, EngineStats, Operand, OperandState};
use crate::Result;

/// Operand state of [`NumericEngine`]: the exact matrix with its cached
/// LU factorization — handed over at programming time by
/// [`AmcEngine::program_factored`] (a Schur step's `A1` leaf), otherwise
/// built on the first INV and kept from then on.
#[derive(Debug, Clone)]
pub(crate) struct NumericOperand {
    pub(crate) a: Matrix,
    pub(crate) lu: Option<LuFactor>,
}

impl OperandState for NumericOperand {
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

/// Exact digital engine (LU-based) — the paper's "numerical solver"
/// reference curve.
///
/// # Example
///
/// ```
/// use blockamc::engine::{AmcEngine, NumericEngine};
/// use amc_linalg::Matrix;
///
/// # fn main() -> Result<(), blockamc::BlockAmcError> {
/// let mut e = NumericEngine::new();
/// let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]])?;
/// let mut op = e.program(&a)?;
/// assert_eq!(e.inv(&mut op, &[2.0, 4.0])?, vec![-1.0, -1.0]); // −A⁻¹b
/// assert_eq!(e.mvm(&mut op, &[1.0, 1.0])?, vec![-2.0, -4.0]); // −A·x
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct NumericEngine {
    stats: EngineStats,
}

impl NumericEngine {
    /// Creates the engine.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The operand's LU factorization: the one handed over at programming
/// time, or else computed on the first INV and cached in the operand.
fn factorization(operand: &mut Operand) -> Result<&LuFactor> {
    let state = operand.expect_state_mut::<NumericOperand>("numeric")?;
    if state.lu.is_none() {
        state.lu = Some(LuFactor::new(&state.a)?);
    }
    Ok(state.lu.as_ref().expect("factorization was just installed"))
}

impl AmcEngine for NumericEngine {
    fn program(&mut self, a: &Matrix) -> Result<Operand> {
        self.stats.count_program();
        Ok(Operand::new(NumericOperand {
            a: a.clone(),
            lu: None,
        }))
    }

    fn program_factored(&mut self, a: &Matrix, lu: LuFactor) -> Result<Operand> {
        debug_assert_eq!(lu.dim(), a.rows(), "factor of a different matrix");
        self.stats.count_program();
        Ok(Operand::new(NumericOperand {
            a: a.clone(),
            lu: Some(lu),
        }))
    }

    fn inv(&mut self, operand: &mut Operand, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        self.inv_into(operand, b, &mut x)?;
        Ok(x)
    }

    fn inv_into(&mut self, operand: &mut Operand, b: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let lu = factorization(operand)?;
        out.resize(lu.dim(), 0.0);
        lu.solve_into(b, out)?;
        amc_linalg::vector::neg_in_place(out);
        self.stats.count_inv();
        Ok(())
    }

    fn inv_block_into(
        &mut self,
        operand: &mut Operand,
        b: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        check_block(b.len(), k, "numeric inv_block")?;
        let lu = factorization(operand)?;
        out.resize(lu.dim() * k, 0.0);
        lu.solve_block_into(b, k, out)?;
        amc_linalg::vector::neg_in_place(out);
        self.stats.count_invs(k);
        Ok(())
    }

    fn mvm(&mut self, operand: &mut Operand, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = Vec::new();
        self.mvm_into(operand, x, &mut y)?;
        Ok(y)
    }

    fn mvm_into(&mut self, operand: &mut Operand, x: &[f64], out: &mut Vec<f64>) -> Result<()> {
        let state = operand.expect_state_mut::<NumericOperand>("numeric")?;
        out.resize(state.a.rows(), 0.0);
        state.a.matvec_into(x, out)?;
        amc_linalg::vector::neg_in_place(out);
        self.stats.count_mvm();
        Ok(())
    }

    fn mvm_block_into(
        &mut self,
        operand: &mut Operand,
        x: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        check_block(x.len(), k, "numeric mvm_block")?;
        let state = operand.expect_state_mut::<NumericOperand>("numeric")?;
        out.resize(state.a.rows() * k, 0.0);
        state.a.matvec_block_into(x, k, out)?;
        amc_linalg::vector::neg_in_place(out);
        self.stats.count_mvms(k);
        Ok(())
    }

    fn name(&self) -> &'static str {
        "numeric"
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
    use amc_linalg::vector;

    fn sample() -> Matrix {
        Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.5]]).unwrap()
    }

    #[test]
    fn numeric_engine_signs() {
        let mut e = NumericEngine::new();
        let a = sample();
        let mut op = e.program(&a).unwrap();
        let b = [0.5, 0.25];
        let neg_x = e.inv(&mut op, &b).unwrap();
        // A·(−neg_x) = b
        let back = a.matvec(&vector::neg(&neg_x)).unwrap();
        assert!(vector::approx_eq(&back, &b, 1e-12));
        let neg_y = e.mvm(&mut op, &[1.0, 1.0]).unwrap();
        assert!(vector::approx_eq(&neg_y, &[-2.5, -2.0], 1e-12));
    }

    #[test]
    fn numeric_engine_caches_factorization() {
        let mut e = NumericEngine::new();
        let mut op = e.program(&sample()).unwrap();
        let _ = e.inv(&mut op, &[1.0, 0.0]).unwrap();
        let _ = e.inv(&mut op, &[0.0, 1.0]).unwrap();
        assert_eq!(e.stats().inv_ops, 2);
        assert_eq!(e.stats().program_ops, 1);
    }

    #[test]
    fn engine_name() {
        assert_eq!(NumericEngine::new().name(), "numeric");
    }
}
