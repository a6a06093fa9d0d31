//! Monte-Carlo yield analysis.
//!
//! The paper's accuracy figures are 40-trial Monte-Carlo averages. For a
//! hardware designer the more actionable statistic is *yield*: across
//! device-variation draws (i.e. across manufactured parts), what fraction
//! of solvers meets an accuracy specification? This module runs that
//! analysis for any facade [`SolverConfig`] — architecture, per-level
//! signal plan, and split rule included.
//!
//! Every trial runs through the [`crate::solver`] facade and therefore
//! the one recursive cascade core (`crate::multi_stage`), so yield
//! differences measured here isolate array count, size, and signal
//! path — not implementation drift.

use amc_linalg::{lu, metrics, Matrix};

use crate::engine::EngineSpec;
use crate::solver::{BlockAmcSolver, SolverConfig};
use crate::{BlockAmcError, Result};

/// Result of a yield run.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldReport {
    /// Number of variation draws simulated.
    pub trials: usize,
    /// Draws whose solve completed (no singular operating point).
    pub completed: usize,
    /// Draws meeting the accuracy specification.
    pub passing: usize,
    /// The accuracy specification (paper eq. 6 relative error).
    pub spec: f64,
    /// Error statistics over the completed draws.
    pub errors: metrics::ErrorStats,
}

impl YieldReport {
    /// Fraction of draws meeting the spec (completed and accurate).
    pub fn yield_fraction(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.passing as f64 / self.trials as f64
        }
    }
}

/// Runs `trials` independent variation draws of one solver
/// configuration on a fixed workload and reports the pass fraction
/// against `spec`.
///
/// The backend is selected as data: each trial builds a fresh engine —
/// a new "manufactured part" — from `engine` ([`EngineSpec::build`])
/// with the seed `engine_seed + trial`, and the whole cascade runs
/// through the resulting `Box<dyn AmcEngine>`. Trials run in trial
/// order, so results are reproducible. (Digital backends draw nothing,
/// so their "yield" is simply whether the deterministic error meets the
/// spec.)
///
/// Configuration validation and the reference solution are hoisted out
/// of the trial loop: each trial pays for what a new manufactured part
/// pays for — partitioning, programming its arrays and running the
/// cascade.
///
/// # Errors
///
/// * [`BlockAmcError::InvalidConfig`] if `trials == 0`, `spec` is not
///   positive, `solver` is invalid for the workload size, or `engine`
///   cannot be built (checked once up front — a misconfigured spec
///   fails loudly instead of reporting 0% yield).
/// * Propagates reference-solution failures (a singular workload matrix).
///   Per-trial analog failures are *counted*, not propagated.
pub fn yield_analysis(
    a: &Matrix,
    b: &[f64],
    solver: &SolverConfig,
    engine: &EngineSpec,
    spec: f64,
    trials: usize,
    engine_seed: u64,
) -> Result<YieldReport> {
    if trials == 0 {
        return Err(BlockAmcError::config(
            "yield analysis needs at least 1 trial",
        ));
    }
    if !(spec > 0.0 && spec.is_finite()) {
        return Err(BlockAmcError::config("spec must be positive and finite"));
    }
    if b.len() != a.rows() {
        return Err(BlockAmcError::ShapeMismatch {
            op: "yield_analysis",
            expected: a.rows(),
            got: b.len(),
        });
    }
    solver.validate_for_size(a.rows())?;
    // An unbuildable spec (zero panel width, out-of-range bits) is a
    // configuration error, not N failed trials: surface it up front
    // instead of letting every trial swallow it into a 0% yield.
    drop(engine.build(engine_seed)?);
    let x_ref = lu::solve(a, b)?;
    // Trials only need the solution, so trace capture is off.
    let config = SolverConfig::builder()
        .stages(solver.stages())
        .signal_plan(solver.signal_plan().clone())
        .split_rule(solver.split_rule())
        .capture_trace(false)
        .finish()?;
    let run_trial = |t: usize| -> Option<f64> {
        let engine = engine.build(engine_seed.wrapping_add(t as u64)).ok()?;
        let mut part = BlockAmcSolver::from_config(engine, config.clone());
        let x = part.prepare(a).ok()?.solve(b).ok()?.x;
        let err = metrics::relative_error(&x_ref, &x);
        err.is_finite().then_some(err)
    };
    let errors: Vec<f64> = (0..trials).filter_map(run_trial).collect();
    let passing = errors.iter().filter(|&&e| e <= spec).count();
    Ok(YieldReport {
        trials,
        completed: errors.len(),
        passing,
        spec,
        errors: metrics::ErrorStats::from_samples(&errors),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CircuitEngineConfig;
    use crate::solver::Stages;
    use amc_linalg::generate;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn workload(n: usize) -> (Matrix, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let a = generate::wishart_default(n, &mut rng).unwrap();
        let b = generate::random_vector(n, &mut rng);
        (a, b)
    }

    fn one_stage() -> SolverConfig {
        SolverConfig::builder()
            .stages(Stages::One)
            .finish()
            .unwrap()
    }

    #[test]
    fn ideal_stack_yields_100_percent() {
        let (a, b) = workload(12);
        let r = yield_analysis(
            &a,
            &b,
            &one_stage(),
            &EngineSpec::Circuit(CircuitEngineConfig::ideal()),
            1e-6,
            5,
            0,
        )
        .unwrap();
        assert_eq!(r.passing, 5);
        assert_eq!(r.completed, 5);
        assert!((r.yield_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tight_spec_fails_noisy_parts() {
        let (a, b) = workload(16);
        let r = yield_analysis(
            &a,
            &b,
            &one_stage(),
            &EngineSpec::Circuit(CircuitEngineConfig::paper_variation()),
            1e-6, // far below the 5%-variation error floor
            6,
            0,
        )
        .unwrap();
        assert_eq!(r.passing, 0);
        assert!(r.errors.mean > 1e-3);
    }

    #[test]
    fn loose_spec_passes_noisy_parts() {
        let (a, b) = workload(16);
        let r = yield_analysis(
            &a,
            &b,
            &one_stage(),
            &EngineSpec::Circuit(CircuitEngineConfig::paper_variation()),
            0.5,
            6,
            0,
        )
        .unwrap();
        assert!(r.yield_fraction() > 0.5, "yield {}", r.yield_fraction());
    }

    #[test]
    fn yield_is_monotone_in_spec() {
        let (a, b) = workload(16);
        let run = |spec: f64| {
            yield_analysis(
                &a,
                &b,
                &one_stage(),
                &EngineSpec::Circuit(CircuitEngineConfig::paper_variation()),
                spec,
                8,
                3,
            )
            .unwrap()
            .passing
        };
        let loose = run(0.5);
        let mid = run(0.08);
        let tight = run(0.001);
        assert!(loose >= mid && mid >= tight, "{loose} >= {mid} >= {tight}");
    }

    #[test]
    fn validation() {
        let (a, b) = workload(8);
        assert!(yield_analysis(
            &a,
            &b,
            &one_stage(),
            &EngineSpec::Circuit(CircuitEngineConfig::ideal()),
            0.1,
            0,
            0
        )
        .is_err());
        assert!(yield_analysis(
            &a,
            &b,
            &one_stage(),
            &EngineSpec::Circuit(CircuitEngineConfig::ideal()),
            0.0,
            3,
            0
        )
        .is_err());
        // An unbuildable engine spec is a loud error, not a 0% yield.
        assert!(yield_analysis(
            &a,
            &b,
            &one_stage(),
            &EngineSpec::FixedPoint { bits: 60 },
            0.1,
            3,
            0
        )
        .is_err());
        // An invalid solver config is rejected before any trial runs.
        let bad = SolverConfig::builder()
            .stages(Stages::Multi(5))
            .finish()
            .unwrap();
        assert!(
            yield_analysis(
                &a,
                &b,
                &bad,
                &EngineSpec::Circuit(CircuitEngineConfig::ideal()),
                0.1,
                3,
                0
            )
            .is_err(),
            "depth 5 must be rejected on an 8x8 workload"
        );
    }

    #[test]
    fn reproducible_with_same_seed() {
        let (a, b) = workload(12);
        let run = || {
            yield_analysis(
                &a,
                &b,
                &one_stage(),
                &EngineSpec::Circuit(CircuitEngineConfig::paper_variation()),
                0.1,
                4,
                9,
            )
            .unwrap()
        };
        assert_eq!(run(), run());
    }
}
