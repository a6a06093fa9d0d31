//! Shared experiment harness for the BlockAMC reproduction.
//!
//! The `repro` binary (which regenerates every figure of the paper) runs
//! on the sweep machinery in this crate. All experiments are seeded
//! deterministically: a `(figure, family, size, trial)` tuple always
//! produces the same matrices, input vectors, and variation draws.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use amc_linalg::{generate, lu, metrics, Matrix};
use blockamc::engine::{CircuitEngine, CircuitEngineConfig};
use blockamc::solver::{BlockAmcSolver, Stages};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The two benchmark matrix families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatrixFamily {
    /// Wishart matrices `A = XᵀX/m` (paper eq. 4).
    Wishart,
    /// Random diagonally dominant Toeplitz matrices (paper eq. 5).
    Toeplitz,
    /// Raw (non-symmetric, ill-conditioned) random Toeplitz behind the
    /// seeded condition guard
    /// [`amc_linalg::generate::random_toeplitz_conditioned`] — the
    /// paper's literal eq. 5 family without its occasional
    /// catastrophically conditioned draws.
    ToeplitzRaw,
}

impl MatrixFamily {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            MatrixFamily::Wishart => "Wishart",
            MatrixFamily::Toeplitz => "Toeplitz",
            MatrixFamily::ToeplitzRaw => "raw Toeplitz",
        }
    }
}

/// Condition-estimate ceiling the harness applies to raw Toeplitz draws
/// — the workspace default shared with the scenario registry.
pub const RAW_TOEPLITZ_MAX_COND: f64 = generate::DEFAULT_TOEPLITZ_MAX_COND;

/// Generates one workload instance: a matrix of the family and a random
/// right-hand side.
///
/// # Panics
///
/// Panics if `n == 0` (the generators reject it); harness sizes start
/// at 8.
pub fn make_workload<R: Rng + ?Sized>(
    family: MatrixFamily,
    n: usize,
    rng: &mut R,
) -> (Matrix, Vec<f64>) {
    let a = match family {
        MatrixFamily::Wishart => generate::wishart_default(n, rng).expect("n > 0"),
        // SPD autocorrelation Toeplitz — the paper's cyclic-convolution /
        // DFT context. Conditioning grows with n toward the symbol's
        // max/min ratio, producing the error growth of Fig. 7(b), and SPD
        // eigenvalue interlacing is what lets BlockAMC's half-size blocks
        // beat the full matrix.
        MatrixFamily::Toeplitz => generate::random_spd_toeplitz(n, 8, 0.02, rng).expect("n > 0"),
        // Ill-conditioned but guarded: a seeded resample keeps the
        // condition estimate under RAW_TOEPLITZ_MAX_COND, so sweeps over
        // this family cannot be sunk by a single near-singular draw.
        MatrixFamily::ToeplitzRaw => {
            generate::random_toeplitz_conditioned(n, RAW_TOEPLITZ_MAX_COND, rng).expect("n > 0")
        }
    };
    let b = generate::random_vector(n, rng);
    (a, b)
}

/// The matrix sizes of the paper's sweeps: 8×8 to 512×512.
pub const PAPER_SIZES: [usize; 7] = [8, 16, 32, 64, 128, 256, 512];

/// Reduced sizes for quick runs (`repro --quick`).
pub const QUICK_SIZES: [usize; 4] = [8, 16, 32, 64];

/// Number of Monte-Carlo trials per size in the paper ("40 random
/// simulations were carried out for each matrix size").
pub const PAPER_TRIALS: usize = 40;

/// One measured point of an accuracy sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Matrix size.
    pub n: usize,
    /// Error statistics per compared solver, in the order given to
    /// [`accuracy_sweep`].
    pub stats: Vec<metrics::ErrorStats>,
}

/// A solver variant compared in a sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepSolver {
    /// Column label.
    pub label: &'static str,
    /// Architecture.
    pub stages: Stages,
    /// Analog configuration.
    pub config: CircuitEngineConfig,
}

/// Runs the relative-error metric of one solver on one workload.
///
/// Returns the paper's relative error (eq. 6) of the analog solution
/// against the exact LU reference, or `None` if the solve failed (e.g. a
/// singular Schur complement under extreme variation — counted and
/// reported by the harness rather than aborting the sweep).
pub(crate) fn run_trial(
    a: &Matrix,
    b: &[f64],
    x_ref: &[f64],
    solver: &SweepSolver,
    engine_seed: u64,
) -> Option<f64> {
    let engine = CircuitEngine::new(solver.config, engine_seed);
    let mut facade = BlockAmcSolver::new(engine, solver.stages);
    let report = facade.solve(a, b).ok()?;
    Some(metrics::relative_error(x_ref, &report.x))
}

/// Runs a full accuracy sweep: for every size, `trials` Monte-Carlo
/// repetitions of every solver on the *same* workload draws.
///
/// `base_seed` separates figures from one another.
pub fn accuracy_sweep(
    family: MatrixFamily,
    sizes: &[usize],
    trials: usize,
    solvers: &[SweepSolver],
    base_seed: u64,
) -> Vec<SweepPoint> {
    sizes
        .iter()
        .map(|&n| {
            let mut per_solver: Vec<Vec<f64>> = vec![Vec::new(); solvers.len()];
            for trial in 0..trials {
                let seed = base_seed
                    .wrapping_mul(0x9e37_79b9)
                    .wrapping_add((n as u64) << 20)
                    .wrapping_add(trial as u64);
                let mut rng = ChaCha8Rng::seed_from_u64(seed);
                let (a, b) = make_workload(family, n, &mut rng);
                let Ok(x_ref) = lu::solve(&a, &b) else {
                    continue;
                };
                for (k, solver) in solvers.iter().enumerate() {
                    if let Some(err) =
                        run_trial(&a, &b, &x_ref, solver, seed.wrapping_add(1 + k as u64))
                    {
                        if err.is_finite() {
                            per_solver[k].push(err);
                        }
                    }
                }
            }
            SweepPoint {
                n,
                stats: per_solver
                    .iter()
                    .map(|errs| metrics::ErrorStats::from_samples(errs))
                    .collect(),
            }
        })
        .collect()
}

/// Renders a sweep as an aligned text table (mean ± std per solver).
pub fn render_sweep(title: &str, solvers: &[SweepSolver], points: &[SweepPoint]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    out.push_str(&format!("{:>9}", "size"));
    for s in solvers {
        out.push_str(&format!(" {:>24}", s.label));
    }
    out.push('\n');
    for p in points {
        out.push_str(&format!("{:>4}x{:<4}", p.n, p.n));
        for st in &p.stats {
            // Median first (robust to catastrophically conditioned draws),
            // mean in parentheses for comparison with the paper's curves.
            out.push_str(&format!(" {:>11.4} (mean {:>9.4})", st.median, st.mean));
        }
        out.push('\n');
    }
    out
}

pub mod report;

/// Standard solver pairs used by the figures.
pub mod presets {
    use super::*;

    /// Original AMC vs one-stage BlockAMC at the given analog config.
    pub fn original_vs_one_stage(config: CircuitEngineConfig) -> [SweepSolver; 2] {
        [
            SweepSolver {
                label: "Original AMC",
                stages: Stages::Original,
                config,
            },
            SweepSolver {
                label: "BlockAMC",
                stages: Stages::One,
                config,
            },
        ]
    }

    /// Original AMC vs two-stage BlockAMC.
    pub fn original_vs_two_stage(config: CircuitEngineConfig) -> [SweepSolver; 2] {
        [
            SweepSolver {
                label: "Original AMC",
                stages: Stages::Original,
                config,
            },
            SweepSolver {
                label: "Two-stage BlockAMC",
                stages: Stages::Two,
                config,
            },
        ]
    }

    /// All three architectures.
    pub fn all_three(config: CircuitEngineConfig) -> [SweepSolver; 3] {
        [
            SweepSolver {
                label: "Original AMC",
                stages: Stages::Original,
                config,
            },
            SweepSolver {
                label: "One-stage BlockAMC",
                stages: Stages::One,
                config,
            },
            SweepSolver {
                label: "Two-stage BlockAMC",
                stages: Stages::Two,
                config,
            },
        ]
    }
}

/// Per-step trace comparison for Fig. 6(a): runs the one-stage solver
/// with a numeric engine and an analog engine on the same workload and
/// reports the per-step relative error.
pub fn step_trace_comparison(
    a: &Matrix,
    b: &[f64],
    config: CircuitEngineConfig,
    seed: u64,
) -> blockamc::Result<Vec<(String, f64)>> {
    use blockamc::engine::{AmcEngine, NumericEngine};

    fn trace<E: AmcEngine>(
        engine: E,
        a: &Matrix,
        b: &[f64],
    ) -> blockamc::Result<Vec<blockamc::solver::StepRecord>> {
        let report = BlockAmcSolver::new(engine, Stages::One).solve(a, b)?;
        Ok(report.trace.unwrap_or_default())
    }
    let num = trace(NumericEngine::new(), a, b)?;
    let cir = trace(CircuitEngine::new(config, seed), a, b)?;
    Ok(num
        .iter()
        .zip(&cir)
        .map(|(nrec, crec)| {
            (
                nrec.step.to_string(),
                metrics::relative_error(&nrec.output, &crec.output),
            )
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let mut r1 = ChaCha8Rng::seed_from_u64(1);
        let mut r2 = ChaCha8Rng::seed_from_u64(1);
        let (a1, b1) = make_workload(MatrixFamily::Wishart, 8, &mut r1);
        let (a2, b2) = make_workload(MatrixFamily::Wishart, 8, &mut r2);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        let (t, _) = make_workload(MatrixFamily::Toeplitz, 8, &mut r1);
        // SPD autocorrelation Toeplitz: symmetric, constant diagonals, and
        // the diagonal (the lag-0 autocorrelation plus ridge) dominates
        // every other lag.
        assert_eq!(t[(1, 1)], t[(0, 0)]);
        assert!(t.is_symmetric(0.0));
        assert!(t[(0, 0)] >= t.max_abs() * 0.999);
    }

    #[test]
    fn raw_toeplitz_workloads_are_guarded_and_deterministic() {
        use amc_linalg::lu::LuFactor;
        let mut r1 = ChaCha8Rng::seed_from_u64(2);
        let mut r2 = ChaCha8Rng::seed_from_u64(2);
        let (a1, b1) = make_workload(MatrixFamily::ToeplitzRaw, 16, &mut r1);
        let (a2, b2) = make_workload(MatrixFamily::ToeplitzRaw, 16, &mut r2);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        let cond = LuFactor::new(&a1).unwrap().cond_estimate(a1.norm_one());
        assert!(cond <= RAW_TOEPLITZ_MAX_COND, "cond={cond}");
        assert_eq!(MatrixFamily::ToeplitzRaw.label(), "raw Toeplitz");
    }

    #[test]
    fn sweep_produces_stats_for_each_solver() {
        let solvers = presets::original_vs_one_stage(CircuitEngineConfig::paper_variation());
        let points = accuracy_sweep(MatrixFamily::Wishart, &[8, 16], 3, &solvers, 42);
        assert_eq!(points.len(), 2);
        for p in &points {
            assert_eq!(p.stats.len(), 2);
            for s in &p.stats {
                assert_eq!(s.count, 3);
                assert!(s.mean > 0.0);
            }
        }
    }

    #[test]
    fn sweep_is_reproducible() {
        let solvers = presets::original_vs_one_stage(CircuitEngineConfig::paper_variation());
        let a = accuracy_sweep(MatrixFamily::Toeplitz, &[8], 2, &solvers, 7);
        let b = accuracy_sweep(MatrixFamily::Toeplitz, &[8], 2, &solvers, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn render_contains_labels_and_sizes() {
        let solvers = presets::all_three(CircuitEngineConfig::paper_variation());
        let points = accuracy_sweep(MatrixFamily::Wishart, &[8], 2, &solvers, 3);
        let text = render_sweep("test table", &solvers, &points);
        assert!(text.contains("test table"));
        assert!(text.contains("Original AMC"));
        assert!(text.contains("Two-stage BlockAMC"));
        assert!(text.contains("8x8"));
    }

    #[test]
    fn step_trace_has_five_steps_under_finite_gain() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let (a, b) = make_workload(MatrixFamily::Wishart, 8, &mut rng);
        let steps = step_trace_comparison(&a, &b, CircuitEngineConfig::ideal_mapping(), 1).unwrap();
        assert_eq!(steps.len(), 5);
        for (name, err) in &steps {
            assert!(err.is_finite(), "{name} err={err}");
        }
    }
}
