//! `prepare_churn`: a fresh two-stage prepare plus one solve per
//! operation, on one thread, over a pool of distinct Wishart matrices.
//! Prepare (partition, Schur, programming) does almost all the work.

use std::time::Instant;

use amc_linalg::{generate, Matrix};
use blockamc::solver::{BlockAmcSolver, SolverConfig, Stages};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::{err, mix, repeat_setup, Params, Run};
use crate::measure::Segments;
use crate::{oracle, probe};

/// The tail percentile reported (about 1 100 calls in 20 s: 55 beyond p95).
const TAIL_PERCENTILE: f64 = 95.0;
const N: usize = 512;
/// Distinct matrices; 8 × 2 MiB does not fit the last-level cache.
const POOL: usize = 8;
/// Distinct right-hand sides, prime so that (matrix, rhs) pairs repeat late.
const RHS_POOL: usize = 61;
/// Answers kept for the oracles, taken in operation order.
const RETAIN: usize = 256;

pub fn run(p: &Params) -> Result<Run, String> {
    let (pool, setup_s) = repeat_setup(|| {
        (0..POOL as u64)
            .map(|i| {
                let mut rng = ChaCha8Rng::seed_from_u64(mix(p.seed, i));
                generate::wishart_default(N, &mut rng).map_err(err)
            })
            .collect::<Result<Vec<Matrix>, String>>()
    })?;
    let mut rng = ChaCha8Rng::seed_from_u64(mix(p.seed2, 1));
    let rhs: Vec<Vec<f64>> = (0..RHS_POOL)
        .map(|_| generate::random_vector(N, &mut rng))
        .collect();

    let config = SolverConfig::builder()
        .stages(Stages::Two)
        .capture_trace(false)
        .finish()
        .map_err(err)?;
    // The plain engine in "off" segments, the probed twin in "on" ones.
    let registry = probe::registry();
    let solver = |engine| {
        let built = registry.build(engine, 0).map_err(err)?;
        Ok::<_, String>(BlockAmcSolver::from_config(built, config.clone()))
    };
    let mut solvers = [solver("numeric")?, solver(probe::PROBED_NUMERIC)?];

    let mut run = Run {
        setup_s,
        tail_percentile: TAIL_PERCENTILE,
        ..Run::default()
    };
    let mut kept: Vec<(usize, usize, Vec<f64>)> = Vec::with_capacity(RETAIN);
    let mut window = Segments::new(p.seconds, p.trace, 1);
    let clock = window.clock();
    let mut op = 0usize;
    while window.tick(op as u64) {
        let (m, r) = (op % POOL, op % RHS_POOL);
        let solver = &mut solvers[usize::from(probe::tracing())];
        let start = Instant::now();
        let answer = (|| {
            let mut prepared = probe::timed(&probe::PREPARE, || solver.prepare(&pool[m]))?;
            probe::timed(&probe::SOLVE, || prepared.solve(&rhs[r]))
        })();
        run.latencies
            .record(clock.slice(start), start.elapsed().as_secs_f64());
        match answer {
            Ok(report) if kept.len() < RETAIN => kept.push((m, r, report.x)),
            Ok(_) => {}
            Err(_) => run.failed += 1,
        }
        op += 1;
    }
    probe::set_tracing(false);
    run.window = window.finish();
    run.attempted = op as u64;

    let matrices: Vec<&Matrix> = pool.iter().collect();
    let answers: Vec<(usize, &[f64], &[f64])> = kept
        .iter()
        .map(|(m, r, x)| (*m, rhs[*r].as_slice(), x.as_slice()))
        .collect();
    let (errors, failed) = oracle::check_numeric(&matrices, &answers);
    run.rel_errors = errors;
    run.failed += failed;
    run.notes
        .push(("answers_checked", answers.len().to_string()));
    Ok(run)
}
