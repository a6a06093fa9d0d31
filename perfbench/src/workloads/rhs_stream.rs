//! `rhs_stream`: one two-stage solver prepared during set-up, then
//! batches of right-hand sides through `SolverReplica::solve_batch_parallel`
//! at two workers. Triangular solves, matvecs, cascade glue and the
//! per-call replica clone do all the work; prepare does none.

use std::time::Instant;

use amc_linalg::{generate, Matrix};
use blockamc::solver::{BlockAmcSolver, SolverConfig, Stages};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use super::{err, mix, repeat_setup, Params, Run};
use crate::measure::{ratio, Segments};
use crate::{oracle, probe};

/// The tail percentile reported (about 9 600 calls in 20 s: 48 beyond p99.5).
const TAIL_PERCENTILE: f64 = 99.5;
const N: usize = 512;
const BATCH: usize = 32;
const WORKERS: usize = 2;
/// Distinct batches; the first `BATCHES` results are kept for the oracles.
const BATCHES: usize = 32;

pub fn run(p: &Params) -> Result<Run, String> {
    let config = SolverConfig::builder()
        .stages(Stages::Two)
        .capture_trace(false)
        .finish()
        .map_err(err)?;
    let registry = probe::registry();
    let prepare = |a: &Matrix, engine| {
        let engine = registry.build(engine, 0).map_err(err)?;
        let mut solver = BlockAmcSolver::from_config(engine, config.clone());
        let mut replica = solver.prepare(a).map_err(err)?.replicate(1).remove(0);
        // The numeric engine factorises lazily on the first INV; do it
        // here so that every clone in the window inherits the factors.
        replica.solve(&vec![1.0; N]).map_err(err)?;
        Ok::<_, String>(replica)
    };
    let ((a, mut plain), setup_s) = repeat_setup(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(mix(p.seed, 0));
        let a = generate::wishart_default(N, &mut rng).map_err(err)?;
        let replica = prepare(&a, "numeric")?;
        Ok((a, replica))
    })?;
    // The traced run's "on" segments solve through the probed twin.
    let mut probed = p
        .trace
        .then(|| prepare(&a, probe::PROBED_NUMERIC))
        .transpose()?;
    let mut rng = ChaCha8Rng::seed_from_u64(mix(p.seed2, 2));
    let batches: Vec<Vec<Vec<f64>>> = (0..BATCHES)
        .map(|_| {
            (0..BATCH)
                .map(|_| generate::random_vector(N, &mut rng))
                .collect()
        })
        .collect();

    let mut run = Run {
        setup_s,
        tail_percentile: TAIL_PERCENTILE,
        ..Run::default()
    };
    let mut kept: Vec<Vec<Vec<f64>>> = Vec::with_capacity(BATCHES);
    let mut window = Segments::new(p.seconds, p.trace, 1);
    let clock = window.clock();
    let mut calls = 0usize;
    while window.tick((calls * BATCH) as u64) {
        let batch = &batches[calls % BATCHES];
        let replica = match &mut probed {
            Some(probed) if probe::tracing() => probed,
            _ => &mut plain,
        };
        let start = Instant::now();
        let answer = probe::timed(&probe::BATCH, || {
            replica.solve_batch_parallel(batch, WORKERS)
        });
        run.latencies
            .record(clock.slice(start), start.elapsed().as_secs_f64());
        match answer {
            Ok(xs) if kept.len() < BATCHES => kept.push(xs),
            Ok(_) => {}
            Err(_) => run.failed += BATCH as u64,
        }
        calls += 1;
    }
    probe::set_tracing(false);
    run.window = window.finish();
    run.attempted = (calls * BATCH) as u64;

    let answers: Vec<(usize, &[f64], &[f64])> = kept
        .iter()
        .zip(&batches)
        .flat_map(|(xs, bs)| xs.iter().zip(bs))
        .map(|(x, b)| (0, b.as_slice(), x.as_slice()))
        .collect();
    let matrices: [&Matrix; 1] = [&a];
    let (errors, failed) = oracle::check_numeric(&matrices, &answers);
    run.rel_errors = errors;
    run.failed += failed;
    run.notes
        .push(("answers_checked", answers.len().to_string()));

    let batch = probe::BATCH.read();
    let workers = WORKERS as f64;
    run.layers = vec![
        ("batch.busy_ms", batch.busy_per_call(1e-3)),
        ("batch.self_ms", batch.self_per_call(1e-3, workers)),
        (
            "batch.worker_util",
            ratio(batch.inner_ns as f64, batch.busy_ns as f64) / workers,
        ),
    ];
    Ok(run)
}
