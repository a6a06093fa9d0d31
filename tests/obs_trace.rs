//! The observability contract, end to end: tracing **on** is
//! bit-identical to tracing **off** — for single solves, parallel
//! batches at 1/2/4 workers, and whole campaigns — on both the numeric
//! and circuit engines. Spans and metrics are strictly read-only
//! observers; these tests are the proof the `amc-obs` docs point at.

use amc_linalg::{generate, Matrix};
use amc_obs::{Recorder, TraceSession};
use blockamc::engine::{AmcEngine, CircuitEngine, CircuitEngineConfig, NumericEngine};
use blockamc::solver::{BlockAmcSolver, Stages};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Exact bit pattern of a solution set — the comparison currency of
/// every test here (no tolerances: identical means identical).
fn bits(xs: &[Vec<f64>]) -> Vec<Vec<u64>> {
    xs.iter()
        .map(|x| x.iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// One `run_stack` input, drawn from `seed`: an `n×n` matrix from
/// `matrix`, one RHS, then `batch` copies of it scaled `step` apart.
#[derive(Clone, Copy)]
struct Workload {
    matrix: fn(usize, &mut ChaCha8Rng) -> Matrix,
    seed: u64,
    n: usize,
    batch: usize,
    step: f64,
}

/// The default workload of these tests: a diagonally dominant system
/// with 6 RHS scaled 10% apart.
fn dominant(seed: u64, n: usize) -> Workload {
    Workload {
        matrix: |n, rng| generate::diagonally_dominant(n, 1.0, rng).unwrap(),
        seed,
        n,
        batch: 6,
        step: 0.1,
    }
}

/// One prepare + solve + parallel batch under `recorder`, returning
/// the solution bits.
fn run_stack<E: AmcEngine + Clone + Send>(
    engine: E,
    workload: Workload,
    workers: usize,
    recorder: Recorder,
) -> Vec<Vec<u64>> {
    let (n, step) = (workload.n, workload.step);
    let mut rng = ChaCha8Rng::seed_from_u64(workload.seed);
    let a = (workload.matrix)(n, &mut rng);
    let b = generate::random_vector(n, &mut rng);
    let batch: Vec<Vec<f64>> = (0..workload.batch)
        .map(|i| b.iter().map(|v| v * (1.0 + i as f64 * step)).collect())
        .collect();
    let mut solver = BlockAmcSolver::new(engine, Stages::Two);
    solver.set_recorder(recorder);
    let mut prepared = solver.prepare(&a).expect("prepare");
    let x = prepared.solve(&b).expect("solve").x;
    let mut replica = prepared.replicate(1).remove(0);
    let xs = replica
        .solve_batch_parallel(&batch, workers)
        .expect("batch");
    let mut all = vec![x];
    all.extend(xs);
    bits(&all)
}

#[test]
fn tracing_is_bit_identical_on_numeric_engine_at_any_worker_count() {
    let workload = dominant(11, 24);
    let reference = run_stack(NumericEngine::new(), workload, 1, Recorder::disabled());
    for workers in [1usize, 2, 4] {
        let session = TraceSession::new();
        let traced = run_stack(NumericEngine::new(), workload, workers, session.recorder());
        assert_eq!(traced, reference, "numeric, {workers} worker(s)");
        let trace = session.drain();
        assert!(
            !trace.events().is_empty(),
            "the traced run must actually have recorded spans"
        );
        // The replica's parallel batch is the path serve drives; it must
        // show up as a `batch` span at every worker count.
        assert!(
            trace.events().iter().any(|e| e.name == "batch"),
            "no batch span at {workers} worker(s)"
        );
    }
}

#[test]
fn tracing_is_bit_identical_on_circuit_engine_at_any_worker_count() {
    // The second case is the run `repro --quick trace` exports.
    let trace_export = Workload {
        matrix: |n, rng| generate::wishart_default(n, rng).unwrap(),
        seed: 7,
        n: 64,
        batch: 8,
        step: 0.01,
    };
    for (workload, engine_seed) in [(dominant(13, 24), 0xC0FFEE), (trace_export, 7)] {
        let engine = || CircuitEngine::new(CircuitEngineConfig::paper_variation(), engine_seed);
        let reference = run_stack(engine(), workload, 1, Recorder::disabled());
        for workers in [1usize, 2, 4] {
            let session = TraceSession::new();
            let traced = run_stack(engine(), workload, workers, session.recorder());
            let n = workload.n;
            assert_eq!(traced, reference, "circuit, n={n}, {workers} worker(s)");
            let trace = session.drain();
            assert!(trace.events().iter().any(|e| e.name == "engine.inv"));
            assert_eq!(trace.dropped(), 0);
        }
    }
}

#[test]
fn tracing_is_invisible_to_campaign_reports() {
    use amc_scenario::campaign::run_worker_sweep;
    use amc_scenario::campaigns;

    // The campaign path never sees a recorder handle (its workers build
    // their own solvers), so this pins the weaker-but-load-bearing
    // claim: campaign reports are bit-identical across worker counts
    // with the instrumented solver stack underneath, and the derived
    // metrics snapshot is too.
    let campaign = campaigns::worker_scaling(true).expect("campaign");
    let sweep = run_worker_sweep(&campaign, &[1, 2, 4]).expect("sweep");
    assert!(sweep.bit_identical, "campaign must not depend on workers");
    assert_eq!(
        sweep.report.metrics(),
        campaign.run_with_workers(4).expect("campaign").metrics(),
        "derived metrics are a pure function of the report"
    );
    assert!(sweep.report.metrics().counter("campaign.cells") > 0);
}

#[test]
fn traced_serve_responses_match_untraced_serve() {
    use amc_serve::client::Client;
    use amc_serve::server::{Server, ServerConfig};
    use amc_serve::wire::{EngineRef, MatrixRef};

    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let a = generate::diagonally_dominant(16, 1.0, &mut rng).unwrap();
    let b = generate::random_vector(16, &mut rng);
    let config = blockamc::solver::SolverConfig::builder()
        .stages(Stages::One)
        .finish()
        .unwrap();
    let engine = EngineRef::new("numeric", 0);

    let solve_once = |trace: Option<TraceSession>| -> Vec<u64> {
        let server = Server::with_builtin_engines(ServerConfig {
            trace,
            ..ServerConfig::default()
        });
        let mut client = Client::new(server.loopback());
        let x = client
            .solve(MatrixRef::Inline(a.clone()), &config, &engine, &b)
            .expect("served solve");
        server.shutdown();
        drop(client); // closes the loopback, letting the connection loop exit
        server.join_connections();
        x.iter().map(|v| v.to_bits()).collect()
    };

    let untraced = solve_once(None);
    let session = TraceSession::new();
    let traced = solve_once(Some(session.clone()));
    assert_eq!(traced, untraced, "serve path must be trace-invariant");
    let trace = session.drain();
    for required in [
        "serve.decode",
        "serve.lookup",
        "serve.wait",
        "serve.dispatch",
        "serve.encode",
    ] {
        assert!(
            trace.events().iter().any(|e| e.name == required),
            "missing span {required}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The property form: any seed, any size, any worker count — the
    /// recorded run returns the exact bits of the unrecorded run.
    #[test]
    fn tracing_never_changes_solutions(
        seed in any::<u64>(),
        n in 8usize..=28,
        workers in 1usize..=4,
    ) {
        let reference = run_stack(NumericEngine::new(), dominant(seed, n), 1, Recorder::disabled());
        let session = TraceSession::new();
        let traced = run_stack(NumericEngine::new(), dominant(seed, n), workers, session.recorder());
        prop_assert_eq!(traced, reference);
    }
}
