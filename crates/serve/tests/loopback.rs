//! Integration tests of the full served path over in-process loopback
//! transports (plus one TCP smoke test): protocol, cache behavior,
//! coalescing, backpressure, and clean shutdown.

use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use amc_linalg::lu::LuFactor;
use amc_linalg::Matrix;
use amc_serve::client::Client;
use amc_serve::loadgen::{workload_matrix, workload_rhs};
use amc_serve::server::{ServeAging, Server, ServerConfig};
use amc_serve::wire::{EngineRef, MatrixRef, Request, Response};
use amc_serve::ServeError;
use blockamc::aging::{AgingModel, DriftModel};
use blockamc::engine::{
    AmcEngine, EngineRegistry, EngineStats, NumericEngine, Operand, OperandState,
};
use blockamc::solver::{BlockAmcSolver, SolverConfig};
use blockamc::BlockAmcError;

fn quiet_config() -> SolverConfig {
    SolverConfig::builder()
        .capture_trace(false)
        .finish()
        .unwrap()
}

/// Aging so aggressive that a cached solver fails its health probe one
/// tick (= one dispatch round) after preparation.
fn fast_aging() -> ServeAging {
    ServeAging {
        model: AgingModel {
            drift: DriftModel {
                nu: 0.05,
                nu_sigma: 0.01,
                t0_s: 1.0,
            },
            tick_s: 100.0,
            ..AgingModel::typical_rram()
        },
        max_residual: 1e-6,
        seed: 17,
    }
}

#[test]
fn prepare_solve_evict_stats_lifecycle() {
    let server = Server::with_builtin_engines(ServerConfig::default());
    let mut client = Client::new(server.loopback());
    let config = quiet_config();
    let engine = EngineRef::new("numeric", 0);
    let a = workload_matrix(8, 1);

    let (fp, hit) = client.prepare(&a, &config, &engine).unwrap();
    assert_eq!(fp, a.fingerprint());
    assert!(!hit);
    // Preparing again is a pure cache hit.
    let (fp2, hit2) = client.prepare(&a, &config, &engine).unwrap();
    assert_eq!((fp2, hit2), (fp, true));

    let rhs = workload_rhs(8, 1, 0);
    let x = client
        .solve(MatrixRef::Cached(fp), &config, &engine, &rhs)
        .unwrap();
    assert_eq!(x.len(), 8);

    let stats = client.stats().unwrap();
    assert_eq!(stats.entries, 1);
    assert_eq!(stats.insertions, 1);
    assert!(stats.hits >= 2, "prepare-hit + solve-hit, got {stats:?}");
    assert_eq!(stats.solved_rhs, 1);

    assert!(client.evict(fp, &config, &engine).unwrap());
    assert!(!client.evict(fp, &config, &engine).unwrap());
    // Solving by fingerprint after eviction is NotPrepared.
    let err = client
        .solve(MatrixRef::Cached(fp), &config, &engine, &rhs)
        .unwrap_err();
    assert!(matches!(err, ServeError::NotPrepared { fingerprint } if fingerprint == fp));

    client.shutdown().unwrap();
    server.shutdown();
}

#[test]
fn metrics_registry_mirrors_stats_and_cache_counters() {
    let server = Server::with_builtin_engines(ServerConfig::default());
    let mut client = Client::new(server.loopback());
    let config = quiet_config();
    let engine = EngineRef::new("numeric", 0);
    let a = workload_matrix(8, 9);

    let (fp, _) = client.prepare(&a, &config, &engine).unwrap();
    for k in 0..3 {
        client
            .solve(
                MatrixRef::Cached(fp),
                &config,
                &engine,
                &workload_rhs(8, 9, k),
            )
            .unwrap();
    }

    let stats = client.stats().unwrap();
    let snap = server.metrics();
    // The registry is the same data the wire-level stats report, plus
    // the cache counters mirrored under their own names.
    assert_eq!(snap.counter("serve.requests"), stats.requests);
    assert_eq!(snap.counter("serve.solved_rhs"), stats.solved_rhs);
    assert_eq!(
        snap.counter("serve.dispatch_batches"),
        stats.dispatch_batches
    );
    assert_eq!(snap.counter("cache.hits"), stats.hits);
    assert_eq!(snap.counter("cache.misses"), stats.misses);
    assert_eq!(snap.counter("cache.insertions"), stats.insertions);
    assert_eq!(snap.counter("serve.busy_rejections"), 0);
    // Dispatch latency histogram saw exactly the solved batches.
    match snap.get("serve.dispatch_us") {
        Some(amc_obs::MetricValue::Histogram(h)) => {
            assert_eq!(h.count, stats.dispatch_batches);
        }
        other => panic!("serve.dispatch_us missing or mistyped: {other:?}"),
    }
    server.shutdown();
}

#[test]
fn inline_solve_prepares_on_first_sight() {
    let server = Server::with_builtin_engines(ServerConfig::default());
    let mut client = Client::new(server.loopback());
    let config = quiet_config();
    let engine = EngineRef::new("numeric", 0);
    let a = workload_matrix(8, 2);
    let rhs = workload_rhs(8, 2, 0);

    let x1 = client
        .solve(MatrixRef::Inline(a.clone()), &config, &engine, &rhs)
        .unwrap();
    // Second inline solve of the same matrix hits the cache.
    let x2 = client
        .solve(MatrixRef::Inline(a.clone()), &config, &engine, &rhs)
        .unwrap();
    assert_eq!(x1, x2);
    let stats = client.stats().unwrap();
    assert_eq!(stats.insertions, 1, "one prepare for two inline solves");
    assert!(stats.hits >= 1);
    server.shutdown();
}

#[test]
fn batch_solutions_come_back_in_order_and_match_singles() {
    let server = Server::with_builtin_engines(ServerConfig::default());
    let mut client = Client::new(server.loopback());
    let config = quiet_config();
    let engine = EngineRef::new("numeric", 3);
    let a = workload_matrix(12, 3);
    let (fp, _) = client.prepare(&a, &config, &engine).unwrap();

    let batch: Vec<Vec<f64>> = (0..5).map(|k| workload_rhs(12, 3, k)).collect();
    let xs = client
        .solve_batch(MatrixRef::Cached(fp), &config, &engine, batch.clone())
        .unwrap();
    assert_eq!(xs.len(), 5);
    for (k, rhs) in batch.iter().enumerate() {
        let single = client
            .solve(MatrixRef::Cached(fp), &config, &engine, rhs)
            .unwrap();
        assert_eq!(xs[k], single, "batch entry {k} diverged from single solve");
    }
    server.shutdown();
}

#[test]
fn distinct_engines_and_seeds_are_distinct_cache_entries() {
    let server = Server::with_builtin_engines(ServerConfig::default());
    let mut client = Client::new(server.loopback());
    let config = quiet_config();
    let a = workload_matrix(8, 4);

    client
        .prepare(&a, &config, &EngineRef::new("numeric", 0))
        .unwrap();
    client
        .prepare(&a, &config, &EngineRef::new("circuit", 0))
        .unwrap();
    client
        .prepare(&a, &config, &EngineRef::new("circuit", 1))
        .unwrap();
    assert_eq!(client.stats().unwrap().entries, 3);

    // Same key with same circuit seed is deterministic: bit-identical
    // results across evict + re-prepare.
    let engine = EngineRef::new("circuit", 0);
    let fp = a.fingerprint();
    let rhs = workload_rhs(8, 4, 0);
    let x1 = client
        .solve(MatrixRef::Cached(fp), &config, &engine, &rhs)
        .unwrap();
    client.evict(fp, &config, &engine).unwrap();
    client.prepare(&a, &config, &engine).unwrap();
    let x2 = client
        .solve(MatrixRef::Cached(fp), &config, &engine, &rhs)
        .unwrap();
    assert_eq!(x1, x2, "registry build from a seed must replay bitwise");
    server.shutdown();
}

#[test]
fn unknown_engine_and_bad_matrix_are_remote_errors() {
    let server = Server::with_builtin_engines(ServerConfig::default());
    let mut client = Client::new(server.loopback());
    let config = quiet_config();
    let a = workload_matrix(8, 5);

    let err = client
        .prepare(&a, &config, &EngineRef::new("warp-drive", 0))
        .unwrap_err();
    assert!(matches!(err, ServeError::Remote(_)), "{err}");

    // Non-square inline matrix: rejected by prepare, not a panic.
    let rect = Matrix::from_vec(2, 3, vec![0.0; 6]).unwrap();
    let err = client
        .solve(
            MatrixRef::Inline(rect),
            &config,
            &EngineRef::new("numeric", 0),
            &[1.0, 2.0],
        )
        .unwrap_err();
    assert!(matches!(err, ServeError::Remote(_)), "{err}");
    server.shutdown();
}

#[test]
fn lfu_cache_capacity_is_respected_under_request_churn() {
    let server = Server::with_builtin_engines(ServerConfig {
        cache_capacity: 2,
        ..ServerConfig::default()
    });
    let mut client = Client::new(server.loopback());
    let config = quiet_config();
    let engine = EngineRef::new("numeric", 0);

    for seed in 0..5 {
        client
            .prepare(&workload_matrix(8, seed), &config, &engine)
            .unwrap();
        assert!(client.stats().unwrap().entries <= 2);
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.entries, 2);
    assert_eq!(stats.insertions, 5);
    assert_eq!(stats.evictions, 3);
    server.shutdown();
}

#[test]
fn saturated_queue_returns_busy_instead_of_hanging() {
    // solver_workers: 0 is the documented accept-only mode — jobs
    // queue but never drain, so the queue's fill level is fully
    // deterministic: no race against a draining worker.
    let server = Server::with_builtin_engines(ServerConfig {
        solver_workers: 0,
        queue_capacity: 3,
        ..ServerConfig::default()
    });
    let config = quiet_config();
    let engine = EngineRef::new("numeric", 0);
    let a = workload_matrix(8, 6);
    let mut setup = Client::new(server.loopback());
    let (fp, _) = setup.prepare(&a, &config, &engine).unwrap();

    // Fill the queue exactly to capacity with blocking solves.
    let fillers: Vec<_> = (0..3)
        .map(|k| {
            let transport = server.loopback();
            let config = config.clone();
            let engine = engine.clone();
            std::thread::spawn(move || {
                let mut client = Client::new(transport);
                let rhs = workload_rhs(8, 6, k);
                client.solve(MatrixRef::Cached(fp), &config, &engine, &rhs)
            })
        })
        .collect();
    // Wait until all three right-hand sides are queued — with no
    // workers the fill level only rises, so this is deterministic.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while server.queued_rhs() < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "fillers never queued their solves"
        );
        std::thread::sleep(std::time::Duration::from_millis(2));
    }

    // The fourth RHS must be rejected with Busy — immediately, not
    // after a timeout, and without being queued.
    let rhs = workload_rhs(8, 6, 99);
    let err = setup
        .solve(MatrixRef::Cached(fp), &config, &engine, &rhs)
        .unwrap_err();
    assert!(matches!(err, ServeError::Busy), "{err}");
    assert_eq!(
        server.queued_rhs(),
        3,
        "the rejected request was not queued"
    );
    assert_eq!(
        server.metrics().counter("serve.busy_rejections"),
        1,
        "the rejection must land in the metrics registry"
    );

    // Shutdown drains the queued jobs with errors: the blocked filler
    // clients unblock instead of hanging forever.
    server.shutdown();
    for filler in fillers {
        let result = filler.join().unwrap();
        assert!(
            matches!(result, Err(ServeError::Closed)),
            "filler should unblock with Closed, got {result:?}"
        );
    }
}

#[test]
fn concurrent_same_key_requests_coalesce_into_shared_batches() {
    // One slow-ish dispatcher + many concurrent clients on one key:
    // while the first batch solves, the rest pile up and must ship as
    // shared batches (coalescing factor > 1), bit-identical to serial.
    let server = Server::with_builtin_engines(ServerConfig {
        solver_workers: 1,
        queue_capacity: 1024,
        ..ServerConfig::default()
    });
    let config = quiet_config();
    let engine = EngineRef::new("numeric", 0);
    let n = 48;
    let a = workload_matrix(n, 7);
    let mut setup = Client::new(server.loopback());
    let (fp, _) = setup.prepare(&a, &config, &engine).unwrap();

    let clients = 8;
    let per_client = 6;
    let results: Vec<Vec<(u64, Vec<f64>)>> = std::thread::scope(|scope| {
        (0..clients)
            .map(|c| {
                let transport = server.loopback();
                let config = &config;
                let engine = &engine;
                scope.spawn(move || {
                    let mut client = Client::new(transport);
                    (0..per_client)
                        .map(|k| {
                            let id = (c * per_client + k) as u64;
                            let rhs = workload_rhs(n, 7, id);
                            let x = client
                                .solve(MatrixRef::Cached(fp), config, engine, &rhs)
                                .unwrap();
                            (id, x)
                        })
                        .collect()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });

    let stats = server.stats();
    assert_eq!(stats.solved_rhs, (clients * per_client) as u64);
    assert!(
        stats.dispatch_batches < stats.coalesced_requests,
        "expected coalescing: {} batches for {} requests",
        stats.dispatch_batches,
        stats.coalesced_requests
    );

    // Every solution is bit-identical to a direct serial solve.
    let mut direct = Client::new(server.loopback());
    for (id, x) in results.into_iter().flatten() {
        let expected = direct
            .solve(
                MatrixRef::Cached(fp),
                &config,
                &engine,
                &workload_rhs(n, 7, id),
            )
            .unwrap();
        assert_eq!(x, expected, "request {id}");
    }
    server.shutdown();
}

#[test]
fn hostile_requests_fail_alone_and_leave_coalesced_peers_intact() {
    // The coalescing pattern above, with every fifth request carrying a
    // NaN and every seventh one entry short. Each bad request must get
    // its own solver error; every valid one its bit-identical answer,
    // even when it shared a dispatch batch with a bad one.
    let server = Server::with_builtin_engines(ServerConfig {
        solver_workers: 1,
        queue_capacity: 1024,
        ..ServerConfig::default()
    });
    let config = quiet_config();
    let engine = EngineRef::new("numeric", 0);
    let n = 48;
    let a = workload_matrix(n, 7);
    let mut setup = Client::new(server.loopback());
    let (fp, _) = setup.prepare(&a, &config, &engine).unwrap();

    // The request with this id, and the error the solver gives it.
    let request = |id: u64| -> (Vec<f64>, Option<BlockAmcError>) {
        let mut rhs = workload_rhs(n, 7, id);
        if id % 7 == 3 {
            rhs.pop();
            let got = rhs.len();
            let err = BlockAmcError::ShapeMismatch {
                op: "solve_batch",
                expected: n,
                got,
            };
            (rhs, Some(err))
        } else if id % 5 == 2 {
            let index = id as usize % n;
            rhs[index] = f64::NAN;
            (rhs, Some(BlockAmcError::NonFinite { which: "b", index }))
        } else {
            (rhs, None)
        }
    };

    let clients = 8;
    let per_client = 6;
    let results: Vec<(u64, Result<Vec<f64>, ServeError>)> = std::thread::scope(|scope| {
        (0..clients)
            .map(|c| {
                let transport = server.loopback();
                let (config, engine, request) = (&config, &engine, &request);
                scope.spawn(move || {
                    let mut client = Client::new(transport);
                    (0..per_client)
                        .map(|k| {
                            let id = (c * per_client + k) as u64;
                            let (rhs, _) = request(id);
                            (
                                id,
                                client.solve(MatrixRef::Cached(fp), config, engine, &rhs),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });

    let mut direct = Client::new(server.loopback());
    let mut bad = 0;
    for (id, got) in results {
        match request(id) {
            (_, Some(err)) => {
                bad += 1;
                let got = got.unwrap_err().to_string();
                assert!(got.ends_with(&err.to_string()), "request {id}: {got}");
            }
            (rhs, None) => {
                let expected = direct
                    .solve(MatrixRef::Cached(fp), &config, &engine, &rhs)
                    .unwrap();
                assert_eq!(got.unwrap(), expected, "request {id}");
            }
        }
    }
    assert_eq!(bad, 16);
    // Each valid request was solved twice (served, then directly); no
    // bad one reached a solve.
    let valid = (clients * per_client - bad) as u64;
    assert_eq!(server.stats().solved_rhs, 2 * valid);
    server.shutdown();
}

#[test]
fn capacity_and_staleness_evictions_are_counted_separately() {
    let server = Server::with_builtin_engines(ServerConfig {
        cache_capacity: 2,
        aging: Some(fast_aging()),
        ..ServerConfig::default()
    });
    let mut client = Client::new(server.loopback());
    let config = quiet_config();
    let engine = EngineRef::new("numeric", 0);
    let a = workload_matrix(8, 21);
    let (fp, _) = client.prepare(&a, &config, &engine).unwrap();
    let rhs = workload_rhs(8, 21, 0);

    // First solve serves the fresh entry (age 0), then advances its
    // clock; the second finds it past max_residual with no degraded
    // opt-in, so the dispatcher staleness-evicts and re-prepares.
    for _ in 0..2 {
        let (_, degraded) = client
            .solve_accepting(MatrixRef::Cached(fp), &config, &engine, &rhs, false)
            .unwrap();
        assert!(!degraded, "without the opt-in nothing may be degraded");
    }
    // The re-prepared entry is written back after the reply is sent
    // (serve-then-age), so poll briefly for the settled state.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let stats = loop {
        let stats = client.stats().unwrap();
        if stats.entries == 1 || std::time::Instant::now() >= deadline {
            break stats;
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    };
    assert_eq!(stats.staleness_evictions, 1, "{stats:?}");
    assert_eq!(stats.evictions, 0, "staleness must not count as capacity");
    assert_eq!(stats.entries, 1, "the re-prepared entry is back in place");

    // Now overflow the 2-slot cache with fresh keys: LFU capacity
    // evictions land in the other counter.
    for seed in 30..33 {
        client
            .prepare(&workload_matrix(8, seed), &config, &engine)
            .unwrap();
    }
    let stats = client.stats().unwrap();
    assert!(stats.evictions >= 2, "capacity churn must evict: {stats:?}");
    assert_eq!(stats.staleness_evictions, 1, "{stats:?}");
    server.shutdown();
}

#[test]
fn degraded_optin_serves_stale_without_evicting() {
    let server = Server::with_builtin_engines(ServerConfig {
        aging: Some(fast_aging()),
        ..ServerConfig::default()
    });
    let mut client = Client::new(server.loopback());
    let config = quiet_config();
    let engine = EngineRef::new("numeric", 0);
    let a = workload_matrix(8, 22);
    let (fp, _) = client.prepare(&a, &config, &engine).unwrap();

    // Age the entry past the health threshold (request 1 is fresh).
    let rhs = workload_rhs(8, 22, 0);
    let (fresh_x, degraded) = client
        .solve_accepting(MatrixRef::Cached(fp), &config, &engine, &rhs, true)
        .unwrap();
    assert!(!degraded, "the first request sees an age-0 solver");

    // Request 2 opts in: the stale solver is served flagged, kept in
    // the cache, and the answer differs from the fresh one (the arrays
    // really drifted).
    let (stale_x, degraded) = client
        .solve_accepting(MatrixRef::Cached(fp), &config, &engine, &rhs, true)
        .unwrap();
    assert!(degraded, "opt-in must surface the degraded flag");
    assert_ne!(stale_x, fresh_x, "a drifted solver must answer differently");

    let stats = client.stats().unwrap();
    assert_eq!(stats.degraded_served, 1, "{stats:?}");
    assert_eq!(stats.staleness_evictions, 0, "{stats:?}");
    assert_eq!(stats.entries, 1);

    // A batch carries the same wire flag: a two-RHS opt-in batch is
    // served from the stale solver too, flagged, and still not evicted.
    let batch = vec![rhs.clone(), workload_rhs(8, 22, 1)];
    let response = client
        .request(&Request::SolveBatch {
            matrix: MatrixRef::Cached(fp),
            config: config.clone(),
            engine: engine.clone(),
            batch,
            accept_degraded: true,
        })
        .unwrap();
    match response {
        Response::SolvedBatch { xs, degraded } => {
            assert!(degraded, "batch opt-in must surface the degraded flag");
            assert_eq!(xs.len(), 2);
        }
        other => panic!("expected SolvedBatch, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.degraded_served, 3, "{stats:?}");
    assert_eq!(stats.staleness_evictions, 0, "{stats:?}");
    assert_eq!(stats.entries, 1);
    server.shutdown();
}

#[test]
fn tcp_transport_round_trips_through_a_real_socket() {
    let server = Server::with_builtin_engines(ServerConfig::default());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let acceptor = {
        let server = server.clone();
        std::thread::spawn(move || server.serve_tcp(listener))
    };

    let config = quiet_config();
    let engine = EngineRef::new("numeric", 0);
    let a = workload_matrix(16, 8);
    let rhs = workload_rhs(16, 8, 0);

    let mut tcp_client = Client::connect(addr).unwrap();
    let (fp, _) = tcp_client.prepare(&a, &config, &engine).unwrap();
    let x_tcp = tcp_client
        .solve(MatrixRef::Cached(fp), &config, &engine, &rhs)
        .unwrap();

    // Bit-identical to the loopback path: the transport is invisible.
    let mut loop_client = Client::new(server.loopback());
    let x_loop = loop_client
        .solve(MatrixRef::Cached(fp), &config, &engine, &rhs)
        .unwrap();
    assert_eq!(x_tcp, x_loop);

    tcp_client.shutdown().unwrap();
    server.shutdown();
    acceptor.join().unwrap().unwrap();
}

/// A gate INV calls wait at while it is closed, so a test can hold a
/// dispatch in flight.
#[derive(Debug, Default)]
struct Gate {
    /// (open, INV calls that have reached the gate).
    state: Mutex<(bool, usize)>,
    changed: Condvar,
}

impl Gate {
    fn open() -> Arc<Gate> {
        let gate = Gate::default();
        gate.state.lock().unwrap().0 = true;
        Arc::new(gate)
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.changed.notify_all();
        while !state.0 {
            state = self.changed.wait(state).unwrap();
        }
    }

    /// Blocks until some INV waits at the gate.
    fn await_arrival(&self) {
        let mut state = self.state.lock().unwrap();
        while state.1 == 0 {
            state = self.changed.wait(state).unwrap();
        }
    }

    fn release(&self) {
        self.state.lock().unwrap().0 = true;
        self.changed.notify_all();
    }
}

/// `numeric` with two test hooks: it counts factorisations by the
/// numeric engine's own rule (one per operand, either handed over at
/// programming time or made at the operand's first INV), and every INV
/// passes a [`Gate`] first.
#[derive(Debug, Clone)]
struct WatchedNumeric {
    inner: NumericEngine,
    factorisations: Arc<AtomicUsize>,
    gate: Arc<Gate>,
}

#[derive(Debug, Clone)]
struct WatchedOperand {
    inner: Operand,
    factored: bool,
}

impl OperandState for WatchedOperand {
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

impl WatchedNumeric {
    /// A registry with this engine under `"watched"`.
    fn registry(factorisations: &Arc<AtomicUsize>, gate: &Arc<Gate>) -> EngineRegistry {
        let (factorisations, gate) = (Arc::clone(factorisations), Arc::clone(gate));
        let mut registry = EngineRegistry::builtin();
        registry.register("watched", move |_| {
            Ok(Box::new(WatchedNumeric {
                inner: NumericEngine::new(),
                factorisations: Arc::clone(&factorisations),
                gate: Arc::clone(&gate),
            }))
        });
        registry
    }

    /// Passes the gate and counts a factorisation if the operand has
    /// none yet.
    fn before_inv<'a>(&self, op: &'a mut Operand) -> blockamc::Result<&'a mut Operand> {
        self.gate.pass();
        let state = op.expect_state_mut::<WatchedOperand>("watched")?;
        if !state.factored {
            state.factored = true;
            self.factorisations.fetch_add(1, Ordering::SeqCst);
        }
        Ok(&mut state.inner)
    }
}

impl AmcEngine for WatchedNumeric {
    fn program(&mut self, a: &Matrix) -> blockamc::Result<Operand> {
        let inner = self.inner.program(a)?;
        Ok(Operand::new(WatchedOperand {
            inner,
            factored: false,
        }))
    }

    fn program_factored(&mut self, a: &Matrix, lu: LuFactor) -> blockamc::Result<Operand> {
        self.factorisations.fetch_add(1, Ordering::SeqCst);
        let inner = self.inner.program_factored(a, lu)?;
        Ok(Operand::new(WatchedOperand {
            inner,
            factored: true,
        }))
    }

    fn inv(&mut self, op: &mut Operand, b: &[f64]) -> blockamc::Result<Vec<f64>> {
        let inner = self.before_inv(op)?;
        self.inner.inv(inner, b)
    }

    fn inv_block_into(
        &mut self,
        op: &mut Operand,
        b: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> blockamc::Result<()> {
        let inner = self.before_inv(op)?;
        self.inner.inv_block_into(inner, b, k, out)
    }

    fn mvm(&mut self, op: &mut Operand, x: &[f64]) -> blockamc::Result<Vec<f64>> {
        let state = op.expect_state_mut::<WatchedOperand>("watched")?;
        self.inner.mvm(&mut state.inner, x)
    }

    fn mvm_block_into(
        &mut self,
        op: &mut Operand,
        x: &[f64],
        k: usize,
        out: &mut Vec<f64>,
    ) -> blockamc::Result<()> {
        let state = op.expect_state_mut::<WatchedOperand>("watched")?;
        self.inner.mvm_block_into(&mut state.inner, x, k, out)
    }

    fn name(&self) -> &'static str {
        "watched"
    }

    fn stats(&self) -> EngineStats {
        self.inner.stats()
    }

    fn clone_boxed(&self) -> Box<dyn AmcEngine> {
        Box::new(self.clone())
    }
}

/// The answer a direct `PreparedSolver::solve` gives.
fn direct_solve(a: &Matrix, config: &SolverConfig, rhs: &[f64]) -> Vec<f64> {
    let mut solver = BlockAmcSolver::from_config(NumericEngine::new(), config.clone());
    solver.prepare(a).unwrap().solve(rhs).unwrap().x
}

#[test]
fn cached_solvers_factorise_once_however_many_solves_they_serve() {
    let config = quiet_config();
    let engine = EngineRef::new("watched", 0);
    let a = workload_matrix(16, 40);
    let mut counts = Vec::new();
    for solves in [1, 8, 64] {
        let factorisations = Arc::new(AtomicUsize::new(0));
        let server = Server::new(
            ServerConfig::default(),
            WatchedNumeric::registry(&factorisations, &Gate::open()),
        );
        let mut client = Client::new(server.loopback());
        let (fp, _) = client.prepare(&a, &config, &engine).unwrap();
        for k in 0..solves {
            let rhs = workload_rhs(16, 40, k);
            let x = client
                .solve(MatrixRef::Cached(fp), &config, &engine, &rhs)
                .unwrap();
            assert!(x == direct_solve(&a, &config, &rhs), "K={solves}, RHS {k}");
        }
        // Shutdown joins the workers, so every lent solver is home.
        server.shutdown();
        counts.push(factorisations.load(Ordering::SeqCst));
    }
    assert!(counts[0] > 0, "the leaves must factorise at least once");
    assert_eq!(counts, vec![counts[0]; 3], "factorisations per K=1, 8, 64");
}

/// Starts a `Cached` solve of `fp` on its own connection; it blocks at
/// the closed gate inside INV until the gate is released.
fn solve_in_flight(
    server: &Server,
    fp: u64,
    rhs: Vec<f64>,
) -> std::thread::JoinHandle<Result<Vec<f64>, ServeError>> {
    let transport = server.loopback();
    std::thread::spawn(move || {
        let engine = EngineRef::new("watched", 0);
        Client::new(transport).solve(MatrixRef::Cached(fp), &quiet_config(), &engine, &rhs)
    })
}

#[test]
fn a_key_evicted_while_its_solver_is_lent_stays_evicted() {
    let config = quiet_config();
    let engine = EngineRef::new("watched", 0);
    let (a, b) = (workload_matrix(16, 41), workload_matrix(16, 42));
    let rhs = workload_rhs(16, 41, 0);
    for capacity_eviction in [false, true] {
        let gate = Arc::new(Gate::default());
        let registry = WatchedNumeric::registry(&Arc::new(AtomicUsize::new(0)), &gate);
        let capacity = if capacity_eviction { 1 } else { 8 };
        // One solver worker: B's solve below is dispatched only after A's
        // dispatch has finished and returned (or dropped) its solver.
        let server = Server::new(
            ServerConfig {
                cache_capacity: capacity,
                solver_workers: 1,
                ..ServerConfig::default()
            },
            registry,
        );
        let mut client = Client::new(server.loopback());
        let entries_within_capacity = |client: &mut Client<_>| {
            let entries = client.stats().unwrap().entries;
            assert!(entries <= capacity as u64, "{entries} entries");
            entries
        };
        let (fp_a, _) = client.prepare(&a, &config, &engine).unwrap();
        let in_flight = solve_in_flight(&server, fp_a, rhs.clone());
        gate.await_arrival();

        // A's solver is out; the placeholder answers for it until evicted.
        assert_eq!(entries_within_capacity(&mut client), 1);
        if capacity_eviction {
            // Preparing B in a one-slot cache evicts A's slot by LFU.
            client.prepare(&b, &config, &engine).unwrap();
            assert_eq!(client.stats().unwrap().evictions, 1);
            assert_eq!(entries_within_capacity(&mut client), 1);
        } else {
            assert!(client.evict(fp_a, &config, &engine).unwrap());
            assert_eq!(entries_within_capacity(&mut client), 0);
            client.prepare(&b, &config, &engine).unwrap();
        }
        gate.release();
        let x = in_flight.join().unwrap().unwrap();
        assert!(x == direct_solve(&a, &config, &rhs), "in-flight answer");

        let rhs_b = workload_rhs(16, 42, 0);
        let x_b = client
            .solve(MatrixRef::Cached(b.fingerprint()), &config, &engine, &rhs_b)
            .unwrap();
        assert!(x_b == direct_solve(&b, &config, &rhs_b));
        // A's dispatch is over: its solver was dropped, not put back.
        assert_eq!(entries_within_capacity(&mut client), 1);
        let err = client
            .solve(MatrixRef::Cached(fp_a), &config, &engine, &rhs)
            .unwrap_err();
        assert!(
            matches!(err, ServeError::NotPrepared { fingerprint } if fingerprint == fp_a),
            "{err}"
        );
        server.shutdown();
    }
}
