//! `serve_mix`: an `amc-serve` server on 127.0.0.1 (cache capacity 8,
//! two solver workers, one batch worker) and two closed-loop clients,
//! one TCP connection each. Each request picks one of 16 diagonally
//! dominant n = 64 matrices by a Zipf(1) draw, solves by fingerprint,
//! and re-sends the matrix inline when the server answers `NotPrepared`.
//! At this size per-request overhead dominates, and prepare-on-miss
//! runs beside cached reads.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amc_linalg::Matrix;
use amc_obs::MetricValue;
use amc_serve::client::Client;
use amc_serve::loadgen::{workload_matrix, workload_rhs};
use amc_serve::server::{Server, ServerConfig, TcpTransport};
use amc_serve::wire::{EngineRef, MatrixRef, Request};
use amc_serve::ServeError;
use blockamc::solver::{BlockAmcSolver, SolverConfig};

use super::{err, mix, repeat_setup, Params, Run};
use crate::measure::{ratio, Latencies, Segments};
use crate::{oracle, probe};

/// The tail percentile reported (about 500 000 requests in 20 s: 5 000
/// beyond p99). Further out, the scheduling of seven threads on two cores
/// sets the tail, and it moves by more than the bound from run to run.
const TAIL_PERCENTILE: f64 = 99.0;
const N: usize = 64;
const MATRICES: usize = 16;
const CLIENTS: usize = 2;
/// Answers each client keeps for the oracles, in request order: this many
/// sent with instruments off, and in the traced run as many again sent
/// with them on.
const RETAIN: usize = 512;

/// One kept answer in this many is re-solved directly and compared bit
/// for bit.
const SAMPLE_ONE_IN: u64 = 8;
/// Uses of the most popular matrix when set-up warms the cache; the
/// matrix of Zipf rank k gets `WARM_UP / k`.
const WARM_UP: usize = 64;
/// Inline re-sends after which a request that keeps meeting
/// `NotPrepared` counts as given up. Two clients can evict each other's
/// fresh entries (an LFU cache evicts the newest, least-used entry
/// first) several times in a row, so the cap is generous.
const MAX_RESENDS: u32 = 64;

/// A running server with its connected clients.
struct Served {
    server: Server,
    clients: Vec<Client<TcpTransport>>,
    acceptor: Option<JoinHandle<amc_serve::Result<()>>>,
}

impl Drop for Served {
    fn drop(&mut self) {
        self.server.shutdown();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

struct Setup {
    matrices: Vec<Matrix>,
    fingerprints: Vec<u64>,
    served: Served,
}

fn start(p: &Params, config: &SolverConfig, engine: &EngineRef) -> Result<Setup, String> {
    let matrices: Vec<Matrix> = (0..MATRICES as u64)
        .map(|i| workload_matrix(N, mix(p.seed, i)))
        .collect();
    let fingerprints: Vec<u64> = matrices.iter().map(Matrix::fingerprint).collect();
    let server = Server::new(
        ServerConfig {
            cache_capacity: 8,
            solver_workers: 2,
            batch_workers: 1,
            ..ServerConfig::default()
        },
        probe::registry(),
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
    let addr = listener.local_addr().map_err(err)?;
    // Connect before the accept loop starts: the connections wait in the
    // backlog and are accepted on its first pass, not after a poll sleep.
    let clients = (0..CLIENTS)
        .map(|_| Client::connect(addr).map_err(err))
        .collect::<Result<Vec<_>, _>>()?;
    let acceptor = {
        let server = server.clone();
        std::thread::spawn(move || server.serve_tcp(listener))
    };
    let mut served = Served {
        server,
        clients,
        acceptor: Some(acceptor),
    };
    for m in &matrices {
        served.clients[0].prepare(m, config, engine).map_err(err)?;
    }
    // Warm the cache in popularity order. An LFU cache keeps whichever
    // entries collect uses first, so without this the first requests of
    // the window would decide which matrices stay cached for the whole
    // run, and the hit rate, and with it every timing, would depend on the
    // seed (from 0.53 to 0.66 over a few seeds).
    let b = vec![1.0; N];
    for (rank, (a, &fingerprint)) in matrices.iter().zip(&fingerprints).enumerate() {
        for _ in 0..WARM_UP / (rank + 1) {
            let client = &mut served.clients[0];
            solve_cached(client, a, fingerprint, config, engine, &b).map_err(err)?;
        }
    }
    Ok(Setup {
        matrices,
        fingerprints,
        served,
    })
}

/// Solves by fingerprint and, while the server answers `NotPrepared`,
/// re-sends the matrix inline. Returns the answer and whether it needed a
/// re-send.
fn solve_cached(
    client: &mut Client<TcpTransport>,
    a: &Matrix,
    fingerprint: u64,
    config: &SolverConfig,
    engine: &EngineRef,
    b: &[f64],
) -> amc_serve::Result<(Vec<f64>, bool)> {
    let mut matrix = MatrixRef::Cached(fingerprint);
    let mut resends = 0;
    loop {
        match client.solve(matrix, config, engine, b) {
            // Evicted between the server's prepare and its dispatch: send
            // the matrix again.
            Err(ServeError::NotPrepared { .. }) if resends < MAX_RESENDS => {
                resends += 1;
                matrix = MatrixRef::Inline(a.clone());
            }
            other => return other.map(|x| (x, resends > 0)),
        }
    }
}

/// Cumulative Zipf(1) weights over the matrix ranks.
fn zipf_cdf() -> Vec<f64> {
    let weights: Vec<f64> = (1..=MATRICES).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect()
}

/// One client request as issued: which matrix, which right-hand side,
/// whether it missed, and the answer.
struct Answer {
    pick: usize,
    request: u64,
    missed: bool,
    x: Vec<f64>,
}

/// What one client saw. Every field has a fixed size, allocated before
/// the window opens, so memory does not grow with throughput.
struct ClientLog {
    latencies: Latencies,
    hit_rtt: Latencies,
    miss_rtt: Latencies,
    /// Kept answers: `[instruments off, instruments on]`.
    kept: [Vec<Answer>; 2],
    failed: u64,
    first_error: Option<String>,
}

impl ClientLog {
    fn new() -> ClientLog {
        ClientLog {
            latencies: Latencies::default(),
            hit_rtt: Latencies::default(),
            miss_rtt: Latencies::default(),
            kept: [Vec::with_capacity(RETAIN), Vec::with_capacity(RETAIN)],
            failed: 0,
            first_error: None,
        }
    }
}

/// Counters read from the server at traced-segment boundaries.
#[derive(Debug, Clone, Copy, Default)]
struct ServerReading {
    hits: f64,
    misses: f64,
    evictions: f64,
    dispatch_batches: f64,
    coalesced: f64,
    busy: f64,
    dispatch: (f64, f64),
    wait: (f64, f64),
}

impl ServerReading {
    fn read(server: &Server) -> ServerReading {
        let stats = server.stats();
        let metrics = server.metrics();
        let histogram = |name: &str| match metrics.get(name) {
            Some(MetricValue::Histogram(h)) => (h.count as f64, h.mean * h.count as f64),
            _ => (0.0, 0.0),
        };
        ServerReading {
            hits: stats.hits as f64,
            misses: stats.misses as f64,
            evictions: stats.evictions as f64,
            dispatch_batches: stats.dispatch_batches as f64,
            coalesced: stats.coalesced_requests as f64,
            busy: metrics.counter("serve.busy_rejections") as f64,
            dispatch: histogram("serve.dispatch_us"),
            wait: histogram("serve.wait_us"),
        }
    }

    /// Adds `to − from` into `self`.
    fn accumulate(&mut self, from: &ServerReading, to: &ServerReading) {
        self.hits += to.hits - from.hits;
        self.misses += to.misses - from.misses;
        self.evictions += to.evictions - from.evictions;
        self.dispatch_batches += to.dispatch_batches - from.dispatch_batches;
        self.coalesced += to.coalesced - from.coalesced;
        self.busy += to.busy - from.busy;
        self.dispatch.0 += to.dispatch.0 - from.dispatch.0;
        self.dispatch.1 += to.dispatch.1 - from.dispatch.1;
        self.wait.0 += to.wait.0 - from.wait.0;
        self.wait.1 += to.wait.1 - from.wait.1;
    }
}

pub fn run(p: &Params) -> Result<Run, String> {
    let config = SolverConfig::builder()
        .capture_trace(false)
        .finish()
        .map_err(err)?;
    // The traced run sends every request to the probed engine. Switching
    // engines per segment would change the cache key at each switch, and
    // the LFU cache would keep the other engine's well-used entries while
    // the fresh ones evicted each other.
    let engine = EngineRef::new(
        if p.trace {
            probe::PROBED_NUMERIC
        } else {
            "numeric"
        },
        0,
    );
    let (mut setup, setup_s) = repeat_setup(|| start(p, &config, &engine))?;
    let cdf = zipf_cdf();

    let stop = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    // Each request holds a read lock while it is in flight; the window's
    // ticks hold the write lock, so they run while no request is.
    let gate = RwLock::new(());
    let logs: Vec<ClientLog> = (0..CLIENTS).map(|_| ClientLog::new()).collect();
    let mut window = Segments::new(p.seconds, p.trace, 1);
    let mut traced_server = ServerReading::default();
    let (pool, served) = (&setup.matrices, &mut setup.served);
    let fingerprints = &setup.fingerprints;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = served
            .clients
            .iter_mut()
            .zip(logs)
            .enumerate()
            .map(|(c, (client, mut log))| {
                let (stop, completed, gate, cdf, config, engine) =
                    (&stop, &completed, &gate, &cdf, &config, &engine);
                let clock = window.clock();
                scope.spawn(move || {
                    let mut draws = mix(p.seed2, 100 + c as u64);
                    let mut request = 0u64;
                    while !stop.load(Ordering::Acquire) {
                        draws = mix(draws, request);
                        let u = (draws >> 11) as f64 / (1u64 << 53) as f64;
                        let pick = cdf.iter().position(|&f| u < f).unwrap_or(MATRICES - 1);
                        let rhs = workload_rhs(N, mix(p.seed2, c as u64), request);
                        let in_flight = gate.read().unwrap_or_else(PoisonError::into_inner);
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        let traced = probe::tracing();
                        let start = Instant::now();
                        let result = solve_cached(
                            client,
                            &pool[pick],
                            fingerprints[pick],
                            config,
                            engine,
                            &rhs,
                        );
                        let elapsed = start.elapsed().as_secs_f64();
                        drop(in_flight);
                        log.latencies.record(clock.slice(start), elapsed);
                        completed.fetch_add(1, Ordering::Relaxed);
                        match result {
                            Ok((x, missed)) => {
                                if traced {
                                    let rtt = if missed {
                                        &mut log.miss_rtt
                                    } else {
                                        &mut log.hit_rtt
                                    };
                                    rtt.record(0, elapsed);
                                }
                                let kept = &mut log.kept[usize::from(traced)];
                                if kept.len() < RETAIN {
                                    kept.push(Answer {
                                        pick,
                                        request,
                                        missed,
                                        x,
                                    });
                                }
                            }
                            Err(e) => {
                                log.failed += 1;
                                log.first_error.get_or_insert_with(|| e.to_string());
                                if matches!(e, ServeError::Io(_) | ServeError::Closed) {
                                    break;
                                }
                            }
                        }
                        request += 1;
                    }
                    log
                })
            })
            .collect();

        let mut traced = false;
        let mut since = ServerReading::read(&served.server);
        loop {
            // Hold the clients back while the tick runs.
            let paused = gate.write().unwrap_or_else(PoisonError::into_inner);
            if !window.tick(completed.load(Ordering::Relaxed)) {
                stop.store(true, Ordering::Release);
                break;
            }
            if probe::tracing() != traced {
                let now = ServerReading::read(&served.server);
                if traced {
                    traced_server.accumulate(&since, &now);
                }
                since = now;
                traced = probe::tracing();
            }
            drop(paused);
            // Slice marks record the time they are taken, so a late
            // wake-up costs no accuracy; waking rarely keeps this thread
            // off the two cores the server and clients share.
            std::thread::sleep(Duration::from_millis(10));
        }
        if traced {
            traced_server.accumulate(&since, &ServerReading::read(&served.server));
        }
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    probe::set_tracing(false);

    let mut run = Run {
        setup_s,
        attempted: completed.load(Ordering::Relaxed),
        tail_percentile: TAIL_PERCENTILE,
        window: window.finish(),
        ..Run::default()
    };
    run.failed = logs.iter().map(|l| l.failed).sum();
    if let Some(e) = logs.iter().find_map(|l| l.first_error.as_deref()) {
        run.notes.push(("first_client_error", crate::json_str(e)));
    }
    for log in &logs {
        run.latencies.merge(&log.latencies);
    }

    // Oracle 1: backward error and eq. 6 error of every kept answer.
    let matrices: Vec<&Matrix> = setup.matrices.iter().collect();
    let rhs_of = |c: usize, a: &Answer| workload_rhs(N, mix(p.seed2, c as u64), a.request);
    let kept: Vec<(usize, &Answer, Vec<f64>)> = logs
        .iter()
        .enumerate()
        .flat_map(|(c, log)| log.kept.iter().flatten().map(move |a| (c, a)))
        .map(|(c, a)| (c, a, rhs_of(c, a)))
        .collect();
    let answers: Vec<(usize, &[f64], &[f64])> = kept
        .iter()
        .map(|(_, a, b)| (a.pick, b.as_slice(), a.x.as_slice()))
        .collect();
    let (errors, failed) = oracle::check_numeric(&matrices, &answers);
    run.rel_errors = errors;
    run.failed += failed;

    // Oracle 2: a seeded sample re-solved directly on the plain engine,
    // compared bit for bit.
    let registry = probe::registry();
    let mut solvers = Vec::with_capacity(MATRICES);
    for _ in 0..MATRICES {
        let built = registry.build("numeric", 0).map_err(err)?;
        solvers.push(BlockAmcSolver::from_config(built, config.clone()));
    }
    let mut compared = 0u64;
    let mut mismatched = 0u64;
    for (c, a, b) in &kept {
        if !mix(p.seed2 ^ *c as u64, a.request).is_multiple_of(SAMPLE_ONE_IN) {
            continue;
        }
        compared += 1;
        let direct = solvers[a.pick]
            .prepare(&setup.matrices[a.pick])
            .and_then(|mut prepared| prepared.solve(b));
        let same = direct.is_ok_and(|r| {
            r.x.len() == a.x.len()
                && r.x
                    .iter()
                    .zip(&a.x)
                    .all(|(u, v)| u.to_bits() == v.to_bits())
        });
        mismatched += u64::from(!same);
    }
    run.failed += mismatched;
    run.notes
        .push(("answers_checked", answers.len().to_string()));
    run.notes.push(("backward_failures", failed.to_string()));
    run.notes.push(("bit_mismatches", mismatched.to_string()));
    run.notes
        .push(("bit_identity_sampled", compared.to_string()));

    if p.trace {
        let (mut hit, mut miss) = (Latencies::default(), Latencies::default());
        for log in &logs {
            hit.merge(&log.hit_rtt);
            miss.merge(&log.miss_rtt);
        }
        let traced_ops: f64 = run
            .window
            .segments
            .iter()
            .filter(|s| s.traced)
            .map(|s| s.ops as f64)
            .sum();
        let s = traced_server;
        let ((encode_us, decode_us, bytes), undecodable) =
            replay_wire(&kept, &setup.matrices, fingerprints, &config, &engine);
        run.failed += undecodable;
        run.layers = vec![
            ("wire.encode_us", encode_us),
            ("wire.decode_us", decode_us),
            ("wire.request_bytes", bytes),
            ("client.hit_rtt_us", hit.percentile_ms(50.0) * 1e3),
            ("client.miss_rtt_us", miss.percentile_ms(50.0) * 1e3),
            ("cache.hit_rate", ratio(s.hits, s.hits + s.misses)),
            ("cache.evictions", ratio(s.evictions, traced_ops)),
            (
                "serve.coalescing_factor",
                ratio(s.coalesced, s.dispatch_batches),
            ),
            ("serve.busy_rejections", ratio(s.busy, traced_ops)),
            ("serve.dispatch_us_mean", ratio(s.dispatch.1, s.dispatch.0)),
            ("serve.wait_us_mean", ratio(s.wait.1, s.wait.0)),
        ];
    }
    Ok(run)
}

/// Encodes and decodes the kept requests again, exactly as they went on
/// the wire (a miss sent a cached reference, then the matrix inline).
/// Returns mean µs per encode, per decode, and mean bytes per request,
/// and how many frames failed to decode.
fn replay_wire(
    kept: &[(usize, &Answer, Vec<f64>)],
    matrices: &[Matrix],
    fingerprints: &[u64],
    config: &SolverConfig,
    engine: &EngineRef,
) -> ((f64, f64, f64), u64) {
    let mut requests = Vec::with_capacity(kept.len() * 2);
    for (_, a, b) in kept {
        let solve = |matrix| Request::Solve {
            matrix,
            config: config.clone(),
            engine: engine.clone(),
            rhs: b.clone(),
            accept_degraded: false,
        };
        requests.push(solve(MatrixRef::Cached(fingerprints[a.pick])));
        if a.missed {
            requests.push(solve(MatrixRef::Inline(matrices[a.pick].clone())));
        }
    }
    let start = Instant::now();
    let frames: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    let encode_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let undecodable = frames
        .iter()
        .filter(|f| Request::decode(f).is_err())
        .count();
    let decode_s = start.elapsed().as_secs_f64();
    let count = kept.len().max(1) as f64;
    let bytes: usize = frames.iter().map(Vec::len).sum();
    let means = (
        encode_s * 1e6 / count,
        decode_s * 1e6 / count,
        bytes as f64 / count,
    );
    (means, undecodable as u64)
}
