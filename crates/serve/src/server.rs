//! The mux server: transports, the coalescing dispatcher, and the
//! request handlers.
//!
//! ## Threading model
//!
//! * One **connection loop** per transport (`Server::serve_transport`),
//!   decoding requests and blocking on their replies — a connection is a
//!   serial request/response stream, exactly like the client sees it.
//! * A fixed pool of **solver workers** (spawned at [`Server::new`])
//!   drains the dispatch queue. Each round, a worker claims *one cache
//!   key* and takes **every** job queued under it — that is the
//!   coalescing step — flattens them into a single batch, and solves it
//!   through [`SolverReplica::solve_batch_parallel`], which shards the
//!   batch over an `amc-par` work-stealing pool.
//! * The cached solver is **lent**, not copied: under a short cache-lock
//!   hold the worker takes the entry out of its slot and leaves a
//!   placeholder that still answers lookups, `Prepare` hits and LFU
//!   heat. The solve runs unlocked on the owned solver, which then goes
//!   back into its slot together with every factor the solve filled in
//!   — so a key's arrays are factorised once, not once per request. A
//!   key evicted while lent (by `Evict`, LFU capacity, staleness, or a
//!   re-insert) stays evicted: the worker finds its placeholder gone and
//!   drops the solver.
//! * While a key is **active** (being solved), newly arriving jobs for
//!   it queue up but the key is not re-enqueued; the worker re-enqueues
//!   it on release if jobs accumulated. Concurrent requests against a
//!   hot solver therefore pile into shared batches naturally.
//!
//! ## Backpressure
//!
//! The dispatch queue is bounded by [`ServerConfig::queue_capacity`]
//! right-hand sides. A submit that would exceed the bound is rejected
//! *immediately* with [`Response::Busy`] — the request is never queued,
//! the connection never blocks, and the queue cannot grow without
//! bound. Clients are expected to back off and retry.
//!
//! ## Determinism
//!
//! Cache hits and coalescing are invisible in the numbers: a cached
//! replica carries the one variation draw taken at prepare time, the
//! factors a solve caches in it are the ones every later solve would
//! compute, and batch sharding is bit-identical at any worker count —
//! so a coalesced, cached, sharded solve returns exactly the bytes a
//! direct [`PreparedSolver::solve`] would have.
//!
//! [`Response::Busy`]: crate::wire::Response::Busy
//! [`PreparedSolver::solve`]: blockamc::solver::PreparedSolver::solve
//! [`SolverReplica::solve_batch_parallel`]: blockamc::solver::SolverReplica::solve_batch_parallel

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use amc_linalg::Matrix;
use amc_obs::{Counter, Histogram, MetricsSnapshot, Recorder, Registry, TraceSession};
use blockamc::aging::{AgedSolver, AgingModel};
use blockamc::engine::{AmcEngine, EngineRegistry};
use blockamc::solver::{validate_batch, BlockAmcSolver, SolverConfig, SolverReplica};

use crate::cache::{CacheKey, LfuCache};
use crate::error::{Result, ServeError};
use crate::wire::{EngineRef, MatrixRef, Request, Response, ServerStats, MAX_FRAME_LEN};

/// How often blocked receives wake up to check for server shutdown.
const POLL: Duration = Duration::from_millis(25);

/// Why a cache-lock acquisition fails: a thread panicked holding it.
const CACHE_POISONED: &str = "cache lock poisoned by a panicked thread";

/// A cached prepared solver: an owned replica over a type-erased engine,
/// lent to one worker thread at a time (`Send` is compile-time asserted
/// in `blockamc::solver`).
pub(crate) type CachedSolver = SolverReplica<Box<dyn AmcEngine>>;

/// One cache slot: the bare replica on an ageless server, the aging
/// wrapper (replica + virtual clock + pristine snapshots) when
/// [`ServerConfig::aging`] is set, or the placeholder of a solver a
/// worker has out.
enum Entry {
    Plain(CachedSolver),
    Aged(Box<AgedSolver<Box<dyn AmcEngine>>>),
    /// Stands in for a solver lent to a dispatching worker (its key is
    /// active); knows the problem size, so lookups answer as if the
    /// solver were home.
    Lent {
        n: usize,
    },
}

impl Entry {
    /// Problem size `n` of the cached solver.
    fn size(&self) -> usize {
        match self {
            Entry::Plain(replica) => replica.size(),
            Entry::Aged(aged) => aged.size(),
            Entry::Lent { n } => *n,
        }
    }
}

/// Takes the solver under `key` out of its slot for a dispatch, leaving
/// [`Entry::Lent`] behind. Moves no counters and heats nothing. `None`
/// when the key is not cached (or, which an active key rules out, is
/// already lent).
fn lend(cache: &mut LfuCache<Entry>, key: &CacheKey) -> Option<Entry> {
    let slot = cache
        .peek_mut(key)
        .filter(|slot| !matches!(slot, Entry::Lent { .. }))?;
    let n = slot.size();
    Some(std::mem::replace(slot, Entry::Lent { n }))
}

/// Puts a lent solver back into its slot. If the key was evicted while
/// the solver was out, the slot is gone or holds a fresh entry, and
/// `entry` is dropped rather than resurrected.
fn give_back(cache: &mut LfuCache<Entry>, key: &CacheKey, entry: Entry) {
    if let Some(slot @ Entry::Lent { .. }) = cache.peek_mut(key) {
        *slot = entry;
    }
}

// ---------------------------------------------------------------------
// Transports.
// ---------------------------------------------------------------------

/// Outcome of one [`Transport::recv`] poll.
#[derive(Debug)]
pub enum Received {
    /// A complete frame payload (length prefix stripped).
    Frame(Vec<u8>),
    /// The peer closed the connection.
    Closed,
    /// The poll interval elapsed without a complete frame; check
    /// shutdown and poll again.
    Idle,
}

/// A bidirectional frame pipe. Implementations own the framing (length
/// prefix on TCP, message-per-send on the in-process loopback); the
/// payloads they carry are [`Request::encode`]/`Response::encode`
/// bytes.
pub trait Transport: Send {
    /// Sends one frame.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure, [`ServeError::Closed`]
    /// when the peer is gone.
    fn send(&mut self, payload: &[u8]) -> Result<()>;

    /// Waits up to `poll` for a complete frame.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] on transport failure, [`ServeError::Protocol`]
    /// for an over-long frame announcement.
    fn recv(&mut self, poll: Duration) -> Result<Received>;
}

/// [`Transport`] over a [`TcpStream`]: `u32` little-endian length
/// prefix + payload, with an incremental reassembly buffer so a frame
/// split across packets (or across poll timeouts) is never corrupted.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl TcpTransport {
    /// Wraps a connected stream (enables `TCP_NODELAY`; frames are
    /// latency-sensitive and self-contained).
    ///
    /// # Errors
    ///
    /// Socket-option failures.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport {
            stream,
            buf: Vec::new(),
        })
    }

    /// Extracts one complete frame from the reassembly buffer, if there
    /// is one.
    fn take_frame(&mut self) -> Result<Option<Vec<u8>>> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME_LEN {
            return Err(ServeError::protocol(format!(
                "announced frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"
            )));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let payload = self.buf[4..4 + len].to_vec();
        self.buf.drain(..4 + len);
        Ok(Some(payload))
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, payload: &[u8]) -> Result<()> {
        let len = u32::try_from(payload.len())
            .map_err(|_| ServeError::protocol("frame payload exceeds u32 length"))?;
        self.stream.write_all(&len.to_le_bytes())?;
        self.stream.write_all(payload)?;
        self.stream.flush()?;
        Ok(())
    }

    fn recv(&mut self, poll: Duration) -> Result<Received> {
        if let Some(frame) = self.take_frame()? {
            return Ok(Received::Frame(frame));
        }
        self.stream
            .set_read_timeout(Some(poll.max(Duration::from_millis(1))))?;
        let mut chunk = [0u8; 8192];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Received::Closed),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    if let Some(frame) = self.take_frame()? {
                        return Ok(Received::Frame(frame));
                    }
                    // Mid-frame: keep reading within this poll.
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(Received::Idle)
                }
                Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                    return Ok(Received::Closed)
                }
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// In-process [`Transport`]: a pair of `mpsc` channels. Lets tests and
/// benches run the full client/server protocol — framing, dispatch,
/// coalescing, backpressure — without sockets.
#[derive(Debug)]
pub struct LoopbackTransport {
    tx: mpsc::Sender<Vec<u8>>,
    rx: mpsc::Receiver<Vec<u8>>,
}

/// Creates a connected loopback pair: frames sent on one end arrive on
/// the other.
pub(crate) fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let (a_tx, b_rx) = mpsc::channel();
    let (b_tx, a_rx) = mpsc::channel();
    (
        LoopbackTransport { tx: a_tx, rx: a_rx },
        LoopbackTransport { tx: b_tx, rx: b_rx },
    )
}

impl Transport for LoopbackTransport {
    fn send(&mut self, payload: &[u8]) -> Result<()> {
        self.tx
            .send(payload.to_vec())
            .map_err(|_| ServeError::Closed)
    }

    fn recv(&mut self, poll: Duration) -> Result<Received> {
        match self.rx.recv_timeout(poll) {
            Ok(frame) => Ok(Received::Frame(frame)),
            Err(RecvTimeoutError::Timeout) => Ok(Received::Idle),
            Err(RecvTimeoutError::Disconnected) => Ok(Received::Closed),
        }
    }
}

// ---------------------------------------------------------------------
// Server configuration and state.
// ---------------------------------------------------------------------

/// Lifetime configuration of a serving cache: every cached solver is
/// wrapped in an [`AgedSolver`] whose virtual clock advances one tick
/// per dispatch round (**serve-then-age**: a batch is served against
/// the state the previous round left behind, so the first request
/// against a fresh entry is bit-identical to a direct solve).
///
/// Before each round the dispatcher probes the entry's health (sentinel
/// residual). Past `max_residual` the entry is *degraded*: it is served
/// anyway — flagged `degraded = true` — when every coalesced request
/// opted in with `accept_degraded`, and otherwise evicted (counted in
/// `staleness_evictions`) and re-prepared from the retained pristine
/// matrix before serving fresh.
#[derive(Debug, Clone, Copy)]
pub struct ServeAging {
    /// Device lifetime model every cached solver ages under.
    pub model: AgingModel,
    /// Health threshold: a sentinel residual above this marks the
    /// cached solver degraded.
    pub max_residual: f64,
    /// Base seed of the per-entry aging streams (combined with the
    /// matrix fingerprint, so distinct matrices age independently but
    /// replays are deterministic).
    pub seed: u64,
}

/// Tunables of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum number of cached prepared solvers (LFU-evicted beyond
    /// this; clamped to at least 1).
    pub cache_capacity: usize,
    /// Dispatcher threads draining the pending queue. **`0` is an
    /// accept-only mode**: requests queue (and overflow to `Busy`) but
    /// nothing ever drains — only useful to tests that need a
    /// deterministically saturated queue.
    pub solver_workers: usize,
    /// Worker count each dispatched batch is sharded over
    /// ([`SolverReplica::solve_batch_parallel`]); 1 = serial solves.
    /// With `batch_workers > 1`, a cached solver that has served a
    /// multi-RHS batch holds `batch_workers − 1` spare copies of itself
    /// (engine, programmed arrays and factors) for as long as it stays
    /// cached, so size `cache_capacity` for that.
    ///
    /// [`SolverReplica::solve_batch_parallel`]: blockamc::solver::SolverReplica::solve_batch_parallel
    pub batch_workers: usize,
    /// Bound on queued right-hand sides across all keys; a submit that
    /// would exceed it gets [`Response::Busy`].
    pub queue_capacity: usize,
    /// Lifetime/aging behavior of cached solvers; `None` (the default)
    /// means arrays never age and the server behaves exactly as before
    /// aging existed.
    pub aging: Option<ServeAging>,
    /// Trace session connection loops and dispatcher workers record
    /// spans into (`serve.decode` → `serve.lookup` → `serve.wait` →
    /// `serve.dispatch` → `serve.encode`). `None` (the default) records
    /// nothing; either way the served numbers are bit-identical —
    /// tracing is strictly read-only.
    pub trace: Option<TraceSession>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            cache_capacity: 8,
            solver_workers: 2,
            batch_workers: 1,
            queue_capacity: 64,
            aging: None,
            trace: None,
        }
    }
}

/// What a dispatched job replies with: the solutions in input order,
/// plus whether they came from a degraded (stale) solver.
type JobReply = std::result::Result<(Vec<Vec<f64>>, bool), ServeError>;

/// One queued unit of work: the right-hand sides of a single request,
/// its stale-but-fast opt-in, and the channel its connection loop
/// blocks on.
struct Job {
    rhs: Vec<Vec<f64>>,
    accept_degraded: bool,
    reply: mpsc::Sender<JobReply>,
    /// When the job entered the queue — the coalesce-wait clock
    /// (`serve.wait_us`) starts here and stops when a worker claims the
    /// key.
    enqueued: Instant,
}

/// Dispatcher state behind one mutex: which keys have work, which are
/// being solved, and how full the queue is.
#[derive(Default)]
struct DispatchState {
    /// Keys with queued jobs, not currently active.
    ready: VecDeque<CacheKey>,
    /// Queued jobs per key.
    pending: HashMap<CacheKey, Vec<Job>>,
    /// Keys a worker is currently solving.
    active: HashSet<CacheKey>,
    /// Total queued right-hand sides (the backpressure gauge).
    queued_rhs: usize,
    /// Mirrors `Inner::closing` under the mutex for correct condvar use.
    shutdown: bool,
}

/// Throughput counters (the non-cache half of [`ServerStats`]), held as
/// handles into the server's metrics registry: the same saturating
/// counters answer the wire `Stats` request and [`Server::metrics`],
/// one surface instead of two books.
struct Counters {
    requests: Counter,
    solved_rhs: Counter,
    dispatch_batches: Counter,
    coalesced_requests: Counter,
    staleness_evictions: Counter,
    degraded_served: Counter,
    busy_rejections: Counter,
    /// Wall time of one dispatched batch solve, µs.
    dispatch_us: Histogram,
    /// Queue-entry → worker-claim latency per job, µs (the price of
    /// coalescing).
    wait_us: Histogram,
    /// Right-hand sides per dispatched batch (the coalescing factor's
    /// numerator; `dispatch_batches` is its denominator).
    batch_rhs: Histogram,
}

impl Counters {
    fn new(metrics: &Registry) -> Counters {
        Counters {
            requests: metrics.counter("serve.requests"),
            solved_rhs: metrics.counter("serve.solved_rhs"),
            dispatch_batches: metrics.counter("serve.dispatch_batches"),
            coalesced_requests: metrics.counter("serve.coalesced_requests"),
            staleness_evictions: metrics.counter("serve.staleness_evictions"),
            degraded_served: metrics.counter("serve.degraded_served"),
            busy_rejections: metrics.counter("serve.busy_rejections"),
            dispatch_us: metrics.histogram("serve.dispatch_us"),
            wait_us: metrics.histogram("serve.wait_us"),
            batch_rhs: metrics.histogram("serve.batch_rhs"),
        }
    }
}

struct Inner {
    cfg: ServerConfig,
    registry: EngineRegistry,
    metrics: Registry,
    cache: Mutex<LfuCache<Entry>>,
    state: Mutex<DispatchState>,
    work: Condvar,
    closing: AtomicBool,
    shutdown_once: AtomicBool,
    counters: Counters,
    workers: Mutex<Vec<JoinHandle<()>>>,
    connections: Mutex<Vec<JoinHandle<()>>>,
}

impl Inner {
    /// A recorder on the configured trace session — disabled (and
    /// free) when tracing is off.
    fn recorder(&self) -> Recorder {
        self.cfg
            .trace
            .as_ref()
            .map_or_else(Recorder::disabled, TraceSession::recorder)
    }
}

/// The solver service: prepared-solver cache + coalescing dispatcher +
/// as many transports as you attach.
///
/// Cloning the handle is cheap (an `Arc`); all clones drive the same
/// server. The server stops when [`shutdown`](Server::shutdown) is
/// called — directly, or by a wire [`Request::Shutdown`].
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Starts a server: spawns `cfg.solver_workers` dispatcher threads
    /// and resolves engines against `registry`.
    pub fn new(cfg: ServerConfig, registry: EngineRegistry) -> Server {
        let metrics = Registry::new();
        let counters = Counters::new(&metrics);
        let inner = Arc::new(Inner {
            cache: Mutex::new(LfuCache::new(cfg.cache_capacity)),
            state: Mutex::new(DispatchState::default()),
            work: Condvar::new(),
            closing: AtomicBool::new(false),
            shutdown_once: AtomicBool::new(false),
            counters,
            workers: Mutex::new(Vec::new()),
            connections: Mutex::new(Vec::new()),
            metrics,
            registry,
            cfg,
        });
        let server = Server { inner };
        let mut workers = server.inner.workers.lock().unwrap();
        for i in 0..server.inner.cfg.solver_workers {
            let inner = Arc::clone(&server.inner);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("amc-serve-worker-{i}"))
                    .spawn(move || {
                        // One recorder (= one trace lane) per dispatcher
                        // thread, flushed when the worker exits.
                        let mut rec = inner.recorder();
                        worker_loop(&inner, &mut rec);
                    })
                    .expect("spawn solver worker"),
            );
        }
        drop(workers);
        server
    }

    /// [`Server::new`] against the built-in engine registry.
    pub fn with_builtin_engines(cfg: ServerConfig) -> Server {
        Server::new(cfg, EngineRegistry::builtin())
    }

    /// Serves one transport until the peer disconnects, a `Shutdown`
    /// request is handled, or the server is shut down. Blocking — run
    /// it on the connection's thread.
    ///
    /// # Errors
    ///
    /// Transport failures ([`ServeError::Io`]); a clean peer disconnect
    /// returns `Ok(())`.
    pub(crate) fn serve_transport(&self, mut transport: impl Transport) -> Result<()> {
        // One recorder (= one trace lane) per connection loop, flushed
        // when the connection ends.
        let mut rec = self.inner.recorder();
        loop {
            match transport.recv(POLL)? {
                Received::Closed => return Ok(()),
                Received::Idle => {
                    if self.inner.closing.load(Ordering::Acquire) {
                        return Ok(());
                    }
                }
                Received::Frame(payload) => {
                    let decode = rec.enter("serve.decode");
                    let decoded = Request::decode(&payload);
                    rec.exit_with(decode, &[("bytes", payload.len() as f64)]);
                    let response = match decoded {
                        Err(e) => Response::Error {
                            message: e.to_string(),
                        },
                        Ok(request) => self.handle(request, &mut rec),
                    };
                    let closing = matches!(response, Response::ShuttingDown);
                    let encode = rec.enter("serve.encode");
                    let frame = response.encode();
                    rec.exit(encode);
                    transport.send(&frame)?;
                    if closing {
                        return Ok(());
                    }
                }
            }
        }
    }

    /// Opens an in-process connection: spawns a thread serving the
    /// server end of a `loopback_pair` and returns the client end
    /// (wrap it in a [`Client`](crate::client::Client)).
    pub fn loopback(&self) -> LoopbackTransport {
        let (client_end, server_end) = loopback_pair();
        let server = self.clone();
        let handle = std::thread::Builder::new()
            .name("amc-serve-loopback".into())
            .spawn(move || {
                let _ = server.serve_transport(server_end);
            })
            .expect("spawn loopback connection");
        self.inner.connections.lock().unwrap().push(handle);
        client_end
    }

    /// Accepts TCP connections until shutdown, serving each on its own
    /// thread. Blocking — typically the main thread of a server
    /// process.
    ///
    /// # Errors
    ///
    /// Listener configuration failures; per-connection errors are
    /// contained to their threads.
    pub fn serve_tcp(&self, listener: TcpListener) -> Result<()> {
        listener.set_nonblocking(true)?;
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        loop {
            if self.inner.closing.load(Ordering::Acquire) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let server = self.clone();
                    conns.push(
                        std::thread::Builder::new()
                            .name("amc-serve-conn".into())
                            .spawn(move || {
                                if let Ok(transport) = TcpTransport::new(stream) {
                                    let _ = server.serve_transport(transport);
                                }
                            })
                            .expect("spawn connection thread"),
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) => return Err(e.into()),
            }
        }
        for conn in conns {
            let _ = conn.join();
        }
        Ok(())
    }

    /// A point-in-time counter snapshot (same numbers as the wire
    /// `Stats` request).
    pub fn stats(&self) -> ServerStats {
        let cache = self.inner.cache.lock().unwrap();
        let c = cache.counters();
        ServerStats {
            hits: c.hits,
            misses: c.misses,
            evictions: c.evictions,
            insertions: c.insertions,
            entries: cache.len() as u64,
            capacity: cache.capacity() as u64,
            requests: self.inner.counters.requests.get(),
            solved_rhs: self.inner.counters.solved_rhs.get(),
            dispatch_batches: self.inner.counters.dispatch_batches.get(),
            coalesced_requests: self.inner.counters.coalesced_requests.get(),
            staleness_evictions: self.inner.counters.staleness_evictions.get(),
            degraded_served: self.inner.counters.degraded_served.get(),
        }
    }

    /// A point-in-time snapshot of the full metrics surface: every
    /// `serve.*` counter and latency histogram, with the cache counters
    /// mirrored in under `cache.*`. This is the queryable surface
    /// behind `repro serve --metrics`; [`Server::stats`] remains the
    /// frozen wire subset.
    pub fn metrics(&self) -> MetricsSnapshot {
        {
            let cache = self.inner.cache.lock().unwrap();
            let c = cache.counters();
            self.inner.metrics.counter("cache.hits").set(c.hits);
            self.inner.metrics.counter("cache.misses").set(c.misses);
            self.inner
                .metrics
                .counter("cache.evictions")
                .set(c.evictions);
            self.inner
                .metrics
                .counter("cache.insertions")
                .set(c.insertions);
            self.inner
                .metrics
                .gauge("cache.entries")
                .set(cache.len() as f64);
            self.inner
                .metrics
                .gauge("cache.capacity")
                .set(cache.capacity() as f64);
        }
        self.inner
            .metrics
            .gauge("serve.queued_rhs")
            .set(self.queued_rhs() as f64);
        self.inner.metrics.snapshot()
    }

    /// Stops the server: wakes and joins the solver workers, then fails
    /// every still-queued job with [`ServeError::Closed`] so blocked
    /// connections (and their clients) unblock. Idempotent; called
    /// automatically by a wire `Shutdown` request and on drop.
    pub fn shutdown(&self) {
        if self.inner.shutdown_once.swap(true, Ordering::AcqRel) {
            return;
        }
        {
            let mut st = self.inner.state.lock().unwrap();
            st.shutdown = true;
            self.inner.closing.store(true, Ordering::Release);
        }
        self.inner.work.notify_all();
        let workers: Vec<_> = self.inner.workers.lock().unwrap().drain(..).collect();
        for worker in workers {
            let _ = worker.join();
        }
        // Drain after the workers are gone: everything left is work
        // nobody will do. Replying unblocks connection loops stuck in
        // submit(), which in turn lets their clients return.
        let drained: Vec<Job> = {
            let mut st = self.inner.state.lock().unwrap();
            st.ready.clear();
            st.queued_rhs = 0;
            st.pending.drain().flat_map(|(_, jobs)| jobs).collect()
        };
        for job in drained {
            let _ = job.reply.send(Err(ServeError::Closed));
        }
    }

    /// Joins every connection thread this handle spawned (loopback
    /// connections register themselves; a thread never joins itself).
    /// Call after [`shutdown`](Server::shutdown) when the connection
    /// loops must have fully exited — e.g. so their trace lanes are
    /// flushed before a [`TraceSession::drain`]. Idempotent; also runs
    /// on the last handle's drop.
    pub fn join_connections(&self) {
        let current = std::thread::current().id();
        let connections: Vec<_> = self.inner.connections.lock().unwrap().drain(..).collect();
        for conn in connections {
            if conn.thread().id() != current {
                let _ = conn.join();
            }
        }
    }

    /// Right-hand sides currently queued (the backpressure gauge the
    /// `Busy` bound compares against). Exposed for tests and benches
    /// that need to observe saturation deterministically.
    pub fn queued_rhs(&self) -> usize {
        self.inner.state.lock().unwrap().queued_rhs
    }

    // -----------------------------------------------------------------
    // Request handling (one call per decoded request).
    // -----------------------------------------------------------------

    fn handle(&self, request: Request, rec: &mut Recorder) -> Response {
        self.inner.counters.requests.inc();
        match request {
            Request::Prepare {
                matrix,
                config,
                engine,
            } => self.handle_prepare(&matrix, &config, &engine, rec),
            Request::Solve {
                matrix,
                config,
                engine,
                rhs,
                accept_degraded,
            } => {
                match self.resolve_and_submit(
                    matrix,
                    &config,
                    &engine,
                    vec![rhs],
                    accept_degraded,
                    rec,
                ) {
                    Ok((mut xs, degraded)) => Response::Solved {
                        x: xs.pop().unwrap_or_default(),
                        degraded,
                    },
                    Err(e) => error_response(e),
                }
            }
            Request::SolveBatch {
                matrix,
                config,
                engine,
                batch,
                accept_degraded,
            } => {
                if batch.is_empty() {
                    return Response::Error {
                        message: "batch must contain at least one RHS".into(),
                    };
                }
                match self.resolve_and_submit(matrix, &config, &engine, batch, accept_degraded, rec)
                {
                    Ok((xs, degraded)) => Response::SolvedBatch { xs, degraded },
                    Err(e) => error_response(e),
                }
            }
            Request::Evict {
                fingerprint,
                config,
                engine,
            } => {
                let key = CacheKey::new(fingerprint, &config, &engine);
                let found = self.inner.cache.lock().unwrap().remove(&key).is_some();
                Response::Evicted { found }
            }
            Request::Stats => Response::Stats(self.stats()),
            Request::Shutdown => {
                self.shutdown();
                Response::ShuttingDown
            }
        }
    }

    fn handle_prepare(
        &self,
        matrix: &Matrix,
        config: &SolverConfig,
        engine: &EngineRef,
        rec: &mut Recorder,
    ) -> Response {
        let fingerprint = matrix.fingerprint();
        let key = CacheKey::new(fingerprint, config, engine);
        let lookup = rec.enter("serve.lookup");
        let hit = self.inner.cache.lock().unwrap().get(&key).is_some();
        rec.exit_with(lookup, &[("hit", f64::from(hit))]);
        if hit {
            return Response::Prepared {
                fingerprint,
                hit: true,
            };
        }
        // The miss was counted by the failed get. Prepare outside the
        // cache lock — programming is the expensive step, and a
        // concurrent equal Prepare would only produce a bit-identical
        // replica (deterministic engine build from the seed), so a
        // benign double-prepare beats serializing every connection.
        let prepare = rec.enter("serve.prepare");
        let built = build_entry(&self.inner, matrix, config, engine);
        rec.exit(prepare);
        match built {
            Ok(entry) => {
                self.inner.cache.lock().unwrap().insert(key, entry);
                Response::Prepared {
                    fingerprint,
                    hit: false,
                }
            }
            Err(message) => Response::Error { message },
        }
    }

    /// Resolves a [`MatrixRef`] to a cache key — preparing inline
    /// matrices on first sight — then queues the right-hand sides and
    /// blocks for the solutions.
    ///
    /// The right-hand sides are validated against the cached solver
    /// before they are queued, so a wrong-length or non-finite one fails
    /// this request alone (with the solver's own message) instead of the
    /// coalesced batch it would have joined.
    fn resolve_and_submit(
        &self,
        matrix: MatrixRef,
        config: &SolverConfig,
        engine: &EngineRef,
        rhs: Vec<Vec<f64>>,
        accept_degraded: bool,
        rec: &mut Recorder,
    ) -> std::result::Result<(Vec<Vec<f64>>, bool), ServeError> {
        let (key, n) = match matrix {
            MatrixRef::Cached(fingerprint) => {
                let key = CacheKey::new(fingerprint, config, engine);
                let lookup = rec.enter("serve.lookup");
                let n = self.inner.cache.lock().unwrap().get(&key).map(Entry::size);
                rec.exit_with(lookup, &[("hit", f64::from(n.is_some()))]);
                match n {
                    Some(n) => (key, n),
                    None => return Err(ServeError::NotPrepared { fingerprint }),
                }
            }
            MatrixRef::Inline(m) => {
                let fingerprint = m.fingerprint();
                let key = CacheKey::new(fingerprint, config, engine);
                let lookup = rec.enter("serve.lookup");
                let hit = self.inner.cache.lock().unwrap().get(&key).is_some();
                rec.exit_with(lookup, &[("hit", f64::from(hit))]);
                if !hit {
                    let prepare = rec.enter("serve.prepare");
                    let built = build_entry(&self.inner, &m, config, engine);
                    rec.exit(prepare);
                    let entry = built.map_err(ServeError::Remote)?;
                    self.inner.cache.lock().unwrap().insert(key.clone(), entry);
                }
                (key, m.rows())
            }
        };
        validate_batch(&rhs, n).map_err(|e| ServeError::Remote(e.to_string()))?;
        self.submit(key, rhs, accept_degraded, rec)
    }

    /// Queues jobs under `key` (respecting the backpressure bound) and
    /// blocks until a worker replies.
    fn submit(
        &self,
        key: CacheKey,
        rhs: Vec<Vec<f64>>,
        accept_degraded: bool,
        rec: &mut Recorder,
    ) -> std::result::Result<(Vec<Vec<f64>>, bool), ServeError> {
        let (tx, rx) = mpsc::channel();
        {
            let mut st = self.inner.state.lock().unwrap();
            if st.shutdown {
                return Err(ServeError::Closed);
            }
            let cost = rhs.len();
            if st.queued_rhs + cost > self.inner.cfg.queue_capacity {
                self.inner.counters.busy_rejections.inc();
                return Err(ServeError::Busy);
            }
            st.queued_rhs += cost;
            let queue = st.pending.entry(key.clone()).or_default();
            let first_for_key = queue.is_empty();
            queue.push(Job {
                rhs,
                accept_degraded,
                reply: tx,
                enqueued: Instant::now(),
            });
            // A key is enqueued exactly once: if jobs were already
            // pending it is in `ready` or `active`; otherwise it joins
            // `ready` unless a worker holds it active (that worker
            // re-enqueues on release).
            if first_for_key && !st.active.contains(&key) {
                st.ready.push_back(key);
                self.inner.work.notify_one();
            }
        }
        // The coalesce wait as the connection sees it: queue entry to
        // reply, dispatch included.
        let wait = rec.enter("serve.wait");
        let reply = rx.recv().map_err(|_| ServeError::Closed);
        rec.exit(wait);
        reply?
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Only the last handle tears the server down.
        if Arc::strong_count(&self.inner) != 1 {
            return;
        }
        self.shutdown();
        self.join_connections();
    }
}

/// Maps a submit-path error to its wire response.
fn error_response(e: ServeError) -> Response {
    match e {
        ServeError::Busy => Response::Busy,
        ServeError::NotPrepared { fingerprint } => Response::NotPrepared { fingerprint },
        ServeError::Closed => Response::ShuttingDown,
        other => Response::Error {
            message: other.to_string(),
        },
    }
}

/// Builds, prepares, and (when the server ages) wraps one cache entry.
/// A free function so both the request handlers and the dispatcher's
/// staleness re-prepare path can call it.
fn build_entry(
    inner: &Inner,
    matrix: &Matrix,
    config: &SolverConfig,
    engine: &EngineRef,
) -> std::result::Result<Entry, String> {
    let built = inner
        .registry
        .build(&engine.name, engine.seed)
        .map_err(|e| e.to_string())?;
    let mut solver = BlockAmcSolver::from_config(built, config.clone());
    let prepared = solver.prepare(matrix).map_err(|e| e.to_string())?;
    let replica = prepared.replicate(1).remove(0);
    match &inner.cfg.aging {
        None => Ok(Entry::Plain(replica)),
        Some(aging) => {
            // Fingerprint-keyed seed: distinct matrices age on
            // independent streams, yet a replay of the same requests
            // degrades identically.
            let seed = aging.seed ^ matrix.fingerprint();
            AgedSolver::new(replica, matrix.clone(), aging.model, seed)
                .map(|aged| Entry::Aged(Box::new(aged)))
                .map_err(|e| e.to_string())
        }
    }
}

/// One dispatcher thread: claim a key, coalesce its queue into a
/// batch, solve, reply, release.
fn worker_loop(inner: &Inner, rec: &mut Recorder) {
    loop {
        let (key, jobs) = {
            let mut st = inner.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(key) = st.ready.pop_front() {
                    let jobs = st.pending.remove(&key).unwrap_or_default();
                    st.queued_rhs -= jobs.iter().map(|j| j.rhs.len()).sum::<usize>();
                    st.active.insert(key.clone());
                    break (key, jobs);
                }
                st = inner.work.wait(st).unwrap();
            }
        };

        // The coalesce-wait histogram closes at claim time: how long
        // each job sat queued before a worker picked its key up.
        let claimed = Instant::now();
        for job in &jobs {
            let waited = claimed.duration_since(job.enqueued);
            inner.counters.wait_us.record(waited.as_micros() as u64);
        }
        let dispatch = rec.enter("serve.dispatch");
        let total_rhs: usize = jobs.iter().map(|j| j.rhs.len()).sum();

        // Borrow the entry out of its slot under a short lock; the solve
        // runs unlocked so other keys' dispatches and all cache traffic
        // keep flowing. Lending moves no counters and heats nothing:
        // hits/misses/LFU heat are counted once per *request* at resolve
        // time, not re-counted per batch. The key sits in `active`, so no
        // other worker lends this entry concurrently.
        let lent = lend(&mut inner.cache.lock().expect(CACHE_POISONED), &key);

        match lent {
            Some(Entry::Plain(mut replica)) => {
                serve_batch(inner, &mut replica, &jobs, false);
                give_back(
                    &mut inner.cache.lock().expect(CACHE_POISONED),
                    &key,
                    Entry::Plain(replica),
                );
            }
            Some(Entry::Aged(aged)) => dispatch_aged(inner, &key, &jobs, aged),
            _ => {
                // Evicted between resolve and dispatch (tiny cache under
                // churn): the client re-prepares and retries.
                for job in &jobs {
                    let _ = job.reply.send(Err(ServeError::NotPrepared {
                        fingerprint: key.fingerprint,
                    }));
                }
            }
        }
        rec.exit_with(
            dispatch,
            &[("jobs", jobs.len() as f64), ("rhs", total_rhs as f64)],
        );

        let mut st = inner.state.lock().unwrap();
        st.active.remove(&key);
        // Jobs that arrived while the key was active: re-enqueue — they
        // form the next coalesced batch.
        if st.pending.get(&key).is_some_and(|q| !q.is_empty()) {
            st.ready.push_back(key);
            inner.work.notify_one();
        }
    }
}

/// Solves one coalesced batch on `replica` and replies to every job,
/// flagging the answers `degraded` as instructed.
fn serve_batch(inner: &Inner, replica: &mut CachedSolver, jobs: &[Job], degraded: bool) {
    let batch: Vec<Vec<f64>> = jobs.iter().flat_map(|j| j.rhs.iter().cloned()).collect();
    inner.counters.dispatch_batches.inc();
    inner.counters.coalesced_requests.add(jobs.len() as u64);
    inner.counters.batch_rhs.record(batch.len() as u64);
    let started = Instant::now();
    let solved = replica.solve_batch_parallel(&batch, inner.cfg.batch_workers.max(1));
    inner
        .counters
        .dispatch_us
        .record(started.elapsed().as_micros() as u64);
    match solved {
        Ok(xs) => {
            inner.counters.solved_rhs.add(xs.len() as u64);
            if degraded {
                inner.counters.degraded_served.add(xs.len() as u64);
            }
            let mut xs = xs.into_iter();
            for job in jobs {
                let slice: Vec<Vec<f64>> = xs.by_ref().take(job.rhs.len()).collect();
                let _ = job.reply.send(Ok((slice, degraded)));
            }
        }
        Err(e) => {
            let message = e.to_string();
            for job in jobs {
                let _ = job.reply.send(Err(ServeError::Remote(message.clone())));
            }
        }
    }
}

/// The aged dispatch round on a lent entry: probe health, decide
/// between serving as-is, serving degraded (unanimous opt-in), or
/// staleness-evicting and re-preparing — then serve, advance the entry's
/// clock one tick (serve-then-age), and put it back.
fn dispatch_aged(
    inner: &Inner,
    key: &CacheKey,
    jobs: &[Job],
    mut aged: Box<AgedSolver<Box<dyn AmcEngine>>>,
) {
    let aging = inner
        .cfg
        .aging
        .as_ref()
        .expect("aged cache entry on a server without aging config");
    let health = match aged.health() {
        Ok(h) => h,
        Err(e) => {
            let message = e.to_string();
            for job in jobs {
                let _ = job.reply.send(Err(ServeError::Remote(message.clone())));
            }
            give_back(
                &mut inner.cache.lock().expect(CACHE_POISONED),
                key,
                Entry::Aged(aged),
            );
            return;
        }
    };
    let mut degraded = false;
    let mut reprepared = false;
    if health > aging.max_residual {
        if jobs.iter().all(|j| j.accept_degraded) {
            // Every coalesced request opted in: stale-but-fast.
            degraded = true;
        } else {
            // Staleness eviction: drop the degraded entry's slot (not an
            // LFU capacity eviction — counted separately) and re-prepare
            // from the retained pristine matrix.
            inner.cache.lock().unwrap().remove(key);
            inner.counters.staleness_evictions.inc();
            match build_entry(inner, aged.matrix(), aged.replica().config(), &key.engine) {
                Ok(Entry::Aged(fresh)) => {
                    aged = fresh;
                    reprepared = true;
                }
                Ok(_) => unreachable!("aging config produces aged entries"),
                Err(message) => {
                    for job in jobs {
                        let _ = job.reply.send(Err(ServeError::Remote(message.clone())));
                    }
                    return;
                }
            }
        }
    }
    serve_batch(inner, aged.replica_mut(), jobs, degraded);
    // Serve-then-age: the batch above saw the state the previous round
    // left behind; only now does the clock tick.
    let aged_ok = aged.advance(1).is_ok();
    let mut cache = inner.cache.lock().unwrap();
    if !aged_ok {
        // Aging the arrays failed (engine programming error) part way,
        // so the solver's state is neither this tick's nor the last:
        // drop it and release its slot, as an eviction would.
        if let Some(Entry::Lent { .. }) = cache.peek_mut(key) {
            cache.remove(key);
        }
    } else if reprepared {
        // The degraded entry was removed above; install its healthy
        // replacement (racing Evict requests at worst re-insert a fresh
        // solver, same as a prepare racing an evict).
        cache.insert(key.clone(), Entry::Aged(aged));
    } else {
        give_back(&mut cache, key, Entry::Aged(aged));
    }
}
