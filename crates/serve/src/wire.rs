//! The framed wire protocol.
//!
//! Every message travels as one **frame**: a little-endian `u32` length
//! prefix followed by exactly that many payload bytes. Every payload
//! begins with the protocol version byte (`PROTOCOL_VERSION`) and a
//! message tag; the remaining bytes are the tag's fields, encoded with
//! the primitives below. See the crate-level documentation for the full
//! byte-by-byte layout of every message.
//!
//! ## Encoding primitives
//!
//! | type     | bytes | layout                                         |
//! |----------|-------|------------------------------------------------|
//! | `u8`     | 1     | as-is                                          |
//! | `bool`   | 1     | `0` = false, `1` = true (others are errors)    |
//! | `u32`    | 4     | little-endian                                  |
//! | `u64`    | 8     | little-endian                                  |
//! | `f64`    | 8     | IEEE-754 bit pattern, little-endian            |
//! | `str`    | 4 + n | `u32` byte length, then UTF-8 bytes            |
//! | `vec<T>` | 4 + … | `u32` element count, then each element         |
//!
//! Floats are carried as exact bit patterns, never reformatted — the
//! protocol preserves the workspace's bit-identity contract end to end
//! (`-0.0`, subnormals, and NaN payloads survive a round trip).
//!
//! The [`SolverConfig`] encoding produced by [`config_bytes`] is
//! **canonical**: equal configurations encode to equal bytes, which is
//! what lets the server use the encoded form directly as the
//! configuration component of its cache key.

use amc_linalg::Matrix;
use blockamc::converter::{Converter, IoConfig};
use blockamc::solver::SplitSearchOptions;
use blockamc::solver::{LevelIo, SignalPlan, SolverConfig, SplitRule, Stages};

use crate::error::{Result, ServeError};

/// Version byte every payload starts with; decoding any other value is
/// a [`ServeError::Protocol`].
///
/// Version 2 added degraded-mode serving: `Solve`/`SolveBatch` carry an
/// `accept_degraded` flag, `Solved`/`SolvedBatch` carry a `degraded`
/// flag, and the stats block grew `staleness_evictions` and
/// `degraded_served`.
pub(crate) const PROTOCOL_VERSION: u8 = 2;

/// Upper bound on a frame's payload length (64 MiB). A length prefix
/// beyond this is rejected before any allocation, so a corrupt or
/// hostile peer cannot make the receiver reserve unbounded memory.
pub(crate) const MAX_FRAME_LEN: usize = 64 << 20;

// ---------------------------------------------------------------------
// Primitive writers: all little-endian, appending to a Vec<u8>.
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    out.push(u8::from(v));
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_u32(out, vs.len() as u32);
    for &v in vs {
        put_f64(out, v);
    }
}

// ---------------------------------------------------------------------
// Primitive reader: a cursor over a payload slice, every read checked.
// ---------------------------------------------------------------------

/// Checked cursor over one frame's payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ServeError::protocol(format!(
                "truncated payload: wanted {n} bytes at offset {}, frame has {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ServeError::protocol(format!("invalid bool byte {v}"))),
        }
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServeError::protocol("string field is not valid UTF-8"))
    }

    fn f64s(&mut self) -> Result<Vec<f64>> {
        let n = self.u32()? as usize;
        // Each element takes 8 bytes; checking against the remaining
        // frame bounds the allocation.
        if n.saturating_mul(8) > self.buf.len() - self.pos {
            return Err(ServeError::protocol(format!(
                "vector length {n} exceeds remaining frame"
            )));
        }
        (0..n).map(|_| self.f64()).collect()
    }

    /// Asserts the payload was consumed exactly.
    fn finish(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ServeError::protocol(format!(
                "{} trailing bytes after message",
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Domain encodings: Matrix, Converter/IoConfig, SolverConfig, EngineRef.
// ---------------------------------------------------------------------

fn put_matrix(out: &mut Vec<u8>, m: &Matrix) {
    put_u64(out, m.rows() as u64);
    put_u64(out, m.cols() as u64);
    for &v in m.as_slice() {
        put_f64(out, v);
    }
}

fn read_matrix(r: &mut Reader<'_>) -> Result<Matrix> {
    let rows = r.u64()? as usize;
    let cols = r.u64()? as usize;
    let n = rows
        .checked_mul(cols)
        .ok_or_else(|| ServeError::protocol(format!("matrix dimensions {rows}x{cols} overflow")))?;
    if n.saturating_mul(8) > r.buf.len() {
        return Err(ServeError::protocol(format!(
            "matrix of {n} entries exceeds frame length"
        )));
    }
    let data = (0..n).map(|_| r.f64()).collect::<Result<Vec<f64>>>()?;
    Matrix::from_vec(rows, cols, data)
        .map_err(|e| ServeError::protocol(format!("invalid matrix: {e}")))
}

fn put_converter(out: &mut Vec<u8>, c: &Option<Converter>) {
    match c {
        None => put_u8(out, 0),
        Some(c) => {
            put_u8(out, 1);
            put_u32(out, c.bits());
            put_f64(out, c.v_range());
        }
    }
}

fn read_converter(r: &mut Reader<'_>) -> Result<Option<Converter>> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let bits = r.u32()?;
            let v_range = r.f64()?;
            Converter::new(bits, v_range)
                .map(Some)
                .map_err(|e| ServeError::protocol(format!("invalid converter: {e}")))
        }
        t => Err(ServeError::protocol(format!("unknown converter tag {t}"))),
    }
}

fn put_io(out: &mut Vec<u8>, io: &IoConfig) {
    put_converter(out, &io.dac);
    put_converter(out, &io.adc);
    put_f64(out, io.sh_droop);
}

fn read_io(r: &mut Reader<'_>) -> Result<IoConfig> {
    Ok(IoConfig {
        dac: read_converter(r)?,
        adc: read_converter(r)?,
        sh_droop: r.f64()?,
    })
}

/// The canonical byte encoding of a [`SolverConfig`].
///
/// Used both on the wire (inside `Prepare`/`Solve`/… messages) and as
/// the configuration component of the server's cache key: equal
/// configurations produce equal bytes, and the encoding carries exact
/// `f64` bit patterns, so the key inherits the same bitwise-equality
/// semantics as [`Matrix::fingerprint`].
pub fn config_bytes(config: &SolverConfig) -> Vec<u8> {
    let mut out = Vec::new();
    put_config(&mut out, config);
    out
}

fn put_config(out: &mut Vec<u8>, config: &SolverConfig) {
    match config.stages() {
        Stages::Original => put_u8(out, 0),
        Stages::One => put_u8(out, 1),
        Stages::Two => put_u8(out, 2),
        Stages::Multi(d) => {
            put_u8(out, 3);
            put_u32(out, d as u32);
        }
    }
    match config.split_rule() {
        SplitRule::Halves => put_u8(out, 0),
        SplitRule::Searched(opts) => {
            put_u8(out, 1);
            put_f64(out, opts.imbalance_weight);
        }
    }
    put_bool(out, config.capture_trace());
    let levels = config.signal_plan().levels();
    put_u32(out, levels.len() as u32);
    for level in levels {
        match level {
            LevelIo::Pure => put_u8(out, 0),
            LevelIo::Macro(io) => {
                put_u8(out, 1);
                put_io(out, io);
            }
            LevelIo::Bus(io) => {
                put_u8(out, 2);
                put_io(out, io);
            }
        }
    }
}

fn read_config(r: &mut Reader<'_>) -> Result<SolverConfig> {
    let stages = match r.u8()? {
        0 => Stages::Original,
        1 => Stages::One,
        2 => Stages::Two,
        3 => Stages::Multi(r.u32()? as usize),
        t => return Err(ServeError::protocol(format!("unknown stages tag {t}"))),
    };
    let split = match r.u8()? {
        0 => SplitRule::Halves,
        1 => SplitRule::Searched(SplitSearchOptions {
            imbalance_weight: r.f64()?,
        }),
        t => return Err(ServeError::protocol(format!("unknown split tag {t}"))),
    };
    let capture_trace = r.bool()?;
    let n_levels = r.u32()? as usize;
    if n_levels > r.buf.len() - r.pos {
        return Err(ServeError::protocol(format!(
            "signal plan of {n_levels} levels exceeds remaining frame"
        )));
    }
    let mut levels = Vec::with_capacity(n_levels);
    for _ in 0..n_levels {
        levels.push(match r.u8()? {
            0 => LevelIo::Pure,
            1 => LevelIo::Macro(read_io(r)?),
            2 => LevelIo::Bus(read_io(r)?),
            t => return Err(ServeError::protocol(format!("unknown level tag {t}"))),
        });
    }
    // The builder re-validates, so a nonsensical decoded configuration
    // (e.g. Multi(0), converter entries below the cascade) is rejected
    // here rather than detonating inside the solver.
    SolverConfig::builder()
        .stages(stages)
        .split_rule(split)
        .capture_trace(capture_trace)
        .signal_plan(SignalPlan::from_levels(levels))
        .finish()
        .map_err(|e| ServeError::protocol(format!("invalid solver config: {e}")))
}

/// A reference to an engine backend, resolved against the server's
/// [`EngineRegistry`](blockamc::engine::EngineRegistry): the registry
/// name plus the deterministic build seed. Together with the matrix
/// fingerprint and the configuration bytes this is the third component
/// of the cache key — the same matrix prepared on `"numeric"` and on
/// `"circuit"` are different cached solvers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EngineRef {
    /// Registry name of the backend (e.g. `"numeric"`, `"circuit"`).
    pub name: String,
    /// Seed passed to the registry constructor; replays bit-identically.
    pub seed: u64,
}

impl EngineRef {
    /// Creates a reference from anything string-like.
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        EngineRef {
            name: name.into(),
            seed,
        }
    }
}

fn put_engine(out: &mut Vec<u8>, e: &EngineRef) {
    put_str(out, &e.name);
    put_u64(out, e.seed);
}

fn read_engine(r: &mut Reader<'_>) -> Result<EngineRef> {
    Ok(EngineRef {
        name: r.str()?,
        seed: r.u64()?,
    })
}

/// How a solve names its matrix: inline (the server prepares and caches
/// it on first sight) or by [`Matrix::fingerprint`] of a matrix some
/// earlier request already prepared.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixRef {
    /// The full matrix travels in the frame.
    Inline(Matrix),
    /// Only the 64-bit fingerprint travels; the server answers
    /// [`Response::NotPrepared`] if no solver is cached under it.
    Cached(u64),
}

fn put_matrix_ref(out: &mut Vec<u8>, m: &MatrixRef) {
    match m {
        MatrixRef::Inline(matrix) => {
            put_u8(out, 0);
            put_matrix(out, matrix);
        }
        MatrixRef::Cached(fp) => {
            put_u8(out, 1);
            put_u64(out, *fp);
        }
    }
}

fn read_matrix_ref(r: &mut Reader<'_>) -> Result<MatrixRef> {
    match r.u8()? {
        0 => Ok(MatrixRef::Inline(read_matrix(r)?)),
        1 => Ok(MatrixRef::Cached(r.u64()?)),
        t => Err(ServeError::protocol(format!("unknown matrix-ref tag {t}"))),
    }
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Program `matrix` on `engine` under `config` and cache the
    /// prepared solver. Answered by [`Response::Prepared`] (with
    /// `hit = true` when an equal key was already cached and nothing
    /// was programmed).
    Prepare {
        /// The coefficient matrix to prepare.
        matrix: Matrix,
        /// Solver architecture/signal-path configuration.
        config: SolverConfig,
        /// Engine backend to program the arrays on.
        engine: EngineRef,
    },
    /// Solve one right-hand side against a cached (or inline) matrix.
    /// Answered by [`Response::Solved`], [`Response::Busy`], or
    /// [`Response::NotPrepared`].
    Solve {
        /// The matrix, inline or by fingerprint.
        matrix: MatrixRef,
        /// Solver configuration (part of the cache key).
        config: SolverConfig,
        /// Engine backend (part of the cache key).
        engine: EngineRef,
        /// The right-hand side `b` of `A·x = b`.
        rhs: Vec<f64>,
        /// Opt in to a stale-but-fast answer: when the server's health
        /// monitor flags the cached solver as degraded, serve it anyway
        /// (flagged `degraded = true` in the response) instead of
        /// evicting and re-preparing. Ignored on servers without aging.
        accept_degraded: bool,
    },
    /// Solve many right-hand sides in one request. Answered by
    /// [`Response::SolvedBatch`] with solutions in input order.
    SolveBatch {
        /// The matrix, inline or by fingerprint.
        matrix: MatrixRef,
        /// Solver configuration (part of the cache key).
        config: SolverConfig,
        /// Engine backend (part of the cache key).
        engine: EngineRef,
        /// The right-hand sides, each of length `n`.
        batch: Vec<Vec<f64>>,
        /// Same stale-but-fast opt-in as [`Request::Solve`].
        accept_degraded: bool,
    },
    /// Drop the cached solver under this exact key, if present.
    /// Answered by [`Response::Evicted`].
    Evict {
        /// Fingerprint of the prepared matrix.
        fingerprint: u64,
        /// Configuration component of the key.
        config: SolverConfig,
        /// Engine component of the key.
        engine: EngineRef,
    },
    /// Read the server's counters. Answered by [`Response::Stats`].
    Stats,
    /// Stop the server: in-flight work is failed out, every connection
    /// unblocks. Answered by [`Response::ShuttingDown`].
    Shutdown,
}

const REQ_PREPARE: u8 = 0;
const REQ_SOLVE: u8 = 1;
const REQ_SOLVE_BATCH: u8 = 2;
const REQ_EVICT: u8 = 3;
const REQ_STATS: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;

impl Request {
    /// Encodes this request into a frame payload (version byte, tag,
    /// fields — without the length prefix, which the transport adds).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![PROTOCOL_VERSION];
        match self {
            Request::Prepare {
                matrix,
                config,
                engine,
            } => {
                put_u8(&mut out, REQ_PREPARE);
                put_matrix(&mut out, matrix);
                put_config(&mut out, config);
                put_engine(&mut out, engine);
            }
            Request::Solve {
                matrix,
                config,
                engine,
                rhs,
                accept_degraded,
            } => {
                put_u8(&mut out, REQ_SOLVE);
                put_matrix_ref(&mut out, matrix);
                put_config(&mut out, config);
                put_engine(&mut out, engine);
                put_f64s(&mut out, rhs);
                put_bool(&mut out, *accept_degraded);
            }
            Request::SolveBatch {
                matrix,
                config,
                engine,
                batch,
                accept_degraded,
            } => {
                put_u8(&mut out, REQ_SOLVE_BATCH);
                put_matrix_ref(&mut out, matrix);
                put_config(&mut out, config);
                put_engine(&mut out, engine);
                put_u32(&mut out, batch.len() as u32);
                for rhs in batch {
                    put_f64s(&mut out, rhs);
                }
                put_bool(&mut out, *accept_degraded);
            }
            Request::Evict {
                fingerprint,
                config,
                engine,
            } => {
                put_u8(&mut out, REQ_EVICT);
                put_u64(&mut out, *fingerprint);
                put_config(&mut out, config);
                put_engine(&mut out, engine);
            }
            Request::Stats => put_u8(&mut out, REQ_STATS),
            Request::Shutdown => put_u8(&mut out, REQ_SHUTDOWN),
        }
        out
    }

    /// Decodes a frame payload into a request.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] for a wrong version byte, an unknown
    /// tag, a truncated or over-long payload, or a field that fails
    /// domain validation (matrix shape, converter range, solver
    /// configuration).
    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut r = Reader::new(payload);
        check_version(&mut r)?;
        let req = match r.u8()? {
            REQ_PREPARE => Request::Prepare {
                matrix: read_matrix(&mut r)?,
                config: read_config(&mut r)?,
                engine: read_engine(&mut r)?,
            },
            REQ_SOLVE => Request::Solve {
                matrix: read_matrix_ref(&mut r)?,
                config: read_config(&mut r)?,
                engine: read_engine(&mut r)?,
                rhs: r.f64s()?,
                accept_degraded: r.bool()?,
            },
            REQ_SOLVE_BATCH => {
                let matrix = read_matrix_ref(&mut r)?;
                let config = read_config(&mut r)?;
                let engine = read_engine(&mut r)?;
                let k = r.u32()? as usize;
                if k > r.buf.len() - r.pos {
                    return Err(ServeError::protocol(format!(
                        "batch of {k} right-hand sides exceeds remaining frame"
                    )));
                }
                let batch = (0..k).map(|_| r.f64s()).collect::<Result<Vec<_>>>()?;
                Request::SolveBatch {
                    matrix,
                    config,
                    engine,
                    batch,
                    accept_degraded: r.bool()?,
                }
            }
            REQ_EVICT => Request::Evict {
                fingerprint: r.u64()?,
                config: read_config(&mut r)?,
                engine: read_engine(&mut r)?,
            },
            REQ_STATS => Request::Stats,
            REQ_SHUTDOWN => Request::Shutdown,
            t => return Err(ServeError::protocol(format!("unknown request tag {t}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

fn check_version(r: &mut Reader<'_>) -> Result<()> {
    match r.u8()? {
        PROTOCOL_VERSION => Ok(()),
        v => Err(ServeError::protocol(format!(
            "unsupported protocol version {v} (this build speaks {PROTOCOL_VERSION})"
        ))),
    }
}

// ---------------------------------------------------------------------
// Responses.
// ---------------------------------------------------------------------

/// Cache and throughput counters, as reported by [`Request::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Cache fetches that found a prepared solver.
    pub hits: u64,
    /// Cache fetches that found nothing (followed by a prepare+insert
    /// on the solve path).
    pub misses: u64,
    /// Entries displaced by the LFU policy to stay within capacity.
    pub evictions: u64,
    /// Prepared solvers inserted into the cache.
    pub insertions: u64,
    /// Prepared solvers currently cached.
    pub entries: u64,
    /// Maximum number of cached solvers.
    pub capacity: u64,
    /// Requests decoded and accepted across all connections.
    pub requests: u64,
    /// Right-hand sides solved to completion.
    pub solved_rhs: u64,
    /// Dispatcher rounds: each drains every queued job for one cache
    /// key into a single engine batch.
    pub dispatch_batches: u64,
    /// Jobs (requests) folded into those rounds; `coalesced_requests /
    /// dispatch_batches` > 1 means concurrent requests shared batches.
    pub coalesced_requests: u64,
    /// Cached solvers dropped because the health monitor found them
    /// degraded past the staleness threshold (disjoint from the LFU
    /// capacity `evictions`).
    pub staleness_evictions: u64,
    /// Right-hand sides served from a degraded solver because every
    /// coalesced request opted in with `accept_degraded`.
    pub degraded_served: u64,
}

fn put_stats(out: &mut Vec<u8>, s: &ServerStats) {
    for v in [
        s.hits,
        s.misses,
        s.evictions,
        s.insertions,
        s.entries,
        s.capacity,
        s.requests,
        s.solved_rhs,
        s.dispatch_batches,
        s.coalesced_requests,
        s.staleness_evictions,
        s.degraded_served,
    ] {
        put_u64(out, v);
    }
}

fn read_stats(r: &mut Reader<'_>) -> Result<ServerStats> {
    Ok(ServerStats {
        hits: r.u64()?,
        misses: r.u64()?,
        evictions: r.u64()?,
        insertions: r.u64()?,
        entries: r.u64()?,
        capacity: r.u64()?,
        requests: r.u64()?,
        solved_rhs: r.u64()?,
        dispatch_batches: r.u64()?,
        coalesced_requests: r.u64()?,
        staleness_evictions: r.u64()?,
        degraded_served: r.u64()?,
    })
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A `Prepare` completed (or was already satisfied by the cache).
    Prepared {
        /// Fingerprint of the prepared matrix — use it in
        /// [`MatrixRef::Cached`] solves.
        fingerprint: u64,
        /// `true` when an equal key was already cached.
        hit: bool,
    },
    /// A `Solve` completed.
    Solved {
        /// The solution `x` of `A·x = b`.
        x: Vec<f64>,
        /// `true` when the answer came from a solver the health monitor
        /// had flagged as degraded (only possible when the request set
        /// `accept_degraded`).
        degraded: bool,
    },
    /// A `SolveBatch` completed.
    SolvedBatch {
        /// One solution per right-hand side, in input order.
        xs: Vec<Vec<f64>>,
        /// Same degraded-origin flag as [`Response::Solved`].
        degraded: bool,
    },
    /// An `Evict` completed.
    Evicted {
        /// Whether the key was present.
        found: bool,
    },
    /// A `Stats` snapshot.
    Stats(ServerStats),
    /// The pending queue was full; the request was **not** queued.
    Busy,
    /// A `Cached` solve named a fingerprint with no cached solver.
    NotPrepared {
        /// The fingerprint the request referenced.
        fingerprint: u64,
    },
    /// Acknowledges a `Shutdown`; no further requests will be served.
    ShuttingDown,
    /// Solver-side failure (engine build, preparation, or solve error).
    Error {
        /// Human-readable description of the failure.
        message: String,
    },
}

const RESP_PREPARED: u8 = 0;
const RESP_SOLVED: u8 = 1;
const RESP_SOLVED_BATCH: u8 = 2;
const RESP_EVICTED: u8 = 3;
const RESP_STATS: u8 = 4;
const RESP_BUSY: u8 = 5;
const RESP_NOT_PREPARED: u8 = 6;
const RESP_SHUTTING_DOWN: u8 = 7;
const RESP_ERROR: u8 = 8;

impl Response {
    /// Encodes this response into a frame payload (without the length
    /// prefix, which the transport adds).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = vec![PROTOCOL_VERSION];
        match self {
            Response::Prepared { fingerprint, hit } => {
                put_u8(&mut out, RESP_PREPARED);
                put_u64(&mut out, *fingerprint);
                put_bool(&mut out, *hit);
            }
            Response::Solved { x, degraded } => {
                put_u8(&mut out, RESP_SOLVED);
                put_f64s(&mut out, x);
                put_bool(&mut out, *degraded);
            }
            Response::SolvedBatch { xs, degraded } => {
                put_u8(&mut out, RESP_SOLVED_BATCH);
                put_u32(&mut out, xs.len() as u32);
                for x in xs {
                    put_f64s(&mut out, x);
                }
                put_bool(&mut out, *degraded);
            }
            Response::Evicted { found } => {
                put_u8(&mut out, RESP_EVICTED);
                put_bool(&mut out, *found);
            }
            Response::Stats(s) => {
                put_u8(&mut out, RESP_STATS);
                put_stats(&mut out, s);
            }
            Response::Busy => put_u8(&mut out, RESP_BUSY),
            Response::NotPrepared { fingerprint } => {
                put_u8(&mut out, RESP_NOT_PREPARED);
                put_u64(&mut out, *fingerprint);
            }
            Response::ShuttingDown => put_u8(&mut out, RESP_SHUTTING_DOWN),
            Response::Error { message } => {
                put_u8(&mut out, RESP_ERROR);
                put_str(&mut out, message);
            }
        }
        out
    }

    /// Decodes a frame payload into a response.
    ///
    /// # Errors
    ///
    /// [`ServeError::Protocol`] under the same conditions as
    /// [`Request::decode`].
    pub(crate) fn decode(payload: &[u8]) -> Result<Response> {
        let mut r = Reader::new(payload);
        check_version(&mut r)?;
        let resp = match r.u8()? {
            RESP_PREPARED => Response::Prepared {
                fingerprint: r.u64()?,
                hit: r.bool()?,
            },
            RESP_SOLVED => Response::Solved {
                x: r.f64s()?,
                degraded: r.bool()?,
            },
            RESP_SOLVED_BATCH => {
                let k = r.u32()? as usize;
                if k > r.buf.len() - r.pos {
                    return Err(ServeError::protocol(format!(
                        "batch of {k} solutions exceeds remaining frame"
                    )));
                }
                let xs = (0..k).map(|_| r.f64s()).collect::<Result<Vec<_>>>()?;
                Response::SolvedBatch {
                    xs,
                    degraded: r.bool()?,
                }
            }
            RESP_EVICTED => Response::Evicted { found: r.bool()? },
            RESP_STATS => Response::Stats(read_stats(&mut r)?),
            RESP_BUSY => Response::Busy,
            RESP_NOT_PREPARED => Response::NotPrepared {
                fingerprint: r.u64()?,
            },
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_ERROR => Response::Error { message: r.str()? },
            t => return Err(ServeError::protocol(format!("unknown response tag {t}"))),
        };
        r.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blockamc::converter::IoConfig;

    fn sample_matrix() -> Matrix {
        Matrix::from_vec(2, 2, vec![3.0, 1.0, 1.0, 2.0]).unwrap()
    }

    fn sample_config() -> SolverConfig {
        SolverConfig::builder()
            .stages(Stages::One)
            .io(IoConfig::default_8bit())
            .split_rule(SplitRule::Searched(SplitSearchOptions {
                imbalance_weight: 2.5,
            }))
            .capture_trace(false)
            .finish()
            .unwrap()
    }

    fn requests() -> Vec<Request> {
        let engine = EngineRef::new("numeric", 7);
        vec![
            Request::Prepare {
                matrix: sample_matrix(),
                config: sample_config(),
                engine: engine.clone(),
            },
            Request::Solve {
                matrix: MatrixRef::Cached(0xdead_beef_cafe_f00d),
                config: sample_config(),
                engine: engine.clone(),
                rhs: vec![4.0, -0.0],
                accept_degraded: true,
            },
            Request::SolveBatch {
                matrix: MatrixRef::Inline(sample_matrix()),
                config: sample_config(),
                engine: engine.clone(),
                batch: vec![vec![1.0, 2.0], vec![f64::MIN_POSITIVE, -3.5]],
                accept_degraded: false,
            },
            Request::Evict {
                fingerprint: 42,
                config: sample_config(),
                engine,
            },
            Request::Stats,
            Request::Shutdown,
        ]
    }

    fn responses() -> Vec<Response> {
        vec![
            Response::Prepared {
                fingerprint: 99,
                hit: true,
            },
            Response::Solved {
                x: vec![1.0, -0.0, f64::NEG_INFINITY],
                degraded: false,
            },
            Response::SolvedBatch {
                xs: vec![vec![0.5], vec![-0.25]],
                degraded: true,
            },
            Response::Evicted { found: false },
            Response::Stats(ServerStats {
                hits: 1,
                misses: 2,
                evictions: 3,
                insertions: 4,
                entries: 5,
                capacity: 6,
                requests: 7,
                solved_rhs: 8,
                dispatch_batches: 9,
                coalesced_requests: 10,
                staleness_evictions: 11,
                degraded_served: 12,
            }),
            Response::Busy,
            Response::NotPrepared { fingerprint: 7 },
            Response::ShuttingDown,
            Response::Error {
                message: "boom".into(),
            },
        ]
    }

    #[test]
    fn every_request_round_trips() {
        for req in requests() {
            let bytes = req.encode();
            assert_eq!(bytes[0], PROTOCOL_VERSION);
            assert_eq!(Request::decode(&bytes).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn every_response_round_trips() {
        for resp in responses() {
            let bytes = resp.encode();
            assert_eq!(bytes[0], PROTOCOL_VERSION);
            assert_eq!(Response::decode(&bytes).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn golden_frame_bytes_are_pinned() {
        // The exact bytes of two simple messages, spelled out. A change
        // here is a wire-format break and must bump PROTOCOL_VERSION
        // (version 2 added the degraded-serving fields).
        assert_eq!(Request::Stats.encode(), [2, 4]);
        assert_eq!(Response::Busy.encode(), [2, 5]);
        let solved = Response::Solved {
            x: vec![1.0, -2.0],
            degraded: false,
        };
        let mut expected = vec![
            2, // version
            1, // tag: Solved
            2, 0, 0, 0, // vec length, u32 LE
        ];
        expected.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
        expected.extend_from_slice(&(-2.0f64).to_bits().to_le_bytes());
        expected.push(0); // degraded = false
        assert_eq!(solved.encode(), expected);
        // NotPrepared: version, tag 6, fingerprint u64 LE.
        let np = Response::NotPrepared {
            fingerprint: 0x0102_0304_0506_0708,
        };
        assert_eq!(
            np.encode(),
            [2, 6, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01]
        );
    }

    #[test]
    fn float_bit_patterns_survive_the_round_trip() {
        let weird = vec![-0.0, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE, 1e-308];
        let resp = Response::Solved {
            x: weird.clone(),
            degraded: false,
        };
        let Response::Solved { x, .. } = Response::decode(&resp.encode()).unwrap() else {
            panic!("wrong variant");
        };
        let bits: Vec<u64> = x.iter().map(|v| v.to_bits()).collect();
        let expected: Vec<u64> = weird.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expected);
    }

    #[test]
    fn config_bytes_are_canonical() {
        // Equal configs encode equal bytes (the cache-key contract)...
        assert_eq!(
            config_bytes(&sample_config()),
            config_bytes(&sample_config())
        );
        // ...and different configs differ.
        let other = SolverConfig::builder()
            .stages(Stages::Two)
            .finish()
            .unwrap();
        assert_ne!(config_bytes(&sample_config()), config_bytes(&other));
    }

    #[test]
    fn malformed_frames_are_rejected_not_panicked_on() {
        // Empty payload.
        assert!(Request::decode(&[]).is_err());
        // Wrong version (the retired version 1 included).
        assert!(Request::decode(&[1, 4]).is_err());
        assert!(Request::decode(&[3, 4]).is_err());
        // Unknown tags.
        assert!(Request::decode(&[2, 200]).is_err());
        assert!(Response::decode(&[2, 200]).is_err());
        // Truncation at every prefix of a real message must error, never
        // panic or loop.
        let bytes = requests()
            .into_iter()
            .find_map(|r| match r {
                Request::SolveBatch { .. } => Some(r.encode()),
                _ => None,
            })
            .unwrap();
        for cut in 0..bytes.len() {
            assert!(Request::decode(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        // Trailing garbage is an error too.
        let mut long = Request::Stats.encode();
        long.push(0);
        assert!(Request::decode(&long).is_err());
        // A vector length lying about the remaining frame is caught
        // before allocation.
        let mut lying = vec![PROTOCOL_VERSION, RESP_SOLVED];
        lying.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Response::decode(&lying).is_err());
    }
}
