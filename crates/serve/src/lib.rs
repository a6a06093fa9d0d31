//! # amc-serve — solver as a service
//!
//! The paper's economics are asymmetric: *programming* a matrix into
//! analog arrays is expensive, *solving* against programmed arrays is
//! cheap. Inside one process the `prepare`/`solve` split of
//! [`blockamc::solver`] already amortizes programming across
//! right-hand sides; this crate amortizes it across **clients and
//! time**. A long-running server keeps hot prepared solvers in a
//! capacity-bounded LFU cache, coalesces concurrent requests against
//! the same solver into shared engine batches, and answers over a
//! small framed wire protocol — turning array programming into a
//! one-time capital expense and making throughput, hit-rate, and tail
//! latency first-class, benchmarkable quantities.
//!
//! * [`wire`] — the versioned binary protocol (requests, responses,
//!   canonical [`SolverConfig`](blockamc::solver::SolverConfig)
//!   encoding).
//! * `cache` — the O(1) frequency-bucket LFU keyed by
//!   `(matrix fingerprint, config bytes, engine name + seed)`.
//! * [`server`] — the [`Transport`](server::Transport) abstraction
//!   (TCP + in-process loopback), the coalescing dispatcher, and
//!   backpressure.
//! * [`client`] — the blocking request/response client.
//! * [`loadgen`] — the deterministic workload generators (diagonally
//!   dominant matrices and right-hand-side streams) the benchmark and
//!   `repro trace` drive the server with.
//!
//! With [`ServerConfig::aging`](server::ServerConfig::aging) set, every
//! cached solver additionally ages under a device lifetime model
//! ([`blockamc::aging`]): its virtual clock advances one tick per
//! dispatch round, the dispatcher probes its health (sentinel residual)
//! before serving, and an entry degraded past the threshold is either
//! served stale — when every coalesced request opted in with
//! `accept_degraded`, flagged `degraded` in the response — or evicted
//! (the `staleness_evictions` counter, disjoint from LFU capacity
//! `evictions`) and re-prepared fresh before serving.
//!
//! Results are **bit-identical** to calling
//! [`PreparedSolver::solve`](blockamc::solver::PreparedSolver::solve)
//! directly: floats cross the wire as exact bit patterns, cached
//! replicas inherit the prepare-time variation draw bitwise, and batch
//! sharding is worker-count-invariant. The end-to-end tests assert
//! equality with `==` on `f64`s, not with tolerances.
//!
//! ## Frame format, byte by byte
//!
//! Every message is one **frame** on the transport:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length N, u32 little-endian (≤ 64 MiB)
//! 4       N     payload
//! ```
//!
//! (The in-process loopback transport carries the payload as one
//! message and drops the length prefix; TCP needs it to find frame
//! boundaries in the byte stream.)
//!
//! Every **payload** starts:
//!
//! ```text
//! offset  size  field
//! 0       1     protocol version, currently 2
//! 1       1     message tag
//! 2       …     tag-specific fields, packed in order, no padding
//! ```
//!
//! (Version 2 added degraded-mode serving: the `accept_degraded` /
//! `degraded` flags on solves and the two trailing stats counters.)
//!
//! All multi-byte integers are little-endian; `f64` travels as its
//! IEEE-754 bit pattern in a `u64` (bit-exact — `-0.0`, subnormals,
//! and NaN payloads survive). A `str` is a `u32` byte length followed
//! by UTF-8 bytes; a vector is a `u32` element count followed by its
//! elements.
//!
//! ### Composite encodings
//!
//! ```text
//! matrix      := rows u64 · cols u64 · rows*cols f64 (row-major)
//! matrix_ref  := 0x00 · matrix            (inline)
//!              | 0x01 · fingerprint u64   (cached)
//! converter   := 0x00                     (None)
//!              | 0x01 · bits u32 · v_range f64
//! io          := dac converter · adc converter · sh_droop f64
//! level       := 0x00                     (Pure)
//!              | 0x01 · io                (Macro)
//!              | 0x02 · io                (Bus)
//! config      := stages · split · capture_trace u8 · level_count u32 · level*
//!   stages    := 0x00 | 0x01 | 0x02 | 0x03 · depth u32
//!                (Original, One, Two, Multi(depth))
//!   split     := 0x00 | 0x01 · imbalance_weight f64
//!                (Halves, Searched)
//! engine_ref  := name str · seed u64
//! ```
//!
//! The `config` encoding is **canonical** (equal configs ⇒ equal
//! bytes), so the server uses it directly as the configuration
//! component of its cache key — see [`wire::config_bytes`].
//!
//! ### Requests (client → server)
//!
//! ```text
//! tag  message     fields after the tag byte
//! 0    Prepare     matrix · config · engine_ref
//! 1    Solve       matrix_ref · config · engine_ref · rhs vec<f64> ·
//!                  accept_degraded u8
//! 2    SolveBatch  matrix_ref · config · engine_ref · count u32 ·
//!                  (vec<f64>)* · accept_degraded u8
//! 3    Evict       fingerprint u64 · config · engine_ref
//! 4    Stats       (none)
//! 5    Shutdown    (none)
//! ```
//!
//! ### Responses (server → client)
//!
//! ```text
//! tag  message       fields after the tag byte
//! 0    Prepared      fingerprint u64 · hit u8
//! 1    Solved        x vec<f64> · degraded u8
//! 2    SolvedBatch   count u32 · (vec<f64>)* · degraded u8
//! 3    Evicted       found u8
//! 4    Stats         12 × u64: hits, misses, evictions, insertions,
//!                    entries, capacity, requests, solved_rhs,
//!                    dispatch_batches, coalesced_requests,
//!                    staleness_evictions, degraded_served
//! 5    Busy          (none)
//! 6    NotPrepared   fingerprint u64
//! 7    ShuttingDown  (none)
//! 8    Error         message str
//! ```
//!
//! Decoders reject wrong versions, unknown tags, truncated or
//! over-long payloads, and fields that fail domain validation — with
//! [`ServeError::Protocol`], never a panic.
//!
//! ## Example
//!
//! ```
//! use amc_serve::client::Client;
//! use amc_serve::server::{Server, ServerConfig};
//! use amc_serve::wire::{EngineRef, MatrixRef};
//! use blockamc::solver::SolverConfig;
//! use amc_linalg::Matrix;
//!
//! # fn main() -> Result<(), amc_serve::ServeError> {
//! let server = Server::with_builtin_engines(ServerConfig::default());
//! let mut client = Client::new(server.loopback());
//!
//! let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]).unwrap();
//! let config = SolverConfig::builder().finish().unwrap();
//! let engine = EngineRef::new("numeric", 0);
//!
//! let (fp, hit) = client.prepare(&a, &config, &engine)?;
//! assert!(!hit);
//! // Solve by fingerprint: the matrix never crosses the wire again.
//! let x = client.solve(MatrixRef::Cached(fp), &config, &engine, &[4.0, 3.0])?;
//! assert!((x[0] - 1.0).abs() < 1e-10 && (x[1] - 1.0).abs() < 1e-10);
//! assert_eq!(client.stats()?.hits, 1);
//! client.shutdown()?;
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod cache;
pub mod client;
pub(crate) mod error;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use error::{Result, ServeError};
