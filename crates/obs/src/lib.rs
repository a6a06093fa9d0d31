//! `amc-obs`: structured tracing, metrics, and profiling hooks for the
//! BlockAMC reproduction stack.
//!
//! The crate is deliberately std-only so every layer of the workspace
//! (core solver, serve, scenario, bench) can depend on it without pulling
//! in a heavyweight tracing framework. It provides two pillars:
//!
//! 1. **Hierarchical span tracing** ([`TraceSession`] / [`Recorder`]).
//!    A session hands out per-worker recorders; each recorder owns its
//!    append-only event lane exclusively, so the hot path takes **no
//!    locks** and reads the monotonic clock only at span boundaries
//!    ([`Recorder::enter`] / [`Recorder::exit`]). Drained spans export as
//!    Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`)
//!    via [`Trace::chrome_trace_json`] or as a text flame tree via
//!    [`Trace::flame_tree`].
//!
//! 2. **A metrics registry** ([`Registry`]). Named [`Counter`]s,
//!    [`Gauge`]s, and fixed-log-bucket latency [`Histogram`]s with
//!    nearest-rank p50/p95/p99 extraction, snapshotted into one sorted,
//!    queryable surface.
//!
//! # Bit-identity guarantee
//!
//! Instrumentation is strictly read-only with respect to the numerics:
//! enabling tracing or metrics never changes what is computed, only what
//! is *observed*. Solves with tracing on are bit-identical to tracing
//! off at any worker count; the workspace pins this with proptests. The
//! disabled recorder ([`Recorder::disabled`]) is a `None` branch behind
//! `#[inline]` calls — no clock reads, no allocation, no atomics — so
//! leaving the hooks compiled in costs nothing when tracing is off.
//!
//! # Example
//!
//! ```
//! use amc_obs::{Registry, TraceSession};
//!
//! let session = TraceSession::new();
//! let mut rec = session.recorder();
//! let span = rec.enter("solve");
//! let inner = rec.enter("engine.inv");
//! rec.exit_with(inner, &[("n", 16.0)]);
//! rec.exit(span);
//! drop(rec); // flush the lane back to the session
//!
//! let trace = session.drain();
//! assert_eq!(trace.events().len(), 2);
//! let json = trace.chrome_trace_json();
//! assert!(json.contains("\"ph\":\"X\""));
//!
//! let reg = Registry::new();
//! reg.counter("requests").inc();
//! let hist = reg.histogram("latency_us");
//! hist.record(120);
//! hist.record(450);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("requests"), 1);
//! assert!(snap.get("latency_us").is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod sink;
mod span;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSummary, MetricValue, MetricsSnapshot, Registry,
    SnapshotEntry,
};
pub use span::{Recorder, SpanEvent, SpanToken, Trace, TraceSession};
