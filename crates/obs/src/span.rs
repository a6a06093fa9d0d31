//! Hierarchical span tracing: sessions, per-worker recorders, and the
//! drained [`Trace`].

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default per-lane event capacity. Spans past this bound are counted
/// (see [`Trace::dropped`]) rather than recorded, keeping memory bounded
/// for long-running sessions.
const DEFAULT_LANE_CAPACITY: usize = 1 << 16;

/// One completed span: a named, nested interval on a worker's timeline.
///
/// Timestamps are nanoseconds since the owning [`TraceSession`]'s epoch
/// (the instant the session was created), read from the monotonic clock
/// only at span entry and exit.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Static span name, e.g. `"solve"` or `"engine.inv"`.
    pub name: &'static str,
    /// Worker lane the span was recorded on (0-based, per session).
    pub worker: u32,
    /// Nanoseconds from session epoch to span entry.
    pub start_ns: u64,
    /// Nanoseconds from session epoch to span exit. `end_ns >= start_ns`.
    pub end_ns: u64,
    /// Nesting depth at entry (0 = top-level span on this lane).
    pub depth: u16,
    /// Optional numeric annotations attached at exit, e.g. op counts.
    pub args: Vec<(&'static str, f64)>,
}

impl SpanEvent {
    /// Span duration in nanoseconds.
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-worker event lane. Owned exclusively by one [`Recorder`] while
/// live; flushed into the session when the recorder drops.
#[derive(Debug)]
struct Lane {
    worker: u32,
    events: Vec<SpanEvent>,
    dropped: u64,
}

#[derive(Debug)]
struct SessionInner {
    t0: Instant,
    lane_capacity: usize,
    next_worker: AtomicU32,
    flushed: Mutex<Vec<Lane>>,
}

/// A tracing session: the epoch clock plus the collection point for
/// per-worker lanes.
///
/// Cheap to clone (`Arc` inside). Hand out one [`Recorder`] per worker
/// via [`TraceSession::recorder`]; recorders flush their lanes back here
/// on drop (or [`Recorder::flush`]), and [`TraceSession::drain`] merges
/// everything flushed so far into a [`Trace`].
#[derive(Debug, Clone)]
pub struct TraceSession {
    inner: Arc<SessionInner>,
}

impl TraceSession {
    /// New session with the default per-lane capacity.
    pub fn new() -> Self {
        Self::with_lane_capacity(DEFAULT_LANE_CAPACITY)
    }

    /// New session bounding each worker lane to `capacity` events; spans
    /// recorded past the bound are dropped and counted.
    pub(crate) fn with_lane_capacity(capacity: usize) -> Self {
        TraceSession {
            inner: Arc::new(SessionInner {
                t0: Instant::now(),
                lane_capacity: capacity.max(1),
                next_worker: AtomicU32::new(0),
                flushed: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Hand out an enabled recorder on a fresh worker lane.
    pub fn recorder(&self) -> Recorder {
        let worker = self.inner.next_worker.fetch_add(1, Ordering::Relaxed);
        Recorder(Some(Box::new(RecorderInner {
            session: Arc::clone(&self.inner),
            lane: Lane {
                worker,
                events: Vec::new(),
                dropped: 0,
            },
            depth: 0,
        })))
    }

    /// Merge all lanes flushed so far into a [`Trace`], clearing them
    /// from the session. Live recorders that have not yet dropped or
    /// [`Recorder::flush`]ed are *not* included.
    pub fn drain(&self) -> Trace {
        let mut lanes = {
            let mut guard = self.inner.flushed.lock().expect("trace session poisoned");
            std::mem::take(&mut *guard)
        };
        let mut events = Vec::new();
        let mut dropped = 0u64;
        for lane in &mut lanes {
            events.append(&mut lane.events);
            dropped = dropped.saturating_add(lane.dropped);
        }
        events.sort_by(|a, b| {
            (a.worker, a.start_ns, a.depth, std::cmp::Reverse(a.end_ns)).cmp(&(
                b.worker,
                b.start_ns,
                b.depth,
                std::cmp::Reverse(b.end_ns),
            ))
        });
        Trace { events, dropped }
    }
}

impl Default for TraceSession {
    fn default() -> Self {
        Self::new()
    }
}

/// Token returned by [`Recorder::enter`]; pass it back to
/// [`Recorder::exit`] to close the span.
///
/// The token carries the entry depth, so exiting restores nesting even
/// if inner spans were abandoned on an early-return path (self-healing:
/// abandoned inner spans are simply never recorded).
#[derive(Debug)]
#[must_use = "pass the token back to Recorder::exit to close the span"]
pub struct SpanToken {
    name: &'static str,
    start_ns: u64,
    depth: u16,
    live: bool,
}

#[derive(Debug)]
struct RecorderInner {
    session: Arc<SessionInner>,
    lane: Lane,
    depth: u16,
}

/// Span recorder handle for one worker.
///
/// The enabled recorder owns its event lane exclusively — appends take
/// no locks and read the monotonic clock only in [`Recorder::enter`] /
/// [`Recorder::exit`]. The disabled recorder ([`Recorder::disabled`],
/// also `Default`) is a `None` branch behind `#[inline]` methods: no
/// clock reads, no allocation, zero cost.
///
/// `Clone` *forks*: cloning an enabled recorder opens a fresh worker
/// lane on the same session (so cloning a solver replica per worker
/// automatically yields per-worker lanes); cloning a disabled recorder
/// stays disabled.
#[derive(Debug)]
pub struct Recorder(Option<Box<RecorderInner>>);

impl Recorder {
    /// The no-op recorder: records nothing, costs nothing.
    #[inline]
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// Open a span. Pair with [`Recorder::exit`].
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> SpanToken {
        match &mut self.0 {
            None => SpanToken {
                name,
                start_ns: 0,
                depth: 0,
                live: false,
            },
            Some(inner) => {
                let start_ns = elapsed_ns(inner.session.t0);
                let depth = inner.depth;
                inner.depth = inner.depth.saturating_add(1);
                SpanToken {
                    name,
                    start_ns,
                    depth,
                    live: true,
                }
            }
        }
    }

    /// Close a span with no annotations.
    #[inline]
    pub fn exit(&mut self, token: SpanToken) {
        self.exit_with(token, &[]);
    }

    /// Close a span, attaching numeric annotations (e.g. op counts
    /// folded in from engine stats deltas).
    #[inline]
    pub fn exit_with(&mut self, token: SpanToken, args: &[(&'static str, f64)]) {
        if !token.live {
            return;
        }
        if let Some(inner) = &mut self.0 {
            let end_ns = elapsed_ns(inner.session.t0);
            // Restore depth from the token: inner spans abandoned on an
            // early-return path are healed rather than corrupting nesting.
            inner.depth = token.depth;
            if inner.lane.events.len() < inner.session.lane_capacity {
                inner.lane.events.push(SpanEvent {
                    name: token.name,
                    worker: inner.lane.worker,
                    start_ns: token.start_ns,
                    end_ns,
                    depth: token.depth,
                    args: args.to_vec(),
                });
            } else {
                inner.lane.dropped = inner.lane.dropped.saturating_add(1);
            }
        }
    }

    /// Flush this lane's events back to the session now (normally done
    /// on drop), keeping the recorder usable on the same worker lane.
    pub fn flush(&mut self) {
        if let Some(inner) = &mut self.0 {
            if inner.lane.events.is_empty() && inner.lane.dropped == 0 {
                return;
            }
            let lane = Lane {
                worker: inner.lane.worker,
                events: std::mem::take(&mut inner.lane.events),
                dropped: std::mem::replace(&mut inner.lane.dropped, 0),
            };
            inner
                .session
                .flushed
                .lock()
                .expect("trace session poisoned")
                .push(lane);
        }
    }
}

impl Clone for Recorder {
    fn clone(&self) -> Self {
        match &self.0 {
            None => Recorder::disabled(),
            Some(inner) => TraceSession {
                inner: Arc::clone(&inner.session),
            }
            .recorder(),
        }
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[inline]
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A drained, merged set of span events, sorted by worker then start
/// time (outer spans before the inner spans they contain).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    pub(crate) events: Vec<SpanEvent>,
    pub(crate) dropped: u64,
}

impl Trace {
    /// Build a trace directly from events (primarily for tests and
    /// golden pins); sorts into canonical order.
    pub fn from_events(mut events: Vec<SpanEvent>) -> Self {
        events.sort_by(|a, b| {
            (a.worker, a.start_ns, a.depth, std::cmp::Reverse(a.end_ns)).cmp(&(
                b.worker,
                b.start_ns,
                b.depth,
                std::cmp::Reverse(b.end_ns),
            ))
        });
        Trace { events, dropped: 0 }
    }

    /// The recorded spans in canonical order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Number of spans dropped because a lane hit its capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        assert!(rec.0.is_none());
        let t = rec.enter("x");
        rec.exit_with(t, &[("n", 1.0)]);
        let fork = rec.clone();
        assert!(fork.0.is_none());
        // Default is the disabled recorder.
        assert!(Recorder::default().0.is_none());
    }

    #[test]
    fn nested_spans_round_trip() {
        let session = TraceSession::new();
        let mut rec = session.recorder();
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        rec.exit_with(inner, &[("ops", 3.0)]);
        rec.exit(outer);
        drop(rec);

        let trace = session.drain();
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped(), 0);
        let outer_ev = &trace.events()[0];
        let inner_ev = &trace.events()[1];
        assert_eq!(outer_ev.name, "outer");
        assert_eq!(outer_ev.depth, 0);
        assert_eq!(inner_ev.name, "inner");
        assert_eq!(inner_ev.depth, 1);
        assert_eq!(inner_ev.args, vec![("ops", 3.0)]);
        // Containment: the outer interval covers the inner one.
        assert!(outer_ev.start_ns <= inner_ev.start_ns);
        assert!(outer_ev.end_ns >= inner_ev.end_ns);
    }

    #[test]
    fn abandoned_inner_span_heals_depth() {
        let session = TraceSession::new();
        let mut rec = session.recorder();
        let outer = rec.enter("outer");
        let _abandoned = rec.enter("abandoned"); // never exited (early return)
        rec.exit(outer);
        let sibling = rec.enter("sibling");
        rec.exit(sibling);
        drop(rec);

        let trace = session.drain();
        let names: Vec<_> = trace.events().iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["outer", "sibling"]);
        assert_eq!(trace.events()[1].depth, 0, "depth restored after exit");
    }

    #[test]
    fn lane_capacity_bounds_memory_and_counts_drops() {
        let session = TraceSession::with_lane_capacity(2);
        let mut rec = session.recorder();
        for _ in 0..5 {
            let t = rec.enter("s");
            rec.exit(t);
        }
        drop(rec);
        let trace = session.drain();
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped(), 3);
    }

    #[test]
    fn clone_forks_a_fresh_worker_lane() {
        let session = TraceSession::new();
        let mut a = session.recorder();
        let mut b = a.clone();
        let ta = a.enter("a");
        a.exit(ta);
        let tb = b.enter("b");
        b.exit(tb);
        drop(a);
        drop(b);
        let trace = session.drain();
        let workers: std::collections::BTreeSet<_> =
            trace.events().iter().map(|e| e.worker).collect();
        assert_eq!(workers.len(), 2, "each clone records on its own lane");
    }

    #[test]
    fn flush_keeps_recorder_usable_and_drain_clears() {
        let session = TraceSession::new();
        let mut rec = session.recorder();
        let t = rec.enter("first");
        rec.exit(t);
        rec.flush();
        assert_eq!(session.drain().events().len(), 1);
        assert_eq!(session.drain().events().len(), 0, "drain clears");
        let t = rec.enter("second");
        rec.exit(t);
        drop(rec);
        assert_eq!(session.drain().events().len(), 1);
    }
}
