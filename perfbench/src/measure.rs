//! The measuring window and the statistics drawn from it.
//!
//! The timed run measures one segment with every instrument off. The
//! traced run splits the same window into [`TRACED_SEGMENTS`] segments
//! that alternate off, on, off, on, …; the layer metrics come from the
//! "on" segments, and the throughput ratio of neighbouring "off"/"on"
//! pairs gives the instruments' overhead.
//!
//! A tick also pauses to sample the host-speed reference load when a
//! pause is due (see [`crate::speed`]). So a workload calls
//! [`Segments::tick`] only
//! while none of its other threads is busy: between operations on the
//! thread that runs them, or from a coordinating thread that first holds
//! the workload's threads back. Peak memory is read when the window
//! closes, before any oracle runs.

use std::time::{Duration, Instant};

use crate::host;
use crate::probe;
use crate::speed::{self, HostSpeed};

/// Segments of a traced run (an even count: off/on pairs).
pub const TRACED_SEGMENTS: usize = 8;
/// Time slices of the window. `ops_per_s` is the median of the slice
/// throughputs and `latency_p50_ms` the median of the slice medians, so a
/// slice in which another tenant of the host took a core moves neither.
const SLICES: u32 = 10;

/// One measured segment.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    pub traced: bool,
    pub ops: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Maps an instant to its time slice of the window; shareable with
/// client threads.
#[derive(Debug, Clone, Copy)]
pub struct SliceClock {
    start: Instant,
    slice_len: Duration,
}

impl SliceClock {
    /// The slice `t` falls in (`SLICES` and above after the window).
    pub fn slice(&self, t: Instant) -> usize {
        (t.duration_since(self.start).as_nanos() / self.slice_len.as_nanos()) as usize
    }
}

/// What the window measured besides the workload's own counts.
#[derive(Debug, Default)]
pub struct Window {
    pub segments: Vec<Segment>,
    /// Throughput of each time slice, ops/s.
    pub slice_rates: Vec<f64>,
    /// `VmHWM` when the window closed.
    pub peak_rss_mb: f64,
    pub speed: HostSpeed,
}

/// The segment being measured.
struct Open {
    index: usize,
    started: Instant,
    ops_before: u64,
    cpu_before: f64,
    /// Wall and CPU time of the host-speed pauses inside the segment,
    /// left out of its wall and CPU time.
    paused_s: f64,
    paused_cpu_s: f64,
}

/// Tracks which segment of the window is running and switches the
/// instruments at each boundary.
pub struct Segments {
    speed: HostSpeed,
    next_sample: Instant,
    clock: SliceClock,
    seg_len: Duration,
    count: usize,
    trace: bool,
    min_ops: u64,
    done: Vec<Segment>,
    open: Option<Open>,
    /// `(time, ops_total)` at the first tick of each slice, and at the end.
    marks: Vec<(Instant, u64)>,
}

impl Segments {
    /// A window of `seconds` that keeps going until at least `min_ops`
    /// operations completed.
    pub fn new(seconds: f64, trace: bool, min_ops: u64) -> Segments {
        let pauses = (seconds / speed::EVERY.as_secs_f64()) as usize + 2;
        let samples = pauses * speed::SAMPLES_PER_PAUSE;
        let count = if trace { TRACED_SEGMENTS } else { 1 };
        let start = Instant::now();
        let clock = SliceClock {
            start,
            slice_len: Duration::from_secs_f64(seconds / f64::from(SLICES)),
        };
        Segments {
            speed: HostSpeed::with_capacity(samples),
            next_sample: start,
            clock,
            seg_len: Duration::from_secs_f64(seconds / count as f64),
            count,
            trace,
            min_ops,
            done: Vec::with_capacity(count),
            open: None,
            marks: Vec::with_capacity(SLICES as usize + 2),
        }
    }

    /// Called with the running operation total before each operation
    /// (or periodically by a coordinating thread), while no other thread
    /// of the workload is busy. Returns `false` once the window is over,
    /// after closing the last segment.
    pub fn tick(&mut self, ops_total: u64) -> bool {
        let now = Instant::now();
        if self.marks.len() <= self.clock.slice(now).min(SLICES as usize) {
            self.marks.push((now, ops_total));
        }
        let elapsed = now.duration_since(self.clock.start);
        let index = (elapsed.as_nanos() / self.seg_len.as_nanos()) as usize;
        let over = index >= self.count && ops_total >= self.min_ops;
        let index = index.min(self.count - 1);
        if over || self.open.as_ref().is_some_and(|open| open.index != index) {
            self.close(now, ops_total);
        }
        if over {
            return false;
        }
        if self.open.is_none() {
            let traced = self.trace && index % 2 == 1;
            probe::set_tracing(traced);
            self.open = Some(Open {
                index,
                started: now,
                ops_before: ops_total,
                cpu_before: host::cpu_seconds(),
                paused_s: 0.0,
                paused_cpu_s: 0.0,
            });
        }
        if now >= self.next_sample {
            let cpu = host::cpu_seconds();
            self.speed.pause();
            if let Some(open) = &mut self.open {
                open.paused_s += now.elapsed().as_secs_f64();
                open.paused_cpu_s += host::cpu_seconds() - cpu;
            }
            self.next_sample = now + speed::EVERY;
        }
        true
    }

    fn close(&mut self, now: Instant, ops_total: u64) {
        if let Some(open) = self.open.take() {
            let wall_s = now.duration_since(open.started).as_secs_f64();
            self.done.push(Segment {
                traced: self.trace && open.index % 2 == 1,
                ops: ops_total - open.ops_before,
                wall_s: wall_s - open.paused_s,
                cpu_s: host::cpu_seconds() - open.cpu_before - open.paused_cpu_s,
            });
        }
        probe::set_tracing(false);
    }

    /// The window's slice clock.
    pub fn clock(&self) -> SliceClock {
        self.clock
    }

    /// Closes the window and reads peak memory. Call it once every thread
    /// of the window has stopped.
    pub fn finish(self) -> Window {
        let peak_rss_mb = host::peak_rss_mb();
        let slice_rates = self
            .marks
            .windows(2)
            .filter_map(|pair| {
                let [(t0, ops0), (t1, ops1)] = pair else {
                    return None;
                };
                let wall = t1.duration_since(*t0).as_secs_f64();
                (wall > 0.0).then(|| (ops1 - ops0) as f64 / wall)
            })
            .collect();
        Window {
            segments: self.done,
            slice_rates,
            peak_rss_mb,
            speed: self.speed,
        }
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Sub-buckets per power of two of a latency in ns: buckets are under
/// 0.8 % wide.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Buckets covering every `u64` ns.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Call latencies per time slice, counted in fixed log-linear buckets.
/// The storage is allocated and touched once, so resident memory does
/// not grow with the number of calls. Calls started after the window
/// count to its last slice.
pub struct Latencies {
    counts: Vec<u32>,
}

impl Default for Latencies {
    fn default() -> Latencies {
        let mut counts = vec![0u32; SLICES as usize * BUCKETS];
        for c in &mut counts {
            *c = std::hint::black_box(0);
        }
        Latencies { counts }
    }
}

fn bucket(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros() - SUB_BITS;
    (octave as usize + 1) * SUB + ((ns >> octave) as usize - SUB)
}

/// Lower bound and width of a bucket, in ns.
fn bucket_range(index: usize) -> (f64, f64) {
    let (octave, sub) = (index / SUB, index % SUB);
    if octave == 0 {
        return (sub as f64, 1.0);
    }
    let width = 2f64.powi(octave as i32 - 1);
    ((SUB + sub) as f64 * width, width)
}

impl Latencies {
    /// Records one call that started in `slice` and took `seconds`.
    pub fn record(&mut self, slice: usize, seconds: f64) {
        let slice = slice.min(SLICES as usize - 1);
        self.counts[slice * BUCKETS + bucket((seconds * 1e9) as u64)] += 1;
    }

    /// Adds `other`'s calls to these.
    pub fn merge(&mut self, other: &Latencies) {
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Median over slices of each slice's median, in ms.
    pub fn slice_median_ms(&self) -> f64 {
        let medians: Vec<f64> = self
            .counts
            .chunks_exact(BUCKETS)
            .filter_map(|slice| percentile_ms(slice, 50.0))
            .collect();
        median(&medians)
    }

    /// Percentile `p` of every call, in ms (0 without calls).
    pub fn percentile_ms(&self, p: f64) -> f64 {
        let mut all = vec![0u32; BUCKETS];
        for slice in self.counts.chunks_exact(BUCKETS) {
            for (a, c) in all.iter_mut().zip(slice) {
                *a += c;
            }
        }
        percentile_ms(&all, p).unwrap_or(0.0)
    }
}

/// Nearest-rank percentile `p` of bucket counts, in ms, placed linearly
/// inside its bucket by rank. `None` without calls.
fn percentile_ms(counts: &[u32], p: f64) -> Option<f64> {
    let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
    if total == 0 {
        return None;
    }
    let rank = ((p / 100.0) * total as f64).ceil().clamp(1.0, total as f64) as u64;
    let mut below = 0u64;
    for (index, &c) in counts.iter().enumerate() {
        let c = u64::from(c);
        if below + c >= rank {
            let (low, width) = bucket_range(index);
            let within = (rank - below) as f64 - 0.5;
            return Some((low + width * within / c as f64) * 1e-6);
        }
        below += c;
    }
    None
}
