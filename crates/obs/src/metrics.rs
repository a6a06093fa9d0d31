//! Metrics registry: named counters, gauges, and fixed-log-bucket
//! latency histograms with nearest-rank percentile extraction.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of sub-buckets per power of two in [`Histogram`].
const SUBS_PER_OCTAVE: u64 = 4;
/// Bucket count: 4 identity buckets for 0..=3 plus 4 sub-buckets for
/// each octave `[2^k, 2^(k+1))`, k = 2..=63.
const BUCKETS: usize = 252;

/// Saturating add on an atomic counter, with a debug assertion at the
/// boundary so overflow is loud in tests but safe in release.
fn saturating_fetch_add(cell: &AtomicU64, delta: u64) -> u64 {
    let prev = cell
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            Some(v.saturating_add(delta))
        })
        .expect("fetch_update closure always returns Some");
    debug_assert!(
        prev.checked_add(delta).is_some(),
        "counter overflow: {prev} + {delta} saturated"
    );
    prev
}

/// Monotone event counter. Cloning shares the underlying cell.
///
/// Additions saturate at `u64::MAX` (asserting in debug builds) so a
/// runaway counter can never wrap around to a small value.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// New free-standing counter at zero (usually obtained from
    /// [`Registry::counter`] instead).
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `delta`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, delta: u64) {
        saturating_fetch_add(&self.0, delta);
    }

    /// Overwrite with an externally maintained total (used to mirror
    /// legacy counters into the registry).
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value (f64). Cloning shares the cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// New free-standing gauge at 0.0.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Set the gauge.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// Fixed-log-bucket histogram for latency-like `u64` samples.
///
/// Values 0..=3 get exact buckets; each octave `[2^k, 2^(k+1))` above
/// that is split into 4 sub-buckets, bounding relative error of the
/// reported percentile values to under 25% while keeping the histogram
/// a fixed 252 cells. Percentiles use the nearest-rank rule and report
/// the lower bound of the bucket holding that rank, so a sample set
/// whose ranks land on exact bucket bounds reports exact values.
///
/// Cloning shares the cells; recording is lock-free.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// New free-standing histogram (usually obtained from
    /// [`Registry::histogram`] instead).
    pub(crate) fn new() -> Self {
        Histogram(Arc::new(HistogramInner {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }))
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        let inner = &self.0;
        saturating_fetch_add(&inner.buckets[bucket_index(value)], 1);
        saturating_fetch_add(&inner.count, 1);
        saturating_fetch_add(&inner.sum, value);
        inner.min.fetch_min(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub(crate) fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Nearest-rank percentile (`p` in 0..=100); `None` when empty. The
    /// returned value is the lower bound of the bucket holding the rank.
    pub(crate) fn percentile(&self, p: f64) -> Option<u64> {
        let count = self.count();
        if count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(count);
        let mut cumulative = 0u64;
        for (idx, bucket) in self.0.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(bucket.load(Ordering::Relaxed));
            if cumulative >= rank {
                return Some(bucket_lower_bound(idx));
            }
        }
        Some(bucket_lower_bound(BUCKETS - 1))
    }

    /// Summarize count/min/max/mean and p50/p95/p99.
    pub(crate) fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum = self.0.sum.load(Ordering::Relaxed);
        HistogramSummary {
            count,
            min: if count == 0 {
                0
            } else {
                self.0.min.load(Ordering::Relaxed)
            },
            max: self.0.max.load(Ordering::Relaxed),
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: self.percentile(50.0).unwrap_or(0),
            p95: self.percentile(95.0).unwrap_or(0),
            p99: self.percentile(99.0).unwrap_or(0),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Map a sample to its bucket. Monotone in `value`.
fn bucket_index(value: u64) -> usize {
    if value < SUBS_PER_OCTAVE {
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() as u64; // >= 2
    let sub = (value >> (octave - 2)) & (SUBS_PER_OCTAVE - 1);
    (SUBS_PER_OCTAVE * (octave - 1) + sub) as usize
}

/// Smallest sample value mapping to bucket `idx` (inverse of
/// [`bucket_index`] on bucket lower bounds).
fn bucket_lower_bound(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < SUBS_PER_OCTAVE {
        return idx;
    }
    let octave = idx / SUBS_PER_OCTAVE + 1;
    let sub = idx % SUBS_PER_OCTAVE;
    let base = 1u64 << octave;
    base + sub * (base / SUBS_PER_OCTAVE)
}

/// Point-in-time summary of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Sample count.
    pub count: u64,
    /// Smallest recorded sample (0 when empty).
    pub min: u64,
    /// Largest recorded sample (0 when empty).
    pub max: u64,
    /// Exact mean of recorded samples (0.0 when empty).
    pub mean: f64,
    /// Nearest-rank 50th percentile (bucket lower bound).
    pub p50: u64,
    /// Nearest-rank 95th percentile (bucket lower bound).
    pub p95: u64,
    /// Nearest-rank 99th percentile (bucket lower bound).
    pub p99: u64,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// Value of one registry entry at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram summary.
    Histogram(HistogramSummary),
}

/// One named entry in a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Metric name.
    pub name: String,
    /// Value at snapshot time.
    pub value: MetricValue,
}

/// Sorted point-in-time view of a [`Registry`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    entries: Vec<SnapshotEntry>,
}

impl MetricsSnapshot {
    /// Look up one entry by name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// Convenience: counter total by name (0 when absent or non-counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Render as an aligned text table, one metric per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            match &entry.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{:<40} {v}\n", entry.name));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{:<40} {v:.6}\n", entry.name));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{:<40} count={} min={} p50={} p95={} p99={} max={} mean={:.1}\n",
                        entry.name, h.count, h.min, h.p50, h.p95, h.p99, h.max, h.mean
                    ));
                }
            }
        }
        out
    }
}

/// Named metrics registry: get-or-create handles, snapshot the whole
/// surface sorted by name.
///
/// Cloning shares the registry. Handles are cheap to clone and update
/// lock-free; the registry lock is taken only on registration and
/// snapshot. Registering a name that already exists with a *different*
/// metric kind returns a fresh detached handle (recorded values go
/// nowhere) rather than panicking — misuse is surfaced by the absent
/// metric, not a crash in instrumentation code.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.metrics.lock().expect("metrics registry poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => Histogram::new(),
        }
    }

    /// Snapshot every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.lock().expect("metrics registry poisoned");
        let entries = map
            .iter()
            .map(|(name, metric)| SnapshotEntry {
                name: name.clone(),
                value: match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.summary()),
                },
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_inverts_on_lower_bounds() {
        let mut prev = 0usize;
        for v in 0..10_000u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "monotone at {v}");
            prev = idx;
        }
        for idx in 0..BUCKETS {
            let low = bucket_lower_bound(idx);
            assert_eq!(bucket_index(low), idx, "lower bound of bucket {idx}");
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn golden_percentiles_uniform_1_to_100() {
        // 100 samples 1..=100. Nearest-rank p50 is the 50th sample
        // (value 50, bucket [48,56) -> 48); p95 is sample 95 (bucket
        // [80,96) -> 80); p99 is sample 99 (bucket [96,112) -> 96).
        let h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0), Some(48));
        assert_eq!(h.percentile(95.0), Some(80));
        assert_eq!(h.percentile(99.0), Some(96));
        assert_eq!(h.percentile(100.0), Some(96), "max sample 100 in [96,112)");
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
    }

    #[test]
    fn golden_percentiles_exact_on_bucket_bounds() {
        // All samples are exact bucket lower bounds, so every
        // percentile is exact.
        let h = Histogram::new();
        for _ in 0..10 {
            h.record(1024);
        }
        assert_eq!(h.percentile(50.0), Some(1024));
        assert_eq!(h.percentile(99.0), Some(1024));
        // Bimodal on bounds: 90 low + 10 high.
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(2);
        }
        for _ in 0..10 {
            h.record(4096);
        }
        assert_eq!(h.percentile(50.0), Some(2));
        assert_eq!(h.percentile(90.0), Some(2));
        assert_eq!(h.percentile(95.0), Some(4096));
        assert_eq!(h.percentile(99.0), Some(4096));
    }

    #[test]
    fn percentile_edge_cases() {
        let h = Histogram::new();
        assert_eq!(h.percentile(50.0), None, "empty histogram");
        let s = h.summary();
        assert_eq!((s.count, s.min, s.max, s.p50), (0, 0, 0, 0));

        h.record(7);
        assert_eq!(h.percentile(0.0), Some(7), "single sample, p0");
        assert_eq!(h.percentile(50.0), Some(7), "single sample, p50");
        assert_eq!(h.percentile(100.0), Some(7), "single sample, p100");
        let s = h.summary();
        assert_eq!((s.min, s.max, s.p50, s.p99), (7, 7, 7, 7));
    }

    #[test]
    fn counter_and_gauge_basics() {
        let reg = Registry::new();
        let c = reg.counter("hits");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("hits").get(), 5, "handles share the cell");
        c.set(100);
        assert_eq!(c.get(), 100);

        let g = reg.gauge("depth");
        g.set(2.5);
        assert_eq!(reg.gauge("depth").get(), 2.5);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn counter_saturates_at_max_in_release() {
        let c = Counter::new();
        c.set(u64::MAX - 1);
        c.add(5);
        assert_eq!(c.get(), u64::MAX, "saturates instead of wrapping");
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "counter overflow")]
    fn counter_overflow_asserts_in_debug() {
        let c = Counter::new();
        c.set(u64::MAX - 1);
        c.add(5);
    }

    #[test]
    fn counter_boundary_no_overflow_is_silent() {
        let c = Counter::new();
        c.set(u64::MAX - 5);
        c.add(5); // lands exactly on MAX without overflowing
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_queryable() {
        let reg = Registry::new();
        reg.counter("z_last").add(3);
        reg.gauge("a_first").set(1.0);
        reg.histogram("m_mid").record(10);
        let snap = reg.snapshot();
        let names: Vec<_> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a_first", "m_mid", "z_last"]);
        assert_eq!(snap.counter("z_last"), 3);
        assert_eq!(snap.counter("absent"), 0);
        assert!(matches!(snap.get("a_first"), Some(MetricValue::Gauge(v)) if *v == 1.0));
        let rendered = snap.render();
        assert!(rendered.contains("z_last"));
        assert!(rendered.contains("count=1"));
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let reg = Registry::new();
        reg.counter("x").add(2);
        let h = reg.histogram("x"); // wrong kind: detached
        h.record(5);
        assert_eq!(reg.snapshot().counter("x"), 2, "original untouched");
    }
}
