//! Capacity-bounded LFU cache for prepared solvers.
//!
//! Frequency-bucket design: entries live in a slab, each entry linked
//! into a doubly-linked list of its **frequency bucket** (all entries
//! fetched the same number of times). A fetch unlinks the entry from
//! bucket `f` and pushes it onto the head of bucket `f + 1`; eviction
//! pops the **tail** of the minimum-frequency bucket. Both are a fixed
//! number of pointer updates plus one hash-map lookup — O(1) touch and
//! O(1) evict, no heaps, no rebalancing.
//!
//! Tie-breaking is least-recently-*touched* within a bucket: new and
//! re-bumped entries enter at the head, so the tail of the minimum
//! bucket is the coldest entry by (frequency, recency) — classic
//! LFU-with-LRU-tie-break semantics.
//!
//! The cache also owns the hit/miss/eviction/insertion counters that
//! [`Stats`](crate::wire::Request::Stats) reports: they are part of the
//! cache's observable behavior, not server bookkeeping, so the unit
//! tests pin them here.

use std::collections::HashMap;

use crate::wire::{config_bytes, EngineRef};
use blockamc::solver::SolverConfig;

/// Key of one cached prepared solver: *which matrix* (by
/// [`fingerprint`](amc_linalg::Matrix::fingerprint)), *under which
/// configuration* (canonical [`config_bytes`] — `SolverConfig` itself
/// is neither `Eq` nor `Hash`, its canonical encoding is both), *on
/// which engine* (registry name + build seed). Equal keys produce
/// bit-identical solvers, which is what makes cache hits and request
/// coalescing invisible in the results.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    /// [`Matrix::fingerprint`](amc_linalg::Matrix::fingerprint) of the
    /// coefficient matrix.
    pub fingerprint: u64,
    /// Canonical wire encoding of the solver configuration.
    pub config: Vec<u8>,
    /// Engine registry name + deterministic build seed.
    pub engine: EngineRef,
}

impl CacheKey {
    /// Builds the key for (`fingerprint`, `config`, `engine`).
    pub(crate) fn new(fingerprint: u64, config: &SolverConfig, engine: &EngineRef) -> Self {
        CacheKey {
            fingerprint,
            config: config_bytes(config),
            engine: engine.clone(),
        }
    }
}

/// Monotonic counters describing the cache's life so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct CacheCounters {
    /// Fetches that found an entry.
    pub hits: u64,
    /// Fetches that found nothing.
    pub misses: u64,
    /// Entries displaced to stay within capacity.
    pub evictions: u64,
    /// Entries inserted.
    pub insertions: u64,
}

/// Saturating counter bump: a counter at `u64::MAX` stays pinned there
/// (and trips a debug assertion) instead of wrapping to a misleadingly
/// small number.
fn saturating_bump(counter: &mut u64, what: &'static str) {
    debug_assert!(*counter < u64::MAX, "CacheCounters::{what} saturated");
    *counter = counter.saturating_add(1);
}

/// Sentinel for "no neighbor" in the intrusive lists.
const NIL: usize = usize::MAX;

/// One slab slot: the entry plus its intrusive links within its
/// frequency bucket's list.
#[derive(Debug)]
struct Node<V> {
    key: CacheKey,
    value: V,
    freq: u64,
    prev: usize,
    next: usize,
}

/// Head/tail of one frequency bucket's doubly-linked entry list.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: usize,
    tail: usize,
}

/// The LFU cache. `V` is the cached value — the server stores
/// [`SolverReplica`](blockamc::solver::SolverReplica)s of type-erased
/// engines; the unit tests store integers.
#[derive(Debug)]
pub(crate) struct LfuCache<V> {
    capacity: usize,
    slab: Vec<Option<Node<V>>>,
    free: Vec<usize>,
    index: HashMap<CacheKey, usize>,
    buckets: HashMap<u64, Bucket>,
    /// Lowest frequency with a non-empty bucket; meaningless when empty.
    min_freq: u64,
    counters: CacheCounters,
}

impl<V> LfuCache<V> {
    /// Creates a cache holding at most `capacity` entries (clamped to at
    /// least 1 — a zero-capacity cache could satisfy nothing and would
    /// turn every `insert` into a silent drop).
    pub(crate) fn new(capacity: usize) -> Self {
        LfuCache {
            capacity: capacity.max(1),
            slab: Vec::new(),
            free: Vec::new(),
            index: HashMap::new(),
            buckets: HashMap::new(),
            min_freq: 0,
            counters: CacheCounters::default(),
        }
    }

    /// Number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.index.len()
    }

    /// The capacity bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub(crate) fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Mutably borrows the entry under `key` without counting a fetch or
    /// bumping the frequency — the dispatcher's access to a key that a
    /// request already fetched (and heated) at resolve time: it lends
    /// the solver out of the slot and puts it back.
    pub(crate) fn peek_mut(&mut self, key: &CacheKey) -> Option<&mut V> {
        let idx = *self.index.get(key)?;
        Some(&mut self.slab[idx].as_mut().unwrap().value)
    }

    /// Fetches the entry under `key`, bumping its frequency and the
    /// hit/miss counters.
    pub(crate) fn get(&mut self, key: &CacheKey) -> Option<&V> {
        match self.index.get(key).copied() {
            None => {
                saturating_bump(&mut self.counters.misses, "misses");
                None
            }
            Some(idx) => {
                saturating_bump(&mut self.counters.hits, "hits");
                self.touch(idx);
                Some(&self.slab[idx].as_ref().unwrap().value)
            }
        }
    }

    /// Inserts `value` under `key` (frequency 1, head of its bucket),
    /// evicting the coldest entry first when at capacity. Returns the
    /// evicted `(key, value)`, if any. Inserting over an existing key
    /// replaces the value in place, keeping the frequency.
    pub(crate) fn insert(&mut self, key: CacheKey, value: V) -> Option<(CacheKey, V)> {
        if let Some(&idx) = self.index.get(&key) {
            self.slab[idx].as_mut().unwrap().value = value;
            return None;
        }
        let evicted = if self.index.len() == self.capacity {
            self.evict()
        } else {
            None
        };
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slab.push(None);
                self.slab.len() - 1
            }
        };
        self.slab[idx] = Some(Node {
            key: key.clone(),
            value,
            freq: 1,
            prev: NIL,
            next: NIL,
        });
        self.index.insert(key, idx);
        self.push_head(1, idx);
        self.min_freq = 1;
        saturating_bump(&mut self.counters.insertions, "insertions");
        if evicted.is_some() {
            saturating_bump(&mut self.counters.evictions, "evictions");
        }
        evicted
    }

    /// Removes and returns the entry under `key`, if present. Not a
    /// fetch and not an eviction: no counters move.
    pub(crate) fn remove(&mut self, key: &CacheKey) -> Option<V> {
        let idx = self.index.remove(key)?;
        let freq = self.slab[idx].as_ref().unwrap().freq;
        self.unlink(freq, idx);
        let node = self.slab[idx].take().unwrap();
        self.free.push(idx);
        self.fix_min_freq();
        Some(node.value)
    }

    /// Pops the tail of the minimum-frequency bucket.
    fn evict(&mut self) -> Option<(CacheKey, V)> {
        let bucket = self.buckets.get(&self.min_freq)?;
        let idx = bucket.tail;
        debug_assert_ne!(idx, NIL);
        self.unlink(self.min_freq, idx);
        let node = self.slab[idx].take().unwrap();
        self.free.push(idx);
        self.index.remove(&node.key);
        self.fix_min_freq();
        Some((node.key, node.value))
    }

    /// Moves `idx` from its bucket to the head of the next-higher one.
    fn touch(&mut self, idx: usize) {
        let freq = self.slab[idx].as_ref().unwrap().freq;
        self.unlink(freq, idx);
        let node = self.slab[idx].as_mut().unwrap();
        node.freq = freq + 1;
        self.push_head(freq + 1, idx);
        // If idx was the last entry at min_freq, the minimum moved up —
        // and it can only have moved to freq + 1.
        if self.min_freq == freq && !self.buckets.contains_key(&freq) {
            self.min_freq = freq + 1;
        }
    }

    /// Links `idx` at the head of bucket `freq`.
    fn push_head(&mut self, freq: u64, idx: usize) {
        match self.buckets.get_mut(&freq) {
            None => {
                self.buckets.insert(
                    freq,
                    Bucket {
                        head: idx,
                        tail: idx,
                    },
                );
            }
            Some(bucket) => {
                let old_head = bucket.head;
                bucket.head = idx;
                self.slab[idx].as_mut().unwrap().next = old_head;
                self.slab[old_head].as_mut().unwrap().prev = idx;
            }
        }
    }

    /// Unlinks `idx` from bucket `freq`, dropping the bucket if it
    /// empties.
    fn unlink(&mut self, freq: u64, idx: usize) {
        let (prev, next) = {
            let node = self.slab[idx].as_mut().unwrap();
            let links = (node.prev, node.next);
            node.prev = NIL;
            node.next = NIL;
            links
        };
        if prev != NIL {
            self.slab[prev].as_mut().unwrap().next = next;
        }
        if next != NIL {
            self.slab[next].as_mut().unwrap().prev = prev;
        }
        let bucket = self.buckets.get_mut(&freq).expect("bucket exists");
        if bucket.head == idx {
            bucket.head = next;
        }
        if bucket.tail == idx {
            bucket.tail = prev;
        }
        if bucket.head == NIL {
            self.buckets.remove(&freq);
        }
    }

    /// Re-derives `min_freq` after a removal that may have emptied the
    /// minimum bucket at an arbitrary frequency. Removals are rare
    /// (explicit `Evict` requests), so the scan over bucket keys —
    /// bounded by the number of *distinct frequencies*, itself bounded
    /// by the capacity — is not on the hot path.
    fn fix_min_freq(&mut self) {
        if self.buckets.contains_key(&self.min_freq) {
            return;
        }
        self.min_freq = self.buckets.keys().copied().min().unwrap_or(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(fp: u64) -> CacheKey {
        CacheKey {
            fingerprint: fp,
            config: vec![1, 2, 3],
            engine: EngineRef::new("numeric", 0),
        }
    }

    #[test]
    fn counter_bump_is_exact_up_to_the_boundary() {
        let mut c: LfuCache<i32> = LfuCache::new(2);
        c.counters.misses = u64::MAX - 1;
        assert!(c.get(&key(1)).is_none());
        // The last representable bump is exact, not prematurely pinned.
        assert_eq!(c.counters().misses, u64::MAX);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn counter_saturates_at_max_in_release() {
        let mut c: LfuCache<i32> = LfuCache::new(2);
        c.counters.misses = u64::MAX;
        assert!(c.get(&key(1)).is_none());
        assert_eq!(c.counters().misses, u64::MAX, "saturated, not wrapped");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "CacheCounters::misses saturated")]
    fn counter_overflow_asserts_in_debug() {
        let mut c: LfuCache<i32> = LfuCache::new(2);
        c.counters.misses = u64::MAX;
        let _ = c.get(&key(1));
    }

    #[test]
    fn basic_hit_miss_and_counters() {
        let mut c: LfuCache<i32> = LfuCache::new(2);
        assert_eq!(c.capacity(), 2);
        assert!(c.get(&key(1)).is_none());
        assert!(c.insert(key(1), 10).is_none());
        assert_eq!(c.get(&key(1)), Some(&10));
        assert!(c.index.contains_key(&key(1)));
        assert!(!c.index.contains_key(&key(2)));
        let n = c.counters();
        assert_eq!((n.hits, n.misses, n.insertions, n.evictions), (1, 1, 1, 0));
        // contains() moved no counters.
        assert_eq!(c.counters(), n);
    }

    #[test]
    fn peek_mut_moves_no_counters() {
        let mut c: LfuCache<i32> = LfuCache::new(2);
        c.insert(key(1), 10);
        let before = c.counters();
        assert_eq!(c.peek_mut(&key(1)).copied(), Some(10));
        *c.peek_mut(&key(1)).unwrap() = 11;
        assert!(c.peek_mut(&key(2)).is_none());
        assert_eq!(c.counters(), before, "peeks are not fetches");
        assert_eq!(c.get(&key(1)), Some(&11));
    }

    #[test]
    fn evicts_least_frequent_first() {
        let mut c: LfuCache<i32> = LfuCache::new(2);
        c.insert(key(1), 10);
        c.insert(key(2), 20);
        // Heat up key 1.
        assert!(c.get(&key(1)).is_some());
        assert!(c.get(&key(1)).is_some());
        // Inserting key 3 must displace key 2 (freq 1), not key 1 (freq 3).
        let (evicted, _) = c.insert(key(3), 30).unwrap();
        assert_eq!(evicted, key(2));
        assert!(c.index.contains_key(&key(1)));
        assert!(c.index.contains_key(&key(3)));
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().evictions, 1);
    }

    #[test]
    fn ties_break_least_recently_touched() {
        let mut c: LfuCache<i32> = LfuCache::new(3);
        c.insert(key(1), 10);
        c.insert(key(2), 20);
        c.insert(key(3), 30);
        // All at freq 1; bump 1 and 3, so 2 is coldest. Then among the
        // freq-2 pair, 1 was touched before 3.
        c.get(&key(1));
        c.get(&key(3));
        let (e1, _) = c.insert(key(4), 40).unwrap();
        assert_eq!(e1, key(2), "lowest frequency goes first");
        // Now 4 is at freq 1 — evicted next despite being newest.
        let (e2, _) = c.insert(key(5), 50).unwrap();
        assert_eq!(e2, key(4));
        // 1, 3 at freq 2 and 5 at freq 1: bump 5 twice so all tie at
        // freq >= 2? No — 5 reaches 3; of 1 and 3 (both freq 2), 1 was
        // touched earlier and goes first.
        c.get(&key(5));
        c.get(&key(5));
        let (e3, _) = c.insert(key(6), 60).unwrap();
        assert_eq!(e3, key(1), "LRU within the minimum bucket");
    }

    #[test]
    fn capacity_is_respected_under_churn() {
        let mut c: LfuCache<u64> = LfuCache::new(4);
        for i in 0..100 {
            c.insert(key(i), i);
            assert!(c.len() <= 4);
            // Exercise gets over a sliding window.
            c.get(&key(i.saturating_sub(1)));
        }
        assert_eq!(c.len(), 4);
        let n = c.counters();
        assert_eq!(n.insertions, 100);
        assert_eq!(n.evictions, 96);
    }

    #[test]
    fn remove_and_reinsert() {
        let mut c: LfuCache<i32> = LfuCache::new(2);
        c.insert(key(1), 10);
        c.insert(key(2), 20);
        c.get(&key(1));
        assert_eq!(c.remove(&key(1)), Some(10));
        assert_eq!(c.remove(&key(1)), None);
        assert_eq!(c.len(), 1);
        // Slab slot is recycled; the cache keeps working.
        c.insert(key(3), 30);
        c.insert(key(4), 40); // evicts 2 or 3 (both freq 1; 2 older)
        assert_eq!(c.len(), 2);
        assert!(
            !c.index.contains_key(&key(2)),
            "older freq-1 entry evicted first"
        );
        // Removals are not evictions.
        assert_eq!(c.counters().evictions, 1);
    }

    #[test]
    fn insert_over_existing_key_replaces_in_place() {
        let mut c: LfuCache<i32> = LfuCache::new(2);
        c.insert(key(1), 10);
        c.get(&key(1));
        assert!(c.insert(key(1), 11).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.get(&key(1)), Some(&11));
        // Replacement kept the frequency: a fresh freq-1 entry loses the
        // eviction race against it.
        c.insert(key(2), 20);
        let (evicted, _) = c.insert(key(3), 30).unwrap();
        assert_eq!(evicted, key(2));
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut c: LfuCache<i32> = LfuCache::new(0);
        assert_eq!(c.capacity(), 1);
        c.insert(key(1), 10);
        assert_eq!(c.get(&key(1)), Some(&10));
    }

    #[test]
    fn distinct_config_bytes_and_engines_are_distinct_keys() {
        let mut c: LfuCache<i32> = LfuCache::new(4);
        let base = key(1);
        let mut other_config = key(1);
        other_config.config = vec![9];
        let mut other_engine = key(1);
        other_engine.engine = EngineRef::new("circuit", 0);
        let mut other_seed = key(1);
        other_seed.engine = EngineRef::new("numeric", 1);
        c.insert(base.clone(), 1);
        c.insert(other_config.clone(), 2);
        c.insert(other_engine.clone(), 3);
        c.insert(other_seed.clone(), 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.get(&base), Some(&1));
        assert_eq!(c.get(&other_config), Some(&2));
        assert_eq!(c.get(&other_engine), Some(&3));
        assert_eq!(c.get(&other_seed), Some(&4));
    }
}
