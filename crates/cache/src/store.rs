//! The content-addressed result store: an LRU-bounded map from
//! `(input digest, plan prefix)` to the durable dataset that prefix
//! produced.
//!
//! Entries are *pinnable*: a running job that rewrote its plan onto a
//! cached dataset holds a [`PinGuard`] for the duration of the run, and
//! eviction never removes a pinned entry — the capacity bound is
//! enforced against unpinned entries only, so the map can transiently
//! exceed `capacity` when everything resident is in use.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use persona_agd::Manifest;

use crate::digest::Digest;

serde::serde_struct! {
    /// A cache key: the content digest of a job's input plus the canonical
    /// (compact JSON) serialization of the plan prefix that was executed
    /// over it.
    ///
    /// Keys are compared structurally — the full prefix string is part of
    /// the key, so two distinct prefixes can never collide regardless of
    /// hash behavior.
    #[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct CacheKey {
        /// Digest of the input (FASTQ bytes or dataset manifest).
        pub input: Digest,
        /// Canonical plan-prefix serialization, e.g.
        /// `{"input":"fastq","stages":["import","align"]}`.
        pub prefix: String,
    }
}

impl CacheKey {
    /// Build a key from an input digest and a canonical prefix string.
    pub fn new(input: Digest, prefix: impl Into<String>) -> CacheKey {
        CacheKey { input, prefix: prefix.into() }
    }
}

serde::serde_struct! {
    /// A cached result: the durable dataset a plan prefix produced.
    #[derive(Clone, Debug, PartialEq)]
    pub struct CacheEntry {
        /// Manifest of the landed dataset.
        pub manifest: Manifest,
        /// Wire name of the `DataState` the prefix ends in (e.g.
        /// `"aligned"`); the consumer resumes planning from this state.
        pub state: String,
        /// Number of plan stages the prefix covers.
        pub stages: usize,
        /// Wall-clock nanoseconds the prefix cost when it was computed —
        /// the amount a hit saves (feeds `cache.reuse_saved_ns`).
        pub cost_ns: u64,
    }
}

/// A successful lookup: the matched prefix plus a pin that protects the
/// entry from eviction until dropped.
pub struct CacheHit {
    /// Index into the probed prefix list (0 = longest prefix offered).
    pub index: usize,
    /// The matched key.
    pub key: CacheKey,
    /// Snapshot of the entry at lookup time.
    pub entry: CacheEntry,
    /// Eviction pin; hold for as long as the run depends on the entry.
    pub pin: PinGuard,
}

/// Keeps one cache entry unevictable while alive (RAII).
pub struct PinGuard {
    pins: Arc<AtomicUsize>,
}

impl PinGuard {
    fn new(pins: &Arc<AtomicUsize>) -> PinGuard {
        pins.fetch_add(1, Ordering::SeqCst);
        PinGuard { pins: Arc::clone(pins) }
    }
}

impl Drop for PinGuard {
    fn drop(&mut self) {
        self.pins.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Mutation notifications, for durability layers that mirror the cache
/// (the server journals every insert/evict so hits survive a restart).
#[derive(Clone, Debug)]
pub enum CacheEvent {
    /// A key was inserted or refreshed.
    Inserted {
        /// The inserted key.
        key: CacheKey,
        /// The entry now stored under it.
        entry: CacheEntry,
    },
    /// A key was evicted to stay within capacity.
    Evicted {
        /// The evicted key.
        key: CacheKey,
        /// The entry that was dropped.
        entry: CacheEntry,
    },
}

serde::serde_struct! {
    /// Counters and occupancy of a [`ResultCache`], serializable for the
    /// `cache-stats` wire message.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct CacheStats {
        /// False when the replying service runs without a cache.
        pub enabled: bool,
        /// Lookups that matched a prefix.
        pub hits: u64,
        /// Lookups that matched nothing.
        pub misses: u64,
        /// Entries dropped by the LRU bound.
        pub evictions: u64,
        /// Inserts (including refreshes of an existing key).
        pub insertions: u64,
        /// Resident entries.
        pub entries: u64,
        /// Resident entries currently pinned by running jobs.
        pub pinned: u64,
        /// Configured capacity bound.
        pub capacity: u64,
        /// Total nanoseconds of recomputation avoided by hits.
        pub reuse_saved_ns: u64,
    }
}

impl CacheStats {
    /// The all-zero stats a cache-less service reports.
    pub fn disabled() -> CacheStats {
        CacheStats::default()
    }
}

struct Slot {
    entry: CacheEntry,
    last_used: u64,
    pins: Arc<AtomicUsize>,
}

struct Inner {
    map: HashMap<CacheKey, Slot>,
    tick: u64,
}

type Listener = Box<dyn Fn(&CacheEvent) + Send + Sync>;

/// The content-addressed result cache (LRU-bounded, pin-aware).
pub struct ResultCache {
    inner: Mutex<Inner>,
    listener: Mutex<Option<Listener>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    reuse_saved_ns: AtomicU64,
}

impl ResultCache {
    /// Create a cache bounded to `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            inner: Mutex::new(Inner { map: HashMap::new(), tick: 0 }),
            listener: Mutex::new(None),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            reuse_saved_ns: AtomicU64::new(0),
        }
    }

    /// Install the single mutation listener (replaces any previous one).
    /// Called outside the cache lock, after each mutation commits.
    pub fn set_listener(&self, listener: impl Fn(&CacheEvent) + Send + Sync + 'static) {
        *self.listener.lock() = Some(Box::new(listener));
    }

    /// Probe `prefixes` (ordered longest-first) for `input` and return
    /// the first match, pinned. Counts exactly one hit or one miss per
    /// call, regardless of how many prefixes were probed.
    pub fn longest_match(&self, input: Digest, prefixes: &[String]) -> Option<CacheHit> {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        for (index, prefix) in prefixes.iter().enumerate() {
            let key = CacheKey::new(input, prefix.clone());
            if let Some(slot) = inner.map.get_mut(&key) {
                slot.last_used = tick;
                let hit = CacheHit {
                    index,
                    key,
                    entry: slot.entry.clone(),
                    pin: PinGuard::new(&slot.pins),
                };
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.reuse_saved_ns.fetch_add(hit.entry.cost_ns, Ordering::Relaxed);
                return Some(hit);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Fetch a single key without touching hit/miss counters (used by
    /// recovery and introspection).
    pub fn peek(&self, key: &CacheKey) -> Option<CacheEntry> {
        self.inner.lock().map.get(key).map(|s| s.entry.clone())
    }

    /// Insert (or refresh) `key`, evicting least-recently-used unpinned
    /// entries to stay within capacity. Returns what was evicted.
    pub fn insert(&self, key: CacheKey, entry: CacheEntry) -> Vec<(CacheKey, CacheEntry)> {
        let mut events = Vec::new();
        let evicted = {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            match inner.map.get_mut(&key) {
                Some(slot) => {
                    slot.entry = entry.clone();
                    slot.last_used = tick;
                }
                None => {
                    inner.map.insert(
                        key.clone(),
                        Slot {
                            entry: entry.clone(),
                            last_used: tick,
                            pins: Arc::new(AtomicUsize::new(0)),
                        },
                    );
                }
            }
            self.insertions.fetch_add(1, Ordering::Relaxed);
            self.evict_to_capacity(&mut inner)
        };
        events.push(CacheEvent::Inserted { key, entry });
        for (k, e) in &evicted {
            events.push(CacheEvent::Evicted { key: k.clone(), entry: e.clone() });
        }
        self.notify(&events);
        evicted
    }

    /// Remove a key outright (invalidation — e.g. the dataset it names
    /// is about to be mutated in place). Fires an `Evicted` event so
    /// durability mirrors drop the entry too; does not count toward the
    /// LRU `evictions` stat, which tracks capacity pressure only.
    pub fn remove(&self, key: &CacheKey) -> Option<CacheEntry> {
        let entry = self.inner.lock().map.remove(key).map(|s| s.entry)?;
        self.notify(&[CacheEvent::Evicted { key: key.clone(), entry: entry.clone() }]);
        Some(entry)
    }

    /// Remove every entry whose manifest names `dataset` — the store
    /// objects behind that dataset are about to be rewritten, so any
    /// entry still pointing at them would serve the new bytes under the
    /// old key. `keep` (the entry a running hit consumed) survives.
    /// Fires an `Evicted` event per removal; returns how many dropped.
    pub fn invalidate_dataset(&self, dataset: &str, keep: Option<&CacheKey>) -> usize {
        let removed: Vec<(CacheKey, CacheEntry)> = {
            let mut inner = self.inner.lock();
            let victims: Vec<CacheKey> = inner
                .map
                .iter()
                .filter(|(k, s)| s.entry.manifest.name == dataset && Some(*k) != keep)
                .map(|(k, _)| k.clone())
                .collect();
            victims.into_iter().filter_map(|k| inner.map.remove(&k).map(|s| (k, s.entry))).collect()
        };
        let events: Vec<CacheEvent> = removed
            .iter()
            .map(|(k, e)| CacheEvent::Evicted { key: k.clone(), entry: e.clone() })
            .collect();
        self.notify(&events);
        removed.len()
    }

    /// Snapshot every resident entry (journal compaction, debugging).
    pub fn entries(&self) -> Vec<(CacheKey, CacheEntry)> {
        let inner = self.inner.lock();
        let mut all: Vec<(CacheKey, CacheEntry)> =
            inner.map.iter().map(|(k, s)| (k.clone(), s.entry.clone())).collect();
        all.sort_by(|a, b| (a.0.input, &a.0.prefix).cmp(&(b.0.input, &b.0.prefix)));
        all
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let (entries, pinned) = {
            let inner = self.inner.lock();
            let pinned = inner.map.values().filter(|s| s.pins.load(Ordering::SeqCst) > 0).count();
            (inner.map.len() as u64, pinned as u64)
        };
        CacheStats {
            enabled: true,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries,
            pinned,
            capacity: self.capacity as u64,
            reuse_saved_ns: self.reuse_saved_ns.load(Ordering::Relaxed),
        }
    }

    fn evict_to_capacity(&self, inner: &mut Inner) -> Vec<(CacheKey, CacheEntry)> {
        let mut evicted = Vec::new();
        while inner.map.len() > self.capacity {
            let victim = inner
                .map
                .iter()
                .filter(|(_, s)| s.pins.load(Ordering::SeqCst) == 0)
                .min_by_key(|(_, s)| s.last_used)
                .map(|(k, _)| k.clone());
            match victim {
                Some(key) => {
                    let slot = inner.map.remove(&key).expect("victim key resident");
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    evicted.push((key, slot.entry));
                }
                // Everything resident is pinned by running jobs: the
                // bound yields rather than break a dependency.
                None => break,
            }
        }
        evicted
    }

    fn notify(&self, events: &[CacheEvent]) {
        let listener = self.listener.lock();
        if let Some(listener) = listener.as_ref() {
            for event in events {
                listener(event);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest(name: &str) -> Manifest {
        Manifest::new(name)
    }

    fn entry(name: &str, cost_ns: u64) -> CacheEntry {
        CacheEntry { manifest: manifest(name), state: "aligned".into(), stages: 2, cost_ns }
    }

    fn key(input: &[u8], prefix: &str) -> CacheKey {
        CacheKey::new(Digest::of_bytes(input), prefix)
    }

    #[test]
    fn insert_then_longest_match_prefers_longest() {
        let cache = ResultCache::new(8);
        let input = Digest::of_bytes(b"reads");
        cache.insert(CacheKey::new(input, "p1"), entry("a", 10));
        cache.insert(CacheKey::new(input, "p1p2"), entry("b", 20));
        let prefixes = vec!["p1p2p3".to_string(), "p1p2".to_string(), "p1".to_string()];
        let hit = cache.longest_match(input, &prefixes).expect("hit");
        assert_eq!(hit.index, 1);
        assert_eq!(hit.entry.manifest.name, "b");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 0));
        assert_eq!(stats.reuse_saved_ns, 20);
    }

    #[test]
    fn miss_counts_once_across_probes() {
        let cache = ResultCache::new(8);
        let input = Digest::of_bytes(b"reads");
        let prefixes = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        assert!(cache.longest_match(input, &prefixes).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 1));
    }

    #[test]
    fn lru_evicts_coldest_unpinned() {
        let cache = ResultCache::new(2);
        cache.insert(key(b"i", "p1"), entry("a", 1));
        cache.insert(key(b"i", "p2"), entry("b", 1));
        // Touch p1 so p2 becomes coldest.
        let hit = cache.longest_match(Digest::of_bytes(b"i"), &["p1".to_string()]);
        drop(hit);
        let evicted = cache.insert(key(b"i", "p3"), entry("c", 1));
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].0.prefix, "p2");
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn pinned_entries_survive_eviction_pressure() {
        let cache = ResultCache::new(1);
        cache.insert(key(b"i", "p1"), entry("a", 1));
        let hit = cache.longest_match(Digest::of_bytes(b"i"), &["p1".to_string()]).expect("hit");
        // p1 is pinned and coldest; inserting p2 must evict nothing
        // (capacity transiently exceeded) until the pin drops.
        let evicted = cache.insert(key(b"i", "p2"), entry("b", 1));
        assert!(evicted.iter().all(|(k, _)| k.prefix != "p1"));
        assert!(cache.peek(&key(b"i", "p1")).is_some());
        assert_eq!(cache.stats().pinned, 1);
        drop(hit.pin);
        assert_eq!(cache.stats().pinned, 0);
        // Next insert can now reclaim p1.
        let evicted = cache.insert(key(b"i", "p3"), entry("c", 1));
        assert!(evicted.iter().any(|(k, _)| k.prefix == "p1"));
    }

    #[test]
    fn refresh_does_not_grow_the_map() {
        let cache = ResultCache::new(4);
        cache.insert(key(b"i", "p1"), entry("a", 1));
        cache.insert(key(b"i", "p1"), entry("a2", 2));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.peek(&key(b"i", "p1")).unwrap().manifest.name, "a2");
        assert_eq!(cache.stats().insertions, 2);
    }

    #[test]
    fn listener_sees_inserts_and_evicts() {
        use std::sync::Mutex as StdMutex;
        let cache = Arc::new(ResultCache::new(1));
        let seen: Arc<StdMutex<Vec<String>>> = Arc::new(StdMutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        cache.set_listener(move |event| {
            let tag = match event {
                CacheEvent::Inserted { key, .. } => format!("+{}", key.prefix),
                CacheEvent::Evicted { key, .. } => format!("-{}", key.prefix),
            };
            sink.lock().unwrap().push(tag);
        });
        cache.insert(key(b"i", "p1"), entry("a", 1));
        cache.insert(key(b"i", "p2"), entry("b", 1));
        cache.remove(&key(b"i", "p2"));
        let log = seen.lock().unwrap().clone();
        assert_eq!(log, vec!["+p1", "+p2", "-p1", "-p2"]);
        // Invalidation is not capacity pressure.
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn invalidate_dataset_spares_the_kept_key() {
        let cache = ResultCache::new(8);
        // Two entries point at dataset "ds" under different keys (same
        // input, different prefixes); a third names another dataset.
        cache.insert(key(b"i", "p1"), entry("ds", 1));
        cache.insert(key(b"i", "p2"), entry("ds", 2));
        cache.insert(key(b"i", "p3"), entry("other", 3));
        let kept = key(b"i", "p2");
        assert_eq!(cache.invalidate_dataset("ds", Some(&kept)), 1);
        assert!(cache.peek(&key(b"i", "p1")).is_none());
        assert!(cache.peek(&kept).is_some());
        assert!(cache.peek(&key(b"i", "p3")).is_some());
    }

    #[test]
    fn entries_snapshot_is_sorted_and_complete() {
        let cache = ResultCache::new(8);
        cache.insert(key(b"i", "p2"), entry("b", 1));
        cache.insert(key(b"i", "p1"), entry("a", 1));
        let all = cache.entries();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0.prefix, "p1");
        assert_eq!(all[1].0.prefix, "p2");
    }

    #[test]
    fn stats_serde_round_trips() {
        let cache = ResultCache::new(3);
        cache.insert(key(b"i", "p1"), entry("a", 7));
        cache.longest_match(Digest::of_bytes(b"i"), &["p1".to_string()]);
        cache.longest_match(Digest::of_bytes(b"i"), &["nope".to_string()]);
        let stats = cache.stats();
        let json = serde_json::to_string(&stats).unwrap();
        let back: CacheStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn key_and_entry_serde_round_trip() {
        let k = key(b"input", r#"{"input":"fastq","stages":["import"]}"#);
        let v = serde_json::to_string(&k).unwrap();
        let back: CacheKey = serde_json::from_str(&v).unwrap();
        assert_eq!(back, k);

        let e = entry("ds", 1234);
        let v = serde_json::to_string(&e).unwrap();
        let back: CacheEntry = serde_json::from_str(&v).unwrap();
        assert_eq!(back, e);
    }
}
