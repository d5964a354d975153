//! Sharded, content-addressed result cache with byte-budget LRU
//! eviction.
//!
//! Keys are the FNV-1a hash of a query's *canonical* rendering
//! ([`crate::Query::canonical`]), so two wire lines that differ only in
//! field order address the same entry. A 64-bit hash can collide, so
//! every entry also stores its canonical string and a lookup whose
//! canonical differs is a miss, never a wrong answer.
//!
//! The cache is split into shards, each behind its own mutex, so
//! concurrent workers rarely contend. Each shard enforces its slice of
//! the byte budget by evicting least-recently-used entries; recency is
//! a monotonic tick stamped on every hit.
//!
//! Each cache keeps its own counters in struct-level atomics (exact,
//! per cache, and queryable regardless of probe state); the `metrics`
//! reply's `cache` block reads them. Hits, misses and insertions are
//! also recorded as `sram-probe` counters (`serve.cache.*`), which
//! serve-bench and the soaks assert over a whole process.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::Json;

/// Cache sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of independently locked shards (rounded up to ≥ 1).
    pub shards: usize,
    /// Total byte budget across all shards (split evenly).
    pub byte_budget: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            byte_budget: 4 * 1024 * 1024,
        }
    }
}

/// A point-in-time copy of the cache counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups that returned a cached value.
    pub hits: u64,
    /// Lookups that found nothing (or a hash collision).
    pub misses: u64,
    /// Entries removed to respect the byte budget.
    pub evictions: u64,
    /// Entries stored (including overwrites).
    pub insertions: u64,
    /// Bytes currently resident.
    pub bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

struct Entry {
    canonical: String,
    value: Arc<Json>,
    size: usize,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    entries: HashMap<u64, Entry>,
    bytes: usize,
}

/// The sharded content-addressed cache.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    budget_per_shard: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
    bytes: AtomicU64,
}

impl ResultCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let n = config.shards.max(1);
        Self {
            shards: (0..n).map(|_| Mutex::new(Shard::default())).collect(),
            budget_per_shard: (config.byte_budget / n).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        // The FNV output is well mixed; low bits pick the shard.
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Looks up a result. `canonical` disambiguates hash collisions: a
    /// resident entry whose canonical string differs is a miss.
    pub fn get(&self, key: u64, canonical: &str) -> Option<Arc<Json>> {
        let hit = self.get_hit(key, canonical);
        if hit.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            sram_probe::probe_inc!("serve.cache.misses");
        }
        hit
    }

    /// Like [`ResultCache::get`], but counts only a hit: a miss leaves
    /// the counters alone, for a caller whose miss is looked up (and
    /// counted) again by [`ResultCache::get`].
    pub fn get_hit(&self, key: u64, canonical: &str) -> Option<Arc<Json>> {
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let hit = match shard.entries.get_mut(&key) {
            Some(entry) if entry.canonical == canonical => {
                entry.last_used = tick;
                Some(Arc::clone(&entry.value))
            }
            _ => None,
        };
        drop(shard);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            sram_probe::probe_inc!("serve.cache.hits");
        }
        hit
    }

    /// Stores a result, then evicts least-recently-used entries until
    /// the shard is back under its byte budget. An oversized value can
    /// evict everything including itself — the cache never holds more
    /// than its budget.
    pub fn insert(&self, key: u64, canonical: &str, value: Arc<Json>) {
        let size = canonical.len() + value.render().len() + ENTRY_OVERHEAD;
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut shard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);

        if let Some(old) = shard.entries.remove(&key) {
            shard.bytes -= old.size;
            self.bytes.fetch_sub(old.size as u64, Ordering::Relaxed);
        }
        shard.entries.insert(
            key,
            Entry {
                canonical: canonical.to_string(),
                value,
                size,
                last_used: tick,
            },
        );
        shard.bytes += size;
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        sram_probe::probe_inc!("serve.cache.insertions");

        let mut evicted = 0u64;
        while shard.bytes > self.budget_per_shard && !shard.entries.is_empty() {
            let lru_key = shard
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            let Some(lru_key) = lru_key else { break };
            if let Some(victim) = shard.entries.remove(&lru_key) {
                shard.bytes -= victim.size;
                self.bytes.fetch_sub(victim.size as u64, Ordering::Relaxed);
                evicted += 1;
            }
        }
        drop(shard);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Snapshot of the counters.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    /// Entries currently resident across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .entries
                    .len()
            })
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of every resident entry as
    /// `(canonical query, cached result)` pairs, ordered by canonical
    /// string so persistence output is deterministic. Shards are locked
    /// one at a time, so the copy is per-shard consistent but not a
    /// global atomic snapshot — fine for spill-on-shutdown, where the
    /// workers have already drained.
    #[must_use]
    pub fn export(&self) -> Vec<(String, Arc<Json>)> {
        let mut out: Vec<(String, Arc<Json>)> = Vec::new();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            for entry in shard.entries.values() {
                out.push((entry.canonical.clone(), Arc::clone(&entry.value)));
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Fixed per-entry accounting overhead (hash-map slot, `Arc`, recency
/// bookkeeping) added to the measured payload size.
const ENTRY_OVERHEAD: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    fn val(s: &str) -> Arc<Json> {
        Arc::new(Json::Str(s.to_string()))
    }

    /// Single-shard cache so eviction order is fully deterministic.
    fn small_cache(byte_budget: usize) -> ResultCache {
        ResultCache::new(CacheConfig {
            shards: 1,
            byte_budget,
        })
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let cache = small_cache(1 << 20);
        assert!(cache.get(1, "q1").is_none());
        cache.insert(1, "q1", val("r1"));
        let got = cache.get(1, "q1").expect("hit");
        assert_eq!(got.as_str(), Some("r1"));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.insertions), (1, 1, 1));
    }

    #[test]
    fn get_hit_counts_a_hit_and_never_a_miss() {
        let cache = small_cache(1 << 20);
        assert!(cache.get_hit(1, "q1").is_none());
        assert_eq!(cache.counters().misses, 0);
        cache.insert(1, "q1", val("r1"));
        assert_eq!(cache.get_hit(1, "q1").unwrap().as_str(), Some("r1"));
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 0));
    }

    #[test]
    fn hash_collision_is_a_miss_not_a_wrong_answer() {
        let cache = small_cache(1 << 20);
        cache.insert(42, "query-a", val("a"));
        assert!(cache.get(42, "query-b").is_none());
        assert_eq!(cache.get(42, "query-a").unwrap().as_str(), Some("a"));
    }

    #[test]
    fn lru_eviction_respects_recency() {
        // Budget fits two entries; touching the older one makes the
        // other the victim.
        let entry_size = 2 + 5 + ENTRY_OVERHEAD; // canonical "qN" + rendered "\"rNN\""
        let cache = small_cache(2 * entry_size);
        cache.insert(1, "q1", val("r11"));
        cache.insert(2, "q2", val("r22"));
        assert_eq!(cache.len(), 2);
        cache.get(1, "q1").expect("q1 resident");
        cache.insert(3, "q3", val("r33"));
        assert!(cache.get(2, "q2").is_none(), "LRU entry evicted");
        assert!(cache.get(1, "q1").is_some(), "recently used survives");
        assert!(cache.get(3, "q3").is_some(), "new entry resident");
        assert_eq!(cache.counters().evictions, 1);
    }

    #[test]
    fn overwrite_replaces_without_leaking_bytes() {
        let cache = small_cache(1 << 20);
        cache.insert(7, "q", val("short"));
        let before = cache.counters().bytes;
        cache.insert(7, "q", val("a considerably longer payload"));
        let after = cache.counters().bytes;
        assert_eq!(cache.len(), 1);
        assert!(after > before);
        cache.insert(7, "q", val("short"));
        assert_eq!(cache.counters().bytes, before);
    }

    #[test]
    fn export_returns_all_entries_sorted_by_canonical() {
        let cache = small_cache(1 << 20);
        cache.insert(2, "q-b", val("b"));
        cache.insert(1, "q-a", val("a"));
        let entries = cache.export();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].0, "q-a");
        assert_eq!(entries[1].0, "q-b");
        assert_eq!(entries[1].1.as_str(), Some("b"));
    }

    #[test]
    fn oversized_value_does_not_stick() {
        let cache = small_cache(8);
        cache.insert(1, "q1", val("way too large for an 8-byte budget"));
        assert!(cache.is_empty());
        assert_eq!(cache.counters().bytes, 0);
        assert!(cache.counters().evictions >= 1);
    }
}
