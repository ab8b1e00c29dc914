//! The workspace's one sharded LRU cache.
//!
//! Two instantiations share this implementation: `ipm_core`'s query
//! **result cache** (re-exported there as `ipm_core::cache`, keyed by the
//! full request `(query, k, options, epoch)`, so a repeated interactive
//! request skips list traversal — and on the disk backend every simulated
//! IO millisecond — entirely) and this crate's decoded-block cache
//! ([`crate::blockcache::DecodedBlockCache`], `BlockKey → decoded block`).
//!
//! Design: `shards` independent LRU maps, each behind its own
//! `std::sync::Mutex`; a key hashes to one shard, so concurrent users
//! rarely contend on the same lock. Each shard is a
//! `HashMap<K, slab index>` plus an intrusive doubly-linked recency list
//! over a slab — O(1) lookup, insert and eviction.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ipm_corpus::hash::FxHasher;

/// Cache sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of independent shards (rounded up to at least 1).
    pub shards: usize,
    /// Entries per shard; total capacity is `shards × capacity_per_shard`.
    pub capacity_per_shard: usize,
}

impl Default for CacheConfig {
    /// 8 shards × 128 entries — ~1k cached queries.
    fn default() -> Self {
        Self {
            shards: 8,
            capacity_per_shard: 128,
        }
    }
}

/// Hit/miss counters (monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that missed (including lookups with the cache disabled).
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const NIL: usize = usize::MAX;

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

/// One LRU shard: map + intrusive recency list over a slab.
struct Shard<K, V> {
    map: HashMap<K, usize, BuildHasherDefault<FxHasher>>,
    slab: Vec<Node<K, V>>,
    /// Most recently used node, `NIL` when empty.
    head: usize,
    /// Least recently used node, `NIL` when empty.
    tail: usize,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Clone> Shard<K, V> {
    fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::with_capacity_and_hasher(capacity, Default::default()),
            slab: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Unlinks node `i` from the recency list.
    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Links node `i` at the head (most recently used).
    fn link_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        let &i = self.map.get(key)?;
        if i != self.head {
            self.unlink(i);
            self.link_front(i);
        }
        Some(self.slab[i].value.clone())
    }

    fn insert(&mut self, key: K, value: V) {
        if let Some(&i) = self.map.get(&key) {
            self.slab[i].value = value;
            if i != self.head {
                self.unlink(i);
                self.link_front(i);
            }
            return;
        }
        let i = if self.slab.len() < self.capacity {
            self.slab.push(Node {
                key: key.clone(),
                value,
                prev: NIL,
                next: NIL,
            });
            self.slab.len() - 1
        } else {
            // Evict the least recently used entry and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.slab[victim].key = key.clone();
            self.slab[victim].value = value;
            victim
        };
        self.map.insert(key, i);
        self.link_front(i);
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slab.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// A thread-safe sharded LRU cache.
pub struct ShardedLruCache<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    hasher: BuildHasherDefault<FxHasher>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedLruCache<K, V> {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let capacity = config.capacity_per_shard.max(1);
        Self {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(capacity)))
                .collect(),
            hasher: Default::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let h = self.hasher.hash_one(key);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Looks a key up, refreshing its recency and counting hit/miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let got = self.shard_of(key).lock().unwrap().get(key);
        // Relaxed: the hit/miss counters are advisory; values travel under
        // the shard lock.
        match &got {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        got
    }

    /// Whether `key` is currently cached, without refreshing recency or
    /// counting hit/miss. The batch executor's pre-probe: deciding
    /// whether an item still needs a fused scan must not distort the
    /// cache telemetry of the authoritative probe that follows.
    pub fn peek(&self, key: &K) -> bool {
        self.shard_of(key).lock().unwrap().map.contains_key(key)
    }

    /// Inserts (or refreshes) an entry, evicting the shard's LRU entry
    /// when full.
    pub fn insert(&self, key: K, value: V) {
        self.shard_of(&key).lock().unwrap().insert(key, value);
    }

    /// Entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters keep accumulating).
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().unwrap().clear();
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl<K, V> std::fmt::Debug for ShardedLruCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLruCache")
            .field("shards", &self.shards.len())
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(shards: usize, cap: usize) -> ShardedLruCache<u64, String> {
        ShardedLruCache::new(CacheConfig {
            shards,
            capacity_per_shard: cap,
        })
    }

    #[test]
    fn insert_get_roundtrip() {
        let c = cache(4, 8);
        assert!(c.get(&1).is_none());
        c.insert(1, "one".into());
        assert_eq!(c.get(&1).as_deref(), Some("one"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn update_replaces_value() {
        let c = cache(1, 4);
        c.insert(7, "a".into());
        c.insert(7, "b".into());
        assert_eq!(c.get(&7).as_deref(), Some("b"));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let c = cache(1, 3);
        c.insert(1, "1".into());
        c.insert(2, "2".into());
        c.insert(3, "3".into());
        // Touch 1 so 2 becomes the LRU.
        assert!(c.get(&1).is_some());
        c.insert(4, "4".into());
        assert!(c.get(&2).is_none(), "2 was least recently used");
        assert!(c.get(&1).is_some());
        assert!(c.get(&3).is_some());
        assert!(c.get(&4).is_some());
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn eviction_stress_against_reference_model() {
        // Single shard vs a naive reference LRU.
        let c = cache(1, 8);
        let mut reference: Vec<u64> = Vec::new(); // most recent last
        for i in 0..1000u64 {
            let key = i * 7919 % 37;
            let hit = c.get(&key).is_some();
            let ref_hit = reference.contains(&key);
            assert_eq!(hit, ref_hit, "step {i} key {key}");
            if ref_hit {
                reference.retain(|&k| k != key);
            } else {
                c.insert(key, key.to_string());
                if reference.len() == 8 {
                    reference.remove(0);
                }
            }
            reference.push(key);
        }
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let c = cache(2, 4);
        c.insert(1, "x".into());
        assert!(c.get(&1).is_some());
        c.clear();
        assert!(c.is_empty());
        assert!(c.get(&1).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn sharded_concurrent_access() {
        let c = std::sync::Arc::new(cache(8, 32));
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..200u64 {
                        let key = t * 1000 + i % 40;
                        c.insert(key, key.to_string());
                        assert_eq!(c.get(&key).as_deref(), Some(key.to_string().as_str()));
                    }
                });
            }
        });
        let s = c.stats();
        assert_eq!(s.hits, 8 * 200);
    }

    #[test]
    fn concurrent_inserts_never_exceed_capacity() {
        // Eviction under contention: 8 writers push far more distinct keys
        // than the cache holds; occupancy must stay bounded and every
        // shard must stay internally consistent (no panics, no lost
        // lookups of still-resident keys).
        let c = std::sync::Arc::new(cache(4, 16)); // 64 entries total
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..500u64 {
                        let key = t * 10_000 + i;
                        c.insert(key, key.to_string());
                        if let Some(v) = c.get(&key) {
                            assert_eq!(v, key.to_string());
                        }
                    }
                });
            }
        });
        assert!(
            c.len() <= 64,
            "occupancy {} exceeded capacity under concurrent eviction",
            c.len()
        );
        assert!(!c.is_empty());
    }

    #[test]
    fn clear_races_with_readers_and_writers() {
        // `clear` must be able to run at any point between other threads'
        // gets and inserts without corrupting entries: a successful get
        // always returns the exact value inserted for that key.
        let c = std::sync::Arc::new(cache(4, 32));
        std::thread::scope(|s| {
            for t in 0..6u64 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        let key = t * 100 + i % 50;
                        c.insert(key, key.to_string());
                        if let Some(v) = c.get(&key) {
                            assert_eq!(v, key.to_string(), "torn value after racing clear");
                        }
                    }
                });
            }
            let c2 = c.clone();
            s.spawn(move || {
                for _ in 0..300 {
                    c2.clear();
                    std::thread::yield_now();
                }
            });
        });
        // The cache still works after the dust settles.
        c.insert(1, "1".into());
        assert_eq!(c.get(&1).as_deref(), Some("1"));
    }

    #[test]
    fn zero_config_is_clamped() {
        let c: ShardedLruCache<u64, u64> = ShardedLruCache::new(CacheConfig {
            shards: 0,
            capacity_per_shard: 0,
        });
        c.insert(1, 1);
        c.insert(2, 2);
        assert_eq!(c.len(), 1, "capacity clamps to one entry");
    }
}
