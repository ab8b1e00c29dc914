//! The simulated buffer pool: an LRU page cache with lookahead.
//!
//! Configuration mirrors the paper's simulation (§5.5): 32 KiB pages, a
//! 16-page LRU cache, and a 1-page lookahead on every page access. Accesses
//! are classified *sequential* when the fetched page number is exactly one
//! past the previously fetched page, *random* otherwise; [`crate::cost`]
//! turns the counters into simulated milliseconds.
//!
//! The pool stores no page *contents* — the backing data stays in the
//! file's own memory and readers slice into it directly. What the pool
//! simulates is purely which pages would have been resident, and what the
//! fetch pattern would have cost. This keeps the simulation faithful while
//! avoiding a second copy of the index (the same approach as the paper's
//! log-based simulation).

use crate::cost::IoStats;

/// Buffer pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Page size in bytes.
    pub page_size: usize,
    /// Number of pages the pool can hold.
    pub capacity_pages: usize,
    /// Pages prefetched after each on-demand fetch (the paper uses 1).
    pub lookahead_pages: usize,
}

impl Default for PoolConfig {
    /// The paper's configuration: 32 KiB pages, 16-page LRU, 1-page lookahead.
    fn default() -> Self {
        Self {
            page_size: 32 * 1024,
            capacity_pages: 16,
            lookahead_pages: 1,
        }
    }
}

/// LRU page cache with sequential/random fetch accounting.
#[derive(Debug, Clone)]
pub struct BufferPool {
    config: PoolConfig,
    /// Resident page numbers, most recently used last. Capacity is small
    /// (16 by default) so linear scans beat pointer-chased structures.
    resident: Vec<u64>,
    /// The last page actually fetched from "disk" (not the last accessed):
    /// sequentiality of the next fetch is judged against this, modelling
    /// the disk head position.
    last_fetched: Option<u64>,
    stats: IoStats,
}

impl BufferPool {
    /// Creates an empty pool.
    pub fn new(config: PoolConfig) -> Self {
        assert!(config.page_size > 0, "page size must be positive");
        assert!(config.capacity_pages > 0, "pool needs at least one page");
        Self {
            config,
            resident: Vec::with_capacity(config.capacity_pages),
            last_fetched: None,
            stats: IoStats::default(),
        }
    }

    /// Accumulated IO statistics.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Simulates accessing `page` (of file `file_pages` pages): classifies
    /// hit/sequential/random, updates LRU order, and prefetches lookahead
    /// pages.
    pub fn access(&mut self, page: u64, file_pages: u64) {
        if self.touch_resident(page) {
            self.stats.cache_hits += 1;
        } else {
            self.fetch(page);
            // Lookahead: prefetch the following page(s) if they exist and
            // are not already resident. Prefetches advance the head, so
            // they are sequential fetches by construction.
            for la in 1..=self.config.lookahead_pages as u64 {
                let next = page + la;
                if next >= file_pages {
                    break;
                }
                if !self.touch_resident(next) {
                    self.fetch(next);
                } else {
                    // Already resident: lookahead stops at the first
                    // resident page (it models the device read-ahead which
                    // would not re-read).
                    break;
                }
            }
        }
    }

    /// Accesses every page of the byte range `[offset, offset + len)`.
    pub fn access_range(&mut self, offset: u64, len: u64, file_len: u64) {
        if len == 0 {
            return;
        }
        let ps = self.config.page_size as u64;
        let first = offset / ps;
        let last = (offset + len - 1) / ps;
        let file_pages = file_len.div_ceil(ps);
        for p in first..=last {
            self.access(p, file_pages);
        }
    }

    /// Whether `page` is currently resident (does not touch LRU order).
    pub fn is_resident(&self, page: u64) -> bool {
        self.resident.contains(&page)
    }

    /// Moves `page` to most-recently-used if resident; returns whether it
    /// was resident.
    fn touch_resident(&mut self, page: u64) -> bool {
        if let Some(pos) = self.resident.iter().position(|&p| p == page) {
            let p = self.resident.remove(pos);
            self.resident.push(p);
            true
        } else {
            false
        }
    }

    /// Fetches `page` from the simulated disk: classifies the access,
    /// evicts the LRU page if full, and makes `page` most recently used.
    fn fetch(&mut self, page: u64) {
        let sequential = self.last_fetched == Some(page.wrapping_sub(1));
        if sequential {
            self.stats.sequential_fetches += 1;
        } else {
            self.stats.random_fetches += 1;
        }
        self.last_fetched = Some(page);
        if self.resident.len() == self.config.capacity_pages {
            self.resident.remove(0); // least recently used is first
        }
        self.resident.push(page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;

    fn pool(capacity: usize, lookahead: usize) -> BufferPool {
        BufferPool::new(PoolConfig {
            page_size: 64,
            capacity_pages: capacity,
            lookahead_pages: lookahead,
        })
    }

    #[test]
    fn first_access_is_random_fetch() {
        let mut p = pool(4, 0);
        p.access(5, 100);
        assert_eq!(p.stats().random_fetches, 1);
        assert_eq!(p.stats().sequential_fetches, 0);
    }

    #[test]
    fn consecutive_pages_are_sequential() {
        let mut p = pool(4, 0);
        p.access(5, 100);
        p.access(6, 100);
        p.access(7, 100);
        assert_eq!(p.stats().random_fetches, 1);
        assert_eq!(p.stats().sequential_fetches, 2);
    }

    #[test]
    fn repeat_access_hits_cache() {
        let mut p = pool(4, 0);
        p.access(5, 100);
        p.access(5, 100);
        assert_eq!(p.stats().cache_hits, 1);
        assert_eq!(p.stats().total_fetches(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut p = pool(2, 0);
        p.access(1, 100);
        p.access(2, 100);
        p.access(1, 100); // touch 1 -> LRU order [2, 1]
        p.access(3, 100); // evicts 2
        assert!(p.is_resident(1));
        assert!(p.is_resident(3));
        assert!(!p.is_resident(2));
        p.access(2, 100); // refetch: must count again
        assert_eq!(p.stats().total_fetches(), 4);
        assert_eq!(p.stats().cache_hits, 1); // only the touch of page 1
    }

    #[test]
    fn lookahead_prefetches_sequentially() {
        let mut p = pool(4, 1);
        p.access(10, 100);
        // page 10 random + prefetch 11 sequential
        assert_eq!(p.stats().random_fetches, 1);
        assert_eq!(p.stats().sequential_fetches, 1);
        // now accessing 11 is a cache hit
        p.access(11, 100);
        assert_eq!(p.stats().cache_hits, 1);
    }

    #[test]
    fn lookahead_respects_file_end() {
        let mut p = pool(4, 1);
        p.access(99, 100); // last page: nothing to prefetch
        assert_eq!(p.stats().total_fetches(), 1);
    }

    #[test]
    fn sequential_scan_with_lookahead_costs_like_paper() {
        // Scanning pages 0..10 with lookahead 1: page 0 random fetch,
        // prefetch 1; access 1 hit, ...: every odd page prefetched, every
        // even fetched sequentially except the first.
        let mut p = pool(16, 1);
        for page in 0..10 {
            p.access(page, 100);
        }
        let s = p.stats();
        assert_eq!(s.total_fetches(), 10); // each page fetched exactly once
        assert_eq!(s.random_fetches, 1); // only the very first
        assert_eq!(s.cache_hits, 5);
        assert_eq!(s.io_ms(&CostModel::default()), 9.0 + 10.0);
    }

    #[test]
    fn access_range_touches_straddled_pages() {
        let mut p = pool(16, 0);
        // page size 64: range [60, 140) covers pages 0, 1, 2
        p.access_range(60, 80, 1000);
        assert_eq!(p.stats().total_fetches(), 3);
        assert!(p.is_resident(0) && p.is_resident(1) && p.is_resident(2));
        // empty range touches nothing
        p.access_range(0, 0, 1000);
        assert_eq!(p.stats().total_accesses(), 3);
    }

    #[test]
    fn interleaved_streams_alternate_random() {
        // Round-robin between two distant lists: every fetch is random
        // (this is exactly why NRA pays more IO than a single scan).
        let mut p = pool(2, 0);
        for i in 0..4 {
            p.access(i, 1000);
            p.access(500 + i, 1000);
        }
        assert_eq!(p.stats().random_fetches, 8);
        assert_eq!(p.stats().sequential_fetches, 0);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn zero_capacity_panics() {
        let _ = BufferPool::new(PoolConfig {
            page_size: 64,
            capacity_pages: 0,
            lookahead_pages: 0,
        });
    }
}
