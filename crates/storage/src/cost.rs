//! The simulated IO cost model and its accounting.
//!
//! The paper (§5.5): "each sequential access and random access is accounted
//! for by adding 1ms and 10ms respectively, to the disk IO time. These disk
//! IO costs are in line with reported numbers for Windows and Linux."

/// Per-access costs of the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of fetching the page that directly follows the previously
    /// fetched page.
    pub sequential_ms: f64,
    /// Cost of fetching any other page.
    pub random_ms: f64,
}

impl Default for CostModel {
    /// The paper's constants: 1 ms sequential, 10 ms random.
    fn default() -> Self {
        Self {
            sequential_ms: 1.0,
            random_ms: 10.0,
        }
    }
}

/// Counters of simulated disk activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Page requests satisfied from the buffer pool.
    pub cache_hits: u64,
    /// Pages fetched sequentially (previous fetched page + 1), including
    /// lookahead prefetches.
    pub sequential_fetches: u64,
    /// Pages fetched at random positions.
    pub random_fetches: u64,
}

impl IoStats {
    /// Total pages fetched from the simulated disk.
    pub fn total_fetches(&self) -> u64 {
        self.sequential_fetches + self.random_fetches
    }

    /// Total page requests (hits + fetches).
    pub fn total_accesses(&self) -> u64 {
        self.cache_hits + self.total_fetches()
    }

    /// Adds another query's counters into this one (for aggregate
    /// accounting across many served queries).
    pub fn accumulate(&mut self, other: &IoStats) {
        self.cache_hits += other.cache_hits;
        self.sequential_fetches += other.sequential_fetches;
        self.random_fetches += other.random_fetches;
    }

    /// Simulated IO time under `model`.
    pub fn io_ms(&self, model: &CostModel) -> f64 {
        self.sequential_fetches as f64 * model.sequential_ms
            + self.random_fetches as f64 * model.random_ms
    }

    /// Cache hit rate in `[0, 1]`; 0 when nothing was accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Difference of two snapshots (`self` must be the later one).
    pub fn since(&self, earlier: &IoStats) -> IoStats {
        IoStats {
            cache_hits: self.cache_hits - earlier.cache_hits,
            sequential_fetches: self.sequential_fetches - earlier.sequential_fetches,
            random_fetches: self.random_fetches - earlier.random_fetches,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let m = CostModel::default();
        assert_eq!(m.sequential_ms, 1.0);
        assert_eq!(m.random_ms, 10.0);
    }

    #[test]
    fn io_ms_weights_access_kinds() {
        let s = IoStats {
            cache_hits: 100,
            sequential_fetches: 5,
            random_fetches: 3,
        };
        let m = CostModel::default();
        assert_eq!(s.io_ms(&m), 5.0 + 30.0);
        assert_eq!(s.total_fetches(), 8);
        assert_eq!(s.total_accesses(), 108);
    }

    #[test]
    fn hit_rate() {
        let s = IoStats {
            cache_hits: 3,
            sequential_fetches: 1,
            random_fetches: 0,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(IoStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn since_subtracts() {
        let early = IoStats {
            cache_hits: 1,
            sequential_fetches: 2,
            random_fetches: 3,
        };
        let late = IoStats {
            cache_hits: 10,
            sequential_fetches: 20,
            random_fetches: 30,
        };
        let d = late.since(&early);
        assert_eq!(
            d,
            IoStats {
                cache_hits: 9,
                sequential_fetches: 18,
                random_fetches: 27
            }
        );
    }

    #[test]
    fn custom_model() {
        let m = CostModel {
            sequential_ms: 0.5,
            random_ms: 4.0,
        };
        let s = IoStats {
            cache_hits: 0,
            sequential_fetches: 2,
            random_fetches: 2,
        };
        assert_eq!(s.io_ms(&m), 9.0);
    }
}
