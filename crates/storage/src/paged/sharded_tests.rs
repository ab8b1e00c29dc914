//! Unit tests of a sharded `disk` layout: one flat [`crate::PagedImage`]
//! per phrase-id shard ([`crate::PagedImage::shards`]), each with its own pool.

#[cfg(test)]
mod tests {
    use ipm_index::backend::{ListBackend, ListEncoding};
    use ipm_index::cursor::ScoredListCursor;

    use crate::cost::IoStats;
    use crate::files::{FlatLists, PHRASE_ENTRY_BYTES};
    use crate::paged::tests::{bits, drain_scores, fixture};
    use crate::pool::PoolConfig;
    use crate::PagedImage;

    #[test]
    fn shard_cursors_reproduce_range_filtered_lists() {
        let f = fixture();
        let shards = f.shards::<FlatLists>(3);
        let feat = f.widest();
        let want = bits(f.lists.list(feat).iter().copied());
        let mut seen = 0;
        for shard in &shards {
            let (lo, hi) = shard.phrase_range().unwrap();
            for e in drain_scores(shard.score_cursor(feat, 1.0)) {
                assert!(lo <= e.0 && e.0 < hi);
                assert!(want.contains(&e), "no entry invented");
                seen += 1;
            }
        }
        assert_eq!(seen, want.len(), "no entry lost");
        assert!(
            shards
                .iter()
                .map(|s| s.io_stats().total_accesses())
                .sum::<u64>()
                > 0
        );
    }

    #[test]
    fn io_aggregates_and_resets_across_shards() {
        let f = fixture();
        let shards = f.shards::<FlatLists>(2);
        let feat = f.widest();
        for shard in &shards {
            let mut cur = shard.score_cursor(feat, 1.0);
            while ScoredListCursor::next_entry(&mut cur).is_some() {}
        }
        let total: u64 = shards.iter().map(|s| s.io_stats().total_accesses()).sum();
        assert!(
            total >= f.lists.list(feat).len() as u64,
            "each entry is read"
        );
        let cold: Vec<_> = shards.iter().map(PagedImage::cold_view).collect();
        assert!(cold.iter().all(|s| s.io_stats() == IoStats::default()));
        // Each shard owns its pool: a read on one charges no other.
        drain_scores(cold[1].score_cursor(feat, 1.0));
        assert!(cold[1].io_fetches() > 0);
        assert_eq!(cold[0].io_stats(), IoStats::default());
    }

    #[test]
    fn phrase_file_counted_once_in_size() {
        // Sharding redistributes the same entries: the shards' list
        // regions sum to the unsharded one. Every shard accounts the same
        // whole-dictionary phrase region, so the layout holds it once.
        let f = fixture();
        let one: PagedImage<FlatLists> = f.image(PoolConfig::default());
        let four = f.shards::<FlatLists>(4);
        let phrases = f.index.dict.len() * PHRASE_ENTRY_BYTES;
        let regions: u64 = four.iter().map(|s| s.lists().region_bytes()).sum();
        assert_eq!(regions, one.lists().region_bytes());
        for shard in &four {
            assert_eq!(
                shard.size_bytes(),
                shard.lists().region_bytes() as usize + phrases
            );
        }
        assert_eq!(regions as usize + phrases, one.size_bytes());
    }
}
