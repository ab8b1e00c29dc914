//! Unit tests of the `block` backend's image, a [`crate::PagedImage`] of
//! `BlockLists`: 128-entry blocks, one fetch per block a cursor or probe decodes, alone
//! and one image per shard.

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use ipm_corpus::PhraseId;
    use ipm_index::backend::ListBackend;
    use ipm_index::block::BlockLists;
    use ipm_index::cursor::{prefix_len, IdListCursor, ScoredListCursor};

    use crate::cost::IoStats;
    use crate::files::PHRASE_ENTRY_BYTES;
    use crate::paged::tests::{bits, drain_ids, drain_scores, fixture, Fixture};
    use crate::pool::PoolConfig;
    use crate::PagedImage;

    fn block(f: &Fixture) -> PagedImage<BlockLists> {
        f.image(PoolConfig::default())
    }

    #[test]
    fn cursors_match_memory_lists_and_charge_io() {
        let f = fixture();
        let img = block(&f);
        for &feat in f.lists.features() {
            let mut cur = img.score_cursor(feat, 1.0);
            for e in f.lists.list(feat) {
                let got = ScoredListCursor::next_entry(&mut cur).unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits());
            }
            assert!(ScoredListCursor::next_entry(&mut cur).is_none());
            let mut idc = img.id_cursor(feat);
            for e in f.id_lists.list(feat) {
                let got = IdListCursor::next_entry(&mut idc).unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits());
            }
            assert!(IdListCursor::next_entry(&mut idc).is_none());
            assert_eq!(img.list_len(feat), f.lists.list(feat).len());
        }
        // A run-time fraction cuts the cursor to the memory prefix.
        let feat = f.widest();
        let quarter = prefix_len(f.lists.list(feat).len(), 0.25);
        let cur = img.score_cursor(feat, 0.25);
        assert_eq!(ScoredListCursor::len(&cur), quarter);
        assert_eq!(drain_scores(cur).len(), quarter);
        assert!(
            img.io_stats().total_accesses() > 0,
            "block decodes must reach the pool"
        );
    }

    #[test]
    fn probe_matches_memory_and_charges() {
        let f = fixture();
        let img = block(&f);
        let feat = f.widest();
        for e in f.lists.list(feat).iter().take(10) {
            assert_eq!(img.probe(feat, e.phrase).to_bits(), e.prob.to_bits());
        }
        assert_eq!(img.probe(feat, PhraseId(u32::MAX)), 0.0);
        assert!(img.io_stats().total_accesses() > 0);
    }

    #[test]
    fn io_accounting_and_reset() {
        let f = fixture();
        let img = block(&f);
        let feat = f.widest();
        drain_scores(img.score_cursor(feat, 1.0));
        let paid = img.io_stats();
        assert!(paid.io_ms(img.cost_model()) > 0.0);
        assert_eq!(img.io_fetches(), paid.total_fetches());
        assert!(img.io_fetches() > 0);
        // A second identical pass re-decodes, but pages may be resident.
        drain_scores(img.score_cursor(feat, 1.0));
        assert!(img.io_stats().total_accesses() > paid.total_accesses());
        // A cold view pays the first pass's bill again, from its own pool.
        let cold = img.cold_view();
        assert_eq!(cold.io_stats(), IoStats::default());
        drain_scores(cold.score_cursor(feat, 1.0));
        assert_eq!(cold.io_stats(), paid);
    }

    #[test]
    fn sharded_image_covers_every_entry_and_aggregates_io() {
        let f = fixture();
        let shards = f.shards::<BlockLists>(3);
        assert_eq!(shards.len(), 3);
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
        // Each shard is its own device: the shard owning the top entry
        // paid for reading it, and a read on one shard charges no other.
        let owner = shards
            .iter()
            .find(|s| {
                let (lo, hi) = s.phrase_range().unwrap();
                lo <= want[0].0 && want[0].0 < hi
            })
            .unwrap();
        assert!(owner.io_fetches() > 0);
        let cold: Vec<_> = shards.iter().map(PagedImage::cold_view).collect();
        drain_scores(cold[0].score_cursor(feat, 1.0));
        assert!(cold[0].io_fetches() > 0);
        assert!(cold[1..].iter().all(|s| s.io_stats() == IoStats::default()));
    }

    #[test]
    fn df_table_counted_once_in_sharded_size() {
        // Every shard dequantizes against one shared df table, and a
        // shard's simulated size holds only its list and phrase regions,
        // never the table.
        let f = fixture();
        let four = f.shards::<BlockLists>(4);
        let df = four[0].lists().df();
        assert!(four.iter().all(|s| Arc::ptr_eq(s.lists().df(), df)));
        assert_eq!(
            Arc::strong_count(df),
            four.len(),
            "one table, one handle per shard"
        );
        let phrases = f.index.dict.len() * PHRASE_ENTRY_BYTES;
        for shard in &four {
            assert_eq!(shard.size_bytes(), shard.lists().image_bytes() + phrases);
        }
    }

    #[test]
    fn seek_skips_blocks_without_fetching_them() {
        // Galloping to the tail of a long id-ordered list must touch fewer
        // pages than streaming it: skipped blocks are never decoded, so
        // their byte ranges never reach the pool.
        let f = fixture();
        let small = PoolConfig {
            page_size: 64,
            capacity_pages: 16,
            lookahead_pages: 0,
        };
        let feat = f.widest();
        let last = f.id_lists.list(feat).last().unwrap().phrase;
        let streamed = f.image::<BlockLists>(small);
        drain_ids(streamed.id_cursor(feat));
        let full = streamed.io_stats().total_accesses();
        let sought = f.image::<BlockLists>(small);
        assert_eq!(sought.id_cursor(feat).seek(last).unwrap().phrase, last);
        let skipped = sought.io_stats().total_accesses();
        assert!(
            skipped < full,
            "seek paid {skipped} accesses, full stream paid {full}"
        );
    }
}
