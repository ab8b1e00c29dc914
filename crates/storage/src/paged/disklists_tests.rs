//! Unit tests of the `disk` backend's image, a [`crate::PagedImage`] of
//! [`crate::FlatLists`]: flat 12-byte entries, one fetch per entry a cursor or probe reads.

#[cfg(test)]
mod tests {
    use ipm_corpus::{Feature, PhraseId};
    use ipm_index::backend::{probe_id_ordered, ListBackend};
    use ipm_index::cursor::{prefix_len, IdListCursor, ScoredListCursor};

    use crate::cost::IoStats;
    use crate::paged::tests::{drain_scores, fixture, Fixture};
    use crate::pool::PoolConfig;
    use crate::{FlatLists, PagedImage};

    fn disk(f: &Fixture) -> PagedImage<FlatLists> {
        f.image(PoolConfig::default())
    }

    #[test]
    fn cursor_yields_same_entries_as_memory_list() {
        let f = fixture();
        let disk = disk(&f);
        for &feat in f.lists.features() {
            let want = f.lists.list(feat);
            let mut cur = disk.score_cursor(feat, 1.0);
            assert_eq!(ScoredListCursor::len(&cur), want.len());
            for e in want {
                let got = ScoredListCursor::next_entry(&mut cur).unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits());
            }
            assert!(ScoredListCursor::next_entry(&mut cur).is_none());
            assert_eq!(disk.list_len(feat), want.len());
        }
        assert!(disk.io_stats().total_accesses() > 0);
    }

    #[test]
    fn id_cursor_matches_memory_id_lists() {
        let f = fixture();
        let disk = disk(&f);
        for &feat in f.lists.features() {
            let want = f.id_lists.list(feat);
            let mut cur = disk.id_cursor(feat);
            assert_eq!(IdListCursor::len(&cur), want.len());
            for e in want {
                let got = IdListCursor::next_entry(&mut cur).unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits());
            }
            assert!(IdListCursor::next_entry(&mut cur).is_none());
        }
        assert!(disk.io_stats().total_accesses() > 0);
    }

    #[test]
    fn probe_matches_memory_probe_and_charges_io() {
        let f = fixture();
        let disk = disk(&f);
        let mut probes = 0;
        for &feat in f.lists.features().iter().take(20) {
            for e in f.lists.list(feat).iter().take(10) {
                assert_eq!(disk.probe(feat, e.phrase).to_bits(), e.prob.to_bits());
                probes += 1;
            }
            let absent = PhraseId(u32::MAX);
            assert_eq!(
                disk.probe(feat, absent),
                probe_id_ordered(f.id_lists.list(feat), absent)
            );
        }
        assert!(probes > 0);
        assert!(
            disk.io_stats().total_accesses() >= probes,
            "each probe touches at least one entry"
        );
    }

    #[test]
    fn partial_cursor_stops_at_fraction() {
        // A run-time fraction shortens the cursor.
        let f = fixture();
        let feat = f.widest();
        let full = f.lists.list(feat).len();
        let quarter = prefix_len(full, 0.25);
        let whole = disk(&f);
        let cur = whole.score_cursor(feat, 0.25);
        assert_eq!(ScoredListCursor::len(&cur), quarter);
        assert_eq!(drain_scores(cur).len(), quarter);
    }

    #[test]
    fn io_accounting_and_reset() {
        let f = fixture();
        let disk = disk(&f);
        drain_scores(disk.score_cursor(f.widest(), 1.0));
        let paid = disk.io_stats();
        assert!(paid.io_ms(disk.cost_model()) > 0.0);
        assert_eq!(disk.io_fetches(), paid.total_fetches());
        // A cold view starts from an empty pool, pays the same bill for
        // the same scan and charges nothing to the image it came from.
        let cold = disk.cold_view();
        assert_eq!(cold.io_stats(), IoStats::default());
        drain_scores(cold.score_cursor(f.widest(), 1.0));
        assert_eq!(cold.io_stats(), paid);
        assert_eq!(disk.io_stats(), paid);
    }

    #[test]
    fn round_robin_cursors_produce_random_io() {
        // Two cursors over far-apart lists read alternately: the head seeks
        // between the runs, which the simulator must classify as random.
        let f = fixture();
        let img: PagedImage<FlatLists> = f.image(PoolConfig {
            page_size: 256, // small pages to force many fetches
            capacity_pages: 4,
            lookahead_pages: 1,
        });
        let mut big: Vec<Feature> = f
            .lists
            .features()
            .iter()
            .copied()
            .filter(|feat| f.lists.list(*feat).len() > 64)
            .collect();
        big.sort_by_key(|feat| f.lists.list(*feat).len());
        let mut a = img.score_cursor(big[0], 1.0);
        let mut b = img.score_cursor(big[big.len() - 1], 1.0);
        for _ in 0..50 {
            ScoredListCursor::next_entry(&mut a);
            ScoredListCursor::next_entry(&mut b);
        }
        let s = img.io_stats();
        assert!(s.random_fetches > 2, "interleaved reads should seek: {s:?}");
    }
}
