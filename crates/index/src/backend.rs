//! The pluggable list-backend abstraction.
//!
//! The paper's algorithms need three access paths into the word-specific
//! phrase lists:
//!
//! * **score-ordered sorted access** — NRA and TA read entries in
//!   non-increasing `P(q|p)` order ([`ScoredListCursor`]);
//! * **phrase-ID-ordered sorted access** — SMJ merges lists in id order
//!   ([`IdListCursor`]);
//! * **random probes** — TA resolves a candidate's remaining scores by
//!   point lookups.
//!
//! [`ListBackend`] bundles the three behind one trait so every algorithm
//! in `ipm-core` is written once and runs unchanged over the in-memory
//! lists ([`MemoryBackend`]) or the simulated disk
//! (`ipm_storage::PagedImage`, which charges each access to its buffer
//! pool). This is the seam that turns the disk simulation from a
//! side-experiment reachable only via NRA into a first-class serving
//! backend for all four algorithms.

use std::sync::Arc;

use crate::block::FetchHook;
use crate::cursor::{IdListCursor, MemoryCursor, MemoryIdCursor, ScoredListCursor};
use crate::wordlists::{IdOrderedLists, ListEntry, WordPhraseLists};
use ipm_corpus::{Feature, PhraseId};

/// A source of word-specific phrase lists in both orders plus random-probe
/// access. Implementations must present a *consistent* snapshot: for any
/// feature the score-ordered list, the id-ordered list and the probe path
/// must expose the same `[phrase, prob]` multiset.
pub trait ListBackend {
    /// Score-ordered cursor type.
    type ScoreCursor<'a>: ScoredListCursor
    where
        Self: 'a;

    /// Phrase-id-ordered cursor type.
    type IdCursor<'a>: IdListCursor
    where
        Self: 'a;

    /// Opens a score-ordered cursor over the top-`fraction` prefix of
    /// `feature`'s list (run-time partial lists, paper §4.3). `1.0` reads
    /// the full list.
    fn score_cursor(&self, feature: Feature, fraction: f64) -> Self::ScoreCursor<'_>;

    /// Opens a phrase-id-ordered cursor over `feature`'s full list.
    fn id_cursor(&self, feature: Feature) -> Self::IdCursor<'_>;

    /// Random probe: `P(feature|phrase)`, `0.0` when the pair is absent.
    fn probe(&self, feature: Feature, phrase: PhraseId) -> f64;

    /// Entries in `feature`'s (untruncated) list; `0` if absent.
    fn list_len(&self, feature: Feature) -> usize;

    /// The half-open phrase-id range `[lo, hi)` this backend's lists are
    /// restricted to, or `None` when the backend serves the full phrase
    /// space. Partitioned ("sharded") backends report their slice so an
    /// executor can route per-phrase work — exact scoring, probe
    /// resolution, result-text lookup — to the owning shard.
    fn phrase_range(&self) -> Option<(PhraseId, PhraseId)> {
        None
    }

    /// Whether this backend's partition owns `phrase` (always true for an
    /// unsharded backend).
    fn owns_phrase(&self, phrase: PhraseId) -> bool {
        self.phrase_range()
            .is_none_or(|(lo, hi)| lo <= phrase && phrase < hi)
    }

    /// Total simulated disk page *fetches* this backend has performed so
    /// far (sequential + random; buffer-pool hits excluded). The IO-budget
    /// accounting hook: per-shard budget gauges poll it at cooperative
    /// checkpoints and charge the delta against the request's cap.
    /// Backends that perform no simulated IO report `0` (the default).
    fn io_fetches(&self) -> u64 {
        0
    }

    /// Resident bytes of this backend's list structures under its own
    /// storage model — flat 12-byte entries for the in-memory lists,
    /// serialized regions for the simulated disk, encoded blocks plus the
    /// df table for block-compressed lists. Backends that do not account
    /// for their footprint report `0` (the default).
    fn size_bytes(&self) -> usize {
        0
    }
}

/// How a simulated-disk image (`ipm_storage::PagedImage`) encodes its
/// list region: both list orders, score-ordered runs first, id-ordered
/// runs behind them. Cursors and probes report every byte range they read
/// to a [`FetchHook`], as offsets within the region; the image charges
/// them to its buffer pool. Two encodings exist: the block-compressed
/// [`BlockLists`](crate::block::BlockLists), and `ipm_storage`'s flat
/// 12-byte-entry `FlatLists`.
pub trait ListEncoding: Send + Sync + Sized {
    /// Score-ordered cursor type.
    type ScoreCursor<'a>: ScoredListCursor
    where
        Self: 'a;
    /// Phrase-id-ordered cursor type.
    type IdCursor<'a>: IdListCursor
    where
        Self: 'a;

    /// Encodes borrowed score-ordered and id-ordered lists; `df` is the
    /// per-phrase document-frequency table, one per build.
    fn encode(lists: &WordPhraseLists, id_lists: &IdOrderedLists, df: &Arc<Vec<u32>>) -> Self;

    /// Length of the list region in bytes.
    fn region_bytes(&self) -> u64;

    /// Entries in `feature`'s untruncated score-ordered list.
    fn entries(&self, feature: Feature) -> usize;

    /// A cursor over the top-`fraction` prefix of `feature`'s
    /// score-ordered list.
    fn scan_scores<'a>(
        &'a self,
        feature: Feature,
        fraction: f64,
        fetch: FetchHook<'a>,
    ) -> Self::ScoreCursor<'a>;

    /// A cursor over `feature`'s id-ordered list.
    fn scan_ids<'a>(&'a self, feature: Feature, fetch: FetchHook<'a>) -> Self::IdCursor<'a>;

    /// Random probe of `P(feature|phrase)`; `0.0` when the pair is absent.
    fn lookup(&self, feature: Feature, phrase: PhraseId, fetch: &dyn Fn(u64, u64)) -> f64;
}

/// Binary-searches an id-ordered list slice for a phrase's probability
/// (shared by the in-memory backend and tests; the disk backend performs
/// the same search through its buffer pool).
pub fn probe_id_ordered(list: &[ListEntry], phrase: PhraseId) -> f64 {
    match list.binary_search_by_key(&phrase, |e| e.phrase) {
        Ok(i) => list[i].prob,
        Err(_) => 0.0,
    }
}

/// The in-memory backend: borrows the miner's score-ordered and id-ordered
/// lists. Cursors are plain slice walks; probes are binary searches.
#[derive(Debug, Clone, Copy)]
pub struct MemoryBackend<'m> {
    lists: &'m WordPhraseLists,
    id_lists: &'m IdOrderedLists,
    /// Phrase-id partition this backend serves (`None` = full space).
    range: Option<(PhraseId, PhraseId)>,
}

impl<'m> MemoryBackend<'m> {
    /// Bundles score-ordered and id-ordered lists (both built from the
    /// same source lists) into a backend.
    pub fn new(lists: &'m WordPhraseLists, id_lists: &'m IdOrderedLists) -> Self {
        Self {
            lists,
            id_lists,
            range: None,
        }
    }

    /// A backend over one phrase-id shard: `lists` and `id_lists` must
    /// already be restricted to `range` (see `crate::sharding`); the range
    /// is carried so executors can route per-phrase work to the owner.
    pub fn with_range(
        lists: &'m WordPhraseLists,
        id_lists: &'m IdOrderedLists,
        range: (PhraseId, PhraseId),
    ) -> Self {
        Self {
            lists,
            id_lists,
            range: Some(range),
        }
    }

    /// The underlying score-ordered lists.
    pub fn lists(&self) -> &'m WordPhraseLists {
        self.lists
    }

    /// The underlying id-ordered lists.
    pub fn id_lists(&self) -> &'m IdOrderedLists {
        self.id_lists
    }
}

impl<'m> ListBackend for MemoryBackend<'m> {
    type ScoreCursor<'a>
        = MemoryCursor<'m>
    where
        Self: 'a;
    type IdCursor<'a>
        = MemoryIdCursor<'m>
    where
        Self: 'a;

    fn score_cursor(&self, feature: Feature, fraction: f64) -> MemoryCursor<'m> {
        MemoryCursor::partial(self.lists, feature, fraction)
    }

    fn id_cursor(&self, feature: Feature) -> MemoryIdCursor<'m> {
        MemoryIdCursor::over(self.id_lists, feature)
    }

    fn probe(&self, feature: Feature, phrase: PhraseId) -> f64 {
        probe_id_ordered(self.id_lists.list(feature), phrase)
    }

    fn list_len(&self, feature: Feature) -> usize {
        self.lists.list(feature).len()
    }

    fn phrase_range(&self) -> Option<(PhraseId, PhraseId)> {
        self.range
    }

    fn size_bytes(&self) -> usize {
        self.lists.size_bytes() + self.id_lists.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_index::{CorpusIndex, IndexConfig};
    use crate::mining::MiningConfig;
    use crate::wordlists::WordListConfig;
    use ipm_corpus::{CorpusBuilder, TokenizerConfig};

    fn setup() -> (WordPhraseLists, IdOrderedLists) {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        for t in [
            "trade reserves fell",
            "trade reserves rose",
            "economic minister trade",
            "trade reserves fell again",
            "minister spoke of trade reserves",
        ] {
            b.add_text(t);
        }
        let c = b.build();
        let index = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 2,
                    max_len: 3,
                    min_len: 1,
                },
            },
        );
        let lists = WordPhraseLists::build(&c, &index, &WordListConfig::default());
        let id_lists = IdOrderedLists::from_score_ordered(&lists);
        (lists, id_lists)
    }

    #[test]
    fn score_cursor_matches_lists() {
        let (lists, idl) = setup();
        let backend = MemoryBackend::new(&lists, &idl);
        for &feat in lists.features() {
            let mut cur = backend.score_cursor(feat, 1.0);
            let want = lists.list(feat);
            assert_eq!(cur.len(), want.len());
            assert_eq!(backend.list_len(feat), want.len());
            for e in want {
                let got = cur.next_entry().unwrap();
                assert_eq!(got.phrase, e.phrase);
                assert_eq!(got.prob.to_bits(), e.prob.to_bits());
            }
            assert!(cur.next_entry().is_none());
        }
    }

    #[test]
    fn id_cursor_is_sorted_and_complete() {
        let (lists, idl) = setup();
        let backend = MemoryBackend::new(&lists, &idl);
        for &feat in lists.features() {
            let mut cur = backend.id_cursor(feat);
            assert_eq!(cur.len(), lists.list(feat).len());
            let mut prev: Option<PhraseId> = None;
            let mut n = 0;
            while let Some(e) = cur.next_entry() {
                if let Some(p) = prev {
                    assert!(e.phrase > p, "id order violated");
                }
                prev = Some(e.phrase);
                n += 1;
            }
            assert_eq!(n, lists.list(feat).len());
        }
    }

    #[test]
    fn probe_agrees_with_lists() {
        let (lists, idl) = setup();
        let backend = MemoryBackend::new(&lists, &idl);
        for &feat in lists.features() {
            for e in lists.list(feat) {
                assert_eq!(backend.probe(feat, e.phrase), e.prob);
            }
            assert_eq!(backend.probe(feat, PhraseId(u32::MAX)), 0.0);
        }
    }

    #[test]
    fn partial_score_cursor_truncates() {
        let (lists, idl) = setup();
        let backend = MemoryBackend::new(&lists, &idl);
        let feat = *lists
            .features()
            .iter()
            .max_by_key(|f| lists.list(**f).len())
            .unwrap();
        let cur = backend.score_cursor(feat, 0.3);
        assert_eq!(
            cur.len(),
            crate::cursor::prefix_len(lists.list(feat).len(), 0.3)
        );
    }
}
