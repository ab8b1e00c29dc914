//! The simulated disk both list backends serve from (paper §5.5).
//!
//! A [`PagedImage`] is one device: a list encoding laid out as one
//! contiguous *list region* (score-ordered runs, then id-ordered runs),
//! followed — from the next page boundary — by a *phrase region* of
//! `num_phrases × 50` bytes (the fixed-width phrase list, §4.2.1), behind
//! one [`BufferPool`] and one [`CostModel`]. The two regions share an
//! address space and neither shares a page with the other, so no read is
//! ever served by a page the other region brought in, and a read's
//! lookahead stops at the end of its own region.
//!
//! The encoding is the only thing the two backends differ in
//! ([`ListEncoding`]): [`FlatLists`](crate::FlatLists) stores 12-byte
//! entries and fetches each entry its cursors pass over (the `disk`
//! backend); [`BlockLists`](ipm_index::block::BlockLists) stores
//! bit-packed 128-entry blocks and fetches each block it decodes, so
//! blocks that a `seek` skips cost no IO (the `block` backend). Cursors and probes report every byte range they read through
//! a fetch hook, and the image charges it to its pool.
//!
//! **The text rule.** Each hit's text lookup — the paper's last
//! retrieval step — is one 50-byte read at `id × 50` in the phrase region
//! of the image that owns the hit ([`PagedImage::charge_text`]). The
//! region is accounted, not stored: like the pool, which keeps no page
//! contents, the image keeps no phrase bytes, and the texts themselves
//! come from the miner's dictionary on every backend.
//!
//! A sharded layout is one image per phrase-id shard
//! ([`PagedImage::shards`]). Each shard owns its pool: shards execute on
//! separate threads, and one shared pool would make the §5.5
//! sequential/random classification depend on thread interleaving.
//!
//! **Cold views.** The §5.5 pool is cold at the start of every query, so
//! a query runs against [`PagedImage::cold_view`]s rather than the cached
//! image: each view shares the encoded lists and the image id and brings
//! a fresh pool, and the view's [`PagedImage::io_stats`] is that query's
//! bill. Concurrent queries share no pool and need no reset.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ipm_corpus::{Feature, PhraseId};
use ipm_index::backend::{ListBackend, ListEncoding};
use ipm_index::block::{df_table, FetchHook};
use ipm_index::corpus_index::CorpusIndex;
use ipm_index::sharding::ShardedWordLists;
use ipm_index::wordlists::{IdOrderedLists, WordPhraseLists};
use parking_lot::Mutex;

use crate::cost::{CostModel, IoStats};
use crate::files::PHRASE_ENTRY_BYTES;
use crate::pool::{BufferPool, PoolConfig};

/// One simulated device: an encoded list region and an accounted phrase
/// region behind one buffer pool (see the module docs).
#[derive(Debug)]
pub struct PagedImage<E> {
    /// The encoded lists, shared by the image and its cold views.
    lists: Arc<E>,
    pool: Mutex<BufferPool>,
    pool_config: PoolConfig,
    cost: CostModel,
    /// Phrase-id partition this image serves (`None` = full space).
    range: Option<(PhraseId, PhraseId)>,
    /// Process-unique id distinguishing this image's decoded blocks from
    /// any other image's in the shared [`crate::DecodedBlockCache`].
    pub(crate) image_id: u64,
    /// Dictionary size: the phrase region holds one slot per phrase.
    num_phrases: usize,
}

/// Source of image ids: never reused, so a decoded block admitted by one
/// image can never be served for another.
static NEXT_IMAGE_ID: AtomicU64 = AtomicU64::new(0);

impl<E: ListEncoding> PagedImage<E> {
    /// Encodes the full phrase space's lists.
    pub fn build(
        index: &CorpusIndex,
        lists: &WordPhraseLists,
        id_lists: &IdOrderedLists,
        pool: PoolConfig,
        cost: CostModel,
    ) -> Self {
        let df = Arc::new(df_table(index));
        Self::encode(lists, id_lists, &df, None, pool, cost)
    }

    /// One image per shard of `sharded`, in ascending range order, each
    /// with its own pool.
    pub fn shards(
        index: &CorpusIndex,
        sharded: &ShardedWordLists,
        pool: PoolConfig,
        cost: CostModel,
    ) -> Vec<Self> {
        let df = Arc::new(df_table(index));
        sharded
            .shards()
            .iter()
            .map(|s| {
                let range = Some(s.range());
                Self::encode(s.lists(), s.id_lists(), &df, range, pool, cost)
            })
            .collect()
    }

    fn encode(
        lists: &WordPhraseLists,
        id_lists: &IdOrderedLists,
        df: &Arc<Vec<u32>>,
        range: Option<(PhraseId, PhraseId)>,
        pool: PoolConfig,
        cost: CostModel,
    ) -> Self {
        Self {
            lists: Arc::new(E::encode(lists, id_lists, df)),
            pool: Mutex::new(BufferPool::new(pool)),
            pool_config: pool,
            cost,
            range,
            image_id: NEXT_IMAGE_ID.fetch_add(1, Ordering::Relaxed),
            num_phrases: df.len(),
        }
    }

    /// The same device with a cold pool: shares the encoded lists, the
    /// phrase range and the image id (so decoded blocks cached for the
    /// image serve the view too) and charges a fresh pool of the same
    /// geometry. Per the §5.5 methodology, every query runs on its own.
    pub fn cold_view(&self) -> Self {
        Self {
            lists: Arc::clone(&self.lists),
            pool: Mutex::new(BufferPool::new(self.pool_config)),
            pool_config: self.pool_config,
            cost: self.cost,
            range: self.range,
            image_id: self.image_id,
            num_phrases: self.num_phrases,
        }
    }

    /// The list encoding.
    pub fn lists(&self) -> &E {
        &self.lists
    }

    /// The cost model in force.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Snapshot of the IO this pool has charged since it was built.
    pub fn io_stats(&self) -> IoStats {
        self.pool.lock().stats()
    }

    /// Charges a read of `[offset, offset + len)` in the list region.
    pub(crate) fn charge(&self, offset: u64, len: u64) {
        let end = self.lists.region_bytes();
        self.pool.lock().access_range(offset, len, end);
    }

    /// A fetch hook charging each reported list read to the pool.
    pub(crate) fn fetch_hook(&self) -> FetchHook<'_> {
        Box::new(move |offset, len| self.charge(offset, len))
    }

    /// Charges the text lookup of `phrase`: one slot read at
    /// `id × 50` in the phrase region. Returns the pages it fetched
    /// (`0` for ids outside the dictionary, which read nothing).
    pub fn charge_text(&self, phrase: PhraseId) -> u64 {
        if phrase.index() >= self.num_phrases {
            return 0;
        }
        let slot = PHRASE_ENTRY_BYTES as u64;
        let page = self.pool_config.page_size as u64;
        let mut pool = self.pool.lock();
        let base = self.lists.region_bytes().div_ceil(page) * page;
        let before = pool.stats().total_fetches();
        let end = base + self.num_phrases as u64 * slot;
        pool.access_range(base + phrase.index() as u64 * slot, slot, end);
        pool.stats().total_fetches() - before
    }
}

impl<E: ListEncoding> ListBackend for PagedImage<E> {
    type ScoreCursor<'a>
        = E::ScoreCursor<'a>
    where
        Self: 'a;
    type IdCursor<'a>
        = E::IdCursor<'a>
    where
        Self: 'a;

    fn score_cursor(&self, feature: Feature, fraction: f64) -> E::ScoreCursor<'_> {
        self.lists.scan_scores(feature, fraction, self.fetch_hook())
    }

    fn id_cursor(&self, feature: Feature) -> E::IdCursor<'_> {
        self.lists.scan_ids(feature, self.fetch_hook())
    }

    fn probe(&self, feature: Feature, phrase: PhraseId) -> f64 {
        self.lists
            .lookup(feature, phrase, &|offset, len| self.charge(offset, len))
    }

    fn list_len(&self, feature: Feature) -> usize {
        self.lists.entries(feature)
    }

    fn phrase_range(&self) -> Option<(PhraseId, PhraseId)> {
        self.range
    }

    fn io_fetches(&self) -> u64 {
        self.pool.lock().stats().total_fetches()
    }

    /// The simulated file: the list region plus the phrase region.
    fn size_bytes(&self) -> usize {
        self.lists.region_bytes() as usize + self.num_phrases * PHRASE_ENTRY_BYTES
    }
}

/// The tiny-corpus fixture and cursor helpers, shared with the
/// per-backend test modules declared in the crate root.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::files::FlatLists;
    use ipm_index::block::BlockLists;
    use ipm_index::corpus_index::IndexConfig;
    use ipm_index::cursor::{IdListCursor, ScoredListCursor};
    use ipm_index::mining::MiningConfig;
    use ipm_index::wordlists::{ListEntry, WordListConfig};

    pub(crate) struct Fixture {
        pub(crate) index: CorpusIndex,
        pub(crate) lists: WordPhraseLists,
        pub(crate) id_lists: IdOrderedLists,
    }

    pub(crate) fn fixture() -> Fixture {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        let index = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 3,
                    max_len: 4,
                    min_len: 1,
                },
            },
        );
        let lists = WordPhraseLists::build(&c, &index, &WordListConfig::default());
        let id_lists = IdOrderedLists::from_score_ordered(&lists);
        Fixture {
            index,
            lists,
            id_lists,
        }
    }

    impl Fixture {
        pub(crate) fn image<E: ListEncoding>(&self, pool: PoolConfig) -> PagedImage<E> {
            let cost = CostModel::default();
            PagedImage::build(&self.index, &self.lists, &self.id_lists, pool, cost)
        }

        pub(crate) fn shards<E: ListEncoding>(&self, n: usize) -> Vec<PagedImage<E>> {
            let dict = self.index.dict.len();
            let sharded = ShardedWordLists::build(&self.lists, &self.id_lists, dict, n);
            let (pool, cost) = Default::default();
            PagedImage::shards(&self.index, &sharded, pool, cost)
        }

        pub(crate) fn widest(&self) -> Feature {
            *self
                .lists
                .features()
                .iter()
                .max_by_key(|f| self.lists.list(**f).len())
                .unwrap()
        }
    }

    pub(crate) fn bits(entries: impl IntoIterator<Item = ListEntry>) -> Vec<(PhraseId, u64)> {
        entries
            .into_iter()
            .map(|e| (e.phrase, e.prob.to_bits()))
            .collect()
    }

    pub(crate) fn drain_scores(mut c: impl ScoredListCursor) -> Vec<(PhraseId, u64)> {
        bits(std::iter::from_fn(|| c.next_entry()))
    }

    pub(crate) fn drain_ids(mut c: impl IdListCursor) -> Vec<(PhraseId, u64)> {
        bits(std::iter::from_fn(|| c.next_entry()))
    }

    /// Runs `check` once per encoding.
    macro_rules! both_encodings {
        ($check:ident, $($arg:expr),*) => {
            $check::<FlatLists>($($arg),*);
            $check::<BlockLists>($($arg),*);
        };
    }

    #[test]
    fn text_lookups_fetch_from_their_own_region() {
        // The phrase region starts on the page after the list region's
        // last one: list reads never make a text lookup a hit, and a read
        // of the list region's last page prefetches nothing beyond it.
        fn check<E: ListEncoding>(f: &Fixture) {
            let small = PoolConfig {
                page_size: 64,
                capacity_pages: 16,
                lookahead_pages: 1,
            };
            let img = f.image::<E>(small);
            drain_scores(img.score_cursor(f.widest(), 1.0));
            img.charge(img.lists().region_bytes() - 1, 1);
            let listed = img.io_stats();
            let first = f.index.dict.iter().next().unwrap().0;
            assert!(img.charge_text(first) > 0, "slot 0 is not a list page");
            assert_eq!(img.charge_text(first), 0, "a repeated lookup hits");
            assert_eq!(img.charge_text(PhraseId(u32::MAX)), 0);
            let after = img.io_stats();
            assert_eq!(after.cache_hits, listed.cache_hits + 1);
            // The last list page was fetched without lookahead.
            let cold = img.cold_view();
            cold.charge(cold.lists().region_bytes() - 1, 1);
            assert_eq!(cold.io_stats().total_fetches(), 1);
        }
        both_encodings!(check, &fixture());
    }

    #[test]
    fn size_bytes_counts_lists_and_phrase_region() {
        let f = fixture();
        let phrases = f.index.dict.len() * PHRASE_ENTRY_BYTES;
        let flat = f.image::<FlatLists>(PoolConfig::default());
        let entries = 2 * f.lists.total_entries();
        assert_eq!(
            flat.size_bytes(),
            entries * ipm_index::wordlists::ENTRY_BYTES + phrases
        );
        let block = f.image::<BlockLists>(PoolConfig::default());
        assert_eq!(block.size_bytes(), block.lists().image_bytes() + phrases);
    }
}
