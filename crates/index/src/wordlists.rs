//! Word-specific phrase lists: the paper's contribution-side index.
//!
//! For every feature `q` (keyword or facet) the index holds a list of
//! `[phrase_id, prob]` pairs where `prob = P(q|p) = |docs(q) ∩ docs(p)| /
//! |docs(p)|` (paper Eq. 13), with zero-probability pairs omitted (paper
//! §4.2.2). Lists come in two orders:
//!
//! * **score-ordered** (non-increasing `prob`, ties by ascending phrase id —
//!   exactly the paper's tie rule) — consumed by the NRA algorithm;
//! * **phrase-ID-ordered** ([`IdOrderedLists`]) — consumed by the SMJ
//!   algorithm (paper §4.4.1).
//!
//! *Partial lists* keep only the top-`p%` score-ordered prefix of each list
//! (paper §4.3/§4.4.1). For NRA this is a run-time choice; for SMJ it is a
//! build-time choice because re-ordering by id destroys the score order.
//!
//! Construction cost is the corpus-wide sum over documents of
//! `distinct features × forward phrases`; the builder processes features in
//! blocks (bounding peak memory by block width) and distributes blocks
//! across threads with `crossbeam`.

use crate::corpus_index::CorpusIndex;
use ipm_corpus::hash::{fx_map_with_capacity, FxHashMap};
use ipm_corpus::{Corpus, FacetId, Feature, PhraseId, WordId};

/// One `[phrase_id, prob]` pair of a word-specific list (paper Figure 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ListEntry {
    /// The phrase.
    pub phrase: PhraseId,
    /// `P(q|p)` for the list's feature `q`.
    pub prob: f64,
}

/// Size of one serialized entry in bytes: 4 for the phrase id + 8 for the
/// probability, the accounting the paper uses in its §5.7 index-size
/// analysis ("12 bytes per entry").
pub const ENTRY_BYTES: usize = 12;

/// Configuration for building [`WordPhraseLists`].
#[derive(Debug, Clone)]
pub struct WordListConfig {
    /// Only words with document frequency at least this get lists. `1`
    /// indexes every word (the paper's "enable querying over all words");
    /// larger values bound index size when storage is at a premium
    /// (an optimization the paper explicitly contemplates in §4.2.2).
    pub min_word_df: u32,
    /// Entries with `P(q|p)` at or below this are dropped. `0.0` keeps
    /// everything except exact zeros (which never materialize as pairs).
    pub min_prob: f64,
    /// Number of worker threads for the counting pass (`0` = available
    /// parallelism).
    pub threads: usize,
    /// Feature-block width for the counting pass; bounds peak memory at
    /// roughly `block × avg list length × 16` bytes per thread.
    pub block_size: usize,
}

impl Default for WordListConfig {
    fn default() -> Self {
        Self {
            min_word_df: 1,
            min_prob: 0.0,
            threads: 0,
            block_size: 4096,
        }
    }
}

/// Score-ordered word-specific phrase lists, CSR-packed.
#[derive(Debug, Default, Clone)]
pub struct WordPhraseLists {
    offsets: Vec<u64>,
    entries: Vec<ListEntry>,
    /// `Feature::encode() -> slot`.
    slots: FxHashMap<u64, u32>,
    /// `slot -> feature`.
    features: Vec<Feature>,
}

impl WordPhraseLists {
    /// Builds the lists from a corpus and its [`CorpusIndex`].
    pub fn build(corpus: &Corpus, index: &CorpusIndex, config: &WordListConfig) -> Self {
        // 1. Eligible features -> dense slots. Words first (id order), then
        //    facets, so slot assignment is deterministic.
        let mut features: Vec<Feature> = Vec::new();
        for w in 0..corpus.words().len() as u32 {
            let wid = WordId(w);
            if index.features.word(wid).len() >= config.min_word_df as usize {
                features.push(Feature::Word(wid));
            }
        }
        for f in 0..corpus.facets().len() as u32 {
            features.push(Feature::Facet(FacetId(f)));
        }
        let mut slots = fx_map_with_capacity(features.len());
        for (slot, feat) in features.iter().enumerate() {
            slots.insert(feat.encode(), slot as u32);
        }

        // 2. Per-document slot lists (distinct features present), CSR.
        let (doc_slot_offsets, doc_slots) = build_doc_slot_csr(corpus, &slots);

        // 3. Count (slot, phrase) pairs block-by-block, in parallel.
        let num_slots = features.len();
        let block = config.block_size.max(1);
        let num_blocks = num_slots.div_ceil(block);
        let threads = if config.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.threads
        };

        // Each block yields its per-slot entry lists; assembled in slot
        // order afterwards.
        let mut block_results: Vec<Vec<Vec<ListEntry>>> =
            (0..num_blocks).map(|_| Vec::new()).collect();
        let next_block = std::sync::atomic::AtomicUsize::new(0);
        let results_cell: Vec<std::sync::Mutex<Vec<Vec<ListEntry>>>> = (0..num_blocks)
            .map(|_| std::sync::Mutex::new(Vec::new()))
            .collect();

        crossbeam::scope(|scope| {
            for _ in 0..threads.min(num_blocks.max(1)) {
                scope.spawn(|_| loop {
                    let b = next_block.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if b >= num_blocks {
                        break;
                    }
                    let lo = (b * block) as u32;
                    let hi = (((b + 1) * block).min(num_slots)) as u32;
                    let lists = count_block(
                        corpus,
                        index,
                        &doc_slot_offsets,
                        &doc_slots,
                        lo,
                        hi,
                        config.min_prob,
                    );
                    *results_cell[b].lock().unwrap() = lists;
                });
            }
        })
        .expect("word-list worker panicked");

        for (b, cell) in results_cell.into_iter().enumerate() {
            block_results[b] = cell.into_inner().unwrap();
        }

        // 4. Assemble CSR.
        let total: usize = block_results.iter().flatten().map(Vec::len).sum();
        let mut offsets = Vec::with_capacity(num_slots + 1);
        let mut entries = Vec::with_capacity(total);
        offsets.push(0u64);
        for block_lists in &block_results {
            for list in block_lists {
                entries.extend_from_slice(list);
                offsets.push(entries.len() as u64);
            }
        }
        debug_assert_eq!(offsets.len(), num_slots + 1);

        Self {
            offsets,
            entries,
            slots,
            features,
        }
    }

    /// Assembles lists directly from per-feature entry vectors (used when
    /// rehydrating a persisted index image back into memory). Slot order
    /// follows the input order; entries are taken as given (they must
    /// already be score-ordered, ties by ascending id, as [`Self::build`]
    /// produces them).
    ///
    /// # Panics
    /// Panics if a feature appears twice.
    pub fn from_feature_lists(lists: Vec<(Feature, Vec<ListEntry>)>) -> Self {
        let mut features = Vec::with_capacity(lists.len());
        let mut slots = fx_map_with_capacity(lists.len());
        let total: usize = lists.iter().map(|(_, l)| l.len()).sum();
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut entries = Vec::with_capacity(total);
        offsets.push(0u64);
        for (slot, (feat, list)) in lists.into_iter().enumerate() {
            assert!(
                slots.insert(feat.encode(), slot as u32).is_none(),
                "duplicate feature in from_feature_lists"
            );
            features.push(feat);
            entries.extend_from_slice(&list);
            offsets.push(entries.len() as u64);
        }
        Self {
            offsets,
            entries,
            slots,
            features,
        }
    }

    /// The score-ordered list of a feature; empty if the feature has no list.
    pub fn list(&self, feature: Feature) -> &[ListEntry] {
        match self.slots.get(&feature.encode()) {
            Some(&slot) => self.list_by_slot(slot),
            None => &[],
        }
    }

    /// List by dense slot index.
    #[inline]
    pub fn list_by_slot(&self, slot: u32) -> &[ListEntry] {
        let i = slot as usize;
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Number of features with (possibly empty) lists.
    pub fn num_features(&self) -> usize {
        self.features.len()
    }

    /// The features in slot order.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Whether a feature has a list (even an empty one).
    pub fn has_feature(&self, feature: Feature) -> bool {
        self.slots.contains_key(&feature.encode())
    }

    /// Total entry count across all lists.
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }

    /// Serialized index size in bytes under the paper's 12-bytes-per-entry
    /// accounting (§5.7).
    pub fn size_bytes(&self) -> usize {
        self.total_entries() * ENTRY_BYTES
    }

    /// Mean list length `l`, the cost parameter of the paper's §4.5 analysis.
    pub fn mean_list_len(&self) -> f64 {
        if self.features.is_empty() {
            0.0
        } else {
            self.total_entries() as f64 / self.features.len() as f64
        }
    }

    /// Returns a copy truncated to the top-`fraction` score-ordered prefix
    /// of every list (partial lists, paper §4.3), cut by
    /// [`prefix_len`](crate::cursor::prefix_len) like every cursor.
    pub fn partial(&self, fraction: f64) -> WordPhraseLists {
        let mut offsets = Vec::with_capacity(self.offsets.len());
        let mut entries = Vec::new();
        offsets.push(0u64);
        for slot in 0..self.features.len() {
            let list = self.list_by_slot(slot as u32);
            entries.extend_from_slice(&list[..crate::cursor::prefix_len(list.len(), fraction)]);
            offsets.push(entries.len() as u64);
        }
        WordPhraseLists {
            offsets,
            entries,
            slots: self.slots.clone(),
            features: self.features.clone(),
        }
    }
}

/// Builds, for every document, the sorted list of feature slots present in
/// it (distinct words that have slots, plus facets). CSR-packed.
fn build_doc_slot_csr(corpus: &Corpus, slots: &FxHashMap<u64, u32>) -> (Vec<u64>, Vec<u32>) {
    let mut offsets = Vec::with_capacity(corpus.num_docs() + 1);
    let mut flat: Vec<u32> = Vec::new();
    let mut words: Vec<WordId> = Vec::new();
    offsets.push(0u64);
    for doc in corpus.docs() {
        doc.distinct_words_into(&mut words);
        for &w in &words {
            if let Some(&slot) = slots.get(&Feature::Word(w).encode()) {
                flat.push(slot);
            }
        }
        for &f in &doc.facets {
            if let Some(&slot) = slots.get(&Feature::Facet(f).encode()) {
                flat.push(slot);
            }
        }
        let start = *offsets.last().unwrap() as usize;
        flat[start..].sort_unstable();
        offsets.push(flat.len() as u64);
    }
    (offsets, flat)
}

/// Counts `(slot, phrase)` co-occurrences for slots in `[lo, hi)` and turns
/// them into score-ordered lists.
fn count_block(
    corpus: &Corpus,
    index: &CorpusIndex,
    doc_slot_offsets: &[u64],
    doc_slots: &[u32],
    lo: u32,
    hi: u32,
    min_prob: f64,
) -> Vec<Vec<ListEntry>> {
    let mut counts: FxHashMap<u64, u32> = fx_map_with_capacity(16 * 1024);
    for d in 0..corpus.num_docs() {
        let slots = &doc_slots[doc_slot_offsets[d] as usize..doc_slot_offsets[d + 1] as usize];
        // The slot list is sorted; narrow to the block's range.
        let from = slots.partition_point(|&s| s < lo);
        let to = slots.partition_point(|&s| s < hi);
        if from == to {
            continue;
        }
        let phrases = index.forward.doc(ipm_corpus::DocId(d as u32));
        for &slot in &slots[from..to] {
            let base = ((slot - lo) as u64) << 32;
            for &p in phrases {
                *counts.entry(base | p.raw() as u64).or_insert(0) += 1;
            }
        }
    }

    // Bucket into per-slot lists and normalize by df(p).
    let width = (hi - lo) as usize;
    let mut lists: Vec<Vec<ListEntry>> = vec![Vec::new(); width];
    for (key, count) in counts {
        let slot_off = (key >> 32) as usize;
        let phrase = PhraseId(key as u32);
        let df = index.phrases.df(phrase) as f64;
        let prob = count as f64 / df;
        if prob > min_prob {
            lists[slot_off].push(ListEntry { phrase, prob });
        }
    }
    for list in &mut lists {
        // Paper's order: non-increasing score, ties by ascending phrase id
        // (its Figure 2 example).
        list.sort_unstable_by(|a, b| {
            b.prob
                .partial_cmp(&a.prob)
                .unwrap()
                .then(a.phrase.cmp(&b.phrase))
        });
        list.shrink_to_fit();
    }
    lists
}

/// Phrase-ID-ordered lists for the SMJ algorithm (paper §4.4.1).
///
/// Built from a (possibly partial) [`WordPhraseLists`]; the chosen partial
/// fraction is frozen at construction — "once the ID-ordered lists have been
/// constructed using a pre-specified fraction ... we cannot, at run-time,
/// decide to work with a larger or a smaller fraction" (paper §4.4.2).
#[derive(Debug, Default, Clone)]
pub struct IdOrderedLists {
    offsets: Vec<u64>,
    entries: Vec<ListEntry>,
    slots: FxHashMap<u64, u32>,
    features: Vec<Feature>,
}

impl IdOrderedLists {
    /// Assembles id-ordered lists directly from per-feature entry vectors
    /// (used when slicing an existing id-ordered list set into phrase-id
    /// shards). Entries must already be in ascending phrase-id order, as
    /// [`Self::from_score_ordered`] produces them.
    ///
    /// # Panics
    /// Panics if a feature appears twice or a list is out of id order.
    pub fn from_feature_lists(lists: Vec<(Feature, Vec<ListEntry>)>) -> Self {
        let mut features = Vec::with_capacity(lists.len());
        let mut slots = fx_map_with_capacity(lists.len());
        let total: usize = lists.iter().map(|(_, l)| l.len()).sum();
        let mut offsets = Vec::with_capacity(lists.len() + 1);
        let mut entries = Vec::with_capacity(total);
        offsets.push(0u64);
        for (slot, (feat, list)) in lists.into_iter().enumerate() {
            assert!(
                slots.insert(feat.encode(), slot as u32).is_none(),
                "duplicate feature in from_feature_lists"
            );
            assert!(
                list.windows(2).all(|w| w[0].phrase < w[1].phrase),
                "id-ordered list for {feat:?} is out of order"
            );
            features.push(feat);
            entries.extend_from_slice(&list);
            offsets.push(entries.len() as u64);
        }
        Self {
            offsets,
            entries,
            slots,
            features,
        }
    }

    /// Re-orders (a copy of) the given score-ordered lists by phrase id.
    /// Apply [`WordPhraseLists::partial`] first to get partial lists.
    pub fn from_score_ordered(lists: &WordPhraseLists) -> Self {
        let mut entries = Vec::with_capacity(lists.total_entries());
        let mut offsets = Vec::with_capacity(lists.offsets.len());
        offsets.push(0u64);
        for slot in 0..lists.features.len() {
            let start = entries.len();
            entries.extend_from_slice(lists.list_by_slot(slot as u32));
            entries[start..].sort_unstable_by_key(|e| e.phrase);
            offsets.push(entries.len() as u64);
        }
        Self {
            offsets,
            entries,
            slots: lists.slots.clone(),
            features: lists.features.clone(),
        }
    }

    /// The id-ordered list of a feature; empty if absent.
    pub fn list(&self, feature: Feature) -> &[ListEntry] {
        match self.slots.get(&feature.encode()) {
            Some(&slot) => {
                let i = slot as usize;
                &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
            }
            None => &[],
        }
    }

    /// Number of features.
    pub fn num_features(&self) -> usize {
        self.features.len()
    }

    /// The features in slot order.
    pub fn features(&self) -> &[Feature] {
        &self.features
    }

    /// Total entries across lists.
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }

    /// Serialized size under the paper's 12-byte-per-entry accounting.
    pub fn size_bytes(&self) -> usize {
        self.total_entries() * ENTRY_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_index::{CorpusIndex, IndexConfig};
    use crate::mining::MiningConfig;
    use ipm_corpus::{CorpusBuilder, TokenizerConfig};

    fn setup(texts: &[&str], min_df: u32) -> (Corpus, CorpusIndex, WordPhraseLists) {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        for t in texts {
            b.add_text(t);
        }
        let c = b.build();
        let index = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df,
                    max_len: 3,
                    min_len: 1,
                },
            },
        );
        let lists = WordPhraseLists::build(&c, &index, &WordListConfig::default());
        (c, index, lists)
    }

    /// P(q|p) computed the slow way, straight from Eq. 13.
    fn naive_prob(index: &CorpusIndex, q: Feature, p: PhraseId) -> f64 {
        let dq = index.features.feature(q);
        let dp = index.phrases.phrase(p);
        dq.intersect_len(dp) as f64 / dp.len() as f64
    }

    #[test]
    fn probabilities_match_eq13() {
        let (c, index, lists) = setup(
            &[
                "e m t r", "e m q", "m t q", "e m t", "q r", "e q", "m q r", "t q e m",
            ],
            2,
        );
        for (slot, feat) in lists.features().iter().enumerate() {
            for e in lists.list_by_slot(slot as u32) {
                let want = naive_prob(&index, *feat, e.phrase);
                assert!(
                    (e.prob - want).abs() < 1e-12,
                    "P({feat:?}|{:?}) = {} want {}",
                    e.phrase,
                    e.prob,
                    want
                );
            }
        }
        let _ = c;
    }

    #[test]
    fn zero_probability_pairs_are_omitted() {
        let (c, index, lists) = setup(&["a a", "a a", "b b", "b b"], 2);
        let a = Feature::Word(c.word_id("a").unwrap());
        let b_dict = index.dict.get(&[c.word_id("b").unwrap()]).unwrap();
        // "b" never co-occurs with "a": no entry for it in a's list.
        assert!(lists.list(a).iter().all(|e| e.phrase != b_dict));
    }

    #[test]
    fn lists_are_score_ordered_with_id_ties() {
        let (_, _, lists) = setup(
            &[
                "x y z", "x y", "x z", "y z", "x y z w", "w x", "w y", "z w x y",
            ],
            2,
        );
        for slot in 0..lists.num_features() {
            let list = lists.list_by_slot(slot as u32);
            for w in list.windows(2) {
                assert!(
                    w[0].prob > w[1].prob || (w[0].prob == w[1].prob && w[0].phrase < w[1].phrase),
                    "ordering violated: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn every_list_entry_probability_is_in_range() {
        let (_, _, lists) = setup(&["p q r", "p q", "q r", "p r", "p q r s"], 2);
        for slot in 0..lists.num_features() {
            for e in lists.list_by_slot(slot as u32) {
                assert!(
                    e.prob > 0.0 && e.prob <= 1.0,
                    "prob {} out of range",
                    e.prob
                );
            }
        }
    }

    #[test]
    fn min_word_df_limits_features() {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        b.add_text("common common rare");
        b.add_text("common common");
        b.add_text("common");
        let c = b.build();
        let index = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 2,
                    max_len: 2,
                    min_len: 1,
                },
            },
        );
        let all = WordPhraseLists::build(&c, &index, &WordListConfig::default());
        let restricted = WordPhraseLists::build(
            &c,
            &index,
            &WordListConfig {
                min_word_df: 2,
                ..Default::default()
            },
        );
        let rare = Feature::Word(c.word_id("rare").unwrap());
        assert!(all.has_feature(rare));
        assert!(!restricted.has_feature(rare));
        assert!(restricted.num_features() < all.num_features());
    }

    #[test]
    fn facets_get_lists_too() {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        b.add_text_with_facets("m n m n", &[("topic", "econ")]);
        b.add_text_with_facets("m n", &[("topic", "econ")]);
        b.add_text("m n");
        let c = b.build();
        let index = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 2,
                    max_len: 2,
                    min_len: 1,
                },
            },
        );
        let lists = WordPhraseLists::build(&c, &index, &WordListConfig::default());
        let f = Feature::Facet(c.facet_id("topic:econ").unwrap());
        let list = lists.list(f);
        assert!(!list.is_empty());
        // "m n" occurs in all 3 docs, 2 of which carry the facet.
        let mn = index
            .dict
            .get(&[c.word_id("m").unwrap(), c.word_id("n").unwrap()])
            .unwrap();
        let entry = list.iter().find(|e| e.phrase == mn).unwrap();
        assert!((entry.prob - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn partial_keeps_top_prefix() {
        let (_, _, lists) = setup(
            &[
                "x y z", "x y", "x z", "y z", "x y z w", "w x", "w y", "z w x y", "x w z",
            ],
            2,
        );
        let half = lists.partial(0.5);
        assert_eq!(half.num_features(), lists.num_features());
        for (slot, _) in lists.features().iter().enumerate() {
            let full = lists.list_by_slot(slot as u32);
            let part = half.list_by_slot(slot as u32);
            let want = if full.is_empty() {
                0
            } else {
                ((full.len() as f64 * 0.5).ceil() as usize).max(1)
            };
            assert_eq!(part.len(), want);
            assert_eq!(&full[..part.len()], part);
        }
    }

    #[test]
    fn partial_full_fraction_is_identity() {
        let (_, _, lists) = setup(&["a b c", "a b", "b c", "a c", "c a b"], 2);
        let full = lists.partial(1.0);
        assert_eq!(full.total_entries(), lists.total_entries());
    }

    #[test]
    fn id_ordered_lists_sorted_by_id_same_multiset() {
        let (_, _, lists) = setup(&["x y z", "x y", "x z", "y z", "x y z w", "w x", "w y"], 2);
        let idl = IdOrderedLists::from_score_ordered(&lists);
        assert_eq!(idl.total_entries(), lists.total_entries());
        for feat in lists.features() {
            let score_list = lists.list(*feat);
            let id_list = idl.list(*feat);
            assert_eq!(score_list.len(), id_list.len());
            assert!(id_list.windows(2).all(|w| w[0].phrase < w[1].phrase));
            let mut a: Vec<_> = score_list
                .iter()
                .map(|e| (e.phrase, e.prob.to_bits()))
                .collect();
            let mut b: Vec<_> = id_list
                .iter()
                .map(|e| (e.phrase, e.prob.to_bits()))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn size_accounting_uses_12_bytes_per_entry() {
        let (_, _, lists) = setup(&["a b", "a b", "a b"], 3);
        assert_eq!(lists.size_bytes(), lists.total_entries() * 12);
        assert!(lists.mean_list_len() > 0.0);
    }

    #[test]
    fn single_threaded_and_parallel_builds_agree() {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        let index = CorpusIndex::build(&c, &IndexConfig::default());
        let seq = WordPhraseLists::build(
            &c,
            &index,
            &WordListConfig {
                threads: 1,
                block_size: 64,
                ..Default::default()
            },
        );
        let par = WordPhraseLists::build(
            &c,
            &index,
            &WordListConfig {
                threads: 4,
                block_size: 37,
                ..Default::default()
            },
        );
        assert_eq!(seq.total_entries(), par.total_entries());
        for feat in seq.features() {
            let a = seq.list(*feat);
            let b = par.list(*feat);
            assert_eq!(a.len(), b.len(), "feature {feat:?}");
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.phrase, y.phrase);
                assert!((x.prob - y.prob).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn min_prob_filters_weak_entries() {
        let (c, index, _) = setup(&["u v", "u v", "u w w w", "w w", "w v", "v v u", "w u"], 2);
        let filtered = WordPhraseLists::build(
            &c,
            &index,
            &WordListConfig {
                min_prob: 0.5,
                ..Default::default()
            },
        );
        for slot in 0..filtered.num_features() {
            for e in filtered.list_by_slot(slot as u32) {
                assert!(e.prob > 0.5);
            }
        }
    }
}
