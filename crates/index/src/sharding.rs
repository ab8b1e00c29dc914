//! Phrase-id-range sharding of the word-specific lists.
//!
//! Every word list maps `phrase_id -> P(q|p)` and the paper's scores
//! factorize per phrase (Eq. 8/12): a phrase's score depends only on its
//! own list entries. Partitioning *every* list by the same disjoint
//! phrase-id ranges therefore yields shards that are complete, independent
//! sub-indexes over disjoint phrase populations — the local top-k of the
//! shards merge into the **exact** global top-k under the result total
//! order (score desc, ties by ascending phrase id).
//!
//! [`ShardedWordLists`] materializes that partition for both list orders:
//!
//! * each shard's **score-ordered** lists are the range-filtered originals
//!   (filtering a sorted sequence preserves its order);
//! * each shard's **id-ordered** lists are contiguous sub-runs of the
//!   originals (phrase-id order means a range is one slice per list).
//!
//! A run-time fraction `f` keeps `ceil(len · f)` entries *per list*, so
//! on a shard it cuts each shard list's tail, not the global list's. A
//! fanned-out partial-list query therefore reads a different prefix than
//! an unsharded one, and NRA runs it with partial-list bounds either way.

use crate::backend::MemoryBackend;
use crate::wordlists::{IdOrderedLists, ListEntry, WordPhraseLists};
use ipm_corpus::PhraseId;

/// One phrase-id partition of the word lists, in both orders.
#[derive(Debug, Clone)]
pub struct ListShard {
    /// Half-open owned range `[lo, hi)` of phrase ids.
    range: (PhraseId, PhraseId),
    /// Score-ordered lists restricted to the range.
    lists: WordPhraseLists,
    /// Id-ordered lists restricted to the range.
    id_lists: IdOrderedLists,
}

impl ListShard {
    /// The half-open phrase-id range this shard owns.
    pub fn range(&self) -> (PhraseId, PhraseId) {
        self.range
    }

    /// Whether this shard owns `phrase`.
    pub fn owns(&self, phrase: PhraseId) -> bool {
        self.range.0 <= phrase && phrase < self.range.1
    }

    /// The shard's score-ordered lists.
    pub fn lists(&self) -> &WordPhraseLists {
        &self.lists
    }

    /// The shard's id-ordered lists.
    pub fn id_lists(&self) -> &IdOrderedLists {
        &self.id_lists
    }

    /// An in-memory [`MemoryBackend`] view over this shard, usable by
    /// every retrieval algorithm.
    pub fn backend(&self) -> MemoryBackend<'_> {
        MemoryBackend::with_range(&self.lists, &self.id_lists, self.range)
    }
}

/// The word lists split into `n` disjoint phrase-id-range partitions.
#[derive(Debug, Clone)]
pub struct ShardedWordLists {
    shards: Vec<ListShard>,
}

impl ShardedWordLists {
    /// Splits `lists` (score order) and `id_lists` (id order) into `n`
    /// contiguous phrase-id-range shards. `num_phrases` is the size of the
    /// phrase dictionary; ids are partitioned into `n` equal-width ranges
    /// covering the full id space (the last shard absorbs the remainder).
    ///
    /// Each order is range-filtered independently, so the shards mirror
    /// whatever the unsharded backend would serve.
    pub fn build(
        lists: &WordPhraseLists,
        id_lists: &IdOrderedLists,
        num_phrases: usize,
        n: usize,
    ) -> Self {
        let n = n.max(1);
        let width = (num_phrases.div_ceil(n)).max(1) as u64;
        let bounds: Vec<(u32, u32)> = (0..n)
            .map(|i| {
                let lo = (i as u64 * width).min(u32::MAX as u64) as u32;
                let hi = if i + 1 == n {
                    u32::MAX
                } else {
                    ((i as u64 + 1) * width).min(u32::MAX as u64) as u32
                };
                (lo, hi)
            })
            .collect();

        // Distribute every feature's entries into per-shard buckets in one
        // pass per order; bucket order preserves the source order.
        let mut score_buckets: Vec<Vec<(ipm_corpus::Feature, Vec<ListEntry>)>> = (0..n)
            .map(|_| Vec::with_capacity(lists.num_features()))
            .collect();
        for (slot, &feat) in lists.features().iter().enumerate() {
            let full = lists.list_by_slot(slot as u32);
            let mut parts: Vec<Vec<ListEntry>> = vec![Vec::new(); n];
            for e in full {
                parts[shard_of(e.phrase.raw(), width, n)].push(*e);
            }
            for (s, part) in parts.into_iter().enumerate() {
                score_buckets[s].push((feat, part));
            }
        }
        let mut id_buckets: Vec<Vec<(ipm_corpus::Feature, Vec<ListEntry>)>> = (0..n)
            .map(|_| Vec::with_capacity(id_lists.num_features()))
            .collect();
        for &feat in id_lists.features() {
            let full = id_lists.list(feat);
            // Id order makes every shard a contiguous slice of the list.
            let mut start = 0usize;
            for (s, &(_, hi)) in bounds.iter().enumerate() {
                let end = if s + 1 == n {
                    full.len()
                } else {
                    start + full[start..].partition_point(|e| e.phrase.raw() < hi)
                };
                id_buckets[s].push((feat, full[start..end].to_vec()));
                start = end;
            }
        }

        let shards = bounds
            .into_iter()
            .zip(score_buckets.into_iter().zip(id_buckets))
            .map(|((lo, hi), (score, id))| ListShard {
                range: (PhraseId(lo), PhraseId(hi)),
                lists: WordPhraseLists::from_feature_lists(score),
                id_lists: IdOrderedLists::from_feature_lists(id),
            })
            .collect();
        Self { shards }
    }

    /// The shards, in ascending range order.
    pub fn shards(&self) -> &[ListShard] {
        &self.shards
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `phrase` (every id maps to exactly one shard).
    pub fn owner(&self, phrase: PhraseId) -> &ListShard {
        self.shards
            .iter()
            .find(|s| s.owns(phrase))
            .expect("ranges cover the full phrase-id space")
    }

    /// Total entries across all shards' score-ordered lists (equals the
    /// source's — sharding only redistributes).
    pub fn total_entries(&self) -> usize {
        self.shards.iter().map(|s| s.lists.total_entries()).sum()
    }
}

/// Index of the shard owning phrase id `raw` under `n` ranges of `width`.
fn shard_of(raw: u32, width: u64, n: usize) -> usize {
    ((raw as u64 / width) as usize).min(n - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::ListBackend;
    use crate::corpus_index::{CorpusIndex, IndexConfig};
    use crate::cursor::ScoredListCursor;
    use crate::mining::MiningConfig;
    use crate::wordlists::WordListConfig;

    fn setup() -> (usize, WordPhraseLists, IdOrderedLists) {
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
        (index.dict.len(), lists, id_lists)
    }

    #[test]
    fn shards_partition_every_list_without_loss() {
        let (np, lists, idl) = setup();
        for n in [1, 2, 3, 8] {
            let sharded = ShardedWordLists::build(&lists, &idl, np, n);
            assert_eq!(sharded.num_shards(), n);
            assert_eq!(sharded.total_entries(), lists.total_entries());
            for feat in lists.features() {
                // Concatenating the per-shard id-ordered lists in range
                // order reproduces the original id-ordered list exactly.
                let mut rebuilt: Vec<ListEntry> = Vec::new();
                for s in sharded.shards() {
                    rebuilt.extend_from_slice(s.id_lists().list(*feat));
                }
                let want = idl.list(*feat);
                assert_eq!(rebuilt.len(), want.len());
                for (a, b) in rebuilt.iter().zip(want) {
                    assert_eq!(a.phrase, b.phrase);
                    assert_eq!(a.prob.to_bits(), b.prob.to_bits());
                }
                // Score order survives filtering in every shard.
                for s in sharded.shards() {
                    let sl = s.lists().list(*feat);
                    for w in sl.windows(2) {
                        assert!(
                            w[0].prob > w[1].prob
                                || (w[0].prob == w[1].prob && w[0].phrase < w[1].phrase)
                        );
                    }
                    for e in sl {
                        assert!(s.owns(e.phrase));
                    }
                }
            }
        }
    }

    #[test]
    fn ranges_are_disjoint_and_cover_the_id_space() {
        let (np, lists, idl) = setup();
        let sharded = ShardedWordLists::build(&lists, &idl, np, 5);
        let shards = sharded.shards();
        assert_eq!(shards[0].range().0, PhraseId(0));
        assert_eq!(shards[shards.len() - 1].range().1, PhraseId(u32::MAX));
        for w in shards.windows(2) {
            assert_eq!(w[0].range().1, w[1].range().0, "ranges must abut");
        }
        // Every phrase id maps to exactly one owner.
        for raw in [0u32, 1, np as u32 / 2, np as u32 - 1] {
            let owners = shards.iter().filter(|s| s.owns(PhraseId(raw))).count();
            assert_eq!(owners, 1, "phrase {raw} must have exactly one owner");
        }
    }

    #[test]
    fn shard_backends_probe_only_their_range() {
        let (np, lists, idl) = setup();
        let sharded = ShardedWordLists::build(&lists, &idl, np, 3);
        for feat in lists.features().iter().take(30) {
            for e in lists.list(*feat).iter().take(10) {
                let owner = sharded.owner(e.phrase);
                assert_eq!(owner.backend().probe(*feat, e.phrase), e.prob);
                for s in sharded.shards() {
                    if !s.owns(e.phrase) {
                        assert_eq!(s.backend().probe(*feat, e.phrase), 0.0);
                    }
                    assert_eq!(s.backend().phrase_range(), Some(s.range()));
                    assert_eq!(s.backend().owns_phrase(e.phrase), s.owns(e.phrase));
                }
            }
        }
    }

    #[test]
    fn more_shards_than_phrases_yields_empty_tails() {
        // A dictionary of two phrases split eight ways: ids 0 and 1 land
        // in the first two shards, the remaining six shards are empty but
        // still valid backends.
        let entries = vec![
            ListEntry {
                phrase: PhraseId(0),
                prob: 0.9,
            },
            ListEntry {
                phrase: PhraseId(1),
                prob: 0.5,
            },
        ];
        let feat = ipm_corpus::Feature::Word(ipm_corpus::WordId(0));
        let lists = WordPhraseLists::from_feature_lists(vec![(feat, entries.clone())]);
        let idl = IdOrderedLists::from_feature_lists(vec![(feat, entries)]);
        let sharded = ShardedWordLists::build(&lists, &idl, 2, 8);
        assert_eq!(sharded.num_shards(), 8);
        assert_eq!(sharded.total_entries(), lists.total_entries());
        assert_eq!(sharded.shards()[0].lists().total_entries(), 1);
        assert_eq!(sharded.shards()[1].lists().total_entries(), 1);
        for s in &sharded.shards()[2..] {
            assert_eq!(s.lists().total_entries(), 0);
            assert!(s.backend().score_cursor(feat, 1.0).is_empty());
        }
    }
}
