//! Occurrence-count forward index: the other reading of Eq. 1's `freq`.
//!
//! The paper's interestingness (Eq. 1) divides `freq(p, D')` by
//! `freq(p, D)` without fixing whether `freq` counts *documents containing
//! p* or *total occurrences of p*. This repository's primary semantics is
//! document frequency — it is what the paper's own
//! `P(q|p)` construction (Eq. 13) is defined on. This module implements
//! the occurrence-count alternative so the choice can be ablated rather
//! than merely asserted: per-document `(phrase, count)` lists where
//! `count` is the number of (possibly overlapping) windows of the
//! document matching the phrase, plus corpus-wide totals.

use crate::phrase::PhraseDictionary;
use ipm_corpus::hash::FxHashMap;
use ipm_corpus::{Corpus, DocId, PhraseId};

/// CSR-packed per-document `(phrase, occurrence-count)` lists with global
/// totals.
#[derive(Debug, Default, Clone)]
pub struct OccurrenceIndex {
    offsets: Vec<u64>,
    entries: Vec<(PhraseId, u32)>,
    /// `phrase id -> total occurrences across the corpus` (dense).
    totals: Vec<u64>,
}

impl OccurrenceIndex {
    /// Counts every dictionary-phrase occurrence in every document.
    pub fn build(corpus: &Corpus, dict: &PhraseDictionary) -> Self {
        let mut offsets = Vec::with_capacity(corpus.num_docs() + 1);
        let mut entries: Vec<(PhraseId, u32)> = Vec::new();
        let mut totals = vec![0u64; dict.len()];
        let mut scratch: FxHashMap<PhraseId, u32> = FxHashMap::default();
        offsets.push(0u64);
        for doc in corpus.docs() {
            scratch.clear();
            count_doc_occurrences(&doc.tokens, dict, &mut scratch);
            let mut list: Vec<(PhraseId, u32)> = scratch.iter().map(|(&p, &c)| (p, c)).collect();
            list.sort_unstable_by_key(|&(p, _)| p);
            for &(p, c) in &list {
                totals[p.index()] += u64::from(c);
            }
            entries.extend_from_slice(&list);
            offsets.push(entries.len() as u64);
        }
        Self {
            offsets,
            entries,
            totals,
        }
    }

    /// The sorted `(phrase, count)` list of a document; empty out of range.
    #[inline]
    pub fn doc(&self, id: DocId) -> &[(PhraseId, u32)] {
        let i = id.index();
        if i + 1 >= self.offsets.len() {
            return &[];
        }
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Total occurrences of a phrase across the corpus; 0 if out of range.
    pub fn total(&self, p: PhraseId) -> u64 {
        self.totals.get(p.index()).copied().unwrap_or(0)
    }

    /// Number of documents covered.
    pub fn num_docs(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total `(doc, phrase)` entries stored.
    pub fn total_entries(&self) -> usize {
        self.entries.len()
    }
}

/// Counts occurrences of every dictionary phrase in one token stream.
/// Windows may overlap (`a a a` contains the phrase `a a` twice), matching
/// the naive sliding-window reading of "frequency of the phrase".
pub fn count_doc_occurrences(
    tokens: &[ipm_corpus::WordId],
    dict: &PhraseDictionary,
    out: &mut FxHashMap<PhraseId, u32>,
) {
    let max_len = dict.max_phrase_words().min(tokens.len());
    for start in 0..tokens.len() {
        for len in 1..=max_len.min(tokens.len() - start) {
            if let Some(p) = dict.get(&tokens[start..start + len]) {
                *out.entry(p).or_insert(0) += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_index::{CorpusIndex, IndexConfig};
    use crate::mining::MiningConfig;
    use ipm_corpus::{CorpusBuilder, TokenizerConfig};

    fn setup(texts: &[&str], min_df: u32) -> (Corpus, CorpusIndex) {
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
        (c, index)
    }

    #[test]
    fn repeated_phrase_counted_per_occurrence() {
        let (c, index) = setup(&["a b a b a", "a b"], 2);
        let occ = OccurrenceIndex::build(&c, &index.dict);
        let ab = index
            .dict
            .get(&[c.word_id("a").unwrap(), c.word_id("b").unwrap()])
            .unwrap();
        // doc 0: "a b" at positions 0 and 2 → 2 occurrences; doc 1: 1.
        let d0 = occ.doc(DocId(0)).to_vec();
        assert!(d0.contains(&(ab, 2)), "{d0:?}");
        assert_eq!(occ.total(ab), 3);
    }

    #[test]
    fn overlapping_windows_count() {
        let (c, index) = setup(&["a a a", "a a"], 2);
        let occ = OccurrenceIndex::build(&c, &index.dict);
        let aa = index
            .dict
            .get(&[c.word_id("a").unwrap(), c.word_id("a").unwrap()])
            .unwrap();
        // "a a a" holds "a a" at offsets 0 and 1.
        assert_eq!(
            occ.doc(DocId(0)).iter().find(|&&(p, _)| p == aa),
            Some(&(aa, 2))
        );
        assert_eq!(occ.total(aa), 3);
    }

    #[test]
    fn occurrence_count_at_least_document_frequency() {
        // Per phrase: total occurrences ≥ number of documents containing it.
        let (c, index) = setup(&["x y z x y", "y z", "x y x y x y", "z z z", "x y z"], 2);
        let occ = OccurrenceIndex::build(&c, &index.dict);
        for (p, _, df) in index.dict.iter() {
            assert!(
                occ.total(p) >= u64::from(df),
                "phrase {p:?}: total {} < df {df}",
                occ.total(p)
            );
        }
    }

    #[test]
    fn doc_lists_are_sorted_and_match_naive_recount() {
        let (c, index) = setup(&["m n o m n", "n o n o", "m m m"], 1);
        let occ = OccurrenceIndex::build(&c, &index.dict);
        for doc in c.docs() {
            let list = occ.doc(doc.id);
            assert!(list.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
            let mut naive = FxHashMap::default();
            count_doc_occurrences(&doc.tokens, &index.dict, &mut naive);
            assert_eq!(list.len(), naive.len());
            for &(p, n) in list {
                assert_eq!(naive.get(&p), Some(&n));
            }
        }
    }

    #[test]
    fn out_of_range_doc_and_phrase() {
        let (c, index) = setup(&["a b"], 1);
        let occ = OccurrenceIndex::build(&c, &index.dict);
        assert!(occ.doc(DocId(99)).is_empty());
        assert_eq!(occ.total(PhraseId(9_999)), 0);
        assert_eq!(occ.num_docs(), 1);
    }
}
