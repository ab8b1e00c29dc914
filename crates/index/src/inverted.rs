//! Inverted indexes: feature → documents and phrase → documents.
//!
//! The feature index resolves `docs(D, qi)` for query features (paper
//! Eq. 2); the phrase index gives `docs(D, p)`, the denominator sets of both
//! the interestingness measure and `P(q|p)` (Eq. 13).

use crate::phrase::PhraseDictionary;
use crate::postings::Postings;
#[cfg(test)]
use ipm_corpus::DocId;
use ipm_corpus::{Corpus, FacetId, Feature, PhraseId, WordId};

/// Word and facet postings for a corpus.
#[derive(Debug, Default, Clone)]
pub struct FeatureIndex {
    word_postings: Vec<Postings>,
    facet_postings: Vec<Postings>,
    empty: Postings,
}

impl FeatureIndex {
    /// Builds postings for every word and facet in `corpus`.
    pub fn build(corpus: &Corpus) -> Self {
        let mut word_postings = vec![Postings::new(); corpus.words().len()];
        let mut facet_postings = vec![Postings::new(); corpus.facets().len()];
        let mut scratch: Vec<WordId> = Vec::new();
        for doc in corpus.docs() {
            doc.distinct_words_into(&mut scratch);
            for w in &scratch {
                word_postings[w.index()].push(doc.id);
            }
            for f in &doc.facets {
                facet_postings[f.index()].push(doc.id);
            }
        }
        Self {
            word_postings,
            facet_postings,
            empty: Postings::new(),
        }
    }

    /// Postings of a word; empty if out of range.
    #[inline]
    pub fn word(&self, w: WordId) -> &Postings {
        self.word_postings.get(w.index()).unwrap_or(&self.empty)
    }

    /// Postings of a facet; empty if out of range.
    #[inline]
    pub fn facet(&self, f: FacetId) -> &Postings {
        self.facet_postings.get(f.index()).unwrap_or(&self.empty)
    }

    /// Postings of any feature.
    #[inline]
    pub fn feature(&self, feat: Feature) -> &Postings {
        match feat {
            Feature::Word(w) => self.word(w),
            Feature::Facet(f) => self.facet(f),
        }
    }

    /// Document frequency of a feature.
    #[inline]
    pub fn df(&self, feat: Feature) -> usize {
        self.feature(feat).len()
    }

    /// Number of indexed facets.
    pub fn num_facets(&self) -> usize {
        self.facet_postings.len()
    }

    /// Materializes `D'` for a feature set under the given operator
    /// (paper Eq. 2).
    pub fn select(&self, features: &[Feature], and: bool) -> Postings {
        let lists: Vec<&Postings> = features.iter().map(|&f| self.feature(f)).collect();
        if and {
            Postings::intersect_many(&lists)
        } else {
            Postings::union_many(&lists)
        }
    }
}

/// Phrase → postings index.
#[derive(Debug, Default, Clone)]
pub struct PhrasePostings {
    postings: Vec<Postings>,
    empty: Postings,
}

impl PhrasePostings {
    /// Builds postings for every dictionary phrase by scanning each
    /// document once and extending matches along the prefix property.
    pub fn build(corpus: &Corpus, dict: &PhraseDictionary) -> Self {
        let max_len = dict.max_phrase_words();
        let mut postings = vec![Postings::new(); dict.len()];
        let mut doc_phrases: Vec<PhraseId> = Vec::new();
        for doc in corpus.docs() {
            collect_doc_phrases(&doc.tokens, dict, max_len, &mut doc_phrases);
            for &p in &doc_phrases {
                postings[p.index()].push(doc.id);
            }
        }
        Self {
            postings,
            empty: Postings::new(),
        }
    }

    /// Postings of a phrase; empty if out of range.
    #[inline]
    pub fn phrase(&self, p: PhraseId) -> &Postings {
        self.postings.get(p.index()).unwrap_or(&self.empty)
    }

    /// Document frequency `freq(p, D)`.
    #[inline]
    pub fn df(&self, p: PhraseId) -> usize {
        self.phrase(p).len()
    }

    /// Number of phrases covered.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Whether no phrases are covered.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }
}

/// Collects the distinct dictionary phrases occurring in `tokens` into
/// `out` (sorted ascending). Shared by the phrase-postings and forward-index
/// builders.
pub(crate) fn collect_doc_phrases(
    tokens: &[WordId],
    dict: &PhraseDictionary,
    max_len: usize,
    out: &mut Vec<PhraseId>,
) {
    out.clear();
    if max_len == 0 {
        return;
    }
    for start in 0..tokens.len() {
        // Prefix property: extend while the prefix is a dictionary phrase;
        // the first miss terminates (see PhraseDictionary::longest_prefix_match).
        let cap = (tokens.len() - start).min(max_len);
        for len in 1..=cap {
            match dict.get(&tokens[start..start + len]) {
                Some(id) => out.push(id),
                None => break,
            }
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Returns the distinct dictionary phrases of a token sequence (sorted
/// ascending); used by tests and the incremental delta index.
pub fn doc_phrases(tokens: &[WordId], dict: &PhraseDictionary) -> Vec<PhraseId> {
    let mut out = Vec::new();
    collect_doc_phrases(tokens, dict, dict.max_phrase_words(), &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mining::{mine_phrases, MiningConfig};
    use ipm_corpus::{CorpusBuilder, TokenizerConfig};

    fn corpus_from(texts: &[&str]) -> Corpus {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        for t in texts {
            b.add_text(t);
        }
        b.build()
    }

    #[test]
    fn feature_index_word_postings() {
        let c = corpus_from(&["a b", "b c", "c a b"]);
        let idx = FeatureIndex::build(&c);
        let b = c.word_id("b").unwrap();
        assert_eq!(idx.word(b).as_slice(), &[DocId(0), DocId(1), DocId(2)]);
        assert_eq!(idx.df(Feature::Word(b)), 3);
        let a = c.word_id("a").unwrap();
        assert_eq!(idx.word(a).as_slice(), &[DocId(0), DocId(2)]);
    }

    #[test]
    fn feature_index_duplicates_in_doc_count_once() {
        let c = corpus_from(&["x x x"]);
        let idx = FeatureIndex::build(&c);
        let x = c.word_id("x").unwrap();
        assert_eq!(idx.word(x).len(), 1);
    }

    #[test]
    fn facet_postings() {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        b.add_text_with_facets("p q", &[("venue", "sigmod")]);
        b.add_text_with_facets("r s", &[("venue", "vldb")]);
        b.add_text_with_facets("t u", &[("venue", "sigmod")]);
        let c = b.build();
        let idx = FeatureIndex::build(&c);
        let f = c.facet_id("venue:sigmod").unwrap();
        assert_eq!(idx.facet(f).as_slice(), &[DocId(0), DocId(2)]);
        assert_eq!(idx.num_facets(), 2);
    }

    #[test]
    fn select_and_or() {
        let c = corpus_from(&["a b", "a", "b", "a b c"]);
        let idx = FeatureIndex::build(&c);
        let a = Feature::Word(c.word_id("a").unwrap());
        let b = Feature::Word(c.word_id("b").unwrap());
        let and = idx.select(&[a, b], true);
        assert_eq!(and.as_slice(), &[DocId(0), DocId(3)]);
        let or = idx.select(&[a, b], false);
        assert_eq!(or.len(), 4);
    }

    #[test]
    fn out_of_range_feature_is_empty() {
        let c = corpus_from(&["a"]);
        let idx = FeatureIndex::build(&c);
        assert!(idx.word(WordId(99)).is_empty());
        assert!(idx.facet(FacetId(0)).is_empty());
    }

    #[test]
    fn phrase_postings_match_manual_scan() {
        let texts = ["e m t", "e m", "m t", "e m t r", "x y"];
        let c = corpus_from(&texts);
        let dict = mine_phrases(
            &c,
            &MiningConfig {
                min_df: 2,
                max_len: 3,
                min_len: 1,
            },
        );
        let pp = PhrasePostings::build(&c, &dict);
        let e = c.word_id("e").unwrap();
        let m = c.word_id("m").unwrap();
        let t = c.word_id("t").unwrap();
        let em = dict.get(&[e, m]).unwrap();
        assert_eq!(pp.phrase(em).as_slice(), &[DocId(0), DocId(1), DocId(3)]);
        let emt = dict.get(&[e, m, t]).unwrap();
        assert_eq!(pp.phrase(emt).as_slice(), &[DocId(0), DocId(3)]);
        let mt = dict.get(&[m, t]).unwrap();
        assert_eq!(pp.phrase(mt).as_slice(), &[DocId(0), DocId(2), DocId(3)]);
        // df in the dictionary must agree with the postings length.
        for (id, _, df) in dict.iter() {
            assert_eq!(pp.df(id) as u32, df, "df mismatch for {id:?}");
        }
    }

    #[test]
    fn doc_phrases_distinct_and_sorted() {
        let c = corpus_from(&["a b a b", "a b", "a b", "a b", "a b"]);
        let dict = mine_phrases(&c, &MiningConfig::default());
        let d0 = &c.docs()[0];
        let ps = doc_phrases(&d0.tokens, &dict);
        assert!(ps.windows(2).all(|w| w[0] < w[1]));
        // "a", "b", "a b", "b a" are frequent (df 5,5,5, and "b a" df>=1?).
        // "b a" occurs only in doc 0, so df=1 < 5: not in dict.
        let a = c.word_id("a").unwrap();
        let b = c.word_id("b").unwrap();
        assert!(dict.get(&[b, a]).is_none());
        assert_eq!(ps.len(), 3);
        assert!(ps.contains(&dict.get(&[a, b]).unwrap()));
    }

    #[test]
    fn empty_dictionary_gives_empty_postings() {
        let c = corpus_from(&["a b"]);
        let dict = PhraseDictionary::new();
        let pp = PhrasePostings::build(&c, &dict);
        assert!(pp.is_empty());
        assert!(pp.phrase(PhraseId(0)).is_empty());
    }
}
