//! One-stop construction of the full index set over a corpus.

use crate::forward::ForwardIndex;
use crate::inverted::{FeatureIndex, PhrasePostings};
use crate::mining::{mine_phrases, MiningConfig};
use crate::phrase::PhraseDictionary;
use ipm_corpus::Corpus;

/// Configuration of [`CorpusIndex::build`].
#[derive(Debug, Clone, Default)]
pub struct IndexConfig {
    /// Phrase-mining parameters (df threshold, length bounds).
    pub mining: MiningConfig,
}

/// The offline index bundle: everything the paper's pre-processing step
/// produces except the word-specific lists (which are built separately via
/// [`crate::wordlists::WordPhraseLists::build`] because their cost and
/// sizing knobs differ).
#[derive(Debug, Clone)]
pub struct CorpusIndex {
    /// The phrase dictionary `P`.
    pub dict: PhraseDictionary,
    /// Feature (word/facet) → postings.
    pub features: FeatureIndex,
    /// Phrase → postings.
    pub phrases: PhrasePostings,
    /// Document → phrase list (the baselines' index).
    pub forward: ForwardIndex,
}

impl CorpusIndex {
    /// Mines phrases and builds all postings/forward structures.
    pub fn build(corpus: &Corpus, config: &IndexConfig) -> Self {
        let dict = mine_phrases(corpus, &config.mining);
        let features = FeatureIndex::build(corpus);
        let phrases = PhrasePostings::build(corpus, &dict);
        let forward = ForwardIndex::build(corpus, &dict);
        Self {
            dict,
            features,
            phrases,
            forward,
        }
    }

    /// Number of documents `|D|` in the indexed corpus.
    pub fn num_docs(&self) -> usize {
        self.forward.num_docs()
    }

    /// Exact interestingness `I(p, D') = freq(p, D') / freq(p, D)` for a
    /// materialized subset (paper Eq. 1, document-frequency semantics,
    /// see [`crate::occurrence`]).
    pub fn interestingness(
        &self,
        p: ipm_corpus::PhraseId,
        subset: &crate::postings::Postings,
    ) -> f64 {
        let dp = self.phrases.phrase(p);
        if dp.is_empty() {
            return 0.0;
        }
        dp.intersect_len(subset) as f64 / dp.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::postings::Postings;
    use ipm_corpus::{CorpusBuilder, DocId, TokenizerConfig};

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        b.add_text("q o d s");
        b.add_text("q o x");
        b.add_text("d s q");
        b.add_text("q o d s");
        b.build()
    }

    #[test]
    fn build_wires_all_components() {
        let c = corpus();
        let idx = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 2,
                    max_len: 3,
                    min_len: 1,
                },
            },
        );
        assert!(!idx.dict.is_empty());
        assert_eq!(idx.forward.num_docs(), 4);
        assert_eq!(idx.phrases.len(), idx.dict.len());
        // q o appears in docs 0, 1, 3
        let qo = idx
            .dict
            .get(&[c.word_id("q").unwrap(), c.word_id("o").unwrap()])
            .unwrap();
        assert_eq!(idx.phrases.df(qo), 3);
    }

    #[test]
    fn interestingness_is_df_ratio() {
        let c = corpus();
        let idx = CorpusIndex::build(
            &c,
            &IndexConfig {
                mining: MiningConfig {
                    min_df: 2,
                    max_len: 2,
                    min_len: 1,
                },
            },
        );
        let qo = idx
            .dict
            .get(&[c.word_id("q").unwrap(), c.word_id("o").unwrap()])
            .unwrap();
        // subset {0, 1}: q o occurs in both; global df = 3.
        let subset = Postings::from_sorted(vec![DocId(0), DocId(1)]);
        assert!((idx.interestingness(qo, &subset) - 2.0 / 3.0).abs() < 1e-12);
        // phrase appearing in every subset doc and nowhere else: I = 1.0
        let ds = idx
            .dict
            .get(&[c.word_id("d").unwrap(), c.word_id("s").unwrap()])
            .unwrap();
        let subset_all = Postings::from_sorted(vec![DocId(0), DocId(2), DocId(3)]);
        assert!((idx.interestingness(ds, &subset_all) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn interestingness_of_unknown_phrase_is_zero() {
        let c = corpus();
        let idx = CorpusIndex::build(&c, &IndexConfig::default());
        let subset = Postings::from_sorted(vec![DocId(0)]);
        assert_eq!(
            idx.interestingness(ipm_corpus::PhraseId(9999), &subset),
            0.0
        );
    }

    #[test]
    fn default_config_mines_with_paper_defaults() {
        let cfg = IndexConfig::default();
        assert_eq!(cfg.mining.min_df, 5);
        assert_eq!(cfg.mining.max_len, 6);
    }
}
