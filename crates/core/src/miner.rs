//! The high-level facade: build once, query many times.
//!
//! [`PhraseMiner`] owns the corpus, the offline indexes (dictionary,
//! postings, forward lists) and the paper's word-specific lists in both
//! orders, and runs the four algorithms over those in-memory lists:
//!
//! * [`PhraseMiner::top_k_exact`] — ground truth (Eq. 3);
//! * [`PhraseMiner::top_k_smj`] — in-memory SMJ over ID-ordered lists;
//! * [`PhraseMiner::top_k_nra`] / [`PhraseMiner::top_k_nra_partial`] —
//!   NRA over in-memory score-ordered lists;
//! * [`PhraseMiner::top_k_ta`] — TA over both list orders.
//!
//! Every variation that involves another backend (the simulated-disk
//! images, `ipm_storage::PagedImage`), simulated-IO accounting or
//! post-filtering exists only on [`crate::engine::QueryEngine`]'s spine.

use crate::delta::DeltaIndex;
use crate::exact;
use crate::nra::{run_nra, NraConfig, NraOutcome};
use crate::query::{Operator, Query, QueryError};
use crate::result::PhraseHit;
use crate::smj::run_smj;
use ipm_corpus::{Corpus, PhraseId};
use ipm_index::backend::MemoryBackend;
use ipm_index::corpus_index::{CorpusIndex, IndexConfig};
use ipm_index::cursor::MemoryCursor;
use ipm_index::wordlists::{IdOrderedLists, WordListConfig, WordPhraseLists};

/// Build configuration for [`PhraseMiner`].
#[derive(Debug, Clone, Default)]
pub struct MinerConfig {
    /// Phrase-mining / index parameters.
    pub index: IndexConfig,
    /// Word-list construction parameters.
    pub wordlists: WordListConfig,
    /// Default NRA tuning (per-query `k` overrides the one in here).
    pub nra: NraConfig,
}

/// An indexed corpus ready for interesting-phrase queries.
#[derive(Debug)]
pub struct PhraseMiner {
    corpus: Corpus,
    index: CorpusIndex,
    lists: WordPhraseLists,
    id_lists: IdOrderedLists,
    config: MinerConfig,
}

impl PhraseMiner {
    /// Builds all indexes over (a clone of) `corpus`.
    pub fn build(corpus: &Corpus, config: MinerConfig) -> Self {
        let index = CorpusIndex::build(corpus, &config.index);
        let lists = WordPhraseLists::build(corpus, &index, &config.wordlists);
        let id_lists = IdOrderedLists::from_score_ordered(&lists);
        Self {
            corpus: corpus.clone(),
            index,
            lists,
            id_lists,
            config,
        }
    }

    /// The corpus this miner was built over.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The offline index bundle.
    pub fn index(&self) -> &CorpusIndex {
        &self.index
    }

    /// The score-ordered word lists.
    pub fn lists(&self) -> &WordPhraseLists {
        &self.lists
    }

    /// The ID-ordered lists that SMJ runs over.
    pub fn id_lists(&self) -> &IdOrderedLists {
        &self.id_lists
    }

    /// The build configuration.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// The in-memory [`ListBackend`](ipm_index::backend::ListBackend) view over this miner's lists. Every
    /// retrieval algorithm runs over it; `ipm_storage::PagedImage` is the
    /// drop-in simulated-disk alternative.
    pub fn memory_backend(&self) -> MemoryBackend<'_> {
        MemoryBackend::new(&self.lists, &self.id_lists)
    }

    /// Parses keyword terms (and `key:value` facet terms) into a query.
    pub fn parse_query(&self, terms: &[&str], op: Operator) -> Result<Query, QueryError> {
        Query::from_terms(&self.corpus, terms, op)
    }

    /// Exact top-k (Eq. 3) — the ground truth, linear in `|D'|`.
    pub fn top_k_exact(&self, query: &Query, k: usize) -> Vec<PhraseHit> {
        exact::exact_top_k(&self.index, query, k)
    }

    /// SMJ top-k over the ID-ordered lists.
    pub fn top_k_smj(&self, query: &Query, k: usize) -> Vec<PhraseHit> {
        run_smj(&self.id_lists, query, k)
    }

    /// NRA top-k over full in-memory score-ordered lists.
    pub fn top_k_nra(&self, query: &Query, k: usize) -> NraOutcome {
        self.top_k_nra_partial(query, k, 1.0)
    }

    /// NRA top-k reading only the top-`fraction` of each list (run-time
    /// partial lists, paper §4.3).
    pub fn top_k_nra_partial(&self, query: &Query, k: usize, fraction: f64) -> NraOutcome {
        let cursors: Vec<_> = query
            .features
            .iter()
            .map(|&f| MemoryCursor::partial(&self.lists, f, fraction))
            .collect();
        let cfg = NraConfig {
            k,
            lists_are_partial: fraction < 1.0,
            ..self.config.nra.clone()
        };
        run_nra(cursors, query.op, &cfg)
    }

    /// NRA top-k with delta corrections from a side index (paper §4.5.1).
    pub fn top_k_nra_with_delta(&self, query: &Query, k: usize, delta: &DeltaIndex) -> NraOutcome {
        let cursors: Vec<_> = query
            .features
            .iter()
            .map(|&f| {
                crate::delta::AdjustedCursor::new(
                    MemoryCursor::new(self.lists.list(f)),
                    delta,
                    &self.index,
                    f,
                )
            })
            .collect();
        let cfg = NraConfig {
            k,
            // Stale ordering + corrections ⇒ bounds are heuristic; treat
            // lists as partial so exhausted lists keep a safe bound.
            lists_are_partial: true,
            ..self.config.nra.clone()
        };
        run_nra(cursors, query.op, &cfg)
    }

    /// TA top-k: sorted access over the score-ordered lists with random
    /// probes into the ID-ordered lists (in-memory extension; see
    /// [`crate::ta`]).
    pub fn top_k_ta(&self, query: &Query, k: usize) -> crate::ta::TaOutcome {
        crate::ta::run_ta(&self.lists, &self.id_lists, query, k)
    }

    /// Approximate NPMI top-k (paper §7 future work — another
    /// interestingness formulation served by the same list machinery):
    /// fetches the NRA top-`fetch` candidates by estimated
    /// interestingness, converts each estimate to estimated NPMI using
    /// `df(p)` and `|D'|` (postings set algebra only), and reranks.
    ///
    /// **Fetch depth matters.** The lists are ordered by `P(q|p)` — the
    /// right key for Eq. 1 but not for NPMI, which breaks Eq. 1's ties
    /// toward *higher-df* phrases. A shallow fetch sees only an arbitrary
    /// slice of the top-interestingness plateau and misses the phrases
    /// NPMI actually prefers; recall rises with `fetch` and becomes exact
    /// (up to independence-assumption score error) when `fetch` covers
    /// every candidate. This is the honest answer to the paper's §7
    /// question for NPMI: the machinery *computes* it from list data, but
    /// the list order no longer supports early termination.
    pub fn top_k_npmi(&self, query: &Query, k: usize, fetch: usize) -> Vec<PhraseHit> {
        // For OR queries, base the estimates on the full inclusion–
        // exclusion score (Eq. 11): the first-order cut's overestimate is
        // harmless for Eq. 1's ranking but inflates NPMI for phrases
        // partially correlated with many query words.
        let mut hits = match query.op {
            Operator::Or => crate::smj::run_smj_exact_or(&self.id_lists, query, fetch.max(k)),
            Operator::And => self.top_k_nra(query, fetch.max(k)).hits,
        };
        crate::measures::rescore_npmi(&self.index, query, &mut hits);
        hits.truncate(k);
        hits
    }

    /// Parses a full query string (`"trade AND reserves"`, facets allowed).
    pub fn parse_query_str(&self, input: &str) -> Result<Query, crate::parse::ParseError> {
        crate::parse::parse_query(&self.corpus, input)
    }

    /// Renders a phrase id as text.
    pub fn phrase_text(&self, p: PhraseId) -> String {
        self.index.dict.render(p, &self.corpus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_index::mining::MiningConfig;

    fn miner() -> PhraseMiner {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        PhraseMiner::build(
            &c,
            MinerConfig {
                index: IndexConfig {
                    mining: MiningConfig {
                        min_df: 3,
                        max_len: 4,
                        min_len: 1,
                    },
                },
                ..Default::default()
            },
        )
    }

    fn some_query(m: &PhraseMiner, op: Operator) -> Query {
        // Pick two corpus words that co-occur: take the two most frequent.
        let top = ipm_corpus::stats::top_words_by_df(m.corpus(), 2);
        Query::new(
            top.iter()
                .map(|&(w, _)| ipm_corpus::Feature::Word(w))
                .collect(),
            op,
        )
        .unwrap()
    }

    #[test]
    fn build_produces_nonempty_indexes() {
        let m = miner();
        assert!(!m.index().dict.is_empty());
        assert!(m.lists().total_entries() > 0);
        assert_eq!(m.id_lists().total_entries(), m.lists().total_entries());
    }

    #[test]
    fn exact_smj_nra_agree_on_top_scores_or() {
        let m = miner();
        let q = some_query(&m, Operator::Or);
        let k = 5;
        let exact: Vec<f64> = m.top_k_exact(&q, k).iter().map(|h| h.score).collect();
        let smj = m.top_k_smj(&q, k);
        let nra = m.top_k_nra(&q, k);
        // SMJ and NRA run the same scoring; their results must agree.
        assert_eq!(smj.len(), nra.hits.len());
        for (a, b) in smj.iter().zip(&nra.hits) {
            assert_eq!(a.phrase, b.phrase, "smj {smj:?} nra {:?}", nra.hits);
            assert!((a.score - b.score).abs() < 1e-9);
        }
        // The independence-assumption scores approximate the exact ones.
        for (est, ex) in smj.iter().zip(&exact) {
            let est_i = crate::scoring::estimated_interestingness(Operator::Or, est.score);
            assert!((est_i - ex).abs() < 0.5, "estimate {est_i} vs exact {ex}");
        }
    }

    #[test]
    fn exact_smj_nra_agree_on_top_scores_and() {
        let m = miner();
        let q = some_query(&m, Operator::And);
        let smj = m.top_k_smj(&q, 5);
        let nra = m.top_k_nra(&q, 5);
        assert_eq!(smj.len(), nra.hits.len());
        for (a, b) in smj.iter().zip(&nra.hits) {
            assert_eq!(a.phrase, b.phrase);
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }

    #[test]
    fn partial_nra_is_subset_biased_but_nonempty() {
        let m = miner();
        let q = some_query(&m, Operator::Or);
        let out = m.top_k_nra_partial(&q, 5, 0.2);
        assert!(!out.hits.is_empty());
        // Partial lists can only have read fewer entries than full lists.
        let full = m.top_k_nra(&q, 5);
        assert!(out.stats.total_entries_read() <= full.stats.total_entries_read());
    }

    #[test]
    fn parse_query_round_trip() {
        let m = miner();
        let q = m.parse_query(&["w1", "w2"], Operator::And).unwrap();
        assert_eq!(q.len(), 2);
        assert!(m
            .parse_query(&["definitely-not-a-word"], Operator::Or)
            .is_err());
    }

    #[test]
    fn phrase_text_renders() {
        let m = miner();
        let (id, words, _) = m.index().dict.iter().next().unwrap();
        assert_eq!(m.phrase_text(id), m.corpus().render_words(words));
    }

    #[test]
    fn delta_corrections_flow_through_nra() {
        let m = miner();
        let q = some_query(&m, Operator::Or);
        let delta = DeltaIndex::new();
        let with_empty_delta = m.top_k_nra_with_delta(&q, 5, &delta);
        let plain = m.top_k_nra(&q, 5);
        assert_eq!(
            with_empty_delta
                .hits
                .iter()
                .map(|h| h.phrase)
                .collect::<Vec<_>>(),
            plain.hits.iter().map(|h| h.phrase).collect::<Vec<_>>()
        );
    }
}
