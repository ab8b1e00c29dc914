//! The in-memory corpus: documents + vocabularies.

use crate::doc::Document;
use crate::ids::{DocId, FacetId, WordId};
use crate::token::{tokenize, TokenizerConfig};
use crate::vocab::{FacetVocabulary, Vocabulary};

/// A static corpus `D` of tokenized documents with interned vocabularies.
///
/// This is the paper's `D` (Table 2): the fixed document collection over
/// which the phrase dictionary `P`, the feature set `W`, and all indexes are
/// built. Dynamic subsets `D'` are *not* materialized here; they are defined
/// by queries and resolved against indexes (crate `ipm-index`).
#[derive(Debug, Default, Clone)]
pub struct Corpus {
    docs: Vec<Document>,
    words: Vocabulary,
    facets: FacetVocabulary,
}

impl Corpus {
    /// Number of documents, `|D|`.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus has no documents.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// The document with the given id, if in range.
    pub fn doc(&self, id: DocId) -> Option<&Document> {
        self.docs.get(id.index())
    }

    /// All documents in id order.
    pub fn docs(&self) -> &[Document] {
        &self.docs
    }

    /// The word vocabulary `W` (keyword features).
    pub fn words(&self) -> &Vocabulary {
        &self.words
    }

    /// The facet vocabulary (metadata features).
    pub fn facets(&self) -> &FacetVocabulary {
        &self.facets
    }

    /// Total number of tokens across all documents.
    pub fn total_tokens(&self) -> usize {
        self.docs.iter().map(Document::len).sum()
    }

    /// Resolves a word string to its id.
    pub fn word_id(&self, term: &str) -> Option<WordId> {
        self.words.get(term)
    }

    /// Resolves a facet string (in `key:value` form) to its id.
    pub fn facet_id(&self, facet: &str) -> Option<FacetId> {
        self.facets.get(facet)
    }

    /// A new corpus over `docs` (token streams + facets, renumbered
    /// densely from 0) that *shares this corpus's vocabularies*: word and
    /// facet ids keep their meaning, so indexes built over the result are
    /// directly comparable with ones built over `self`. This is the
    /// offline-rebuild primitive of the §4.5.1 lifecycle — compaction
    /// reconstructs the document set (base minus deletions plus ingested
    /// docs) without re-interning a single term.
    ///
    /// Vocabulary entries no longer referenced by any document are kept
    /// (ids must stay stable); they simply end up with empty postings.
    pub fn with_docs(&self, docs: Vec<(Vec<WordId>, Vec<FacetId>)>) -> Corpus {
        Corpus {
            docs: docs
                .into_iter()
                .enumerate()
                .map(|(i, (tokens, facets))| Document::new(DocId(i as u32), tokens, facets))
                .collect(),
            words: self.words.clone(),
            facets: self.facets.clone(),
        }
    }

    /// Renders a sequence of word ids back to a space-joined string.
    pub fn render_words(&self, ids: &[WordId]) -> String {
        let mut s = String::new();
        for (i, &w) in ids.iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(self.words.term(w).unwrap_or("<?>"));
        }
        s
    }
}

/// Incremental builder for [`Corpus`].
///
/// ```
/// use ipm_corpus::{CorpusBuilder, TokenizerConfig};
///
/// let mut b = CorpusBuilder::new(TokenizerConfig::default());
/// b.add_text("trade reserves fell sharply");
/// b.add_text_with_facets("economic minister speaks", &[("topic", "economy")]);
/// let corpus = b.build();
/// assert_eq!(corpus.num_docs(), 2);
/// assert!(corpus.word_id("reserves").is_some());
/// assert!(corpus.facet_id("topic:economy").is_some());
/// ```
#[derive(Debug, Default)]
pub struct CorpusBuilder {
    tokenizer: TokenizerConfig,
    docs: Vec<Document>,
    words: Vocabulary,
    facets: FacetVocabulary,
}

impl CorpusBuilder {
    /// Creates a builder with the given tokenizer configuration.
    pub fn new(tokenizer: TokenizerConfig) -> Self {
        Self {
            tokenizer,
            ..Default::default()
        }
    }

    /// Adds a raw-text document without facets; returns its id.
    pub fn add_text(&mut self, text: &str) -> DocId {
        self.add_text_with_facets(text, &[])
    }

    /// Adds a raw-text document with `(key, value)` facets; returns its id.
    pub fn add_text_with_facets(&mut self, text: &str, facets: &[(&str, &str)]) -> DocId {
        let tokens = tokenize(text, &self.tokenizer)
            .iter()
            .map(|t| self.words.intern(t))
            .collect();
        let facet_ids = facets
            .iter()
            .map(|(k, v)| self.facets.intern_kv(k, v))
            .collect();
        self.add_tokenized(tokens, facet_ids)
    }

    /// Adds an already-tokenized document (ids must come from this builder's
    /// vocabulary, e.g. via [`CorpusBuilder::intern_word`]); returns its id.
    pub fn add_tokenized(&mut self, tokens: Vec<WordId>, facets: Vec<FacetId>) -> DocId {
        let id = DocId(self.docs.len() as u32);
        self.docs.push(Document::new(id, tokens, facets));
        id
    }

    /// Interns a word, for callers assembling token streams directly
    /// (e.g. the synthetic generators).
    pub fn intern_word(&mut self, term: &str) -> WordId {
        self.words.intern(term)
    }

    /// Interns a facet value from its parts.
    pub fn intern_facet(&mut self, key: &str, value: &str) -> FacetId {
        self.facets.intern_kv(key, value)
    }

    /// Number of documents added so far.
    pub fn num_docs(&self) -> usize {
        self.docs.len()
    }

    /// Finalizes the corpus.
    pub fn build(self) -> Corpus {
        Corpus {
            docs: self.docs,
            words: self.words,
            facets: self.facets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        b.add_text("query optimization in database systems");
        b.add_text("database systems and query planning");
        b.add_text_with_facets(
            "economic minister on trade reserves",
            &[("topic", "economy")],
        );
        b.build()
    }

    #[test]
    fn builder_assigns_dense_doc_ids() {
        let c = small_corpus();
        assert_eq!(c.num_docs(), 3);
        for (i, d) in c.docs().iter().enumerate() {
            assert_eq!(d.id, DocId(i as u32));
        }
    }

    #[test]
    fn shared_vocabulary_across_documents() {
        let c = small_corpus();
        let db = c.word_id("database").unwrap();
        assert!(c.doc(DocId(0)).unwrap().tokens.contains(&db));
        assert!(c.doc(DocId(1)).unwrap().tokens.contains(&db));
    }

    #[test]
    fn facet_resolution() {
        let c = small_corpus();
        let f = c.facet_id("topic:economy").unwrap();
        assert!(c.doc(DocId(2)).unwrap().has_facet(f));
        assert!(!c.doc(DocId(0)).unwrap().has_facet(f));
        assert_eq!(c.facet_id("topic:sports"), None);
    }

    #[test]
    fn render_words_roundtrip() {
        let c = small_corpus();
        let d = c.doc(DocId(0)).unwrap();
        assert_eq!(
            c.render_words(&d.tokens),
            "query optimization in database systems"
        );
    }

    #[test]
    fn render_words_handles_unknown_ids() {
        let c = small_corpus();
        let bogus = WordId(9999);
        assert_eq!(c.render_words(&[bogus]), "<?>");
    }

    #[test]
    fn total_tokens_sums_docs() {
        let c = small_corpus();
        assert_eq!(
            c.total_tokens(),
            c.docs().iter().map(|d| d.len()).sum::<usize>()
        );
        assert_eq!(c.total_tokens(), 5 + 5 + 5);
    }

    #[test]
    fn doc_out_of_range_is_none() {
        let c = small_corpus();
        assert!(c.doc(DocId(3)).is_none());
    }

    #[test]
    fn empty_corpus() {
        let c = CorpusBuilder::default().build();
        assert!(c.is_empty());
        assert_eq!(c.total_tokens(), 0);
    }

    #[test]
    fn with_docs_shares_vocabulary_and_renumbers() {
        let c = small_corpus();
        let d0 = c.doc(DocId(0)).unwrap().clone();
        let d2 = c.doc(DocId(2)).unwrap().clone();
        let rebuilt = c.with_docs(vec![
            (d2.tokens.clone(), d2.facets.clone()),
            (d0.tokens.clone(), d0.facets.clone()),
        ]);
        assert_eq!(rebuilt.num_docs(), 2);
        assert_eq!(rebuilt.doc(DocId(0)).unwrap().tokens, d2.tokens);
        assert_eq!(rebuilt.doc(DocId(0)).unwrap().id, DocId(0));
        assert_eq!(rebuilt.doc(DocId(1)).unwrap().tokens, d0.tokens);
        // Vocabulary ids keep their meaning across the rebuild.
        assert_eq!(rebuilt.word_id("database"), c.word_id("database"));
        assert_eq!(
            rebuilt.facet_id("topic:economy"),
            c.facet_id("topic:economy")
        );
    }

    #[test]
    fn add_tokenized_respects_interned_ids() {
        let mut b = CorpusBuilder::default();
        let w1 = b.intern_word("alpha");
        let w2 = b.intern_word("beta");
        let f = b.intern_facet("year", "1997");
        let id = b.add_tokenized(vec![w1, w2, w1], vec![f]);
        let c = b.build();
        let d = c.doc(id).unwrap();
        assert_eq!(d.tokens, vec![w1, w2, w1]);
        assert!(d.has_facet(f));
        assert_eq!(c.render_words(&d.tokens), "alpha beta alpha");
    }
}
