//! The query model: `Q = [{q1, ..., qr}, O]` (paper §3).

use ipm_corpus::{Corpus, Feature};

/// The aggregation operator combining per-feature document sets (Eq. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operator {
    /// `D'` is the intersection of the per-feature sets.
    And,
    /// `D'` is the union of the per-feature sets.
    Or,
}

impl std::fmt::Display for Operator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Operator::And => write!(f, "AND"),
            Operator::Or => write!(f, "OR"),
        }
    }
}

/// A query: a set of features plus an operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The features `q1..qr` (keywords and/or metadata facets), distinct,
    /// in the order given.
    pub features: Vec<Feature>,
    /// The aggregation operator `O`.
    pub op: Operator,
}

/// Errors from query construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The query contained no (known) features.
    Empty,
    /// A keyword was not in the corpus vocabulary.
    UnknownWord(String),
    /// A facet value was not in the corpus facet vocabulary.
    UnknownFacet(String),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Empty => write!(f, "query has no features"),
            QueryError::UnknownWord(w) => write!(f, "unknown word: {w}"),
            QueryError::UnknownFacet(v) => write!(f, "unknown facet: {v}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl Query {
    /// Builds a query from features, deduplicating while preserving order.
    ///
    /// # Errors
    /// [`QueryError::Empty`] if no features remain.
    pub fn new(features: Vec<Feature>, op: Operator) -> Result<Self, QueryError> {
        let mut seen = Vec::new();
        for f in features {
            if !seen.contains(&f) {
                seen.push(f);
            }
        }
        if seen.is_empty() {
            return Err(QueryError::Empty);
        }
        Ok(Self { features: seen, op })
    }

    /// Parses keyword terms against a corpus vocabulary.
    ///
    /// # Errors
    /// [`QueryError::UnknownWord`] for any term missing from the corpus
    /// (a word with no postings can never select documents).
    pub fn from_words(corpus: &Corpus, terms: &[&str], op: Operator) -> Result<Self, QueryError> {
        let mut features = Vec::with_capacity(terms.len());
        for t in terms {
            match corpus.word_id(t) {
                Some(w) => features.push(Feature::Word(w)),
                None => return Err(QueryError::UnknownWord((*t).to_owned())),
            }
        }
        Query::new(features, op)
    }

    /// Parses a mixed query: keywords plus `key:value` facet terms (terms
    /// containing `:` are treated as facets, mirroring the paper's
    /// `venue:sigmod` examples).
    pub fn from_terms(corpus: &Corpus, terms: &[&str], op: Operator) -> Result<Self, QueryError> {
        let mut features = Vec::with_capacity(terms.len());
        for t in terms {
            if t.contains(':') {
                match corpus.facet_id(t) {
                    Some(f) => features.push(Feature::Facet(f)),
                    None => return Err(QueryError::UnknownFacet((*t).to_owned())),
                }
            } else {
                match corpus.word_id(t) {
                    Some(w) => features.push(Feature::Word(w)),
                    None => return Err(QueryError::UnknownWord((*t).to_owned())),
                }
            }
        }
        Query::new(features, op)
    }

    /// Number of features `r`.
    pub fn len(&self) -> usize {
        self.features.len()
    }

    /// Whether the query is (impossibly) empty; `Query::new` prevents this.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// Renders the query for logs: `trade AND reserves`.
    pub fn render(&self, corpus: &Corpus) -> String {
        let sep = format!(" {} ", self.op);
        self.features
            .iter()
            .map(|f| match f {
                Feature::Word(w) => corpus.words().term(*w).unwrap_or("<?>").to_owned(),
                Feature::Facet(v) => corpus.facets().value(*v).unwrap_or("<?>").to_owned(),
            })
            .collect::<Vec<_>>()
            .join(&sep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_corpus::{CorpusBuilder, TokenizerConfig};

    fn corpus() -> Corpus {
        let mut b = CorpusBuilder::new(TokenizerConfig::default());
        b.add_text_with_facets("trade reserves economic", &[("venue", "sigmod")]);
        b.build()
    }

    #[test]
    fn from_words_resolves() {
        let c = corpus();
        let q = Query::from_words(&c, &["trade", "reserves"], Operator::And).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.op, Operator::And);
    }

    #[test]
    fn unknown_word_errors() {
        let c = corpus();
        let e = Query::from_words(&c, &["trade", "zzz"], Operator::Or).unwrap_err();
        assert_eq!(e, QueryError::UnknownWord("zzz".into()));
        assert!(e.to_string().contains("zzz"));
    }

    #[test]
    fn mixed_terms_with_facet() {
        let c = corpus();
        let q = Query::from_terms(&c, &["trade", "venue:sigmod"], Operator::And).unwrap();
        assert_eq!(q.len(), 2);
        assert!(matches!(q.features[1], Feature::Facet(_)));
        let e = Query::from_terms(&c, &["venue:vldb"], Operator::And).unwrap_err();
        assert_eq!(e, QueryError::UnknownFacet("venue:vldb".into()));
    }

    #[test]
    fn duplicates_removed_order_kept() {
        let c = corpus();
        let q = Query::from_words(&c, &["trade", "reserves", "trade"], Operator::Or).unwrap();
        assert_eq!(q.len(), 2);
        assert_eq!(q.render(&c), "trade OR reserves");
    }

    #[test]
    fn empty_query_rejected() {
        assert_eq!(
            Query::new(vec![], Operator::And).unwrap_err(),
            QueryError::Empty
        );
    }

    #[test]
    fn render_and() {
        let c = corpus();
        let q = Query::from_terms(&c, &["economic", "venue:sigmod"], Operator::And).unwrap();
        assert_eq!(q.render(&c), "economic AND venue:sigmod");
    }

    #[test]
    fn operator_display() {
        assert_eq!(Operator::And.to_string(), "AND");
        assert_eq!(Operator::Or.to_string(), "OR");
    }
}
