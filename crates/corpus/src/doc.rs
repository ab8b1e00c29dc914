//! Document representation.

use crate::ids::{DocId, FacetId, WordId};

/// A metadata facet attached to a document, e.g. `venue:sigmod` (paper §1).
///
/// Facets are stored interned; the `key:value` string lives in the corpus's
/// [`crate::vocab::FacetVocabulary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Facet(pub FacetId);

/// A tokenized document: a dense id, its token stream (word ids in text
/// order), and its metadata facets.
#[derive(Debug, Clone)]
pub struct Document {
    /// Dense identifier within the owning corpus.
    pub id: DocId,
    /// Tokens in text order (duplicates preserved; n-gram extraction needs
    /// the original sequence).
    pub tokens: Vec<WordId>,
    /// Facet values attached to this document, sorted and deduplicated.
    pub facets: Vec<FacetId>,
}

impl Document {
    /// Creates a document, normalizing the facet list (sort + dedup).
    pub fn new(id: DocId, tokens: Vec<WordId>, mut facets: Vec<FacetId>) -> Self {
        facets.sort_unstable();
        facets.dedup();
        Self { id, tokens, facets }
    }

    /// Number of tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether the document has no tokens.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Whether the document carries the given facet. O(log n).
    pub fn has_facet(&self, facet: FacetId) -> bool {
        self.facets.binary_search(&facet).is_ok()
    }

    /// Iterates the distinct words of the document in ascending id order.
    ///
    /// Allocates a scratch copy of the token list; callers in hot loops
    /// should prefer [`Document::distinct_words_into`] with a reused buffer.
    pub fn distinct_words(&self) -> Vec<WordId> {
        let mut words = self.tokens.clone();
        words.sort_unstable();
        words.dedup();
        words
    }

    /// Fills `buf` with the distinct words of the document (ascending id
    /// order), reusing its allocation.
    pub fn distinct_words_into(&self, buf: &mut Vec<WordId>) {
        buf.clear();
        buf.extend_from_slice(&self.tokens);
        buf.sort_unstable();
        buf.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(tokens: &[u32], facets: &[u32]) -> Document {
        Document::new(
            DocId(0),
            tokens.iter().map(|&t| WordId(t)).collect(),
            facets.iter().map(|&f| FacetId(f)).collect(),
        )
    }

    #[test]
    fn facets_are_sorted_and_deduped() {
        let d = doc(&[], &[3, 1, 3, 2]);
        assert_eq!(d.facets, vec![FacetId(1), FacetId(2), FacetId(3)]);
    }

    #[test]
    fn has_facet_uses_normalized_list() {
        let d = doc(&[], &[5, 1]);
        assert!(d.has_facet(FacetId(1)));
        assert!(d.has_facet(FacetId(5)));
        assert!(!d.has_facet(FacetId(2)));
    }

    #[test]
    fn distinct_words_sorted_unique() {
        let d = doc(&[4, 2, 4, 2, 9], &[]);
        assert_eq!(d.distinct_words(), vec![WordId(2), WordId(4), WordId(9)]);
    }

    #[test]
    fn distinct_words_into_reuses_buffer() {
        let d = doc(&[7, 7, 1], &[]);
        let mut buf = Vec::with_capacity(8);
        d.distinct_words_into(&mut buf);
        assert_eq!(buf, vec![WordId(1), WordId(7)]);
        // Second call must clear previous content.
        let d2 = doc(&[3], &[]);
        d2.distinct_words_into(&mut buf);
        assert_eq!(buf, vec![WordId(3)]);
    }

    #[test]
    fn len_and_empty() {
        assert!(doc(&[], &[]).is_empty());
        assert_eq!(doc(&[1, 2], &[]).len(), 2);
    }
}
