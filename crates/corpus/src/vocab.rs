//! String interning for words and facet values.
//!
//! A [`Vocabulary`] maps strings to dense [`WordId`]s (or [`FacetId`]s via
//! [`FacetVocabulary`]) and back. Interning happens once at corpus build
//! time; afterwards every layer of the system works purely with `u32` IDs.

use crate::hash::FxHashMap;
use crate::ids::{FacetId, WordId};

/// An interned, append-only string table with O(1) lookup in both directions.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    terms: Vec<String>,
    lookup: FxHashMap<String, u32>,
}

impl Vocabulary {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty vocabulary sized for `cap` terms.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            terms: Vec::with_capacity(cap),
            lookup: crate::hash::fx_map_with_capacity(cap),
        }
    }

    /// Interns `term`, returning its id (existing or newly assigned).
    pub fn intern(&mut self, term: &str) -> WordId {
        if let Some(&id) = self.lookup.get(term) {
            return WordId(id);
        }
        let id = self.terms.len() as u32;
        self.terms.push(term.to_owned());
        self.lookup.insert(term.to_owned(), id);
        WordId(id)
    }

    /// Looks up an already-interned term.
    pub fn get(&self, term: &str) -> Option<WordId> {
        self.lookup.get(term).copied().map(WordId)
    }

    /// Returns the string for `id`, if in range.
    pub fn term(&self, id: WordId) -> Option<&str> {
        self.terms.get(id.index()).map(String::as_str)
    }

    /// Returns the string for `id`, panicking if out of range.
    ///
    /// Use when the id provably came from this vocabulary.
    pub fn term_unchecked(&self, id: WordId) -> &str {
        &self.terms[id.index()]
    }

    /// Number of distinct interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates `(WordId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (WordId, &str)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (WordId(i as u32), t.as_str()))
    }

    /// Rebuilds the reverse lookup table. Needed after deserialization
    /// because the lookup map is not serialized (it is derivable).
    pub fn rebuild_lookup(&mut self) {
        self.lookup = crate::hash::fx_map_with_capacity(self.terms.len());
        for (i, t) in self.terms.iter().enumerate() {
            self.lookup.insert(t.clone(), i as u32);
        }
    }
}

/// Interned table of metadata facet values such as `venue:sigmod`.
///
/// Facet values are conventionally written `key:value`; the vocabulary does
/// not enforce the convention but [`FacetVocabulary::intern_kv`] builds it.
#[derive(Debug, Default, Clone)]
pub struct FacetVocabulary {
    inner: Vocabulary,
}

impl FacetVocabulary {
    /// Creates an empty facet vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns a raw facet string (already in `key:value` form).
    pub fn intern(&mut self, facet: &str) -> FacetId {
        FacetId(self.inner.intern(facet).raw())
    }

    /// Interns a facet from its key and value parts.
    pub fn intern_kv(&mut self, key: &str, value: &str) -> FacetId {
        let mut s = String::with_capacity(key.len() + 1 + value.len());
        s.push_str(key);
        s.push(':');
        s.push_str(value);
        self.intern(&s)
    }

    /// Looks up an existing facet value.
    pub fn get(&self, facet: &str) -> Option<FacetId> {
        self.inner.get(facet).map(|w| FacetId(w.raw()))
    }

    /// Returns the string form of `id`.
    pub fn value(&self, id: FacetId) -> Option<&str> {
        self.inner.term(WordId(id.raw()))
    }

    /// Number of distinct facet values.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether no facet values have been interned.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Iterates `(FacetId, &str)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (FacetId, &str)> {
        self.inner.iter().map(|(w, s)| (FacetId(w.raw()), s))
    }

    /// Rebuilds the reverse lookup after deserialization.
    pub fn rebuild_lookup(&mut self) {
        self.inner.rebuild_lookup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("trade");
        let b = v.intern("trade");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn ids_are_dense_and_ordered_by_first_appearance() {
        let mut v = Vocabulary::new();
        assert_eq!(v.intern("a"), WordId(0));
        assert_eq!(v.intern("b"), WordId(1));
        assert_eq!(v.intern("a"), WordId(0));
        assert_eq!(v.intern("c"), WordId(2));
    }

    #[test]
    fn bidirectional_lookup() {
        let mut v = Vocabulary::new();
        let id = v.intern("reserves");
        assert_eq!(v.get("reserves"), Some(id));
        assert_eq!(v.term(id), Some("reserves"));
        assert_eq!(v.term_unchecked(id), "reserves");
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.term(WordId(99)), None);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut v = Vocabulary::new();
        v.intern("x");
        v.intern("y");
        let pairs: Vec<_> = v.iter().collect();
        assert_eq!(pairs, vec![(WordId(0), "x"), (WordId(1), "y")]);
    }

    #[test]
    fn rebuild_lookup_restores_get() {
        let mut v = Vocabulary::new();
        v.intern("alpha");
        v.intern("beta");
        // Simulate a post-deserialization state with an empty lookup.
        let mut restored = Vocabulary {
            terms: v.terms.clone(),
            lookup: Default::default(),
        };
        assert_eq!(restored.get("alpha"), None);
        restored.rebuild_lookup();
        assert_eq!(restored.get("alpha"), Some(WordId(0)));
        assert_eq!(restored.get("beta"), Some(WordId(1)));
    }

    #[test]
    fn facet_kv_interning() {
        let mut f = FacetVocabulary::new();
        let id = f.intern_kv("venue", "sigmod");
        assert_eq!(f.value(id), Some("venue:sigmod"));
        assert_eq!(f.get("venue:sigmod"), Some(id));
        assert_eq!(f.intern("venue:sigmod"), id);
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
    }

    #[test]
    fn with_capacity_preallocates() {
        let v = Vocabulary::with_capacity(100);
        assert!(v.terms.capacity() >= 100);
        assert!(v.is_empty());
    }
}
