//! Compact integer identifiers used across the whole workspace.
//!
//! All identifiers are `u32` newtypes: corpora in scope for this system stay
//! well below 2^32 documents/words/phrases, and 4-byte IDs halve the memory
//! traffic of postings and candidate structures compared to `usize` (see the
//! "Type Sizes" guidance in the Rust perf book).

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:literal) => {
        $(#[$meta])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub u32);

        impl $name {
            /// Constructs an identifier from a raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw `u32` value.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the identifier as a `usize` index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            #[inline]
            fn from(id: $name) -> u32 {
                id.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a document within a [`crate::Corpus`].
    ///
    /// Document IDs are dense: the `i`-th document added to a corpus has id
    /// `DocId(i)`, so postings lists can be intersected by merge and mapped
    /// to array offsets without indirection.
    DocId,
    "d"
);

id_type!(
    /// Identifier of a word in a [`crate::Vocabulary`].
    WordId,
    "w"
);

id_type!(
    /// Identifier of a phrase in the global phrase dictionary `P`.
    ///
    /// Phrase IDs are assigned by the phrase miner (crate `ipm-index`) in the
    /// order phrases are admitted to the dictionary; the paper's disk layout
    /// (its Figure 1) derives a phrase's byte offset from this ID.
    PhraseId,
    "p"
);

id_type!(
    /// Identifier of a metadata facet value, e.g. the interned form of
    /// `venue:sigmod` or `year:1997` (paper §1, Table 1).
    FacetId,
    "f"
);

/// A query feature: either a keyword or a metadata facet (paper Table 1).
///
/// The paper treats both uniformly — "we use *word* to generically refer to
/// any word or metadata facet that could appear in the query" (§4.2.2) — but
/// they live in different namespaces, so the distinction is kept explicit in
/// the type system and erased only inside the feature-keyed indexes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Feature {
    /// A keyword feature selecting `docs(D, w)`.
    Word(WordId),
    /// A metadata facet feature selecting the documents carrying the facet.
    Facet(FacetId),
}

impl Feature {
    /// Returns the word id if this feature is a keyword.
    #[inline]
    pub fn as_word(self) -> Option<WordId> {
        match self {
            Feature::Word(w) => Some(w),
            Feature::Facet(_) => None,
        }
    }

    /// Returns the facet id if this feature is a metadata facet.
    #[inline]
    pub fn as_facet(self) -> Option<FacetId> {
        match self {
            Feature::Word(_) => None,
            Feature::Facet(f) => Some(f),
        }
    }

    /// A dense encoding used as a map key: words map to even numbers and
    /// facets to odd ones, so both namespaces fit one `u64` key space.
    #[inline]
    pub fn encode(self) -> u64 {
        match self {
            Feature::Word(w) => (w.raw() as u64) << 1,
            Feature::Facet(f) => ((f.raw() as u64) << 1) | 1,
        }
    }

    /// Inverse of [`Feature::encode`].
    #[inline]
    pub fn decode(code: u64) -> Self {
        let raw = (code >> 1) as u32;
        if code & 1 == 0 {
            Feature::Word(WordId(raw))
        } else {
            Feature::Facet(FacetId(raw))
        }
    }
}

impl From<WordId> for Feature {
    #[inline]
    fn from(w: WordId) -> Self {
        Feature::Word(w)
    }
}

impl From<FacetId> for Feature {
    #[inline]
    fn from(f: FacetId) -> Self {
        Feature::Facet(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_roundtrip() {
        let d = DocId::new(42);
        assert_eq!(d.raw(), 42);
        assert_eq!(d.index(), 42);
        assert_eq!(u32::from(d), 42);
        assert_eq!(DocId::from(42u32), d);
    }

    #[test]
    fn id_ordering_follows_raw_value() {
        assert!(PhraseId::new(1) < PhraseId::new(2));
        assert!(WordId::new(0) < WordId::new(u32::MAX));
    }

    #[test]
    fn debug_format_is_prefixed() {
        assert_eq!(format!("{:?}", DocId::new(7)), "d7");
        assert_eq!(format!("{:?}", WordId::new(7)), "w7");
        assert_eq!(format!("{:?}", PhraseId::new(7)), "p7");
        assert_eq!(format!("{:?}", FacetId::new(7)), "f7");
    }

    #[test]
    fn display_format_is_bare() {
        assert_eq!(format!("{}", DocId::new(9)), "9");
    }

    #[test]
    fn feature_encode_decode_roundtrip() {
        for f in [
            Feature::Word(WordId(0)),
            Feature::Word(WordId(123)),
            Feature::Facet(FacetId(0)),
            Feature::Facet(FacetId(u32::MAX)),
        ] {
            assert_eq!(Feature::decode(f.encode()), f);
        }
    }

    #[test]
    fn feature_encoding_namespaces_are_disjoint() {
        let w = Feature::Word(WordId(5)).encode();
        let f = Feature::Facet(FacetId(5)).encode();
        assert_ne!(w, f);
    }

    #[test]
    fn feature_accessors() {
        let w = Feature::Word(WordId(3));
        assert_eq!(w.as_word(), Some(WordId(3)));
        assert_eq!(w.as_facet(), None);
        let f = Feature::Facet(FacetId(4));
        assert_eq!(f.as_facet(), Some(FacetId(4)));
        assert_eq!(f.as_word(), None);
    }

    #[test]
    fn feature_from_impls() {
        assert_eq!(Feature::from(WordId(1)), Feature::Word(WordId(1)));
        assert_eq!(Feature::from(FacetId(1)), Feature::Facet(FacetId(1)));
    }

    #[test]
    fn default_ids_are_zero() {
        assert_eq!(DocId::default(), DocId::new(0));
    }
}
