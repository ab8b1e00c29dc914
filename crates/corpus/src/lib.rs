//! Document/corpus substrate for interesting-phrase mining.
//!
//! This crate provides everything "below" the indexes of the EDBT 2014 paper
//! *Fast Mining of Interesting Phrases from Subsets of Text Corpora*
//! (Padmanabhan, Dey & Majumdar):
//!
//! * interned vocabularies and compact integer identifiers ([`ids`], [`vocab`]),
//! * tokenization ([`token`]),
//! * the in-memory corpus representation with metadata facets ([`doc`], [`corpus`]),
//! * loaders for plain-text and JSON-lines corpora ([`loader`]),
//! * synthetic corpus generators that statistically mimic the paper's
//!   Reuters-21578 and PubMed datasets ([`synth`]), and
//! * corpus-level statistics used for sizing and reporting ([`stats`]).
//!
//! The real Reuters/PubMed collections are not redistributable with this
//! repository; the generators in [`synth`] produce corpora with the same
//! *statistical* shape (vocabulary size, Zipfian word frequencies, topical
//! word/phrase correlation) which is what the paper's algorithms and
//! experiments actually exercise.

pub mod corpus;
pub mod doc;
pub mod hash;
pub mod ids;
pub mod loader;
pub mod stats;
pub mod synth;
pub mod token;
pub mod vocab;

pub use corpus::{Corpus, CorpusBuilder};
pub use doc::{Document, Facet};
pub use ids::{DocId, FacetId, Feature, PhraseId, WordId};
pub use stats::CorpusStats;
pub use token::{tokenize, TokenizerConfig};
pub use vocab::Vocabulary;
