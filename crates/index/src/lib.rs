//! Phrase mining and index structures for interesting-phrase mining.
//!
//! This crate builds everything the EDBT 2014 paper's query-time algorithms
//! consume:
//!
//! * [`postings`] — sorted document-id lists with merge/galloping set algebra;
//! * [`phrase`] — the global phrase dictionary `P` (paper Table 2);
//! * [`mining`] — Apriori level-wise n-gram mining with a document-frequency
//!   threshold (paper §1: "word n-grams of up to 6 words which occur in more
//!   than a pre-specified number (usually, 5 or 10) of documents");
//! * [`inverted`] — feature → postings (keywords and metadata facets) and
//!   phrase → postings indexes;
//! * [`forward`] — per-document phrase lists, the index family used by the
//!   baselines of Bedathur et al. and Gao & Michel (paper Table 3);
//! * [`occurrence`] — per-document `(phrase, occurrence-count)` lists for
//!   the occurrence-count reading of Eq. 1's `freq` (the ablation of
//!   the document-frequency choice);
//! * [`corpus_index`] — one-stop construction of all of the above;
//! * [`wordlists`] — the paper's contribution-side index: per-feature lists
//!   of `[phrase_id, P(q|p)]` pairs, score-ordered (for NRA, §4.2.2) or
//!   phrase-ID-ordered (for SMJ, §4.4.1), with partial-list truncation;
//! * [`cursor`] — forward cursors over both list orders;
//! * [`backend`] — the [`backend::ListBackend`] trait unifying score
//!   cursors, id cursors and random probes, so `ipm-core`'s algorithms run
//!   unchanged over memory ([`backend::MemoryBackend`]) or the simulated
//!   disk (`ipm_storage::PagedImage`);
//! * [`sharding`] — [`sharding::ShardedWordLists`]: disjoint
//!   phrase-id-range partitions of both list orders, each shard a complete
//!   backend of its own, whose local top-k merge into the exact global
//!   top-k (scores factorize per phrase);
//! * [`block`] — [`block::BlockLists`], the block-compressed third backend:
//!   bit-packed ids, integer-rational scores dequantized bit-identically,
//!   and per-block skip metadata feeding the cursor capability hooks.

pub mod backend;
pub mod block;
pub mod corpus_index;
pub mod cursor;
pub mod forward;
pub mod inverted;
pub mod mining;
pub mod occurrence;
pub mod phrase;
pub mod postings;
pub mod sharding;
pub mod wordlists;

pub use backend::{ListBackend, MemoryBackend};
pub use block::{BlockLists, BLOCK_SIZE};
pub use corpus_index::{CorpusIndex, IndexConfig};
pub use cursor::{IdListCursor, MemoryCursor, MemoryIdCursor, ScoredListCursor};
pub use mining::{mine_phrases, MiningConfig};
pub use phrase::PhraseDictionary;
pub use postings::Postings;
pub use sharding::{ListShard, ShardedWordLists};
pub use wordlists::{IdOrderedLists, ListEntry, WordPhraseLists};
