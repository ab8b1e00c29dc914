//! Disk-simulation substrate for the interesting-phrase indexes.
//!
//! The paper evaluates its disk-based NRA variant with a *simulated* disk
//! (§5.5, following Deshpande et al., EDBT 2008): IO costs are computed from
//! the page-access log of an LRU buffer pool and added to the in-memory
//! compute time. This crate implements that simulator:
//!
//! * [`cost`] — the access-cost model (1 ms per sequential page fetch,
//!   10 ms per random fetch — the paper's constants) and IO statistics;
//! * [`pool`] — a 16-page LRU buffer pool over 32 KiB pages with 1-page
//!   lookahead on access (again the paper's configuration);
//! * [`paged`] — [`PagedImage`], the one simulated device both list
//!   backends serve from: a list region in one of two encodings (flat
//!   12-byte entries, [`FlatLists`]; block-compressed,
//!   [`BlockLists`](ipm_index::block::BlockLists)) and an accounted
//!   phrase region behind one pool, one image per phrase-id shard, each
//!   query on a cold view of its own;
//! * [`files`] — the serialized index layouts: the fixed-width phrase list
//!   (50-byte entries, paper §4.2.1 and Figure 1), the per-word scored
//!   list file (12-byte `[phrase_id, prob]` entries, §4.2.2) and the flat
//!   list encoding built from two such files;
//! * [`persist`] — writing/reading the serialized files to real files
//!   (magic + header + CRC-32, fully validated on load);
//! * [`checksum`] — the CRC-32 used by [`persist`];
//! * [`cache`] — the workspace's one sharded LRU
//!   ([`cache::ShardedLruCache`]): the engine's result cache and
//!   [`blockcache`]'s decoded-block cache are its two instantiations.

pub mod blockcache;
pub mod cache;
pub mod checksum;
pub mod cost;
pub mod files;
pub mod paged;
pub mod persist;
pub mod pool;

// Unit tests of `paged` by the image they exercise: the flat `disk` image,
// the `block` image alone and sharded, and a sharded `disk` layout. They
// share `paged`'s own test fixture.
#[cfg(test)]
#[path = "paged/blockimage_tests.rs"]
mod blockimage;
#[cfg(test)]
#[path = "paged/disklists_tests.rs"]
mod disklists;
#[cfg(test)]
#[path = "paged/sharded_tests.rs"]
mod sharded;

pub use blockcache::{CachedBlockImage, DecodeStats, DecodedBlockCache};
pub use cost::{CostModel, IoStats};
pub use files::{FlatLists, PhraseListFile, WordListFile};
pub use paged::PagedImage;
pub use persist::PersistError;
pub use pool::{BufferPool, PoolConfig};
