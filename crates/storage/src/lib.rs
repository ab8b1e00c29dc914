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
//! * [`files`] — the serialized index layouts: the fixed-width phrase list
//!   (50-byte entries, paper §4.2.1 and Figure 1) and the per-word scored
//!   list file (12-byte `[phrase_id, prob]` entries, §4.2.2);
//! * [`disklists`] — score-ordered list cursors that pull entries through
//!   the buffer pool, implementing `ipm_index::cursor::ScoredListCursor` so
//!   the NRA algorithm runs unchanged over memory or "disk";
//! * [`persist`] — writing/reading the serialized images to real files
//!   (magic + header + CRC-32, fully validated on load) so the offline
//!   build runs once and query processes cold-start from disk;
//! * [`checksum`] — the CRC-32 used by [`persist`];
//! * [`sharded`] — [`sharded::ShardedDiskImage`]: one serialized list
//!   region per phrase-id shard, one pool per shard (deterministic
//!   per-shard accounting under parallel execution), one shared phrase
//!   file;
//! * [`cache`] — the workspace's one sharded LRU
//!   ([`cache::ShardedLruCache`]): the engine's result cache and
//!   [`blockcache`]'s decoded-block cache are its two instantiations;
//! * [`blockimage`] — [`blockimage::BlockImage`]: the block-compressed
//!   lists behind a pool of their own, charging per-*block* fetches so
//!   skipped blocks cost no simulated IO (plus its sharded counterpart
//!   [`blockimage::ShardedBlockImage`]).

pub mod blockcache;
pub mod blockimage;
pub mod cache;
pub mod checksum;
pub mod cost;
pub mod disklists;
pub mod files;
pub mod persist;
pub mod pool;
pub mod sharded;

pub use blockcache::{CachedBlockImage, DecodeStats, DecodedBlockCache};
pub use blockimage::{BlockImage, ShardedBlockImage};
pub use cost::{CostModel, IoStats};
pub use disklists::DiskLists;
pub use files::{PhraseListFile, WordListFile};
pub use persist::PersistError;
pub use pool::{BufferPool, PoolConfig};
pub use sharded::ShardedDiskImage;
