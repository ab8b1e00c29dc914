//! The query result cache.
//!
//! The paper's closing claim is interactive serving; interactive workloads
//! repeat queries (navigation, refinement, dashboards). The
//! [`crate::engine::QueryEngine`] keys its cache by the full request
//! ([`crate::engine::CacheKey`]) so a repeated request skips list
//! traversal entirely.
//!
//! The sharded LRU itself lives in [`ipm_storage::cache`], where the
//! decoded-block cache instantiates the same implementation; this module
//! re-exports it under the path the engine's users know.

pub use ipm_storage::cache::{CacheConfig, CacheStats, ShardedLruCache};
