//! A shared, thread-safe query front-end over pluggable list backends.
//!
//! The paper's closing claim is that list-based scoring makes interesting-
//! phrase mining "a feasible task for search-like interactive systems".
//! Such a system serves many concurrent queries over one immutable index.
//! [`QueryEngine`] packages a built [`PhraseMiner`] behind an [`Arc`] with:
//!
//! * a string-query API and per-query algorithm choice (all four: NRA,
//!   SMJ, TA, exact);
//! * per-query **backend** choice ([`BackendChoice`]): the in-memory lists
//!   or a simulated-disk image (`ipm_storage::PagedImage`), which is
//!   built lazily on first use and reports per-query [`IoStats`];
//! * a sharded LRU **result cache** keyed by `(query, k, options)`
//!   ([`crate::cache`]), so repeated interactive queries skip list
//!   traversal entirely — hit/miss counters sit next to
//!   [`QueryEngine::queries_served`];
//! * optional §5.6 redundancy filtering, composed with every algorithm,
//!   backend and NRA fraction;
//! * **partitioned intra-query execution**: requests are resolved by a
//!   planner ([`crate::plan::QueryPlan`]) into an algorithm, a backend and
//!   a shard fanout; the executor runs the algorithm per phrase-id shard
//!   on scoped threads and merges the local top-k under the deterministic
//!   result order (see [`crate::plan`] for why the merge is exact).
//!   Sharded index layouts (memory and disk) are built lazily per fanout
//!   and cached.
//!
//! Each index *generation* is immutable after build, so clones of the
//! engine can be handed to any number of threads; mutation happens through
//! the §4.5.1 **lifecycle** instead (`ingest_document` / `delete_document`
//! → per-query [`crate::delta::DeltaOverlay`] corrections →
//! [`QueryEngine::compact`], which rebuilds offline and atomically swaps
//! the serving generation). Every mutation bumps a monotonic **epoch**
//! that tags [`CacheKey`]s, so cached results age out by key mismatch
//! instead of wholesale cache clears. Disk- and block-backed requests run
//! concurrently: each one leases cold views of the simulated images, so
//! it gets the paper's per-query cold pool (§5.5) and its own IO bill —
//! one pool per shard, shards of a single query in parallel.
//!
//! The module is split along its seams:
//!
//! * this file — the request/response types, the engine handle, its
//!   constructor and plain accessors;
//! * `live` — the serving head (`LiveState`), index generations and their
//!   lazily built layouts, ingest / delete / compact;
//! * `exec` — the one execution spine every entry point runs through:
//!   prologue → cache probe → list lease → run → epilogue;
//! * `batch` — batch planning glue and the fused shared scan;
//! * `obs` — the metrics registry handles and their accessors.

mod batch;
mod exec;
mod live;
mod obs;
#[cfg(test)]
mod tests;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use crate::budget::{Budget, Completeness};
use crate::cache::{CacheConfig, CacheStats, ShardedLruCache};
use crate::miner::PhraseMiner;
use crate::query::{Operator, Query};
use crate::redundancy::RedundancyConfig;
use crate::result::PhraseHit;
use ipm_obs::{QueryTrace, SlowQueryConfig};
use ipm_storage::{CostModel, DecodedBlockCache, IoStats, PoolConfig};

use live::{IndexState, LiveState};
use obs::EngineObs;

pub use live::{CompactionReport, LifecycleStats};
pub use obs::AccessTotals;

/// Which retrieval algorithm serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// NRA over score-ordered lists (paper Alg. 1) — the default.
    #[default]
    Nra,
    /// Sort-merge join over ID-ordered lists (paper Alg. 2).
    Smj,
    /// The threshold algorithm with random probes into the ID-ordered
    /// lists.
    Ta,
    /// The exact scorer (ground truth; linear in `|D'|`).
    Exact,
}

impl Algorithm {
    /// The wire / metrics-label name.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Nra => "nra",
            Algorithm::Smj => "smj",
            Algorithm::Ta => "ta",
            Algorithm::Exact => "exact",
        }
    }
}

/// Which list backend serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendChoice {
    /// The in-memory word lists — the default.
    #[default]
    Memory,
    /// The flat simulated-disk image (`ipm_storage::PagedImage` of
    /// `FlatLists`): 12-byte entries behind a buffer pool, charging every
    /// entry a cursor passes over; the response carries the query's
    /// [`IoStats`].
    Disk,
    /// The block-compressed simulated-disk image (`ipm_storage::PagedImage`
    /// of `BlockLists`): bit-packed 128-entry blocks with skip metadata
    /// behind a buffer pool, charging per-*block* fetches — skipped
    /// blocks cost no IO. The response carries the query's
    /// [`IoStats`]; scores are bit-identical to the memory backend
    /// (integer-rational dequantization).
    Block,
}

impl BackendChoice {
    /// The wire / metrics-label name.
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Memory => "memory",
            BackendChoice::Disk => "disk",
            BackendChoice::Block => "block",
        }
    }
}

/// Per-request options.
#[derive(Debug, Clone, Default)]
pub struct SearchOptions {
    /// Retrieval algorithm.
    pub algorithm: Algorithm,
    /// List backend.
    pub backend: BackendChoice,
    /// Fraction of each score-ordered list NRA may read (`1.0` = full;
    /// ignored by the other algorithms). Composes with `redundancy`.
    pub nra_fraction: Option<f64>,
    /// Optional §5.6 redundancy filter applied post-retrieval (the engine
    /// over-fetches until `k` survivors are found or candidates run out).
    pub redundancy: Option<RedundancyConfig>,
    /// Apply the engine's attached §4.5.1 [`crate::delta::DeltaIndex`]
    /// corrections — honoured uniformly by **all four algorithms over both backends and
    /// every shard fanout**, via a [`crate::delta::DeltaOverlay`] wrapped
    /// around each shard backend (the exact scorer uses its delta-aware
    /// arm instead). Per the paper, corrections keep SMJ exact, and this
    /// engine extends that to TA (which surrenders its threshold stop —
    /// the stale order cannot justify it) and the exact scorer, while NRA
    /// stays `Approximate { delta_corrections }`: its pruning bounds were
    /// computed from the stale list order. A no-op when no delta is
    /// attached.
    pub use_delta: bool,
    /// Intra-query shard fanout: run this request over that many disjoint
    /// phrase-id partitions in parallel and merge the per-shard top-k
    /// (exact on the default full-list path; see [`crate::plan`]). `None`
    /// uses the engine's configured default ([`EngineConfig::shards`]);
    /// the planner clamps to [`crate::plan::MAX_SHARDS`].
    pub shards: Option<usize>,
    /// Collect a structured [`QueryTrace`] for this request and return it
    /// in [`SearchResponse::trace`]. Tracing never changes results — the
    /// cache key deliberately excludes this flag, so a traced request
    /// shares cached entries with untraced ones (and a traced cache hit
    /// reports just the probe stages).
    pub trace: bool,
}

/// Engine construction options.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Result-cache sizing; `None` disables caching.
    pub cache: Option<CacheConfig>,
    /// Default intra-query shard fanout for requests that leave
    /// [`SearchOptions::shards`] unset. `1` (the default) executes
    /// unsharded on the calling thread; `N > 1` splits every list by
    /// phrase-id range into `N` partitions served on `N` scoped threads,
    /// turning per-query latency into a function of core count.
    pub shards: usize,
    /// Buffer-pool geometry of the lazily built disk image(s) — page
    /// size, capacity, lookahead (the paper's §5.5 defaults). Smaller
    /// pages make per-query fetch counts finer-grained, which tightens
    /// what an [`crate::budget::Budget`] IO cap can enforce.
    pub pool: PoolConfig,
    /// Simulated per-fetch costs of the disk image(s) (§5.5 defaults:
    /// 1 ms sequential, 10 ms random).
    pub cost: CostModel,
    /// Keep a ring buffer of traces for queries at or above a wall-time
    /// threshold ([`QueryEngine::slow_queries`]). `None` (the default)
    /// disables the log — and with it the internal tracing it forces on
    /// otherwise-untraced queries.
    pub slow_query: Option<SlowQueryConfig>,
    /// Capacity (in 128-entry blocks) of the decoded-block cache the
    /// **batch** executor shares across block-backed batch members, so
    /// queries that walk the same word lists decode each block once
    /// ([`QueryEngine::execute_batch`]). Entries are keyed by index epoch
    /// — a generation swap invalidates them for free, like the result
    /// cache. `0` disables the cache; single-query execution never uses
    /// it (per-query §5.5 decode accounting stays untouched either way —
    /// the cache sits behind the buffer-pool charge, so IO numbers are
    /// identical; only decode CPU is saved).
    pub decode_cache_blocks: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            cache: Some(CacheConfig::default()),
            shards: 1,
            pool: PoolConfig::default(),
            cost: CostModel::default(),
            slow_query: None,
            decode_cache_blocks: 4096,
        }
    }
}

/// One resolved result row.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// The raw hit (phrase id, score, bounds).
    pub hit: PhraseHit,
    /// The phrase rendered as text.
    pub text: String,
    /// The score mapped back to an interestingness estimate in `[0, 1]`.
    pub interestingness: f64,
}

/// A served response.
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// The parsed query that was executed.
    pub query: Query,
    /// Resolved hits, best first.
    pub hits: Vec<SearchHit>,
    /// Wall-clock service time.
    pub elapsed: Duration,
    /// Simulated IO performed by *this* request (disk backend only;
    /// `None` on the memory backend and on cache hits, which perform no
    /// list IO at all). For a sharded disk run this is the aggregate over
    /// all shard pools.
    pub io: Option<IoStats>,
    /// Whether the result came from the query cache.
    pub served_from_cache: bool,
    /// The shard fanout the planner resolved for this request (`1` =
    /// unsharded execution).
    pub shards: usize,
    /// How complete the result is: the exact top-k, an inherently
    /// approximate configuration (partial lists, truncated image, delta
    /// corrections — paper §4.3/§4.4), or a budget-truncated anytime
    /// result. Budget-truncated responses are never cached; cache hits
    /// report the completeness of the exact/approximate entry they serve.
    pub completeness: Completeness,
    /// The structured trace, when [`SearchOptions::trace`] asked for one
    /// (boxed: untraced responses pay one machine word).
    pub trace: Option<Box<QueryTrace>>,
}

/// One `shard_exec` call's execution parameters — what the wire-v5 verb
/// carries beyond the query itself. The coordinator (the in-process
/// fan-out or a remote router) owns fetch depth, seeded floor and batch
/// scaling; the shard just executes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardExecParams {
    /// Fetch depth (the coordinator's over-fetch for this round).
    pub fetch: usize,
    /// Total shard fanout the coordinator is scattering over.
    pub fanout: usize,
    /// This shard's index in `[0, fanout)`.
    pub shard: usize,
    /// Seeded NRA defence line (`-∞` when inactive).
    pub floor: f64,
    /// Fanout-scaled NRA prune batch (`None` keeps the configured batch).
    pub batch_size: Option<usize>,
}

/// One member of a [`QueryEngine::execute_batch`] call: the same request
/// surface as [`QueryEngine::execute_with_budget`], with a per-item
/// budget (use [`Budget::none`] for unbudgeted items).
#[derive(Debug)]
pub struct BatchItem<'a> {
    /// The parsed query.
    pub query: Query,
    /// Result size.
    pub k: usize,
    /// Per-item options (algorithm, backend, fanout, ...).
    pub options: SearchOptions,
    /// Per-item execution budget; trips truncate this item only.
    pub budget: &'a Budget,
}

/// A cloneable, thread-safe handle to an immutable phrase-mining index.
#[derive(Debug, Clone)]
pub struct QueryEngine {
    inner: Arc<Inner>,
}

/// The cache key: every request field that can change the result. Public
/// so request coalescers (e.g. `ipm_server`'s single-flight layer) can key
/// their in-flight maps identically to the result cache — two requests
/// with equal keys are guaranteed to produce equal responses.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Encoded features, sorted — feature order never changes results, so
    /// `a AND b` and `b AND a` share an entry.
    features: Vec<u64>,
    op: Operator,
    k: usize,
    algorithm: Algorithm,
    backend: BackendChoice,
    /// `nra_fraction` bit pattern (`1.0` when unset).
    fraction_bits: u64,
    /// `redundancy.max_overlap` bit pattern, when set.
    redundancy_bits: Option<u64>,
    /// Whether delta corrections were requested. Together with `epoch`
    /// this fully determines the delta-corrected result: every delta
    /// mutation bumps the engine's epoch, so entries computed against an
    /// older corpus state simply stop matching.
    use_delta: bool,
    /// The engine's index **epoch** at key-build time — a monotonic
    /// counter bumped by every observable index mutation (ingest, delete,
    /// delta attach/update/detach that changes state, compaction).
    /// Epoch-tagging replaces wholesale `cache.clear()` on mutation:
    /// stale-epoch entries miss naturally and age out of the LRU, while
    /// read-heavy workloads keep their warm entries untouched across
    /// unrelated mutations of *other* engines and across no-op updates.
    epoch: u64,
    /// The planner-resolved shard fanout (request override or engine
    /// default, clamped). Approximate paths (partial fractions, truncated
    /// images, delta corrections) can legitimately return different
    /// results under different shard layouts, so cached entries must
    /// never be shared across fanouts — but requests that *resolve* to
    /// the same fanout (e.g. `None` vs an explicit default) share one
    /// entry.
    shards: usize,
}

impl CacheKey {
    /// Builds the key for one request. `resolved_shards` is the fanout
    /// the planner resolved for it ([`crate::plan::QueryPlan::resolve`] —
    /// resolve
    /// once, key once), so requests that resolve identically share one
    /// entry; `epoch` is the engine's index epoch
    /// ([`QueryEngine::epoch`]) the request executes against.
    pub fn new(
        query: &Query,
        k: usize,
        options: &SearchOptions,
        resolved_shards: usize,
        epoch: u64,
    ) -> Self {
        let mut features: Vec<u64> = query.features.iter().map(|f| f.encode()).collect();
        features.sort_unstable();
        Self {
            features,
            op: query.op,
            k,
            algorithm: options.algorithm,
            backend: options.backend,
            fraction_bits: options.nra_fraction.unwrap_or(1.0).to_bits(),
            redundancy_bits: options.redundancy.as_ref().map(|r| r.max_overlap.to_bits()),
            use_delta: options.use_delta,
            shards: resolved_shards,
            epoch,
        }
    }
}

/// The result cache: resolved hit rows under their full request key.
type ResultCache = ShardedLruCache<CacheKey, Arc<Vec<SearchHit>>>;

#[derive(Debug)]
struct Inner {
    /// The serving head. Queries take a brief read lock to snapshot it;
    /// mutators write-lock only for the O(1) swap/bump itself.
    live: RwLock<LiveState>,
    /// Serializes the *mutators* (ingest, delete, delta attach/detach,
    /// compaction) without ever blocking queries: compaction holds this
    /// across its whole offline rebuild so the delta it flushes cannot
    /// grow underneath it, while the read path keeps serving the old
    /// generation until the swap.
    maintenance: Mutex<()>,
    /// Buffer-pool geometry / cost model every disk image is built with.
    pool: PoolConfig,
    cost: CostModel,
    cache: Option<ResultCache>,
    /// Decoded-block cache shared by block-backed **batch** executions
    /// (`None` when [`EngineConfig::decode_cache_blocks`] is `0`).
    /// Entries are keyed by `(epoch, image, offset)`, so generation swaps
    /// invalidate them exactly like the result cache.
    decode_cache: Option<DecodedBlockCache>,
    /// Default shard fanout for requests that don't specify one.
    default_shards: usize,
    /// Uncached executions that fanned out to more than one shard.
    sharded_queries: AtomicU64,
    served: AtomicU64,
    /// Lifecycle counters (see [`LifecycleStats`]).
    ingested: AtomicU64,
    deleted: AtomicU64,
    compactions: AtomicU64,
    /// Simulated IO accumulated across every disk- and block-backed
    /// lease and fused block scan (cache hits add nothing — they perform
    /// no list IO).
    io_totals: Mutex<IoStats>,
    /// Metrics registry, pre-registered handles and the slow-query ring.
    obs: EngineObs,
}

// Every index generation is immutable after build and the mutable head is
// swapped atomically; a compile-time check that the engine really is
// shareable keeps that invariant honest.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryEngine>();
};

impl QueryEngine {
    /// Wraps a built miner with the default configuration (full-fraction
    /// lazy disk image, default-sized cache).
    pub fn new(miner: PhraseMiner) -> Self {
        Self::with_config(miner, EngineConfig::default())
    }

    /// Wraps a built miner with explicit engine options.
    pub fn with_config(miner: PhraseMiner, config: EngineConfig) -> Self {
        Self {
            inner: Arc::new(Inner {
                live: RwLock::new(LiveState {
                    epoch: 0,
                    index: Arc::new(IndexState::new(Arc::new(miner))),
                    delta: None,
                }),
                maintenance: Mutex::new(()),
                pool: config.pool,
                cost: config.cost,
                cache: config.cache.map(ShardedLruCache::new),
                decode_cache: (config.decode_cache_blocks > 0)
                    .then(|| DecodedBlockCache::new(config.decode_cache_blocks)),
                default_shards: config.shards.max(1),
                sharded_queries: AtomicU64::new(0),
                served: AtomicU64::new(0),
                ingested: AtomicU64::new(0),
                deleted: AtomicU64::new(0),
                compactions: AtomicU64::new(0),
                io_totals: Mutex::new(IoStats::default()),
                obs: EngineObs::new(config.slow_query),
            }),
        }
    }

    /// Queries served across all clones of this engine (cache hits
    /// included).
    pub fn queries_served(&self) -> u64 {
        // lint-allow: relaxed-ordering — monotonic query counter, read only for exposition
        self.inner.served.load(Ordering::Relaxed)
    }

    /// The configured default shard fanout ([`EngineConfig::shards`]).
    pub fn default_shards(&self) -> usize {
        self.inner.default_shards
    }

    /// Uncached executions that fanned out across more than one shard
    /// (cache hits are not counted — they run nothing).
    pub fn sharded_queries(&self) -> u64 {
        // lint-allow: relaxed-ordering — monotonic query counter, read only for exposition
        self.inner.sharded_queries.load(Ordering::Relaxed)
    }

    /// Result-cache hit/miss counters (all zero when the cache is
    /// disabled).
    pub fn cache_stats(&self) -> CacheStats {
        self.inner
            .cache
            .as_ref()
            .map(ShardedLruCache::stats)
            .unwrap_or_default()
    }

    /// Drops every cached result (counters keep accumulating).
    pub fn clear_cache(&self) {
        if let Some(cache) = &self.inner.cache {
            // lint-allow: cache-clear — the admin escape hatch is the one sanctioned wholesale clear; serving invalidates by epoch key
            cache.clear();
        }
    }

    /// Simulated IO accumulated by every clone of this engine across all
    /// disk- *and* block-backed queries, `shard_exec` calls and fused
    /// block batch scans (cache hits contribute nothing). The server's
    /// stats verb serves it as `io.disk`, which therefore covers the
    /// block backend too.
    pub fn io_totals(&self) -> IoStats {
        *self.inner.io_totals.lock().unwrap()
    }
}
