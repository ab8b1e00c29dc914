//! The paper's contribution: phrase scoring under conditional query-word
//! independence, and the NRA/SMJ/TA/exact top-k algorithms over
//! word-specific lists — each written once against the
//! `ipm_index::backend::ListBackend` abstraction, so the same code serves
//! from the in-memory lists and from the simulated disk
//! (`ipm_storage::PagedImage`) with IO accounting.
//!
//! Layout:
//!
//! * [`query`] — the query model `Q = [{q1..qr}, O]` (paper §3);
//! * [`scoring`] — per-entry score transforms and aggregation for AND
//!   (sum of logs, Eq. 8) and OR (sum of probabilities, Eq. 12), plus the
//!   full inclusion–exclusion form (Eq. 11) used by the ablation bench;
//! * [`result`] — result types with score bounds;
//! * [`nra`] — Algorithm 1: No-Random-Access-style scoring over
//!   score-ordered cursors with candidate bounds, batch pruning, the
//!   `checknew` gate and early stopping;
//! * [`smj`] — Algorithm 2: sort-merge-join scoring over phrase-ID-ordered
//!   cursors;
//! * [`ta`] — the threshold algorithm: sorted access plus random probes
//!   through the backend's probe path (on disk, every binary-search step
//!   is charged — the measurable cost of random access the paper's §5.5
//!   analysis warns about);
//! * [`exact`] — the exact top-k scorer (ground truth for the quality
//!   experiments; paper Eq. 1/3);
//! * [`delta`] — the incremental-operation side index of §4.5.1;
//! * [`redundancy`] — the §5.6 post-retrieval filter dropping results with
//!   high lexical overlap with the query;
//! * [`measures`] — the §7 future-work answer: PMI (rank-equivalent to
//!   Eq. 1 per query) and NPMI (reranks; approximated by over-fetch +
//!   rescore);
//! * [`budget`] — per-request execution budgets (deadline, simulated-IO
//!   cap, deterministic step cap) with cooperative checks
//!   in every algorithm loop, and the [`budget::Completeness`] label that
//!   surfaces the paper's exact-vs-partial distinction to callers;
//! * [`request`] — the [`request::SearchRequest`] builder:
//!   `engine.request("...").k(10).deadline(d).io_budget(n).run()`;
//! * [`cache`] — a sharded LRU result cache keyed by the full request, so
//!   repeated interactive queries skip list traversal entirely;
//! * [`miner`] — the high-level [`miner::PhraseMiner`] facade tying corpus,
//!   indexes and algorithms together;
//! * [`plan`] — the planner/executor split behind the engine:
//!   [`plan::QueryPlan`] resolves algorithm/backend/shard-fanout, and the
//!   executor fans a query across disjoint phrase-id shards on scoped
//!   threads, merging per-shard top-k under a deterministic total order
//!   (exact on the full-list path — scores factorize per phrase);
//! * [`engine`] — a cloneable, thread-safe [`engine::QueryEngine`] serving
//!   concurrent string queries over one immutable index, with per-request
//!   algorithm, backend *and* shard-fanout choice, per-query `IoStats` on
//!   the disk backend, and cache hit/miss counters next to
//!   `queries_served`. The engine also carries the query path's
//!   observability surface (`ipm_obs`): a metrics registry rendered as
//!   Prometheus text ([`engine::QueryEngine::render_metrics`]), per-query
//!   structured traces (`SearchOptions::trace` →
//!   [`engine::SearchResponse::trace`]), and an optional slow-query ring
//!   ([`engine::EngineConfig::slow_query`]).

pub mod budget;
pub mod cache;
pub mod delta;
pub mod engine;
pub mod exact;
mod fused;
pub mod measures;
pub mod miner;
pub mod nra;
pub mod parse;
pub mod plan;
pub mod query;
pub mod redundancy;
pub mod request;
pub mod result;
pub mod scoring;
pub mod smj;
pub mod ta;

pub use budget::{ApproxReason, Budget, BudgetKind, Completeness, SearchError, ShardBudget};
pub use cache::{CacheConfig, CacheStats};
pub use delta::{DeltaIndex, DeltaOverlay};
pub use engine::{
    AccessTotals, Algorithm, BackendChoice, BatchItem, CacheKey, CompactionReport, EngineConfig,
    LifecycleStats, QueryEngine, SearchHit, SearchOptions, SearchResponse, ShardExecParams,
};
pub use ipm_obs::{
    HistogramSnapshot, QueryTrace, Registry, ShardStats, SlowQueryConfig, SlowQueryLog, StageKind,
    StageRecord,
};
pub use miner::{MinerConfig, PhraseMiner};
pub use nra::{NraConfig, NraOutcome, TraversalStats};
pub use parse::parse_query;
pub use plan::{
    BatchGroup, BatchPlan, ExecStats, QueryPlan, ShardError, ShardExecutor, ShardOutcome,
    MAX_SHARDS,
};
pub use query::{Operator, Query};
pub use redundancy::RedundancyConfig;
pub use request::SearchRequest;
pub use result::PhraseHit;
pub use ta::{run_ta, run_ta_backend, TaOutcome};
