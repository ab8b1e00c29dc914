//! # interesting-phrases
//!
//! A Rust reproduction of *Fast Mining of Interesting Phrases from Subsets of
//! Text Corpora* (Padmanabhan, Dey & Majumdar, EDBT 2014).
//!
//! This umbrella crate re-exports the public API of the workspace crates:
//!
//! * [`corpus`] — documents, vocabularies, tokenization, synthetic corpus
//!   generators ([`ipm_corpus`]).
//! * [`index`] — phrase mining, inverted/forward indexes, and the paper's
//!   word-specific phrase lists ([`ipm_index`]).
//! * [`storage`] — the disk-simulation substrate: pages, LRU buffer pool,
//!   IO cost accounting ([`ipm_storage`]).
//! * [`core`] — phrase scoring under the conditional-independence
//!   assumption, the NRA, SMJ, TA and exact top-k algorithms (each generic
//!   over the [`index`] crate's `ListBackend`, so they serve from memory
//!   or the simulated disk interchangeably), the incremental delta index,
//!   the redundancy filter, alternative measures (PMI/NPMI), a
//!   query-string parser, a sharded LRU query-result cache, the
//!   planner/executor split with partitioned (phrase-id-sharded)
//!   intra-query execution, the high-level [`core::miner::PhraseMiner`]
//!   API and the thread-safe [`core::engine::QueryEngine`]
//!   ([`ipm_core`]).
//! * [`baselines`] — the exact forward-index (Bedathur et al.), GM
//!   (Gao & Michel) and Simitsis baselines ([`ipm_baselines`]).
//! * [`eval`] — IR quality metrics, query harvesting, and the experiment
//!   harness reproducing every table and figure of the paper ([`ipm_eval`]).
//! * [`server`] — the concurrent TCP serving subsystem over the engine:
//!   line-delimited JSON protocol, bounded-queue admission control,
//!   single-flight request coalescing, serving counters and graceful
//!   shutdown, plus a client and load generator ([`ipm_server`]).
//!
//! ## Quickstart
//!
//! ```
//! use interesting_phrases::prelude::*;
//!
//! // 1. Get a corpus (here: the tiny synthetic preset).
//! let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
//!
//! // 2. Build the miner (phrase dictionary, postings, word lists).
//! let miner = PhraseMiner::build(&corpus, MinerConfig::default());
//!
//! // 3. Ask for the top-5 interesting phrases of a keyword sub-collection.
//! let query = miner.parse_query(&["w1", "w2"], Operator::Or).unwrap();
//! let top = miner.top_k_smj(&query, 5);
//! for hit in &top {
//!     println!("{}  (score {:.4})", miner.phrase_text(hit.phrase), hit.score);
//! }
//! ```
//!
//! ## Budgeted search
//!
//! Every request can carry a budget of three limits — deadline,
//! simulated-IO cap, deterministic step cap — via the
//! [`prelude::SearchRequest`] builder ([`prelude::QueryEngine::request`]);
//! `search_with`, `execute_with_budget` and `execute_batch` are one-line
//! entries into the same execution spine. A budget that trips mid-run
//! returns the anytime result marked
//! [`prelude::Completeness::Truncated`] (never cached); a deadline that
//! passed before execution started returns
//! [`prelude::SearchError::DeadlineExceeded`].
//!
//! ```
//! use interesting_phrases::prelude::*;
//! use std::time::Duration;
//!
//! let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
//! let engine = QueryEngine::new(PhraseMiner::build(&corpus, MinerConfig::default()));
//! let resp = engine
//!     .request("w1 OR w2")
//!     .k(5)
//!     .backend(BackendChoice::Disk)
//!     .deadline(Duration::from_secs(5))
//!     .io_budget(1_000_000)
//!     .run()
//!     .unwrap();
//! assert!(resp.completeness.is_exact()); // generous budget: untouched
//! ```
//!
//! ## Serving: one engine, two backends, four algorithms
//!
//! [`prelude::QueryEngine`] serves string queries with a per-request
//! choice of algorithm ([`prelude::Algorithm`]: NRA, SMJ, TA, exact) and
//! list backend ([`prelude::BackendChoice`]: the in-memory lists, or the
//! simulated-disk image whose every page access is charged to an LRU
//! buffer pool and reported as [`storage::IoStats`]). Repeated queries are
//! answered from a sharded LRU result cache keyed by
//! `(query, k, options)`; hit/miss counters sit next to
//! `queries_served()`. Setting [`prelude::SearchOptions::shards`] (or
//! [`prelude::EngineConfig::shards`] engine-wide) fans one query across
//! that many disjoint phrase-id partitions on parallel threads with an
//! exact deterministic merge — see `docs/architecture.md`.
//!
//! ```
//! use interesting_phrases::prelude::*;
//!
//! let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
//! let engine = QueryEngine::new(PhraseMiner::build(&corpus, MinerConfig::default()));
//! let opts = SearchOptions { algorithm: Algorithm::Smj, backend: BackendChoice::Disk, ..Default::default() };
//! let cold = engine.search_with("w1 OR w2", 5, &opts).unwrap();
//! assert!(cold.io.unwrap().total_fetches() > 0); // disk run: simulated IO
//! let warm = engine.search_with("w1 OR w2", 5, &opts).unwrap();
//! assert!(warm.served_from_cache); // repeat: no list traversal at all
//! ```

//! ## Live index lifecycle (§4.5.1, end to end)
//!
//! The index accepts documents while serving:
//! [`prelude::QueryEngine::ingest_document`] /
//! [`prelude::QueryEngine::delete_document`] record churn in a side
//! delta index; queries sent with [`prelude::SearchOptions::use_delta`]
//! are corrected against it by **all four algorithms** (SMJ/TA/exact
//! stay exact, NRA is labelled approximate — paper §4.5.1);
//! [`prelude::QueryEngine::compact`] flushes the delta into a full
//! offline rebuild behind an atomic swap. Every mutation bumps a
//! monotonic epoch that scopes the result cache, so invalidation happens
//! by key mismatch, never by a wholesale clear. Over the wire the same
//! loop is the protocol-v3 `ingest`/`delete`/`compact` verbs
//! (`ipm ingest` / `ipm delete` / `ipm compact`).

pub use ipm_baselines as baselines;
pub use ipm_core as core;
pub use ipm_corpus as corpus;
pub use ipm_eval as eval;
pub use ipm_index as index;
pub use ipm_server as server;
pub use ipm_storage as storage;

/// Convenient glob-import surface for applications.
///
/// `SearchRequest` is the engine's *builder* API
/// (`engine.request("...").k(10).deadline(d).run()`); the wire-protocol
/// request object of `ipm_server` is re-exported as `WireSearchRequest`.
pub mod prelude {
    pub use ipm_core::budget::{ApproxReason, Budget, BudgetKind, Completeness, SearchError};
    pub use ipm_core::cache::{CacheConfig, CacheStats};
    pub use ipm_core::delta::{DeltaIndex, DeltaOverlay};
    pub use ipm_core::engine::{
        AccessTotals, Algorithm, BackendChoice, CompactionReport, EngineConfig, LifecycleStats,
        QueryEngine, SearchHit, SearchOptions, SearchResponse,
    };
    pub use ipm_core::measures::Measure;
    pub use ipm_core::miner::{MinerConfig, PhraseMiner};
    pub use ipm_core::plan::{QueryPlan, MAX_SHARDS};
    pub use ipm_core::query::{Operator, Query};
    pub use ipm_core::redundancy::RedundancyConfig;
    pub use ipm_core::request::SearchRequest;
    pub use ipm_core::result::PhraseHit;
    pub use ipm_corpus::{
        Corpus, CorpusBuilder, DocId, Feature, PhraseId, TokenizerConfig, WordId,
    };
    pub use ipm_index::phrase::PhraseDictionary;
    pub use ipm_obs::{
        sample_sum, validate_exposition, HistogramSnapshot, QueryTrace, Registry, SlowQueryConfig,
        SlowQueryLog, StageKind,
    };
    pub use ipm_server::{
        run_load, Client, HedgeConfig, Router, RouterConfig, RouterHandle, RouterStats,
        SearchRequest as WireSearchRequest, Server, ServerConfig, ServerHandle, ServerStats,
    };
}
