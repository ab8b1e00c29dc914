//! The builder-style request API: one fluent object carrying *what* to
//! run (query, `k`, algorithm, backend, fanout) **and** *how much it may
//! cost* (deadline, simulated-IO cap, step cap).
//!
//! ```
//! use ipm_core::{Algorithm, BackendChoice, MinerConfig, PhraseMiner, QueryEngine};
//! use std::time::Duration;
//!
//! let (corpus, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
//! let engine = QueryEngine::new(PhraseMiner::build(&corpus, MinerConfig::default()));
//! let resp = engine
//!     .request("w1 OR w2")
//!     .k(5)
//!     .algorithm(Algorithm::Nra)
//!     .backend(BackendChoice::Disk)
//!     .shards(2)
//!     .deadline(Duration::from_secs(5))
//!     .io_budget(1_000_000)
//!     .run()
//!     .unwrap();
//! assert!(resp.completeness.is_exact()); // generous budget: untouched
//! ```

use std::time::Duration;

use crate::budget::{Budget, SearchError};
use crate::engine::{Algorithm, BackendChoice, QueryEngine, SearchOptions, SearchResponse};
use crate::query::Query;
use crate::redundancy::RedundancyConfig;

/// What the builder was given to search for.
#[derive(Debug, Clone)]
enum Input {
    /// A query string, parsed by [`SearchRequest::run`].
    Text(String),
    /// An already-parsed query.
    Parsed(Query),
}

/// A budgeted search request against one [`QueryEngine`] —
/// built by [`QueryEngine::request`] / [`QueryEngine::request_query`],
/// consumed by [`SearchRequest::run`].
///
/// Every knob of the legacy [`SearchOptions`] struct is available as a
/// builder method, plus the budget dimensions the options struct never
/// had. Unset budget fields mean "unlimited".
#[derive(Debug, Clone)]
pub struct SearchRequest<'e> {
    engine: &'e QueryEngine,
    input: Input,
    k: usize,
    options: SearchOptions,
    deadline: Option<Duration>,
    io_budget: Option<u64>,
    step_budget: Option<u64>,
}

impl<'e> SearchRequest<'e> {
    /// Default result count when [`SearchRequest::k`] is not called.
    pub const DEFAULT_K: usize = 10;

    pub(crate) fn new(engine: &'e QueryEngine, input: String) -> Self {
        Self {
            engine,
            input: Input::Text(input),
            k: Self::DEFAULT_K,
            options: SearchOptions::default(),
            deadline: None,
            io_budget: None,
            step_budget: None,
        }
    }

    pub(crate) fn for_query(engine: &'e QueryEngine, query: Query) -> Self {
        Self {
            engine,
            input: Input::Parsed(query),
            k: Self::DEFAULT_K,
            options: SearchOptions::default(),
            deadline: None,
            io_budget: None,
            step_budget: None,
        }
    }

    /// Result count (default [`SearchRequest::DEFAULT_K`]).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Retrieval algorithm (default NRA).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.options.algorithm = algorithm;
        self
    }

    /// List backend (default memory).
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.options.backend = backend;
        self
    }

    /// Intra-query shard fanout (default: the engine's configured
    /// default; clamped by the planner).
    pub fn shards(mut self, n: usize) -> Self {
        self.options.shards = Some(n);
        self
    }

    /// Fraction of each score-ordered list NRA may read (paper §4.3).
    pub fn nra_fraction(mut self, fraction: f64) -> Self {
        self.options.nra_fraction = Some(fraction);
        self
    }

    /// §5.6 redundancy filter.
    pub fn redundancy(mut self, config: RedundancyConfig) -> Self {
        self.options.redundancy = Some(config);
        self
    }

    /// Apply the engine's attached §4.5.1 delta corrections.
    pub fn use_delta(mut self, on: bool) -> Self {
        self.options.use_delta = on;
        self
    }

    /// Collect a structured per-stage trace with the response
    /// ([`SearchResponse::trace`]). Never changes results or cache
    /// identity.
    pub fn trace(mut self, on: bool) -> Self {
        self.options.trace = on;
        self
    }

    /// Replaces the whole options struct at once (for callers migrating
    /// from the [`SearchOptions`]-based shims).
    pub fn options(mut self, options: SearchOptions) -> Self {
        self.options = options;
        self
    }

    /// Wall-clock deadline, measured from [`SearchRequest::run`]. A
    /// deadline that expires mid-run truncates the result
    /// ([`crate::Completeness::Truncated`]); one that is already zero
    /// fails with [`SearchError::DeadlineExceeded`].
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Cap on simulated disk page fetches across all shards (the §5.5
    /// unit of IO cost; only the disk backend performs simulated IO).
    pub fn io_budget(mut self, fetches: u64) -> Self {
        self.io_budget = Some(fetches);
        self
    }

    /// Cap on cooperative checkpoints — the *deterministic* budget (no
    /// clock, no device; each shard of a fan-out gets `ceil(checks /
    /// fanout)` of it): useful for reproducible truncation in tests and
    /// for bounding work on the memory backend.
    pub fn step_budget(mut self, checks: u64) -> Self {
        self.step_budget = Some(checks);
        self
    }

    /// The [`Budget`] this request's knobs assemble (deadline anchored at
    /// "now").
    fn build_budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(d) = self.deadline {
            budget = budget.deadline_in(d);
        }
        if let Some(cap) = self.io_budget {
            budget = budget.with_io_budget(cap);
        }
        if let Some(cap) = self.step_budget {
            budget = budget.with_step_budget(cap);
        }
        budget
    }

    /// Parses (if needed) and executes the request.
    ///
    /// # Errors
    /// [`SearchError::Parse`] for malformed input or unknown terms,
    /// and [`SearchError::DeadlineExceeded`] when the deadline expired
    /// before execution started.
    pub fn run(self) -> Result<SearchResponse, SearchError> {
        let parse_started = std::time::Instant::now();
        let query = match self.input {
            Input::Parsed(ref q) => q.clone(),
            Input::Text(ref s) => self.engine.miner().parse_query_str(s)?,
        };
        let parse_elapsed = parse_started.elapsed();
        let budget = self.build_budget();
        let mut resp = self
            .engine
            .execute_with_budget(query, self.k, &self.options, &budget)?;
        // Parsing runs before the engine's tracer exists; report it into
        // the trace (and the response's wall time) after the fact.
        if let Some(trace) = resp.trace.as_mut() {
            trace.record_parse(parse_elapsed);
        }
        resp.elapsed += parse_elapsed;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Completeness;
    use crate::miner::{MinerConfig, PhraseMiner};
    use crate::query::Operator;

    fn engine() -> QueryEngine {
        let (c, _) = ipm_corpus::synth::generate(&ipm_corpus::synth::tiny());
        QueryEngine::new(PhraseMiner::build(&c, MinerConfig::default()))
    }

    fn query_string(e: &QueryEngine) -> String {
        let miner = e.miner();
        let corpus = miner.corpus();
        let top = ipm_corpus::stats::top_words_by_df(corpus, 2);
        let words: Vec<&str> = top
            .iter()
            .map(|&(w, _)| corpus.words().term(w).unwrap())
            .collect();
        words.join(" OR ")
    }

    #[test]
    fn builder_matches_legacy_shim_byte_for_byte() {
        let e = engine();
        let q = query_string(&e);
        for (alg, backend) in [
            (Algorithm::Nra, BackendChoice::Memory),
            (Algorithm::Smj, BackendChoice::Disk),
            (Algorithm::Ta, BackendChoice::Memory),
            (Algorithm::Exact, BackendChoice::Disk),
        ] {
            let opts = SearchOptions {
                algorithm: alg,
                backend,
                ..Default::default()
            };
            let legacy = e.search_with(&q, 5, &opts).unwrap();
            e.clear_cache();
            let built = e
                .request(q.clone())
                .k(5)
                .algorithm(alg)
                .backend(backend)
                .run()
                .unwrap();
            assert_eq!(legacy.hits, built.hits, "{alg:?}/{backend:?}");
            assert_eq!(legacy.completeness, built.completeness);
            assert!(built.completeness.is_exact());
        }
    }

    #[test]
    fn parse_errors_are_structured() {
        let e = engine();
        match e.request("zzzz_not_a_word_zzzz").run() {
            Err(SearchError::Parse(_)) => {}
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn zero_deadline_is_dead_on_arrival() {
        let e = engine();
        let q = query_string(&e);
        assert!(matches!(
            e.request(q).deadline(Duration::ZERO).run(),
            Err(SearchError::DeadlineExceeded)
        ));
    }

    #[test]
    fn step_budget_truncates_and_is_not_cached() {
        let e = engine();
        let q = query_string(&e);
        let truncated = e.request(q.clone()).k(5).step_budget(1).run().unwrap();
        assert!(
            truncated.completeness.is_truncated(),
            "a 1-step budget must truncate: {:?}",
            truncated.completeness
        );
        // The truncated result must not have been cached...
        let full = e.request(q.clone()).k(5).run().unwrap();
        assert!(!full.served_from_cache);
        assert!(full.completeness.is_exact());
        // ...but the full result is.
        assert!(e.request(q).k(5).run().unwrap().served_from_cache);
    }

    #[test]
    fn cache_hits_satisfy_budgets_for_free() {
        let e = engine();
        let q = query_string(&e);
        let cold = e.request(q.clone()).k(5).run().unwrap();
        assert!(!cold.served_from_cache);
        // Tight step budget, but the cache already has the exact answer.
        let warm = e.request(q).k(5).step_budget(1).run().unwrap();
        assert!(warm.served_from_cache);
        assert!(warm.completeness.is_exact());
        assert_eq!(cold.hits, warm.hits);
    }

    #[test]
    fn request_query_accepts_parsed_queries() {
        let e = engine();
        let q = query_string(&e);
        let parsed = e.miner().parse_query_str(&q).unwrap();
        let resp = e.request_query(parsed).k(3).run().unwrap();
        assert_eq!(resp.hits.len(), 3);
        assert_eq!(resp.query.op, Operator::Or);
    }

    #[test]
    fn approximate_configurations_are_labelled() {
        let e = engine();
        let q = query_string(&e);
        let resp = e.request(q).nra_fraction(0.3).run().unwrap();
        assert!(matches!(
            resp.completeness,
            Completeness::Approximate { .. }
        ));
    }
}
