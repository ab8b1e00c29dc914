//! The execution spine: every public entry point is a one-line way into
//! `QueryEngine::serve` (or, for a single shard of someone else's
//! scatter, `QueryEngine::execute_shard`), and every request walks the
//! same five steps:
//!
//! ```text
//! prologue     dead-on-arrival check, tracer, plan, delta snapshot,
//!    │         base completeness
//! cache probe  (skipped for routed requests) ── hit ──┐
//!    │ miss                                           │
//! list lease   backend × fanout, cold views (a pool   │
//!    │         per lease), IO booked once             │
//! run          fan-out │ fused hits │ scatter         │
//!    │                                                │
//! epilogue     trip → completeness, counters, cache insert, latency,
//!              trace, response  <─────────────────────┘
//! ```
//!
//! Local, fused-member and routed execution differ only in where the hits
//! come from (`Source`) and in whether the result cache is probed.

use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use super::batch::{DecodeBinding, FusedHits};
use super::live::{IndexState, LiveState, ShardedIndex};
use super::obs::completeness_label;
use super::{
    BackendChoice, BatchItem, CacheKey, QueryEngine, ResultCache, SearchHit, SearchOptions,
    SearchResponse, ShardExecParams,
};
use crate::budget::{ApproxReason, Budget, BudgetKind, Completeness, SearchError};
use crate::parse::ParseError;
use crate::plan::{
    base_completeness, run_one_shard, run_query, run_query_on, seed_floor, ExecContext, ExecStats,
    NraTuning, QueryPlan, RunReport, ShardExecutor, ShardOutcome, MAX_SHARDS,
};
use crate::query::{Operator, Query};
use crate::request::SearchRequest;
use crate::result::PhraseHit;
use crate::scoring::estimated_interestingness;
use ipm_corpus::PhraseId;
use ipm_index::backend::{ListBackend, ListEncoding};
use ipm_index::block::BlockLists;
use ipm_obs::{StageKind, TraceMeta, Tracer};
use ipm_storage::{CachedBlockImage, FlatLists, IoStats, PagedImage};

/// What a request fixes before it touches a list — computed once, by
/// `QueryEngine::prologue`, for every entry point.
struct Prepared<'a> {
    start: Instant,
    /// Algorithm, backend and the fanout this request executes at.
    plan: QueryPlan,
    /// The completeness of an undisturbed run (no trip, no lost shard).
    base: Completeness,
    ctx: ExecContext<'a>,
}

/// Where an uncached request's hits come from — the one thing local,
/// fused-member and routed execution disagree on.
pub(super) enum Source<'a> {
    /// Lease this engine's own lists and run the planned fan-out over
    /// them (through the batch's decoded-block cache, when bound).
    Local(Option<&'a DecodeBinding<'a>>),
    /// The batch group's shared scan already produced this member's hits.
    Fused(FusedHits),
    /// Scatter over external shard executors (a router's RPC clients).
    Routed(&'a [&'a dyn ShardExecutor]),
}

/// What one uncached execution hands the epilogue.
type Executed = (Vec<SearchHit>, ExecStats, Option<IoStats>, RunReport);

/// The result cache paired with the key this request probes and fills.
type Keyed<'a> = (&'a ResultCache, CacheKey);

/// A caller of the list lease (`QueryEngine::lease`). The method is
/// generic so each backend type monomorphises its own copy of the
/// algorithm loops — the lease adds no dynamic dispatch to them.
pub(super) trait ListVisitor {
    type Out;

    /// `shards` holds one backend per shard of the leased fanout, in
    /// ascending phrase-range order. `charge_text(i, phrase)` charges the
    /// text lookup of a hit that shard `i` owns to that shard's pool and
    /// returns the pages it fetched (`0` on the memory backend).
    fn visit<B: ListBackend + Sync>(
        self,
        shards: &[&B],
        charge_text: &dyn Fn(usize, PhraseId) -> u64,
    ) -> Self::Out;
}

/// A list encoding the lease serves from [`PagedImage`]s: where an index
/// generation and a shard layout keep its lazily built images, and how a
/// batch's decoded-block cache binds to them.
pub(super) trait Paged: ListEncoding + 'static {
    /// The generation's unsharded image.
    fn image_slot(state: &IndexState) -> &OnceLock<Arc<PagedImage<Self>>>;

    /// The layout's per-shard images.
    fn shards_slot(layout: &ShardedIndex) -> &OnceLock<Vec<PagedImage<Self>>>;

    /// Runs `visitor` over `images`. Only the block encoding decodes, so
    /// only it reads through the batch's decoded-block cache.
    fn visit<V: ListVisitor>(
        images: &[PagedImage<Self>],
        _decode: Option<&DecodeBinding<'_>>,
        visitor: V,
        charge_text: &dyn Fn(usize, PhraseId) -> u64,
    ) -> V::Out {
        let refs: Vec<_> = images.iter().collect();
        visitor.visit(&refs, charge_text)
    }
}

impl Paged for FlatLists {
    fn image_slot(state: &IndexState) -> &OnceLock<Arc<PagedImage<Self>>> {
        &state.disk
    }

    fn shards_slot(layout: &ShardedIndex) -> &OnceLock<Vec<PagedImage<Self>>> {
        &layout.disk
    }
}

impl Paged for BlockLists {
    fn image_slot(state: &IndexState) -> &OnceLock<Arc<PagedImage<Self>>> {
        &state.block
    }

    fn shards_slot(layout: &ShardedIndex) -> &OnceLock<Vec<PagedImage<Self>>> {
        &layout.block
    }

    fn visit<V: ListVisitor>(
        images: &[PagedImage<Self>],
        decode: Option<&DecodeBinding<'_>>,
        visitor: V,
        charge_text: &dyn Fn(usize, PhraseId) -> u64,
    ) -> V::Out {
        let Some(d) = decode else {
            let refs: Vec<_> = images.iter().collect();
            return visitor.visit(&refs, charge_text);
        };
        let cached: Vec<_> = images
            .iter()
            .map(|image| CachedBlockImage::new(image, d.cache, d.epoch, d.stats, 1))
            .collect();
        let refs: Vec<_> = cached.iter().collect();
        visitor.visit(&refs, charge_text)
    }
}

/// Local execution: the planned fan-out over all leased shards, then the
/// hit texts — resolved inside the lease, so each hit's lookup (the
/// paper's last retrieval step) is charged to the shard owning it.
struct LocalRun<'a> {
    ctx: &'a ExecContext<'a>,
    query: &'a Query,
    k: usize,
}

impl ListVisitor for LocalRun<'_> {
    type Out = (Vec<SearchHit>, ExecStats);

    fn visit<B: ListBackend + Sync>(
        self,
        shards: &[&B],
        charge_text: &dyn Fn(usize, PhraseId) -> u64,
    ) -> Self::Out {
        let (hits, stats) = run_query(self.ctx, shards, self.query, self.k);
        // IO-budgeted (and budget-stopped) requests skip the lookups'
        // charge: the cap governs *list* IO, and the final phrase lookups
        // must neither push a query past a cap it respected nor charge IO
        // after a budget said stop. The fetches a lookup does cause are
        // booked into its shard's trace row, so the rows still sum to the
        // response's IO.
        let budget = self.ctx.budget;
        let charged = !budget.has_io_budget() && !budget.is_tripped();
        let lookup = |phrase| {
            if charged {
                let shard = shards
                    .iter()
                    .position(|s| s.owns_phrase(phrase))
                    .expect("shard ranges cover the phrase space");
                let fetched = charge_text(shard, phrase);
                self.ctx.tracer.add_shard_io(shard, fetched);
            }
        };
        (resolve_hits(self.ctx, self.query.op, hits, lookup), stats)
    }
}

/// `execute_shard`: one shard of the leased fanout, one fetch depth.
struct OneShard<'a> {
    ctx: &'a ExecContext<'a>,
    query: &'a Query,
    params: &'a ShardExecParams,
}

impl ListVisitor for OneShard<'_> {
    type Out = ShardOutcome;

    fn visit<B: ListBackend + Sync>(
        self,
        shards: &[&B],
        _charge_text: &dyn Fn(usize, PhraseId) -> u64,
    ) -> ShardOutcome {
        let p = self.params;
        let tuning = NraTuning {
            lower_floor: p.floor,
            batch_size: p.batch_size,
        };
        let backend = shards[p.shard.min(shards.len() - 1)];
        run_one_shard(self.ctx, backend, self.query, p.fetch, tuning, None)
    }
}

/// Renders hits into response rows under one `text_resolve` span: calls
/// `lookup` once per hit, then takes its text from the miner's
/// dictionary (every backend's texts come from there).
fn resolve_hits(
    ctx: &ExecContext<'_>,
    op: Operator,
    hits: Vec<PhraseHit>,
    lookup: impl Fn(PhraseId),
) -> Vec<SearchHit> {
    let span = ctx.tracer.span(StageKind::TextResolve);
    let resolved = hits
        .into_iter()
        .map(|hit| {
            lookup(hit.phrase);
            SearchHit {
                text: ctx.miner.phrase_text(hit.phrase),
                interestingness: estimated_interestingness(op, hit.score),
                hit,
            }
        })
        .collect();
    span.end();
    resolved
}

impl QueryEngine {
    /// Starts a budgeted request for a query string — the
    /// canonical API; `search_with`, `execute_with_budget` and
    /// `execute_batch` are one-line entries into the same spine.
    ///
    /// ```text
    /// engine.request("trade AND reserves")
    ///     .k(10)
    ///     .algorithm(Algorithm::Nra)
    ///     .backend(BackendChoice::Disk)
    ///     .shards(4)
    ///     .deadline(Duration::from_millis(50))
    ///     .io_budget(10_000)
    ///     .run()?;
    /// ```
    pub fn request(&self, input: impl Into<String>) -> SearchRequest<'_> {
        SearchRequest::new(self, input.into())
    }

    /// [`QueryEngine::request`] for an already-parsed [`Query`].
    pub fn request_query(&self, query: Query) -> SearchRequest<'_> {
        SearchRequest::for_query(self, query)
    }

    /// Parses and serves a string query with explicit options and an
    /// unlimited budget.
    ///
    /// # Errors
    /// Returns the parse error for malformed input or unknown terms.
    pub fn search_with(
        &self,
        input: &str,
        k: usize,
        options: &SearchOptions,
    ) -> Result<SearchResponse, ParseError> {
        let query = self.miner().parse_query_str(input)?;
        Ok(self
            .execute_with_budget(query, k, options, Budget::none())
            .expect("an unlimited budget has no deadline to miss"))
    }

    /// Serves an already-parsed query under an execution [`Budget`]:
    /// planner, dead-on-arrival check, cache lookup, then the (possibly
    /// sharded) executor with cooperative budget checks in every
    /// algorithm loop. A single query is a batch item with no group.
    ///
    /// A budget that trips *during* execution yields `Ok` with
    /// [`Completeness::Truncated`] — the anytime result at the stopping
    /// point (such responses are never cached). Cache hits perform no
    /// list work and satisfy any budget.
    ///
    /// # Errors
    /// [`SearchError::DeadlineExceeded`] when the deadline expired before
    /// execution started.
    pub fn execute_with_budget(
        &self,
        query: Query,
        k: usize,
        options: &SearchOptions,
        budget: &Budget,
    ) -> Result<SearchResponse, SearchError> {
        let options = options.clone();
        let item = BatchItem {
            query,
            k,
            options,
            budget,
        };
        self.serve(&self.live(), item, Source::Local(None))
    }

    /// Serves an already-parsed query by scattering it over `executors` —
    /// one [`ShardExecutor`] per shard, typically a router's remote
    /// `shard_exec` clients — and gathering under the same seeded-floor,
    /// over-fetch and merge logic as the in-process fan-out: both paths
    /// run the identical per-shard unit and the identical total-order
    /// merge, which is what makes routed results bit-identical to
    /// single-process sharded execution in the fully-resolved regime.
    ///
    /// Differences from [`QueryEngine::execute_with_budget`]: no result
    /// cache (the shard tier ages independently of the router's epoch),
    /// the NRA seed floor is computed from the router's own copy of the
    /// lists (the floor is only consulted on the exact path, where the
    /// untruncated lists match the memory lists entry for entry — the
    /// value is identical on every node of the same corpus build), and
    /// shards whose every replica failed degrade the response to
    /// [`Completeness::Approximate`] with [`ApproxReason::ShardsMissing`]
    /// instead of erroring — exact over the surviving partitions, honest
    /// about the absent ones.
    ///
    /// # Errors
    /// [`SearchError::DeadlineExceeded`] when the deadline expired before
    /// execution started.
    pub fn execute_routed(
        &self,
        query: Query,
        k: usize,
        options: &SearchOptions,
        budget: &Budget,
        executors: &[&dyn ShardExecutor],
    ) -> Result<SearchResponse, SearchError> {
        let options = options.clone();
        let item = BatchItem {
            query,
            k,
            options,
            budget,
        };
        self.serve(&self.live(), item, Source::Routed(executors))
    }

    /// Executes exactly one shard of a fanout-`params.fanout` scatter —
    /// the server-side half of the wire-v5 `shard_exec` verb. The node
    /// carves shard `params.shard` out of its own fanout-wide layout
    /// (deterministic equal-width phrase-id ranges, so every node serving
    /// the same corpus build derives the same partition) and runs the
    /// same per-shard unit a local shard runs: algorithm dispatch
    /// plus, on NRA's exact path, resolution of the shard's own hits.
    ///
    /// Disk- and block-backed calls go through the same list lease as
    /// local execution: they run on cold views of the images, whose fresh
    /// simulated pools (paper §5.5) cover this shard's run alone, and add
    /// their IO to [`QueryEngine::io_totals`].
    ///
    /// A budget that trips *during* the run returns `Ok` with
    /// [`ShardOutcome::tripped`] set — the anytime envelope at the
    /// stopping point, which the router surfaces as a truncated response.
    ///
    /// # Errors
    /// [`SearchError::DeadlineExceeded`] when the forwarded deadline
    /// expired before execution started.
    pub fn execute_shard(
        &self,
        query: &Query,
        options: &SearchOptions,
        params: &ShardExecParams,
        budget: &Budget,
    ) -> Result<ShardOutcome, SearchError> {
        let live = self.live();
        let fanout = params.fanout.clamp(1, MAX_SHARDS);
        let prep = self.prologue(&live, options, budget, Some(fanout), false)?;
        let visitor = OneShard {
            ctx: &prep.ctx,
            query,
            params,
        };
        let (mut out, _io) = self.lease(&live.index, options.backend, fanout, None, visitor);
        out.tripped = budget.is_tripped();
        Ok(out)
    }

    /// The spine. `live` is the request's pinned snapshot of the serving
    /// head — a consistent (epoch, index, delta) triple, so a concurrent
    /// ingest or compaction never mixes generations within one request
    /// (or one batch).
    pub(super) fn serve(
        &self,
        live: &LiveState,
        item: BatchItem<'_>,
        source: Source<'_>,
    ) -> Result<SearchResponse, SearchError> {
        let BatchItem {
            query,
            k,
            options,
            budget,
        } = item;
        let routed_fanout = match &source {
            Source::Routed(executors) => Some(executors.len().max(1)),
            _ => None,
        };
        let prep = self.prologue(live, &options, budget, routed_fanout, true)?;
        let ctx = &prep.ctx;
        // Routed requests bypass the result cache: the shard tier ages
        // independently of the router's epoch.
        let cache = self.inner.cache.as_ref();
        let keyed: Option<Keyed<'_>> = cache.filter(|_| routed_fanout.is_none()).map(|cache| {
            let key = CacheKey::new(&query, k, &options, prep.plan.shards, live.epoch);
            (cache, key)
        });
        if let Some((cache, key)) = &keyed {
            let probe_span = ctx.tracer.span(StageKind::CacheProbe);
            let cached = cache.get(key);
            probe_span.end();
            if let Some(hits) = cached {
                self.inner.obs.cache_hits.inc();
                return Ok(self.finish(live, prep, query, k, None, Err(hits)));
            }
            self.inner.obs.cache_misses.inc();
        }

        let exec_span = ctx.tracer.span(StageKind::Execute);
        let executed: Executed = match source {
            Source::Local(decode) => {
                let run = LocalRun {
                    ctx,
                    query: &query,
                    k,
                };
                let plan = prep.plan;
                let ((hits, stats), io) =
                    self.lease(&live.index, plan.backend, plan.shards, decode, run);
                (hits, stats, io, RunReport::default())
            }
            // No per-item IO: the shared scan's IO is a group quantity,
            // accumulated once into the engine totals by the fused scan.
            Source::Fused(fused) => {
                let hits = resolve_hits(ctx, query.op, fused.hits, |_| {});
                (hits, fused.stats, None, RunReport::default())
            }
            Source::Routed(executors) => {
                // The NRA floor is seeded from the router's own copy of
                // the lists, laid out at the scatter's fanout.
                let seed = |fetch: usize| {
                    let layout = self.sharded_index(&live.index, prep.plan.shards);
                    let backends = layout.memory_backends();
                    let refs: Vec<_> = backends.iter().collect();
                    seed_floor(ctx, &refs, &query, fetch)
                };
                let (hits, stats, report) = run_query_on(ctx, executors, &seed, &query, k);
                let hits = resolve_hits(ctx, query.op, hits, |_| {});
                (hits, stats, None, report)
            }
        };
        exec_span.end();
        Ok(self.finish(live, prep, query, k, keyed, Ok(executed)))
    }

    /// The prologue every entry point shares: dead-on-arrival check,
    /// tracer selection, the resolved plan (`fanout` overrides the
    /// planner's — a shard or a router executes at the coordinator's
    /// fanout, not its own default), the delta snapshot, and the
    /// completeness an undisturbed run will report.
    fn prologue<'a>(
        &self,
        live: &'a LiveState,
        options: &'a SearchOptions,
        budget: &'a Budget,
        fanout: Option<usize>,
        traceable: bool,
    ) -> Result<Prepared<'a>, SearchError> {
        let start = Instant::now();
        if let Some(err) = budget.dead_on_arrival() {
            return Err(err);
        }
        // An explicitly traced request always collects; a configured
        // slow-query log additionally forces collection for every query
        // (its ring needs the trace of whichever query turns out slow).
        let tracer = if traceable && (options.trace || self.inner.obs.slow.is_some()) {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        let plan_span = tracer.span(StageKind::Plan);
        let mut plan = QueryPlan::resolve(options, self.inner.default_shards);
        if let Some(n) = fanout {
            plan.shards = n;
        }
        let delta = if options.use_delta {
            live.delta.clone().filter(|d| !d.is_empty())
        } else {
            None
        };
        let miner = &*live.index.miner;
        let base = base_completeness(options, delta.is_some());
        plan_span.end();
        Ok(Prepared {
            start,
            plan,
            base,
            ctx: ExecContext {
                miner,
                options,
                delta,
                budget,
                fanout: plan.shards,
                tracer,
            },
        })
    }

    /// The list lease — the only place that picks the backend(s) for a
    /// `(BackendChoice, fanout)` pair. It builds the lazily derived image
    /// or shard layout, and for the simulated-IO backends runs the visitor
    /// on cold views of the images — each with a fresh pool, the paper's
    /// per-query cold cache (§5.5) — wraps block shards in the batch's
    /// decoded-block cache when `decode` binds one, and after the visitor
    /// returns sums the views' [`IoStats`] and books them — once.
    pub(super) fn lease<V: ListVisitor>(
        &self,
        state: &IndexState,
        backend: BackendChoice,
        fanout: usize,
        decode: Option<&DecodeBinding<'_>>,
        visitor: V,
    ) -> (V::Out, Option<IoStats>) {
        let layout = (fanout > 1).then(|| self.sharded_index(state, fanout));
        let layout = layout.as_deref();
        match backend {
            BackendChoice::Memory => {
                let backends = match layout {
                    Some(layout) => layout.memory_backends(),
                    None => vec![state.miner.memory_backend()],
                };
                let refs: Vec<_> = backends.iter().collect();
                (visitor.visit(&refs, &|_, _| 0), None)
            }
            BackendChoice::Disk => self.lease_paged::<FlatLists, V>(state, layout, decode, visitor),
            BackendChoice::Block => {
                self.lease_paged::<BlockLists, V>(state, layout, decode, visitor)
            }
        }
    }

    /// The lease's one arm for both simulated-IO backends: cold views of
    /// the images of encoding `E` (one per shard of `layout`, or the
    /// generation's unsharded one). The views are this lease's alone, so
    /// concurrent leases neither wait for nor charge each other.
    fn lease_paged<E: Paged, V: ListVisitor>(
        &self,
        state: &IndexState,
        layout: Option<&ShardedIndex>,
        decode: Option<&DecodeBinding<'_>>,
        visitor: V,
    ) -> (V::Out, Option<IoStats>) {
        let unsharded;
        let images: &[PagedImage<E>] = match layout {
            Some(layout) => self.shard_images(state, layout),
            None => {
                unsharded = self.image(state);
                std::slice::from_ref(&*unsharded)
            }
        };
        let views: Vec<_> = images.iter().map(PagedImage::cold_view).collect();
        let charge_text = |shard: usize, phrase| views[shard].charge_text(phrase);
        let out = E::visit(&views, decode, visitor, &charge_text);
        let mut io = IoStats::default();
        for view in &views {
            io.accumulate(&view.io_stats());
        }
        self.book_io(&io);
        (out, Some(io))
    }

    /// Adds one lease's simulated IO to the engine totals and the
    /// `ipm_io_*` metric series.
    pub(super) fn book_io(&self, io: &IoStats) {
        self.inner.io_totals.lock().unwrap().accumulate(io);
        self.inner.obs.record_io(io);
    }

    /// The epilogue: turns a cache hit (`Err`) or an uncached execution
    /// (`Ok`) into the response. For an execution it feeds the work
    /// counters, settles completeness — lost shards outrank a tripped
    /// budget, which outranks a shard-side trip — and caches the result
    /// under its key unless a budget truncated it; for both it bumps the
    /// served counter, observes latency and closes the trace.
    fn finish(
        &self,
        live: &LiveState,
        prep: Prepared<'_>,
        query: Query,
        k: usize,
        keyed: Option<Keyed<'_>>,
        ran: Result<Executed, Arc<Vec<SearchHit>>>,
    ) -> SearchResponse {
        let obs = &self.inner.obs;
        let Prepared {
            start,
            plan,
            base,
            ctx,
        } = prep;
        let budget = ctx.budget;
        let (hits, io, completeness, served_from_cache) = match ran {
            Err(cached) => (cached.as_ref().clone(), None, base, true),
            Ok((hits, stats, io, report)) => {
                obs.record_execution(plan.backend, &stats);
                let completeness = match budget.trip_cause() {
                    _ if !report.missing.is_empty() => Completeness::Approximate {
                        reason: ApproxReason::ShardsMissing {
                            missing: report.missing.len() as u32,
                        },
                    },
                    Some(kind) => {
                        obs.record_trip(kind);
                        Completeness::Truncated { budget_hit: kind }
                    }
                    // A shard's own deadline budget tripped even though
                    // the coordinator's did not: the merge is an anytime
                    // envelope.
                    None if report.remote_tripped => Completeness::Truncated {
                        budget_hit: BudgetKind::Deadline,
                    },
                    None => base,
                };
                if plan.shards > 1 {
                    // lint-allow: relaxed-ordering — monotone query counter, read only by stats
                    self.inner.sharded_queries.fetch_add(1, Ordering::Relaxed);
                    obs.sharded_queries.inc();
                }
                // Truncated results reflect this request's budget, not
                // the query — caching them would serve partial answers to
                // unbudgeted callers.
                if let Some((cache, key)) = keyed.filter(|_| !completeness.is_truncated()) {
                    cache.insert(key, Arc::new(hits.clone()));
                }
                (hits, io, completeness, false)
            }
        };
        // lint-allow: relaxed-ordering — monotone query counter, read only by stats
        self.inner.served.fetch_add(1, Ordering::Relaxed);
        obs.queries_served.inc();
        let elapsed = start.elapsed();
        obs.latency.observe(elapsed);
        let meta = ctx.tracer.is_enabled().then(|| TraceMeta {
            query: query.render(ctx.miner.corpus()),
            algorithm: plan.algorithm.name(),
            backend: plan.backend.name(),
            k,
            shards: plan.shards,
            epoch: live.epoch,
            served_from_cache,
            completeness: completeness_label(&completeness),
            budget_trip: budget.trip_cause().map(BudgetKind::name),
        });
        let trace = meta.and_then(|meta| ctx.tracer.finish(meta));
        // The slow-query ring sees every collected trace; the response
        // carries it only when the request asked.
        if let (Some(slow), Some(trace)) = (&obs.slow, &trace) {
            if slow.offer(trace) {
                obs.slow_queries.inc();
            }
        }
        SearchResponse {
            query,
            hits,
            elapsed,
            io,
            served_from_cache,
            shards: plan.shards,
            completeness,
            trace: trace.filter(|_| ctx.options.trace).map(Box::new),
        }
    }
}
