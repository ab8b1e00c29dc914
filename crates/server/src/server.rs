//! The serving tier: the shared connection front end (`crate::front`)
//! → bounded job queue → fixed worker pool over one shared
//! [`QueryEngine`].
//!
//! Concurrency control, in order of engagement:
//!
//! 1. **Single-flight coalescing** ([`crate::singleflight`]) keyed by the
//!    engine's [`CacheKey`]: concurrent identical requests ride one
//!    execution and each receive a cache-consistent response.
//! 2. **Bounded admission** ([`crate::queue`]): each flight's leader
//!    enqueues exactly one job; when the queue is full the request (and
//!    every follower coalesced behind it) is shed with a structured
//!    `overloaded` error instead of queueing unboundedly.
//! 3. **Fixed workers**: `workers` threads execute jobs against the
//!    engine, so engine concurrency is capped regardless of connection
//!    count.
//!
//! Graceful shutdown (protocol `{"cmd":"shutdown"}` or
//! [`ServerHandle::shutdown`]) stops admission, drains the queue, answers
//! every in-flight request, then joins all threads.

use std::net::{SocketAddr, TcpListener};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ipm_core::{
    BackendChoice, Budget, CacheKey, CacheStats, CompactionReport, LifecycleStats, Query,
    QueryEngine, QueryPlan, SearchError, SearchOptions, SearchResponse,
};
use ipm_corpus::DocId;
use ipm_obs::Histogram;
use ipm_storage::IoStats;
use serde_json::Value;

use crate::front::{Front, Running, Tier};
use crate::queue::{BoundedQueue, PushError};
use crate::singleflight::{Join, SingleFlight, Slot};
use crate::wire::{self, ErrorKind, SearchRequest, WireRequest};

/// Server construction options.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Worker threads executing queries (clamped to ≥ 1).
    pub workers: usize,
    /// Bounded queue depth — the admission-control limit (clamped to ≥ 1).
    pub queue_depth: usize,
    /// Fault-injection knob: extra service delay applied to every
    /// `shard_exec` execution, clamped like `delay_ms` (see
    /// [`MAX_DELAY_MS`]). Lets tests and benches stand up a deterministic
    /// *slow shard replica* — the scenario hedged requests exist for —
    /// without touching the query path. `0` (the default) disables it.
    pub fault_delay_ms: u64,
}

impl Default for ServerConfig {
    /// Loopback ephemeral port, 4 workers, depth 64, no fault injection.
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            fault_delay_ms: 0,
        }
    }
}

/// A snapshot of the serving counters (the `stats` verb's payload).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Successful search responses delivered (coalesced ones included).
    pub served: u64,
    /// Responses delivered by riding another request's execution.
    pub coalesced: u64,
    /// Requests shed by admission control (`overloaded` errors).
    pub shed: u64,
    /// Malformed or unparseable requests answered with an error.
    pub protocol_errors: u64,
    /// Well-formed requests that failed anyway: raced a graceful
    /// shutdown (`shutting_down`) or hit a contained execution failure
    /// (`internal`).
    pub failed: u64,
    /// Requests whose deadline expired before execution could start —
    /// dead-on-arrival work shed at the worker (queue wait counts
    /// against the budget).
    pub deadline_exceeded: u64,
    /// Responses served with `completeness: truncated` — a budget
    /// (deadline or IO cap) stopped the run and the anytime result was
    /// returned.
    pub budget_truncated: u64,
    /// Requests that ended with a structured `cancelled` error. Always
    /// `0` today: the wire has no cancel verb yet, so this counter (like
    /// the error kind) is reserved for wire-level cancellation.
    pub cancelled: u64,
    /// Engine-level queries executed or answered from cache.
    pub queries_served: u64,
    /// Engine lifecycle counters: epoch, ingested/deleted documents,
    /// compactions, and the live delta's size (protocol v3 verbs
    /// `ingest`/`delete`/`compact` drive these).
    pub lifecycle: LifecycleStats,
    /// The engine's default intra-query shard fanout.
    pub default_shards: usize,
    /// Engine-level uncached executions that fanned out across more than
    /// one shard.
    pub sharded_queries: u64,
    /// Engine result-cache counters.
    pub cache: CacheStats,
    /// Aggregate simulated IO of every run on the simulated device
    /// ([`QueryEngine::io_totals`]): disk- *and* block-backed
    /// queries, `shard_exec` calls and fused block batch scans. Served
    /// as the stats verb's `io.disk`.
    pub disk_io: IoStats,
    /// Jobs waiting in the queue right now.
    pub queue_depth: usize,
    /// Worker-pool size.
    pub workers: usize,
}

/// Upper bound on the wire `delay_ms` knob. Workers sleep the delay while
/// holding a pool slot, so an unclamped value from an untrusted client
/// could stall the whole pool and block graceful shutdown forever.
pub const MAX_DELAY_MS: u64 = 5_000;

/// The delay a worker actually sleeps for a requested `delay_ms`:
/// clamped to [`MAX_DELAY_MS`]. Exposed so the clamp is testable without
/// sleeping through it.
pub fn clamped_delay(delay_ms: u64) -> Duration {
    Duration::from_millis(delay_ms.min(MAX_DELAY_MS))
}

type FlightResult = Result<Arc<SearchResponse>, ErrorKind>;

/// One search's per-item outcome inside a batch (error kind plus a
/// human-readable message).
type ItemResult = Result<Arc<SearchResponse>, (ErrorKind, String)>;
/// What a batch job publishes: per-item outcomes in request order.
type BatchResult = Arc<Vec<ItemResult>>;

/// One admitted unit of work.
enum Job {
    /// A single search (possibly the leader of a coalesced flight).
    Search(Box<SearchJob>),
    /// A `{"batch": [...]}` request: several searches behind one
    /// admission slot.
    Batch(BatchJob),
    /// A `{"cmd":"compact"}` request: the offline rebuild runs on a
    /// worker under the same admission control as queries, so compaction
    /// cannot stampede — and since the engine serves the old generation
    /// until the atomic swap, the *other* workers keep answering queries
    /// for the whole rebuild.
    Compact(Arc<Slot<CompactionReport>>),
    /// A wire-v5 `shard_exec` from a router: one shard's execution under
    /// the forwarded deadline. Never coalesced — each scatter leg is a
    /// distinct unit of a distinct query round.
    ShardExec(Box<ShardExecJob>),
}

/// What a shard_exec job publishes: the encoded outcome or an error.
type ShardResult = Result<Value, ErrorKind>;

struct ShardExecJob {
    query: Query,
    options: SearchOptions,
    params: ipm_core::ShardExecParams,
    /// The forwarded deadline, anchored at arrival (the router sent
    /// remaining milliseconds; queue wait here counts against them).
    budget: Budget,
    arrived: Instant,
    slot: Arc<Slot<ShardResult>>,
}

struct SearchJob {
    key: CacheKey,
    item: PreparedSearch,
    /// When the request arrived — the queue-wait histogram measures from
    /// here to worker pickup.
    arrived: Instant,
    slot: Arc<Slot<FlightResult>>,
}

/// One parsed search ready for a worker: a single search's job carries
/// one, a batch job one per item that parsed.
struct PreparedSearch {
    query: Query,
    k: usize,
    options: SearchOptions,
    /// Artificial service time (load-testing knob; see
    /// [`SearchRequest::delay_ms`]), already clamped.
    delay: Duration,
    /// Deadline (anchored at request *arrival*, so queue wait counts
    /// against it) and simulated-IO fetch cap.
    budget: Budget,
    /// Connection-thread query-parse time, reported into the trace (the
    /// engine's tracer starts after parsing).
    parse: Duration,
}

struct BatchJob {
    items: Vec<Result<PreparedSearch, (ErrorKind, String)>>,
    arrived: Instant,
    slot: Arc<Slot<BatchResult>>,
}

#[derive(Default)]
struct Counters {
    served: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    protocol_errors: AtomicU64,
    failed: AtomicU64,
    deadline_exceeded: AtomicU64,
    budget_truncated: AtomicU64,
    cancelled: AtomicU64,
}

/// Server-layer metric instruments, registered on the *engine's* shared
/// [`ipm_obs::Registry`] so one `metrics` scrape covers both layers (the
/// connection series live in [`Front`]). The queue-wait / execute split
/// is the serving-path diagnostic the flat `stats` counters cannot give:
/// a slow p99 with a fast execute histogram means admission backlog, not
/// engine regression.
struct ServerObs {
    queue_wait: Histogram,
    execute: Histogram,
}

impl ServerObs {
    fn new(engine: &QueryEngine) -> Self {
        let r = engine.metrics_registry();
        Self {
            queue_wait: r.histogram(
                "ipm_server_queue_wait_seconds",
                "Admission-to-execution wait per worker job (arrival to worker pickup).",
            ),
            execute: r.histogram(
                "ipm_server_execute_seconds",
                "Engine execution time per search, queue wait and simulated delay excluded.",
            ),
        }
    }
}

struct Shared {
    engine: QueryEngine,
    queue: BoundedQueue<Job>,
    flights: SingleFlight<CacheKey, FlightResult>,
    counters: Counters,
    obs: ServerObs,
    front: Front,
    workers: usize,
    started: Instant,
    /// Clamped [`ServerConfig::fault_delay_ms`] applied to `shard_exec`.
    fault_delay: Duration,
}

impl Tier for Shared {
    const NAME: &'static str = "server";

    fn front(&self) -> &Front {
        &self.front
    }

    fn engine(&self) -> &QueryEngine {
        &self.engine
    }

    fn serve(shared: &Arc<Self>, req: WireRequest) -> String {
        match req {
            WireRequest::Stats => stats_line(shared),
            WireRequest::Search(req) => serve_search(shared, req),
            WireRequest::Batch(reqs) => serve_batch(shared, reqs),
            WireRequest::Ingest { tokens, facets } => serve_ingest(shared, &tokens, &facets),
            WireRequest::Delete { doc } => serve_delete(shared, doc),
            WireRequest::Compact => serve_compact(shared),
            WireRequest::ShardExec(req) => serve_shard_exec(shared, &req),
            WireRequest::Ping | WireRequest::Metrics | WireRequest::Shutdown => {
                unreachable!("the front end answers the control verbs")
            }
        }
    }

    /// Closes admission: queued work drains, new work is refused.
    fn on_shutdown(&self) {
        self.queue.close();
    }

    fn on_bad_line(&self) {
        self.counters
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// A running server. Dropping the handle shuts the server down.
pub struct ServerHandle(Running<Shared>);

/// Namespace for spawning [`ServerHandle`]s.
pub struct Server;

impl Server {
    /// Binds, spawns the accept loop and the worker pool, and returns
    /// immediately.
    ///
    /// # Errors
    /// Propagates the bind failure.
    pub fn spawn(engine: QueryEngine, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let front = Front::new(&engine, Shared::NAME, addr);
        let obs = ServerObs::new(&engine);
        let shared = Arc::new(Shared {
            engine,
            queue: BoundedQueue::new(config.queue_depth),
            flights: SingleFlight::new(),
            counters: Counters::default(),
            obs,
            front,
            workers,
            started: Instant::now(),
            fault_delay: clamped_delay(config.fault_delay_ms),
        });

        let worker_threads = (0..workers)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("ipm-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // lint-allow: server-unwrap — startup spawn: a server that cannot start its workers must not come up
                    .expect("spawn worker")
            })
            .collect();
        Ok(ServerHandle(Running::start(
            shared,
            listener,
            worker_threads,
        )))
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.0.shared.front.addr()
    }

    /// The served engine (shared with every worker).
    pub fn engine(&self) -> &QueryEngine {
        &self.0.shared.engine
    }

    /// Counter snapshot (same numbers the `stats` verb reports).
    pub fn stats(&self) -> ServerStats {
        snapshot(&self.0.shared)
    }

    /// Whether shutdown has begun (requested by the protocol verb or a
    /// previous [`ServerHandle::shutdown`] call).
    pub fn is_shutting_down(&self) -> bool {
        self.0.shared.front.is_shutting_down()
    }

    /// Begins (idempotently) and completes a graceful shutdown: stops
    /// admission, drains queued work, answers in-flight requests, joins
    /// every thread.
    pub fn shutdown(&mut self) {
        self.0.shutdown();
    }

    /// Blocks until a shutdown is requested (e.g. by the protocol verb),
    /// then completes it.
    pub fn join(self) {
        self.0.join();
    }
}

fn snapshot(shared: &Shared) -> ServerStats {
    ServerStats {
        served: shared.counters.served.load(Ordering::Relaxed),
        coalesced: shared.counters.coalesced.load(Ordering::Relaxed),
        shed: shared.counters.shed.load(Ordering::Relaxed),
        protocol_errors: shared.counters.protocol_errors.load(Ordering::Relaxed),
        failed: shared.counters.failed.load(Ordering::Relaxed),
        deadline_exceeded: shared.counters.deadline_exceeded.load(Ordering::Relaxed),
        budget_truncated: shared.counters.budget_truncated.load(Ordering::Relaxed),
        cancelled: shared.counters.cancelled.load(Ordering::Relaxed),
        queries_served: shared.engine.queries_served(),
        lifecycle: shared.engine.lifecycle_stats(),
        default_shards: shared.engine.default_shards(),
        sharded_queries: shared.engine.sharded_queries(),
        cache: shared.engine.cache_stats(),
        disk_io: shared.engine.io_totals(),
        queue_depth: shared.queue.depth(),
        workers: shared.workers,
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        match job {
            Job::Search(job) => run_search_job(shared, *job),
            Job::Batch(job) => run_batch_job(shared, job),
            Job::Compact(slot) => slot.publish(shared.engine.compact()),
            Job::ShardExec(job) => run_shard_exec_job(shared, *job),
        }
    }
}

/// Sleeps the simulated service delay, but never past the deadline: a
/// `deadline_ms: 1` request under `delay_ms: 100` load must come back as
/// a prompt `deadline_exceeded`, not hold a worker for the full delay.
fn sleep_within_deadline(delay: Duration, deadline: Option<Instant>) {
    let capped = match deadline {
        Some(dl) => delay.min(dl.saturating_duration_since(Instant::now())),
        None => delay,
    };
    if !capped.is_zero() {
        std::thread::sleep(capped);
    }
}

/// Maps one engine outcome — a search, a batch item or a shard leg, with
/// any panic already caught — to its value or the wire error kind, and
/// bumps the budget counters (`deadline_exceeded`, `cancelled`).
fn fold_outcome<T>(
    shared: &Shared,
    outcome: std::thread::Result<Result<T, SearchError>>,
) -> Result<T, ErrorKind> {
    match outcome {
        Ok(Ok(value)) => Ok(value),
        Ok(Err(SearchError::DeadlineExceeded)) => {
            shared
                .counters
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            Err(ErrorKind::DeadlineExceeded)
        }
        Ok(Err(SearchError::Cancelled)) => {
            shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
            Err(ErrorKind::Cancelled)
        }
        // Queries are parsed at admission; a parse error here cannot
        // happen, but map it somewhere sane rather than panicking.
        Ok(Err(SearchError::Parse(_))) => Err(ErrorKind::Query),
        Err(_) => Err(ErrorKind::Internal),
    }
}

/// Completes a successful search response: counts a budget truncation
/// and folds the connection-thread parse time — spent before the
/// engine's tracer existed — into the trace and the reported wall time
/// (mirrors `SearchRequest::run`).
fn finish_response(
    shared: &Shared,
    mut resp: SearchResponse,
    parse: Duration,
) -> Arc<SearchResponse> {
    if resp.completeness.is_truncated() {
        shared
            .counters
            .budget_truncated
            .fetch_add(1, Ordering::Relaxed);
    }
    if let Some(trace) = resp.trace.as_mut() {
        trace.record_parse(parse);
    }
    resp.elapsed += parse;
    Arc::new(resp)
}

fn run_search_job(shared: &Shared, job: SearchJob) {
    let SearchJob {
        key,
        item,
        arrived,
        slot,
    } = job;
    shared.obs.queue_wait.observe(arrived.elapsed());
    sleep_within_deadline(item.delay, item.budget.deadline());
    let engine = &shared.engine;
    let exec_started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        engine.execute_with_budget(item.query, item.k, &item.options, &item.budget)
    }));
    shared.obs.execute.observe(exec_started.elapsed());
    let value = fold_outcome(shared, outcome).map(|resp| finish_response(shared, resp, item.parse));
    shared.flights.complete(&key, &slot, value);
}

fn run_batch_job(shared: &Shared, job: BatchJob) {
    let BatchJob {
        items,
        arrived,
        slot,
    } = job;
    // One queue-wait sample PER ITEM: the items shared one admission
    // slot so they shared one wait interval, but the histogram counts
    // items — matching the per-item execute samples recorded below.
    let queue_wait = arrived.elapsed();
    for _ in &items {
        shared.obs.queue_wait.observe(queue_wait);
    }
    // The whole batch shares ONE delay allowance equal to the single-
    // request clamp: 64 items sleeping their per-item clamp back to back
    // would otherwise park this worker for minutes — exactly the pool
    // stall MAX_DELAY_MS exists to rule out. Delays are applied up front
    // (before the fused execution) rather than interleaved between
    // items: the engine walks shared lists once for the whole group, so
    // there is no per-item boundary to sleep at.
    let mut delay_allowance = Duration::from_millis(MAX_DELAY_MS);
    let mut results: Vec<Option<ItemResult>> = Vec::with_capacity(items.len());
    let mut prepared: Vec<(usize, PreparedSearch)> = Vec::new();
    for (i, item) in items.into_iter().enumerate() {
        match item {
            Err(e) => results.push(Some(Err(e))),
            Ok(item) => {
                let delay = item.delay.min(delay_allowance);
                delay_allowance = delay_allowance.saturating_sub(delay);
                sleep_within_deadline(delay, item.budget.deadline());
                results.push(None);
                prepared.push((i, item));
            }
        }
    }
    let engine_items: Vec<ipm_core::BatchItem<'_>> = prepared
        .iter()
        .map(|(_, it)| ipm_core::BatchItem {
            query: it.query.clone(),
            k: it.k,
            options: it.options.clone(),
            budget: &it.budget,
        })
        .collect();
    let engine = &shared.engine;
    let outcome = catch_unwind(AssertUnwindSafe(|| engine.execute_batch(engine_items)));
    match outcome {
        Ok(out) => {
            debug_assert_eq!(out.len(), prepared.len());
            for (item_outcome, (i, it)) in out.into_iter().zip(&prepared) {
                // The item ran inside the fused batch, so there is no
                // per-item wall clock: the engine's own measured
                // `elapsed` (before the parse fold-in) feeds the execute
                // histogram, and error outcomes — dead-on-arrival or trip
                // checks — observe as zero.
                let executed = item_outcome.as_ref().map_or(Duration::ZERO, |r| r.elapsed);
                shared.obs.execute.observe(executed);
                let value = fold_outcome(shared, Ok(item_outcome))
                    .map(|resp| finish_response(shared, resp, it.parse))
                    .map_err(|kind| (kind, error_message(shared, kind)));
                results[*i] = Some(value);
            }
        }
        Err(_) => {
            for (i, _) in &prepared {
                results[*i] = Some(Err((
                    ErrorKind::Internal,
                    error_message(shared, ErrorKind::Internal),
                )));
            }
        }
    }
    let results: Vec<ItemResult> = results
        .into_iter()
        // lint-allow: server-unwrap — structurally infallible: every index was filled by execution or the error backfill arm above, and publishing a partial batch would be worse than crashing the worker
        .map(|r| r.expect("every batch item resolved"))
        .collect();
    slot.publish(Arc::new(results));
}

/// Executes one `shard_exec` on a worker: the configured fault delay
/// (never past the deadline), then the engine's per-shard unit under the
/// forwarded deadline budget. Publishes the encoded outcome.
fn run_shard_exec_job(shared: &Shared, job: ShardExecJob) {
    let ShardExecJob {
        query,
        options,
        params,
        budget,
        arrived,
        slot,
    } = job;
    shared.obs.queue_wait.observe(arrived.elapsed());
    sleep_within_deadline(shared.fault_delay, budget.deadline());
    let exec_started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        shared
            .engine
            .execute_shard(&query, &options, &params, &budget)
    }));
    shared.obs.execute.observe(exec_started.elapsed());
    let value = fold_outcome(shared, outcome).map(|out| {
        if out.tripped {
            shared
                .counters
                .budget_truncated
                .fetch_add(1, Ordering::Relaxed);
        }
        wire::shard_outcome_value(&out)
    });
    slot.publish(value);
}

/// Serves a wire-v5 `shard_exec` verb: parses the query against this
/// node's vocabulary, validates the router's idea of the owned phrase
/// range against the locally derived one (a mis-wired shard set must
/// fail loudly, not silently drop phrases), then runs the shard through
/// the bounded admission queue like any other unit of work.
fn serve_shard_exec(shared: &Shared, req: &wire::ShardExecRequest) -> String {
    let arrived = Instant::now();
    let query = match shared.engine.miner().parse_query_str(&req.query) {
        Ok(q) => q,
        Err(e) => return query_error(shared, &e.to_string()),
    };
    if let Some(want) = req.range {
        let derived = shared.engine.shard_phrase_range(req.fanout, req.shard);
        if derived != Some(want) {
            return query_error(
                shared,
                &format!(
                    "shard range mismatch: router expects {want:?} for shard {}/{} but this \
                     node derives {derived:?} — the tiers are serving different corpus builds",
                    req.shard, req.fanout
                ),
            );
        }
    }
    let job = |slot| {
        Job::ShardExec(Box::new(ShardExecJob {
            query,
            options: req.options(),
            params: req.params(),
            budget: wire::budget(arrived, req.deadline_ms, None),
            arrived,
            slot,
        }))
    };
    match admit(shared, job) {
        Ok(Ok(value)) => wire::ok_line(vec![("shard", value)]),
        Ok(Err(kind)) => error_reply(shared, kind),
        Err(refused) => refused,
    }
}

/// Serves an `ingest` verb: resolves tokens and facets against the
/// serving vocabulary and records the document in the engine's side
/// index. Runs inline on the connection thread — ingestion is a brief
/// delta append, not an execution — so it never competes with queries for
/// a worker slot. Out-of-vocabulary terms are skipped and reported (they
/// can only enter the index at the next compaction's rebuild).
fn serve_ingest(shared: &Shared, tokens: &[String], facets: &[String]) -> String {
    let miner = shared.engine.miner();
    let corpus = miner.corpus();
    let mut ids = Vec::with_capacity(tokens.len());
    let mut unknown_tokens = 0u64;
    for t in tokens {
        match corpus.word_id(t) {
            Some(w) => ids.push(w),
            None => unknown_tokens += 1,
        }
    }
    let mut facet_ids = Vec::with_capacity(facets.len());
    let mut unknown_facets = 0u64;
    for f in facets {
        match corpus.facet_id(f) {
            Some(id) => facet_ids.push(id),
            None => unknown_facets += 1,
        }
    }
    if ids.is_empty() {
        return query_error(
            shared,
            "no ingestible tokens: every term is outside the serving vocabulary \
             (new terms enter at the next compaction)",
        );
    }
    shared.engine.ingest_document(&ids, &facet_ids);
    let stats = shared.engine.lifecycle_stats();
    wire::ok_line(vec![
        ("ingested", Value::from(1u64)),
        ("unknown_tokens", Value::from(unknown_tokens)),
        ("unknown_facets", Value::from(unknown_facets)),
        ("delta_docs", Value::from(stats.delta_docs as u64)),
        ("epoch", Value::from(stats.epoch)),
    ])
}

/// Serves a `delete` verb (inline, like ingest).
fn serve_delete(shared: &Shared, doc: u64) -> String {
    let num_docs = {
        let miner = shared.engine.miner();
        miner.corpus().num_docs() as u64
    };
    if doc >= num_docs {
        return query_error(
            shared,
            &format!("doc {doc} is out of range (corpus holds {num_docs} documents)"),
        );
    }
    let deleted = shared.engine.delete_document(DocId(doc as u32));
    let stats = shared.engine.lifecycle_stats();
    wire::ok_line(vec![
        ("deleted", Value::from(deleted)),
        ("delta_docs", Value::from(stats.delta_docs as u64)),
        ("epoch", Value::from(stats.epoch)),
    ])
}

/// Serves a `compact` verb: the offline rebuild is a real unit of work,
/// so it goes through the bounded admission queue like any search — a
/// full queue sheds it with `overloaded` instead of stacking rebuilds.
/// Queries racing the compaction keep being served from the pre-swap
/// generation by the other workers.
fn serve_compact(shared: &Shared) -> String {
    let report = match admit(shared, Job::Compact) {
        Ok(report) => report,
        Err(refused) => return refused,
    };
    wire::ok_line(vec![
        ("compacted", Value::from(report.compacted)),
        ("epoch", Value::from(report.epoch)),
        ("docs", Value::from(report.docs as u64)),
        ("phrases", Value::from(report.phrases as u64)),
        ("absorbed_adds", Value::from(report.absorbed_adds as u64)),
        (
            "absorbed_deletes",
            Value::from(report.absorbed_deletes as u64),
        ),
        ("elapsed_us", Value::from(report.elapsed.as_micros() as u64)),
    ])
}

/// The human-readable message accompanying a structured error kind.
fn error_message(shared: &Shared, kind: ErrorKind) -> String {
    match kind {
        ErrorKind::Overloaded => format!(
            "queue full ({} pending); request shed",
            shared.queue.capacity()
        ),
        ErrorKind::ShuttingDown => "server is draining".to_owned(),
        ErrorKind::DeadlineExceeded => {
            "deadline exceeded (queue wait counts against the budget)".to_owned()
        }
        ErrorKind::Cancelled => "request cancelled".to_owned(),
        _ => "execution failed".to_owned(),
    }
}

/// Bumps the right counter for an error response delivered to a client.
/// Budget errors (`deadline_exceeded`, `cancelled`) are counted at the
/// worker that produced them, not here — a batch surfaces many of them
/// in one response line.
fn count_error(shared: &Shared, kind: ErrorKind) {
    match kind {
        ErrorKind::Overloaded => {
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
        }
        ErrorKind::DeadlineExceeded | ErrorKind::Cancelled => {}
        // Parse/query failures were counted as protocol errors when the
        // request (or batch item) was prepared.
        ErrorKind::Parse | ErrorKind::Query => {}
        // Well-formed requests that raced shutdown or hit a contained
        // execution failure are not protocol errors.
        ErrorKind::ShuttingDown | ErrorKind::Internal => {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Counts an error response and builds its line.
fn error_reply(shared: &Shared, kind: ErrorKind) -> String {
    count_error(shared, kind);
    wire::error_line(kind, &error_message(shared, kind))
}

/// Counts a well-framed request the engine cannot serve (unknown term,
/// out-of-range document, mis-wired shard) as a protocol error and
/// builds its `query` error line.
fn query_error(shared: &Shared, message: &str) -> String {
    shared
        .counters
        .protocol_errors
        .fetch_add(1, Ordering::Relaxed);
    wire::error_line(ErrorKind::Query, message)
}

/// The error kind a refused admission answers with.
fn refusal(err: PushError) -> ErrorKind {
    match err {
        PushError::Full => ErrorKind::Overloaded,
        PushError::Closed => ErrorKind::ShuttingDown,
    }
}

/// Admits one unit of work behind its own (never coalesced) slot and
/// waits for the worker's value. A refused push is counted and comes
/// back as the finished error line.
fn admit<V: Clone>(shared: &Shared, job: impl FnOnce(Arc<Slot<V>>) -> Job) -> Result<V, String> {
    let slot = Slot::solo();
    match shared.queue.try_push(job(slot.clone())) {
        Ok(()) => Ok(slot.wait()),
        Err(err) => Err(error_reply(shared, refusal(err))),
    }
}

/// Prepares one parsed search for execution: query, engine options,
/// clamped delay and the budget anchored at arrival. (The cache key is
/// built only where a flight needs one — `serve_search`.) A query that
/// does not parse counts as a protocol error.
fn prepare(
    shared: &Shared,
    req: &SearchRequest,
    arrived: Instant,
) -> Result<PreparedSearch, String> {
    let parse_started = Instant::now();
    let query = match shared.engine.miner().parse_query_str(&req.query) {
        Ok(query) => query,
        Err(e) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            return Err(e.to_string());
        }
    };
    let parse = parse_started.elapsed();
    Ok(PreparedSearch {
        query,
        k: req.k,
        options: req.options(),
        delay: clamped_delay(req.delay_ms),
        budget: wire::budget(arrived, req.deadline_ms, req.io_budget),
        parse,
    })
}

fn serve_search(shared: &Shared, req: SearchRequest) -> String {
    let arrived = Instant::now();
    let item = match prepare(shared, &req, arrived) {
        Ok(item) => item,
        Err(msg) => return wire::error_line(ErrorKind::Query, &msg),
    };
    let plan = QueryPlan::resolve(&item.options, shared.engine.default_shards());
    let key = CacheKey::new(
        &item.query,
        req.k,
        &item.options,
        plan.shards,
        shared.engine.epoch(),
    );
    let submit = |slot: &Arc<Slot<FlightResult>>| {
        let job = Job::Search(Box::new(SearchJob {
            key: key.clone(),
            item,
            arrived,
            slot: slot.clone(),
        }));
        match shared.queue.try_push(job) {
            // The submitter waits like any follower; the worker publishes
            // through the shared slot.
            Ok(()) => slot.wait(),
            Err(err) => {
                // Shed the whole flight: the submitter and every follower
                // that already attached get the refusal.
                let kind = refusal(err);
                shared.flights.complete(&key, slot, Err(kind));
                Err(kind)
            }
        }
    };

    let (result, coalesced) = if req.is_budgeted() || req.trace {
        // Budgeted requests never coalesce: a deadline- or IO-truncated
        // result reflects *this* request's budget, and serving it to (or
        // taking it from) another flight would hand callers the wrong
        // completeness. Traced requests ride solo for the same reason —
        // the trace describes one concrete execution, and the flag is
        // excluded from the cache key, so a follower could otherwise
        // receive (or withhold) another request's trace. The solo slot is
        // still completed through the flight map API — it is simply never
        // registered there.
        (submit(&Slot::solo()), false)
    } else {
        match shared.flights.join(&key) {
            Join::Follower(slot) => (slot.wait(), true),
            Join::Leader(slot) => (submit(&slot), false),
        }
    };
    let waited = arrived.elapsed();

    match result {
        Ok(resp) => {
            shared.counters.served.fetch_add(1, Ordering::Relaxed);
            if coalesced {
                shared.counters.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            let mut server = std::collections::BTreeMap::new();
            server.insert("wait_us".to_owned(), Value::from(waited.as_micros() as u64));
            server.insert("coalesced".to_owned(), Value::from(coalesced));
            wire::ok_line(vec![
                (
                    "result",
                    wire::response_value(&resp, shared.engine.miner().corpus()),
                ),
                ("server", Value::Object(server)),
            ])
        }
        Err(kind) => error_reply(shared, kind),
    }
}

/// Serves a `{"batch": [...]}` request: one admission slot for the whole
/// batch, per-item results/errors in the response. Query-parse failures
/// become per-item errors (the rest of the batch still runs); a full
/// queue sheds the entire batch with one `overloaded` line.
fn serve_batch(shared: &Shared, reqs: Vec<SearchRequest>) -> String {
    let arrived = Instant::now();
    let items = reqs
        .iter()
        .map(|req| prepare(shared, req, arrived).map_err(|msg| (ErrorKind::Query, msg)))
        .collect();
    let results: BatchResult = match admit(shared, |slot| {
        Job::Batch(BatchJob {
            items,
            arrived,
            slot,
        })
    }) {
        Ok(results) => results,
        Err(refused) => return refused,
    };
    let miner = shared.engine.miner();
    let corpus = miner.corpus();
    let encoded: Vec<Value> = results
        .iter()
        .map(|item| match item {
            Ok(resp) => {
                shared.counters.served.fetch_add(1, Ordering::Relaxed);
                wire::ok_value(vec![("result", wire::response_value(resp, corpus))])
            }
            Err((kind, msg)) => {
                count_error(shared, *kind);
                wire::error_value(*kind, msg)
            }
        })
        .collect();
    wire::ok_line(vec![("batch", Value::Array(encoded))])
}

fn stats_line(shared: &Shared) -> String {
    let s = snapshot(shared);
    let mut cache = std::collections::BTreeMap::new();
    cache.insert("hits".to_owned(), Value::from(s.cache.hits));
    cache.insert("misses".to_owned(), Value::from(s.cache.misses));
    cache.insert("hit_rate".to_owned(), Value::from(s.cache.hit_rate()));
    // Per-backend aggregate IO. The memory backend performs no simulated
    // IO by construction, so it gets no entry here — its real work shows
    // up in `access` below, where the old schema used to hard-code an
    // all-zero IoStats.
    let mut io = std::collections::BTreeMap::new();
    io.insert("disk".to_owned(), wire::io_value(&s.disk_io));
    // Per-backend list-access totals from the engine's metrics registry:
    // sorted accesses, random probes, block entries skipped (always 0,
    // kept for wire compatibility), and algorithm rounds — aggregated
    // over every uncached execution.
    let mut access = std::collections::BTreeMap::new();
    for (name, choice) in [
        ("memory", BackendChoice::Memory),
        ("disk", BackendChoice::Disk),
        ("block", BackendChoice::Block),
    ] {
        let t = shared.engine.access_totals(choice);
        let mut m = std::collections::BTreeMap::new();
        m.insert("sorted_accesses".to_owned(), Value::from(t.sorted_accesses));
        m.insert("random_probes".to_owned(), Value::from(t.random_probes));
        m.insert("entries_skipped".to_owned(), Value::from(t.entries_skipped));
        m.insert("rounds".to_owned(), Value::from(t.rounds));
        access.insert(name.to_owned(), Value::Object(m));
    }
    let mut stats = std::collections::BTreeMap::new();
    stats.insert("served".to_owned(), Value::from(s.served));
    stats.insert("coalesced".to_owned(), Value::from(s.coalesced));
    stats.insert("shed".to_owned(), Value::from(s.shed));
    stats.insert("protocol_errors".to_owned(), Value::from(s.protocol_errors));
    stats.insert("failed".to_owned(), Value::from(s.failed));
    stats.insert(
        "deadline_exceeded".to_owned(),
        Value::from(s.deadline_exceeded),
    );
    stats.insert(
        "budget_truncated".to_owned(),
        Value::from(s.budget_truncated),
    );
    stats.insert("cancelled".to_owned(), Value::from(s.cancelled));
    stats.insert("queries_served".to_owned(), Value::from(s.queries_served));
    // Index-lifecycle counters (protocol v3): the current epoch, ingest /
    // delete / compaction totals, and the live delta's size.
    stats.insert("epoch".to_owned(), Value::from(s.lifecycle.epoch));
    stats.insert("ingested".to_owned(), Value::from(s.lifecycle.ingested));
    stats.insert("deleted".to_owned(), Value::from(s.lifecycle.deleted));
    stats.insert(
        "compactions".to_owned(),
        Value::from(s.lifecycle.compactions),
    );
    stats.insert(
        "delta_docs".to_owned(),
        Value::from(s.lifecycle.delta_docs as u64),
    );
    // Shard-fanout surface: the engine default plus how many executions
    // actually ran partitioned.
    let mut shards = std::collections::BTreeMap::new();
    shards.insert("default".to_owned(), Value::from(s.default_shards as u64));
    shards.insert("sharded_queries".to_owned(), Value::from(s.sharded_queries));
    stats.insert("shards".to_owned(), Value::Object(shards));
    stats.insert("cache".to_owned(), Value::Object(cache));
    stats.insert("io".to_owned(), Value::Object(io));
    stats.insert("access".to_owned(), Value::Object(access));
    stats.insert("queue_depth".to_owned(), Value::from(s.queue_depth));
    stats.insert("workers".to_owned(), Value::from(s.workers));
    stats.insert(
        "uptime_us".to_owned(),
        Value::from(shared.started.elapsed().as_micros() as u64),
    );
    wire::ok_line(vec![("stats", Value::Object(stats))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_clamp_is_bounded() {
        assert_eq!(MAX_DELAY_MS, 5_000);
        assert_eq!(clamped_delay(0), Duration::ZERO);
        assert_eq!(clamped_delay(10), Duration::from_millis(10));
        assert_eq!(
            clamped_delay(u64::MAX),
            Duration::from_millis(MAX_DELAY_MS),
            "the wire delay knob must never park a worker past the clamp"
        );
    }

    #[test]
    fn delay_sleep_is_capped_by_the_deadline() {
        // A huge requested delay with a near deadline must return almost
        // immediately — the deadline, not the (clamped) delay, bounds it.
        let start = Instant::now();
        sleep_within_deadline(
            clamped_delay(u64::MAX),
            Some(Instant::now() + Duration::from_millis(20)),
        );
        assert!(
            start.elapsed() < Duration::from_millis(500),
            "slept {:?} despite a 20 ms deadline",
            start.elapsed()
        );
        // An already-expired deadline skips the sleep entirely.
        let start = Instant::now();
        sleep_within_deadline(Duration::from_secs(5), Some(Instant::now()));
        assert!(start.elapsed() < Duration::from_millis(100));
    }
}
